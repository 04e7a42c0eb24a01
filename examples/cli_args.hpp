// Strict command-line value parsers shared by probft_node, probft_client
// and scenario_runner. A malformed value throws std::invalid_argument,
// which each binary turns into its usage exit (status 2): trailing
// garbage, negatives, out-of-range numbers, NaN and wrapped ports must
// fail, not silently run a different configuration.
#pragma once

#include <cctype>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/tcp_transport.hpp"

namespace probft::cli {

/// Digits only, the whole string, at most `max`. A leading sign or space
/// would let stoull wrap a negative.
inline std::uint64_t parse_u64(
    const std::string& text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    throw std::invalid_argument(text);
  }
  std::size_t consumed = 0;
  const std::uint64_t value = std::stoull(text, &consumed);
  if (consumed != text.size()) throw std::invalid_argument(text);
  if (value > max) throw std::invalid_argument("out of range " + text);
  return value;
}

/// A 32-bit count or id: rejected above 2^32 - 1, not truncated.
inline std::uint32_t parse_u32(const std::string& text) {
  return static_cast<std::uint32_t>(
      parse_u64(text, std::numeric_limits<std::uint32_t>::max()));
}

/// A finite number, the whole string.
inline double parse_double(const std::string& text) {
  std::size_t consumed = 0;
  const double value = std::stod(text, &consumed);
  if (consumed != text.size() || !std::isfinite(value)) {
    throw std::invalid_argument(text);
  }
  return value;
}

/// A ProBFT factor (o, l): in (0, 100].
inline double parse_factor(const std::string& text) {
  const double value = parse_double(text);
  if (value <= 0.0 || value > 100.0) {
    throw std::invalid_argument("bad factor " + text);
  }
  return value;
}

/// 1 | true or 0 | false.
inline bool parse_bool(const std::string& text) {
  if (text == "1" || text == "true") return true;
  if (text == "0" || text == "false") return false;
  throw std::invalid_argument(text);
}

/// A TCP port, 0..65535: out-of-range values are rejected, not wrapped.
inline std::uint16_t parse_port(const std::string& text) {
  return static_cast<std::uint16_t>(parse_u64(text, 65535));
}

/// Comma-separated items; "a,,b" keeps the empty one, a trailing comma
/// adds none.
inline std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> items;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    items.push_back(csv.substr(pos, comma - pos));  // npos clamps
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return items;
}

/// A comma-separated host:port list (--peers, --servers); port 0 is
/// rejected.
inline std::vector<net::PeerAddress> parse_host_ports(const std::string& csv) {
  std::vector<net::PeerAddress> addresses;
  for (const std::string& entry : split_csv(csv)) {
    const std::size_t colon = entry.rfind(':');
    if (colon == std::string::npos || colon == 0) {
      throw std::invalid_argument("address must be host:port: " + entry);
    }
    const std::uint16_t port = parse_port(entry.substr(colon + 1));
    if (port == 0) throw std::invalid_argument("bad port in " + entry);
    addresses.push_back(net::PeerAddress{entry.substr(0, colon), port});
  }
  return addresses;
}

}  // namespace probft::cli
