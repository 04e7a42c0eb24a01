#include "crypto/sampler.hpp"

#include <algorithm>
#include <utility>

#include "common/rng.hpp"

namespace probft::crypto {

Bytes sample_alpha(std::uint64_t view, const char* phase) {
  Bytes alpha;
  for (int i = 0; i < 8; ++i) {
    alpha.push_back(static_cast<std::uint8_t>(view >> (8 * i)));
  }
  alpha.push_back('|');
  for (const char* p = phase; *p != '\0'; ++p) {
    alpha.push_back(static_cast<std::uint8_t>(*p));
  }
  return alpha;
}

std::vector<ReplicaId> expand_sample(ByteSpan randomness, std::uint32_t n,
                                     std::uint32_t k) {
  auto rng = Xoshiro256StarStar::from_bytes(randomness.data(),
                                            randomness.size());
  auto zero_based = sample_without_replacement(rng, n, k);
  std::vector<ReplicaId> sample(zero_based.size());
  std::transform(zero_based.begin(), zero_based.end(), sample.begin(),
                 [](std::uint32_t id) { return id + 1; });
  std::sort(sample.begin(), sample.end());
  return sample;
}

SampleResult vrf_sample(const CryptoSuite& suite, ByteSpan secret_key,
                        ByteSpan alpha, std::uint32_t n, std::uint32_t k) {
  auto vrf = suite.vrf_prove(secret_key, alpha);
  SampleResult out;
  out.sample = expand_sample(ByteSpan(vrf.output.data(), vrf.output.size()),
                             n, k);
  out.proof = std::move(vrf.proof);
  return out;
}

bool vrf_sample_verify(const CryptoSuite& suite, ByteSpan public_key,
                       ByteSpan alpha, std::uint32_t n, std::uint32_t k,
                       const std::vector<ReplicaId>& claimed, ByteSpan proof) {
  const auto output = suite.vrf_verify(public_key, alpha, proof);
  if (!output) return false;
  const auto expected =
      expand_sample(ByteSpan(output->data(), output->size()), n, k);
  return expected == claimed;
}

namespace {

void put_u64(Sha256& h, std::uint64_t v) {
  std::uint8_t le[8];
  for (int i = 0; i < 8; ++i) le[i] = static_cast<std::uint8_t>(v >> (8 * i));
  h.update(ByteSpan(le, sizeof(le)));
}

/// Length-prefixed, so no two input tuples share an encoding.
void put_field(Sha256& h, ByteSpan field) {
  put_u64(h, field.size());
  h.update(field);
}

}  // namespace

std::size_t SampleMemo::DigestHash::operator()(
    const Digest& d) const noexcept {
  std::size_t h = 0;
  for (std::size_t i = 0; i < sizeof(h); ++i) h = (h << 8) | d[i];
  return h;
}

SampleMemo::SampleMemo(const CryptoSuite& suite, Bytes secret_key,
                       Bytes public_key, std::size_t cap)
    : suite_(suite),
      secret_key_(std::move(secret_key)),
      public_key_(std::move(public_key)),
      cap_(cap) {}

SampleMemo::Digest SampleMemo::verify_key(
    ByteSpan public_key, ByteSpan alpha, std::uint32_t n, std::uint32_t k,
    const std::vector<ReplicaId>& claimed, ByteSpan proof) {
  Sha256 h;
  put_field(h, public_key);
  put_field(h, alpha);
  put_u64(h, n);
  put_u64(h, k);
  put_u64(h, claimed.size());
  for (const ReplicaId id : claimed) put_u64(h, id);
  put_field(h, proof);
  return h.finalize();
}

SampleResult SampleMemo::prove(ByteSpan alpha, std::uint32_t n,
                               std::uint32_t k) {
  Sha256 h;
  put_field(h, alpha);
  put_u64(h, n);
  put_u64(h, k);
  const Digest key = h.finalize();
  if (const auto it = samples_.find(key); it != samples_.end()) {
    return it->second;
  }
  SampleResult sampled = vrf_sample(suite_, secret_key_, alpha, n, k);
  if (samples_.size() >= cap_) samples_.clear();
  samples_.emplace(key, sampled);
  if (verdicts_.size() >= cap_) verdicts_.clear();
  verdicts_.emplace(
      verify_key(public_key_, alpha, n, k, sampled.sample, sampled.proof),
      true);
  return sampled;
}

bool SampleMemo::verify(ByteSpan public_key, ByteSpan alpha, std::uint32_t n,
                        std::uint32_t k,
                        const std::vector<ReplicaId>& claimed,
                        ByteSpan proof) {
  const Digest key = verify_key(public_key, alpha, n, k, claimed, proof);
  if (const auto it = verdicts_.find(key); it != verdicts_.end()) {
    return it->second;
  }
  const bool ok =
      vrf_sample_verify(suite_, public_key, alpha, n, k, claimed, proof);
  if (verdicts_.size() >= cap_) verdicts_.clear();
  verdicts_.emplace(key, ok);
  return ok;
}

}  // namespace probft::crypto
