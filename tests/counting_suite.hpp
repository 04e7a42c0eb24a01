// A CryptoSuite wrapper that passes every call through and counts the
// signature and VRF verifications, for tests that pin how often a replica
// pays for crypto.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/suite.hpp"

namespace probft::testutil {

class CountingSuite final : public crypto::CryptoSuite {
 public:
  /// `own_public_key`: the owning replica's key; verify calls made under it
  /// are also counted in own_key_verifies.
  explicit CountingSuite(std::unique_ptr<crypto::CryptoSuite> inner,
                         Bytes own_public_key = {})
      : inner_(std::move(inner)), own_public_key_(std::move(own_public_key)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] crypto::KeyPair keygen(std::uint64_t seed) const override {
    return inner_->keygen(seed);
  }
  [[nodiscard]] Bytes sign(ByteSpan secret_key,
                           ByteSpan message) const override {
    return inner_->sign(secret_key, message);
  }
  [[nodiscard]] bool verify(ByteSpan public_key, ByteSpan message,
                            ByteSpan signature) const override {
    ++verifies;
    if (std::ranges::equal(public_key, own_public_key_)) ++own_key_verifies;
    return inner_->verify(public_key, message, signature);
  }
  [[nodiscard]] bool verify_batch(
      const std::vector<crypto::SigCheck>& checks) const override {
    return inner_->verify_batch(checks);
  }
  [[nodiscard]] crypto::VrfResult vrf_prove(ByteSpan secret_key,
                                            ByteSpan alpha) const override {
    ++vrf_proves;
    return inner_->vrf_prove(secret_key, alpha);
  }
  [[nodiscard]] std::optional<Bytes> vrf_verify(
      ByteSpan public_key, ByteSpan alpha, ByteSpan proof) const override {
    ++vrf_verifies;
    return inner_->vrf_verify(public_key, alpha, proof);
  }

  mutable std::uint64_t verifies = 0;
  mutable std::uint64_t own_key_verifies = 0;
  mutable std::uint64_t vrf_proves = 0;
  mutable std::uint64_t vrf_verifies = 0;

 private:
  std::unique_ptr<crypto::CryptoSuite> inner_;
  Bytes own_public_key_;
};

}  // namespace probft::testutil
