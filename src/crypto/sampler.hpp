// VRF-driven recipient sampling (paper §2.4 / §3.1).
//
// VRF_prove(sk, seed, s) in the paper both proves and *selects* a uniform
// sample of s distinct replica IDs. We realize this by expanding the VRF's
// pseudorandom output into a k-of-n sample with a partial Fisher-Yates
// shuffle seeded from the output. The proof shipped in messages is the VRF
// proof; verifiers re-derive the sample from the verified output, so a
// Byzantine replica cannot bias its recipient sample (benefit (1) of §3.1).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "crypto/sha256.hpp"
#include "crypto/suite.hpp"

namespace probft::crypto {

using ReplicaId = std::uint32_t;

struct SampleResult {
  std::vector<ReplicaId> sample;  // sorted, 1-based replica IDs
  Bytes proof;
};

/// Builds the alpha string for a (view, phase) pair: the paper's `v || T`.
[[nodiscard]] Bytes sample_alpha(std::uint64_t view, const char* phase);

/// VRF_prove(K_p, alpha, k): selects k distinct IDs from {1..n}.
[[nodiscard]] SampleResult vrf_sample(const CryptoSuite& suite,
                                      ByteSpan secret_key, ByteSpan alpha,
                                      std::uint32_t n, std::uint32_t k);

/// VRF_verify(K_u, alpha, k, S, P): true iff `claimed` is exactly the sample
/// that `proof` commits to.
[[nodiscard]] bool vrf_sample_verify(const CryptoSuite& suite,
                                     ByteSpan public_key, ByteSpan alpha,
                                     std::uint32_t n, std::uint32_t k,
                                     const std::vector<ReplicaId>& claimed,
                                     ByteSpan proof);

/// Deterministically expands pseudorandom bytes into a sorted k-of-n sample
/// of 1-based IDs (shared by prover and verifier).
[[nodiscard]] std::vector<ReplicaId> expand_sample(ByteSpan randomness,
                                                   std::uint32_t n,
                                                   std::uint32_t k);

/// Per-replica memo of VRF samples and sample-proof verdicts.
///
/// A sample depends only on (key, alpha, n, k), and ECVRF proving is
/// deterministic (RFC 9381 §5.4.2). The alpha is the paper's `v || T`, so
/// every consensus instance that runs in one view draws the same Prepare
/// and Commit samples, and peers ship byte-identical proofs. The memo
/// proves each alpha once and verifies each distinct tuple once.
///
/// Verdicts are keyed by a SHA-256 digest over all six verify inputs. A
/// real proof paired with a fabricated sample is a different key, so it is
/// computed (and rejected), never aliased to the honest verdict. Both
/// tables clear wholesale at the cap, as core::VerdictCache does: memory
/// stays bounded and every answer stays exact. Not thread-safe; one SMR
/// replica owns it on its loop thread.
class SampleMemo {
 public:
  static constexpr std::size_t kCap = 4096;

  /// `public_key` must be `secret_key`'s. A sample this memo proves is
  /// recorded as verifying under it (VRF completeness), so the owner's own
  /// messages, delivered back to it, cost no verify.
  SampleMemo(const CryptoSuite& suite, Bytes secret_key, Bytes public_key,
             std::size_t cap = kCap);

  /// vrf_sample(suite, secret_key, alpha, n, k), proved once per input.
  [[nodiscard]] SampleResult prove(ByteSpan alpha, std::uint32_t n,
                                   std::uint32_t k);
  /// vrf_sample_verify(suite, public_key, ...), computed once per input.
  [[nodiscard]] bool verify(ByteSpan public_key, ByteSpan alpha,
                            std::uint32_t n, std::uint32_t k,
                            const std::vector<ReplicaId>& claimed,
                            ByteSpan proof);

 private:
  using Digest = Sha256::Digest;
  struct DigestHash {
    std::size_t operator()(const Digest& d) const noexcept;
  };

  [[nodiscard]] static Digest verify_key(ByteSpan public_key, ByteSpan alpha,
                                         std::uint32_t n, std::uint32_t k,
                                         const std::vector<ReplicaId>& claimed,
                                         ByteSpan proof);

  const CryptoSuite& suite_;
  Bytes secret_key_;
  Bytes public_key_;
  std::size_t cap_;
  std::unordered_map<Digest, SampleResult, DigestHash> samples_;
  std::unordered_map<Digest, bool, DigestHash> verdicts_;
};

}  // namespace probft::crypto
