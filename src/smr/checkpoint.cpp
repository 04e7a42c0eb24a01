#include "smr/checkpoint.hpp"

#include <set>

#include "crypto/sha256.hpp"

namespace probft::smr {

namespace {

/// Domain separators keep checkpoint votes, hints and per-slot consensus
/// signatures mutually unforgeable from one another.
constexpr std::string_view kCkptDomain = "probft-ckpt-v1";
constexpr std::string_view kHintDomain = "probft-hint-v1";

/// Sanity cap on last_exec entries (a forged state cannot allocate
/// unboundedly); generous against any realistic client population here.
constexpr std::size_t kMaxDedupEntries = 1 << 20;

}  // namespace

Bytes zero_digest() { return Bytes(crypto::Sha256::kDigestSize, 0); }

Bytes chain_digest(const Bytes& prev, const Bytes& value) {
  Writer w;
  w.raw(ByteSpan(prev.data(), prev.size()));
  w.bytes(ByteSpan(value.data(), value.size()));
  const Bytes blob = std::move(w).take();
  return crypto::sha256(ByteSpan(blob.data(), blob.size()));
}

void CheckpointState::encode(Writer& w) const {
  w.u64(slot);
  w.u64(exec_count);
  w.bytes(ByteSpan(log_digest.data(), log_digest.size()));
  w.vec(last_exec,
        [](Writer& ww, const std::pair<std::uint64_t, std::uint64_t>& e) {
          ww.u64(e.first);
          ww.u64(e.second);
        });
}

CheckpointState CheckpointState::decode(Reader& r) {
  CheckpointState state;
  state.slot = r.u64();
  state.exec_count = r.u64();
  state.log_digest = r.bytes();
  if (state.log_digest.size() != crypto::Sha256::kDigestSize) {
    throw CodecError("checkpoint state: bad digest size");
  }
  state.last_exec =
      r.vec<std::pair<std::uint64_t, std::uint64_t>>(
          [](Reader& rr) {
            const std::uint64_t client = rr.u64();
            const std::uint64_t seq = rr.u64();
            return std::pair<std::uint64_t, std::uint64_t>{client, seq};
          },
          kMaxDedupEntries);
  for (std::size_t i = 1; i < state.last_exec.size(); ++i) {
    if (state.last_exec[i - 1].first >= state.last_exec[i].first) {
      throw CodecError("checkpoint state: dedup table not strictly sorted");
    }
  }
  return state;
}

Bytes CheckpointState::digest() const {
  Writer w;
  encode(w);
  const Bytes blob = std::move(w).take();
  return crypto::sha256(ByteSpan(blob.data(), blob.size()));
}

Bytes checkpoint_signing_bytes(std::uint64_t slot, const Bytes& state_digest) {
  Writer w;
  w.str(kCkptDomain);
  w.u64(slot);
  w.bytes(ByteSpan(state_digest.data(), state_digest.size()));
  return std::move(w).take();
}

Bytes hint_signing_bytes(std::uint64_t slot, const Bytes& value_digest) {
  Writer w;
  w.str(kHintDomain);
  w.u64(slot);
  w.bytes(ByteSpan(value_digest.data(), value_digest.size()));
  return std::move(w).take();
}

void CheckpointVote::encode(Writer& w) const {
  w.u64(slot);
  w.bytes(ByteSpan(state_digest.data(), state_digest.size()));
  w.u32(signer);
  w.bytes(ByteSpan(signature.data(), signature.size()));
}

CheckpointVote CheckpointVote::decode(Reader& r) {
  CheckpointVote vote;
  vote.slot = r.u64();
  vote.state_digest = r.bytes();
  vote.signer = r.u32();
  vote.signature = r.bytes();
  if (vote.state_digest.size() != crypto::Sha256::kDigestSize) {
    throw CodecError("checkpoint vote: bad digest size");
  }
  return vote;
}

void CheckpointCert::encode(Writer& w) const {
  w.u64(slot);
  w.bytes(ByteSpan(state_digest.data(), state_digest.size()));
  w.vec(signatures, [](Writer& ww, const std::pair<ReplicaId, Bytes>& s) {
    ww.u32(s.first);
    ww.bytes(ByteSpan(s.second.data(), s.second.size()));
  });
}

CheckpointCert CheckpointCert::decode(Reader& r) {
  CheckpointCert cert;
  cert.slot = r.u64();
  cert.state_digest = r.bytes();
  if (cert.state_digest.size() != crypto::Sha256::kDigestSize) {
    throw CodecError("checkpoint cert: bad digest size");
  }
  cert.signatures = r.vec<std::pair<ReplicaId, Bytes>>(
      [](Reader& rr) {
        const ReplicaId signer = rr.u32();
        Bytes sig = rr.bytes();
        return std::pair<ReplicaId, Bytes>{signer, std::move(sig)};
      },
      /*max_items=*/4096);
  return cert;
}

bool verify_checkpoint_cert(const CheckpointCert& cert, std::uint32_t n,
                            std::uint32_t f, const crypto::CryptoSuite& suite,
                            const crypto::PublicKeyDir& keys) {
  const std::size_t quorum = 2 * static_cast<std::size_t>(f) + 1;
  if (cert.signatures.size() < quorum) return false;
  const Bytes msg = checkpoint_signing_bytes(cert.slot, cert.state_digest);
  std::set<ReplicaId> seen;
  for (const auto& [signer, signature] : cert.signatures) {
    if (signer == 0 || signer > n) return false;
    if (!seen.insert(signer).second) return false;  // duplicate signer
    if (!suite.verify(keys[signer], msg, signature)) {
      return false;
    }
  }
  return true;
}

}  // namespace probft::smr
