#include "core/messages.hpp"

#include <cstring>
#include <map>

#include "crypto/sha256.hpp"

namespace probft::core {

namespace {

void encode_id_list(Writer& w, const std::vector<ReplicaId>& ids) {
  w.vec(ids, [](Writer& out, ReplicaId id) { out.u32(id); });
}

std::vector<ReplicaId> decode_id_list(Reader& r) {
  return r.vec<ReplicaId>([](Reader& in) { return in.u32(); });
}

/// Hashes one field exactly as Writer::bytes encodes it (u32-LE length ‖
/// data), so a digest over encoded fields needs no intermediate buffer.
void hash_field(crypto::Sha256& h, ByteSpan data) {
  const auto len = static_cast<std::uint32_t>(data.size());
  const std::uint8_t prefix[4] = {
      static_cast<std::uint8_t>(len), static_cast<std::uint8_t>(len >> 8),
      static_cast<std::uint8_t>(len >> 16),
      static_cast<std::uint8_t>(len >> 24)};
  h.update(ByteSpan(prefix, sizeof(prefix)));
  h.update(data);
}

}  // namespace

// ---------------- SignedProposal ----------------

void SignedProposal::encode(Writer& w) const {
  w.u64(view);
  w.bytes(value);
  w.bytes(leader_sig);
}

SignedProposal SignedProposal::decode(Reader& r) {
  SignedProposal out;
  out.view = r.u64();
  out.value = r.bytes();
  out.leader_sig = r.bytes();
  return out;
}

Bytes SignedProposal::signing_bytes(View view, ByteSpan value) {
  Writer w;
  w.str("probft/proposal");
  w.u64(view);
  w.bytes(value);
  return std::move(w).take();
}

// ---------------- PhaseMsg ----------------

void PhaseMsg::encode(Writer& w) const {
  proposal.encode(w);
  encode_id_list(w, sample);
  w.bytes(vrf_proof);
  w.u32(sender);
  w.bytes(sender_sig);
}

PhaseMsg PhaseMsg::decode(Reader& r) {
  PhaseMsg out;
  out.proposal = SignedProposal::decode(r);
  out.sample = decode_id_list(r);
  out.vrf_proof = r.bytes();
  out.sender = r.u32();
  out.sender_sig = r.bytes();
  return out;
}

Bytes PhaseMsg::signing_bytes(MsgTag tag) const {
  Writer w;
  w.str(tag == MsgTag::kPrepare ? "probft/prepare" : "probft/commit");
  proposal.encode(w);
  encode_id_list(w, sample);
  w.bytes(vrf_proof);
  w.u32(sender);
  return std::move(w).take();
}

Bytes PhaseMsg::to_bytes() const {
  Writer w;
  encode(w);
  return std::move(w).take();
}

PhaseMsg PhaseMsg::from_bytes(ByteSpan data) {
  Reader r(data);
  auto out = decode(r);
  r.expect_exhausted();
  return out;
}

const Bytes& PhaseMsg::content_digest() const {
  if (digest_memo_.empty()) {
    const Bytes enc = to_bytes();
    digest_memo_ = crypto::sha256(ByteSpan(enc.data(), enc.size()));
  }
  return digest_memo_;
}

// ---------------- NewLeaderMsg ----------------

namespace {

/// The one place that knows NewLeaderMsg's field order. The certificate is
/// written/read through the callbacks because the same layout is used with
/// two cert representations: inline PhaseMsgs (standalone wire messages)
/// and u32 back-references into a pool (inside a ProposeMsg).
template <typename CertWriter>
void encode_new_leader_body(Writer& w, const NewLeaderMsg& m,
                            CertWriter&& write_cert) {
  w.u64(m.view);
  w.u64(m.prepared_view);
  w.bytes(m.prepared_value);
  write_cert(w, m.cert);
  w.u32(m.sender);
  w.bytes(m.sender_sig);
}

template <typename CertReader>
NewLeaderMsg decode_new_leader_body(Reader& r, CertReader&& read_cert) {
  NewLeaderMsg out;
  out.view = r.u64();
  out.prepared_view = r.u64();
  out.prepared_value = r.bytes();
  out.cert = read_cert(r);
  out.sender = r.u32();
  out.sender_sig = r.bytes();
  return out;
}

void encode_cert_inline(Writer& w, const std::vector<PhaseMsgPtr>& cert) {
  w.vec(cert, [](Writer& out, const PhaseMsgPtr& m) { m->encode(out); });
}

std::vector<PhaseMsgPtr> decode_cert_inline(Reader& r) {
  return r.vec<PhaseMsgPtr>(
      [](Reader& in) {
        return std::make_shared<PhaseMsg>(PhaseMsg::decode(in));
      },
      4096);
}

}  // namespace

void NewLeaderMsg::encode(Writer& w) const {
  encode_new_leader_body(w, *this, encode_cert_inline);
}

NewLeaderMsg NewLeaderMsg::decode(Reader& r) {
  return decode_new_leader_body(r, decode_cert_inline);
}

Bytes NewLeaderMsg::signing_bytes() const {
  // The certificate is covered through its members' content digests, not
  // the flat encoding: the digests are memoized on the PhaseMsg objects,
  // so building (and hashing) the signed string is O(q·32) bytes instead
  // of re-serializing O(q) full Prepare messages — this string is rebuilt
  // on every verification, which made the flat form a justification-path
  // hot spot. Collision resistance of SHA-256 keeps the signature binding.
  Writer w;
  w.str("probft/newleader");
  w.u64(view);
  w.u64(prepared_view);
  w.bytes(prepared_value);
  w.vec(cert, [](Writer& out, const PhaseMsgPtr& m) {
    const Bytes& d = m->content_digest();
    out.bytes(ByteSpan(d.data(), d.size()));
  });
  w.u32(sender);
  return std::move(w).take();
}

Bytes NewLeaderMsg::to_bytes() const {
  Writer w;
  encode(w);
  return std::move(w).take();
}

NewLeaderMsg NewLeaderMsg::from_bytes(ByteSpan data) {
  Reader r(data);
  auto out = decode(r);
  r.expect_exhausted();
  return out;
}

const Bytes& NewLeaderMsg::content_digest() const {
  // signing_bytes() already binds every field (certs via their digests);
  // appending the sender signature makes the digest cover the full message
  // without re-serializing the certificate payload. The hash input is
  // str(domain) ‖ bytes(signing_bytes()) ‖ bytes(sender_sig) in Writer
  // encoding, streamed field by field.
  if (digest_memo_.empty()) {
    static const Bytes kDomain = probft::to_bytes("probft/newleader-digest");
    crypto::Sha256 h;
    hash_field(h, kDomain);
    const Bytes signing = signing_bytes();
    hash_field(h, signing);
    hash_field(h, sender_sig);
    const auto digest = h.finalize();
    digest_memo_.assign(digest.begin(), digest.end());
  }
  return digest_memo_;
}

// ---------------- ProposeMsg ----------------

namespace {

/// Upper bound on distinct pooled cert entries in one Propose (each correct
/// replica contributes at most one Prepare per view, so the pool is O(n)).
constexpr std::size_t kCertPoolLimit = 1 << 16;

}  // namespace

void ProposeMsg::encode(Writer& w) const {
  proposal.encode(w);
  // Wire-level certificate dedup: a Prepare multicast to its VRF sample
  // lands verbatim in every sample member's prepared certificate, so the
  // NewLeader messages inside a justification overlap in O(q) PhaseMsgs
  // each. The wire format therefore carries each distinct PhaseMsg once in
  // a pool (first-appearance order) and encodes every cert as u32
  // back-references into it. signing_bytes() stays defined over the flat
  // logical content, so signatures are independent of this compression.
  // Dedup by memoized content digest: decoded justifications share one
  // pointer per distinct message, but a leader assembles its set from
  // independently-decoded NewLeader messages, so equal content can live
  // behind distinct pointers.
  std::map<Bytes, std::uint32_t, BytesLess> index_of;  // digest -> index
  std::vector<const PhaseMsg*> pool;
  std::vector<std::vector<std::uint32_t>> refs(justification.size());
  for (std::size_t i = 0; i < justification.size(); ++i) {
    refs[i].reserve(justification[i].cert.size());
    for (const PhaseMsgPtr& pm : justification[i].cert) {
      auto [it, inserted] = index_of.try_emplace(
          pm->content_digest(), static_cast<std::uint32_t>(pool.size()));
      if (inserted) pool.push_back(pm.get());
      refs[i].push_back(it->second);
    }
  }
  w.u32(static_cast<std::uint32_t>(pool.size()));
  for (const PhaseMsg* pm : pool) pm->encode(w);
  w.u32(static_cast<std::uint32_t>(justification.size()));
  for (std::size_t i = 0; i < justification.size(); ++i) {
    encode_new_leader_body(
        w, justification[i],
        [&refs, i](Writer& out, const std::vector<PhaseMsgPtr>&) {
          out.vec(refs[i],
                  [](Writer& o, std::uint32_t idx) { o.u32(idx); });
        });
  }
  w.u32(sender);
  w.bytes(sender_sig);
}

ProposeMsg ProposeMsg::decode(Reader& r) {
  ProposeMsg out;
  out.proposal = SignedProposal::decode(r);
  // Every cert below shares the pool pointer, so the lazily-memoized
  // content digest (the verification-cache key) is computed at most once
  // per distinct PhaseMsg per Propose — and not at all for messages the
  // replica rejects before verifying.
  const auto pool = r.vec<PhaseMsgPtr>(
      [](Reader& in) {
        return std::make_shared<PhaseMsg>(PhaseMsg::decode(in));
      },
      kCertPoolLimit);
  out.justification = r.vec<NewLeaderMsg>(
      [&pool](Reader& in) {
        return decode_new_leader_body(in, [&pool](Reader& rr) {
          const auto refs = rr.vec<std::uint32_t>(
              [](Reader& r2) { return r2.u32(); }, 4096);
          std::vector<PhaseMsgPtr> cert;
          cert.reserve(refs.size());
          for (const std::uint32_t idx : refs) {
            if (idx >= pool.size()) {
              throw CodecError("propose: cert back-reference out of range");
            }
            cert.push_back(pool[idx]);
          }
          return cert;
        });
      },
      4096);
  out.sender = r.u32();
  out.sender_sig = r.bytes();
  return out;
}

Bytes ProposeMsg::signing_bytes() const {
  // As with NewLeaderMsg: the justification is bound through per-message
  // content digests, so signing/verifying a Propose is O(|M|·32) bytes
  // instead of re-serializing every embedded certificate.
  Writer w;
  w.str("probft/propose");
  proposal.encode(w);
  w.vec(justification, [](Writer& out, const NewLeaderMsg& m) {
    const Bytes& d = m.content_digest();
    out.bytes(ByteSpan(d.data(), d.size()));
  });
  w.u32(sender);
  return std::move(w).take();
}

Bytes ProposeMsg::to_bytes() const {
  Writer w;
  encode(w);
  return std::move(w).take();
}

ProposeMsg ProposeMsg::from_bytes(ByteSpan data) {
  Reader r(data);
  auto out = decode(r);
  r.expect_exhausted();
  return out;
}

// ---------------- WishMsg ----------------

void WishMsg::encode(Writer& w) const {
  w.u64(view);
  w.u32(sender);
  w.bytes(sender_sig);
}

WishMsg WishMsg::decode(Reader& r) {
  WishMsg out;
  out.view = r.u64();
  out.sender = r.u32();
  out.sender_sig = r.bytes();
  return out;
}

Bytes WishMsg::signing_bytes() const {
  Writer w;
  w.str("probft/wish");
  w.u64(view);
  w.u32(sender);
  return std::move(w).take();
}

Bytes WishMsg::to_bytes() const {
  Writer w;
  encode(w);
  return std::move(w).take();
}

WishMsg WishMsg::from_bytes(ByteSpan data) {
  Reader r(data);
  auto out = decode(r);
  r.expect_exhausted();
  return out;
}

}  // namespace probft::core
