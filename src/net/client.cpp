#include "net/client.hpp"

namespace probft::net {

namespace {

void check_version(std::uint8_t version) {
  if (version != kClientWireVersion) {
    throw CodecError("client wire: unknown version");
  }
}

void check_payload_size(std::size_t size) {
  if (size > kMaxClientPayload) {
    throw CodecError("client wire: payload exceeds cap");
  }
}

ReplyStatus decode_status(std::uint8_t raw) {
  if (raw > static_cast<std::uint8_t>(ReplyStatus::kRejected)) {
    throw CodecError("client wire: unknown reply status");
  }
  return static_cast<ReplyStatus>(raw);
}

ReadConsistency decode_consistency(std::uint8_t raw) {
  if (raw > static_cast<std::uint8_t>(ReadConsistency::kStaleOk)) {
    throw CodecError("client wire: unknown consistency mode");
  }
  return static_cast<ReadConsistency>(raw);
}

}  // namespace

Bytes ClientRequest::encode() const {
  Writer w;
  w.u8(kClientWireVersion);
  w.u64(client_id);
  w.u64(seq);
  w.bytes(ByteSpan(payload.data(), payload.size()));
  return std::move(w).take();
}

ClientRequest ClientRequest::decode(ByteSpan data) {
  Reader r(data);
  check_version(r.u8());
  ClientRequest req;
  req.client_id = r.u64();
  req.seq = r.u64();
  req.payload = r.bytes();
  check_payload_size(req.payload.size());
  r.expect_exhausted();
  return req;
}

Bytes ClientReply::encode() const {
  Writer w;
  w.u8(kClientWireVersion);
  w.u64(client_id);
  w.u64(seq);
  w.u8(static_cast<std::uint8_t>(status));
  w.u64(slot);
  w.bytes(ByteSpan(result.data(), result.size()));
  return std::move(w).take();
}

ClientReply ClientReply::decode(ByteSpan data) {
  Reader r(data);
  check_version(r.u8());
  ClientReply reply;
  reply.client_id = r.u64();
  reply.seq = r.u64();
  reply.status = decode_status(r.u8());
  reply.slot = r.u64();
  reply.result = r.bytes();
  check_payload_size(reply.result.size());
  r.expect_exhausted();
  return reply;
}

Bytes ReadRequest::encode() const {
  Writer w;
  w.u8(kClientWireVersion);
  w.u64(client_id);
  w.u64(read_id);
  w.u8(static_cast<std::uint8_t>(consistency));
  w.u64(min_index);
  w.bytes(ByteSpan(key.data(), key.size()));
  return std::move(w).take();
}

ReadRequest ReadRequest::decode(ByteSpan data) {
  Reader r(data);
  check_version(r.u8());
  ReadRequest req;
  req.client_id = r.u64();
  req.read_id = r.u64();
  req.consistency = decode_consistency(r.u8());
  req.min_index = r.u64();
  req.key = r.bytes();
  check_payload_size(req.key.size());
  r.expect_exhausted();
  return req;
}

Bytes ReadReply::encode() const {
  Writer w;
  w.u8(kClientWireVersion);
  w.u64(client_id);
  w.u64(read_id);
  w.u8(static_cast<std::uint8_t>(status));
  w.u64(slot);
  w.u64(index);
  w.bytes(ByteSpan(value.data(), value.size()));
  return std::move(w).take();
}

ReadReply ReadReply::decode(ByteSpan data) {
  Reader r(data);
  check_version(r.u8());
  ReadReply reply;
  reply.client_id = r.u64();
  reply.read_id = r.u64();
  reply.status = decode_status(r.u8());
  reply.slot = r.u64();
  reply.index = r.u64();
  reply.value = r.bytes();
  check_payload_size(reply.value.size());
  r.expect_exhausted();
  return reply;
}

}  // namespace probft::net
