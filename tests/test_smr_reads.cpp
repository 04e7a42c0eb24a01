// Read fast path tests (smr/reads.hpp: the ReadView, the read messages
// and smr::ReadPath behind SmrReplica::submit_read; and the client read
// wire messages in net/client.hpp):
//
//  - ReadView projection: key/value split, overwrite, watermark.
//  - Hostile buffers for every new wire message — LeaseRequest,
//    LeaseGrant, ReadIndexRequest, ReadIndexAttest, ReadRequest,
//    ReadReply: truncation at every prefix, trailing bytes, garbage
//    versions, wrong kind bytes, oversize signatures/payloads must all
//    throw CodecError, never misparse.
//  - Fleet behavior on the simulated network: stale-ok/sequential/
//    linearizable semantics, lease serving at the leader, quorum
//    read-index at followers, read timeouts under partition, and the
//    pinned regression — a deposed, partitioned lease holder must NEVER
//    serve a stale linearizable read after a view change decides a
//    conflicting write behind its back.
//  - The rules around it: a state transfer rejects parked reads, a
//    granter holding a Wish refuses renewals until its promise lapses,
//    and a WAL-restarted leader reads through read-index.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "crypto/sha256.hpp"
#include "net/client.hpp"
#include "sim/scenario.hpp"
#include "smr/batch.hpp"
#include "smr/checkpoint.hpp"
#include "smr/reads.hpp"
#include "smr/smr_replica.hpp"
#include "smr_test_fleet.hpp"

namespace probft::smr {
namespace {

// ---- ReadView projection ----

TEST(ReadView, KeySplitsAtFirstEquals) {
  const Bytes kv = to_bytes("account=100");
  EXPECT_EQ(Bytes(read_view_key(ByteSpan(kv.data(), kv.size())).begin(),
                  read_view_key(ByteSpan(kv.data(), kv.size())).end()),
            to_bytes("account"));
  EXPECT_EQ(Bytes(read_view_value(ByteSpan(kv.data(), kv.size())).begin(),
                  read_view_value(ByteSpan(kv.data(), kv.size())).end()),
            to_bytes("100"));
  // '=' in the value stays in the value (split at the FIRST '=').
  const Bytes nested = to_bytes("k=a=b");
  EXPECT_EQ(Bytes(read_view_value(ByteSpan(nested.data(), nested.size()))
                      .begin(),
                  read_view_value(ByteSpan(nested.data(), nested.size()))
                      .end()),
            to_bytes("a=b"));
  // No '=': the whole payload is both key and value — the historical
  // opaque-payload workloads keep their digests.
  const Bytes opaque = to_bytes("req-9001-3");
  EXPECT_EQ(Bytes(read_view_key(ByteSpan(opaque.data(), opaque.size()))
                      .begin(),
                  read_view_key(ByteSpan(opaque.data(), opaque.size()))
                      .end()),
            opaque);
  EXPECT_EQ(Bytes(read_view_value(ByteSpan(opaque.data(), opaque.size()))
                      .begin(),
                  read_view_value(ByteSpan(opaque.data(), opaque.size()))
                      .end()),
            opaque);
}

TEST(ReadView, LastWriteWinsAndWatermarkIsMonotonic) {
  ReadView view;
  EXPECT_EQ(view.lookup(ByteSpan{}), nullptr);
  view.apply(0, 0, to_bytes("k=v1"));
  view.apply(0, 1, to_bytes("other=x"));
  view.set_watermark(1);
  const Bytes k = to_bytes("k");
  const ReadViewEntry* entry = view.lookup(ByteSpan(k.data(), k.size()));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->value, to_bytes("v1"));
  EXPECT_EQ(entry->slot, 0U);
  EXPECT_EQ(entry->index, 0U);

  view.apply(3, 7, to_bytes("k=v2"));
  view.set_watermark(4);
  entry = view.lookup(ByteSpan(k.data(), k.size()));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->value, to_bytes("v2"));
  EXPECT_EQ(entry->slot, 3U);
  EXPECT_EQ(entry->index, 7U);
  EXPECT_EQ(view.watermark(), 4U);
  // set_watermark never regresses.
  view.set_watermark(2);
  EXPECT_EQ(view.watermark(), 4U);
  EXPECT_EQ(view.size(), 2U);

  const Bytes missing = to_bytes("nope");
  EXPECT_EQ(view.lookup(ByteSpan(missing.data(), missing.size())), nullptr);
}

// ---- hostile buffers: read-path wire messages ----

/// No strict prefix of `wire` may decode, and one trailing byte must be
/// rejected too: truncation/corruption throws, never misparses.
template <typename T>
void expect_strict_codec(const Bytes& wire) {
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_THROW((void)T::decode(ByteSpan(wire.data(), len)), CodecError)
        << "truncated prefix length " << len;
  }
  Bytes trailing = wire;
  trailing.push_back(0x00);
  EXPECT_THROW(
      (void)T::decode(ByteSpan(trailing.data(), trailing.size())),
      CodecError)
      << "trailing byte accepted";
}

/// Garbage version bytes must be rejected (valid = `good`).
template <typename T>
void expect_version_checked(const Bytes& wire, std::uint8_t good) {
  Bytes mutated = wire;
  for (const std::uint8_t version : {0x00, 0x02, 0x03, 0x7f, 0xff}) {
    if (version == good) continue;
    mutated[0] = version;
    EXPECT_THROW(
        (void)T::decode(ByteSpan(mutated.data(), mutated.size())),
        CodecError)
        << "garbage version " << int(version);
  }
}

TEST(ReadWire, LeaseRequestRoundTripAndHostileBuffers) {
  LeaseRequest request;
  request.epoch = 0x0102030405060708ULL;
  request.leader = 3;
  const Bytes wire = request.encode();
  EXPECT_EQ(wire[0], kReadWireVersion);
  EXPECT_EQ(peek_read_msg_kind(ByteSpan(wire.data(), wire.size())),
            kLeaseRequestKind);
  EXPECT_EQ(LeaseRequest::decode(ByteSpan(wire.data(), wire.size())),
            request);
  expect_strict_codec<LeaseRequest>(wire);
  expect_version_checked<LeaseRequest>(wire, kReadWireVersion);
  // Wrong kind byte: a LeaseGrant frame must not decode as a request.
  Bytes wrong_kind = wire;
  wrong_kind[1] = kLeaseGrantKind;
  EXPECT_THROW((void)LeaseRequest::decode(
                   ByteSpan(wrong_kind.data(), wrong_kind.size())),
               CodecError);
}

TEST(ReadWire, LeaseGrantRoundTripAndHostileBuffers) {
  LeaseGrant grant;
  grant.epoch = 42;
  grant.leader = 1;
  grant.granter = 4;
  grant.signature = Bytes(64, 0xab);
  const Bytes wire = grant.encode();
  EXPECT_EQ(peek_read_msg_kind(ByteSpan(wire.data(), wire.size())),
            kLeaseGrantKind);
  EXPECT_EQ(LeaseGrant::decode(ByteSpan(wire.data(), wire.size())), grant);
  expect_strict_codec<LeaseGrant>(wire);
  expect_version_checked<LeaseGrant>(wire, kReadWireVersion);
  Bytes wrong_kind = wire;
  wrong_kind[1] = kReadIndexAttestKind;
  EXPECT_THROW((void)LeaseGrant::decode(
                   ByteSpan(wrong_kind.data(), wrong_kind.size())),
               CodecError);
  // Oversize signature: the length prefix must be capped before any
  // allocation is honored.
  LeaseGrant fat = grant;
  fat.signature = Bytes(kMaxReadSigBytes + 1, 0xcd);
  const Bytes fat_wire = fat.encode();
  EXPECT_THROW((void)LeaseGrant::decode(
                   ByteSpan(fat_wire.data(), fat_wire.size())),
               CodecError);
}

TEST(ReadWire, ReadIndexRequestRoundTripAndHostileBuffers) {
  ReadIndexRequest request;
  request.rid = 7;
  request.requester = 2;
  const Bytes wire = request.encode();
  EXPECT_EQ(peek_read_msg_kind(ByteSpan(wire.data(), wire.size())),
            kReadIndexRequestKind);
  EXPECT_EQ(ReadIndexRequest::decode(ByteSpan(wire.data(), wire.size())),
            request);
  expect_strict_codec<ReadIndexRequest>(wire);
  expect_version_checked<ReadIndexRequest>(wire, kReadWireVersion);
  Bytes wrong_kind = wire;
  wrong_kind[1] = kLeaseRequestKind;
  EXPECT_THROW((void)ReadIndexRequest::decode(
                   ByteSpan(wrong_kind.data(), wrong_kind.size())),
               CodecError);
}

TEST(ReadWire, ReadIndexAttestRoundTripAndHostileBuffers) {
  ReadIndexAttest attest;
  attest.rid = 9;
  attest.requester = 3;
  attest.watermark = 17;
  attest.signer = 5;
  attest.signature = Bytes(64, 0x11);
  const Bytes wire = attest.encode();
  EXPECT_EQ(peek_read_msg_kind(ByteSpan(wire.data(), wire.size())),
            kReadIndexAttestKind);
  EXPECT_EQ(ReadIndexAttest::decode(ByteSpan(wire.data(), wire.size())),
            attest);
  expect_strict_codec<ReadIndexAttest>(wire);
  expect_version_checked<ReadIndexAttest>(wire, kReadWireVersion);
  ReadIndexAttest fat = attest;
  fat.signature = Bytes(kMaxReadSigBytes + 1, 0x22);
  const Bytes fat_wire = fat.encode();
  EXPECT_THROW((void)ReadIndexAttest::decode(
                   ByteSpan(fat_wire.data(), fat_wire.size())),
               CodecError);
}

TEST(ReadWire, PeekKindFailsClosed) {
  EXPECT_THROW((void)peek_read_msg_kind(ByteSpan{}), CodecError);
  const Bytes version_only = {kReadWireVersion};
  EXPECT_THROW((void)peek_read_msg_kind(
                   ByteSpan(version_only.data(), version_only.size())),
               CodecError);
  const Bytes garbage = {0x7f, 0x00};
  EXPECT_THROW(
      (void)peek_read_msg_kind(ByteSpan(garbage.data(), garbage.size())),
      CodecError);
}

TEST(ReadWire, SignaturesAreDomainSeparatedAndVerified) {
  const auto suite = crypto::make_sim_suite();
  const sim::FleetKeys derived = sim::derive_keys(*suite, 4, 99);
  const std::vector<crypto::KeyPair>& keys = derived.pairs;
  const crypto::PublicKeyDir& dir = derived.public_keys;

  LeaseGrant grant;
  grant.epoch = 5;
  grant.leader = 1;
  grant.granter = 2;
  const Bytes msg = lease_signing_bytes(grant.epoch, grant.leader,
                                        grant.granter);
  grant.signature = suite->sign(
      ByteSpan(keys[2].secret_key.data(), keys[2].secret_key.size()),
      ByteSpan(msg.data(), msg.size()));
  EXPECT_TRUE(grant.verify(*suite, dir, 4));
  // Claiming another replica's identity fails (signature is bound to the
  // granter id inside the signed bytes).
  LeaseGrant spoofed = grant;
  spoofed.granter = 3;
  EXPECT_FALSE(spoofed.verify(*suite, dir, 4));
  LeaseGrant out_of_range = grant;
  out_of_range.granter = 9;
  EXPECT_FALSE(out_of_range.verify(*suite, dir, 4));
  LeaseGrant corrupt = grant;
  corrupt.signature[0] ^= 0x01;
  EXPECT_FALSE(corrupt.verify(*suite, dir, 4));

  ReadIndexAttest attest;
  attest.rid = 11;
  attest.requester = 3;
  attest.watermark = 6;
  attest.signer = 4;
  const Bytes attest_msg = read_index_signing_bytes(
      attest.requester, attest.rid, attest.watermark);
  attest.signature = suite->sign(
      ByteSpan(keys[4].secret_key.data(), keys[4].secret_key.size()),
      ByteSpan(attest_msg.data(), attest_msg.size()));
  EXPECT_TRUE(attest.verify(*suite, dir, 4));
  // An attestation cannot be replayed into a different read: rid and
  // requester are inside the signed bytes.
  ReadIndexAttest replayed = attest;
  replayed.rid = 12;
  EXPECT_FALSE(replayed.verify(*suite, dir, 4));
  ReadIndexAttest inflated = attest;
  inflated.watermark = 1000;
  EXPECT_FALSE(inflated.verify(*suite, dir, 4));
  // Lease and read-index domains never cross-verify.
  EXPECT_NE(lease_signing_bytes(5, 1, 2), read_index_signing_bytes(1, 5, 2));
}

// ---- hostile buffers: client read wire messages ----

TEST(ClientReadWire, ReadRequestRoundTripAndHostileBuffers) {
  net::ReadRequest request;
  request.client_id = 9001;
  request.read_id = 3;
  request.consistency = net::ReadConsistency::kSequential;
  request.min_index = 17;
  request.key = to_bytes("account");
  const Bytes wire = request.encode();
  EXPECT_EQ(wire[0], net::kClientWireVersion);
  EXPECT_EQ(net::ReadRequest::decode(ByteSpan(wire.data(), wire.size())),
            request);
  expect_strict_codec<net::ReadRequest>(wire);
  // Garbage versions (valid = kClientWireVersion = 2).
  Bytes mutated = wire;
  for (const std::uint8_t version : {0x00, 0x01, 0x7f, 0xff}) {
    mutated[0] = version;
    EXPECT_THROW((void)net::ReadRequest::decode(
                     ByteSpan(mutated.data(), mutated.size())),
                 CodecError)
        << "garbage version " << int(version);
  }
  // Out-of-range consistency byte.
  Bytes bad_mode = wire;
  bad_mode[17] = 0x09;  // version(1) + client_id(8) + read_id(8)
  EXPECT_THROW((void)net::ReadRequest::decode(
                   ByteSpan(bad_mode.data(), bad_mode.size())),
               CodecError);
  // Oversize key.
  net::ReadRequest fat = request;
  fat.key = Bytes(net::kMaxClientPayload + 1, 0xab);
  const Bytes fat_wire = fat.encode();
  EXPECT_THROW((void)net::ReadRequest::decode(
                   ByteSpan(fat_wire.data(), fat_wire.size())),
               CodecError);
}

TEST(ClientReadWire, ReadReplyRoundTripAndHostileBuffers) {
  net::ReadReply reply;
  reply.client_id = 9001;
  reply.read_id = 3;
  reply.status = net::ReplyStatus::kExecuted;
  reply.slot = 5;
  reply.index = 8;
  reply.value = to_bytes("100");
  const Bytes wire = reply.encode();
  EXPECT_EQ(net::ReadReply::decode(ByteSpan(wire.data(), wire.size())),
            reply);
  expect_strict_codec<net::ReadReply>(wire);
  Bytes mutated = wire;
  for (const std::uint8_t version : {0x00, 0x01, 0x7f, 0xff}) {
    mutated[0] = version;
    EXPECT_THROW((void)net::ReadReply::decode(
                     ByteSpan(mutated.data(), mutated.size())),
                 CodecError)
        << "garbage version " << int(version);
  }
  // Out-of-range status byte.
  Bytes bad_status = wire;
  bad_status[17] = 0x07;
  EXPECT_THROW((void)net::ReadReply::decode(
                   ByteSpan(bad_status.data(), bad_status.size())),
               CodecError);
  net::ReadReply fat = reply;
  fat.value = Bytes(net::kMaxClientPayload + 1, 0xcd);
  const Bytes fat_wire = fat.encode();
  EXPECT_THROW((void)net::ReadReply::decode(
                   ByteSpan(fat_wire.data(), fat_wire.size())),
               CodecError);
}

TEST(ClientReadWire, ClientReplyStatusByteIsStrict) {
  net::ClientReply reply;
  reply.client_id = 7;
  reply.seq = 2;
  reply.status = net::ReplyStatus::kRejected;
  reply.slot = 1;
  reply.result = to_bytes("x");
  const Bytes wire = reply.encode();
  EXPECT_EQ(net::ClientReply::decode(ByteSpan(wire.data(), wire.size()))
                .status,
            net::ReplyStatus::kRejected);
  Bytes corrupt = wire;
  corrupt[17] = 0x02;  // first value past the ReplyStatus range
  EXPECT_THROW((void)net::ClientReply::decode(
                   ByteSpan(corrupt.data(), corrupt.size())),
               CodecError);
}

// ---- fleet behavior on the simulated network ----

/// A test fleet; tests drive each node's replica directly.
struct ReadFleet : testutil::SmrTestFleet {
  ReadFleet(std::uint32_t n, std::uint32_t f, double l,
            SmrOptions options = {}, std::uint64_t seed = 1,
            std::vector<std::string> wal_dirs = {})
      : testutil::SmrTestFleet(make_config(n, f, l, options, seed,
                                           std::move(wal_dirs))) {}

  /// Steps the simulation until `done()` (or deadline). Lease renewal
  /// timers re-arm forever, so every loop must be time-bounded.
  bool run_until(const std::function<bool()>& done,
                 TimePoint deadline = 300'000'000) {
    return sim::SmrFleet::run_until(done, deadline);
  }

 private:
  static sim::SmrFleetConfig make_config(std::uint32_t n, std::uint32_t f,
                                         double l, SmrOptions options,
                                         std::uint64_t seed,
                                         std::vector<std::string> wal_dirs) {
    sim::SmrFleetConfig cfg;
    cfg.n = n;
    cfg.f = f;
    cfg.l = l;
    cfg.seed = seed;
    cfg.smr = options;
    cfg.wal_dirs = std::move(wal_dirs);
    cfg.latency.min_delay = 500;
    cfg.latency.max_delay_post = 4'000;
    return cfg;
  }
};

SmrOptions read_options() {
  SmrOptions options;
  options.serve_reads = true;
  options.lease_duration = 400'000;
  options.lease_skew = 100'000;
  return options;
}

using ReadResult = SmrReplica::ReadResult;

TEST(SmrReads, DisabledConfigRejectsEveryRead) {
  ReadFleet fleet(4, 0, 2.0);  // default SmrOptions: serve_reads = false
  fleet.submit(1, "k=v1");
  fleet.start();
  ASSERT_TRUE(fleet.run_until_executed(1));
  for (const auto mode :
       {net::ReadConsistency::kLinearizable,
        net::ReadConsistency::kSequential, net::ReadConsistency::kStaleOk}) {
    std::optional<ReadResult> result;
    fleet.replica(1).submit_read(to_bytes("k"), mode, 0,
                                   [&](const ReadResult& r) { result = r; });
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, net::ReplyStatus::kRejected);
  }
  EXPECT_EQ(fleet.replica(1).reads().reads_rejected(), 3U);
  // No read-path traffic at all: the write path of a reads-off build is
  // bit-identical to one without the feature.
  EXPECT_EQ(fleet.network().stats().sends_for(kSmrLeaseTag), 0U);
  EXPECT_EQ(fleet.network().stats().sends_for(kSmrReadIndexTag), 0U);
}

TEST(SmrReads, StaleOkServesTheLocalView) {
  ReadFleet fleet(4, 0, 2.0, read_options());
  fleet.submit(1, "k=v1");
  fleet.start();
  ASSERT_TRUE(fleet.run_until_executed(1));
  // Every replica — leader or not — answers stale-ok immediately.
  for (ReplicaId id = 1; id <= 4; ++id) {
    std::optional<ReadResult> result;
    fleet.replica(id).submit_read(to_bytes("k"),
                                    net::ReadConsistency::kStaleOk, 0,
                                    [&](const ReadResult& r) { result = r; });
    ASSERT_TRUE(result.has_value()) << "replica " << id;
    EXPECT_EQ(result->status, net::ReplyStatus::kExecuted);
    EXPECT_EQ(result->value, to_bytes("v1"));
    EXPECT_GE(result->index, 1U);
  }
  // An unwritten key answers kExecuted with an empty value and slot 0.
  std::optional<ReadResult> miss;
  fleet.replica(2).submit_read(to_bytes("unwritten"),
                                 net::ReadConsistency::kStaleOk, 0,
                                 [&](const ReadResult& r) { miss = r; });
  ASSERT_TRUE(miss.has_value());
  EXPECT_EQ(miss->status, net::ReplyStatus::kExecuted);
  EXPECT_TRUE(miss->value.empty());
  EXPECT_EQ(miss->slot, 0U);
}

TEST(SmrReads, SequentialReadParksUntilMinIndex) {
  SmrOptions options = read_options();
  options.batch_max_commands = 1;
  ReadFleet fleet(4, 0, 2.0, options);
  fleet.submit(1, "a=1");
  fleet.start();
  ASSERT_TRUE(fleet.run_until_executed(1));

  // min_index = 2 is ahead of execution: the read parks.
  std::optional<ReadResult> result;
  fleet.replica(1).submit_read(to_bytes("b"),
                                 net::ReadConsistency::kSequential, 2,
                                 [&](const ReadResult& r) { result = r; });
  EXPECT_FALSE(result.has_value());
  // The second write releases it — and the read observes that write.
  fleet.submit(1, "b=2");
  ASSERT_TRUE(fleet.run_until([&] { return result.has_value(); }));
  EXPECT_EQ(result->status, net::ReplyStatus::kExecuted);
  EXPECT_EQ(result->value, to_bytes("2"));
  EXPECT_GE(result->index, 2U);

  // A min_index already covered answers synchronously.
  std::optional<ReadResult> immediate;
  fleet.replica(1).submit_read(to_bytes("a"),
                                 net::ReadConsistency::kSequential, 1,
                                 [&](const ReadResult& r) { immediate = r; });
  ASSERT_TRUE(immediate.has_value());
  EXPECT_EQ(immediate->value, to_bytes("1"));
}

TEST(SmrReads, LeaseLeaderServesLinearizableReadsLocally) {
  ReadFleet fleet(4, 1, 1.5, read_options());
  fleet.submit(1, "k=v1");
  fleet.start();
  ASSERT_TRUE(fleet.run_until_executed(1));
  ASSERT_TRUE(
      fleet.run_until([&] { return fleet.replica(1).reads().lease_held(); }));

  const auto lease_traffic = fleet.network().stats().sends_for(kSmrLeaseTag);
  EXPECT_GT(lease_traffic, 0U);
  std::optional<ReadResult> result;
  fleet.replica(1).submit_read(to_bytes("k"),
                                 net::ReadConsistency::kLinearizable, 0,
                                 [&](const ReadResult& r) { result = r; });
  ASSERT_TRUE(fleet.run_until([&] { return result.has_value(); }));
  EXPECT_EQ(result->status, net::ReplyStatus::kExecuted);
  EXPECT_EQ(result->value, to_bytes("v1"));
  EXPECT_GE(fleet.replica(1).lease_reads(), 1U);
  // A lease read never runs the quorum protocol.
  EXPECT_EQ(fleet.network().stats().sends_for(kSmrReadIndexTag), 0U);

  // Read-your-writes across a second write.
  fleet.submit(1, "k=v2");
  ASSERT_TRUE(fleet.run_until_executed(2));
  std::optional<ReadResult> second;
  fleet.replica(1).submit_read(to_bytes("k"),
                                 net::ReadConsistency::kLinearizable, 0,
                                 [&](const ReadResult& r) { second = r; });
  ASSERT_TRUE(fleet.run_until([&] { return second.has_value(); }));
  EXPECT_EQ(second->status, net::ReplyStatus::kExecuted);
  EXPECT_EQ(second->value, to_bytes("v2"));
  EXPECT_GE(second->index, result->index);
}

TEST(SmrReads, FollowerUsesQuorumReadIndex) {
  ReadFleet fleet(4, 1, 1.5, read_options());
  fleet.submit(1, "k=v1");
  fleet.start();
  ASSERT_TRUE(fleet.run_until_executed(1));

  std::optional<ReadResult> result;
  fleet.replica(3).submit_read(to_bytes("k"),
                                 net::ReadConsistency::kLinearizable, 0,
                                 [&](const ReadResult& r) { result = r; });
  ASSERT_TRUE(fleet.run_until([&] { return result.has_value(); }));
  EXPECT_EQ(result->status, net::ReplyStatus::kExecuted);
  EXPECT_EQ(result->value, to_bytes("v1"));
  // The follower holds no lease: the answer came from the attestation
  // quorum, not a local shortcut.
  EXPECT_EQ(fleet.replica(3).lease_reads(), 0U);
  EXPECT_GT(fleet.network().stats().sends_for(kSmrReadIndexTag), 0U);
}

TEST(SmrReads, LinearizableReadTimesOutWithoutAQuorum) {
  ReadFleet fleet(4, 1, 1.5, read_options());
  fleet.submit(1, "k=v1");
  fleet.start();
  ASSERT_TRUE(fleet.run_until_executed(1));

  // Fully partition follower 3: its read-index broadcast reaches nobody,
  // so the read must answer kRejected at read_timeout — never hang, never
  // answer from the unproven local view.
  fleet.network().set_filter([](ReplicaId from, ReplicaId to, std::uint8_t) {
    return from == 3 || to == 3;
  });
  std::optional<ReadResult> result;
  fleet.replica(3).submit_read(to_bytes("k"),
                                 net::ReadConsistency::kLinearizable, 0,
                                 [&](const ReadResult& r) { result = r; });
  const TimePoint probe_deadline = fleet.sim().now() + 3 * kReadTimeout;
  fleet.run_until([&] { return result.has_value(); }, probe_deadline);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, net::ReplyStatus::kRejected);
  EXPECT_GE(fleet.replica(3).reads().reads_rejected(), 1U);
}

TEST(SmrReads, MalformedReadFramesAreDropped) {
  ReadFleet fleet(4, 0, 2.0, read_options());
  fleet.start();
  // Arbitrary garbage on both read-path tags must be swallowed.
  const Bytes garbage = {0xff, 0x00, 0x01, 0x02};
  EXPECT_NO_THROW(fleet.replica(1).on_message(2, kSmrLeaseTag, garbage));
  EXPECT_NO_THROW(
      fleet.replica(1).on_message(2, kSmrReadIndexTag, garbage));
  // Truncated but well-formed prefixes of real frames too.
  LeaseRequest request;
  request.epoch = 1;
  request.leader = 2;
  const Bytes wire = request.encode();
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_NO_THROW(fleet.replica(1).on_message(
        2, kSmrLeaseTag, Bytes(wire.begin(),
                               wire.begin() + static_cast<std::ptrdiff_t>(
                                                  len))));
  }
  // An attestation for a rid nobody asked for is ignored.
  ReadIndexAttest stray;
  stray.rid = 999;
  stray.requester = 1;
  stray.signer = 2;
  stray.signature = Bytes(64, 0x00);
  EXPECT_NO_THROW(
      fleet.replica(1).on_message(2, kSmrReadIndexTag, stray.encode()));
  // The fleet still makes progress afterwards.
  fleet.submit(1, "k=v1");
  ASSERT_TRUE(fleet.run_until_executed(1));
}

// The pinned regression: a deposed, partitioned lease holder must NEVER
// serve a stale linearizable read after a view change decides a
// conflicting write behind its back.
//
// Timeline (µs, lease_duration = 400ms / skew = 100ms):
//   - "k=v1" decides at view 1; leader 1 acquires the lease and serves a
//     linearizable read locally.
//   - Leader 1 is fully partitioned. Its validity timer expires at most
//     400ms after its last request broadcast; every granter's promise
//     runs strictly longer (500ms from a later receipt), so the lease is
//     dead BEFORE any deferred view-change traffic flushes.
//   - A fresh "k=v2" submitted at replica 2 opens slot 1 there; the
//     deferred wishes flush at promise expiry, replicas 2..6 change to
//     view 2, and replica 2 proposes and decides "k=v2" — which poisons
//     lease serving on every replica that saw the view-2 decide.
//   - A linearizable read at the deposed leader must answer kRejected
//     (no lease, no attestation quorum through the partition) — it must
//     not answer "v1" as if nothing happened.
//   - After healing, leader 1 catches up from signed hints (a decide
//     with unknown view), which poisons ITS lease serving permanently;
//     its next linearizable read runs the quorum read-index and returns
//     the post-view-change value.
TEST(SmrReads, LeaseNeverServesStaleReadAcrossViewChange) {
  // l = 1.5 at n = 6 gives q = 4: one replica of slack among the 5 still
  // connected, so consensus proceeds behind the partition.
  ReadFleet fleet(6, 1, 1.5, read_options(), /*seed=*/7);
  fleet.submit(1, "k=v1");
  fleet.start();
  ASSERT_TRUE(fleet.run_until_executed(1));
  ASSERT_TRUE(
      fleet.run_until([&] { return fleet.replica(1).reads().lease_held(); }));

  std::optional<ReadResult> before;
  fleet.replica(1).submit_read(to_bytes("k"),
                                 net::ReadConsistency::kLinearizable, 0,
                                 [&](const ReadResult& r) { before = r; });
  ASSERT_TRUE(fleet.run_until([&] { return before.has_value(); }));
  EXPECT_EQ(before->status, net::ReplyStatus::kExecuted);
  EXPECT_EQ(before->value, to_bytes("v1"));
  EXPECT_GE(fleet.replica(1).lease_reads(), 1U);

  // Partition the lease holder and decide a conflicting write without it.
  fleet.network().set_filter([](ReplicaId from, ReplicaId to, std::uint8_t) {
    return from == 1 || to == 1;
  });
  fleet.submit(2, "k=v2");
  ASSERT_TRUE(fleet.run_until([&] {
    for (ReplicaId id = 2; id <= 6; ++id) {
      if (fleet.replica(id).executed_commands() < 2) return false;
    }
    return true;
  }));
  // The view-2 decide proves the lease premise wrong on every replica
  // that saw it.
  for (ReplicaId id = 2; id <= 6; ++id) {
    EXPECT_TRUE(fleet.replica(id).reads().lease_poisoned()) << "replica " << id;
  }
  // The deposed leader's validity ran out strictly before the wishes that
  // deposed it could flush: by the time "k=v2" exists, no lease is held.
  EXPECT_FALSE(fleet.replica(1).reads().lease_held());

  // THE invariant: a linearizable read at the deposed leader must not
  // return the stale "v1". Without a lease it needs an attestation
  // quorum, which the partition denies — so it answers kRejected.
  std::optional<ReadResult> stale_probe;
  fleet.replica(1).submit_read(
      to_bytes("k"), net::ReadConsistency::kLinearizable, 0,
      [&](const ReadResult& r) { stale_probe = r; });
  const TimePoint probe_deadline = fleet.sim().now() + 3 * kReadTimeout;
  fleet.run_until([&] { return stale_probe.has_value(); }, probe_deadline);
  ASSERT_TRUE(stale_probe.has_value());
  EXPECT_EQ(stale_probe->status, net::ReplyStatus::kRejected);

  // Heal. Fresh traffic catches the old leader up via signed hints — a
  // decide with unknown view, which poisons its lease serving for good.
  fleet.network().clear_filter();
  fleet.submit(2, "k2=v3");
  ASSERT_TRUE(fleet.run_until_executed(3));
  EXPECT_TRUE(fleet.replica(1).reads().lease_poisoned());
  EXPECT_FALSE(fleet.replica(1).reads().lease_held());

  // Its next linearizable read goes through the quorum read-index and
  // sees the post-view-change value.
  std::optional<ReadResult> fresh;
  fleet.replica(1).submit_read(to_bytes("k"),
                                 net::ReadConsistency::kLinearizable, 0,
                                 [&](const ReadResult& r) { fresh = r; });
  ASSERT_TRUE(fleet.run_until([&] { return fresh.has_value(); }));
  EXPECT_EQ(fresh->status, net::ReplyStatus::kExecuted);
  EXPECT_EQ(fresh->value, to_bytes("v2"));

  // And the write path stayed correct throughout: identical logs.
  for (ReplicaId id = 2; id <= 6; ++id) {
    EXPECT_EQ(fleet.replica(id).log_digest(),
              fleet.replica(1).log_digest())
        << "replica " << id;
  }
}

// A read parked before a certified state transfer must not be answered
// from the gapped view once execution passes its wait point: the
// ReadView never saw the skipped writes, so "k" would read as unwritten.
TEST(SmrReads, ParkedReadIsRejectedWhenStateTransferJumpsThePrefix) {
  ReadFleet fleet(4, 1, 1.5, read_options());
  fleet.start();

  std::optional<ReadResult> parked;
  int answers = 0;
  fleet.replica(1).submit_read(to_bytes("k"),
                               net::ReadConsistency::kSequential, 9,
                               [&](const ReadResult& r) {
                                 parked = r;
                                 ++answers;
                               });
  EXPECT_FALSE(parked.has_value());

  // A 2f+1-certified checkpoint for slot 8 that wrote "k" somewhere in
  // the skipped stretch.
  CheckpointState state;
  state.slot = 8;
  state.exec_count = 8;
  state.log_digest = chain_digest(zero_digest(), to_bytes("k=v-skipped"));
  const Bytes digest = state.digest();
  const Bytes msg = checkpoint_signing_bytes(state.slot, digest);
  CheckpointCert cert;
  cert.slot = state.slot;
  cert.state_digest = digest;
  for (ReplicaId id : {2, 3, 4}) {
    cert.signatures.emplace_back(
        id, fleet.suite().sign(
                ByteSpan(fleet.keys().pairs[id].secret_key.data(),
                         fleet.keys().pairs[id].secret_key.size()),
                ByteSpan(msg.data(), msg.size())));
  }
  Writer w;
  state.encode(w);
  cert.encode(w);
  fleet.replica(1).on_message(4, kSmrStateTag, std::move(w).take());
  ASSERT_EQ(fleet.replica(1).committed_slots(), 8U);

  // A fresh read is refused outright on the gapped view.
  std::optional<ReadResult> fresh;
  fleet.replica(1).submit_read(to_bytes("k"),
                               net::ReadConsistency::kSequential, 9,
                               [&](const ReadResult& r) { fresh = r; });
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(fresh->status, net::ReplyStatus::kRejected);

  // f+1 signed hints decide slot 8, which passes the parked read's wait
  // point. It must answer kRejected, exactly once.
  const Bytes value =
      encode_batch({Request{77, 1, to_bytes("other=x")}});
  const Bytes value_digest =
      crypto::sha256(ByteSpan(value.data(), value.size()));
  const Bytes hint_msg = hint_signing_bytes(8, value_digest);
  for (ReplicaId id : {2, 3}) {
    const Bytes& sk = fleet.keys().pairs[id].secret_key;
    const Bytes sig = fleet.suite().sign(
        ByteSpan(sk.data(), sk.size()),
        ByteSpan(hint_msg.data(), hint_msg.size()));
    Writer hint;
    hint.u64(8);
    hint.bytes(ByteSpan(value.data(), value.size()));
    hint.bytes(ByteSpan(sig.data(), sig.size()));
    fleet.replica(1).on_message(id, kSmrHintTag, std::move(hint).take());
  }
  ASSERT_EQ(fleet.replica(1).committed_slots(), 9U);
  ASSERT_TRUE(parked.has_value());
  EXPECT_EQ(parked->status, net::ReplyStatus::kRejected);
  fleet.run_until([] { return false; }, fleet.sim().now() + 2'000'000);
  EXPECT_EQ(answers, 1);
}

// Lease rule 2 (docs/ARCHITECTURE.md, "Read fast path"): a granter that
// holds back a Wish refuses the next renewal, so its promises lapse and
// the held-back Wish goes out when the last one expires.
TEST(SmrReads, GranterWithDeferredWishRefusesRenewalUntilItsPromiseLapses) {
  const SmrOptions options = read_options();
  ReadFleet fleet(4, 1, 1.5, options);
  // The filter records the lease traffic at replica 3 from the start.
  // Once `deaf` is set, 3 stops hearing consensus traffic, so the slot it
  // opens for its own request times out into a Wish while it still
  // promises the leader; lease and catch-up frames keep flowing.
  constexpr ReplicaId kGranter = 3;
  std::vector<std::pair<TimePoint, std::uint64_t>> grants;  // (at, epoch)
  std::vector<std::pair<TimePoint, std::uint64_t>> requests;
  TimePoint first_wish = 0;
  bool deaf = false;
  fleet.network().set_payload_filter([&](ReplicaId from, ReplicaId to,
                                         std::uint8_t tag,
                                         const Bytes& payload) {
    const ByteSpan bytes(payload.data(), payload.size());
    if (tag == kSmrLeaseTag && from == kGranter) {
      grants.emplace_back(fleet.sim().now(), LeaseGrant::decode(bytes).epoch);
    }
    if (tag == kSmrLeaseTag && to == kGranter) {
      requests.emplace_back(fleet.sim().now(),
                            LeaseRequest::decode(bytes).epoch);
    }
    if (tag == kSmrTag && from == kGranter && first_wish == 0 &&
        payload.size() > 8 && payload[8] == net::tags::kWish) {
      first_wish = fleet.sim().now();
    }
    return deaf && tag == kSmrTag && to == kGranter;
  });
  fleet.submit(1, "k=v1");
  fleet.start();
  ASSERT_TRUE(fleet.run_until_executed(1));
  ASSERT_TRUE(
      fleet.run_until([&] { return fleet.replica(1).reads().lease_held(); }));
  ASSERT_FALSE(grants.empty());

  deaf = true;
  fleet.submit(kGranter, "k=v2");
  ASSERT_TRUE(fleet.run_until([&] { return first_wish != 0; },
                              fleet.sim().now() + 5'000'000));

  // The held-back Wish left exactly when the last promise expired.
  ASSERT_FALSE(grants.empty());
  const auto [last_grant_at, last_epoch] = grants.back();
  EXPECT_EQ(first_wish,
            last_grant_at + options.lease_duration + options.lease_skew);
  // And in between, the leader asked to renew and was refused.
  bool refused = false;
  for (const auto& [at, epoch] : requests) {
    if (at > last_grant_at && at < first_wish && epoch > last_epoch) {
      refused = true;
    }
  }
  EXPECT_TRUE(refused);
  // The leader kept its lease on the other two grants throughout.
  EXPECT_TRUE(fleet.replica(1).reads().lease_held());
}

// A lease leader restarted from its WAL cannot know whether a replayed
// decide went through a view change, so it comes back poisoned and
// answers linearizable reads through the quorum read-index.
TEST(SmrReads, WalRestartedLeaseLeaderReadsThroughReadIndex) {
  const auto root = std::filesystem::temp_directory_path() /
                    ("probft-reads-wal-" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  SmrOptions options = read_options();
  options.checkpoint_interval = 0;  // no snapshot: the view rebuilds whole
  {
    ReadFleet fleet(4, 1, 1.5, options, /*seed=*/1, {"", root.string()});
    fleet.submit(1, "k=v1");
    fleet.start();
    ASSERT_TRUE(fleet.run_until_executed(1));
    ASSERT_TRUE(
        fleet.run_until([&] { return fleet.replica(1).reads().lease_held(); }));

    fleet.kill(1);
    fleet.restart(1);
    EXPECT_EQ(fleet.replica(1).recovered_slots(), 1U);
    EXPECT_TRUE(fleet.replica(1).reads().lease_poisoned());
    EXPECT_FALSE(fleet.replica(1).reads().lease_held());

    const auto index_sends =
        fleet.network().stats().sends_for(kSmrReadIndexTag);
    std::optional<ReadResult> result;
    fleet.replica(1).submit_read(to_bytes("k"),
                                 net::ReadConsistency::kLinearizable, 0,
                                 [&](const ReadResult& r) { result = r; });
    ASSERT_TRUE(fleet.run_until([&] { return result.has_value(); }));
    EXPECT_EQ(result->status, net::ReplyStatus::kExecuted);
    EXPECT_EQ(result->value, to_bytes("v1"));
    EXPECT_EQ(fleet.replica(1).lease_reads(), 0U);
    EXPECT_GT(fleet.network().stats().sends_for(kSmrReadIndexTag),
              index_sends);
  }
  std::filesystem::remove_all(root);
}

// ---- the Workload::kSmrReads scenario dimension ----

TEST(SmrReadsScenario, NoStaleReadsUnderSupportedFaults) {
  for (const sim::Fault fault :
       {sim::Fault::kNone, sim::Fault::kPartitionUntilGst,
        sim::Fault::kKillRestart}) {
    sim::ScenarioSpec spec;
    // n = 6 leaves a replica of slack above the q = ⌈1.5·√6⌉ = 4 quorum,
    // so the partition halves can make progress once healed even when
    // the VRF sample keeps picking a cut-off replica.
    spec.n = 6;
    spec.f = 1;
    spec.l = 1.5;
    spec.workload = sim::Workload::kSmrReads;
    spec.fault = fault;
    spec.latency = fault == sim::Fault::kPartitionUntilGst
                       ? sim::LatencyModel::kPartialSynchrony
                       : sim::LatencyModel::kSynchronous;
    spec.smr_commands = 6;
    ASSERT_TRUE(sim::fault_applicable(spec)) << sim::to_string(fault);
    const sim::ScenarioOutcome outcome = sim::run_scenario(spec, 1);
    EXPECT_TRUE(outcome.terminated) << sim::to_string(fault);
    EXPECT_TRUE(outcome.agreement) << sim::to_string(fault);
    // Every up replica probed in all three modes; every probe answered.
    EXPECT_EQ(outcome.reads_attempted, 18U) << sim::to_string(fault);
    EXPECT_EQ(outcome.reads_executed + outcome.reads_rejected,
              outcome.reads_attempted)
        << sim::to_string(fault);
    EXPECT_GT(outcome.reads_executed, 0U) << sim::to_string(fault);
    // THE invariant the workload exists for.
    EXPECT_EQ(outcome.stale_reads, 0U) << sim::to_string(fault);
  }
}

TEST(SmrReadsScenario, WorkloadNameRoundTrips) {
  EXPECT_STREQ(sim::to_string(sim::Workload::kSmrReads), "smr-reads");
  sim::Workload workload = sim::Workload::kSingleShot;
  ASSERT_TRUE(sim::workload_from_string("smr-reads", workload));
  EXPECT_EQ(workload, sim::Workload::kSmrReads);
}

}  // namespace
}  // namespace probft::smr
