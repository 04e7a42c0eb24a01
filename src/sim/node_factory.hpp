// Shared honest-node construction: one place that knows how to turn
// (protocol, parameters, ProtocolHost) into a running replica.
//
// Both deployment worlds build their nodes here — sim::Cluster wires hosts
// to the deterministic in-process network, and examples/probft_node.cpp
// wires them to real sockets — so protocol selection and config plumbing
// cannot drift between the simulator and production-style deployments.
#pragma once

#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "core/protocol_host.hpp"
#include "core/replica.hpp"
#include "crypto/suite.hpp"
#include "net/transport.hpp"
#include "smr/smr_replica.hpp"
#include "sync/synchronizer.hpp"

namespace probft::sim {

enum class Protocol { kProbft, kPbft, kHotStuff };

/// Everything an honest replica of any protocol needs besides its host.
struct NodeParams {
  Protocol protocol = Protocol::kProbft;
  ReplicaId id = 0;
  std::uint32_t n = 0;
  std::uint32_t f = 0;
  double o = 1.7;  // ProBFT sample factor
  double l = 2.0;  // ProBFT quorum factor
  Bytes my_value;
  /// ProBFT verification fast path (digest cache + batch verify); off =
  /// naive per-reference re-verification (determinism checks, benches).
  bool fast_verify = true;
  const crypto::CryptoSuite* suite = nullptr;
  Bytes secret_key;
  crypto::PublicKeyDir public_keys;
  sync::SyncConfig sync;
  /// Pipeline/batching shape for SMR nodes (make_smr_node); ignored by
  /// the single-shot protocols.
  smr::SmrOptions smr;
  /// Optional write-ahead log for SMR nodes (non-owning; must outlive the
  /// node). The replica recovers from its contents at construction.
  store::Wal* wal = nullptr;
  /// Per-executed-request callback for SMR nodes (client reply path).
  std::function<void(const smr::ExecutedCommand&)> on_execute;
};

/// Builds an honest replica of the requested protocol against `host`.
[[nodiscard]] std::unique_ptr<core::INode> make_honest_node(
    const NodeParams& params, core::ProtocolHost host);

/// The SMR replica config for `params`: the same key/suite/sync plumbing
/// as the single-shot factory — `params.protocol` and `params.my_value`
/// are ignored.
[[nodiscard]] smr::SmrConfig smr_config(const NodeParams& params);

/// Builds a bare pipelined SMR replica (ProBFT-backed log) from
/// smr_config(params) against `host`.
[[nodiscard]] std::unique_ptr<smr::SmrReplica> make_smr_node(
    const NodeParams& params, core::ProtocolHost host);

/// The default per-replica proposal value: "value-" plus an id suffix.
/// Shared by the simulator cluster and `probft_node` so both propose
/// identical values for identical configurations.
[[nodiscard]] Bytes default_node_value(ReplicaId id);

/// One cluster's key material: the keypairs (1-based; index 0 unused) and
/// the public-key directory every replica verifies against.
struct FleetKeys {
  std::vector<crypto::KeyPair> pairs;
  crypto::PublicKeyDir public_keys;
};

/// The one key scheme the simulator and real processes share: replica i
/// of an n-replica cluster holds the keypair `suite` generates from the
/// seed mix64(seed, i).
[[nodiscard]] FleetKeys derive_keys(const crypto::CryptoSuite& suite,
                                    std::uint32_t n, std::uint64_t seed);

/// Wires a ProtocolHost's I/O half to a transport: send/broadcast go to
/// `transport` stamped with `id`; set_timer comes from `set_timer`. The
/// decision callbacks stay empty for the caller to fill.
[[nodiscard]] core::ProtocolHost transport_host(
    net::ITransport& transport, ReplicaId id,
    sync::Synchronizer::TimerSetter set_timer);

}  // namespace probft::sim
