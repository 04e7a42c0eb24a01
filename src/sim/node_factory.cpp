#include "sim/node_factory.hpp"

#include "hotstuff/hotstuff_replica.hpp"
#include "pbft/pbft_replica.hpp"

namespace probft::sim {

std::unique_ptr<core::INode> make_honest_node(const NodeParams& params,
                                              core::ProtocolHost host) {
  switch (params.protocol) {
    case Protocol::kProbft: {
      core::ReplicaConfig rc;
      rc.id = params.id;
      rc.n = params.n;
      rc.f = params.f;
      rc.o = params.o;
      rc.l = params.l;
      rc.my_value = params.my_value;
      rc.stop_sync_on_decide = params.stop_sync_on_decide;
      rc.fast_verify = params.fast_verify;
      rc.suite = params.suite;
      rc.secret_key = params.secret_key;
      rc.public_keys = params.public_keys;
      return std::make_unique<core::Replica>(std::move(rc), params.sync,
                                             std::move(host));
    }
    case Protocol::kPbft: {
      pbft::PbftConfig rc;
      rc.id = params.id;
      rc.n = params.n;
      rc.f = params.f;
      rc.my_value = params.my_value;
      rc.stop_sync_on_decide = params.stop_sync_on_decide;
      rc.suite = params.suite;
      rc.secret_key = params.secret_key;
      rc.public_keys = params.public_keys;
      return std::make_unique<pbft::PbftReplica>(std::move(rc), params.sync,
                                                 std::move(host));
    }
    case Protocol::kHotStuff: {
      hotstuff::HotStuffConfig rc;
      rc.id = params.id;
      rc.n = params.n;
      rc.f = params.f;
      rc.my_value = params.my_value;
      rc.stop_sync_on_decide = params.stop_sync_on_decide;
      rc.suite = params.suite;
      rc.secret_key = params.secret_key;
      rc.public_keys = params.public_keys;
      return std::make_unique<hotstuff::HotStuffReplica>(
          std::move(rc), params.sync, std::move(host));
    }
  }
  return nullptr;  // unreachable
}

smr::SmrConfig smr_config(const NodeParams& params) {
  smr::SmrConfig cfg;
  cfg.id = params.id;
  cfg.n = params.n;
  cfg.f = params.f;
  cfg.o = params.o;
  cfg.l = params.l;
  cfg.pipeline = params.smr;
  cfg.fast_verify = params.fast_verify;
  cfg.suite = params.suite;
  cfg.secret_key = params.secret_key;
  cfg.public_keys = params.public_keys;
  cfg.sync = params.sync;
  cfg.wal = params.wal;
  cfg.on_execute = params.on_execute;
  return cfg;
}

std::unique_ptr<smr::SmrReplica> make_smr_node(const NodeParams& params,
                                               core::ProtocolHost host) {
  return std::make_unique<smr::SmrReplica>(smr_config(params),
                                           std::move(host));
}

Bytes default_node_value(const Bytes& prefix, ReplicaId id) {
  Bytes value = prefix.empty() ? to_bytes("value-") : prefix;
  value.push_back(static_cast<std::uint8_t>('0' + (id % 10)));
  value.push_back(static_cast<std::uint8_t>(id >> 8));
  value.push_back(static_cast<std::uint8_t>(id & 0xff));
  return value;
}

core::ProtocolHost transport_host(net::ITransport& transport, ReplicaId id,
                                  sync::Synchronizer::TimerSetter set_timer) {
  core::ProtocolHost host;
  host.send = [&transport, id](ReplicaId to, std::uint8_t tag,
                               const Bytes& m) {
    transport.send(id, to, tag, m);
  };
  host.broadcast = [&transport, id](std::uint8_t tag, const Bytes& m) {
    transport.broadcast(id, tag, m);
  };
  host.set_timer = std::move(set_timer);
  return host;
}

}  // namespace probft::sim
