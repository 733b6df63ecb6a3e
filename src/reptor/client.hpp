// PBFT client: sends a request to the primary, accepts a result once f+1
// replicas sent matching replies (at least one is honest), retries by
// broadcasting to all replicas on timeout — which is also what tips off
// the backups when the primary is suppressing requests.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "common/stats.hpp"
#include "reptor/costs.hpp"
#include "reptor/messages.hpp"
#include "reptor/transport.hpp"
#include "sim/simulator.hpp"

namespace rubin::reptor {

class ClientStrategy;  // byzantine_client.hpp

struct ClientConfig {
  std::uint32_t n = 4;
  std::uint32_t f = 1;
  NodeId self = 4;  // first non-replica id
  sim::Time retry_timeout = sim::milliseconds(40);
  ProtocolCosts costs;
};

struct ClientStats {
  std::uint64_t requests_sent = 0;
  std::uint64_t retries = 0;
  std::uint64_t replies_received = 0;
  std::uint64_t read_only_fast = 0;      // answered on the fast path
  std::uint64_t read_only_fallback = 0;  // had to re-issue as ordered
};

class Client {
 public:
  Client(sim::Simulator& sim, std::unique_ptr<Transport> transport,
         KeyTable keys, ClientConfig cfg);

  /// Connects to all replicas. Call once before invoke().
  sim::Task<void> start();

  /// Executes one operation through the replicated service: blocks (in
  /// virtual time) until f+1 matching replies arrive. Tracks the current
  /// view from replies so later requests go straight to the new primary.
  sim::Task<Bytes> invoke(Bytes op);

  /// PBFT read-only optimization: one round trip to all replicas, result
  /// accepted once 2f+1 replies *match* (a committed-state quorum). Falls
  /// back to ordered invoke() when concurrent writes make replies diverge
  /// or too few replicas answer in time.
  sim::Task<Bytes> invoke_read_only(Bytes op);

  const ClientStats& stats() const noexcept { return stats_; }
  /// End-to-end request latencies (microseconds), one per invoke().
  const LatencyRecorder& latencies() const noexcept { return latency_; }
  std::uint64_t known_view() const noexcept { return view_; }

  /// Installs a Byzantine client behaviour (byzantine_client.hpp): every
  /// outbound REQUEST frame passes through its on_send hook. nullptr
  /// restores the honest path at zero overhead.
  void set_strategy(std::shared_ptr<ClientStrategy> strategy) {
    strategy_ = std::move(strategy);
  }

 private:
  NodeId primary_of(std::uint64_t v) const noexcept {
    return static_cast<NodeId>(v % cfg_.n);
  }

  /// Reply result -> the replicas that sent it.
  using Votes = std::map<Bytes, std::set<NodeId>>;

  /// Polls at least once, tallying authentic replies to request `id`,
  /// until a result has `quorum` voters (returned) or `deadline` passes.
  sim::Task<std::optional<Bytes>> collect_replies(std::uint64_t id,
                                                  std::size_t quorum,
                                                  sim::Time deadline,
                                                  Votes& votes);

  /// Single choke point for outbound REQUEST frames — the client-side
  /// Byzantine seam. Honest clients fall straight through to the
  /// transport.
  void send_request(NodeId peer, const SharedBytes& frame);

  sim::Simulator* sim_;
  std::unique_ptr<Transport> transport_;
  KeyTable keys_;
  ClientConfig cfg_;
  std::uint64_t next_id_ = 1;
  std::uint64_t view_ = 0;
  std::shared_ptr<ClientStrategy> strategy_;
  ClientStats stats_;
  LatencyRecorder latency_;
};

}  // namespace rubin::reptor
