// Reptor's communication stack: a message transport multiplexing all of a
// node's connections through one selector thread — the Java-NIO-selector
// architecture the paper describes (§III), with two interchangeable
// backends:
//   * NioTransport    — tcpsim sockets + epoll-style Poller ("Java NIO")
//   * RubinTransport  — RUBIN RdmaChannels + RdmaSelector
// Fig. 4 is exactly this stack under an echo workload, once per backend.
//
// One poll() serves both backends (transport.cpp): flush the queued sends
// (batched — the paper's §IV optimization), cap the wait at 200 µs while
// backpressure holds frames back, sweep frames that arrived during
// start(), select, drain the ready keys, then charge the stack cost for
// what was received. A backend plugs in only its selector and wire
// through five hooks: flush(), backlog(), select(), drain_selected() and
// wakeup(). Receives surface as whole protocol frames.
// Wake rule: a frame queued by another coroutine while the owner is
// parked in poll()'s select wakes that select (Java NIO's
// Selector.wakeup()), so it leaves on the owner's next poll() instead of
// waiting for inbound traffic or the timeout. One select consumes at most
// one wakeup: a wakeup never leaks into the select after it.
// Connection identification: the initiator's first frame on a connection
// is a hello, its 4-byte little-endian node id. A valid hello is exactly
// 4 bytes and names another node of the layout; both backends close a
// connection whose first frame is anything else. (Identity is *not*
// trusted from the hello alone — every protocol frame is MAC-verified
// upstream; a mislabeled connection only misroutes frames that then fail
// to verify.)
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/counters.hpp"
#include "common/shared_bytes.hpp"
#include "net/fabric.hpp"
#include "reptor/messages.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace rubin::reptor {

/// Where everybody lives. Node ids: replicas 0..replica_count-1, then
/// clients. Replica r listens on base_port at hosts[r].
struct GroupLayout {
  std::uint32_t replica_count = 0;
  std::vector<net::HostId> hosts;  // indexed by NodeId
  std::uint16_t base_port = 7000;

  bool is_replica(NodeId id) const noexcept { return id < replica_count; }
  std::uint32_t node_count() const noexcept {
    return static_cast<std::uint32_t>(hosts.size());
  }
};

struct InboundMsg {
  NodeId peer = 0;
  SharedBytes frame;
};

/// CPU the Reptor communication stack itself burns per protocol message
/// (serialization, message objects, queue management) — identical for
/// both backends; Fig. 4 measures the *selector/wire* difference under
/// this shared cost. Zero by default so unit tests stay fast.
struct StackCost {
  sim::Time per_message = 0;
  double gbps = 0;  // size-dependent part; 0 disables

  sim::Time time(std::size_t messages, std::size_t bytes) const {
    sim::Time t = static_cast<sim::Time>(messages) * per_message;
    if (gbps > 0) {
      t += static_cast<sim::Time>(static_cast<double>(bytes) * 8.0 / gbps);
    }
    return t;
  }
};

struct TransportStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t flush_batches = 0;
};

class Transport {
 public:
  Transport(sim::Simulator& sim, GroupLayout layout, NodeId self)
      : layout_(std::move(layout)), self_(self), sim_(&sim) {}
  virtual ~Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  NodeId self() const noexcept { return self_; }
  const GroupLayout& layout() const noexcept { return layout_; }
  const TransportStats& stats() const noexcept { return stats_; }
  void set_stack_cost(StackCost c) noexcept { stack_cost_ = c; }

  /// Queues a frame; actual I/O happens on the next poll(). The handle is
  /// shared, never copied — a frame queued to n peers is one allocation.
  void send(NodeId peer, SharedBytes frame) {
    outbound_[peer].push_back(FrameVec(std::move(frame)));
    wake_if_parked();
  }

  /// Queues a multi-slice frame (e.g. a header skeleton plus a refcounted
  /// payload). The RUBIN backend posts the slices as one scatter/gather
  /// SGE list — the gather copy never happens; the NIO backend gathers
  /// them into its TCP staging buffer (streams have no scatter/gather).
  void send(NodeId peer, FrameVec frame) {
    outbound_[peer].push_back(std::move(frame));
    wake_if_parked();
  }

  /// Queues a frame for every replica except self (refcount bumps only).
  void broadcast_replicas(const SharedBytes& frame) {
    for (NodeId r = 0; r < layout_.replica_count; ++r) {
      if (r != self_) send(r, frame);
    }
  }

  /// Multi-slice broadcast; see send(NodeId, FrameVec).
  void broadcast_replicas(const FrameVec& frame) {
    for (NodeId r = 0; r < layout_.replica_count; ++r) {
      if (r != self_) send(r, frame);
    }
  }

  virtual bool connected(NodeId peer) const = 0;

  /// Brings up this node's side of the mesh: replicas listen and connect
  /// to lower-numbered replicas; clients connect to every replica.
  /// Completes when all *initiated* connections are established. Frames
  /// that arrive meanwhile go to early_inbound_.
  virtual sim::Task<void> start() = 0;

  /// Flushes queued sends (batched), then waits up to `timeout` for
  /// inbound traffic. Returns every complete frame available. An empty
  /// result means the timeout elapsed or a send() woke the wait.
  sim::Task<std::vector<InboundMsg>> poll(sim::Time timeout);

 protected:
  /// Sends as much of outbound_ as the wire accepts now.
  virtual sim::Task<void> flush() = 0;
  /// True while flush() left frames behind (backpressure): poll() then
  /// waits at most 200 µs before it flushes again.
  virtual bool backlog() const;
  /// Waits up to `timeout` in the backend's selector; returns the number
  /// of ready keys (0 on timeout or wakeup).
  virtual sim::Task<std::size_t> select(sim::Time timeout) = 0;
  /// Services the keys the last select() made ready: accepts, reads,
  /// identifies connections by their hello, appends frames to `out`.
  virtual sim::Task<void> drain_selected(std::vector<InboundMsg>& out) = 0;
  /// Unblocks the select poll() is parked in (the backend's selector).
  virtual void wakeup() = 0;

  /// This node's hello (see the file comment).
  Bytes hello_frame() const;
  /// The node a first frame names, or nullopt when it is no valid hello.
  std::optional<NodeId> parse_hello(ByteView frame) const;

  GroupLayout layout_;
  NodeId self_;
  /// Per-peer send queues. Single-slice frames behave exactly as the old
  /// SharedBytes queues did (the channel's staging path is bit-identical
  /// for them); multi-slice frames ride the SGE list on the RUBIN backend.
  std::map<NodeId, std::deque<FrameVec>> outbound_;
  /// Protocol frames that arrived while start() was still establishing
  /// connections — surfaced by the first poll().
  std::vector<InboundMsg> early_inbound_;
  TransportStats stats_;
  StackCost stack_cost_;

 private:
  void wake_if_parked() {
    if (!parked_) return;
    parked_ = false;  // one wake per park
    RUBIN_COUNT("transport.send_wakeup", 1);
    wakeup();
  }

  sim::Simulator* sim_;
  /// Set by poll() around its select: the owner is parked, and a frame
  /// queued now would otherwise wait for inbound traffic or the timeout.
  bool parked_ = false;
};

}  // namespace rubin::reptor
