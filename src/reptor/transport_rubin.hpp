// RUBIN backend of the Reptor transport: RdmaChannels multiplexed by the
// RdmaSelector. One protocol frame == one RDMA message, so no stream
// framing is needed; batching maps to RdmaChannel::write_batch (one
// doorbell per flush per peer).
#pragma once

#include <memory>
#include <optional>

#include "reptor/transport.hpp"
#include "rubin/context.hpp"
#include "rubin/selector.hpp"

namespace rubin::reptor {

class RubinTransport final : public Transport {
 public:
  /// Default channel configuration for transports: protocol frames are
  /// transient heap buffers, so zero-copy send (which registers and
  /// caches the *application* buffer) would miss its cache on every
  /// message and pay a full registration — the transport stages through
  /// the pre-registered pool instead, exactly how the paper's Reptor
  /// integration behaves (§IV). (The pool-staging *charge* stays; the
  /// physical memcpy is elided because frames travel as SharedBytes.)
  static nio::ChannelConfig default_config() {
    nio::ChannelConfig cfg;
    cfg.zero_copy_send = false;
    return cfg;
  }

  /// `batch_limit` caps messages per write_batch call (paper Fig. 4 uses
  /// 10). `ccfg` sizes the per-connection buffer pools. `accept_cfg`, when
  /// set, sizes *accepted* (ingress) connections separately from dialed
  /// ones — a replica facing a large client population can provision its
  /// client-facing receive side leaner than the replica mesh (PopLab's
  /// receive-state economics applied to the protocol stack). Unset means
  /// accepted connections use `ccfg`, bit-identical to the old behaviour.
  RubinTransport(nio::RubinContext& ctx, GroupLayout layout, NodeId self,
                 nio::ChannelConfig ccfg = default_config(),
                 std::size_t batch_limit = 10,
                 std::optional<nio::ChannelConfig> accept_cfg = std::nullopt);

  bool connected(NodeId peer) const override;
  sim::Task<void> start() override;

  const nio::RdmaSelector& selector() const noexcept { return selector_; }

 private:
  /// Repairs connections first, so a pending hello precedes any frame.
  sim::Task<void> flush() override;
  sim::Task<std::size_t> select(sim::Time timeout) override {
    return selector_.select(timeout);
  }
  sim::Task<void> drain_selected(std::vector<InboundMsg>& out) override;
  void wakeup() override { selector_.wakeup(); }

  struct Conn {
    std::shared_ptr<nio::RdmaChannel> channel;
    // No in-flight parking list: frames are refcounted SharedBytes, and
    // the work request itself keeps the payload alive until the NIC has
    // transmitted it. The old heuristic retirement ring is gone.
    bool hello_sent = true;     // false while a (re)dialed hello is pending
    sim::Time dial_time = 0;    // last connect attempt (redial throttle)
    /// Capped exponential redial backoff: doubles on every failed attempt
    /// (dead or stuck channel), resets once a connection establishes. This
    /// is what makes a QP error survivable instead of a redial storm.
    sim::Time backoff = sim::milliseconds(1);
  };

  /// True when this node is the connection initiator toward `peer` and is
  /// therefore responsible for re-dialing after a broken connection.
  bool is_dialer(NodeId peer) const;
  void redial(NodeId peer);
  /// Repairs broken connections: re-dials dead peers (dialer side),
  /// retires dead accepted channels (acceptor side), sends pending hellos.
  sim::Task<void> maintain_connections();
  void adopt_channel(NodeId peer, std::shared_ptr<nio::RdmaChannel> ch);
  sim::Task<void> drain_channel(nio::RdmaChannel& ch, NodeId peer,
                                std::vector<InboundMsg>& out);

  nio::RubinContext* ctx_;
  nio::ChannelConfig ccfg_;
  /// Sizing for accepted (ingress) connections; ccfg_ when unset.
  std::optional<nio::ChannelConfig> accept_cfg_;
  std::size_t batch_limit_;
  nio::RdmaSelector selector_;
  std::shared_ptr<nio::RdmaServerChannel> server_;
  std::map<NodeId, Conn> conns_;
  /// Accepted channels whose hello has not arrived yet.
  std::vector<std::shared_ptr<nio::RdmaChannel>> unidentified_;
};

}  // namespace rubin::reptor
