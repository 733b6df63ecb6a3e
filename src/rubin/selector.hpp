// RdmaSelector — the key component of RUBIN (paper §III-B, Fig. 2): the
// Java NIO Selector recreated over RDMA. The select protocol itself
// (registration, cancel/sweep, level-triggered readiness, wakeup) is
// sim::Selector's, shared with the tcpsim Poller it is measured against;
// this backend adds RUBIN's readiness rules and its bill.
//
// Instead of epoll, an event manager feeds the selector a *hybrid event
// queue* merging connection-manager and completion-queue events, and
// every queued event costs a dispatch step (ID comparison + ready-set
// update) inside select(). Readiness is recomputed from channel state
// anyway, so no event's content is ever read: the queue is modelled as a
// count of pending notifications, each charged one rubin_event_dispatch.
// That per-event step is why RUBIN's select() is slightly more expensive
// per event than the kernel-optimized Java NIO selector (paper §IV),
// while each TCP selector *wakeup* costs a full syscall.
#pragma once

#include <cstdint>
#include <memory>

#include "rubin/channel.hpp"
#include "rubin/context.hpp"
#include "sim/selector.hpp"

namespace rubin::nio {

/// Interest / readiness bits (paper §III-B).
enum Ops : std::uint32_t {
  kOpConnect = 1u << 0,  // incoming connection request (server channels)
  kOpAccept = 1u << 1,   // connection establishment finished
  kOpReceive = 1u << 2,  // a received message is available
  kOpSend = 1u << 3,     // the channel can accept another message
};

class RdmaSelectionKey
    : public sim::BasicSelectionKey<RdmaChannel, RdmaServerChannel> {
 public:
  bool is_connectable() const noexcept { return ready_ & kOpConnect; }
  bool is_acceptable() const noexcept { return ready_ & kOpAccept; }
  bool is_receivable() const noexcept { return ready_ & kOpReceive; }

  /// The registered channel's unique connection identifier.
  std::uint64_t channel_id() const noexcept {
    return channel_ ? channel_->id() : server_->id();
  }
  const std::shared_ptr<RdmaChannel>& channel() const noexcept { return channel_; }
  const std::shared_ptr<RdmaServerChannel>& server_channel() const noexcept {
    return server_;
  }
};

class RdmaSelector : public sim::Selector<RdmaSelector, RdmaSelectionKey> {
 public:
  explicit RdmaSelector(RubinContext& ctx)
      : Selector(ctx.simulator(),
                 {ctx.cost().rubin_select_entry, ctx.cost().rubin_event_dispatch,
                  ctx.cost().thread_wakeup}) {}

  /// Registers a channel (paper Fig. 2, step 1). The returned key holds
  /// the interest set and is updated by select().
  RdmaSelectionKey* register_channel(std::shared_ptr<RdmaChannel> channel,
                                     std::uint32_t interest,
                                     std::uint64_t attachment = 0) {
    return add(std::move(channel), interest, attachment);
  }
  RdmaSelectionKey* register_server(std::shared_ptr<RdmaServerChannel> server,
                                    std::uint32_t interest,
                                    std::uint64_t attachment = 0) {
    return add(std::move(server), interest, attachment);
  }

  /// Key registered for the channel with this connection identifier;
  /// nullptr if none.
  RdmaSelectionKey* find_key(std::uint64_t channel_id) const noexcept;

  /// Readiness of a channel (kOpAccept once its connection attempt
  /// resolved, possibly by failing) and of a server channel.
  static constexpr std::uint32_t kResolved = kOpAccept;
  static std::uint32_t ready_of(RdmaChannel& ch);
  static std::uint32_t ready_of(RdmaServerChannel& server);
};

}  // namespace rubin::nio
