// RdmaSelector — the key component of RUBIN (paper §III-B, Fig. 2).
//
// Recreates java.nio.channels.Selector semantics over RDMA:
//  * channels register with an interest set (OP_CONNECT / OP_ACCEPT /
//    OP_RECEIVE / OP_SEND) and get an RdmaSelectionKey back;
//  * a single thread multiplexes any number of channels through select();
//  * instead of epoll, an EventManager feeds a *hybrid event queue* that
//    merges connection-manager events and completion-queue events; every
//    queued event costs a dispatch step (ID comparison + ready-set
//    update) inside select() — the reason RUBIN's select() is slightly
//    more expensive per event than the kernel-optimized Java NIO selector
//    (paper §IV), while each TCP selector *wakeup* costs a full syscall.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/audit.hpp"
#include "common/ring_buffer.hpp"
#include "rubin/channel.hpp"
#include "rubin/context.hpp"
#include "sim/event.hpp"
#include "sim/task.hpp"

namespace rubin::nio {

/// Interest / readiness bits (paper §III-B).
enum Ops : std::uint32_t {
  kOpConnect = 1u << 0,  // incoming connection request (server channels)
  kOpAccept = 1u << 1,   // connection establishment finished
  kOpReceive = 1u << 2,  // a received message is available
  kOpSend = 1u << 3,     // the channel can accept another message
};

class RdmaSelectionKey {
 public:
  std::uint32_t interest_ops() const noexcept { return interest_; }
  void set_interest_ops(std::uint32_t ops) noexcept {
    RUBIN_AUDIT_ASSERT("selector", !cancelled_,
                       "set_interest_ops on a cancelled key");
    interest_ = ops;
  }
  std::uint32_t ready_ops() const noexcept { return ready_; }

  bool is_connectable() const noexcept { return ready_ & kOpConnect; }
  bool is_acceptable() const noexcept { return ready_ & kOpAccept; }
  bool is_receivable() const noexcept { return ready_ & kOpReceive; }
  bool is_sendable() const noexcept { return ready_ & kOpSend; }

  std::uint64_t attachment() const noexcept { return attachment_; }
  void attach(std::uint64_t v) noexcept {
    RUBIN_AUDIT_ASSERT("selector", !cancelled_, "attach on a cancelled key");
    attachment_ = v;
  }

  /// The registered channel's unique connection identifier.
  std::uint64_t channel_id() const noexcept { return channel_id_; }
  const std::shared_ptr<RdmaChannel>& channel() const noexcept { return channel_; }
  const std::shared_ptr<RdmaServerChannel>& server_channel() const noexcept {
    return server_;
  }

  void cancel() noexcept { cancelled_ = true; }
  bool cancelled() const noexcept { return cancelled_; }

 private:
  friend class RdmaSelector;
  std::shared_ptr<RdmaChannel> channel_;
  std::shared_ptr<RdmaServerChannel> server_;
  std::uint64_t channel_id_ = 0;
  std::uint32_t interest_ = 0;
  std::uint32_t ready_ = 0;
  std::uint64_t attachment_ = 0;
  bool cancelled_ = false;
  bool accept_fired_ = false;  // client-side kOpAccept reported once
};

/// The hybrid event queue + notification half of the selector (paper:
/// "an event manager is associated with the selector to keep track of the
/// events added to the queue and to notify the selector").
class EventManager {
 public:
  struct HybridEvent {
    enum class Source : std::uint8_t { kConnection, kCompletion };
    Source source = Source::kCompletion;
    std::uint64_t channel_id = 0;
  };

  explicit EventManager(sim::Simulator& sim) : wake_(sim) {}

  void push(HybridEvent e) {
    queue_.push(e);
    wake_.set();
  }
  std::size_t pending() const noexcept { return queue_.size(); }

 private:
  friend class RdmaSelector;
  GrowingRing<HybridEvent> queue_;
  sim::Event wake_;
};

class RdmaSelector {
 public:
  explicit RdmaSelector(RubinContext& ctx);
  ~RdmaSelector();
  RdmaSelector(const RdmaSelector&) = delete;
  RdmaSelector& operator=(const RdmaSelector&) = delete;

  /// Registers a channel (paper Fig. 2, step 1). The returned key holds
  /// the interest set and is updated by select().
  RdmaSelectionKey* register_channel(std::shared_ptr<RdmaChannel> channel,
                                     std::uint32_t interest,
                                     std::uint64_t attachment = 0);
  RdmaSelectionKey* register_server(std::shared_ptr<RdmaServerChannel> server,
                                    std::uint32_t interest,
                                    std::uint64_t attachment = 0);

  /// Blocks (in virtual time) until at least one registered channel is
  /// ready for an operation in its interest set, the timeout expires
  /// (timeout >= 0), or wakeup() is called. Returns the number of ready
  /// keys (paper Fig. 2, steps 3-5).
  sim::Task<std::size_t> select(sim::Time timeout = -1);

  const std::vector<RdmaSelectionKey*>& selected() const noexcept {
    return selected_;
  }

  /// Unblocks the pending select — or the next one, if none is in
  /// progress (Java Selector::wakeup semantics). A select consumes the
  /// wakeup however it returns.
  void wakeup() {
    wakeup_pending_ = true;
    em_.wake_.set();
  }

  std::size_t key_count() const noexcept { return keys_.size(); }

  /// Key registered for the channel with this connection identifier;
  /// nullptr if none.
  RdmaSelectionKey* find_key(std::uint64_t channel_id) noexcept {
    for (auto& key : keys_) {
      if (key->channel_id_ == channel_id && !key->cancelled_) return key.get();
    }
    return nullptr;
  }
  std::uint64_t events_dispatched() const noexcept { return events_dispatched_; }

 private:
  std::uint32_t current_ready(RdmaSelectionKey& key) const;
  void sweep_cancelled();

  RubinContext* ctx_;
  EventManager em_;
  std::vector<std::unique_ptr<RdmaSelectionKey>> keys_;
  std::vector<RdmaSelectionKey*> selected_;
  bool wakeup_pending_ = false;
  std::uint64_t events_dispatched_ = 0;
};

}  // namespace rubin::nio
