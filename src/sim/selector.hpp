// The select protocol shared by RUBIN's RdmaSelector (paper §III-B,
// Fig. 2) and the tcpsim Poller that stands in for the Java NIO selector
// it is measured against (Fig. 4). Both follow
// java.nio.channels.Selector:
//  * a channel registers with an *interest set* and gets a selection key
//    carrying interest, readiness and a user attachment;
//  * select() blocks (in virtual time) until >= 1 key is ready, the
//    timeout expires (timeout >= 0) or wakeup() is called, and fills the
//    selected-key list;
//  * readiness is level-triggered: recomputed from channel state on every
//    pass, except the one-shot "connection attempt resolved" bit, which a
//    channel key reports once;
//  * cancel() deregisters a key; the next select pass sweeps it;
//  * wakeup() ends the pending select, or the next one if none is in
//    progress. One select consumes at most one wakeup however it returns,
//    so a stale wakeup never ends a later select.
//
// The backends differ only in what they charge (SelectCosts) and in how
// a channel's readiness is read. A backend derives from Selector<Derived,
// Key> and provides `static std::uint32_t ready_of(Key::Channel&)`,
// `ready_of(Key::Server&)` and `static constexpr std::uint32_t kResolved`
// (the one-shot bit). A channel type holds a `SelectNotifier* notifier_`
// and calls notify() whenever its readiness may have changed.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/audit.hpp"
#include "sim/event.hpp"
#include "sim/task.hpp"

namespace rubin::sim {

/// Virtual-time bill of one select(): `entry` on every call, `per_event`
/// for each notification pending at a pass, `wakeup` whenever the
/// selector thread parked. A zero per-event charge schedules nothing.
struct SelectCosts {
  Time entry = 0;
  Time per_event = 0;
  Time wakeup = 0;
};

/// What a registered channel holds: the selector to notify.
class SelectNotifier {
 public:
  SelectNotifier(const SelectNotifier&) = delete;
  SelectNotifier& operator=(const SelectNotifier&) = delete;

  /// The notifying channel's readiness may have changed.
  void notify() {
    ++pending_events_;
    wake_.set();
  }

 protected:
  explicit SelectNotifier(Simulator& sim) : wake_(sim) {}
  ~SelectNotifier() = default;

  Event wake_;
  std::size_t pending_events_ = 0;
};

template <typename Derived, typename Key>
class Selector;

/// Backend-independent half of a selection key; exactly one of channel_
/// and server_ is set.
template <typename ChannelT, typename ServerT>
class BasicSelectionKey {
 public:
  using Channel = ChannelT;
  using Server = ServerT;

  void set_interest_ops(std::uint32_t ops) noexcept {
    RUBIN_AUDIT_ASSERT("selector", !cancelled_,
                       "set_interest_ops on a cancelled key");
    interest_ = ops;
  }

  /// Opaque user value (Java's key.attach()), typically a connection id.
  std::uint64_t attachment() const noexcept { return attachment_; }
  void attach(std::uint64_t v) noexcept {
    RUBIN_AUDIT_ASSERT("selector", !cancelled_, "attach on a cancelled key");
    attachment_ = v;
  }

  /// Deregisters the key; it is removed on the next select pass.
  void cancel() noexcept { cancelled_ = true; }
  bool cancelled() const noexcept { return cancelled_; }

 protected:
  template <typename, typename>
  friend class Selector;

  std::shared_ptr<Channel> channel_;
  std::shared_ptr<Server> server_;
  std::uint32_t interest_ = 0;
  std::uint32_t ready_ = 0;
  std::uint64_t attachment_ = 0;
  bool cancelled_ = false;
  bool resolved_fired_ = false;  // the one-shot bit was reported
};

template <typename Derived, typename Key>
class Selector : protected SelectNotifier {
 public:
  using Channel = typename Key::Channel;

  Selector(Simulator& sim, SelectCosts costs)
      : SelectNotifier(sim), sim_(&sim), costs_(costs) {}
  ~Selector() {
    for (auto& key : keys_) unlink(*key);
  }

  /// Blocks until at least one registered channel is ready for an
  /// operation in its interest set, the timeout elapses (timeout >= 0),
  /// or wakeup() is called. Returns the number of ready keys (0 on
  /// timeout or wakeup).
  Task<std::size_t> select(Time timeout = -1) {
    Simulator& sim = *sim_;
    co_await sim.sleep(costs_.entry);
    const Time deadline = timeout >= 0 ? sim.now() + timeout : -1;

    for (;;) {
      wake_.reset();
      const std::size_t n_events = pending_events_;
      pending_events_ = 0;
      events_dispatched_ += n_events;
      if (n_events > 0 && costs_.per_event > 0) {
        co_await sim.sleep(static_cast<Time>(n_events) * costs_.per_event);
      }

      sweep_cancelled();
      selected_.clear();
      for (auto& key : keys_) {
        // A cancelled key surviving into the scan would let select()
        // report (and the app operate on) a torn-down channel.
        RUBIN_AUDIT_ASSERT("selector", !key->cancelled_,
                           "cancelled key survived sweep into the ready scan");
        const std::uint32_t ready = key->interest_ & current_ready(*key);
        if (ready == 0) continue;
        key->ready_ = ready;
        if ((ready & Derived::kResolved) && key->channel_) {
          key->resolved_fired_ = true;
        }
        selected_.push_back(key.get());
      }
      if (!selected_.empty() || wakeup_pending_) {
        wakeup_pending_ = false;
        co_return selected_.size();
      }
      if (deadline >= 0 && sim.now() >= deadline) co_return 0;

      TimerId tid = 0;
      if (deadline >= 0) {
        tid = sim.schedule_after(deadline - sim.now(), [this] { wake_.set(); });
      }
      co_await wake_.wait();
      if (deadline >= 0) sim.cancel(tid);
      co_await sim.sleep(costs_.wakeup);  // the selector thread parked
    }
  }

  /// Keys made ready by the last select call.
  const std::vector<Key*>& selected() const noexcept { return selected_; }

  /// Ends the pending select, or the next one if none is in progress.
  void wakeup() {
    wakeup_pending_ = true;
    wake_.set();
  }

  std::size_t key_count() const noexcept { return keys_.size(); }
  /// Notifications charged so far (one dispatch step each).
  std::uint64_t events_dispatched() const noexcept { return events_dispatched_; }

 protected:
  /// Links `ch` to this selector and returns its new key.
  template <typename C>
  Key* add(std::shared_ptr<C> ch, std::uint32_t interest,
           std::uint64_t attachment) {
    RUBIN_AUDIT_ASSERT("selector", ch->notifier_ == nullptr,
                       "channel already registered with a selector");
    ch->notifier_ = this;
    auto key = std::make_unique<Key>();
    if constexpr (std::is_same_v<C, Channel>) {
      key->channel_ = std::move(ch);
    } else {
      key->server_ = std::move(ch);
    }
    key->interest_ = interest;
    key->attachment_ = attachment;
    keys_.push_back(std::move(key));
    wake_.set();  // a new key may already be ready
    return keys_.back().get();
  }

  /// Every key, cancelled ones included until the next sweep.
  const std::vector<std::unique_ptr<Key>>& keys() const noexcept {
    return keys_;
  }

 private:
  static std::uint32_t current_ready(Key& key) {
    if (key.server_) return Derived::ready_of(*key.server_);
    const std::uint32_t ready = Derived::ready_of(*key.channel_);
    return key.resolved_fired_ ? ready & ~Derived::kResolved : ready;
  }

  static void unlink(Key& key) noexcept {
    if (key.channel_) key.channel_->notifier_ = nullptr;
    if (key.server_) key.server_->notifier_ = nullptr;
  }

  void sweep_cancelled() {
    std::erase_if(keys_, [](const std::unique_ptr<Key>& key) {
      if (!key->cancelled_) return false;
      unlink(*key);
      return true;
    });
  }

  Simulator* sim_;
  SelectCosts costs_;
  std::vector<std::unique_ptr<Key>> keys_;
  std::vector<Key*> selected_;
  bool wakeup_pending_ = false;
  std::uint64_t events_dispatched_ = 0;
};

}  // namespace rubin::sim
