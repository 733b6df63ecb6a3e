// One timer for many timeouts (DESIGN.md §5 "Timeout queues").
//
// A TimeoutQueue holds timeouts that all share one delay, so the order
// they are added in is the order they fall due. Only the oldest live one
// sits in the simulator's queue, and it sits there at the exact (t, seq)
// a schedule_after of its own would have had: add() reserves that seq.
// Timeouts that can no longer do anything are dropped without an event.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "common/ring_buffer.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace rubin::sim {

/// The owner supplies two functions. `on_timeout(e)` does what the
/// per-timeout callback did; it is called only while `settled(e)` is
/// false. `settled(e)` may return true only if that callback would be a
/// no-op now and at every later instant; a settled entry behind the front
/// is dropped. The queue never cancels a simulator entry (a cancelled
/// entry changes where run_until stops): a front that settles in the
/// queue still fires, as the per-timeout callback did, and does nothing.
///
/// The queue may die with its front armed: the simulator entry holds only
/// a weak reference and then fires as a no-op.
template <typename Entry>
class TimeoutQueue {
 public:
  TimeoutQueue(Simulator& sim, Time delay,
               std::function<void(const Entry&)> on_timeout,
               std::function<bool(const Entry&)> settled)
      : core_(std::make_shared<Core>(sim, delay > 0 ? delay : 0,
                                     std::move(on_timeout),
                                     std::move(settled))) {
    sim.watch_dropped(core_.get());
  }
  ~TimeoutQueue() {
    core_->sim->unwatch_dropped(core_.get());
    core_->detached = true;  // a firing in progress calls back no more
  }
  TimeoutQueue(const TimeoutQueue&) = delete;
  TimeoutQueue& operator=(const TimeoutQueue&) = delete;

  Time delay() const noexcept { return core_->delay; }

  /// Starts a timeout for `e`, due one delay from now.
  void add(Entry e) {
    Core& c = *core_;
    c.items.push(Item{c.sim->now() + c.delay, c.sim->reserve_seq(),
                      std::move(e)});
    if (!c.armed) arm(core_);
  }

 private:
  struct Item {
    Time t;
    std::uint64_t seq;
    Entry e;
  };

  struct Core final : DroppedTimeouts {
    Core(Simulator& s, Time d, std::function<void(const Entry&)> on,
         std::function<bool(const Entry&)> st)
        : sim(&s), delay(d), on_timeout(std::move(on)),
          settled(std::move(st)) {}

    bool first_after(Time t, std::uint64_t seq, Time& out_t,
                     std::uint64_t& out_seq) const override {
      for (std::size_t i = 0; i < dropped; ++i) {
        const Item& it = items[i];
        if (it.t != t ? it.t > t : it.seq > seq) {
          out_t = it.t;
          out_seq = it.seq;
          return true;
        }
      }
      return false;
    }

    Simulator* sim;
    Time delay;
    std::function<void(const Entry&)> on_timeout;
    std::function<bool(const Entry&)> settled;
    /// In (t, seq) order: one delay and a clock that never runs back.
    /// items[0, dropped) were found settled and wait only for run_until
    /// (DroppedTimeouts); when armed, items[dropped] is the one in the
    /// simulator's queue.
    GrowingRing<Item> items;
    std::size_t dropped = 0;
    bool armed = false;
    bool detached = false;
  };

  /// Puts the first unsettled entry into the simulator's queue.
  static void arm(const std::shared_ptr<Core>& core) {
    Core& c = *core;
    // Dropped entries already passed can no longer matter to run_until.
    while (c.dropped > 0 && c.items.front().t < c.sim->now()) {
      (void)c.items.pop();
      --c.dropped;
    }
    while (c.dropped < c.items.size() && c.settled(c.items[c.dropped].e)) {
      ++c.dropped;
    }
    if (c.dropped == c.items.size()) return;
    const Item& front = c.items[c.dropped];
    c.armed = true;
    c.sim->schedule_reserved(front.t, front.seq,
                             [weak = std::weak_ptr<Core>(core)] {
                               fire(weak);
                             });
  }

  static void fire(const std::weak_ptr<Core>& weak) {
    const std::shared_ptr<Core> core = weak.lock();
    if (!core) return;  // the owner is gone
    Core& c = *core;
    for (; c.dropped > 0; --c.dropped) (void)c.items.pop();
    const Item due = c.items.pop();
    // Still armed while the owner runs: an add() from on_timeout queues
    // behind and leaves the arming to us.
    if (!c.settled(due.e)) c.on_timeout(due.e);
    if (c.detached) return;
    c.armed = false;
    arm(core);
  }

  std::shared_ptr<Core> core_;
};

}  // namespace rubin::sim
