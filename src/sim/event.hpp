// Awaitable one-shot / resettable event (the DES analogue of a condition
// variable with broadcast). set() wakes waiters *through the event queue*,
// never inline, so a setter can not re-enter waiter code mid-statement and
// wake order is deterministic (registration order).
#pragma once

#include <coroutine>
#include <vector>

#include "sim/simulator.hpp"

namespace rubin::sim {

class Event {
 public:
  explicit Event(Simulator& sim) : sim_(&sim) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  /// Sets the event and schedules every current waiter for resumption at
  /// the current instant (registration order, through the allocation-free
  /// resume fast path). Idempotent while set.
  void set() {
    set_ = true;
    for (auto h : waiters_) {
      sim_->post_resume(h);
    }
    waiters_.clear();
  }

  /// Clears the flag; future wait() calls block again. Waiters already
  /// scheduled by a previous set() still run.
  void reset() noexcept { set_ = false; }

  /// Awaitable; completes immediately if the event is set.
  auto wait() {
    struct Awaiter {
      Event* ev;
      bool await_ready() const noexcept { return ev->set_; }
      void await_suspend(std::coroutine_handle<> h) { ev->waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  Simulator* sim_;
  bool set_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace rubin::sim
