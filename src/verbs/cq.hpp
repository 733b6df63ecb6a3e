// Completion queues and completion channels.
//
// A CQ collects Completion entries from the NIC. Consumers either busy-
// poll (poll()) — the cheap path one-sided benchmarks use — or arm the CQ
// (req_notify()) and park on the CompletionChannel, which costs a kernel
// visit per event (CostModel::completion_event_cost). RUBIN's selector is
// built on the armed path; the cost difference between the two paths is a
// large part of the paper's Read/Write-vs-Send/Receive latency gap.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/ring_buffer.hpp"
#include "sim/mailbox.hpp"
#include "verbs/types.hpp"

namespace rubin::verbs {

class CompletionQueue;

/// ibv_comp_channel: a queue of "CQ has something" notifications. Several
/// CQs may share one channel; RUBIN points all its channels' CQs at one.
///
/// Consumption is either the built-in awaitable mailbox (default) or a
/// custom sink installed with set_sink — RUBIN's event manager uses the
/// sink to merge completion events into its hybrid event queue.
class CompletionChannel {
 public:
  explicit CompletionChannel(sim::Simulator& sim) : events_(sim) {}

  /// Awaitable stream of CQ-ready notifications (single consumer). Only
  /// meaningful while no sink is installed.
  sim::Mailbox<CompletionQueue*>& events() noexcept { return events_; }

  /// Redirects future notifications into `sink` instead of the mailbox.
  void set_sink(std::function<void(CompletionQueue*)> sink) {
    sink_ = std::move(sink);
  }

  void deliver(CompletionQueue* cq) {
    if (sink_) {
      sink_(cq);
    } else {
      events_.push(cq);
    }
  }

 private:
  sim::Mailbox<CompletionQueue*> events_;
  std::function<void(CompletionQueue*)> sink_;
};

class CompletionQueue {
 public:
  CompletionQueue(sim::Simulator& sim, std::size_t capacity,
                  CompletionChannel* channel, sim::Time event_cost)
      : sim_(&sim), capacity_(capacity), channel_(channel),
        event_cost_(event_cost) {}

  /// Drains up to `max` completions into `out`, which is cleared first
  /// (ibv_poll_cq). Returns how many. Message paths keep one `out` per
  /// poller, so a poll allocates nothing once the buffer has grown.
  std::size_t poll(std::vector<Completion>& out, std::size_t max);

  /// Same, into a fresh vector: for tests and setup paths.
  std::vector<Completion> poll(std::size_t max) {
    std::vector<Completion> out;
    poll(out, max);
    return out;
  }

  /// Arms the CQ: the next CQE pushes one notification to the channel and
  /// disarms (ibv_req_notify_cq semantics). Consumers re-arm after
  /// draining — and must re-poll after re-arming to close the race.
  void req_notify() noexcept { armed_ = true; }

  /// Rebinds the completion channel. Real verbs fix the channel at CQ
  /// creation; we allow rebinding so a channel can be created standalone
  /// and later handed to a selector without recreating its CQs.
  void set_channel(CompletionChannel* channel) noexcept { channel_ = channel; }

  /// Completions queued now (not the capacity).
  std::size_t depth() const noexcept { return ring_.size(); }
  bool overflowed() const noexcept { return overflowed_; }

  /// NIC-side entry point: append a completion.
  void push(const Completion& c);

 private:
  sim::Simulator* sim_;
  /// Grows on demand up to capacity_: a CQ sized for a burst holds memory
  /// only for what is queued.
  GrowingRing<Completion> ring_;
  std::size_t capacity_;
  CompletionChannel* channel_;
  sim::Time event_cost_;
  bool armed_ = false;
  bool overflowed_ = false;
};

}  // namespace rubin::verbs
