// Discrete-event simulator with a virtual nanosecond clock.
//
// Single-threaded and deterministic: events fire in (time, insertion-seq)
// order, so two events scheduled for the same instant run in the order they
// were scheduled. Simulated processes are C++20 coroutines (sim::Task) that
// suspend on awaitables (sleep, Event, Mailbox) and are resumed by the
// event loop; no OS threads, no wall clock.
//
// Hot-path layout (see DESIGN.md §5 "kernel fast paths"): queue entries are
// 16/24-byte (t, seq, payload) records where the payload is either a raw
// coroutine handle — the dominant event kind, dispatched with no type
// erasure and no allocation — or an index into a generation-checked slot
// pool holding a type-erased UniqueFunction (itself allocation-free for
// small captures via SBO). Events scheduled *at the current instant* go
// through a FIFO ring that bypasses the binary heap entirely. Memory
// pollers whose iterations find nothing park beside the queue
// (idle_wait) and cost no event until their idle test fails. Timeouts
// that share one delay wait in a TimeoutQueue (timeout_queue.hpp) with
// only their front in the queue.
#pragma once

#include <array>
#include <coroutine>
#include <cstdint>
#include <limits>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/audit.hpp"
#include "common/counters.hpp"
#include "common/ring_buffer.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "sim/unique_function.hpp"

namespace rubin::sim {

/// Handle for cancelling a scheduled callback: (generation << 32) | slot.
/// The generation check makes cancel O(1) and makes cancelling an
/// already-fired timer a guaranteed no-op even after its slot is reused.
using TimerId = std::uint64_t;

/// The sleeps of one memory-polling iteration, in order: `{interval}` for
/// a loop that only waits, `{probe, interval}` for one that pays a probe
/// charge and then waits. Phase i is the point reached after the sleep
/// before it; phase 0 is the top of the loop.
class IdleSteps {
 public:
  explicit IdleSteps(Time interval) : step_{clamp(interval), 0}, count_(1) {}
  IdleSteps(Time probe, Time interval)
      : step_{clamp(probe), clamp(interval)}, count_(2) {}
  std::uint32_t count() const noexcept { return count_; }
  /// The sleep taken from `phase` into the next phase.
  Time after(std::uint32_t phase) const noexcept { return step_[phase]; }

 private:
  static Time clamp(Time d) noexcept { return d > 0 ? d : 0; }
  std::array<Time, 2> step_;
  std::uint32_t count_;
};

/// The timeouts a TimeoutQueue (sim/timeout_queue.hpp) dropped as
/// settled instead of firing them as no-op events. run_until asks where
/// they stood (see run_until).
class DroppedTimeouts {
 public:
  /// The (t, seq) of the first dropped timeout that fires after (t, seq);
  /// false when there is none.
  virtual bool first_after(Time t, std::uint64_t seq, Time& out_t,
                           std::uint64_t& out_seq) const = 0;

 protected:
  ~DroppedTimeouts() = default;
};

class Simulator {
 public:
  Simulator() = default;
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  Time now() const noexcept { return now_; }

  /// Schedules `fn` at absolute virtual time `t` (clamped to now). The
  /// callable is constructed directly into a pooled timer slot — small
  /// captures (<= UniqueFunction::kInlineSize) never touch the heap and
  /// are never moved again.
  template <typename F>
    requires std::is_invocable_v<std::decay_t<F>&>
  TimerId schedule_at(Time t, F&& fn) {
    RUBIN_COUNT("sim.schedule.erased", 1);
    const std::uint32_t slot = acquire_slot();
    TimerSlot& s = slot_ref(slot);
    if constexpr (std::is_same_v<std::decay_t<F>, UniqueFunction>) {
      s.fn = std::forward<F>(fn);  // already erased: one relocate
    } else {
      s.fn.emplace(std::forward<F>(fn));
    }
    const TimerId id = (static_cast<TimerId>(s.generation) << 32) | slot;
    enqueue(t > now_ ? t : now_, slot_payload(slot));
    return id;
  }

  /// Schedules `fn` after `delay` nanoseconds (clamped to >= 0).
  template <typename F>
    requires std::is_invocable_v<std::decay_t<F>&>
  TimerId schedule_after(Time delay, F&& fn) {
    return schedule_at(now_ + (delay > 0 ? delay : 0), std::forward<F>(fn));
  }

  /// Schedules `fn` at the current time, after already-queued events for
  /// this instant. The simulation's "yield to the event loop".
  template <typename F>
    requires std::is_invocable_v<std::decay_t<F>&>
  TimerId post(F&& fn) {
    return schedule_at(now_, std::forward<F>(fn));
  }

  /// Fast path: resume `h` at absolute virtual time `t` (clamped to now).
  /// No type erasure, no allocation, not cancellable — the path every
  /// sleep, Mailbox wakeup and Event notify takes. Inline so awaiter call
  /// sites fuse with the ring push.
  void schedule_resume(Time t, std::coroutine_handle<> h) {
    RUBIN_COUNT("sim.schedule.resume", 1);
    RUBIN_AUDIT_ASSERT("sim", (handle_payload(h) & kSlotTag) == 0,
                       "coroutine frame address has bit 0 set; payload "
                       "tagging needs 2-aligned frames");
    enqueue(t > now_ ? t : now_, handle_payload(h));
  }

  /// Fast path: resume `h` at the current instant, after already-queued
  /// events for this instant. Bypasses the timer heap entirely.
  void post_resume(std::coroutine_handle<> h) {
    RUBIN_COUNT("sim.schedule.resume", 1);
    RUBIN_AUDIT_ASSERT("sim", (handle_payload(h) & kSlotTag) == 0,
                       "coroutine frame address has bit 0 set; payload "
                       "tagging needs 2-aligned frames");
    now_queue_.push(NowEntry{next_seq_++, handle_payload(h)});
    RUBIN_COUNT("sim.enqueue.now_ring", 1);
  }

  /// Cancels a pending callback. O(1); safe (and a no-op) after it fired.
  void cancel(TimerId id);

  /// Takes the seq that a schedule call made now would take, for an
  /// entry that schedule_reserved enqueues later (TimeoutQueue).
  std::uint64_t reserve_seq() noexcept { return next_seq_++; }

  /// Schedules `fn` at exactly (t, seq), where `seq` came from
  /// reserve_seq() and (t, seq) has not been passed yet: t >= now, and
  /// nothing that fires after (t, seq) has run. Not cancellable.
  template <typename F>
    requires std::is_invocable_v<std::decay_t<F>&>
  void schedule_reserved(Time t, std::uint64_t seq, F&& fn) {
    RUBIN_COUNT("sim.schedule.erased", 1);
    RUBIN_AUDIT_ASSERT("sim", t >= now_ && seq < next_seq_,
                       "reserved entry scheduled in the past");
    const std::uint32_t slot = acquire_slot();
    slot_ref(slot).fn.emplace(std::forward<F>(fn));
    // The heap even at t == now_: the ring must stay in seq order, and
    // step() merges a heap entry at now_ by seq.
    pending_push(HeapEntry{t, seq, slot_payload(slot)});
  }

  /// Registers a TimeoutQueue's dropped timeouts for run_until; the
  /// queue unregisters before it dies.
  void watch_dropped(const DroppedTimeouts* d) { dropped_.push_back(d); }
  void unwatch_dropped(const DroppedTimeouts* d) { std::erase(dropped_, d); }

  /// Starts a root coroutine. It begins running when the event loop next
  /// reaches the current instant. The simulator owns the frame: it is
  /// destroyed on completion, and a simulator torn down mid-run destroys
  /// still-suspended process chains instead of leaking them.
  /// Exceptions escaping a root task call std::terminate — a simulated
  /// process with nobody to rethrow to is a test bug.
  void spawn(Task<> task);

  /// Runs one event. Returns false when the queue is empty.
  bool step();

  /// Runs until the event queue is empty.
  void run();

  /// Runs until virtual time would exceed `deadline` (events at exactly
  /// `deadline` still run) or the queue empties. One exception: a
  /// cancelled entry popped at or before `deadline` lets the entry after
  /// it fire even past `deadline` (the clock then ends there, not at
  /// `deadline`). A parked poller's idle instant or a timeout a
  /// TimeoutQueue dropped stands in that place for the no-op event it
  /// replaced, and ends the run there instead.
  void run_until(Time deadline);
  void run_for(Time duration) { run_until(now_ + duration); }

  /// Awaitable: suspends the calling coroutine for `delay` virtual ns.
  auto sleep(Time delay) {
    struct Awaiter {
      Simulator* sim;
      Time delay;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        sim->schedule_resume(sim->now_ + (delay > 0 ? delay : 0), h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, delay};
  }

  /// Awaitable for a memory-polling loop (DESIGN.md §5 "Parked
  /// pollers"). Stands where the iteration's last sleep,
  /// `steps.after(count - 1)`, would stand, and returns the phase at which
  /// the loop must continue. Until then the poller is parked beside the
  /// queue: at each instant its sleep loop would have woken, the
  /// simulator calls `idle(phase)`; while that returns true it takes the
  /// seq the next sleep would have taken and moves on by the next step,
  /// without an event. The first phase whose test fails resumes the
  /// coroutine at that instant, with that seq, as one event.
  ///
  /// `idle(phase)` must be pure: it reads what that iteration would read
  /// and answers "it would only sleep" — no counters, no writes, no
  /// co_await, no now(). Nothing changes between two events, so the
  /// simulator may reuse an answer until the next event. Phase 0 must
  /// also answer false whenever the loop would take a different branch
  /// or stop.
  template <typename Idle>
    requires std::is_invocable_r_v<bool, const Idle&, std::uint32_t>
  auto idle_wait(IdleSteps steps, Idle idle) {
    struct Awaiter {
      Simulator* sim;
      IdleSteps steps;
      Idle idle;
      std::uint32_t phase = 0;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        sim->park(Parked{0, 0, h, &phase, &Awaiter::test, &idle, steps, 0, 0});
      }
      std::uint32_t await_resume() const noexcept { return phase; }
      static bool test(const void* f, std::uint32_t p) {
        return (*static_cast<const Idle*>(f))(p);
      }
    };
    return Awaiter{this, steps, std::move(idle)};
  }

  /// Destroys every still-suspended root process without resuming it
  /// (their frames unwind, running local destructors). The destructor
  /// does this too; call it earlier when the processes reference objects
  /// that die before the simulator — e.g. a test fixture that declares
  /// the simulator first and channels after it.
  void terminate_processes();

  /// Number of root tasks spawned that have not yet completed.
  std::size_t live_roots() const noexcept { return live_roots_; }
  std::uint64_t events_processed() const noexcept { return events_processed_; }

  /// Timer-slot pool size: bounds the memory cancellation can ever pin.
  /// Grows with the peak number of *concurrently pending* callbacks only —
  /// cancel-after-fire does not grow it (the PR-2 regression).
  std::size_t timer_slot_capacity() const noexcept { return slot_count_; }

  /// Audit: full O(n) validation of the pending-event structures — the
  /// (t, seq) min-heap property, FIFO order of the same-instant ring,
  /// per-entry sanity (no entry or parked poller in the past, no
  /// duplicate sequence numbers, every slot-payload entry pointing at a
  /// live slot). Too expensive for the per-event hot path; tests and
  /// debugging call it at checkpoints.
  bool validate_heap() const;

 private:
  friend struct RootDriverAccess;
  void root_finished(std::uint32_t slot, std::uint64_t id) noexcept;
  void reap_finished_roots();

  // Payload word: coroutine handle addresses are at least 2-aligned, so
  // bit 0 tags the alternative — 0: resume-handle fast path, 1: timer
  // slot index holding a UniqueFunction.
  static constexpr std::uintptr_t kSlotTag = 1;
  static std::uintptr_t handle_payload(std::coroutine_handle<> h) noexcept {
    return reinterpret_cast<std::uintptr_t>(h.address());
  }
  static std::uintptr_t slot_payload(std::uint32_t slot) noexcept {
    return (static_cast<std::uintptr_t>(slot) << 1) | kSlotTag;
  }

  struct HeapEntry {
    Time t;
    std::uint64_t seq;
    std::uintptr_t payload;
    /// Strict total order (seq is unique): true when *this fires first.
    bool fires_before(const HeapEntry& o) const noexcept {
      return t != o.t ? t < o.t : seq < o.seq;
    }
  };
  struct NowEntry {
    std::uint64_t seq;
    std::uintptr_t payload;
  };
  /// A poller parked by idle_wait: not a queue entry, but ordered against
  /// the queue by the (t, seq) its sleep loop would have had.
  struct Parked {
    Time t;
    std::uint64_t seq;
    std::coroutine_handle<> h;
    std::uint32_t* wake_phase;  // the awaiter's; await_resume returns it
    bool (*idle)(const void*, std::uint32_t);
    const void* ctx;
    IdleSteps steps;
    std::uint32_t phase;
    std::uint32_t known_idle;  // phases found idle in this stretch (bits)
    bool fires_before(Time et, std::uint64_t eseq) const noexcept {
      return t != et ? t < et : seq < eseq;
    }
  };
  /// What one advance() did.
  enum class Fired { kNothing, kEvent, kSkip };
  static constexpr Time kNever = std::numeric_limits<Time>::max();
  /// Type-erased callback storage, reused through a free list. The
  /// generation is half of the TimerId; it is bumped on release so stale
  /// cancels of a reused slot cannot hit the new occupant.
  struct TimerSlot {
    UniqueFunction fn;
    std::uint32_t generation = 0;
    bool cancelled = false;
  };

  /// Routes a freshly assigned payload to the same-instant ring or the
  /// timer heap. `t` must already be clamped to >= now_.
  void enqueue(Time t, std::uintptr_t payload) {
    const std::uint64_t seq = next_seq_++;
    if (t == now_) {
      // Same-instant events (the majority: every mailbox wakeup, every
      // post) skip the heap. FIFO order within the ring *is* seq order,
      // and every entry already in the heap at t == now_ carries a smaller
      // seq (it was pushed before time advanced to now_), so the merge in
      // step() preserves the global (t, seq) contract.
      now_queue_.push(NowEntry{seq, payload});
      RUBIN_COUNT("sim.enqueue.now_ring", 1);
    } else {
      pending_push(HeapEntry{t, seq, payload});
      // The min element can never sit in the past, or virtual time would
      // run backwards on the next step().
      RUBIN_AUDIT_ASSERT("sim", pending_front().t >= now_,
                         "timer heap head is in the past");
    }
  }

  // ------------------------------------------------------- 4-ary heap ---
  // Implicit 4-ary min-heap on (t, seq) in heap_: half the sift depth of
  // a binary heap, so pops touch half the cache lines. The pop *sequence*
  // is identical to any other min-heap — (t, seq) is a strict total order,
  // so each pop returns the unique minimum regardless of internal shape.
  void heap_push(HeapEntry e) {
    std::size_t i = heap_.size();
    heap_.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!e.fires_before(heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }
  HeapEntry heap_pop() {
    const HeapEntry top = heap_.front();
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n > 0) {
      std::size_t i = 0;
      for (;;) {
        const std::size_t first_child = 4 * i + 1;
        if (first_child >= n) break;
        const std::size_t end =
            first_child + 4 < n ? first_child + 4 : n;
        std::size_t best = first_child;
        for (std::size_t c = first_child + 1; c < end; ++c) {
          if (heap_[c].fires_before(heap_[best])) best = c;
        }
        if (!heap_[best].fires_before(last)) break;
        heap_[i] = heap_[best];
        i = best;
      }
      heap_[i] = last;
    }
    return top;
  }

  // ---------------------------------------------- sorted-run fast path --
  // DES schedules are near-monotone: most entries are pushed in firing
  // order (timeouts at now + constant, deliveries in arrival order). An
  // entry that fires no earlier than the newest run entry is appended to
  // sorted_run_ (O(1)); only out-of-order pushes pay the heap. The pop
  // side takes whichever front fires first — each pop still returns the
  // unique (t, seq) minimum, so the dispatch sequence is identical to a
  // single heap's.
  bool pending_empty() const noexcept {
    return heap_.empty() && run_head_ == sorted_run_.size();
  }
  /// Earliest pending future entry; pending_empty() must be false.
  const HeapEntry& pending_front() const noexcept {
    if (heap_.empty()) return sorted_run_[run_head_];
    if (run_head_ == sorted_run_.size()) return heap_.front();
    return sorted_run_[run_head_].fires_before(heap_.front())
               ? sorted_run_[run_head_]
               : heap_.front();
  }
  HeapEntry pending_pop() {
    if (run_head_ != sorted_run_.size() &&
        (heap_.empty() ||
         sorted_run_[run_head_].fires_before(heap_.front()))) {
      const HeapEntry e = sorted_run_[run_head_++];
      if (run_head_ == sorted_run_.size()) {
        sorted_run_.clear();  // keeps capacity
        run_head_ = 0;
      }
      return e;
    }
    return heap_pop();
  }
  void pending_push(HeapEntry e) {
    if (sorted_run_.empty() || !e.fires_before(sorted_run_.back())) {
      sorted_run_.push_back(e);
      RUBIN_COUNT("sim.enqueue.run", 1);
    } else {
      heap_push(e);
      RUBIN_COUNT("sim.enqueue.heap", 1);
    }
  }

  /// Timer-slot pool in fixed 64-slot chunks: slot addresses are stable
  /// across growth (a callback runs *in place* in its slot while
  /// rescheduling freely), unlike a vector, and indexing is two loads
  /// plus shift/mask, unlike a deque.
  static constexpr std::uint32_t kSlotChunkShift = 6;
  static constexpr std::uint32_t kSlotChunkSize = 1U << kSlotChunkShift;
  TimerSlot& slot_ref(std::uint32_t slot) noexcept {
    return slot_chunks_[slot >> kSlotChunkShift][slot & (kSlotChunkSize - 1)];
  }
  const TimerSlot& slot_ref(std::uint32_t slot) const noexcept {
    return slot_chunks_[slot >> kSlotChunkShift][slot & (kSlotChunkSize - 1)];
  }
  std::uint32_t acquire_slot() {
    if (free_slots_.empty()) {
      const std::uint32_t slot = slot_count_;
      if ((slot >> kSlotChunkShift) == slot_chunks_.size()) {
        slot_chunks_.push_back(
            std::make_unique<TimerSlot[]>(kSlotChunkSize));
      }
      ++slot_count_;
      return slot;
    }
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  void release_slot(std::uint32_t slot);
  /// Fires one popped entry. Returns false for a cancelled (skipped) one.
  bool dispatch(Time t, std::uintptr_t payload);
  /// Fires whatever comes next in (t, seq) order if it is due by
  /// `deadline`: a queue entry (kEvent), or the parked-poller instants due
  /// before it, which are skipped (kSkip) until one wakes (kEvent).
  Fired advance(Time deadline);
  /// The (t, seq) of the next queue entry; false when the queue is empty.
  bool next_entry(Time& t, std::uint64_t& seq) const noexcept;
  void park(Parked p);
  std::size_t earliest_parked() const noexcept;
  /// Handles the due parked poller `i`: one idle step, or its wake.
  Fired fire_parked(std::size_t i);
  /// Handles every parked instant that fires before the queue entry
  /// (qt, qseq) and at or before `deadline`. True when a poller woke.
  bool run_parked(Time qt, std::uint64_t qseq, Time deadline);
  void skip_instant(Parked& p);
  /// Resumes parked poller `i` at its instant, as one event.
  void wake(std::size_t i);
  /// After the cancelled entry (ct, cseq): true, with the clock moved
  /// there, when a dropped timeout comes before the next entry and that
  /// entry is past `deadline`.
  bool stop_at_dropped(Time ct, std::uint64_t cseq, Time deadline);

  std::vector<HeapEntry> heap_;
  /// FIFO of entries pushed in firing order (see pending_push); consumed
  /// from run_head_, cleared (capacity kept) when drained.
  std::vector<HeapEntry> sorted_run_;
  std::size_t run_head_ = 0;
  GrowingRing<NowEntry> now_queue_;  // entries all at t == now_
  std::vector<std::unique_ptr<TimerSlot[]>> slot_chunks_;
  std::uint32_t slot_count_ = 0;
  std::vector<std::uint32_t> free_slots_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::size_t live_roots_ = 0;
  std::uint64_t next_root_id_ = 0;
  std::vector<Parked> parked_;  // unordered; a handful at most
  std::vector<const DroppedTimeouts*> dropped_;  // one per TimeoutQueue
  /// Root frames finished but not yet erased (by slot index): a driver
  /// signals completion from inside its own frame, so the erase is
  /// deferred to the next step() (the frame is parked at final_suspend
  /// until then).
  std::vector<std::uint32_t> finished_roots_;
  std::vector<std::uint32_t> free_root_slots_;
  /// Owned root drivers (each driver frame owns its child task chain),
  /// stored in a slot pool reused through free_root_slots_; `id` detects
  /// reuse (kNoRoot marks a free slot). Declared last so they are
  /// destroyed *first*: frame destruction runs user destructors that may
  /// still call cancel() or schedule accessors.
  struct RootSlot {
    static constexpr std::uint64_t kNoRoot = ~0ULL;
    std::uint64_t id = kNoRoot;
    Task<> task;
  };
  std::vector<RootSlot> roots_;
};

}  // namespace rubin::sim
