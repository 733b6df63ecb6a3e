#include "sim/simulator.hpp"

#include <exception>
#include <unordered_set>

#include "common/audit.hpp"
#include "common/log.hpp"

namespace rubin::sim {

/// Grants the root-task driver access to Simulator::root_finished without
/// making it part of the public API.
struct RootDriverAccess {
  static void finished(Simulator* sim, std::uint32_t slot,
                       std::uint64_t id) noexcept {
    sim->root_finished(slot, id);
  }
};

namespace {

/// Driver for root tasks: owns the child Task in its frame (so the whole
/// chain dies with it). The Simulator owns the driver itself — that is
/// what lets a simulator torn down mid-run destroy suspended processes
/// instead of leaking their frames.
Task<> drive(Task<> task, Simulator* sim, std::uint32_t slot,
             std::uint64_t id) {
  try {
    co_await std::move(task);
  } catch (...) {
    log_error("sim", "fatal: exception escaped a root sim task");
    std::terminate();
  }
  RootDriverAccess::finished(sim, slot, id);
}

}  // namespace

Simulator::~Simulator() { terminate_processes(); }

void Simulator::terminate_processes() {
  reap_finished_roots();
  // Remaining drivers are suspended mid-chain; destroying them unwinds
  // each process's frames (and their locals) without resuming anything.
  // Pending start events in the queues look their root up by (slot, id)
  // and become no-ops. Parked pollers point into those frames: drop them
  // first.
  parked_.clear();
  roots_.clear();
  free_root_slots_.clear();
  live_roots_ = 0;
}

void Simulator::release_slot(std::uint32_t slot) {
  TimerSlot& s = slot_ref(slot);
  s.fn.reset();  // destroy a cancelled (never-run) callable
  s.cancelled = false;
  ++s.generation;  // stale TimerIds for this slot stop matching
  free_slots_.push_back(slot);
}

void Simulator::cancel(TimerId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffULL);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  // Generation mismatch means the timer already fired (or was cancelled)
  // and its slot may have moved on: a guaranteed O(1) no-op, never a
  // tombstone. This is what keeps cancel-after-fire from growing state.
  if (slot < slot_count_ && slot_ref(slot).generation == generation) {
    slot_ref(slot).cancelled = true;
  }
}

void Simulator::spawn(Task<> task) {
  ++live_roots_;
  const std::uint64_t id = next_root_id_++;
  std::uint32_t slot = 0;
  if (free_root_slots_.empty()) {
    slot = static_cast<std::uint32_t>(roots_.size());
    roots_.emplace_back();
  } else {
    slot = free_root_slots_.back();
    free_root_slots_.pop_back();
  }
  roots_[slot].id = id;
  roots_[slot].task = drive(std::move(task), this, slot, id);
  // Start through the queue so spawn order == start order and spawn()
  // itself never runs user code. The driver is lazy (initial_suspend);
  // this first resume kicks it off. The (slot, id) check makes the start
  // event a no-op if the root was torn down (or its slot reused) first.
  post([this, slot, id] {
    // Bounds check first: terminate_processes() may have emptied roots_
    // while this start event was still queued.
    if (slot < roots_.size() && roots_[slot].id == id &&
        roots_[slot].task.valid()) {
      roots_[slot].task.handle().resume();
    }
  });
}

bool Simulator::dispatch(Time t, std::uintptr_t payload) {
  if ((payload & kSlotTag) == 0) {
    // Coroutine fast path: nothing to look up, nothing to free.
    now_ = t;
    ++events_processed_;
    std::coroutine_handle<>::from_address(
        reinterpret_cast<void*>(payload))
        .resume();
    return true;
  }
  const auto slot = static_cast<std::uint32_t>(payload >> 1);
  TimerSlot& s = slot_ref(slot);
  if (s.cancelled) {
    release_slot(slot);
    return false;
  }
  now_ = t;
  ++events_processed_;
  // Run the callable *in place*: slot chunks never move, so the slot's
  // address survives any growth the callback triggers by scheduling new
  // work. call_and_destroy fuses invoke + teardown into one indirect
  // call; the slot is only released afterwards, so the callback cannot
  // observe its own slot reused mid-call.
  s.fn.call_and_destroy();
  release_slot(slot);
  return true;
}

bool Simulator::step() {
  for (;;) {
    const Fired f = advance(kNever);
    if (f != Fired::kSkip) return f == Fired::kEvent;
  }
}

void Simulator::run() {
  while (advance(kNever) != Fired::kNothing) {
  }
}

void Simulator::run_until(Time deadline) {
  while (advance(deadline) != Fired::kNothing) {
  }
  if (now_ < deadline) now_ = deadline;
}

Simulator::Fired Simulator::advance(Time deadline) {
  if (!finished_roots_.empty()) reap_finished_roots();
  // Set once a cancelled entry was popped: like the sleep loop, whatever
  // comes next then fires even past the deadline.
  bool forced = false;
  Time cancelled_t = 0;
  std::uint64_t cancelled_seq = 0;
  for (;;) {
    if (forced && !dropped_.empty() &&
        stop_at_dropped(cancelled_t, cancelled_seq, deadline)) {
      return Fired::kSkip;
    }
    if (!parked_.empty()) {
      // Parked pollers due before the next queue entry fire first.
      const std::size_t i = earliest_parked();
      Time qt = kNever;
      std::uint64_t qseq = 0;
      const bool queued = next_entry(qt, qseq);
      if (!queued || parked_[i].fires_before(qt, qseq)) {
        if (parked_[i].t > deadline) {
          return forced ? fire_parked(i) : Fired::kNothing;
        }
        return run_parked(qt, qseq, deadline) ? Fired::kEvent : Fired::kSkip;
      }
    }
    Time t = now_;
    std::uint64_t seq = 0;
    std::uintptr_t payload = 0;
    if (!now_queue_.empty()) {
      if (now_ > deadline && !forced) return Fired::kNothing;
      // Ring entries all sit at now_; the heap can still hold an earlier
      // (t == now_, smaller seq) entry scheduled before time advanced
      // here (or reserved before it), which must fire first to keep
      // global (t, seq) order.
      const NowEntry& n = now_queue_.front();
      if (!pending_empty() && pending_front().t == now_ &&
          pending_front().seq < n.seq) {
        const HeapEntry e = pending_pop();
        seq = e.seq;
        payload = e.payload;
      } else {
        seq = n.seq;
        payload = n.payload;
        (void)now_queue_.pop();
      }
    } else if (!pending_empty()) {
      if (pending_front().t > deadline && !forced) return Fired::kNothing;
      const HeapEntry e = pending_pop();
      // Virtual time is monotonic: the heap orders by (t, seq) and
      // schedule_at clamps to now, so a popped entry in the past means
      // the heap property was violated.
      RUBIN_AUDIT_ASSERT("sim", e.t >= now_,
                         "event popped out of order (time went backwards)");
      t = e.t;
      seq = e.seq;
      payload = e.payload;
    } else {
      return Fired::kNothing;
    }
    if (dispatch(t, payload)) return Fired::kEvent;
    forced = true;  // cancelled entry: skipped without counting
    cancelled_t = t;
    cancelled_seq = seq;
  }
}

bool Simulator::stop_at_dropped(Time ct, std::uint64_t cseq, Time deadline) {
  Time nt = kNever;
  std::uint64_t nseq = std::numeric_limits<std::uint64_t>::max();
  (void)next_entry(nt, nseq);
  if (!parked_.empty()) {
    const Parked& p = parked_[earliest_parked()];
    if (p.fires_before(nt, nseq)) {
      nt = p.t;
      nseq = p.seq;
    }
  }
  // Due anyway: the dropped no-op would have fired first and changed
  // nothing.
  if (nt <= deadline) return false;
  bool found = false;
  for (const DroppedTimeouts* d : dropped_) {
    Time dt = 0;
    std::uint64_t dseq = 0;
    if (d->first_after(ct, cseq, dt, dseq) &&
        (dt != nt ? dt < nt : dseq < nseq)) {
      nt = dt;
      nseq = dseq;
      found = true;
    }
  }
  // The earliest one is where the pass-through would have ended.
  if (found && nt > now_) now_ = nt;
  return found;
}

bool Simulator::next_entry(Time& t, std::uint64_t& seq) const noexcept {
  if (!now_queue_.empty()) {
    t = now_;
    seq = now_queue_.front().seq;
    if (!pending_empty() && pending_front().t == now_ &&
        pending_front().seq < seq) {
      seq = pending_front().seq;
    }
    return true;
  }
  if (pending_empty()) return false;
  t = pending_front().t;
  seq = pending_front().seq;
  return true;
}

void Simulator::park(Parked p) {
  RUBIN_COUNT("sim.schedule.resume", 1);  // it stands in for one sleep
  p.t = now_ + p.steps.after(p.steps.count() - 1);
  p.seq = next_seq_++;
  p.phase = 0;
  parked_.push_back(p);
}

std::size_t Simulator::earliest_parked() const noexcept {
  std::size_t best = 0;
  for (std::size_t i = 1; i < parked_.size(); ++i) {
    if (parked_[i].fires_before(parked_[best].t, parked_[best].seq)) {
      best = i;
    }
  }
  return best;
}

void Simulator::skip_instant(Parked& p) {
  // The sleep this phase would have taken: the seq it would have had,
  // and the instant it would have woken at.
  p.t += p.steps.after(p.phase);
  p.seq = next_seq_++;
  p.phase = p.phase + 1 == p.steps.count() ? 0 : p.phase + 1;
}

void Simulator::wake(std::size_t i) {
  Parked& p = parked_[i];
  *p.wake_phase = p.phase;
  const std::coroutine_handle<> h = p.h;
  parked_[i] = parked_.back();
  parked_.pop_back();
  ++events_processed_;
  h.resume();
}

Simulator::Fired Simulator::fire_parked(std::size_t i) {
  Parked& p = parked_[i];
  now_ = p.t;
  if (!p.idle(p.ctx, p.phase)) {
    wake(i);
    return Fired::kEvent;
  }
  RUBIN_COUNT("sim.idle.skipped", 1);
  skip_instant(p);
  return Fired::kSkip;
}

bool Simulator::run_parked(Time qt, std::uint64_t qseq, Time deadline) {
  // Nothing runs before the next queue entry (qt, qseq), so the state the
  // idle tests read cannot change inside this stretch: each poller's test
  // is evaluated once per phase, then trusted.
  for (Parked& p : parked_) p.known_idle = 0;
  std::uint64_t skipped = 0;
  for (;;) {
    const std::size_t i = earliest_parked();
    Parked& p = parked_[i];
    if (!p.fires_before(qt, qseq) || p.t > deadline) break;
    RUBIN_AUDIT_ASSERT("sim", p.t >= now_,
                       "parked poller due in the past (time went backwards)");
    now_ = p.t;
    const std::uint32_t bit = 1U << p.phase;
    if ((p.known_idle & bit) == 0) {
      if (!p.idle(p.ctx, p.phase)) {
        RUBIN_COUNT("sim.idle.skipped", skipped);
        wake(i);
        return true;
      }
      p.known_idle |= bit;
    }
    ++skipped;
    skip_instant(p);
  }
  RUBIN_COUNT("sim.idle.skipped", skipped);
  return false;
}

void Simulator::root_finished(std::uint32_t slot, std::uint64_t id) noexcept {
  RUBIN_AUDIT_ASSERT("sim", live_roots_ > 0,
                     "root task finished with no live roots (double "
                     "completion or unbalanced accounting)");
  RUBIN_AUDIT_ASSERT("sim", slot < roots_.size() && roots_[slot].id == id,
                     "finishing root does not own its slot");
  if (live_roots_ > 0) --live_roots_;
  // Called from inside the finishing driver's own frame: the erase (and
  // frame destruction) must wait until it has parked at final_suspend.
  finished_roots_.push_back(slot);
}

void Simulator::reap_finished_roots() {
  for (const std::uint32_t slot : finished_roots_) {
    roots_[slot].task = Task<>();  // destroys the parked driver frame
    roots_[slot].id = RootSlot::kNoRoot;
    free_root_slots_.push_back(slot);
  }
  finished_roots_.clear();
}

bool Simulator::validate_heap() const {
  // 4-ary heap property: every entry fires no earlier than its parent.
  for (std::size_t i = 1; i < heap_.size(); ++i) {
    if (heap_[i].fires_before(heap_[(i - 1) / 4])) return false;
  }
  std::unordered_set<std::uint64_t> seen_seq;
  std::unordered_set<std::uintptr_t> seen_slot;
  seen_seq.reserve(heap_.size() + now_queue_.size());
  const std::unordered_set<std::uint32_t> free_set(free_slots_.begin(),
                                                   free_slots_.end());
  const auto entry_ok = [&](Time t, std::uint64_t seq,
                            std::uintptr_t payload) {
    if (t < now_) return false;
    if (seq >= next_seq_) return false;
    if (!seen_seq.insert(seq).second) return false;  // duplicate seq
    if ((payload & kSlotTag) != 0) {
      const auto slot = static_cast<std::uint32_t>(payload >> 1);
      if (slot >= slot_count_) return false;          // dangling slot
      if (free_set.contains(slot)) return false;      // freed while queued
      if (!seen_slot.insert(payload).second) return false;  // double-queued
    }
    return true;
  };
  for (const HeapEntry& e : heap_) {
    if (!entry_ok(e.t, e.seq, e.payload)) return false;
  }
  // The sorted run must be non-decreasing in firing order (its invariant)
  // and its consumed prefix [0, run_head_) is dead — skip it.
  for (std::size_t i = run_head_; i < sorted_run_.size(); ++i) {
    const HeapEntry& e = sorted_run_[i];
    if (!entry_ok(e.t, e.seq, e.payload)) return false;
    if (i + 1 < sorted_run_.size() &&
        sorted_run_[i + 1].fires_before(e)) {
      return false;
    }
  }
  for (const Parked& p : parked_) {
    if (p.t < now_ || p.seq >= next_seq_) return false;
    if (!seen_seq.insert(p.seq).second) return false;  // duplicate seq
    if (p.phase >= p.steps.count()) return false;
  }
  std::uint64_t prev_seq = 0;
  bool first = true;
  for (const NowEntry& n : now_queue_) {
    // Ring entries all fire at now_ and must be in strict FIFO seq order.
    if (!entry_ok(now_, n.seq, n.payload)) return false;
    if (!first && n.seq <= prev_seq) return false;
    prev_seq = n.seq;
    first = false;
  }
  return true;
}

}  // namespace rubin::sim
