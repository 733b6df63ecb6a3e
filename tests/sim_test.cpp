// Unit tests for the coroutine discrete-event simulator: clock behaviour,
// event ordering, task composition, Event and Mailbox primitives, and the
// sim.* counters that show which queue each event took.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/counters.hpp"
#include "common/rng.hpp"
#include "sim/event.hpp"
#include "sim/mailbox.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "sim/timeout_queue.hpp"

namespace rubin::sim {
namespace {

// ------------------------------------------------------------ scheduler --

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
}

TEST(Simulator, CallbackFiresAtScheduledTime) {
  Simulator sim;
  Time fired_at = -1;
  sim.schedule_after(microseconds(5), [&] { fired_at = sim.now(); });
  sim.run();
  EXPECT_EQ(fired_at, microseconds(5));
  EXPECT_EQ(sim.now(), microseconds(5));
}

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(300, [&] { order.push_back(3); });
  sim.schedule_after(100, [&] { order.push_back(1); });
  sim.schedule_after(200, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, SameInstantFifoOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(50, [&order, i] { order.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.schedule_after(100, [&] {
    sim.schedule_after(-50, [&] { EXPECT_EQ(sim.now(), 100); });
  });
  sim.run();
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, CancelPreventsCallback) {
  Simulator sim;
  bool fired = false;
  const TimerId id = sim.schedule_after(10, [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelOneOfMany) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(1, [&] { order.push_back(1); });
  const TimerId id = sim.schedule_after(2, [&] { order.push_back(2); });
  sim.schedule_after(3, [&] { order.push_back(3); });
  sim.cancel(id);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Simulator, CancelAfterFireIsNoOpAndDoesNotGrowState) {
  // PR-2 regression: cancelling an already-fired timer used to leave a
  // tombstone in the cancelled-id set forever. With generation-checked
  // slots it must be a guaranteed no-op, and the slot pool must stay at
  // its steady-state size (bounded by *concurrently pending* timers, not
  // by total cancel-after-fire traffic).
  Simulator sim;
  std::vector<TimerId> ids;
  for (int round = 0; round < 10'000; ++round) {
    ids.push_back(sim.schedule_after(1, [] {}));
  }
  sim.run();
  const std::size_t capacity_after_burst = sim.timer_slot_capacity();
  for (const TimerId id : ids) sim.cancel(id);  // all already fired
  for (int round = 0; round < 10'000; ++round) {
    const TimerId id = sim.schedule_after(1, [] {});
    sim.run();
    sim.cancel(id);  // after fire: stale generation, O(1) no-op
  }
  EXPECT_EQ(sim.timer_slot_capacity(), capacity_after_burst);
  // A stale cancel must not touch the slot's new occupant.
  bool fired = false;
  sim.schedule_after(1, [&] { fired = true; });
  for (const TimerId id : ids) sim.cancel(id);
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_TRUE(sim.validate_heap());
}

TEST(Simulator, ValidateHeapAtCheckpoints) {
  // Drive every queue the kernel has — heap, sorted run, same-instant
  // ring — and audit the full structure between bursts.
  Simulator sim;
  Rng rng{0xc0ffee};
  std::vector<TimerId> pending;
  for (int burst = 0; burst < 50; ++burst) {
    for (int i = 0; i < 40; ++i) {
      // Mix of monotone appends (sorted run), out-of-order pushes
      // (heap) and same-instant posts (ring).
      const Time delay = static_cast<Time>(rng.next_below(500));
      pending.push_back(sim.schedule_after(delay, [] {}));
    }
    if (!pending.empty()) {
      sim.cancel(pending[pending.size() / 2]);  // some cancelled-in-place
    }
    ASSERT_TRUE(sim.validate_heap());
    sim.run_for(200);
    ASSERT_TRUE(sim.validate_heap());
  }
  sim.run();
  EXPECT_TRUE(sim.validate_heap());
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<Time> fired;
  for (Time t : {100, 200, 300, 400}) {
    sim.schedule_at(t, [&fired, &sim] { fired.push_back(sim.now()); });
  }
  sim.run_until(250);
  EXPECT_EQ(fired, (std::vector<Time>{100, 200}));
  EXPECT_EQ(sim.now(), 250);
  sim.run();
  EXPECT_EQ(fired, (std::vector<Time>{100, 200, 300, 400}));
}

TEST(Simulator, RunUntilIncludesExactDeadline) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(250, [&] { fired = true; });
  sim.run_until(250);
  EXPECT_TRUE(fired);
}

TEST(Simulator, RunUntilAdvancesClockOnEmptyQueue) {
  Simulator sim;
  sim.run_until(5000);
  EXPECT_EQ(sim.now(), 5000);
}

TEST(RunUntil, CancelledEntryLetsTheNextOneRunPastTheDeadline) {
  // A cancelled entry popped at or before the deadline hands its turn to
  // whatever comes next, even past the deadline; the clock ends there.
  Simulator sim;
  std::vector<Time> fired;
  sim.cancel(sim.schedule_at(100, [] {}));
  sim.schedule_at(300, [&] { fired.push_back(sim.now()); });
  sim.schedule_at(400, [&] { fired.push_back(sim.now()); });
  sim.run_until(200);
  EXPECT_EQ(fired, (std::vector<Time>{300}));
  EXPECT_EQ(sim.now(), 300);
  // With no cancelled entry in the way, the deadline holds.
  sim.run_until(350);
  EXPECT_EQ(fired, (std::vector<Time>{300}));
  EXPECT_EQ(sim.now(), 350);
}

TEST(Simulator, EventsProcessedCounter) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.post([] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 7u);
}

TEST(Simulator, CallbacksCanScheduleMoreWork) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) sim.schedule_after(10, [&chain] { chain(); });
  };
  sim.schedule_after(10, [&chain] { chain(); });
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), 1000);
}

// ----------------------------------------------------------- coroutines --

TEST(SimTask, SleepAdvancesVirtualTime) {
  Simulator sim;
  Time woke_at = -1;
  sim.spawn([](Simulator& s, Time& out) -> Task<> {
    co_await s.sleep(microseconds(3));
    out = s.now();
  }(sim, woke_at));
  sim.run();
  EXPECT_EQ(woke_at, microseconds(3));
  EXPECT_EQ(sim.live_roots(), 0u);
}

TEST(SimTask, NestedAwaitReturnsValue) {
  Simulator sim;
  int result = 0;

  struct Helper {
    static Task<int> add_later(Simulator& s, int a, int b) {
      co_await s.sleep(10);
      co_return a + b;
    }
    static Task<> root(Simulator& s, int& out) {
      out = co_await add_later(s, 2, 3);
    }
  };
  sim.spawn(Helper::root(sim, result));
  sim.run();
  EXPECT_EQ(result, 5);
}

TEST(SimTask, ExceptionPropagatesToAwaiter) {
  Simulator sim;
  bool caught = false;

  struct Helper {
    static Task<int> boom(Simulator& s) {
      co_await s.sleep(1);
      throw std::runtime_error("boom");
    }
    static Task<> root(Simulator& s, bool& caught) {
      try {
        (void)co_await boom(s);
      } catch (const std::runtime_error&) {
        caught = true;
      }
    }
  };
  sim.spawn(Helper::root(sim, caught));
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(SimTask, SpawnOrderIsStartOrder) {
  Simulator sim;
  std::vector<int> order;
  auto mk = [&](int id) -> Task<> {
    order.push_back(id);
    co_return;
  };
  sim.spawn(mk(1));
  sim.spawn(mk(2));
  sim.spawn(mk(3));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimTask, ManyInterleavedSleepers) {
  Simulator sim;
  std::vector<std::pair<Time, int>> wakeups;
  for (int i = 0; i < 20; ++i) {
    sim.spawn([](Simulator& s, int id, std::vector<std::pair<Time, int>>& out) -> Task<> {
      for (int k = 0; k < 5; ++k) {
        co_await s.sleep(10 * (id + 1));
        out.emplace_back(s.now(), id);
      }
    }(sim, i, wakeups));
  }
  sim.run();
  ASSERT_EQ(wakeups.size(), 100u);
  // Wakeups must be globally time-ordered.
  for (std::size_t i = 1; i < wakeups.size(); ++i) {
    EXPECT_LE(wakeups[i - 1].first, wakeups[i].first);
  }
  EXPECT_EQ(sim.live_roots(), 0u);
}

// ---------------------------------------------------------------- Event --

TEST(SimEvent, WaitCompletesAfterSet) {
  Simulator sim;
  Event ev(sim);
  Time woke_at = -1;
  sim.spawn([](Simulator& s, Event& e, Time& out) -> Task<> {
    co_await e.wait();
    out = s.now();
  }(sim, ev, woke_at));
  sim.schedule_after(500, [&] { ev.set(); });
  sim.run();
  EXPECT_EQ(woke_at, 500);
}

TEST(SimEvent, AlreadySetCompletesImmediately) {
  Simulator sim;
  Event ev(sim);
  ev.set();
  bool done = false;
  sim.spawn([](Event& e, bool& out) -> Task<> {
    co_await e.wait();
    out = true;
  }(ev, done));
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.now(), 0);
}

TEST(SimEvent, BroadcastWakesAllWaiters) {
  Simulator sim;
  Event ev(sim);
  int woken = 0;
  for (int i = 0; i < 8; ++i) {
    sim.spawn([](Event& e, int& count) -> Task<> {
      co_await e.wait();
      ++count;
    }(ev, woken));
  }
  sim.schedule_after(100, [&] { ev.set(); });
  sim.run();
  EXPECT_EQ(woken, 8);
}

TEST(SimEvent, ResetBlocksFutureWaiters) {
  Simulator sim;
  Event ev(sim);
  ev.set();
  ev.reset();
  bool done = false;
  sim.spawn([](Event& e, bool& out) -> Task<> {
    co_await e.wait();
    out = true;
  }(ev, done));
  sim.run();
  EXPECT_FALSE(done);  // never set again; waiter still parked
  EXPECT_EQ(sim.live_roots(), 1u);
  ev.set();
  sim.run();
  EXPECT_TRUE(done);
}

// -------------------------------------------------------------- Mailbox --

TEST(SimMailbox, PushThenRecv) {
  Simulator sim;
  Mailbox<int> mb(sim);
  mb.push(41);
  int got = 0;
  sim.spawn([](Mailbox<int>& m, int& out) -> Task<> {
    out = co_await m.recv();
  }(mb, got));
  sim.run();
  EXPECT_EQ(got, 41);
}

TEST(SimMailbox, RecvBlocksUntilPush) {
  Simulator sim;
  Mailbox<std::string> mb(sim);
  std::string got;
  Time when = -1;
  sim.spawn([](Simulator& s, Mailbox<std::string>& m, std::string& out, Time& t) -> Task<> {
    out = co_await m.recv();
    t = s.now();
  }(sim, mb, got, when));
  sim.schedule_after(700, [&] { mb.push("late"); });
  sim.run();
  EXPECT_EQ(got, "late");
  EXPECT_EQ(when, 700);
}

TEST(SimMailbox, PreservesFifoAcrossAwaits) {
  Simulator sim;
  Mailbox<int> mb(sim);
  std::vector<int> got;
  sim.spawn([](Mailbox<int>& m, std::vector<int>& out) -> Task<> {
    for (int i = 0; i < 5; ++i) out.push_back(co_await m.recv());
  }(mb, got));
  for (int i = 0; i < 5; ++i) {
    sim.schedule_after(10 * (i + 1), [&mb, i] { mb.push(i); });
  }
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimMailbox, TryPopNonBlocking) {
  Simulator sim;
  Mailbox<int> mb(sim);
  EXPECT_EQ(mb.try_pop(), std::nullopt);
  mb.push(9);
  EXPECT_EQ(mb.try_pop(), 9);
  EXPECT_EQ(mb.try_pop(), std::nullopt);
}

TEST(SimMailbox, BurstThenDrain) {
  Simulator sim;
  Mailbox<int> mb(sim);
  for (int i = 0; i < 100; ++i) mb.push(i);
  std::vector<int> got;
  sim.spawn([](Mailbox<int>& m, std::vector<int>& out) -> Task<> {
    for (int i = 0; i < 100; ++i) out.push_back(co_await m.recv());
  }(mb, got));
  sim.run();
  ASSERT_EQ(got.size(), 100u);
  EXPECT_EQ(got.front(), 0);
  EXPECT_EQ(got.back(), 99);
}

// ------------------------------------------------------------- counters --

TEST(SimulatorAudit, EventRoutingCountersTrackFastPaths) {
  // Each scheduling API must take its intended queue (DESIGN.md §5): the
  // coroutine fast path never builds a UniqueFunction, same-instant work
  // goes through the ring, future work through the sorted run or heap.
  counters::reset();
  Simulator sim;

  // Erased path: schedule_at/post build a slot-held UniqueFunction.
  for (int i = 0; i < 5; ++i) sim.schedule_after(100 + i, [] {});
  sim.post([] {});
  EXPECT_EQ(counters::value("sim.schedule.erased"), 6u);
  EXPECT_EQ(counters::value("sim.uf.inline"), 6u);
  EXPECT_EQ(counters::value("sim.uf.heap"), 0u);
  EXPECT_EQ(counters::value("sim.schedule.resume"), 0u);

  // Routing: the post went to the same-instant ring, the five monotone
  // future timers to the sorted run, none to the heap.
  EXPECT_EQ(counters::value("sim.enqueue.now_ring"), 1u);
  EXPECT_EQ(counters::value("sim.enqueue.run"), 5u);
  EXPECT_EQ(counters::value("sim.enqueue.heap"), 0u);

  // An out-of-order future timer is the only thing that pays the heap.
  sim.schedule_after(50, [] {});
  EXPECT_EQ(counters::value("sim.enqueue.heap"), 1u);

  // Coroutine fast path: sleep resumes via schedule_resume — no erased
  // schedule, no UniqueFunction construction.
  const auto erased_before = counters::value("sim.schedule.erased");
  const auto inline_before = counters::value("sim.uf.inline");
  sim.spawn([](Simulator& s) -> Task<> {
    co_await s.sleep(10);
    co_await s.sleep(0);  // same-instant resume: ring again
  }(sim));
  sim.run();
  EXPECT_GE(counters::value("sim.schedule.resume"), 2u);
  // spawn()'s start event is erased (+1); the sleeps must not be.
  EXPECT_EQ(counters::value("sim.schedule.erased"), erased_before + 1);
  EXPECT_EQ(counters::value("sim.uf.inline"), inline_before + 1);
  EXPECT_EQ(counters::value("sim.uf.heap"), 0u);
}

#if !defined(RUBIN_FRAME_POOL_OFF)
TEST(SimulatorAudit, FramePoolRecyclesCoroutineFrames) {
  // Identically-shaped coroutine frames must come back from the recycling
  // pool after the first: the DES hot loop's dominant allocation is the
  // Task frame, and the pool turns steady-state churn into pointer moves.
  // (Compiled out under ASan, where pooling would mask use-after-free.)
  // The pool is thread-local and outlives this test, so earlier tests in
  // the same process may have warmed it: the first spawn's blocks may be
  // fresh or reused, and only the spawns after it are pinned.
  Simulator sim;
  auto spawn_one = [&sim] {
    sim.spawn([](Simulator& s) -> Task<> {
      co_await s.sleep(1);
    }(sim));
    sim.run();
  };
  counters::reset();
  spawn_one();
  const std::uint64_t per_spawn = counters::value("sim.frame_pool.fresh") +
                                  counters::value("sim.frame_pool.reuse");
  ASSERT_GE(per_spawn, 1u);
  counters::reset();
  for (int i = 1; i < 8; ++i) spawn_one();
  EXPECT_EQ(counters::value("sim.frame_pool.fresh"), 0u);
  EXPECT_EQ(counters::value("sim.frame_pool.reuse"), 7 * per_spawn);
}
#endif

// ------------------------------------------------------------ idle_wait --

// A memory-polling world: one poller probes then waits on cell 0, one
// only waits on cell 1, while writers, ties and outside work land around
// them. `parked` picks idle_wait or the plain sleep loop it replaces; the
// two must be indistinguishable from inside the world.
constexpr Time kProbe = 30;
constexpr Time kInterval = 500;
constexpr Time kCycle = kProbe + kInterval;
constexpr Time kWait = 300;

struct PollWorld {
  Simulator sim;
  bool running = true;
  std::uint64_t cell[2] = {0, 0};
  std::vector<std::pair<Time, std::uint64_t>> trace;  // (time, tag)
  void note(std::uint64_t tag) { trace.emplace_back(sim.now(), tag); }
  void write(int c, std::uint64_t tag) {
    ++cell[c];
    note(tag);
  }
};

Task<> probing_poller(PollWorld& w, bool parked) {
  std::uint64_t seen = 0;
  std::uint32_t phase = 0;
  while (phase == 1 || w.running) {
    if (phase == 0) co_await w.sim.sleep(kProbe);
    if (w.cell[0] != seen) {
      seen = w.cell[0];
      w.note(1000 + seen);
    }
    if (parked) {
      phase = co_await w.sim.idle_wait(
          IdleSteps(kProbe, kInterval), [&w, &seen](std::uint32_t p) {
            return p == 0 ? w.running : w.cell[0] == seen;
          });
    } else {
      co_await w.sim.sleep(kInterval);
      phase = 0;
    }
  }
  w.note(1);
}

Task<> waiting_poller(PollWorld& w, bool parked) {
  std::uint64_t seen = 0;
  while (w.running) {
    if (w.cell[1] != seen) {
      seen = w.cell[1];
      w.note(2000 + seen);
    }
    if (parked) {
      (void)co_await w.sim.idle_wait(
          IdleSteps(kWait), [&w, &seen](std::uint32_t) {
            return w.running && w.cell[1] == seen;
          });
    } else {
      co_await w.sim.sleep(kWait);
    }
  }
  w.note(2);
}

// Lands writes exactly on the probing poller's post-probe instants. It
// reaches each one from the instant before the probe, where it ties with
// the poller, so either may hold the smaller seq.
Task<> grid_writer(PollWorld& w, std::uint64_t seed) {
  Rng rng(seed);
  while (w.running) {
    const Time k = w.sim.now() / kCycle + 1 + rng.next_below(4);
    co_await w.sim.sleep(k * kCycle - w.sim.now());
    co_await w.sim.sleep(kProbe);
    w.write(0, 50);
  }
}

struct PollOutcome {
  std::vector<std::pair<Time, std::uint64_t>> trace;
  Time end = 0;
  std::uint64_t events = 0;
  std::uint64_t skipped = 0;
};

PollOutcome run_poll_world(std::uint64_t seed, bool parked) {
  counters::reset();
  PollWorld w;
  Rng rng(seed);
  // Writes on exact grid instants of both pollers, queued before either
  // exists (so they hold the smaller seq at their instant).
  for (int i = 0; i < 20; ++i) {
    const auto k = static_cast<Time>(rng.next_below(200));
    w.sim.schedule_at(k * kCycle + (rng.next_below(2) ? kProbe : 0),
                      [&w] { w.write(0, 10); });
    w.sim.schedule_at(k * kWait, [&w] { w.write(1, 20); });
  }
  w.sim.spawn(probing_poller(w, parked));
  w.sim.spawn(waiting_poller(w, parked));
  w.sim.spawn(grid_writer(w, seed + 1));
  for (int round = 0; round < 60; ++round) {
    // Some deadlines sit on a cancelled timer, which run_until pops
    // before firing whatever comes next.
    const Time d = w.sim.now() + static_cast<Time>(rng.next_below(3 * kCycle));
    if (rng.next_below(3) == 0) w.sim.cancel(w.sim.schedule_at(d, [] {}));
    w.sim.run_until(d);
    EXPECT_TRUE(w.sim.validate_heap()) << "round " << round;
    // Outside work between two run_until calls: a write on the next
    // post-probe instant, one on the waiting poller's grid, and a tie at
    // the current instant.
    const Time now = w.sim.now();
    w.sim.schedule_at((now / kCycle + 1) * kCycle + kProbe,
                      [&w] { w.write(0, 30); });
    w.sim.schedule_at((now / kWait + 1) * kWait, [&w] { w.write(1, 31); });
    w.sim.post([&w] { w.note(32); });
  }
  w.sim.schedule_after(static_cast<Time>(rng.next_below(kCycle)), [&w] {
    w.running = false;
    w.note(40);
  });
  w.sim.run();
  EXPECT_TRUE(w.sim.validate_heap());
  return {w.trace, w.sim.now(), w.sim.events_processed(),
          counters::value("sim.idle.skipped")};
}

TEST(IdleWait, MatchesTheSleepLoop) {
  // A parked poller must keep every event's (t, seq): same trace, same
  // end time, and each skipped instant is exactly one event the sleep
  // loop dispatched.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const PollOutcome sleep_loop = run_poll_world(seed, false);
    const PollOutcome parked = run_poll_world(seed, true);
    EXPECT_EQ(sleep_loop.skipped, 0u);
    EXPECT_GT(parked.skipped, 100u);
    EXPECT_EQ(parked.trace, sleep_loop.trace);
    EXPECT_EQ(parked.end, sleep_loop.end);
    EXPECT_EQ(parked.events + parked.skipped, sleep_loop.events);
    // The pollers saw writes, and both exited.
    EXPECT_GT(sleep_loop.trace.size(), 100u);
  }
}

TEST(IdleWait, TerminateDropsParkedPollers) {
  Simulator sim;
  bool flag = false;
  sim.spawn([](Simulator& s, bool& f) -> Task<> {
    (void)co_await s.idle_wait(IdleSteps(10),
                               [&f](std::uint32_t) { return !f; });
    f = false;
  }(sim, flag));
  sim.run_until(1000);
  EXPECT_TRUE(sim.validate_heap());
  sim.terminate_processes();
  EXPECT_EQ(sim.live_roots(), 0u);
  flag = true;
  EXPECT_FALSE(sim.step());  // nothing left: the poller is gone
}

// ------------------------------------------------------ timeout queue --

// Timeouts of two delays over ids that only ever close. A timeout acts
// when its id is still open: it notes itself, closes its id and one more,
// and every third one starts a timeout of the other delay. Unrelated
// timers and posts close ids and start timeouts too, some of them exactly
// on a deadline. Run once with one schedule_after per timeout, once
// through TimeoutQueues; the acting firings must be the same.
struct TimeoutWorld {
  static constexpr Time kDelay[2] = {300, 700};
  Simulator sim;
  Rng rng;
  bool queued;
  std::vector<bool> open;
  std::vector<std::pair<Time, std::uint64_t>> trace;  // (time, tag)
  std::unique_ptr<TimeoutQueue<std::uint32_t>> queue[2];

  TimeoutWorld(std::uint64_t seed, bool use_queue)
      : rng(seed), queued(use_queue) {
    if (!queued) return;
    for (int k = 0; k < 2; ++k) {
      queue[k] = std::make_unique<TimeoutQueue<std::uint32_t>>(
          sim, kDelay[k], [this, k](const std::uint32_t& id) { act(k, id); },
          [this](const std::uint32_t& id) { return !open[id]; });
    }
  }
  void note(std::uint64_t tag) { trace.emplace_back(sim.now(), tag); }
  void start(int k) {
    const auto id = static_cast<std::uint32_t>(open.size());
    open.push_back(true);
    if (queued) {
      queue[k]->add(id);
    } else {
      sim.schedule_after(kDelay[k], [this, k, id] {
        if (open[id]) act(k, id);
      });
    }
  }
  void act(int k, std::uint32_t id) {
    note(id);
    open[id] = false;
    open[rng.next_below(open.size())] = false;
    if (id % 3 == 0) start(1 - k);
  }
  void unrelated(std::uint64_t tag) {
    note(1'000'000 + tag);
    if (!open.empty()) open[rng.next_below(open.size())] = false;
    if (rng.next_below(4) == 0) start(static_cast<int>(rng.next_below(2)));
    if (rng.next_below(4) == 0) sim.post([this, tag] { note(2'000'000 + tag); });
  }
};

std::vector<std::pair<Time, std::uint64_t>> run_timeout_world(
    std::uint64_t seed, bool queued) {
  TimeoutWorld w(seed, queued);
  Rng script(seed + 100);
  for (std::uint64_t round = 0; round < 80; ++round) {
    const Time now = w.sim.now();
    // Adds at one instant, with unrelated timers tied to their deadlines
    // before and after them in seq order.
    for (std::uint64_t i = script.next_below(4); i > 0; --i) {
      const int k = static_cast<int>(script.next_below(2));
      if (script.next_below(2) == 0) {
        w.sim.schedule_at(now + TimeoutWorld::kDelay[k],
                          [&w, round] { w.unrelated(round); });
      }
      w.start(k);
      if (script.next_below(2) == 0) {
        w.sim.schedule_at(now + TimeoutWorld::kDelay[k],
                          [&w, round] { w.unrelated(round + 100); });
      }
    }
    // Unrelated work anywhere in the next two long delays.
    for (std::uint64_t i = script.next_below(3); i > 0; --i) {
      w.sim.schedule_at(now + static_cast<Time>(script.next_below(1400)),
                        [&w, round] { w.unrelated(round + 200); });
    }
    w.sim.post([&w, round] { w.unrelated(round + 300); });
    const Time deadline = now + static_cast<Time>(script.next_below(500));
    // A cancelled timer due just before (or at) the deadline makes
    // run_until run whatever comes next, even past the deadline.
    if (script.next_below(2) == 0) {
      const Time before = static_cast<Time>(script.next_below(3));
      w.sim.cancel(w.sim.schedule_at(deadline - before, [] {}));
    }
    w.sim.run_until(deadline);
    EXPECT_TRUE(w.sim.validate_heap()) << "round " << round;
    w.note(3'000'000 + round);  // where the clock ended
  }
  w.sim.run();
  EXPECT_TRUE(w.sim.validate_heap());
  return w.trace;
}

TEST(TimeoutQueue, MatchesPerTimeoutTimers) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto timers = run_timeout_world(seed, false);
    const auto queued = run_timeout_world(seed, true);
    EXPECT_EQ(queued, timers);
    // Timeouts acted and were settled in every way the script allows.
    EXPECT_GT(timers.size(), 300u);
  }
}

TEST(TimeoutQueue, DyingWithItsFrontArmedIsANoOp) {
  Simulator sim;
  int acted = 0;
  {
    TimeoutQueue<int> q(
        sim, 100, [&acted](const int&) { ++acted; },
        [](const int&) { return false; });
    q.add(1);
    q.add(2);
  }
  sim.run();
  EXPECT_EQ(acted, 0);
  EXPECT_TRUE(sim.validate_heap());
}

// -------------------------------------------------- determinism digest --

// FNV-1a over a stream of 64-bit words. Any reordering, extra event, or
// virtual-time drift in the kernel changes the digest.
std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffU;
    h *= 1099511628211ULL;
  }
  return h;
}

// Fixed-seed kernel workload exercising every scheduling path: timed
// callbacks, posts at the current instant, coroutine sleeps, Mailbox
// wakeups, Event broadcast, cancellation (pending *and* already fired),
// and run_until phase boundaries. Returns a digest of every echo latency
// plus the final clock and event count.
std::uint64_t kernel_determinism_digest() {
  Simulator sim;
  Rng rng(0xD5E7C0DEULL);
  Mailbox<int> req(sim);
  Mailbox<int> rep(sim);
  Event phase(sim);
  std::vector<Time> latencies;

  // Echo server: pseudo-random service time per request.
  sim.spawn([](Simulator& s, Mailbox<int>& in, Mailbox<int>& out,
               Rng& r) -> Task<> {
    for (int i = 0; i < 200; ++i) {
      const int x = co_await in.recv();
      co_await s.sleep(static_cast<Time>(r.next_below(500)));
      out.push(x + 1);
    }
  }(sim, req, rep, rng));

  // Closed-loop client measuring echo latencies.
  sim.spawn([](Simulator& s, Mailbox<int>& out, Mailbox<int>& in, Rng& r,
               std::vector<Time>& lat, Event& go) -> Task<> {
    co_await go.wait();
    for (int i = 0; i < 200; ++i) {
      co_await s.sleep(static_cast<Time>(r.next_below(300)));
      const Time sent = s.now();
      out.push(i);
      (void)co_await in.recv();
      lat.push_back(s.now() - sent);
    }
  }(sim, req, rep, rng, latencies, phase));

  // Broadcast waiters sharing one Event (wake order must be stable).
  int woken = 0;
  for (int i = 0; i < 5; ++i) {
    sim.spawn([](Event& e, int& count) -> Task<> {
      co_await e.wait();
      ++count;
    }(phase, woken));
  }

  // Timer churn: schedule at pseudo-random times, cancel ~every third
  // pending timer, and cancel a handful of *already fired* ids per round.
  std::vector<TimerId> fired_ids;
  int timer_hits = 0;
  for (int round = 0; round < 8; ++round) {
    std::vector<TimerId> pending;
    pending.reserve(64);
    for (int i = 0; i < 64; ++i) {
      const Time t = sim.now() + static_cast<Time>(rng.next_below(2000));
      pending.push_back(sim.schedule_at(t, [&timer_hits] { ++timer_hits; }));
    }
    for (std::size_t i = 0; i < pending.size(); i += 3) sim.cancel(pending[i]);
    for (const TimerId id : fired_ids) sim.cancel(id);  // stale: must no-op
    fired_ids.assign(pending.begin() + 1, pending.begin() + 8);
    sim.run_until(sim.now() + 1500);  // leaves some timers pending
  }
  phase.set();
  sim.run();

  std::uint64_t h = 14695981039346656037ULL;
  for (const Time t : latencies) h = fnv_mix(h, static_cast<std::uint64_t>(t));
  h = fnv_mix(h, static_cast<std::uint64_t>(sim.now()));
  h = fnv_mix(h, sim.events_processed());
  h = fnv_mix(h, static_cast<std::uint64_t>(timer_hits));
  h = fnv_mix(h, static_cast<std::uint64_t>(woken));
  h = fnv_mix(h, static_cast<std::uint64_t>(latencies.size()));
  return h;
}

// Golden digest recorded from the pre-fast-path kernel (PR 1 tree). The
// same constant is asserted in every build preset — relwithdebinfo,
// asan-ubsan and release-noaudit must all produce bit-identical virtual
// time, event ordering and latencies, and the allocation-free fast paths
// must not change any of them.
TEST(SimDeterminism, KernelDigestMatchesGolden) {
  const std::uint64_t digest = kernel_determinism_digest();
  EXPECT_EQ(digest, 0x44aaa642c0a9e5f7ULL) << "digest=0x" << std::hex << digest;
}

// Two runs in one process (fresh Simulator each) must agree exactly —
// guards against any hidden global state in the kernel.
TEST(SimDeterminism, RepeatedRunsAgree) {
  EXPECT_EQ(kernel_determinism_digest(), kernel_determinism_digest());
}

}  // namespace
}  // namespace rubin::sim
