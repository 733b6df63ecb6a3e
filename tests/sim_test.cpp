// Unit tests for the coroutine discrete-event simulator: clock behaviour,
// event ordering, task composition, Event and Mailbox primitives, and the
// sim.* counters that show which queue each event took.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/counters.hpp"
#include "common/rng.hpp"
#include "sim/event.hpp"
#include "sim/mailbox.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

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
  counters::reset();
  Simulator sim;
  for (int i = 0; i < 8; ++i) {
    sim.spawn([](Simulator& s) -> Task<> {
      co_await s.sleep(1);
    }(sim));
    sim.run();
  }
  EXPECT_GE(counters::value("sim.frame_pool.fresh"), 1u);
  EXPECT_GE(counters::value("sim.frame_pool.reuse"), 7u);
}
#endif

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
