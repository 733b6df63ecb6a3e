// Integration tests for the one-sided fast-path commit (DESIGN.md §12):
// the primary RDMA-writes decision records into per-replica rings, the
// replicas endorse via ack cells, and 2f + 1 endorsements commit —
// while the ordinary message path keeps running underneath as the
// unconditional fallback. RUBIN backend only (the fast path needs rings).
#include <gtest/gtest.h>

#include "common/codec.hpp"
#include "common/counters.hpp"
#include "reptor/byzantine.hpp"
#include "workloads/bft_harness.hpp"

namespace rubin::reptor {
namespace {

using sim::Task;

class FastPathTest : public ::testing::Test {
 protected:
  static ReplicaConfig fast_cfg() {
    ReplicaConfig cfg;
    cfg.batch_timeout = sim::microseconds(50);
    cfg.checkpoint_interval = 4;
    cfg.view_change_timeout = sim::milliseconds(5);
    return cfg;
  }

  static void run_client(BftHarness& h, Client& client, int count,
                         std::vector<std::uint64_t>& results,
                         std::uint64_t add = 5) {
    h.sim().spawn([](Client& c, int count, std::uint64_t add,
                     std::vector<std::uint64_t>& out) -> Task<> {
      co_await c.start();
      for (int i = 0; i < count; ++i) {
        const Bytes result =
            co_await c.invoke(to_bytes("add:" + std::to_string(add)));
        Decoder d(result);
        out.push_back(d.get_u64().value_or(0));
      }
    }(client, count, add, results));
  }

  static void expect_no_divergence(BftHarness& h, std::uint64_t executed,
                                   std::uint64_t value) {
    for (NodeId r = 0; r < h.n_replicas(); ++r) {
      EXPECT_EQ(h.replica(r).stats().requests_executed, executed)
          << "replica " << r;
      EXPECT_EQ(dynamic_cast<const CounterApp&>(h.replica(r).app()).value(),
                value)
          << "replica " << r;
    }
  }
};

TEST_F(FastPathTest, FaultFreeCommitsRideTheFastPath) {
  BftHarness h(Backend::kRubin, 4, 1);
  h.enable_decision_log();
  h.add_replicas({}, fast_cfg());
  auto& client = h.add_client(4);
  counters::reset();
  std::vector<std::uint64_t> results;
  run_client(h, client, 10, results);
  h.sim().run_until(sim::seconds(2));

  ASSERT_EQ(results.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)], 5u * (i + 1));
  }
  expect_no_divergence(h, 10, 50);
  // Every backup committed at least some batches via 2f + 1 endorsements
  // (the message path may still win the occasional race; it never *has*
  // to carry a batch in a fault-free run).
  std::uint64_t fast_total = 0;
  for (NodeId r = 0; r < 4; ++r) {
    EXPECT_EQ(h.replica(r).view(), 0u);
    fast_total += h.replica(r).stats().fast_commits;
    if (r != 0) {
      EXPECT_GT(h.replica(r).stats().fast_commits, 0u)
          << "backup " << r << " never fast-committed";
    }
  }
  EXPECT_GT(fast_total, 0u);
  EXPECT_GT(counters::value("decision_log.accept"), 0u);
  EXPECT_GT(counters::value("decision_log.fast_commit"), 0u);
  EXPECT_EQ(counters::value("decision_log.reject"), 0u);
  EXPECT_EQ(counters::value("decision_log.fallback"), 0u);
}

TEST_F(FastPathTest, MixedSizesKeepCommittingFastPastManyRingLaps) {
  // Fault-free, mixed op sizes, and far more sequences than the ring has
  // slots: every lap reuses each slot only on the credit of the last
  // one, and every follower QP carries nothing but unsignaled-by-default
  // ack writes. Both must keep flowing — the fast path may not go quiet
  // once the ack queues would have filled (96 acks per QP).
  constexpr int kClients = 2;
  constexpr int kOps = 150;
  BftHarness h(Backend::kRubin, 4, kClients);
  h.enable_decision_log();
  h.add_replicas({}, fast_cfg());
  std::vector<std::vector<std::uint64_t>> results(kClients);
  for (int c = 0; c < kClients; ++c) {
    h.sim().spawn([](Client& cl, std::vector<std::uint64_t>& out) -> Task<> {
      co_await cl.start();
      // Two closed-loop clients batch at most two ops: any pair fits a
      // slot, so every batch may ride the ring.
      constexpr std::size_t kSizes[] = {128, 1024, 3072};
      for (int i = 0; i < kOps; ++i) {
        std::string op = "add:1 " + std::to_string(i);
        op.resize(kSizes[i % 3], 'x');
        const Bytes result = co_await cl.invoke(to_bytes(op));
        Decoder d(result);
        out.push_back(d.get_u64().value_or(0));
      }
    }(h.add_client(4 + static_cast<NodeId>(c)), results[c]));
  }
  counters::reset();
  h.sim().run_until(sim::milliseconds(200));

  for (const auto& r : results) ASSERT_EQ(r.size(), std::size_t{kOps});
  expect_no_divergence(h, kClients * kOps, kClients * kOps);
  const std::uint64_t laps = 4 * nio::DecisionLogConfig{}.slot_count;
  for (NodeId r = 1; r < 4; ++r) {
    const ReplicaStats& st = h.replica(r).stats();
    EXPECT_GT(st.batches_committed, laps) << "replica " << r;
    EXPECT_GE(10 * st.fast_commits, 9 * st.batches_committed)
        << "replica " << r << " fast-committed " << st.fast_commits << " of "
        << st.batches_committed;
    EXPECT_EQ(h.decision_log(r)->stats().cell_post_failures, 0u);
  }
  EXPECT_EQ(h.decision_log(0)->stats().bypasses, 0u);
  EXPECT_EQ(counters::value("decision_log.fallback"), 0u);
}

TEST_F(FastPathTest, FastCommittedRepliesLeaveWithoutWaitingForTraffic) {
  // A batch the decision-log poller commits executes on the poller, so
  // its REPLYs are queued while the dispatcher is parked in its select.
  // The transport's wake rule sends them at once; before it, they sat
  // until the next inbound frame woke the dispatcher, and this run's mean
  // write latency was 117.5 µs (106.9 µs with the rule).
  constexpr int kClients = 4;
  constexpr int kOps = 160;
  BftHarness h(Backend::kRubin, 4, kClients);
  h.enable_decision_log();
  h.add_replicas({}, fast_cfg());
  sim::Time total = 0;
  int done = 0;
  for (int c = 0; c < kClients; ++c) {
    h.sim().spawn([](sim::Simulator& s, Client& cl, sim::Time& total,
                     int& done) -> Task<> {
      co_await cl.start();
      for (int i = 0; i < kOps; ++i) {
        std::string op = "add:1 " + std::to_string(i);
        op.resize(1024, 'x');
        const sim::Time t0 = s.now();
        (void)co_await cl.invoke(to_bytes(op));
        total += s.now() - t0;
        ++done;
      }
    }(h.sim(), h.add_client(4 + static_cast<NodeId>(c)), total, done));
  }
  h.sim().run_until(sim::milliseconds(400));

  ASSERT_EQ(done, kClients * kOps);
  expect_no_divergence(h, kClients * kOps, kClients * kOps);
  const std::uint64_t laps = 4 * nio::DecisionLogConfig{}.slot_count;
  for (NodeId r = 1; r < 4; ++r) {
    const ReplicaStats& st = h.replica(r).stats();
    EXPECT_GT(st.batches_committed, laps) << "replica " << r;
    EXPECT_EQ(st.fast_commits, st.batches_committed) << "replica " << r;
  }
  EXPECT_LT(total / done, sim::microseconds(112));
}

TEST_F(FastPathTest, ForgingPrimaryFallsBackWithoutDivergence) {
  // The primary writes well-framed garbage into every ring instead of
  // its authentic records. Replicas authenticate, reject at the MAC
  // layer, suspend their fast path — and the message path (which the
  // forger still serves, or the view change would remove it) commits
  // everything. No divergence, no lost requests.
  BftHarness h(Backend::kRubin, 4, 1);
  h.enable_decision_log();
  h.add_replicas({}, fast_cfg());
  h.replica(0).set_strategy(make_fastpath_abuser(FastPathAbuse::kForge));
  auto& client = h.add_client(4);
  counters::reset();
  std::vector<std::uint64_t> results;
  run_client(h, client, 8, results);
  h.sim().run_until(sim::seconds(2));

  ASSERT_EQ(results.size(), 8u);
  expect_no_divergence(h, 8, 40);
  for (NodeId r = 1; r < 4; ++r) {
    EXPECT_EQ(h.replica(r).stats().fast_commits, 0u) << "replica " << r;
  }
  EXPECT_GT(counters::value("decision_log.reject"), 0u);
  EXPECT_GT(counters::value("decision_log.fallback"), 0u);
  EXPECT_EQ(counters::value("decision_log.fast_commit"), 0u);
}

TEST_F(FastPathTest, MacCorruptingPrimaryStillPublishesAuthenticRecords) {
  // The primary garbles the MACs of its broadcasts toward even-numbered
  // peers, in place. Its ring record is the same encoded PRE-PREPARE as
  // its broadcast, so that edit must not reach the record: replica 2
  // rejects the primary's broadcasts yet fast-commits every batch from
  // its ring.
  BftHarness h(Backend::kRubin, 4, 1);
  h.enable_decision_log();
  h.add_replicas({{0, "corrupt-macs"}}, fast_cfg());
  auto& client = h.add_client(4);
  counters::reset();
  std::vector<std::uint64_t> results;
  run_client(h, client, 10, results);
  h.sim().run_until(sim::seconds(2));

  ASSERT_EQ(results.size(), 10u);
  expect_no_divergence(h, 10, 50);
  EXPECT_EQ(counters::value("decision_log.reject"), 0u);
  EXPECT_EQ(h.replica(2).stats().fast_commits, 10u);
  EXPECT_GT(h.replica(2).stats().auth_failures, 0u);
}

TEST_F(FastPathTest, TornWriterStallsFastPathButNotAgreement) {
  // Torn slots are "not arrived yet" forever: the fast path simply never
  // fires (no suspension, no rejects — a canary mismatch is
  // indistinguishable from an in-flight write) and the message path
  // commits every batch.
  BftHarness h(Backend::kRubin, 4, 1);
  h.enable_decision_log();
  h.add_replicas({}, fast_cfg());
  h.replica(0).set_strategy(make_fastpath_abuser(FastPathAbuse::kTorn));
  auto& client = h.add_client(4);
  std::vector<std::uint64_t> results;
  run_client(h, client, 8, results);
  h.sim().run_until(sim::seconds(2));

  ASSERT_EQ(results.size(), 8u);
  expect_no_divergence(h, 8, 40);
  for (NodeId r = 1; r < 4; ++r) {
    EXPECT_EQ(h.replica(r).stats().fast_commits, 0u);
  }
  // The torn slots were seen and classified, on at least one follower.
  std::uint64_t torn = 0;
  for (NodeId r = 1; r < 4; ++r) {
    torn += h.decision_log(r)->stats().torn_slots;
  }
  EXPECT_GT(torn, 0u);
}

TEST_F(FastPathTest, ReplayingPrimaryCannotDoubleDeliver) {
  // Genuine MACs, stale content, stamped over a consumed slot: the
  // poller's (seq, view) framing plus the replica's executed-watermark
  // make the replay invisible. Every request executes exactly once.
  BftHarness h(Backend::kRubin, 4, 1);
  h.enable_decision_log();
  h.add_replicas({}, fast_cfg());
  h.replica(0).set_strategy(make_fastpath_abuser(FastPathAbuse::kReplay));
  auto& client = h.add_client(4);
  std::vector<std::uint64_t> results;
  run_client(h, client, 8, results);
  h.sim().run_until(sim::seconds(2));

  ASSERT_EQ(results.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)], 5u * (i + 1));
  }
  expect_no_divergence(h, 8, 40);
}

TEST_F(FastPathTest, DeposedPrimaryKeepsWritingAndOnlyCollectsNaks) {
  // The permission-flip payoff. The kStaleRkey abuser proposes a couple
  // of batches (caching the view-0 grants through its publishes), goes
  // silent to force a view change, and then keeps writing through the
  // cached — now revoked — grant. Every probe bounces with
  // kRemoteAccessError, and the group commits everything under the new
  // primary, whose own fast path works in view 1.
  BftHarness h(Backend::kRubin, 4, 1);
  h.enable_decision_log();
  h.add_replicas({}, fast_cfg());
  h.replica(0).set_strategy(make_fastpath_abuser(FastPathAbuse::kStaleRkey));
  ClientConfig ccfg;
  ccfg.retry_timeout = sim::milliseconds(4);
  auto& client = h.add_client(4, ccfg);
  std::vector<std::uint64_t> results;
  run_client(h, client, 5, results);
  h.sim().run_until(sim::seconds(3));

  ASSERT_EQ(results.size(), 5u);
  EXPECT_EQ(results.back(), 25u);
  for (NodeId r = 1; r < 4; ++r) {
    EXPECT_GE(h.replica(r).view(), 1u) << "replica " << r;
    EXPECT_EQ(h.replica(r).stats().requests_executed, 5u);
  }
  // Rings flipped: one permission rotation per replica per view entered.
  for (NodeId r = 1; r < 4; ++r) {
    EXPECT_GE(h.decision_log(r)->stats().permission_flips, 1u);
  }
  // The deposed primary's probes all NAKed — nothing it wrote after the
  // flip was ever consumable.
  EXPECT_GE(h.decision_log(0)->stats().write_naks, 1u);
}

TEST_F(FastPathTest, ViewChangeCarriesFastEndorsementsForward) {
  // Safety across views: sequences endorsed via the fast path (possibly
  // sitting in some peer's commit quorum) survive the view change like
  // prepared ones — nothing committed in view v is lost in view v + 1.
  BftHarness h(Backend::kRubin, 4, 1);
  h.enable_decision_log();
  h.add_replicas({}, fast_cfg());
  auto& client = h.add_client(4);
  std::vector<std::uint64_t> results;
  run_client(h, client, 6, results);
  h.sim().run_until(sim::microseconds(200));
  const std::uint64_t before = h.replica(1).stats().requests_executed;
  h.replica(0).inject_crash();
  h.sim().run_until(sim::seconds(2));

  ASSERT_EQ(results.size(), 6u);
  // Replies are monotone: every result the client accepted is a counter
  // value that all live replicas agree on after the rotation.
  for (NodeId r = 1; r < 4; ++r) {
    EXPECT_EQ(h.replica(r).stats().requests_executed, 6u);
    EXPECT_EQ(dynamic_cast<const CounterApp&>(h.replica(r).app()).value(),
              30u);
    EXPECT_GE(h.replica(r).view(), 1u);
  }
  EXPECT_GE(results.size(), before);
}

TEST_F(FastPathTest, ZeroCopyReceiveFlagPlumbsThroughHarness) {
  // Deployment plumbing for the zero_copy_receive opt-in: the harness
  // flag reaches every RUBIN transport (replicas and clients), and the
  // group still agrees with it on.
  BftHarness h(Backend::kRubin, 4, 1);
  nio::ChannelConfig ccfg = h.channel_config();
  ccfg.zero_copy_receive = true;
  h.set_channel_config(ccfg);
  EXPECT_TRUE(h.channel_config().zero_copy_receive);
  h.add_replicas({}, fast_cfg());
  auto& client = h.add_client(4);
  std::vector<std::uint64_t> results;
  run_client(h, client, 6, results);
  h.sim().run_until(sim::seconds(2));
  ASSERT_EQ(results.size(), 6u);
  expect_no_divergence(h, 6, 30);
}

}  // namespace
}  // namespace rubin::reptor
