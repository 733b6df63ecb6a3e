// FaultLab tests: the checker's safety/liveness verdicts in isolation,
// full Lab scenario runs on both transport backends, and the fabric
// fault counters' common/stats plumbing.
#include <gtest/gtest.h>

#include "common/audit.hpp"
#include "common/stats.hpp"
#include "faultlab/corpus.hpp"
#include "faultlab/lab.hpp"

namespace rubin::faultlab {
namespace {

reptor::PrePrepare make_pp(std::uint64_t seq, reptor::NodeId client,
                           std::uint64_t id, const std::string& op) {
  reptor::PrePrepare pp;
  pp.seq = seq;
  pp.batch.push_back(reptor::Request{client, id, to_bytes(op), false});
  pp.digest = reptor::batch_digest(pp.batch);
  return pp;
}

// ------------------------------------------------------ checker units --

TEST(Checker, AgreeingCommitsAreSafe) {
  Checker c({true, true, true, true});
  c.expect_request(4, 1, to_bytes("add:1"));
  const auto pp = make_pp(1, 4, 1, "add:1");
  for (reptor::NodeId r = 0; r < 4; ++r) c.on_commit(r, 1, pp);
  c.on_completion(sim::microseconds(50));
  const Verdict v = c.finish(1, sim::milliseconds(1));
  EXPECT_TRUE(v.safe);
  EXPECT_TRUE(v.no_forgery);
  EXPECT_TRUE(v.live);
  EXPECT_TRUE(v.all_completed);
  EXPECT_TRUE(v.detail.empty());
  EXPECT_NE(v.commit_digest, 0u);
}

TEST(Checker, DivergentCommitsViolateSafety) {
  Checker c({true, true, true, true});
  c.expect_request(4, 1, to_bytes("add:1"));
  c.expect_request(4, 2, to_bytes("add:2"));
  c.on_commit(0, 1, make_pp(1, 4, 1, "add:1"));
  c.on_commit(1, 1, make_pp(1, 4, 2, "add:2"));  // same seq, different value
  EXPECT_EQ(c.divergences(), 1u);
  const Verdict v = c.finish(0, sim::milliseconds(1));
  EXPECT_FALSE(v.safe);
  EXPECT_FALSE(v.detail.empty());
  EXPECT_FALSE(v.accept(false));  // safety violations fail even when
                                  // liveness is not expected
}

TEST(Checker, ByzantineReplicasCommitLogsAreIgnored) {
  // Replica 3 is adversarial: whatever it claims to commit must not
  // count as a safety divergence among the *correct* replicas.
  Checker c({true, true, true, false});
  c.expect_request(4, 1, to_bytes("add:1"));
  const auto pp = make_pp(1, 4, 1, "add:1");
  for (reptor::NodeId r = 0; r < 3; ++r) c.on_commit(r, 1, pp);
  c.on_commit(3, 1, make_pp(1, 4, 9, "add:9"));  // the liar
  EXPECT_EQ(c.divergences(), 0u);
  EXPECT_TRUE(c.finish(0, sim::milliseconds(1)).safe);
}

TEST(Checker, UnissuedRequestIsAForgery) {
  Checker c({true, true, true, true});
  c.expect_request(4, 1, to_bytes("add:1"));
  // Same (client, id) but different bytes: a corrupted frame that
  // somehow reached execution.
  c.on_commit(0, 1, make_pp(1, 4, 1, "add:666"));
  EXPECT_EQ(c.forgeries(), 1u);
  const Verdict v = c.finish(0, sim::milliseconds(1));
  EXPECT_FALSE(v.no_forgery);
  EXPECT_FALSE(v.accept(false));
}

TEST(Checker, RecoveryClockBoundsLiveness) {
  // Completions before the fault don't count; the clock restart at 10ms
  // makes the *next* completion the recovery measurement.
  {
    Checker c({true, true, true, true});
    c.on_completion(sim::milliseconds(1));
    c.restart_recovery_clock(sim::milliseconds(10));
    c.on_completion(sim::milliseconds(12));
    const Verdict v = c.finish(2, sim::milliseconds(5));
    EXPECT_TRUE(v.live);
    EXPECT_EQ(v.recovery, sim::milliseconds(2));
  }
  {
    Checker c({true, true, true, true});
    c.on_completion(sim::milliseconds(1));
    c.restart_recovery_clock(sim::milliseconds(10));
    c.on_completion(sim::milliseconds(40));  // past the 5ms bound
    const Verdict v = c.finish(2, sim::milliseconds(5));
    EXPECT_FALSE(v.live);
    EXPECT_TRUE(v.safe);  // slow is not unsafe
  }
}

TEST(Checker, IncompleteRunIsNotLive) {
  Checker c({true, true, true, true});
  c.on_completion(sim::milliseconds(1));
  const Verdict v = c.finish(5, sim::seconds(1));
  EXPECT_FALSE(v.all_completed);
  EXPECT_FALSE(v.live);
}

// ------------------------------------------------------ scenario runs --

TEST(Lab, CrashPrimaryScenarioPasses) {
  auto s = find_scenario("f1-crash-primary");
  ASSERT_TRUE(s.has_value());
  Lab lab(std::move(*s));
  const Report r = lab.run();
  EXPECT_TRUE(r.passed()) << r.verdict.detail;
  EXPECT_EQ(r.completions, r.expected_completions);
  EXPECT_GE(r.final_view, 1u);  // the crash forced a view change
  EXPECT_GE(r.verdict.recovery, 0);
}

TEST(Lab, CleanScenarioRunsOnNioBackend) {
  auto s = find_scenario("f1-clean");
  ASSERT_TRUE(s.has_value());
  s->requests = 10;  // keep the TCP backend quick
  Lab lab(std::move(*s), reptor::Backend::kNio);
  const Report r = lab.run();
  EXPECT_TRUE(r.passed()) << r.verdict.detail;
  EXPECT_EQ(r.completions, r.expected_completions);
  EXPECT_EQ(r.frames_dropped + r.frames_corrupted, 0u);
}

TEST(Lab, ByzantinePrimaryScenarioPasses) {
  auto s = find_scenario("f1-byz-equivocating-primary");
  ASSERT_TRUE(s.has_value());
  Lab lab(std::move(*s));
  const Report r = lab.run();
  EXPECT_TRUE(r.passed()) << r.verdict.detail;
  EXPECT_GE(r.final_view, 1u);  // the equivocator was voted out
}

TEST(Lab, AsymmetricPartitionScenariosPass) {
  // One-way fabric blocks: the blocked replica still *hears* everything,
  // so unlike a crash or full partition it keeps a consistent log the
  // whole time — the checker proves it never diverges.
  for (const char* name : {"f1-asym-deaf-group", "f1-asym-mute-votes"}) {
    auto s = find_scenario(name);
    ASSERT_TRUE(s.has_value()) << name;
    Lab lab(std::move(*s));
    const Report r = lab.run();
    EXPECT_TRUE(r.passed()) << name << ": " << r.verdict.detail;
    EXPECT_EQ(r.completions, r.expected_completions) << name;
    // Blocked directed frames are accounted as drops.
    EXPECT_GT(r.frames_dropped, 0u) << name;
  }
}

TEST(Lab, DeafPrimaryForcesAViewChange) {
  auto s = find_scenario("f1-asym-deaf-group");
  ASSERT_TRUE(s.has_value());
  Lab lab(std::move(*s));
  const Report r = lab.run();
  EXPECT_TRUE(r.passed()) << r.verdict.detail;
  // Nobody hears the primary: the backups must have voted in a new one.
  EXPECT_GE(r.final_view, 1u);
}

TEST(Lab, FuzzComboDrawIsDeterministicAndPasses) {
  // The fuzz schedule is a fixed list of drawn faults in corpus.fault:
  // the run must hold safety with zero forgeries.
  auto s = find_scenario("f1-fuzz-combo");
  ASSERT_TRUE(s.has_value());
  Lab lab(std::move(*s));
  const Report r = lab.run();
  EXPECT_TRUE(r.passed()) << r.verdict.detail;
  EXPECT_TRUE(r.verdict.safe);
  EXPECT_TRUE(r.verdict.no_forgery);
  EXPECT_EQ(r.completions, r.expected_completions);
}

TEST(Lab, OneSidedAbuseScenariosHoldSafetyAndLiveness) {
  // The full fast-path-abuse family (DESIGN.md §12): forged, torn, and
  // replayed ring writes plus the clean control. Every scenario must
  // commit all requests with zero divergence — the message path is the
  // unconditional fallback whatever the primary does to the rings.
  for (const char* name :
       {"f1-onesided-clean", "f1-onesided-forge", "f1-onesided-torn",
        "f1-onesided-replay"}) {
    auto s = find_scenario(name);
    ASSERT_TRUE(s.has_value()) << name;
    EXPECT_TRUE(s->one_sided) << name;
    Lab lab(std::move(*s));
    const Report r = lab.run();
    EXPECT_TRUE(r.passed()) << name << ": " << r.verdict.detail;
    EXPECT_EQ(r.completions, r.expected_completions) << name;
    EXPECT_TRUE(r.verdict.no_forgery) << name;
  }
}

TEST(Lab, StaleRkeyProberIsDeposedAndPowerless) {
  // The permission-flip scenario: the primary's cached view-0 grants are
  // revoked by the view change, so its post-deposition ring writes can
  // only NAK. The group must rotate and commit the whole load.
  auto s = find_scenario("f1-onesided-stale-rkey");
  ASSERT_TRUE(s.has_value());
  Lab lab(std::move(*s));
  const Report r = lab.run();
  EXPECT_TRUE(r.passed()) << r.verdict.detail;
  EXPECT_EQ(r.completions, r.expected_completions);
  EXPECT_GE(r.final_view, 1u);  // the silent writer was voted out
  // The deposed primary's stale-grant probes all bounced.
  EXPECT_GE(lab.harness().decision_log(0)->stats().write_naks, 1u);
}

TEST(Lab, OneSidedFlagIsIgnoredOnNioBackend) {
  // one_sided is a RUBIN-transport concept; a kNio Lab must run the same
  // scenario untouched rather than assert on a missing ring substrate.
  auto s = find_scenario("f1-onesided-clean");
  ASSERT_TRUE(s.has_value());
  s->requests = 10;  // keep the TCP backend quick
  Lab lab(std::move(*s), reptor::Backend::kNio);
  const Report r = lab.run();
  EXPECT_TRUE(r.passed()) << r.verdict.detail;
  EXPECT_EQ(r.completions, r.expected_completions);
}

// ------------------------------------- Byzantine clients & new axes --

TEST(Checker, ByzantineClientRequestsAreExemptFromForgeryRule) {
  // Host 5 is a declared rogue client: whatever it gets committed under
  // its own identity is "genuinely issued" by definition. Host 4 stays
  // honest, so its unissued bytes still count as forgeries.
  Checker c({true, true, true, true}, /*byzantine_clients=*/{5});
  c.on_commit(0, 1, make_pp(1, 5, 1, "junk"));  // rogue's own junk: fine
  EXPECT_EQ(c.forgeries(), 0u);
  c.on_commit(0, 2, make_pp(2, 4, 1, "junk"));  // honest client forged
  EXPECT_EQ(c.forgeries(), 1u);
}

TEST(Lab, ByzantineClientForgerDiesAtTheMacLayer) {
  // Client 1 pairs every genuine REQUEST with a wrong-MAC copy and an
  // impersonation of another identity. All of it must bounce off the
  // replicas' MAC check (auth_failures > 0) and none of it may commit
  // as an honest client's bytes (no_forgery).
  auto s = find_scenario("f1-byz-client-forger");
  ASSERT_TRUE(s.has_value());
  Lab lab(std::move(*s));
  const Report r = lab.run();
  EXPECT_TRUE(r.passed()) << r.verdict.detail;
  EXPECT_EQ(r.completions, r.expected_completions);
  EXPECT_TRUE(r.verdict.no_forgery);
  std::uint64_t auth_failures = 0;
  for (reptor::NodeId rep = 0; rep < 4; ++rep) {
    auth_failures += lab.replica(rep).stats().auth_failures;
  }
  EXPECT_GT(auth_failures, 0u) << "no forged frame reached a MAC check";
}

TEST(Lab, ByzantineClientReplayerCannotDoubleExecute) {
  // Client 1 duplicates every send and replays stale recorded frames;
  // request dedup and reply caching must absorb all of it — the honest
  // client's 25 and the rogue's 25 complete exactly once each.
  auto s = find_scenario("f1-byz-client-replayer");
  ASSERT_TRUE(s.has_value());
  Lab lab(std::move(*s));
  const Report r = lab.run();
  EXPECT_TRUE(r.passed()) << r.verdict.detail;
  EXPECT_EQ(r.completions, r.expected_completions);
  EXPECT_TRUE(r.verdict.safe);
}

TEST(Lab, SlowButCorrectPrimaryIsNotDeposed) {
  // 2ms of extra delay on every primary link: commits lag but stay well
  // inside the 10ms watchdog budget. final_view == 0 pins the
  // false-positive side of failure detection — a view change here is a
  // watchdog tuning regression, not a liveness save.
  auto s = find_scenario("f1-slow-primary");
  ASSERT_TRUE(s.has_value());
  Lab lab(std::move(*s));
  const Report r = lab.run();
  EXPECT_TRUE(r.passed()) << r.verdict.detail;
  EXPECT_EQ(r.completions, r.expected_completions);
  EXPECT_EQ(r.final_view, 0u) << "watchdog deposed a slow-but-correct primary";
}

TEST(Lab, MidRunStrategyInstallTurnsAReplica) {
  // Replica 2 runs honest until t=6ms, then a set_strategy() action
  // mutes it mid-run. The remaining 2f+1 must finish without a view
  // change (the primary is honest throughout).
  auto s = find_scenario("f1-midrun-turncoat");
  ASSERT_TRUE(s.has_value());
  Lab lab(std::move(*s));
  const Report r = lab.run();
  EXPECT_TRUE(r.passed()) << r.verdict.detail;
  EXPECT_EQ(r.completions, r.expected_completions);
  EXPECT_EQ(r.final_view, 0u);
}

// ------------------------------------------- fault counters via stats --

TEST(Lab, FabricFaultCountersFlowThroughStats) {
  // The Report's counters are per-run deltas read from the fabric; the
  // same events also feed the process-wide common/stats counters. After
  // a reset the two views must agree exactly.
  stats::reset_counters();
  auto s = find_scenario("f1-lossy-fabric");
  ASSERT_TRUE(s.has_value());
  Lab lab(std::move(*s));
  const Report r = lab.run();
  EXPECT_TRUE(r.passed()) << r.verdict.detail;
  EXPECT_GT(r.frames_dropped, 0u) << "lossy scenario injected no drops";
  EXPECT_EQ(stats::counter_value("fabric.frames_dropped"), r.frames_dropped);
  EXPECT_EQ(stats::counter_value("fabric.frames_corrupted"),
            r.frames_corrupted);
  EXPECT_EQ(stats::counter_value("fabric.frames_duplicated"),
            r.frames_duplicated);
  EXPECT_EQ(stats::counter_value("fabric.frames_reordered"),
            r.frames_reordered);
}

TEST(Lab, DuplicateFloodTripsVerbsDedupCounter) {
  // 25% frame duplication: the ghosts must die in the verbs PSN dedup,
  // and the audit counter proves that layer (not just PBFT request
  // dedup) is what absorbed them.
  if (!audit::enabled()) GTEST_SKIP() << "audit counters compiled out";
  audit::reset_counters();
  auto s = find_scenario("f1-duplicate-flood");
  ASSERT_TRUE(s.has_value());
  Lab lab(std::move(*s));
  const Report r = lab.run();
  EXPECT_TRUE(r.passed()) << r.verdict.detail;
  EXPECT_GT(r.frames_duplicated, 0u) << "flood scenario injected no dupes";
  EXPECT_GT(audit::counter_value("verbs.duplicate_discarded"), 0u);
}

TEST(Lab, QpErrorFlushTripsCompletionErrorCounter) {
  // Backup 3's QPs all transition to error at t=6ms: every in-flight WR
  // flushes with an error completion, which the channel layer must count
  // before tearing down and redialing.
  if (!audit::enabled()) GTEST_SKIP() << "audit counters compiled out";
  audit::reset_counters();
  auto s = find_scenario("f1-qp-error-backup");
  ASSERT_TRUE(s.has_value());
  Lab lab(std::move(*s));
  const Report r = lab.run();
  EXPECT_TRUE(r.passed()) << r.verdict.detail;
  EXPECT_GT(audit::counter_value("channel.completion_errors"), 0u);
}

TEST(Lab, CorruptedFramesNeverBecomeForgeries) {
  // 5% of frames are bit-flipped in flight; MACs must keep every one of
  // them away from execution (checker: no_forgery).
  stats::reset_counters();
  auto s = find_scenario("f1-corrupt-frames");
  ASSERT_TRUE(s.has_value());
  Lab lab(std::move(*s));
  const Report r = lab.run();
  EXPECT_GT(r.frames_corrupted, 0u);
  EXPECT_TRUE(r.verdict.no_forgery);
  EXPECT_TRUE(r.verdict.safe);
}

}  // namespace
}  // namespace rubin::faultlab
