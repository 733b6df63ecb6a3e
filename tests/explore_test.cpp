// FaultLab Explorer tests (DESIGN.md §14): deterministic perturbed runs,
// schedule dedup by trace digest, the CI smoke budget's schedule yield,
// artifact round-trips, and the flagship regression drill — revert the
// reaffirm-decided fix through the test hook and demand the explorer
// finds a violating schedule, minimizes it to a handful of
// perturbations, and replays the artifact bit-identically.
#include <gtest/gtest.h>

#include "common/counters.hpp"
#include "faultlab/corpus.hpp"
#include "faultlab/explore.hpp"
#include "reptor/replica.hpp"

namespace rubin::faultlab {
namespace {

Scenario trimmed(const char* name, std::uint32_t requests) {
  auto s = find_scenario(name);
  EXPECT_TRUE(s.has_value()) << name;
  s->requests = requests;
  return std::move(*s);
}

TEST(Explore, RunScheduleIsDeterministic) {
  // The whole tool rests on this: same scenario, same perturbations,
  // bit-identical outcome.
  Explorer ex;
  const Scenario s = trimmed("f1-clean", 8);
  const std::vector<Perturbation> ps = {
      Perturbation::drop(0.02),
      Perturbation::frame_delay(40, sim::microseconds(25))};
  const ScheduleResult a = ex.run_schedule(s, ps);
  const ScheduleResult b = ex.run_schedule(s, ps);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.report.verdict.commit_digest, b.report.verdict.commit_digest);
  EXPECT_EQ(a.schedule_key, b.schedule_key);
  EXPECT_EQ(a.violation, b.violation);
}

TEST(Explore, PerturbationsBranchTheSchedule) {
  Explorer ex;
  const Scenario s = trimmed("f1-clean", 8);
  const ScheduleResult base = ex.run_schedule(s, {});
  const ScheduleResult delayed =
      ex.run_schedule(s, {Perturbation::frame_delay(10, sim::microseconds(40))});
  const ScheduleResult diced = ex.run_schedule(s, {Perturbation::drop(0.02)});
  EXPECT_NE(base.trace_digest, delayed.trace_digest);
  EXPECT_NE(base.trace_digest, diced.trace_digest);
  EXPECT_NE(delayed.trace_digest, diced.trace_digest);
  // A clean scenario under conservative perturbation must still pass.
  EXPECT_FALSE(base.violation);
  EXPECT_FALSE(delayed.violation);
  EXPECT_FALSE(diced.violation);
}

TEST(Explore, SeedPerturbationIsANoOpWithoutDice) {
  // No fault rates armed => the fault RNG is never consulted => a reseed
  // replays the identical schedule. The dedup must fold these together.
  Explorer ex;
  const Scenario s = trimmed("f1-clean", 8);
  const ScheduleResult a = ex.run_schedule(s, {});
  const ScheduleResult b = ex.run_schedule(s, {Perturbation::seed(999)});
  EXPECT_EQ(a.schedule_key, b.schedule_key);
}

TEST(Explore, ExploreDedupsAndFeedsAuditCounters) {
  counters::reset();
  ExploreOptions opts;
  opts.budget = 30;
  Explorer ex(opts);
  const ExploreReport rep = ex.explore(trimmed("f1-clean", 8));
  EXPECT_EQ(rep.runs, 30u);
  EXPECT_EQ(rep.unique_schedules + rep.dedup_hits, rep.runs);
  // f1-clean has no dice armed: every seed sweep is a dedup hit.
  EXPECT_GT(rep.dedup_hits, 0u);
  EXPECT_GT(rep.unique_schedules, 10u);
  EXPECT_EQ(rep.violations, 0u);
  EXPECT_EQ(counters::value("faultlab.explore.runs"),
            rep.runs + rep.minimization_runs);
  EXPECT_EQ(counters::value("faultlab.explore.dedup_hits"), rep.dedup_hits);
  EXPECT_EQ(counters::value("faultlab.explore.violations"), rep.violations);
}

TEST(Explore, ArtifactRoundTripsEveryPerturbationKind) {
  const Scenario s = trimmed("f1-crash-primary", 25);
  ScheduleResult r;
  r.perturbations = {
      Perturbation::seed(0xdeadbeefcafef00dULL),
      Perturbation::drop(0.015),
      Perturbation::reorder(0.25, sim::microseconds(15)),
      Perturbation::duplicate(0.1),
      Perturbation::frame_delay(123, sim::microseconds(37)),
      Perturbation::event_jitter(0, -sim::microseconds(500)),
  };
  r.trace_digest = 0x1122334455667788ULL;
  r.report.verdict.commit_digest = 0x99aabbccddeeff00ULL;
  const Artifact art = parse_artifact_text(to_artifact_text(s, r));
  EXPECT_EQ(art.scenario.name, s.name);
  EXPECT_EQ(art.trace_digest, r.trace_digest);
  EXPECT_EQ(art.commit_digest, r.report.verdict.commit_digest);
  ASSERT_EQ(art.perturbations.size(), r.perturbations.size());
  for (std::size_t i = 0; i < r.perturbations.size(); ++i) {
    EXPECT_EQ(art.perturbations[i].kind, r.perturbations[i].kind) << i;
    EXPECT_EQ(art.perturbations[i].arg, r.perturbations[i].arg) << i;
    EXPECT_EQ(art.perturbations[i].rate, r.perturbations[i].rate) << i;
    EXPECT_EQ(art.perturbations[i].t, r.perturbations[i].t) << i;
  }
}

TEST(Explore, ArtifactParserRejectsGarbage) {
  EXPECT_THROW((void)parse_artifact_text("perturb seed 1\n"),
               std::invalid_argument);  // no scenario block
  EXPECT_THROW((void)parse_artifact_text(
                   "scenario t\nend\nperturb levitate 3\n"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_artifact_text(
                   "scenario t\nend\nexpect trace zz\n"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_artifact_text(
                   "scenario t\nend\nperturb seed 12 34\n"),
               std::invalid_argument);
  // Out-of-range and malformed values: a rate above 1, a fractional
  // decision-point index, and a digest with trailing junk.
  EXPECT_THROW((void)parse_artifact_text(
                   "scenario t\nend\nperturb drop_rate 1.5\n"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_artifact_text(
                   "scenario t\nend\nperturb frame_delay 2.7 10\n"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_artifact_text(
                   "scenario t\nend\nexpect trace 12zz\n"),
               std::invalid_argument);
}

// ------------------------------------------------ the regression drill --

/// Arms the known-bad for one test: reverts PR4's reaffirm-decided fix
/// (decided seqs no longer replay their PREPARE/COMMIT quorum at
/// laggards), restoring the original on scope exit.
struct KnownBad {
  KnownBad() { reptor::test_hooks::disable_reaffirm_decided = true; }
  ~KnownBad() { reptor::test_hooks::disable_reaffirm_decided = false; }
};

TEST(Explore, HookedViolatingRunIsDeterministicAcrossRunIndices) {
  // Regression: the stall path sends big (non-inline) view-change
  // messages, which once hit an address-keyed MR cache — the
  // registration charge depended on malloc reuse, so the *second* run
  // in a process diverged from the first. Replays must not care how
  // many runs came before them.
  KnownBad armed;
  Explorer ex;
  const Scenario s = *find_scenario("f1-lossy-fabric");
  const ScheduleResult a = ex.run_schedule(s, {});
  const ScheduleResult b = ex.run_schedule(s, {});
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.report.verdict.commit_digest, b.report.verdict.commit_digest);
  EXPECT_EQ(a.schedule_key, b.schedule_key);
}

TEST(Explore, FindsMinimizesAndReplaysInjectedKnownBad) {
  KnownBad armed;
  ExploreOptions opts;
  opts.budget = 6;  // baseline + a few seed sweeps is already enough
  Explorer ex(opts);
  const Scenario s = *find_scenario("f1-lossy-fabric");
  const ExploreReport rep = ex.explore(s);

  // Found: the broken retransmission interplay starves laggards under
  // the scenario's 5% loss, and the Checker rules it a liveness
  // violation.
  ASSERT_GE(rep.violations, 1u);
  ASSERT_FALSE(rep.failures.empty());

  // Minimized: the schedule shrinks to at most 3 perturbations.
  const ScheduleResult& f = rep.failures.front();
  EXPECT_LE(f.perturbations.size(), 3u);

  // Replayed bit-identically from the artifact text.
  const std::string text = to_artifact_text(s, f);
  const Artifact art = parse_artifact_text(text);
  EXPECT_EQ(art.trace_digest, f.trace_digest);
  const ScheduleResult again = ex.run_schedule(art.scenario,
                                               art.perturbations);
  EXPECT_TRUE(again.violation);
  EXPECT_EQ(again.trace_digest, f.trace_digest);
  EXPECT_EQ(again.report.verdict.commit_digest,
            f.report.verdict.commit_digest);
  EXPECT_EQ(again.schedule_key, f.schedule_key);
}

TEST(Explore, KnownBadHookRestoredScenarioPassesAgain) {
  // Guards the drill above: with the hook back off, the same scenario is
  // clean — proving the violation came from the injected bug, not the
  // explorer.
  Explorer ex;
  const ScheduleResult r = ex.run_schedule(*find_scenario("f1-lossy-fabric"), {});
  EXPECT_FALSE(r.violation) << r.report.verdict.detail;
}

// --------------------------------------------------- the CI smoke sweep --

TEST(Explore, CiSmokeBudgetYieldsFiveHundredUniqueSchedules) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "full sweep runs in the plain and asan lanes only";
#endif
  // Mirror of CI's explore-smoke job: default budget over the smoke
  // corpus must cover >= 500 deduplicated schedules with zero
  // violations (the corpus is believed correct; a violation here is a
  // real find and must fail loudly).
  Explorer ex;
  std::uint64_t unique = 0;
  std::uint64_t violations = 0;
  for (Scenario& s : smoke_corpus()) {
    const ExploreReport rep = ex.explore(s);
    unique += rep.unique_schedules;
    violations += rep.violations;
    EXPECT_EQ(rep.runs, ExploreOptions{}.budget) << rep.scenario;
  }
  EXPECT_GE(unique, 500u);
  EXPECT_EQ(violations, 0u);
}

}  // namespace
}  // namespace rubin::faultlab
