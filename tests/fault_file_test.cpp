// `.fault` format tests: parser edge cases (bad keys, out-of-range
// instants and hosts, duplicate names, trailing junk), writer fidelity,
// and the round-trip guarantee — every corpus scenario serialized to
// text and parsed back replays with the identical Checker verdict and
// commit-log digest.
#include <gtest/gtest.h>

#include <stdexcept>

#include "faultlab/corpus.hpp"
#include "faultlab/fault_file.hpp"
#include "faultlab/lab.hpp"

namespace rubin::faultlab {
namespace {

constexpr const char* kMinimal = R"(
# smallest useful scenario
scenario t-min
  describe one crash, nothing else
  n 4
  clients 1
  requests 5
  seed 7
  runtime_faulty 3
  at_ms 1 crash 3 clears
end
)";

TEST(FaultFile, ParsesMinimalScenario) {
  const auto all = parse_fault_text(kMinimal);
  ASSERT_EQ(all.size(), 1u);
  const Scenario& s = all[0];
  EXPECT_EQ(s.name, "t-min");
  EXPECT_EQ(s.description, "one crash, nothing else");
  EXPECT_EQ(s.n, 4u);
  EXPECT_EQ(s.requests, 5u);
  EXPECT_EQ(s.seed, 7u);
  EXPECT_EQ(s.runtime_faulty.count(3), 1u);
  ASSERT_EQ(s.events.size(), 1u);
  EXPECT_EQ(s.events[0].at, sim::milliseconds(1));
  EXPECT_TRUE(s.events[0].clears_faults);
  ASSERT_EQ(s.events[0].actions.size(), 1u);
  EXPECT_EQ(s.events[0].actions[0].kind, FaultAction::Kind::kCrash);
  EXPECT_EQ(s.events[0].actions[0].a, 3u);
}

TEST(FaultFile, ParsesMultiClauseEventsAndCompletionTriggers) {
  const auto all = parse_fault_text(R"(
scenario t-multi
  n 4
  clients 2
  at_ms 2 isolate 4 ; isolate 5
  after 8 drop_rate 0.25 ; reorder 0.1 20 clears
end
)");
  ASSERT_EQ(all.size(), 1u);
  ASSERT_EQ(all[0].events.size(), 2u);
  EXPECT_EQ(all[0].events[0].actions.size(), 2u);
  const FaultEvent& e = all[0].events[1];
  EXPECT_EQ(e.at, -1);
  EXPECT_EQ(e.after_completions, 8u);
  ASSERT_EQ(e.actions.size(), 2u);
  EXPECT_EQ(e.actions[1].kind, FaultAction::Kind::kReorder);
  EXPECT_EQ(e.actions[1].t, sim::microseconds(20));
  EXPECT_TRUE(e.clears_faults);
}

// ----------------------------------------------------- rejection cases --

void expect_fail(const char* text, const char* needle) {
  try {
    parse_fault_text(text);
    FAIL() << "expected parse failure mentioning '" << needle << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual error: " << e.what();
  }
}

TEST(FaultFile, RejectsUnknownKeys) {
  expect_fail("scenario t\n  frobnicate 3\nend\n", "unknown directive");
  expect_fail("scenario t\n  at_ms 1 levitate 3\nend\n",
              "unknown fault action");
  expect_fail("bogus-toplevel\n", "expected 'scenario");
}

TEST(FaultFile, RejectsOutOfRangeInstants) {
  expect_fail("scenario t\n  at_ms -5 crash 0\nend\n", "negative duration");
  // Beyond the horizon the event can never fire — reject it loudly
  // instead of silently never injecting the fault.
  expect_fail("scenario t\n  horizon_ms 100\n  at_ms 250 crash 0\nend\n",
              "horizon");
  expect_fail("scenario t\n  after 0 crash 0\nend\n", "count >= 1");
}

TEST(FaultFile, RejectsDuplicateScenarioNames) {
  expect_fail("scenario twin\nend\n\nscenario twin\nend\n",
              "duplicate scenario name");
}

TEST(FaultFile, RejectsMalformedNumbers) {
  expect_fail("scenario t\n  seed 12abc\nend\n", "trailing junk");
  expect_fail("scenario t\n  requests lots\nend\n", "expected an integer");
  expect_fail("scenario t\n  at_ms 1 drop_rate 1.5\nend\n", "out of [0,1]");
  // The replica takes the sequence number modulo the interval.
  expect_fail("scenario t\n  checkpoint_interval 0\nend\n",
              "checkpoint_interval must be >= 1");
}

TEST(FaultFile, RejectsOutOfRangeHostsAndStrategies) {
  expect_fail("scenario t\n  n 4\n  clients 1\n  at_ms 1 crash 9\nend\n",
              "out of range");
  expect_fail("scenario t\n  n 4\n  at_ms 1 oneway 2 2\nend\n",
              "distinct hosts");
  expect_fail("scenario t\n  strategy 0 nosuch-strategy\nend\n",
              "unknown replica strategy");
  expect_fail("scenario t\n  clients 2\n  client_strategy 1 nosuch\nend\n",
              "unknown client strategy");
  expect_fail("scenario t\n  clients 1\n  client_strategy 5 client-forger\nend\n",
              "out of range");
}

TEST(FaultFile, RejectsStructuralErrors) {
  expect_fail("scenario unfinished\n  n 4\n", "unterminated scenario");
  expect_fail("# just a comment\n", "no scenarios");
  expect_fail("scenario t\n  at_ms 1\nend\n", "event without an action");
  expect_fail("scenario t\n  at_ms 1 crash 0 ;\nend\n", "dangling ';'");
  expect_fail("scenario t\n  at_ms 1 clears crash 0\nend\n",
              "'clears' must come last");
}

// -------------------------------------------------------------- writer --

TEST(FaultFile, WriterOutputReparsesToIdenticalText) {
  // Serialize -> parse -> serialize must be a fixed point for the whole
  // corpus: the text form loses nothing the second pass could normalize.
  for (const Scenario& s : corpus()) {
    const std::string once = to_fault_text(s);
    const auto back = parse_fault_text(once);
    ASSERT_EQ(back.size(), 1u) << s.name;
    EXPECT_EQ(to_fault_text(back[0]), once) << s.name;
  }
}

// ---------------------------------------------------------- round trip --

TEST(FaultFile, EveryCorpusScenarioReplaysIdenticallyFromFaultText) {
  // The writer loses nothing: a scenario printed with to_fault_text and
  // parsed back runs with the same verdict bits, commit-log digest and
  // completion count as the scenario it was printed from. Same-process
  // only; Determinism.FaultScenariosMatchPinnedOutcomes pins the corpus
  // outcomes across commits.
  for (Scenario& original : corpus()) {
    const std::string text = to_fault_text(original);
    auto parsed = parse_fault_text(text);
    ASSERT_EQ(parsed.size(), 1u) << original.name;
    const std::string name = original.name;

    Lab lab_a(std::move(original));
    const Report a = lab_a.run();
    Lab lab_b(std::move(parsed[0]));
    const Report b = lab_b.run();

    EXPECT_EQ(a.passed(), b.passed()) << name;
    EXPECT_EQ(a.verdict.safe, b.verdict.safe) << name;
    EXPECT_EQ(a.verdict.no_forgery, b.verdict.no_forgery) << name;
    EXPECT_EQ(a.verdict.live, b.verdict.live) << name;
    EXPECT_EQ(a.completions, b.completions) << name;
    EXPECT_EQ(a.verdict.commit_digest, b.verdict.commit_digest) << name;
  }
}

TEST(FaultFile, ShippedExtraScenariosLoadAndPass) {
  auto extra =
      load_fault_file(std::string(FAULTLAB_SCENARIO_DIR) + "/extra.fault");
  ASSERT_GE(extra.size(), 3u);
  for (Scenario& s : extra) {
    const std::string name = s.name;
    Lab lab(std::move(s));
    const Report r = lab.run();
    EXPECT_TRUE(r.passed()) << name << ": " << r.verdict.detail;
    EXPECT_EQ(r.completions, r.expected_completions) << name;
  }
}

TEST(FaultFile, LoadFailsOnMissingFile) {
  EXPECT_THROW((void)load_fault_file("/nonexistent/x.fault"),
               std::invalid_argument);
}

}  // namespace
}  // namespace rubin::faultlab
