// PopLab subsystem tests: the .pop scenario grammar, the deterministic
// arrival samplers, and small end-to-end populations in both receive
// modes (SRQ-shared and per-QP). The counter assertions here are
// the rubinlint xref coverage for the poplab.* counter family.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/counters.hpp"
#include "net/fabric.hpp"
#include "poplab/population.hpp"
#include "poplab/scenario.hpp"
#include "sim/simulator.hpp"

namespace rubin::poplab {
namespace {

#ifndef POPLAB_SCENARIO_DIR
#define POPLAB_SCENARIO_DIR "."
#endif

// ---------------------------------------------------------------- parser ---

TEST(PopScenario, ParsesTheSteadySmallScenarioFile) {
  const PopulationSpec spec =
      PopulationSpec::load(std::string(POPLAB_SCENARIO_DIR) +
                           "/steady_small.pop");
  EXPECT_EQ(spec.name, "steady_small");
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_EQ(spec.duration, sim::milliseconds(20));
  ASSERT_EQ(spec.cohorts.size(), 2u);

  const CohortSpec& readers = spec.cohorts[0];
  EXPECT_EQ(readers.name, "readers");
  EXPECT_EQ(readers.clients, 48u);
  EXPECT_EQ(readers.start, 0u);
  EXPECT_EQ(readers.arrival.kind, ArrivalSchedule::Kind::kSteady);
  EXPECT_DOUBLE_EQ(readers.arrival.base_rps, 40000.0);
  EXPECT_EQ(readers.op_space, 16u);
  EXPECT_DOUBLE_EQ(readers.zipf_theta, 0.99);
  EXPECT_EQ(readers.payload_lo, 64u);
  EXPECT_EQ(readers.payload_hi, 1024u);
  EXPECT_DOUBLE_EQ(readers.payload_alpha, 1.3);
  EXPECT_EQ(readers.timeout, sim::milliseconds(5));

  const CohortSpec& writers = spec.cohorts[1];
  EXPECT_EQ(writers.start, sim::milliseconds(2));
  // `payload fixed 512` pins the bounded-Pareto to a point mass.
  EXPECT_EQ(writers.payload_lo, 512u);
  EXPECT_EQ(writers.payload_hi, 512u);
  EXPECT_EQ(spec.total_clients(), 64u);
}

TEST(PopScenario, ParsesEverySchedulKindFromRampBurst) {
  const PopulationSpec spec = PopulationSpec::load(
      std::string(POPLAB_SCENARIO_DIR) + "/ramp_burst.pop");
  ASSERT_EQ(spec.cohorts.size(), 3u);
  EXPECT_EQ(spec.cohorts[0].arrival.kind, ArrivalSchedule::Kind::kRamp);
  EXPECT_EQ(spec.cohorts[1].arrival.kind, ArrivalSchedule::Kind::kStep);
  EXPECT_EQ(spec.cohorts[2].arrival.kind, ArrivalSchedule::Kind::kBurst);
}

TEST(PopScenario, RejectsMalformedInputsWithLineNumbers) {
  const auto expect_bad = [](const char* text, const char* why) {
    EXPECT_THROW((void)PopulationSpec::parse(text), std::invalid_argument)
        << why;
  };
  expect_bad("population p\ncohort a\n  clients 4\n",
             "unterminated cohort block");
  expect_bad("population p\nfrobnicate 3\n", "unknown top-level keyword");
  expect_bad("population p\ncohort a\n  clients 0\nend\n", "zero clients");
  expect_bad("population p\ncohort a\n  payload pareto 512 64 1.3\nend\n",
             "payload lo > hi");
  expect_bad("population p\ncohort a\n  arrival burst 10 20 5 9\nend\n",
             "burst width exceeds its period");
  expect_bad("population p\nseed banana\n", "non-numeric seed");
  expect_bad("population p\nduration_ms 10\n", "no cohorts at all");
  expect_bad("population p\ncohort a\n  clients 4x\nend\n",
             "trailing junk on a number");
  expect_bad("population p\ncohort a\n  clients -1\nend\n",
             "negative client count");
  expect_bad("population p\ncohort a\n  ops -1 zipf 0.9\nend\n",
             "negative op space");
  expect_bad("population p\ncohort a\n  clients 4294967297\nend\n",
             "client count wider than 32 bits");
}

TEST(PopScenario, RateAtFollowsEverySheduleShape) {
  ArrivalSchedule steady;
  steady.kind = ArrivalSchedule::Kind::kSteady;
  steady.base_rps = 100.0;
  EXPECT_DOUBLE_EQ(steady.rate_at(0), 100.0);
  EXPECT_DOUBLE_EQ(steady.rate_at(sim::seconds(1)), 100.0);

  ArrivalSchedule ramp;
  ramp.kind = ArrivalSchedule::Kind::kRamp;
  ramp.base_rps = 100.0;
  ramp.peak_rps = 300.0;
  ramp.at = sim::milliseconds(10);
  EXPECT_DOUBLE_EQ(ramp.rate_at(0), 100.0);
  EXPECT_DOUBLE_EQ(ramp.rate_at(sim::milliseconds(5)), 200.0);
  EXPECT_DOUBLE_EQ(ramp.rate_at(sim::milliseconds(10)), 300.0);
  EXPECT_DOUBLE_EQ(ramp.rate_at(sim::milliseconds(50)), 300.0);

  ArrivalSchedule step;
  step.kind = ArrivalSchedule::Kind::kStep;
  step.base_rps = 50.0;
  step.peak_rps = 500.0;
  step.at = sim::milliseconds(4);
  EXPECT_DOUBLE_EQ(step.rate_at(sim::milliseconds(4) - 1), 50.0);
  EXPECT_DOUBLE_EQ(step.rate_at(sim::milliseconds(4)), 500.0);

  ArrivalSchedule burst;
  burst.kind = ArrivalSchedule::Kind::kBurst;
  burst.base_rps = 10.0;
  burst.peak_rps = 1000.0;
  burst.at = sim::milliseconds(10);    // period
  burst.width = sim::milliseconds(2);  // burst window
  EXPECT_DOUBLE_EQ(burst.rate_at(sim::milliseconds(1)), 1000.0);
  EXPECT_DOUBLE_EQ(burst.rate_at(sim::milliseconds(5)), 10.0);
  EXPECT_DOUBLE_EQ(burst.rate_at(sim::milliseconds(11)), 1000.0);
}

// --------------------------------------------------------- arrival stream ---

CohortSpec stream_spec() {
  CohortSpec c;
  c.name = "s";
  c.clients = 32;
  c.arrival.kind = ArrivalSchedule::Kind::kSteady;
  c.arrival.base_rps = 100000.0;
  c.op_space = 8;
  c.payload_lo = 64;
  c.payload_hi = 4096;
  return c;
}

TEST(PopArrivalStream, IsAPureFunctionOfSpecAndSeed) {
  ArrivalStream a(stream_spec(), 99, sim::milliseconds(50));
  ArrivalStream b(stream_spec(), 99, sim::milliseconds(50));
  int n = 0;
  while (auto x = a.next()) {
    const auto y = b.next();
    ASSERT_TRUE(y.has_value());
    EXPECT_EQ(x->at, y->at);
    EXPECT_EQ(x->client, y->client);
    EXPECT_EQ(x->op, y->op);
    EXPECT_EQ(x->bytes, y->bytes);
    ++n;
  }
  EXPECT_FALSE(b.next().has_value());
  // ~100k rps over 50ms ≈ 5000 arrivals.
  EXPECT_GT(n, 4000);
  EXPECT_LT(n, 6000);
}

TEST(PopArrivalStream, DrawsStayInSpecifiedRanges) {
  const CohortSpec spec = stream_spec();
  ArrivalStream s(spec, 7, sim::milliseconds(20));
  sim::Time prev = 0;
  while (auto a = s.next()) {
    EXPECT_GT(a->at, prev);  // strictly increasing
    EXPECT_LT(a->at, sim::milliseconds(20));
    prev = a->at;
    EXPECT_LT(a->client, spec.clients);
    EXPECT_LT(a->op, spec.op_space);
    EXPECT_GE(a->bytes, spec.payload_lo);
    EXPECT_LE(a->bytes, spec.payload_hi);
  }
}

TEST(PopArrivalStream, RampThinningShiftsMassTowardTheEnd) {
  CohortSpec c = stream_spec();
  c.arrival.kind = ArrivalSchedule::Kind::kRamp;
  c.arrival.base_rps = 1000.0;
  c.arrival.peak_rps = 100000.0;
  c.arrival.at = sim::milliseconds(40);
  ArrivalStream s(c, 5, sim::milliseconds(40));
  int first_half = 0, second_half = 0;
  while (auto a = s.next()) {
    (a->at < sim::milliseconds(20) ? first_half : second_half)++;
  }
  EXPECT_GT(second_half, 2 * first_half);
}

TEST(PopArrivalStream, BurstThinningConcentratesMassInTheWindow) {
  CohortSpec c = stream_spec();
  c.arrival.kind = ArrivalSchedule::Kind::kBurst;
  c.arrival.base_rps = 1000.0;
  c.arrival.peak_rps = 200000.0;
  c.arrival.at = sim::milliseconds(10);
  c.arrival.width = sim::milliseconds(2);
  ArrivalStream s(c, 11, sim::milliseconds(40));
  int in_burst = 0, outside = 0;
  while (auto a = s.next()) {
    const sim::Time phase = a->at % sim::milliseconds(10);
    (phase < sim::milliseconds(2) ? in_burst : outside)++;
  }
  // 20% of the time carries ~98% of the offered load.
  EXPECT_GT(in_burst, 10 * outside);
}

// ------------------------------------------------------------- population ---

struct PoplabTest : ::testing::Test {
  sim::Simulator sim;
  ~PoplabTest() override { sim.terminate_processes(); }

  PopulationReport run(const PopulationSpec& spec, PopulationConfig cfg) {
    fabric = std::make_unique<net::Fabric>(sim, net::CostModel::roce_10g(),
                                           Population::host_count(spec, cfg));
    pop = std::make_unique<Population>(*fabric, spec, cfg);
    sim.spawn(pop->run());
    sim.run();
    return pop->report();
  }

  std::unique_ptr<net::Fabric> fabric;
  std::unique_ptr<Population> pop;
};

TEST_F(PoplabTest, SrqPopulationSustainsTheScenarioAndCountsEverything) {
  const PopulationSpec spec = PopulationSpec::load(
      std::string(POPLAB_SCENARIO_DIR) + "/steady_small.pop");
  PopulationConfig cfg;
  cfg.use_srq = true;
  cfg.clients_per_host = 24;  // force several client machines

  counters::reset();

  const PopulationReport r = run(spec, cfg);
  EXPECT_EQ(r.clients, 64u);
  EXPECT_EQ(r.established, 64u);
  EXPECT_GT(r.connect_span, 0u);
  EXPECT_GT(r.arrivals, 500u);
  EXPECT_GT(r.completions, 0u);
  EXPECT_EQ(r.sent, r.completions + r.timeouts);
  EXPECT_EQ(r.arrivals, r.sent + r.drops);
  ASSERT_EQ(r.cohorts.size(), 2u);
  EXPECT_GT(r.cohorts[0].completions, 0u);
  EXPECT_GT(r.cohorts[1].completions, 0u);
  EXPECT_GT(r.cohorts[0].p50_us, 0.0);
  EXPECT_GE(r.cohorts[0].p99_us, r.cohorts[0].p50_us);
  EXPECT_GT(r.throughput_rps, 0.0);

  // The xref contract for the poplab.* counter family: every counted
  // name is asserted here, against the report the run itself produced.
  EXPECT_EQ(counters::value("poplab.arrivals"), r.arrivals);
  EXPECT_EQ(counters::value("poplab.completions"), r.completions);
  // Shed arrivals (drops) ride the timeout counter: both are load the
  // open-loop schedule offered and the system failed to serve.
  EXPECT_EQ(counters::value("poplab.timeouts"), r.timeouts + r.drops);
}

TEST_F(PoplabTest, PerQpModeServesTheSameScenario) {
  const PopulationSpec spec = PopulationSpec::load(
      std::string(POPLAB_SCENARIO_DIR) + "/steady_small.pop");
  PopulationConfig cfg;
  cfg.use_srq = false;
  cfg.clients_per_host = 24;
  const PopulationReport r = run(spec, cfg);
  EXPECT_EQ(r.established, 64u);
  EXPECT_GT(r.completions, 0u);
  // Fully-provisioned rings: exactly window slots per client.
  EXPECT_EQ(r.client_receive_state_bytes,
            64ull * cfg.window * cfg.ack_slot_size);
}

TEST_F(PoplabTest, SrqReceiveStateStaysBelowThePerQpBaseline) {
  const PopulationSpec spec = PopulationSpec::load(
      std::string(POPLAB_SCENARIO_DIR) + "/steady_small.pop");
  PopulationConfig cfg;
  cfg.clients_per_host = 24;

  cfg.use_srq = true;
  const PopulationReport srq = run(spec, cfg);
  sim.terminate_processes();

  cfg.use_srq = false;
  const PopulationReport perqp = run(spec, cfg);

  EXPECT_LT(srq.server_receive_state_bytes, perqp.server_receive_state_bytes);
  EXPECT_LT(srq.server_recv_bytes_per_conn, perqp.server_recv_bytes_per_conn);
  EXPECT_LT(srq.client_receive_state_bytes, perqp.client_receive_state_bytes);
}

TEST_F(PoplabTest, EverySchedulKindDrivesTrafficEndToEnd) {
  const PopulationSpec spec = PopulationSpec::load(
      std::string(POPLAB_SCENARIO_DIR) + "/ramp_burst.pop");
  PopulationConfig cfg;
  cfg.use_srq = true;
  const PopulationReport r = run(spec, cfg);
  EXPECT_EQ(r.established, 128u);
  ASSERT_EQ(r.cohorts.size(), 3u);
  for (const CohortReport& c : r.cohorts) {
    EXPECT_GT(c.arrivals, 0u) << c.name;
    EXPECT_GT(c.completions, 0u) << c.name;
  }
}

TEST_F(PoplabTest, AcksReachTheSendingClientOnEveryHost) {
  // QPNs restart at 1 on every client host, so an ack completing on host
  // h for QPN q belongs to host h's q-th client and no other. One cohort
  // per host, light load, generous timeout: every request sent must be
  // acked to the client, and so the cohort, that sent it.
  PopulationSpec spec;
  spec.name = "three-hosts";
  spec.duration = sim::milliseconds(10);
  for (const double rps : {20000.0, 10000.0, 5000.0}) {
    CohortSpec c;
    c.name = "c" + std::to_string(spec.cohorts.size());
    c.clients = 8;
    c.arrival.base_rps = rps;
    c.payload_lo = c.payload_hi = 64.0;
    c.timeout = sim::milliseconds(5);
    spec.cohorts.push_back(c);
  }
  PopulationConfig cfg;
  cfg.clients_per_host = 8;
  for (const bool use_srq : {true, false}) {
    SCOPED_TRACE(use_srq ? "srq" : "per-qp");
    cfg.use_srq = use_srq;
    const PopulationReport r = run(spec, cfg);
    EXPECT_EQ(r.established, 24u);
    ASSERT_EQ(r.cohorts.size(), 3u);
    for (const CohortReport& c : r.cohorts) {
      EXPECT_GT(c.sent, 10u) << c.name;
      EXPECT_EQ(c.completions, c.sent) << c.name;
      EXPECT_EQ(c.timeouts, 0u) << c.name;
    }
    sim.terminate_processes();
  }
}

TEST(PoplabPlacement, HostCountAndClientPlacementAgree) {
  PopulationSpec spec;
  spec.name = "p";
  CohortSpec c;
  c.name = "a";
  c.clients = 100;
  spec.cohorts.push_back(c);
  PopulationConfig cfg;
  cfg.clients_per_host = 32;
  // 100 clients / 32 per host = 4 machines, plus the server.
  EXPECT_EQ(Population::host_count(spec, cfg), 5u);

  sim::Simulator sim;
  net::Fabric fabric{sim, net::CostModel::roce_10g(), 5};
  Population pop{fabric, spec, cfg};
  EXPECT_EQ(pop.client_host_of(0), 1u);
  EXPECT_EQ(pop.client_host_of(31), 1u);
  EXPECT_EQ(pop.client_host_of(32), 2u);
  EXPECT_EQ(pop.client_host_of(99), 4u);
  sim.terminate_processes();
}

TEST(PoplabPlacement, RejectsAFabricTooSmallForThePlacement) {
  PopulationSpec spec;
  spec.name = "p";
  CohortSpec c;
  c.name = "a";
  c.clients = 100;
  spec.cohorts.push_back(c);
  PopulationConfig cfg;
  cfg.clients_per_host = 32;
  sim::Simulator sim;
  net::Fabric fabric{sim, net::CostModel::roce_10g(), 4};  // needs 5
  EXPECT_THROW((Population{fabric, spec, cfg}), std::invalid_argument);
}

}  // namespace
}  // namespace rubin::poplab
