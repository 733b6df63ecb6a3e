// Pins the virtual-time determinism contract of the zero-copy data plane:
// eliding physical copies must not move a single modeled charge. Every
// workload here is run twice in fresh worlds and the observable results —
// which are pure functions of the virtual-time trace — must match to the
// last bit. A divergence means a physical-host artifact (pointer value,
// allocation order, wall clock) leaked into simulation behaviour.
#include <gtest/gtest.h>

#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "common/counters.hpp"
#include "poplab/population.hpp"
#include "faultlab/corpus.hpp"
#include "faultlab/lab.hpp"
#include "workloads/bft_harness.hpp"
#include "workloads/echo_kit.hpp"

namespace rubin::workloads {
namespace {

EchoParams small(std::size_t payload) {
  EchoParams p;
  p.payload = payload;
  p.messages = 200;
  return p;
}

void expect_identical(const EchoPoint& a, const EchoPoint& b,
                      const char* what) {
  // Exact double equality on purpose: the runs must replay the same trace.
  EXPECT_EQ(a.latency_us, b.latency_us) << what;
  EXPECT_EQ(a.krps, b.krps) << what;
  EXPECT_EQ(a.p99_us, b.p99_us) << what;
}

TEST(Determinism, Fig3VariantsReplayBitIdentically) {
  // Each Fig. 3 series replays, and also matches absolute pins: a change
  // here is a change to the paper's figure. The literals are printed with
  // %.17g, so each one round-trips to the exact double.
  const std::size_t payloads[] = {1024, 65536};
  const char* const names[] = {"tcp", "sendrecv", "readwrite", "channel"};
  // {latency_us, krps, p99_us} per payload, in `names` order.
  const EchoPoint pins[][4] = {
      {{23.541999999999998, 42.477274658057944, 23.542000000000002},
       {22.431384999999924, 44.580394835182929, 22.437000000000001},
       {12.160000000000007, 82.236842105263165, 12.16},
       {18.96600000000003, 52.725930612675313, 18.763999999999999}},
      {{222.08600000000047, 4.5027601919976954, 222.08600000000001},
       {151.5560000000003, 6.5982211195861593, 151.55600000000001},
       {144.15999999999988, 6.9367369589345174, 144.16},
       {178.29800000000051, 5.608587869746156, 177.97}},
  };
  for (std::size_t i = 0; i < std::size(payloads); ++i) {
    const EchoParams p = small(payloads[i]);
    const auto cfg = default_channel_config(payloads[i]);
    const auto run = [&](std::size_t variant) {
      switch (variant) {
        case 0:
          return run_tcp_echo(p);
        case 1:
          return run_sendrecv_echo(p);
        case 2:
          return run_readwrite_echo(p);
        default:
          return run_channel_echo(p, cfg);
      }
    };
    for (std::size_t v = 0; v < std::size(names); ++v) {
      SCOPED_TRACE(std::string(names[v]) + " @" + std::to_string(payloads[i]));
      const EchoPoint first = run(v);
      expect_identical(first, run(v), "replay");
      expect_identical(first, pins[i][v], "pin");
    }
  }
}

struct BftOutcome {
  double mean_latency_us = 0;
  double requests_per_second = 0;
  std::uint64_t committed = 0;

  bool operator==(const BftOutcome&) const = default;
};

/// `dlog` switches on the one-sided decision log with that configuration.
BftOutcome run_small_bft(
    reptor::Backend backend, std::uint32_t pipelines = 1,
    std::optional<nio::DecisionLogConfig> dlog = std::nullopt) {
  reptor::BftHarness h(backend, 4, 2);
  if (dlog) h.enable_decision_log(*dlog);
  reptor::ReplicaConfig cfg;
  cfg.batch_size = 4;
  cfg.batch_timeout = sim::microseconds(100);
  cfg.pipelines = pipelines;
  h.add_replicas({}, cfg);

  int done = 0;
  sim::Time last_reply = 0;
  for (std::uint32_t c = 0; c < 2; ++c) {
    auto& client = h.add_client(4 + c);
    h.sim().spawn(
        [](reptor::Client& cl, sim::Simulator& s, int& done,
           sim::Time& last_reply) -> sim::Task<> {
          co_await cl.start();
          std::string op = "add:1";
          op.resize(256, 'x');
          for (int i = 0; i < 10; ++i) {
            (void)co_await cl.invoke(to_bytes(op));
            last_reply = s.now();
          }
          ++done;
        }(client, h.sim(), done, last_reply));
  }
  const sim::Time t0 = h.sim().now();
  while (done < 2 && h.sim().now() < sim::seconds(5)) {
    h.sim().run_until(h.sim().now() + sim::milliseconds(1));
  }

  BftOutcome out;
  for (std::uint32_t c = 0; c < 2; ++c) {
    if (h.client(c).latencies().count() > 0) {
      out.mean_latency_us += h.client(c).latencies().mean();
    }
    out.committed += h.client(c).latencies().count();
  }
  // Throughput over the virtual time the requests took, not over the
  // whole run_until slices that happened to contain them.
  const double s = sim::to_s(last_reply - t0);
  if (s > 0) out.requests_per_second = static_cast<double>(out.committed) / s;
  h.stop_all();
  return out;
}

TEST(Determinism, BftEndToEndReplaysBitIdentically) {
  // pipelines = 4 spreads sequence numbers across COP lanes, so lane
  // routing and per-lane verify/decode join the replay contract.
  for (const auto backend : {reptor::Backend::kNio, reptor::Backend::kRubin}) {
    for (const std::uint32_t pipelines : {1u, 4u}) {
      const BftOutcome a = run_small_bft(backend, pipelines);
      const BftOutcome b = run_small_bft(backend, pipelines);
      EXPECT_EQ(a.committed, 20u);
      EXPECT_TRUE(a == b) << "backend " << static_cast<int>(backend)
                          << " pipelines " << pipelines;
    }
  }
}

TEST(Determinism, OneSidedFastPathReplaysBitIdentically) {
  // The decision-ring commit path (DESIGN.md §12) joins the replay
  // contract: ring writes, poll loops, ack cells, and permission flips
  // are all virtual-time citizens, so two fast-path runs must agree to
  // the bit, and match absolute pins (%.17g literals) at three ring poll
  // intervals from bench_bft_e2e's ablation grid. A change here is a
  // change to when a follower notices a record.
  struct Pin {
    double poll_us;
    BftOutcome outcome;
  };
  const Pin pins[] = {
      {0.5, {279.64350000000002, 13969.367969915569, 20}},
      {0.2, {278.7835, 14011.450157068357, 20}},
      {8.0, {294.48349999999999, 13281.059084775658, 20}},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE("poll_interval " + std::to_string(pin.poll_us) + " us");
    nio::DecisionLogConfig dcfg;
    dcfg.poll_interval = sim::microseconds(pin.poll_us);
    const BftOutcome a = run_small_bft(reptor::Backend::kRubin, 1, dcfg);
    const BftOutcome b = run_small_bft(reptor::Backend::kRubin, 1, dcfg);
    EXPECT_TRUE(a == b) << "one-sided replay diverged";
    EXPECT_EQ(a.mean_latency_us, pin.outcome.mean_latency_us);
    EXPECT_EQ(a.requests_per_second, pin.outcome.requests_per_second);
    EXPECT_EQ(a.committed, pin.outcome.committed);
  }
}

TEST(Determinism, FaultScenariosReplayBitIdentically) {
  // Fault injection must not break the replay contract: the fabric's
  // fault dice, the Byzantine strategies, and the checker's verdict are
  // all pure functions of (scenario, seed). A divergence here means a
  // fault path consulted wall-clock state or an unseeded RNG.
  // The one-sided rows prove the fast-path abuse machinery (raw ring
  // writes, revoked-grant NAKs) replays too.
  for (const char* name :
       {"f1-lossy-fabric", "f1-byz-equivocating-primary",
        "f1-asym-deaf-group", "f1-fuzz-combo", "f1-onesided-forge",
        "f1-onesided-stale-rkey"}) {
    auto s1 = faultlab::find_scenario(name);
    auto s2 = faultlab::find_scenario(name);
    ASSERT_TRUE(s1.has_value() && s2.has_value());
    faultlab::Lab la(std::move(*s1));
    faultlab::Lab lb(std::move(*s2));
    const faultlab::Report a = la.run();
    const faultlab::Report b = lb.run();
    EXPECT_EQ(a.verdict.commit_digest, b.verdict.commit_digest) << name;
    EXPECT_EQ(a.verdict.safe, b.verdict.safe) << name;
    EXPECT_EQ(a.verdict.live, b.verdict.live) << name;
    EXPECT_EQ(a.verdict.recovery, b.verdict.recovery) << name;
    EXPECT_EQ(a.completions, b.completions) << name;
    EXPECT_EQ(a.client_retries, b.client_retries) << name;
    EXPECT_EQ(a.final_view, b.final_view) << name;
    EXPECT_EQ(a.finished_at, b.finished_at) << name;
    EXPECT_EQ(a.frames_dropped, b.frames_dropped) << name;
    EXPECT_EQ(a.frames_corrupted, b.frames_corrupted) << name;
    EXPECT_EQ(a.frames_duplicated, b.frames_duplicated) << name;
    EXPECT_EQ(a.frames_reordered, b.frames_reordered) << name;
  }
}

TEST(Determinism, FaultScenariosMatchPinnedOutcomes) {
  // Absolute pins, not a same-process replay: one row per corpus
  // scenario, in corpus order. The outcomes must hold across builds and
  // commits, so this is the proof that moving or editing corpus.fault
  // changed nothing. A change here is a change to the fault schedule,
  // the protocol or the data plane.
  struct Pin {
    const char* name;
    std::uint64_t commit_digest;
    sim::Time finished_at;
    std::uint64_t completions;
    std::uint64_t client_retries;
  };
  const Pin pins[] = {
      {"f1-clean", 0xA5B7EA310BC30211ull, 20000000, 25, 0},
      {"f1-crash-backup", 0xF620E78E4AEC6DE2ull, 20000000, 25, 0},
      {"f1-crash-primary", 0x8EB9D177264865D1ull, 50000000, 25, 2},
      {"f1-partition-primary", 0xA5B7EA310BC30211ull, 50000000, 25, 2},
      {"f1-partition-client-cohort", 0xC21BF1030FAED335ull, 50047154, 100, 4},
      {"f1-lossy-fabric", 0x78B8285A798790C9ull, 25110465, 25, 0},
      {"f1-corrupt-frames", 0x340A7A168E062E4Eull, 60000000, 25, 2},
      {"f1-duplicate-flood", 0xA5B7EA310BC30211ull, 20000000, 25, 0},
      {"f1-reorder-burst", 0xA5B7EA310BC30211ull, 20249996, 25, 0},
      {"f1-qp-error-backup", 0xA5B7EA310BC30211ull, 20000000, 25, 0},
      {"f1-nic-stall-primary", 0xA5B7EA310BC30211ull, 25000000, 25, 0},
      {"f1-byz-equivocating-primary", 0xD6884787852B64B1ull, 35000000, 25, 1},
      {"f1-byz-silent-primary", 0x8EB9D177264865D1ull, 50000000, 25, 2},
      {"f1-byz-corrupt-macs", 0xB77220FC9E5DCA80ull, 20000000, 25, 0},
      {"f1-byz-mute-backup", 0x2119FE8B479FCC83ull, 20000000, 25, 0},
      {"f1-byz-replayer", 0xF620E78E4AEC6DE2ull, 20000000, 25, 0},
      {"f1-byz-stale-view-spam", 0x2119FE8B479FCC83ull, 20000000, 25, 0},
      {"f1-byz-client-replayer", 0x74B49A8660299999ull, 20000000, 50, 0},
      {"f1-byz-client-forger", 0x74B49A8660299999ull, 20000000, 50, 0},
      {"f1-slow-primary", 0x4EB25317ED0CA09Eull, 105016011, 25, 0},
      {"f1-midrun-turncoat", 0x2119FE8B479FCC83ull, 20000000, 25, 0},
      {"f1-asym-deaf-group", 0xA5B7EA310BC30211ull, 50011853, 25, 2},
      {"f1-asym-mute-votes", 0xA5B7EA310BC30211ull, 20000000, 25, 0},
      {"f1-onesided-clean", 0xA5B7EA310BC30211ull, 15000000, 25, 0},
      {"f1-onesided-forge", 0x8EB9D177264865D1ull, 20000000, 25, 0},
      {"f1-onesided-torn", 0x8EB9D177264865D1ull, 20000000, 25, 0},
      {"f1-onesided-replay", 0x8EB9D177264865D1ull, 15000000, 25, 0},
      {"f1-onesided-stale-rkey", 0x8EB9D177264865D1ull, 45000000, 25, 2},
      {"f1-fuzz-combo", 0xA5B7EA310BC30211ull, 45000000, 25, 1},
      {"f2-crash-two", 0xED715399E1C8CE04ull, 15000000, 20, 0},
      {"f2-equivocate-plus-crash", 0x259285871C0509E2ull, 45000000, 20, 2},
      {"f2-partition-minority", 0x92BB658A5340C457ull, 15000000, 20, 0},
      {"f2-beyond-envelope", 0x11D1348DB4579419ull, 600000000, 4, 39},
      {"f2-fuzz-combo", 0x1DFDD9896AF7F69Full, 15012088, 20, 0},
  };
  std::vector<faultlab::Scenario> all = faultlab::corpus();
  ASSERT_EQ(all.size(), std::size(pins));
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Pin& pin = pins[i];
    ASSERT_EQ(all[i].name, pin.name);
    faultlab::Lab lab(std::move(all[i]));
    const faultlab::Report r = lab.run();
    EXPECT_TRUE(r.passed()) << pin.name << ": " << r.verdict.detail;
    EXPECT_EQ(r.verdict.commit_digest, pin.commit_digest) << pin.name;
    EXPECT_EQ(r.finished_at, pin.finished_at) << pin.name;
    EXPECT_EQ(r.completions, pin.completions) << pin.name;
    EXPECT_EQ(r.client_retries, pin.client_retries) << pin.name;
  }
}

// Golden pins for the PopLab samplers. The ArrivalStream is specified as a
// pure function of (spec, seed): these constants may only change with an
// explicit, intentional break of the sampler contract (which invalidates
// every recorded population schedule).
namespace {

std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 0x100000001B3ull;
}

std::uint64_t arrival_digest(const poplab::CohortSpec& spec,
                             std::uint64_t seed, sim::Time horizon) {
  poplab::ArrivalStream s(spec, seed, horizon);
  std::uint64_t h = 0xCBF29CE484222325ull;
  while (auto a = s.next()) {
    h = fnv1a_mix(h, static_cast<std::uint64_t>(a->at));
    h = fnv1a_mix(h, a->client);
    h = fnv1a_mix(h, a->op);
    h = fnv1a_mix(h, a->bytes);
  }
  return h;
}

}  // namespace

TEST(Determinism, PoplabArrivalStreamsMatchGoldenDigests) {
  poplab::CohortSpec c;
  c.name = "pin";
  c.clients = 64;
  c.arrival.base_rps = 50000.0;
  c.op_space = 16;
  c.zipf_theta = 0.99;
  c.payload_lo = 64;
  c.payload_hi = 1024;
  c.payload_alpha = 1.3;

  c.arrival.kind = poplab::ArrivalSchedule::Kind::kSteady;
  EXPECT_EQ(arrival_digest(c, 42, sim::milliseconds(20)),
            0x821F10AF3E696BC0ull);

  c.arrival.kind = poplab::ArrivalSchedule::Kind::kRamp;
  c.arrival.peak_rps = 100000.0;
  c.arrival.at = sim::milliseconds(15);
  EXPECT_EQ(arrival_digest(c, 42, sim::milliseconds(20)),
            0x50E321CD6C2845F2ull);

  c.arrival.kind = poplab::ArrivalSchedule::Kind::kBurst;
  c.arrival.at = sim::milliseconds(5);
  c.arrival.width = sim::milliseconds(1);
  EXPECT_EQ(arrival_digest(c, 42, sim::milliseconds(20)),
            0x5AFB021C04EE94A9ull);

  // The per-cohort seed derivation Population uses is part of the same
  // pinned surface: golden-ratio stride over the population seed.
  c.arrival.kind = poplab::ArrivalSchedule::Kind::kSteady;
  EXPECT_EQ(arrival_digest(c, 42 + 0x9E3779B97F4A7C15ull * 2,
                           sim::milliseconds(20)),
            0x17E41C235C393B3Full);
}

// ------------------------------------------------- datapath accounting ---

TEST(Datapath, SendPathCopiesA64KiBPayloadAtMostOnce) {
  constexpr std::size_t kPayload = 64 * 1024;
  constexpr int kMessages = 20;

  counters::reset();
  EchoParams p;
  p.payload = kPayload;
  p.messages = kMessages;
  (void)run_channel_echo(p, default_channel_config(kPayload));

  // Send-path physical copies (datapath.copy_bytes): the client fills its
  // message buffer once (one copy), then every send travels by handle —
  // the per-message budget is the *server's* NIC snapshot of its echo
  // buffer, i.e. at most one copy of the payload per message end-to-end.
  // Receiver-side copies are counted separately (and deliberately stay:
  // the receive-side copy is the paper's measured effect, §IV).
  const std::uint64_t send_copies = counters::value("datapath.copy_bytes");
  EXPECT_GT(send_copies, 0u);
  EXPECT_LE(send_copies, kPayload * (kMessages + 2));

  const std::uint64_t recv_copies = counters::value("datapath.recv_copy_bytes");
  // The receiver-side copy fires once per delivered message per side.
  EXPECT_GE(recv_copies, kPayload * kMessages);
}

}  // namespace
}  // namespace rubin::workloads
