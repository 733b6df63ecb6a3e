// explore-smoke: Explorer::explore over the three smoke-corpus scenarios
// at a reduced budget. The workload seed is the explorer's combo seed
// and picks the fault-RNG seed of each scenario's baseline run. Hundreds
// of short independent worlds: per-world construction, the Checker and
// dedup dominate alongside PBFT.
#include <memory>
#include <string>

#include "bench.hpp"
#include "common/rng.hpp"
#include "faultlab/corpus.hpp"
#include "faultlab/explore.hpp"
#include "faultlab/lab.hpp"

namespace perfbench {
namespace {

using namespace rubin;
using namespace rubin::faultlab;

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return ratio(sum, static_cast<double>(v.size()));
}

}  // namespace

Iteration run_explore(std::uint64_t seed, bool smoke, Tracer* tracer) {
  // The explorer walks its axes in order and reads rng_seed only on the
  // last one, the seeded pair combos. Short seed and swap axes leave the
  // budget's tail to the combos, so the timed phase depends on the seed.
  ExploreOptions opts;
  opts.budget = smoke ? 3 : 24;
  opts.seed_sweeps = 2;
  opts.swap_limit = 2;
  opts.rng_seed = seed;
  Iteration it;

  // ---- set-up: the scenarios, their Labs, and one connected world each --
  // A Lab adds its replicas and clients, and the clients connect, inside
  // run(); that world construction is a large part of what every explored
  // schedule costs. Lab has no connect-only call, so set-up runs each
  // scenario's group once, honest and fault-free, with one request per
  // client: the world is built, connected, and shown to serve.
  const double t_setup = cpu_seconds();
  std::vector<Scenario> scenarios = smoke_corpus();
  Rng rng(seed ^ 0xe4b10e5ULL);
  std::vector<std::unique_ptr<Lab>> labs;
  std::vector<double> build_ms;
  for (const Scenario& sc : scenarios) {
    Scope sp(tracer, "Lab.build:" + sc.name);
    const double t0 = cpu_seconds();
    Scenario world = sc;
    world.requests = 1;
    world.events.clear();
    world.strategies.clear();
    world.client_strategies.clear();
    world.runtime_faulty.clear();
    if (!Lab(std::move(world)).run().passed()) {
      it.error = "explore: " + sc.name + " does not serve fault-free";
    }
    // The baseline replays the scenario under a fault-RNG seed drawn
    // from the workload seed (the explorer keeps the corpus seeds).
    Scenario baseline = sc;
    baseline.seed = rng.next();
    labs.push_back(std::make_unique<Lab>(std::move(baseline)));
    build_ms.push_back((cpu_seconds() - t0) * 1e3);
  }
  it.setup_s = cpu_seconds() - t_setup;
  if (scenarios.size() != 3) {
    it.error = "explore: the smoke corpus does not have three scenarios";
    return it;
  }

  // ---- timed ops: exploration -------------------------------------------
  reset_counters();
  const std::uint64_t allocs0 = allocation_count();
  std::uint64_t runs = 0, unique = 0, dedup = 0, violations = 0, minim = 0;
  const double t_run = cpu_seconds();
  for (const Scenario& sc : scenarios) {
    Scope sp(tracer, "Explorer.explore:" + sc.name);
    Explorer ex(opts);
    const ExploreReport rep = ex.explore(sc);
    runs += rep.runs;
    unique += rep.unique_schedules;
    dedup += rep.dedup_hits;
    violations += rep.violations;
    minim += rep.minimization_runs;
    sp.arg("runs", static_cast<double>(rep.runs));
    sp.arg("unique", static_cast<double>(rep.unique_schedules));
  }
  it.run_s = cpu_seconds() - t_run;
  const std::uint64_t allocs = allocation_count() - allocs0;
  const Counters counters = snapshot_counters();
  const double schedules = static_cast<double>(runs + minim);
  it.attempted = runs + minim;
  it.completed = runs + minim - violations;
  it.failed = violations;

  // ---- the baselines: virtual latency and per-world costs ---------------
  std::vector<double> lat_us;
  std::vector<double> run_ms;
  double completions = 0, virt_s = 0, events = 0, frames = 0, wire = 0,
         run_s = 0;
  for (std::size_t i = 0; i < labs.size(); ++i) {
    Lab& lab = *labs[i];
    Scope sp(tracer, "Lab.run:" + scenarios[i].name);
    const double t0 = cpu_seconds();
    const Report rep = lab.run();
    run_ms.push_back((cpu_seconds() - t0) * 1e3);
    run_s += run_ms.back() / 1e3;
    if (!rep.passed()) {
      it.error = "explore: baseline " + rep.name + " failed: " +
                 rep.verdict.detail;
    }
    lat_us.insert(lat_us.end(), lab.latencies_us().begin(),
                  lab.latencies_us().end());
    completions += static_cast<double>(rep.completions);
    virt_s += sim::to_s(rep.finished_at);
    events += static_cast<double>(lab.sim().events_processed());
    frames += static_cast<double>(lab.fabric().frames_delivered());
    wire += static_cast<double>(lab.fabric().bytes_on_wire());
    labs[i].reset();  // one replica group alive at a time bounds peak RSS
  }
  if (violations != 0) {
    it.error = "explore: " + std::to_string(violations) + " violation(s)";
  }

  Values& x = it.exact;
  add_latency(x, "virt", lat_us);
  x["virt_read_p50_us"] = 0;
  x["virt_read_p99_us"] = 0;
  x["virt_read_samples"] = 0;
  x["virt_ops_per_s"] = ratio(completions, virt_s);
  x["failed_frac"] = ratio(static_cast<double>(violations), schedules);
  x["faultlab.dedup_share"] =
      ratio(static_cast<double>(dedup), static_cast<double>(runs));
  x["faultlab.minimization_runs"] = static_cast<double>(minim);
  x["faultlab.unique_schedules"] = static_cast<double>(unique);
  // Every schedule is one world like a baseline, so the baselines' costs
  // stand for a schedule's.
  const double worlds = static_cast<double>(labs.size());
  x["sim.events_per_op"] = ratio(events, worlds);
  x["net.frames_per_op"] = ratio(frames, worlds);
  x["net.wire_bytes_per_op"] = ratio(wire, worlds);
  add_counter_layers(x, counters, schedules);
  for (const auto& [k, v] : counters) x["count/" + k] = static_cast<double>(v);

  it.host["faultlab.lab_build_ms"] = mean(build_ms);
  it.host["faultlab.lab_run_ms"] = mean(run_ms);
  it.host["sim.host_ns_per_event"] = ratio(run_s * 1e9, events);
  it.host["common.allocs_per_op"] =
      ratio(static_cast<double>(allocs), schedules);
  return it;
}

}  // namespace perfbench
