// Extension E5 — fault recovery latency: the primary crash-stops mid-run
// and the group's view change restores service. The client-visible outage
// is (detection timeout + view-change protocol + re-proposal), so the
// recovery time tracks the watchdog setting — the availability/latency
// trade-off every BFT deployment tunes.
//
// The crash is a FaultLab scenario: an `after` event fires once a third
// of the workload has completed and crash-stops the primary; the Lab's
// checker independently confirms safety and times the recovery.
#include <cstdio>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "faultlab/lab.hpp"

using namespace rubin;
using namespace rubin::bench;
using namespace rubin::faultlab;

namespace {

constexpr std::uint32_t kRequests = 60;

struct Recovery {
  double steady_us = 0;    // median latency before the crash
  double outage_us = 0;    // worst request latency across the crash
  double recovery_ms = 0;  // checker: crash -> first post-crash commit
  double after_us = 0;     // median latency after recovery
  std::uint64_t final_view = 0;
  bool ok = false;
};

Recovery run_crash(sim::Time vc_timeout) {
  Scenario s;
  s.name = "e5-primary-crash";
  s.description = "primary crash at 1/3 of the workload";
  s.n = 4;
  s.clients = 1;
  s.requests = kRequests;
  s.horizon = sim::seconds(20);
  s.replica_cfg.batch_timeout = sim::microseconds(50);
  s.replica_cfg.view_change_timeout = vc_timeout;
  s.client_cfg.retry_timeout = sim::milliseconds(2);
  s.runtime_faulty = {0};
  s.events.push_back({.after_completions = kRequests / 3,
                      .actions = {FaultAction::crash(0)},
                      // Starts the checker's recovery clock.
                      .clears_faults = true});

  Lab lab(std::move(s));
  const Report rep = lab.run();

  Recovery r;
  r.ok = rep.passed();
  if (!r.ok) return r;  // stalled — report zeros
  const std::vector<double>& lat = lab.latencies_us();
  LatencyRecorder before;
  LatencyRecorder after;
  double worst = 0;
  for (std::size_t i = 0; i < lat.size(); ++i) {
    if (i < kRequests / 3) before.add(lat[i]);
    if (i > kRequests / 3 + 2) after.add(lat[i]);
    worst = std::max(worst, lat[i]);
  }
  r.steady_us = before.percentile(0.5);
  r.after_us = after.percentile(0.5);
  r.outage_us = worst;
  r.recovery_ms = sim::to_ms(rep.verdict.recovery);
  r.final_view = rep.final_view;
  return r;
}

}  // namespace

int main() {
  print_header("E5 — view-change recovery after a primary crash",
               "4 replicas over RUBIN; FaultLab crash scenario at 1/3 of "
               "the workload");

  print_row({"vc-timeout", "steady(us)", "outage(us)", "recov(ms)",
             "after(us)", "view"});
  bool all_ok = true;
  for (sim::Time t : {sim::milliseconds(2), sim::milliseconds(5),
                      sim::milliseconds(10)}) {
    const Recovery r = run_crash(t);
    all_ok = all_ok && r.ok;
    print_row({fmt(sim::to_ms(t), 0) + "ms", fmt(r.steady_us),
               fmt(r.outage_us), fmt(r.recovery_ms, 2), fmt(r.after_us),
               std::to_string(r.final_view)});
  }
  std::printf(
      "\nThe outage is dominated by fault *detection* (client retry + the\n"
      "backups' watchdogs), not by the view-change protocol itself: shrink\n"
      "the timeout and recovery shrinks with it, at the cost of spurious\n"
      "view changes under load jitter.\n");
  return all_ok ? 0 : 1;
}
