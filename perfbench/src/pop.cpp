// pop-open-loop: a PopLab population in SRQ mode, open loop. A steady
// cohort of 10k clients runs at the E8 point (250k rps aggregate,
// bounded-Pareto 64-1024 B payloads, Zipf ops, 5 ms timeout); a short
// burst cohort then pushes past the ack server's capacity so shedding and
// timeouts run. No crypto and no agreement: the sim kernel, the counter
// registries, the allocator, the verbs SRQ and MuxAcceptor do the work.
#include <memory>
#include <string>

#include "bench.hpp"
#include "net/fabric.hpp"
#include "poplab/population.hpp"
#include "sim/simulator.hpp"

namespace perfbench {
namespace {

using namespace rubin;

poplab::PopulationSpec make_spec(std::uint64_t seed, bool smoke) {
  poplab::PopulationSpec spec;
  spec.name = "pop-open-loop";
  spec.seed = seed;
  spec.duration = sim::milliseconds(smoke ? 4 : 120);

  poplab::CohortSpec steady;
  steady.name = "steady";
  steady.clients = smoke ? 500 : 10000;
  steady.arrival.kind = poplab::ArrivalSchedule::Kind::kSteady;
  steady.arrival.base_rps = smoke ? 25000 : 250000;
  steady.op_space = 64;
  steady.zipf_theta = 0.99;
  steady.payload_lo = 64;
  steady.payload_hi = 1024;
  steady.payload_alpha = 1.3;
  steady.timeout = sim::milliseconds(5);
  spec.cohorts.push_back(steady);

  poplab::CohortSpec burst = steady;
  burst.name = "burst";
  burst.clients = smoke ? 50 : 2000;
  burst.start = sim::milliseconds(smoke ? 1 : 10);
  burst.arrival.kind = poplab::ArrivalSchedule::Kind::kBurst;
  burst.arrival.base_rps = smoke ? 1000 : 20000;
  burst.arrival.peak_rps = 2500000;
  burst.arrival.at = sim::milliseconds(smoke ? 3 : 20);  // period
  burst.arrival.width = sim::milliseconds(smoke ? 1 : 2);
  // An impatient cohort: its requests give up while the backlog it
  // created is still draining.
  burst.timeout = sim::milliseconds(smoke ? 0.5 : 2);
  spec.cohorts.push_back(burst);
  return spec;
}

}  // namespace

Iteration run_pop(std::uint64_t seed, bool smoke, Tracer* tracer) {
  const poplab::PopulationSpec spec = make_spec(seed, smoke);
  poplab::PopulationConfig cfg;
  cfg.use_srq = true;
  Iteration it;

  // ---- set-up: devices, QPs, and the connection storm -----------------
  const double t_setup = cpu_seconds();
  sim::Simulator s;
  std::unique_ptr<net::Fabric> fabric;
  std::unique_ptr<poplab::Population> pop;
  {
    Scope sp(tracer, "Population.build");
    fabric = std::make_unique<net::Fabric>(
        s, net::CostModel::roce_10g(),
        poplab::Population::host_count(spec, cfg));
    pop = std::make_unique<poplab::Population>(*fabric, spec, cfg);
  }
  const std::uint32_t clients = spec.total_clients();
  {
    Scope sp(tracer, "Population.connect");
    s.spawn(pop->run());
    while (pop->established() < clients && s.step()) {
    }
  }
  it.setup_s = cpu_seconds() - t_setup;

  // ---- timed ops: the schedule and its drain --------------------------
  reset_counters();
  const std::uint64_t allocs0 = allocation_count();
  const std::uint64_t ev0 = s.events_processed();
  const std::uint64_t frames0 = fabric->frames_delivered();
  const std::uint64_t bytes0 = fabric->bytes_on_wire();
  const double t_run = cpu_seconds();
  {
    Scope sp(tracer, "Population.run");
    s.run();
  }
  it.run_s = cpu_seconds() - t_run;
  const std::uint64_t allocs = allocation_count() - allocs0;
  const std::uint64_t events = s.events_processed() - ev0;
  const Counters counters = snapshot_counters();
  const poplab::PopulationReport r = pop->report();

  // ---- checks ----------------------------------------------------------
  // An op is a request the server handled, acked in time or not: how
  // many the burst's timeouts cut varies with the seed, the work does not.
  it.attempted = r.arrivals;
  it.completed = r.sent;
  if (r.established != r.clients || r.clients != clients) {
    it.error = "pop: " + std::to_string(r.established) + " of " +
               std::to_string(r.clients) + " clients established";
  }
  // Shared receive state must stay below the per-QP provisioning it
  // replaces, on the server and on the client ack path.
  const double per_qp_server =
      static_cast<double>(cfg.per_conn_recv) * static_cast<double>(cfg.buffer_size);
  const double per_qp_client = static_cast<double>(clients) *
                               static_cast<double>(cfg.window) *
                               static_cast<double>(cfg.ack_slot_size);
  if (!(r.server_recv_bytes_per_conn < per_qp_server) ||
      !(static_cast<double>(r.client_receive_state_bytes) < per_qp_client)) {
    it.error = "pop: SRQ receive state is not below per-QP";
  }
  if (r.arrivals != r.sent + r.drops ||
      r.sent != r.completions + r.timeouts || r.completions == 0) {
    it.error = "pop: request accounting does not balance";
  }
  // The burst must overload the ack server, or shedding, timeouts and RNR
  // backpressure drop out of the workload unnoticed.
  const poplab::CohortReport& burst = r.cohorts.back();
  if (burst.timeouts + burst.drops == 0) {
    it.error = "pop: the burst cohort did not overload the server";
  }

  // ---- metrics -----------------------------------------------------------
  Values& x = it.exact;
  const double done = static_cast<double>(r.sent);
  const double arrivals = static_cast<double>(r.arrivals);
  // The steady cohort's request->ack latency: the population's headline
  // latency, with the burst's load on the shared server inside it.
  const poplab::CohortReport& steady = r.cohorts.front();
  const double steady_done = static_cast<double>(steady.completions);
  x["virt_p50_us"] = steady.p50_us;
  x["virt_p99_us"] = shown_p99(steady_done, steady.p99_us);
  x["virt_samples"] = steady_done;
  x["virt_read_p50_us"] = 0;
  x["virt_read_p99_us"] = 0;
  x["virt_read_samples"] = 0;
  x["virt_ops_per_s"] = r.throughput_rps;
  x["failed_frac"] =
      ratio(static_cast<double>(r.timeouts + r.drops), arrivals);
  x["poplab.drop_share"] = ratio(static_cast<double>(r.drops), arrivals);
  x["poplab.timeout_share"] = ratio(static_cast<double>(r.timeouts), arrivals);
  x["poplab.server_recv_bytes_per_conn"] = r.server_recv_bytes_per_conn;
  x["sim.events_per_op"] = ratio(static_cast<double>(events), done);
  x["net.frames_per_op"] =
      ratio(static_cast<double>(fabric->frames_delivered() - frames0), done);
  x["net.wire_bytes_per_op"] =
      ratio(static_cast<double>(fabric->bytes_on_wire() - bytes0), done);
  add_counter_layers(x, counters, done);
  for (const auto& [k, v] : counters) x["count/" + k] = static_cast<double>(v);

  it.host["sim.host_ns_per_event"] =
      ratio(it.run_s * 1e9, static_cast<double>(events));
  it.host["common.allocs_per_op"] = ratio(static_cast<double>(allocs), done);

  // serve() stays suspended on the mux; reap it while `pop` is alive.
  s.terminate_processes();
  return it;
}

}  // namespace perfbench
