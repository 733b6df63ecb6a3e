// FaultLab runner: executes one Scenario against a BftHarness and
// returns the checker's verdict plus run statistics.
//
// The Lab builds the replica group (installing config-time strategies
// through fresh factory instances), wires every replica's commit log and
// every client completion into the Checker, schedules the scenario's
// FaultEvents (timed ones on the simulator, completion-count ones on a
// watcher coroutine that polls every 100us), and drives the clients
// until every request completes or the horizon passes.
//
// FaultAction::apply receives the Lab itself and injects through its
// accessors:
//   lab.fabric().set_corrupt_rate(0.05);
//   lab.device(0).inject_nic_stall(sim::milliseconds(30));
//   lab.replica(3).inject_crash();
//   lab.isolate(0);  lab.heal_fabric();
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "faultlab/checker.hpp"
#include "faultlab/scenario.hpp"
#include "workloads/bft_harness.hpp"

namespace rubin::faultlab {

struct Report {
  std::string name;
  std::uint32_t n = 0;
  std::uint32_t f = 0;
  std::uint32_t faulty = 0;
  bool expect_liveness = true;
  Verdict verdict;

  std::uint64_t completions = 0;
  std::uint64_t expected_completions = 0;
  std::uint64_t client_retries = 0;
  std::uint64_t final_view = 0;  // max view among correct replicas
  sim::Time finished_at = -1;    // virtual time the run ended

  // Fabric fault-injection counters for the run.
  std::uint64_t frames_dropped = 0;
  std::uint64_t frames_corrupted = 0;
  std::uint64_t frames_duplicated = 0;
  std::uint64_t frames_reordered = 0;

  bool passed() const { return verdict.accept(expect_liveness); }
};

class Lab {
 public:
  explicit Lab(Scenario scenario,
               reptor::Backend backend = reptor::Backend::kRubin);
  ~Lab();

  /// Runs the scenario to completion (all requests done or horizon
  /// reached) and returns the verdict. Call once per Lab.
  Report run();

  // ------------------------------------------------- injection surface --
  sim::Simulator& sim() { return harness_->sim(); }
  net::Fabric& fabric() { return harness_->fabric(); }
  verbs::Device& device(net::HostId host) { return harness_->device(host); }
  reptor::Replica& replica(reptor::NodeId id) { return harness_->replica(id); }
  reptor::BftHarness& harness() { return *harness_; }

  /// Partitions `host` from every other host (replicas and clients).
  void isolate(net::HostId host);
  /// Lifts every fabric-level fault: partitions, pair drops, extra
  /// delays, and all global fault rates.
  void heal_fabric();

  /// Per-request end-to-end latencies (us), in completion order across
  /// all clients — benches slice these around fault instants.
  const std::vector<double>& latencies_us() const noexcept {
    return latencies_us_;
  }

 private:
  sim::Task<void> client_driver(reptor::Client& client,
                                reptor::NodeId self, std::uint32_t requests,
                                std::uint64_t add);
  sim::Task<void> completion_watcher();
  void fire(FaultEvent& e);

  Scenario scenario_;
  reptor::Backend backend_;
  std::unique_ptr<reptor::BftHarness> harness_;
  std::optional<Checker> checker_;
  std::vector<bool> fired_;
  std::uint64_t completions_ = 0;
  std::uint64_t expected_ = 0;
  std::vector<double> latencies_us_;
  bool ran_ = false;
};

}  // namespace rubin::faultlab
