// FaultLab Explorer: systematic schedule-space search with
// auto-minimization (DESIGN.md §14).
//
// The deterministic simulator makes every run a pure function of
// (Scenario, perturbations). The explorer exploits that: it enumerates
// perturbations of a base scenario — fault-RNG seed sweeps, extra
// drop/reorder/duplicate dice, fault-action timing jitter, and targeted
// delivery-order swaps at fabric decision points — runs each candidate
// under the Checker, and deduplicates equivalent executions by a trace
// digest folded over every fabric decision point. Swap branches are
// DPOR-flavored: only commute-breaking pairs (two near-simultaneous
// frames into the same destination from different sources) spawn a
// branch, because commuting deliveries provably reach the same state.
//
// Any schedule the Checker rules a violation is auto-minimized:
// delta-debugging first drops whole perturbations, then shrinks the
// magnitudes of the survivors — and the result is written as a
// replayable artifact (the scenario's `.fault` text plus `perturb`
// lines) that `faultexplore --replay` reproduces bit-identically.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "faultlab/lab.hpp"
#include "faultlab/scenario.hpp"

namespace rubin::faultlab {

/// One schedule perturbation. A schedule is a (small) vector of these
/// applied on top of a base scenario.
struct Perturbation {
  enum class Kind : std::uint8_t {
    kSeed,           // replace the fault-RNG seed with `arg`
    kDropRate,       // extra global drop dice at `rate` from t=0
    kReorderRate,    // extra reorder dice at `rate`, hold-back `t`
    kDuplicateRate,  // extra duplication dice at `rate` from t=0
    kFrameDelay,     // +`t` delivery delay on fabric decision point `arg`
    kEventJitter,    // shift fault event `arg`'s instant by signed `t`
  };

  Kind kind = Kind::kSeed;
  std::uint64_t arg = 0;
  double rate = 0.0;
  sim::Time t = 0;

  static Perturbation seed(std::uint64_t s) {
    return {Kind::kSeed, s, 0.0, 0};
  }
  static Perturbation drop(double p) { return {Kind::kDropRate, 0, p, 0}; }
  static Perturbation reorder(double p, sim::Time hold) {
    return {Kind::kReorderRate, 0, p, hold};
  }
  static Perturbation duplicate(double p) {
    return {Kind::kDuplicateRate, 0, p, 0};
  }
  static Perturbation frame_delay(std::uint64_t index, sim::Time extra) {
    return {Kind::kFrameDelay, index, 0.0, extra};
  }
  static Perturbation event_jitter(std::uint64_t event, sim::Time delta) {
    return {Kind::kEventJitter, event, 0.0, delta};
  }
};

/// Outcome of running one perturbed schedule.
struct ScheduleResult {
  std::vector<Perturbation> perturbations;
  Report report;
  /// FNV fold over every fabric decision point (src, dst, bytes,
  /// arrival, dropped) — the execution's identity.
  std::uint64_t trace_digest = 0;
  /// Dedup key: trace digest mixed with the commit digest and verdict
  /// bits, so a violating schedule never collapses with a passing one.
  std::uint64_t schedule_key = 0;
  bool violation = false;
};

struct ExploreOptions {
  /// Max exploration runs per scenario (baseline included; minimization
  /// runs are extra and unbounded — failures are expected to be rare).
  std::uint32_t budget = 200;
  /// Fault-RNG reseeds. Kept small: on a scenario with no dice armed
  /// every reseed replays the identical schedule (pure dedup hits).
  std::uint32_t seed_sweeps = 8;
  std::uint32_t swap_limit = 160;          // delivery-order swap branches
  sim::Time swap_window = sim::microseconds(50);  // commute-break horizon
  bool minimize = true;
  /// Seeds the (deterministic) combo generator — exploration itself
  /// never reads unseeded randomness.
  std::uint64_t rng_seed = 0x5eedFAB5ULL;
};

struct ExploreReport {
  std::string scenario;
  std::uint64_t runs = 0;               // exploration runs executed
  std::uint64_t unique_schedules = 0;   // distinct schedule keys
  std::uint64_t dedup_hits = 0;         // runs folded into a prior key
  std::uint64_t violations = 0;         // unique violating schedules
  std::uint64_t minimization_runs = 0;  // extra runs spent shrinking
  std::uint64_t baseline_trace = 0;
  std::uint64_t baseline_commit = 0;
  /// One entry per unique violation, already minimized when
  /// ExploreOptions::minimize is set.
  std::vector<ScheduleResult> failures;
};

class Explorer {
 public:
  explicit Explorer(ExploreOptions opts = {}) : opts_(opts) {}

  /// Explores perturbations of `base` within the run budget.
  ExploreReport explore(const Scenario& base);

  /// Runs `base` under `ps` once. Deterministic: same inputs, same
  /// ScheduleResult bit-for-bit (the replay path and tests lean on it).
  /// When `record` is set, every fabric decision point is appended to it.
  ScheduleResult run_schedule(
      const Scenario& base, std::vector<Perturbation> ps,
      std::vector<net::Fabric::FramePoint>* record = nullptr);

  /// Delta-debugs a failing schedule: drops perturbations while the
  /// violation persists, then shrinks magnitudes. Returns the smallest
  /// still-failing result found; counts its runs into `minimization_runs`.
  ScheduleResult minimize(const Scenario& base, ScheduleResult failing,
                          std::uint64_t* minimization_runs = nullptr);

 private:
  ExploreOptions opts_;
};

// ------------------------------------------------- replayable artifacts --

/// A failing schedule as data: the scenario, the perturbation list, and
/// the digests the replay must reproduce.
struct Artifact {
  Scenario scenario;
  std::vector<Perturbation> perturbations;
  std::uint64_t trace_digest = 0;
  std::uint64_t commit_digest = 0;
};

/// Serializes a schedule as a replayable artifact (scenario `.fault`
/// block + `perturb` + `expect` lines).
std::string to_artifact_text(const Scenario& base, const ScheduleResult& r);

/// Parses an artifact with the shared line reader (common/text_reader.hpp).
/// Throws std::invalid_argument naming the line on malformed input:
/// out-of-range rates, fractional indices and malformed digests included.
Artifact parse_artifact_text(std::string_view text);
Artifact load_artifact(const std::string& path);

}  // namespace rubin::faultlab
