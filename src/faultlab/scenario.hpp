// FaultLab scenario layer: declarative fault schedules for BFT runs.
//
// A Scenario bundles a replica-group shape (n, clients, request load), a
// set of config-time Byzantine strategies (replica- and client-side, by
// registry name), and a list of FaultEvents that fire at a virtual
// instant ("at t=20ms, partition the primary") or after a completion
// count ("after 8 commits complete, crash the primary"). Events carry
// FaultActions covering all three injection surfaces:
//   * fabric  — drop/partition/delay/corrupt/duplicate/reorder knobs,
//   * verbs   — QP error transitions and NIC stall windows,
//   * replica — runtime crash or ByzantineStrategy installation.
//
// A scenario is data only, so every one round-trips through the `.fault`
// text format (fault_file.hpp): the corpus lives in `.fault` files and
// the explorer emits failing schedules as replayable artifacts.
//
// Determinism contract: everything a scenario does is driven by virtual
// time and the seeded fabric fault RNG (`seed`) — same Scenario, same
// seed => bit-identical run (the determinism test enforces this).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "reptor/byzantine.hpp"
#include "reptor/byzantine_client.hpp"
#include "reptor/client.hpp"
#include "reptor/replica.hpp"
#include "sim/time.hpp"

namespace rubin::faultlab {

class Lab;

/// One injection: a kind plus the handful of scalar fields
/// the kinds share (`a`/`b` are host ids, `rate` a probability, `t` a
/// duration or delay, `name` a strategy registry name). The static
/// constructors build actions in code; `.fault` text names each kind by
/// one verb (fault_file.hpp). apply() performs the injection through the
/// Lab's surface.
struct FaultAction {
  enum class Kind : std::uint8_t {
    kCrash,          // crash replica a
    kSetStrategy,    // install strategy `name` on replica a
    kDropRate,       // global drop probability = rate
    kCorruptRate,    // global corruption probability = rate
    kDuplicateRate,  // global duplication probability = rate
    kReorder,        // reorder probability = rate, hold-back = t
    kPairDrop,       // extra drop probability on pair (a, b) = rate
    kExtraDelay,     // extra one-way delay t on pair (a, b)
    kOneway,         // block frames a -> b (asymmetric)
    kIsolate,        // partition host a from everyone
    kHeal,           // lift every fabric-level fault
    kNicStall,       // host a's NIC stalls for t
    kQpErrors,       // all of host a's QPs transition to error
  };

  Kind kind = Kind::kHeal;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  double rate = 0.0;
  sim::Time t = 0;
  std::string name;

  void apply(Lab& lab) const;

  static FaultAction crash(std::uint32_t r) {
    return {Kind::kCrash, r, 0, 0.0, 0, {}};
  }
  static FaultAction set_strategy(std::uint32_t r, std::string strategy) {
    return {Kind::kSetStrategy, r, 0, 0.0, 0, std::move(strategy)};
  }
  static FaultAction drop_rate(double p) {
    return {Kind::kDropRate, 0, 0, p, 0, {}};
  }
  static FaultAction corrupt_rate(double p) {
    return {Kind::kCorruptRate, 0, 0, p, 0, {}};
  }
  static FaultAction duplicate_rate(double p) {
    return {Kind::kDuplicateRate, 0, 0, p, 0, {}};
  }
  static FaultAction reorder(double p, sim::Time hold) {
    return {Kind::kReorder, 0, 0, p, hold, {}};
  }
  static FaultAction pair_drop(std::uint32_t a, std::uint32_t b, double p) {
    return {Kind::kPairDrop, a, b, p, 0, {}};
  }
  static FaultAction extra_delay(std::uint32_t a, std::uint32_t b,
                                 sim::Time d) {
    return {Kind::kExtraDelay, a, b, 0.0, d, {}};
  }
  static FaultAction oneway(std::uint32_t src, std::uint32_t dst) {
    return {Kind::kOneway, src, dst, 0.0, 0, {}};
  }
  static FaultAction isolate(std::uint32_t host) {
    return {Kind::kIsolate, host, 0, 0.0, 0, {}};
  }
  static FaultAction heal() { return {Kind::kHeal, 0, 0, 0.0, 0, {}}; }
  static FaultAction nic_stall(std::uint32_t host, sim::Time d) {
    return {Kind::kNicStall, host, 0, 0.0, d, {}};
  }
  static FaultAction qp_errors(std::uint32_t host) {
    return {Kind::kQpErrors, host, 0, 0.0, 0, {}};
  }
};

/// One scheduled injection. `at >= 0` fires at that virtual instant;
/// otherwise `after_completions > 0` fires once that many requests have
/// completed. The payload is the `actions` list, applied in order.
struct FaultEvent {
  sim::Time at = -1;
  std::uint64_t after_completions = 0;
  std::vector<FaultAction> actions;
  /// Restarts the checker's recovery clock: this event marks the instant
  /// after which the protocol is expected to make progress again (a heal,
  /// or the onset of a fault the group must tolerate). Liveness verdict:
  /// the next client completion must land within `liveness_bound` of the
  /// latest such instant.
  bool clears_faults = false;
};

struct Scenario {
  std::string name;
  std::string description;

  // Group shape. f = (n - 1) / 3; clients get host ids n, n+1, ...
  std::uint32_t n = 4;
  std::uint32_t clients = 1;
  /// Requests per client; client c issues ops "add:<c+1>" so the final
  /// counter value is load-dependent and divergence is visible.
  std::uint32_t requests = 25;
  /// Pause between a client's requests. A paced workload spans the fault
  /// window instead of finishing before the first event fires.
  sim::Time request_gap = 0;

  /// Seeds the fabric fault RNG (drop/corrupt/duplicate/reorder dice).
  std::uint64_t seed = 1;

  /// Hard stop for the run (virtual time).
  sim::Time horizon = sim::seconds(2);
  /// Progress must resume within this bound after faults clear.
  sim::Time liveness_bound = sim::milliseconds(500);
  /// False for beyond-envelope scenarios (> f faults): safety is still
  /// checked, liveness is not expected.
  bool expect_liveness = true;

  /// Run with the one-sided fast-path commit substrate (DESIGN.md §12):
  /// the Lab wires a decision-log mesh into the harness and every replica
  /// dual-sends/polls, with the message path as fallback. RUBIN backend
  /// only — ignored on kNio, whose transport has no rings to flip.
  bool one_sided = false;

  /// Base replica configuration (n/f/self are overwritten per replica).
  reptor::ReplicaConfig replica_cfg;
  /// Base client configuration (n/f/self are overwritten per client).
  reptor::ClientConfig client_cfg;

  /// Config-time adversaries: replica id -> strategy registry name
  /// (reptor::make_strategy_by_name builds a fresh instance per run).
  /// These replicas are excluded from the checker's correct set
  /// automatically.
  std::map<reptor::NodeId, std::string> strategies;
  /// Client-side adversaries: client ordinal (0-based, host id = n +
  /// ordinal) -> client strategy registry name. The checker exempts
  /// these clients from the forgery rule — a rogue client's self-signed
  /// junk committing is not a protocol violation; an honest client's
  /// bytes changing is.
  std::map<std::uint32_t, std::string> client_strategies;
  /// Replicas made faulty by *runtime* events (crash actions, mid-run
  /// strategy installs) — list them here so the checker knows up front.
  std::set<reptor::NodeId> runtime_faulty;

  std::vector<FaultEvent> events;

  std::uint32_t f() const noexcept { return (n - 1) / 3; }
  std::uint32_t faulty_count() const noexcept {
    std::set<reptor::NodeId> all = runtime_faulty;
    for (const auto& [id, mk] : strategies) all.insert(id);
    return static_cast<std::uint32_t>(all.size());
  }
};

}  // namespace rubin::faultlab
