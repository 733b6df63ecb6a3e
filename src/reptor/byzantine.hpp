// Pluggable Byzantine behaviours for the Reptor replica (FaultLab).
//
// A ByzantineStrategy intercepts a replica at the protocol boundaries —
// what it proposes, what it broadcasts, what it sends point-to-point,
// what it accepts, and what it does on each timer tick — so one honest
// replica implementation hosts every adversary. Configuration names a
// strategy by its registry name (make_strategy_by_name()).
//
// Determinism contract: strategies must derive all behaviour from the
// hook arguments and their own state — no wall clock, no global RNG. A
// fresh instance per run (strategies are installed via factories) replays
// bit-identically.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "reptor/replica.hpp"

namespace rubin::reptor {

/// Everything a strategy may touch, handed to each hook by the replica.
struct ByzantineEnv {
  sim::Simulator& sim;
  Transport& transport;
  const KeyTable& keys;
  const ReplicaConfig& cfg;
  std::uint64_t view;
};

class ByzantineStrategy {
 public:
  virtual ~ByzantineStrategy() = default;
  virtual const char* name() const noexcept = 0;

  /// Crash-stop: the replica stays on the network but neither processes
  /// inbound traffic nor emits anything.
  virtual bool crashed() const noexcept { return false; }

  /// Primary only, before batching pending requests. Return false to
  /// stall — the silent-primary liveness attack (pending requests are
  /// dropped, backups' watchdogs eventually fire).
  virtual bool should_propose(ByzantineEnv& /*env*/) { return true; }

  /// Primary only, with the built PRE-PREPARE about to be broadcast.
  /// Return false when the strategy sent its own variants (equivocation);
  /// the replica then skips the honest broadcast.
  virtual bool on_pre_prepare(ByzantineEnv& /*env*/, const PrePrepare& /*pp*/) {
    return true;
  }

  /// Primary only, right before the dual-send one-sided publish of an
  /// ordered decision record into the replicas' decision rings
  /// (DESIGN.md §12). The record is the encoded PRE-PREPARE frame and is
  /// sole-owned — mutating it forges the slot content (MAC check at the
  /// reader catches it). Return false when the strategy performed its own
  /// raw ring writes (torn slots, replays, stale-rkey probes); the
  /// replica then skips the honest publish. Only reached when a decision
  /// log is configured.
  virtual bool on_fast_publish(ByzantineEnv& /*env*/, const PrePrepare& /*pp*/,
                               SharedBytes& /*record*/) {
    return true;
  }

  /// Every replica-to-replicas broadcast, after encoding. The frame is
  /// sole-owned here, so in-place mutation (MAC corruption) is safe.
  /// Return false to suppress the send (mute replica).
  virtual bool on_broadcast(ByzantineEnv& /*env*/, const Message& /*m*/,
                            SharedBytes& /*frame*/) {
    return true;
  }

  /// Every point-to-point send (replies to clients, request relays to the
  /// primary, state transfer). Return false to suppress.
  virtual bool on_send(ByzantineEnv& /*env*/, NodeId /*peer*/,
                       SharedBytes& /*frame*/) {
    return true;
  }

  /// Every inbound frame before routing. Return false to drop it unread.
  virtual bool on_inbound(ByzantineEnv& /*env*/, const InboundMsg& /*msg*/) {
    return true;
  }

  /// Once per dispatcher timer pass — where time-driven attacks (message
  /// replay, view-change spam) emit their traffic.
  virtual void on_tick(ByzantineEnv& /*env*/) {}
};

std::shared_ptr<ByzantineStrategy> make_crash();
std::shared_ptr<ByzantineStrategy> make_silent_primary();
std::shared_ptr<ByzantineStrategy> make_equivocating_primary();
std::shared_ptr<ByzantineStrategy> make_corrupt_macs();
/// Processes everything, says nothing: unlike a crash, its PBFT state
/// keeps advancing, so it resumes instantly if "unmuted". Distinct from
/// silent-primary, which only suppresses proposals.
std::shared_ptr<ByzantineStrategy> make_mute();
/// Records its own authentic broadcasts and periodically replays them —
/// valid MACs, stale content; tests the protocol's dedup/idempotence.
std::shared_ptr<ByzantineStrategy> make_replayer();
/// Spams VIEW-CHANGE messages for the current (stale) and next
/// (premature) view every few ticks. A lone spammer must never move the
/// group: joining needs f+1 and completing needs 2f+1.
std::shared_ptr<ByzantineStrategy> make_stale_view_spammer();

/// How a Byzantine primary abuses the one-sided fast path (DESIGN.md
/// §12). Every mode must leave safety untouched: correct replicas either
/// reject the slot at the MAC layer or never consume it, and the message
/// path (which the primary still serves) commits every sequence.
enum class FastPathAbuse {
  kForge,      // well-framed garbage instead of the authentic record
  kTorn,       // authentic record, deliberately broken canary
  kReplay,     // keeps re-writing the first record over its old slot
  kStaleRkey,  // once deposed, keeps writing through the revoked grant
};
std::shared_ptr<ByzantineStrategy> make_fastpath_abuser(FastPathAbuse mode);

/// Builds a fresh strategy by its registry name — the name() string each
/// strategy reports: "crash", "silent-primary", "equivocating-primary",
/// "corrupt-macs", "mute", "replayer", "stale-view-spammer",
/// "fastpath-forge", "fastpath-torn", "fastpath-replay",
/// "fastpath-stale-rkey". Returns nullptr for an unknown name. This is
/// what makes scenarios *data*: a `.fault` file stores the name, the Lab
/// builds a fresh instance per run.
std::shared_ptr<ByzantineStrategy> make_strategy_by_name(
    const std::string& name);

}  // namespace rubin::reptor
