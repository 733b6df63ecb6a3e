// PBFT replica with Consensus-Oriented Parallelization (COP).
//
// Protocol: Castro & Liskov's PBFT with MAC authenticators — the
// agreement protocol Reptor implements (paper §II-C):
//   REQUEST -> PRE-PREPARE -> PREPARE (2f) -> COMMIT (2f+1) -> execute ->
//   REPLY, plus checkpoints for garbage collection and view changes for
//   primary failure. Requests are batched (paper §II-B: "requests in BFT
//   protocols are often batched").
//
// COP: agreement work for sequence number s is handled by lane s % P,
// each lane a coroutine charging its own (virtual) core for MAC
// verification and protocol bookkeeping — P lanes progress concurrently,
// while execution stays totally ordered, mirroring Behl et al.'s design.
//
// Simplifications vs. the original paper, chosen to keep the protocol
// honest without reproducing every sub-protocol (documented in DESIGN.md):
//   * VIEW-CHANGE messages carry the full batches of prepared requests
//     (not just digests + per-message certificates);
//   * NEW-VIEW validity is checked structurally (digest/batch match),
//     not re-derived from the carried view-change certificates.
//
// State transfer IS implemented: a replica whose execution falls behind
// the group's stable checkpoint (e.g. after a partition) requests a
// snapshot from a peer and installs it only if its digests match a
// checkpoint certificate with 2f+1 votes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "reptor/costs.hpp"
#include "reptor/messages.hpp"
#include "reptor/state_machine.hpp"
#include "reptor/transport.hpp"
#include "sim/event.hpp"
#include "sim/mailbox.hpp"
#include "sim/simulator.hpp"

namespace rubin::nio {
class DecisionLog;
}  // namespace rubin::nio

namespace rubin::reptor {

class ByzantineStrategy;

struct ReplicaConfig {
  std::uint32_t n = 4;
  std::uint32_t f = 1;
  NodeId self = 0;
  std::uint32_t batch_size = 10;
  sim::Time batch_timeout = sim::microseconds(100);
  std::uint64_t window = 128;
  std::uint64_t checkpoint_interval = 64;
  sim::Time view_change_timeout = sim::milliseconds(20);
  /// Retry interval for the state-transfer sub-protocol (a lagging
  /// replica re-asks a different peer if no usable snapshot arrives).
  sim::Time state_transfer_retry = sim::milliseconds(2);
  std::uint32_t pipelines = 1;  // COP lanes (== cores devoted to agreement)
  /// One-sided fast-path commit (DESIGN.md §12): when set, the primary
  /// RDMA-writes each proposal into every replica's decision-log ring
  /// *in addition to* the ordinary PRE-PREPARE broadcast (dual-send), and
  /// a per-replica poller commits on 2f+1 one-sided endorsements — often
  /// a full message delay before the three-phase path. Null (the default)
  /// reproduces every pre-existing configuration bit-identically. Not
  /// owned; must outlive the replica's coroutines.
  nio::DecisionLog* decision_log = nullptr;
  ProtocolCosts costs;
  /// Byzantine behaviour from the start (null: honest). Build one with
  /// make_strategy_by_name(); a fresh instance per run keeps replays
  /// identical.
  std::shared_ptr<ByzantineStrategy> strategy;
};

struct ReplicaStats {
  std::uint64_t requests_executed = 0;
  std::uint64_t batches_committed = 0;
  /// Batches committed by the one-sided fast path (subset of
  /// batches_committed) — the bench's proof the accelerator actually ran.
  std::uint64_t fast_commits = 0;
  std::uint64_t view_changes = 0;
  std::uint64_t checkpoints_stable = 0;
  std::uint64_t state_transfers = 0;
  std::uint64_t messages_handled = 0;
  std::uint64_t auth_failures = 0;
};

class Replica {
 public:
  Replica(sim::Simulator& sim, std::unique_ptr<Transport> transport,
          KeyTable keys, std::unique_ptr<StateMachine> app,
          ReplicaConfig cfg);
  ~Replica();

  /// The replica's main coroutine: transport start + dispatcher loop.
  /// Runs until stop().
  sim::Task<void> run();
  void stop() noexcept { running_ = false; }

  /// Crash-stops the replica *now* (fault-injection while running): it
  /// keeps draining the network silently but never speaks again.
  /// Equivalent to set_strategy(make_crash()).
  void inject_crash();
  bool crashed() const noexcept;

  /// Installs (or clears, with nullptr) the Byzantine behaviour at
  /// runtime. FaultLab scenarios use this to turn a replica adversarial
  /// mid-run.
  void set_strategy(std::shared_ptr<ByzantineStrategy> strategy);
  const ByzantineStrategy* strategy() const noexcept {
    return strategy_.get();
  }

  /// Observer invoked whenever a committed batch is about to execute:
  /// (sequence, the accepted PRE-PREPARE). FaultLab's checker records
  /// per-replica commit logs through this without touching protocol state.
  using CommitObserver =
      std::function<void(std::uint64_t seq, const PrePrepare& pp)>;
  void set_commit_observer(CommitObserver obs) {
    commit_observer_ = std::move(obs);
  }

  /// Observer invoked when the primary assigns a sequence number to a
  /// batch (fires before any broadcast or decision-log write). Paired
  /// with the commit observer it yields per-sequence propose-to-commit
  /// latency — the message-delay metric of bench_bft_e2e.
  using ProposeObserver =
      std::function<void(std::uint64_t seq, const PrePrepare& pp)>;
  void set_propose_observer(ProposeObserver obs) {
    propose_observer_ = std::move(obs);
  }

  // ------------------------------------------------------ introspection --
  std::uint64_t view() const noexcept { return view_; }
  bool is_primary() const noexcept { return primary_of(view_) == cfg_.self; }
  std::uint64_t last_executed() const noexcept { return last_executed_; }
  std::uint64_t stable_checkpoint() const noexcept { return stable_; }
  const ReplicaStats& stats() const noexcept { return stats_; }
  const StateMachine& app() const noexcept { return *app_; }
  const Transport& transport() const noexcept { return *transport_; }

 private:
  struct LogEntry {
    std::uint64_t view = 0;
    std::optional<PrePrepare> pp;
    /// Votes keyed by digest: PREPARE/COMMIT messages may arrive before
    /// the PRE-PREPARE, and a Byzantine peer may vote for a digest that
    /// never materializes — only votes matching the accepted digest count.
    std::map<Digest, std::set<NodeId>> prepares;
    std::map<Digest, std::set<NodeId>> commits;
    bool prepared = false;
    bool committed = false;
    bool executed = false;
    /// One-sided fast path (DESIGN.md §12). The record this replica
    /// authenticated from its decision-log ring and endorsed (acked) —
    /// deliberately separate from `pp` so the message path runs
    /// completely undisturbed underneath; the two are reconciled only at
    /// fast commit, where a digest conflict suspends the fast path
    /// instead of committing. A fast-acked entry is carried in
    /// VIEW-CHANGE proofs exactly like a prepared one: the 2f+1-endorser
    /// commit rule needs every endorsement to survive into the next view.
    std::optional<PrePrepare> fast_pp;
    bool fast_acked = false;
  };

  NodeId primary_of(std::uint64_t v) const noexcept {
    return static_cast<NodeId>(v % cfg_.n);
  }
  bool in_window(std::uint64_t seq) const noexcept {
    return seq > stable_ && seq <= stable_ + cfg_.window;
  }

  /// A frame on its way to the lane that owns it, with the dispatcher's
  /// parse of it (an empty frame is the lanes' shutdown sentinel).
  struct Routed {
    SharedBytes frame;
    ParsedFrame parsed;
  };

  // Dispatcher side.
  sim::Task<void> dispatcher_loop();
  void route(InboundMsg msg);
  /// COP routing function: which lane owns this message. Sequence-carrying
  /// messages go to lane seq % pipelines, requests spread by sender; the
  /// lane handles route's own parse, so it always owns what it handles.
  std::uint32_t lane_for(const Envelope& env) const noexcept;
  sim::Time next_timeout() const;
  sim::Task<void> handle_timers();
  sim::Task<void> lanes_idle();

  // Lane side (each handler charges its own CPU costs).
  sim::Task<void> lane_loop(std::uint32_t lane);
  sim::Task<void> handle_frame(Routed routed);
  sim::Task<void> handle_request(const Envelope& env, const SharedBytes& frame);
  sim::Task<void> handle_pre_prepare(const Envelope& env);
  void handle_prepare(const Envelope& env);
  void handle_commit(const Envelope& env);
  void handle_checkpoint(const Envelope& env);
  void handle_checkpoint_quorum(std::uint64_t seq,
                                const std::pair<Digest, Digest>& digests);
  void handle_state_request(const Envelope& env);
  sim::Task<void> handle_state_response(const Envelope& env);
  void handle_view_change(const Envelope& env);
  sim::Task<void> handle_new_view(const Envelope& env);

  // One-sided fast path (runs only when cfg_.decision_log is set).
  sim::Task<void> decision_poll_loop();
  sim::Task<void> fast_poll_once();
  sim::Task<void> fast_commit_scan();
  sim::Task<void> maybe_fast_commit(std::uint64_t seq);
  /// The poller's idle test (sim::Simulator::idle_wait): true when the
  /// iteration at `phase` of the probing or the waiting step pattern would
  /// only sleep. Pure.
  bool fast_poll_idle(bool probing, std::uint32_t phase) const;
  /// True when fast_commit_scan would commit a sequence now.
  bool fast_commit_due() const;
  void suspend_fast_path();

  // Protocol actions.
  sim::Task<void> propose_batch();
  void try_prepare(std::uint64_t seq);
  void try_commit(std::uint64_t seq);
  sim::Task<void> execute_ready();
  void send_to_replicas(Message m);
  /// Sends `m`'s encoded frame to every replica, via the broadcast hook.
  void broadcast(const Message& m, SharedBytes frame);
  void send_to(NodeId peer, Message m);
  void start_view_change(std::uint64_t target);
  void maybe_complete_view_change(std::uint64_t target);
  /// A sequence re-issued by a NEW-VIEW that this replica already decided
  /// (committed or executed): re-send PREPARE+COMMIT for it in view `v`
  /// so lagging peers can re-form their quorum. Returns true when the
  /// sequence was decided here and needs no fresh agreement.
  bool reaffirm_decided(std::uint64_t v, const PrePrepare& pp);
  void enter_view(std::uint64_t v);
  void arm_vc_timer();
  void disarm_vc_timer();

  // State transfer (catch-up after falling behind the stable checkpoint).
  void maybe_request_state();

  sim::Simulator* sim_;
  std::unique_ptr<Transport> transport_;
  KeyTable keys_;
  std::unique_ptr<StateMachine> app_;
  ReplicaConfig cfg_;
  bool running_ = true;
  std::shared_ptr<ByzantineStrategy> strategy_;  // null == honest
  CommitObserver commit_observer_;
  ProposeObserver propose_observer_;

  // One-sided fast path.
  /// Next ring slot the poller will probe (followers; resynced forward
  /// whenever the message path overtakes it).
  std::uint64_t fast_expect_ = 1;
  /// The (seq, view) the poller's probe reads, fixed at the probe's
  /// phase 0: a parked poller that wakes after its probe reads these.
  std::uint64_t probe_seq_ = 0;
  std::uint64_t probe_view_ = 0;
  /// Cleared when a slot fails validation: the fast path stays suspended
  /// — pure message path — until the next view change re-arms it.
  bool fast_ok_ = true;
  /// Re-entrancy latch for execute_ready, which is reachable from both
  /// the dispatcher and the decision poller.
  bool executing_ = false;
  bool poller_exited_ = true;
  sim::Event poller_exited_evt_;

  // Protocol state.
  std::uint64_t view_ = 0;
  std::uint64_t next_seq_ = 1;  // primary only
  std::uint64_t last_executed_ = 0;
  std::uint64_t stable_ = 0;
  std::map<std::uint64_t, LogEntry> log_;
  ClientTable clients_;
  std::vector<Request> pending_;  // requests awaiting proposal (primary)
  /// Requests this backup forwarded to the primary and has not yet seen
  /// executed — the PBFT "is the primary alive?" watchdog input.
  std::set<std::pair<NodeId, std::uint64_t>> awaiting_;
  sim::Time batch_deadline_ = -1;

  // Checkpoints: seq -> (state digest, client-table digest) -> voters.
  std::map<std::uint64_t,
           std::map<std::pair<Digest, Digest>, std::set<NodeId>>>
      checkpoints_;
  /// Snapshots this replica took at its own recent checkpoints, served to
  /// lagging peers: seq -> (app snapshot, client table).
  std::map<std::uint64_t, std::pair<Bytes, Bytes>> stored_checkpoints_;
  /// Checkpoint digests that reached a 2f+1 quorum — the only snapshots a
  /// state transfer will install.
  std::map<std::uint64_t, std::pair<Digest, Digest>> proven_checkpoints_;
  /// The newest checkpoint vote this replica broadcast. Checkpoint
  /// messages lost in flight are otherwise never retransmitted, and a
  /// group whose stable checkpoint cannot advance can neither
  /// garbage-collect nor serve state transfers — so view entry re-sends
  /// this vote while it is still ahead of the stable point.
  std::optional<Checkpoint> last_checkpoint_;
  sim::Time next_state_request_ = -1;
  std::uint32_t state_request_attempts_ = 0;

  // View change: target view -> sender -> their VIEW-CHANGE.
  bool in_view_change_ = false;
  std::uint64_t vc_target_ = 0;
  std::map<std::uint64_t, std::map<NodeId, ViewChange>> vc_msgs_;
  std::set<std::uint64_t> new_view_sent_;
  sim::Time vc_deadline_ = -1;

  // COP lanes.
  std::vector<std::unique_ptr<sim::Mailbox<Routed>>> lane_in_;
  std::vector<bool> lane_busy_;
  sim::Event lanes_idle_evt_;
  std::uint32_t lanes_exited_ = 0;
  sim::Event lanes_exited_evt_;
  bool outstanding_work() const;

  ReplicaStats stats_;
};

/// Known-bad regression switches for the FaultLab explorer's self-test:
/// each flag reverts a real, previously-shipped bug so the schedule
/// search can prove it would have found it. Production code never reads
/// these outside the single guarded line per flag; tests must restore
/// them to false.
namespace test_hooks {
/// Reverts the PR 4 view-change fix: replicas that already decided a
/// re-issued sequence skip the PREPARE+COMMIT re-affirmation, so peers
/// that lost the original quorum traffic can never commit it in the new
/// view — a liveness bug under partition + view-change schedules.
extern bool disable_reaffirm_decided;
}  // namespace test_hooks

}  // namespace rubin::reptor
