// DecisionLog — the one-sided fast-path commit substrate (DESIGN.md §12).
//
// The paper's measured system keeps agreement traffic on two-sided
// send/receive (§III-A); Aguilera et al. ("The Impact of RDMA on
// Agreement") showed what the alternative buys: the primary RDMA-writes
// ordered decision records straight into every replica's memory and
// *memory permissions* — not message counting — bound what a deposed
// primary can do. This class reproduces that design as an opt-in
// accelerator next to the existing message path:
//
//   * every replica exposes a per-view decision ring (slot_count slots);
//     the current primary writes one framed record per sequence number
//     into slot seq % slot_count of every peer's ring;
//   * replicas poll their ring (there is nothing to block on — the same
//     limitation as OneSidedChannel) and, after authenticating a record,
//     endorse it by RDMA-writing a 16-byte (seq, tag) ack cell into every
//     peer's ack table. Ack cells double as flow-control credits: the
//     primary reuses ring slot s for seq only after seeing the target's
//     ack for seq - slot_count in that same cell, or the target's
//     consumed cell at or past it (a follower the message path overtook
//     skips sequences it never acks);
//   * at a view change the ring's rkey is *flipped* via
//     Device::flip_write_permission — revocation is instantaneous, the
//     grant pays the NIC re-programming charge — so the deposed primary
//     physically loses write access (its next write completes with
//     kRemoteAccessError and its QP breaks) before the new primary gains
//     it.
//
// Authentication is layered, not assumed: records are the *same*
// MAC-authenticated PRE-PREPARE frames the message path broadcasts (the
// primary encodes each proposal once for both), so a forged slot fails
// the MAC check (parse_frame, then authentic) exactly like a forged
// message. Ack cells are unforgeable by placement: each peer writes
// through an rkey that maps only its own table region, so replica r's
// cells can only have been written by r. The framing adds a trailing
// canary so a torn write is detected as "not arrived yet" rather than
// consumed half-written.
//
// Safety is never carried by this class. The replica layer commits on
// 2f + 1 endorsements (itself plus matching ack cells), any two such
// quorums intersect in an honest replica, and every endorsement marks the
// entry as view-change-carried — but the unconditional fallback is the
// ordinary message path, which keeps running underneath (the primary
// dual-sends every proposal). Anything unexpected in a slot suspends the
// fast path until the next view; it never blocks agreement.
//
// Group bootstrap mirrors OneSidedChannel::create_pair: rings, ack tables
// and QPs are wired in-process (production would exchange the addresses
// through the CM / NEW-VIEW messages). The per-view rkey handover uses
// the same management-plane shortcut: the primary queries a peer's
// current grant and gets it only once that peer's flip for the view has
// completed — before that the slot is simply bypassed and the message
// path carries the sequence.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/shared_bytes.hpp"
#include "rubin/context.hpp"
#include "sim/task.hpp"
#include "verbs/device.hpp"

namespace rubin::nio {

struct DecisionLogConfig {
  std::uint32_t slot_count = 32;
  /// Largest encoded decision record (a PRE-PREPARE frame) a slot holds.
  std::size_t slot_payload = 8 * 1024;
  /// Replica poll granularity: a record is noticed, in expectation, half
  /// an interval after it lands (the ablation knob of bench_bft_e2e).
  sim::Time poll_interval = sim::microseconds(0.5);
};

struct DecisionLogStats {
  std::uint64_t records_published = 0;  // one per (seq, peer) write posted
  /// Peer skipped; the transport.onesided.bypass.* counters split it by
  /// reason (no_grant, no_credit, post).
  std::uint64_t bypasses = 0;
  std::uint64_t acks_sent = 0;          // one per (seq, peer) ack posted
  std::uint64_t cell_post_failures = 0; // ack/consumed writes not posted
  std::uint64_t torn_slots = 0;
  std::uint64_t stale_slots = 0;
  std::uint64_t write_naks = 0;         // kRemoteAccessError completions seen
  std::uint64_t permission_flips = 0;
};

/// A validated slot as handed to the replica layer. `record` is the
/// MAC-authenticated frame; the caller still parses and authenticates it
/// (decode_verified).
struct DecisionRecord {
  std::uint64_t seq = 0;
  std::uint64_t view = 0;
  /// Primary's virtual clock at publish (carried for the message-delay
  /// accounting of bench_bft_e2e; replicas treat it as advisory).
  sim::Time proposed_at = 0;
  SharedBytes record;
};

enum class SlotStatus : std::uint8_t {
  kEmpty,     // nothing (new) for this sequence yet
  kStale,     // a record for this seq from an older view (replay/leftover)
  kTorn,      // header matches but the canary does not: treat as in-flight
  kBadFrame,  // framing that no honest primary produces: suspend fast path
  kReady,     // framed record extracted; authenticate and endorse it
};

class DecisionLog {
 public:
  /// Slot framing constants (exposed for the adversarial tests).
  static constexpr std::size_t kHeaderBytes = 32;  // seq|view|proposed_at|len
  static constexpr std::size_t kCanaryBytes = 8;
  static constexpr std::size_t kAckCellBytes = 16;  // seq | tag
  /// Per-peer "consumed up to" seq, after the peer's slot_count ack cells.
  static constexpr std::size_t kConsumedCellBytes = 8;

  /// Wires a full mesh: one decision log per context, QPs between every
  /// pair, rings and ack tables registered and their addresses exchanged
  /// in-process. Every log starts granted to view 0's primary.
  static std::vector<std::unique_ptr<DecisionLog>> create_group(
      const std::vector<RubinContext*>& ctxs, DecisionLogConfig cfg = {});

  std::uint32_t index() const noexcept { return self_; }
  std::uint32_t group_size() const noexcept {
    return static_cast<std::uint32_t>(group_.size());
  }
  const DecisionLogConfig& config() const noexcept { return cfg_; }
  const DecisionLogStats& stats() const noexcept { return stats_; }

  // ---------------------------------------------------- view lifecycle --
  /// Rotates the ring's write permission for `view`: the previous rkey is
  /// revoked before this coroutine first suspends, the fresh grant is
  /// visible (via grant_for) only after the NIC re-programming charge.
  sim::Task<void> enter_view(std::uint64_t view);

  /// The view this ring currently accepts writes for.
  std::uint64_t granted_view() const noexcept { return granted_view_; }

  /// Management-plane rkey handover: the grant for `view`, or nullopt
  /// while this replica's flip for that view has not completed (callers
  /// bypass the fast path for the sequence instead of waiting).
  std::optional<std::uint32_t> grant_for(std::uint64_t view) const noexcept {
    if (granted_view_ != view) return std::nullopt;
    return ring_.mr()->rkey();
  }

  // ------------------------------------------------------ primary side --
  /// RDMA-writes the framed record into every peer's ring slot
  /// seq % slot_count. Per peer, the write happens only if (a) the peer's
  /// flip for `view` completed and (b) the slot's previous occupant was
  /// acked or consumed (flow control); a failed post also falls back.
  /// Returns how many peers were written; the remainder ride the message
  /// path (the caller dual-sends regardless).
  sim::Task<std::uint32_t> publish(std::uint64_t seq, std::uint64_t view,
                                   sim::Time proposed_at, SharedBytes record);

  // ------------------------------------------------------ replica side --
  /// Polls the local ring slot for `seq` as of `view`: one probe charge,
  /// then read_slot.
  sim::Task<SlotStatus> poll_slot(std::uint64_t seq, std::uint64_t view,
                                  DecisionRecord& out);
  /// CPU charge of one probe: a cache-line read, like the mailbox poll of
  /// OneSidedChannel::read.
  sim::Time probe_cost() const noexcept { return ctx_->cost().post_call_cpu; }
  /// Reads the local ring slot for `seq` as of `view` at the current
  /// instant; what a probe finds once its charge is paid. kReady extracts
  /// the record (one receive-side copy, charged); every other status
  /// costs no time. See SlotStatus for the fallback contract per value.
  sim::Task<SlotStatus> read_slot(std::uint64_t seq, std::uint64_t view,
                                  DecisionRecord& out);
  /// True when read_slot(seq, ·) would return kEmpty: nothing for `seq`
  /// has landed. Pure, so a parked poller's idle test can call it.
  bool slot_empty(std::uint64_t seq) const noexcept;

  /// Endorses (seq, tag): writes the 16-byte ack cell into every peer's
  /// ack table (small inline RDMA WRITEs — no staging, and a completion
  /// only when the QP's signaling rule asks for one). tag is the record
  /// digest truncated to 64 bits.
  sim::Task<void> ack(std::uint64_t seq, std::uint64_t tag);

  /// A follower the message path overtook: publishes "consumed up to
  /// `seq`" into this replica's consumed cell in every peer's ack table.
  /// The skipped sequences never get an ack, so without this their slot
  /// indices would lose credit for the rest of the view.
  sim::Task<void> consumed(std::uint64_t seq);

  /// Distinct peers whose ack cell for `seq` matches (seq, tag) — the
  /// remote endorsements of the commit rule. Cells are authenticated by
  /// placement: peer p's table region accepts only p's rkey.
  std::uint32_t acks_for(std::uint64_t seq, std::uint64_t tag) const;

  /// Drains this log's send CQ, counting kRemoteAccessError completions
  /// (a revoked-rkey write bouncing off a flipped ring). publish() calls
  /// it; the deposed-primary tests call it directly.
  std::size_t drain_completions();

  // ------------------------------------------- attack / test surface ----
  /// What an attacker needs (§III-C exposure accounting).
  std::uint32_t ring_rkey() const noexcept { return ring_.mr()->rkey(); }
  std::uint64_t ring_addr() const noexcept { return ring_.mr()->addr(); }
  std::size_t exposed_bytes() const noexcept;

  /// Management-plane grant query for `peer`'s ring as of `view` — the
  /// same handover publish() uses internally; nullopt while the peer's
  /// flip for that view is pending. Byzantine strategies use it to forge
  /// with a *valid* key, which is exactly the §III-C threat model.
  std::optional<std::uint32_t> peer_grant(std::uint32_t peer,
                                          std::uint64_t view) const {
    return group_[peer]->grant_for(view);
  }

  /// The last ring rkey this node obtained for `peer` through a publish —
  /// stale the moment the peer flips. The deposed-primary strategy keeps
  /// writing through it to demonstrate the NAK.
  std::uint32_t cached_grant(std::uint32_t peer) const noexcept {
    return cached_rkey_[peer];
  }

  /// FaultLab: posts a raw RDMA WRITE of `bytes` at byte `offset` of
  /// `peer`'s ring, through `rkey` (default: the cached grant, however
  /// stale). This is the Byzantine primary's pen: forged slots, torn
  /// writes, replays and revoked-key probes are all built on it.
  sim::Task<verbs::PostResult> raw_write(std::uint32_t peer,
                                         std::uint64_t offset,
                                         SharedBytes bytes,
                                         std::optional<std::uint32_t> rkey = {});

  /// Builds a fully framed slot image (header | payload | canary). A
  /// corrupt canary models the torn write.
  static SharedBytes make_slot(std::uint64_t seq, std::uint64_t view,
                               sim::Time proposed_at, ByteView payload,
                               bool valid_canary = true);

  static std::uint64_t canary_of(std::uint64_t seq,
                                 std::uint64_t view) noexcept {
    return (seq + 1) * 0x9E3779B97F4A7C15ULL ^
           (view + 1) * 0xC2B2AE3D27D4EB4FULL;
  }

  std::size_t slot_stride() const noexcept {
    return kHeaderBytes + cfg_.slot_payload + kCanaryBytes;
  }
  std::uint64_t slot_offset(std::uint64_t seq) const noexcept {
    return (seq % cfg_.slot_count) * slot_stride();
  }

 private:
  DecisionLog(RubinContext& ctx, std::uint32_t self, std::uint32_t n,
              DecisionLogConfig cfg);

  bool has_credit(std::uint32_t peer, std::uint64_t seq) const;
  void bypass();
  /// Posts one small inline write into `peer`'s ack table at `offset`
  /// (an ack or consumed cell); false, and counted, if the post failed.
  sim::Task<bool> post_cell(std::uint32_t peer, std::uint64_t offset,
                            const std::uint8_t* cell, std::uint32_t len,
                            std::uint64_t wr_id);
  std::uint64_t consumed_offset() const noexcept {
    return static_cast<std::uint64_t>(cfg_.slot_count) * kAckCellBytes;
  }
  sim::Task<verbs::PostResult> post_ring_write(std::uint32_t peer,
                                               std::uint64_t remote_off,
                                               FrameVec wire,
                                               std::uint32_t rkey);

  RubinContext* ctx_;
  DecisionLogConfig cfg_;
  std::uint32_t self_ = 0;

  /// The whole group, self included (group_[self_] == this). Non-owning;
  /// create_group's caller keeps the vector alive. This is the
  /// management plane the rkey handover and the attack helpers ride.
  std::vector<DecisionLog*> group_;

  /// One QP per peer (group_[p] ↔ this), both record and ack writes.
  std::vector<std::shared_ptr<verbs::QueuePair>> qp_;
  verbs::CompletionQueue* scq_ = nullptr;
  verbs::CompletionQueue* rcq_ = nullptr;
  /// drain_completions()' poll buffer, reused across calls.
  std::vector<verbs::Completion> polled_;

  // Local (exposed) resources. Declaration order is registration order,
  // which fixes the keys each one gets.
  /// slot_count framed slots, written by the current primary.
  verbs::RegisteredBuffer ring_;
  /// Per-peer ack tables: ack_buf_[p] holds peer p's (seq, tag) cells,
  /// cell seq % slot_count, then p's consumed cell; null for self.
  /// Registered separately so each peer's rkey maps only its own region
  /// (placement authentication).
  std::vector<std::unique_ptr<verbs::RegisteredBuffer>> ack_buf_;
  /// Local-only staging span anchoring the protection checks of the
  /// zero-copy record writes (content never read — the payload rides as
  /// refcounted slices).
  verbs::RegisteredBuffer staging_;

  // Remote targets (exchanged at create_group).
  struct PeerTarget {
    std::uint64_t ring_addr = 0;
    std::uint64_t ack_addr = 0;   // base of *my* region in the peer's table
    std::uint32_t ack_rkey = 0;   // never flipped
  };
  std::vector<PeerTarget> peer_;
  std::vector<std::uint32_t> cached_rkey_;  // last grant seen per peer

  std::uint64_t granted_view_ = 0;
  std::uint64_t wr_seq_ = 0;  // selective-signaling counter
  DecisionLogStats stats_;
};

}  // namespace rubin::nio
