// Shared receive queue — the ibv_srq analogue (RDMAvisor, PAPERS.md: the
// per-QP receive-state blowup is what makes raw RC unscalable at
// datacenter connection counts).
//
// Many QPs attach to one SRQ (QpConfig::srq). An inbound SEND on any
// attached QP consumes the *oldest* SRQ work request instead of a per-QP
// posted receive, so receive-buffer provisioning is shared: memory scales
// with the SRQ depth, not with connections × ring depth. Semantics follow
// the verbs spec:
//
//   * completion routing: the consumed WR completes on the *owning QP's*
//     receive CQ with that QP's qp_num — the SRQ has no CQ of its own;
//   * teardown: SRQ WRs are not flushed when one attached QP errors (they
//     belong to the queue until taken). A WR already taken by a QP that
//     dies before its DMA finishes is flush-completed on that QP's CQ;
//   * limit watermark: arm_limit(n) fires one low-watermark event when the
//     posted count drops below n after a take, then disarms
//     (IBV_EVENT_SRQ_LIMIT_REACHED semantics — consumers re-arm after
//     refilling);
//   * backpressure: with the SRQ drained, inbound SENDs park in arrival
//     order under the existing RNR machinery, and their QP joins the
//     SRQ's parked list. A refill re-drains the parked QPs in attach
//     order (lowest first) while WRs remain, deterministically, without
//     waiting for the RNR timer; its cost is O(parked), not O(attached).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "sim/task.hpp"
#include "verbs/types.hpp"

namespace rubin::verbs {

class Device;
class QueuePair;

struct SrqConfig {
  /// Capacity: posts beyond this return kQueueFull.
  std::uint32_t max_wr = 1024;
  /// Initial low watermark (0 = disarmed); see arm_limit().
  std::uint32_t limit = 0;
};

class SharedReceiveQueue {
 public:
  SharedReceiveQueue(const SharedReceiveQueue&) = delete;
  SharedReceiveQueue& operator=(const SharedReceiveQueue&) = delete;

  /// Posts receive WRs, charged like QueuePair::post_recv (same span
  /// contract). A refill wakes attached QPs with parked inbound messages.
  sim::Task<PostResult> post(std::span<const RecvWr> wrs);

  /// Setup-path variant: synchronous, no CPU charge (pre-posting pools at
  /// establishment, off the measured data path).
  PostResult post_now(std::span<const RecvWr> wrs);
  PostResult post_now(std::vector<RecvWr> wrs);

  /// Arms the low watermark: the first take() that leaves fewer than
  /// `watermark` WRs posted fires the limit handler once and disarms.
  void arm_limit(std::uint32_t watermark) noexcept { limit_ = watermark; }
  bool limit_armed() const noexcept { return limit_ > 0; }

  /// Handler for limit events, delivered through the event queue (never
  /// inline from the take path — wake order stays deterministic).
  void set_limit_handler(std::function<void()> handler) {
    limit_handler_ = std::move(handler);
  }

  std::uint32_t max_wr() const noexcept { return cfg_.max_wr; }
  std::uint32_t posted() const noexcept {
    return static_cast<std::uint32_t>(queue_.size());
  }
  /// Total WRs consumed by attached QPs over the SRQ's lifetime.
  std::uint64_t taken() const noexcept { return taken_; }
  /// Bytes of receive buffer described by currently-posted WRs — the
  /// shared receive state the scalability bench amortizes per connection.
  std::uint64_t receive_state_bytes() const noexcept { return posted_bytes_; }
  /// Attached QPs that are still alive.
  std::size_t attached_qps() const noexcept;

 private:
  friend class Device;
  friend class QueuePair;

  SharedReceiveQueue(Device& dev, SrqConfig cfg) : dev_(&dev), cfg_(cfg) {}

  /// Consumes the oldest WR (caller checked posted() > 0). Fires the limit
  /// event when the armed watermark is crossed.
  RecvWr take();
  /// Registers a consumer QP (create_qp with cfg.srq set) and gives it
  /// its attach rank: the re-drain order after a refill.
  void attach(const std::shared_ptr<QueuePair>& qp);
  /// Lists `qp`, whose inbound message just parked on the drained queue,
  /// for the next refill. A QP already listed stays listed once.
  void park(QueuePair& qp);
  /// Re-drains parked QPs in attach order while WRs remain (post paths).
  void redrain();

  Device* dev_;
  SrqConfig cfg_;
  std::deque<RecvWr> queue_;
  std::uint64_t posted_bytes_ = 0;
  std::uint64_t taken_ = 0;
  std::uint32_t limit_ = 0;
  std::function<void()> limit_handler_;
  /// Every QP ever attached, indexed by attach rank.
  std::vector<std::weak_ptr<QueuePair>> attached_;
  /// Attach ranks of parked QPs, a min-heap. An entry may be stale (its QP
  /// since drained by the RNR timer, or destroyed); redrain drops those.
  std::vector<std::uint32_t> parked_;
};

}  // namespace rubin::verbs
