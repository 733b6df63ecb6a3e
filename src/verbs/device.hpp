// The software RNIC: Device (per host) and QueuePair (RC).
//
// Data-path model (all times from net::CostModel):
//
//   post_send (user space, no kernel):
//     caller CPU: post_call_cpu + wqe_build_cpu per WR
//                 (+ copy_time for inline payloads — copied at post time)
//     NIC: sees the batch one doorbell later, then per WR serially:
//          wqe_processing + payload DMA read (skipped for inline),
//          then the frame enters the fabric.
//   SEND arrival (responder NIC):
//     recv_match_cost + DMA write into the posted receive buffer,
//     then cqe_cost and the receive completion. If no receive WR is
//     posted, the message waits in order (RNR) until one arrives or the
//     retry budget expires.
//   RDMA WRITE arrival: rkey/bounds/access check + DMA write. No receive
//     consumed, no responder completion, responder CPU untouched.
//   RDMA READ: request frame to the responder; responder NIC turnaround +
//     DMA read + payload frame back; requester DMA write + completion.
//   Requester completions for SEND/WRITE fire one ack_latency after the
//   responder NIC finished — RC completions mean "acknowledged".
//
// Threading: everything runs on the simulator; a QueuePair may be used by
// exactly one coroutine at a time (matches the verbs spec, which makes QPs
// single-threaded unless the app locks).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/ring_buffer.hpp"
#include "net/fabric.hpp"
#include "sim/task.hpp"
#include "sim/timeout_queue.hpp"
#include "verbs/cq.hpp"
#include "verbs/memory.hpp"
#include "verbs/srq.hpp"
#include "verbs/types.hpp"

namespace rubin::verbs {

class Device;

class QueuePair : public std::enable_shared_from_this<QueuePair> {
 public:
  std::uint32_t qp_num() const noexcept { return qpn_; }
  QpState state() const noexcept { return state_; }
  Device& device() noexcept { return *dev_; }
  const QpConfig& config() const noexcept { return cfg_; }

  /// Wires this QP to a remote one and moves it to ReadyToSend. Both ends
  /// must be connected (the ConnectionManager does this during its
  /// handshake; tests may call it directly).
  void connect(Device& remote, std::uint32_t remote_qpn);

  /// Posts a batch of send-queue WRs (one doorbell for the whole batch —
  /// the posting optimization from paper §IV). Awaitable: the caller's
  /// virtual CPU spends the post + WQE-build (+ inline copy) time.
  /// On kQueueFull/kInvalidState/kTooLarge nothing is posted.
  ///
  /// The span names caller-owned staging that must stay alive (and
  /// untouched) until the returned task completes; every caller co_awaits
  /// the post to completion, so a reused staging vector qualifies — which
  /// is the point: the NIC slices it needs are copied into scheduled work
  /// (payload handles are *moved* out of the WRs), so the hot path posts
  /// with zero per-call vector churn.
  sim::Task<PostResult> post_send(std::span<SendWr> wrs);

  /// Owning-vector convenience for spawn-style callers whose staging
  /// cannot outlive the call site.
  sim::Task<PostResult> post_send(std::vector<SendWr> wrs);

  /// Single-WR convenience.
  sim::Task<PostResult> post_send_one(SendWr wr);

  /// Posts receive WRs. Receives are pre-posted in bulk (buffer pool), so
  /// the per-call CPU is charged like post_send. Same span contract as
  /// post_send: the caller-owned storage must stay alive until the
  /// returned task completes (the WRs are read after the CPU charge).
  sim::Task<PostResult> post_recv(std::span<const RecvWr> wrs);
  sim::Task<PostResult> post_recv(std::vector<RecvWr> wrs);

  /// Single-WR convenience.
  sim::Task<PostResult> post_recv_one(RecvWr wr);

  /// Setup-path variant: posts receives synchronously without charging
  /// CPU time. For pre-posting buffer pools at connection establishment,
  /// where the cost sits off the measured data path.
  PostResult post_recv_now(std::span<const RecvWr> wrs);
  PostResult post_recv_now(std::vector<RecvWr> wrs);

  /// Moves the QP to the error state, flushing posted receives and
  /// queued-but-unsent sends with kWorkRequestFlushed completions.
  void set_error();

  std::uint32_t send_slots_free() const noexcept {
    return cfg_.max_send_wr - send_queue_used_;
  }
  /// The selective-signaling rule for otherwise-unsignaled WRs: signal
  /// once the send queue is at least half full. Unsignaled slots come
  /// back only when a later signaled WR completes, so a QP that never
  /// signals fills up; one that obeys this rule never does, and a run
  /// that never gets near half full posts exactly what it did unsignaled.
  bool needs_signal() const noexcept {
    return 2 * send_queue_used_ >= cfg_.max_send_wr;
  }
  std::uint32_t recv_wrs_posted() const noexcept {
    return static_cast<std::uint32_t>(recv_queue_.size());
  }
  /// Slots of the parked-inbound ring: 0 until a SEND first parks (tests).
  std::size_t inbound_capacity() const noexcept { return inbound_.capacity(); }
  net::HostId remote_host() const noexcept;

 private:
  friend class Device;
  friend class SharedReceiveQueue;  // attach rank, park, redrain

  QueuePair(Device& dev, ProtectionDomain& pd, CompletionQueue& send_cq,
            CompletionQueue& recv_cq, std::uint32_t qpn, QpConfig cfg);

  /// One inbound two-sided message, possibly parked waiting for a receive
  /// WR (RNR). Kept in arrival order — RC delivers strictly in order.
  struct InboundSend {
    /// Wire payload: the slices of the sender's sg_list, in order. The
    /// responder treats the concatenation as one message; the slice
    /// structure only matters for what counts as a *new* physical copy.
    FrameVec payload;
    std::weak_ptr<QueuePair> sender;
    std::uint64_t sender_wr_id = 0;
    bool sender_signaled = false;
    sim::Time first_arrival = 0;
    std::uint32_t retries_left = 0;
  };

  /// Local SGE list of an outstanding RDMA READ, looked up when the
  /// payload comes back (the response scatters across the elements in
  /// order). wr_ids of in-flight reads must be unique per QP.
  struct PendingRead {
    SgeList sg_list;
    bool signaled = true;
  };

  // NIC-side handlers (scheduled by the sender's Device).
  void on_send_arrival(InboundSend in);
  void on_write_arrival(std::uint32_t rkey, std::uint64_t remote_addr,
                        FrameVec payload, std::weak_ptr<QueuePair> sender,
                        std::uint64_t wr_id, bool signaled);
  void on_read_request(std::uint64_t remote_addr, std::uint32_t rkey,
                       std::uint32_t length, std::weak_ptr<QueuePair> sender,
                       std::uint64_t wr_id);

  void complete_read_response(std::uint64_t wr_id, Bytes payload);
  /// A receive WR is posted for the next inbound SEND (QP not in error).
  bool can_receive() const noexcept;
  /// Matches `in` with the next receive WR (the caller checked
  /// can_receive()): DMA, then the receive and send completions. A buffer
  /// that fails the protection check or is too short breaks the QP.
  void receive(InboundSend in);
  void drain_inbound();
  void rnr_tick();
  void complete_send(std::uint64_t wr_id, Opcode op, WcStatus status,
                     bool signaled, std::uint32_t byte_len = 0);
  void complete_recv(const Completion& c);
  void reclaim_send_slot(bool signaled);

  Device* dev_;
  ProtectionDomain* pd_;
  CompletionQueue* send_cq_;
  CompletionQueue* recv_cq_;
  std::uint32_t qpn_;
  QpConfig cfg_;
  QpState state_ = QpState::kInit;

  Device* remote_dev_ = nullptr;
  std::uint32_t remote_qpn_ = 0;

  std::map<std::uint64_t, PendingRead> pending_reads_;
  // Both queues allocate on their first push only. An SRQ-attached QP never
  // posts a receive, and a SEND that finds a receive WR skips inbound_, so
  // only a QP whose messages park (RNR backpressure) allocates that ring.
  GrowingRing<RecvWr> recv_queue_;
  GrowingRing<InboundSend> inbound_;  // head may be waiting for a recv WR
  bool rnr_timer_armed_ = false;
  /// SRQ consumers only: attach rank, and whether the SRQ lists this QP
  /// as parked (SharedReceiveQueue::park).
  std::uint32_t srq_rank_ = 0;
  bool srq_parked_ = false;

  std::uint32_t send_queue_used_ = 0;
  /// Monotone counters for the transport-retry watchdog: completions are
  /// strictly in post order, so op i is outstanding iff completed_ops_ <= i.
  std::uint64_t posted_ops_ = 0;
  std::uint64_t completed_ops_ = 0;
  /// Finished-but-unsignaled WRs whose slots are reclaimed only by the
  /// next signaled completion (real selective-signaling semantics: post
  /// only unsignaled WRs and the send queue eventually fills up).
  std::uint32_t unreclaimed_unsignaled_ = 0;
};

class Device {
 public:
  Device(net::Fabric& fabric, net::HostId host);
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  net::HostId host() const noexcept { return host_; }
  net::Fabric& fabric() noexcept { return *fabric_; }
  sim::Simulator& simulator() noexcept { return fabric_->simulator(); }
  const net::CostModel& cost() const noexcept { return fabric_->cost(); }

  CompletionChannel* create_channel();
  CompletionQueue* create_cq(std::size_t capacity,
                             CompletionChannel* channel = nullptr);
  /// Creates a shared receive queue owned by this device (ibv_create_srq).
  /// Hand the pointer to QpConfig::srq when creating consumer QPs.
  SharedReceiveQueue* create_srq(SrqConfig cfg = {});
  std::shared_ptr<QueuePair> create_qp(ProtectionDomain& pd,
                                       CompletionQueue& send_cq,
                                       CompletionQueue& recv_cq,
                                       QpConfig cfg = {});

  /// The live QP numbered `qpn` on this device; nullptr for QPN 0, a
  /// number never handed out, or a destroyed QP.
  std::shared_ptr<QueuePair> find_qp(std::uint32_t qpn);

  /// Serializes work on this host's NIC engine: returns the completion
  /// time of a job needing `work` ns that becomes ready at `ready`.
  sim::Time nic_admit(sim::Time ready, sim::Time work);

  /// Per-view write-permission flip (Aguilera et al.): retires `mr`'s
  /// current rkey and issues a fresh one that carries kAccessRemoteWrite
  /// only when `grant_remote_write` is set. The revocation half is
  /// instantaneous — the old key is dead before this coroutine first
  /// suspends, so there is no window in which both keys work — but the
  /// *grant* is returned only after the NIC re-programming charge
  /// (pinning + TLB update, the same bill as registering the region)
  /// has elapsed. This asymmetry is the protocol-level contract: a view
  /// change revokes before the new view grants.
  sim::Task<std::uint32_t> flip_write_permission(ProtectionDomain& pd,
                                                 MemoryRegion* mr,
                                                 bool grant_remote_write);

  /// FaultLab: transitions every live QP on this device to the error
  /// state (flushed completions and all — as if the NIC firmware reset).
  /// Returns how many QPs were faulted.
  std::size_t inject_qp_errors();

  /// FaultLab: stalls the NIC engine for `duration` of virtual time — all
  /// WQE processing, DMA, and responder work queues behind the stall.
  void inject_nic_stall(sim::Time duration);

  /// Largest payload the device accepts inline (paper: device-dependent).
  std::uint32_t max_inline() const noexcept {
    return static_cast<std::uint32_t>(cost().max_inline);
  }

  std::uint64_t messages_sent() const noexcept { return messages_sent_; }

 private:
  friend class QueuePair;

  /// RC transport-retry watchdog of one posted WR: op `op` of QP `qpn`.
  struct Watch {
    std::uint32_t qpn;
    std::uint64_t op;
  };
  /// Starts the watchdog of op `op` on `qp`, due `timeout` from now: if
  /// the WR never completes (its frames vanished into a partition), the
  /// QP breaks instead of hanging.
  void watch(const QueuePair& qp, sim::Time timeout, std::uint64_t op);

  net::Fabric* fabric_;
  net::HostId host_;
  sim::Time nic_free_ = 0;
  std::uint32_t next_qpn_ = 1;
  /// Indexed by QPN. QPNs are handed out densely from 1 (slot 0 stays
  /// empty), so the per-frame lookup is one load, not a tree search.
  std::vector<std::weak_ptr<QueuePair>> qps_;
  std::vector<std::unique_ptr<CompletionChannel>> channels_;
  std::vector<std::unique_ptr<CompletionQueue>> cqs_;
  std::vector<std::unique_ptr<SharedReceiveQueue>> srqs_;
  /// One watchdog queue per distinct transport_retry_timeout_ns: a real
  /// NIC keeps one retry timer per QP, not one per WR.
  std::vector<std::unique_ptr<sim::TimeoutQueue<Watch>>> watchdogs_;
  std::uint64_t messages_sent_ = 0;
};

}  // namespace rubin::verbs
