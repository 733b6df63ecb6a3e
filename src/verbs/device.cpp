#include "verbs/device.hpp"

#include <algorithm>
#include <cstring>

#include "common/counters.hpp"

namespace rubin::verbs {

namespace {

/// The slice of a SendWr the delivery side of a transmit needs. The full
/// SendWr carries an SGE list and payload handles (~4x this size); those
/// stay on the posting side, and only this header rides the per-frame
/// delivery closures.
struct WireWr {
  std::uint64_t wr_id;
  std::uint64_t remote_addr;
  std::uint32_t rkey;
  std::uint32_t read_len;
  Opcode opcode;
  bool signaled;
};

}  // namespace

const char* to_string(WcStatus s) noexcept {
  switch (s) {
    case WcStatus::kSuccess: return "success";
    case WcStatus::kLocalProtectionError: return "local-protection-error";
    case WcStatus::kRemoteAccessError: return "remote-access-error";
    case WcStatus::kRecvBufferTooSmall: return "recv-buffer-too-small";
    case WcStatus::kRnrRetryExceeded: return "rnr-retry-exceeded";
    case WcStatus::kTransportRetryExceeded: return "transport-retry-exceeded";
    case WcStatus::kRemoteOperationError: return "remote-operation-error";
    case WcStatus::kWorkRequestFlushed: return "work-request-flushed";
  }
  return "?";
}

const char* to_string(PostResult r) noexcept {
  switch (r) {
    case PostResult::kOk: return "ok";
    case PostResult::kQueueFull: return "queue-full";
    case PostResult::kInvalidState: return "invalid-state";
    case PostResult::kTooLarge: return "too-large";
    case PostResult::kInvalidSge: return "invalid-sge";
  }
  return "?";
}

// -------------------------------------------------------------- Device ---

Device::Device(net::Fabric& fabric, net::HostId host)
    : fabric_(&fabric), host_(host) {}

CompletionChannel* Device::create_channel() {
  channels_.push_back(std::make_unique<CompletionChannel>(simulator()));
  return channels_.back().get();
}

CompletionQueue* Device::create_cq(std::size_t capacity,
                                   CompletionChannel* channel) {
  cqs_.push_back(std::make_unique<CompletionQueue>(
      simulator(), capacity, channel, cost().completion_event_cost));
  return cqs_.back().get();
}

SharedReceiveQueue* Device::create_srq(SrqConfig cfg) {
  srqs_.push_back(std::unique_ptr<SharedReceiveQueue>(
      new SharedReceiveQueue(*this, cfg)));
  return srqs_.back().get();
}

std::shared_ptr<QueuePair> Device::create_qp(ProtectionDomain& pd,
                                             CompletionQueue& send_cq,
                                             CompletionQueue& recv_cq,
                                             QpConfig cfg) {
  const std::uint32_t qpn = next_qpn_++;
  auto qp = std::shared_ptr<QueuePair>(
      new QueuePair(*this, pd, send_cq, recv_cq, qpn, cfg));
  qps_[qpn] = qp;
  if (cfg.srq != nullptr) cfg.srq->attach(qp);
  return qp;
}

std::shared_ptr<QueuePair> Device::find_qp(std::uint32_t qpn) {
  const auto it = qps_.find(qpn);
  return it == qps_.end() ? nullptr : it->second.lock();
}

sim::Time Device::nic_admit(sim::Time ready, sim::Time work) {
  const sim::Time start = std::max(ready, nic_free_);
  nic_free_ = start + work;
  return nic_free_;
}

sim::Task<std::uint32_t> Device::flip_write_permission(ProtectionDomain& pd,
                                                       MemoryRegion* mr,
                                                       bool grant_remote_write) {
  const std::uint32_t fresh = pd.rekey_remote(
      mr, grant_remote_write ? kAccessRemoteWrite : 0u);
  co_await simulator().sleep(cost().mr_register_time(mr->length()));
  co_return fresh;
}

std::size_t Device::inject_qp_errors() {
  std::size_t faulted = 0;
  for (auto& [qpn, weak] : qps_) {
    if (auto qp = weak.lock(); qp && qp->state() != QpState::kError) {
      qp->set_error();
      ++faulted;
    }
  }
  return faulted;
}

void Device::inject_nic_stall(sim::Time duration) {
  const sim::Time now = simulator().now();
  nic_free_ = std::max(nic_free_, now + duration);
}

// ----------------------------------------------------------- QueuePair ---

QueuePair::QueuePair(Device& dev, ProtectionDomain& pd,
                     CompletionQueue& send_cq, CompletionQueue& recv_cq,
                     std::uint32_t qpn, QpConfig cfg)
    : dev_(&dev),
      pd_(&pd),
      send_cq_(&send_cq),
      recv_cq_(&recv_cq),
      qpn_(qpn),
      cfg_(cfg) {}

void QueuePair::connect(Device& remote, std::uint32_t remote_qpn) {
  remote_dev_ = &remote;
  remote_qpn_ = remote_qpn;
  if (state_ == QpState::kInit) state_ = QpState::kReadyToSend;
}

net::HostId QueuePair::remote_host() const noexcept {
  return remote_dev_ != nullptr ? remote_dev_->host() : 0;
}

sim::Task<PostResult> QueuePair::post_send(std::vector<SendWr> wrs) {
  co_return co_await post_send(std::span<SendWr>(wrs));
}

sim::Task<PostResult> QueuePair::post_send(std::span<SendWr> wrs) {
  auto& sim = dev_->simulator();
  const auto& cm = dev_->cost();
  co_await sim.sleep(cm.post_call_cpu);
  if (state_ != QpState::kReadyToSend) co_return PostResult::kInvalidState;
  if (wrs.size() > send_slots_free()) co_return PostResult::kQueueFull;
  for (const SendWr& wr : wrs) {
    // EINVAL before anything is charged or posted: an empty sg_list and
    // an over-capability one are both programming errors — nothing is
    // silently clamped.
    if (wr.sg_list.empty() || wr.sg_list.size() > cfg_.max_sge) {
      co_return PostResult::kInvalidSge;
    }
    const std::uint64_t total = wr.sg_list.total_length();
    if (wr.inline_data &&
        (total > dev_->max_inline() || total > cfg_.max_inline)) {
      co_return PostResult::kTooLarge;
    }
  }

  // CPU: build each WQE; inline payloads are copied into the WQE now.
  // Inline data needs no memory registration — the CPU reads the user
  // buffer directly (IBV_SEND_INLINE ignores the lkey). The copy charge
  // is one copy_time over the *total* length: charging per SGE would
  // truncate fractional nanoseconds per slice and break bit-identity
  // with the flattened equivalent.
  sim::Time cpu = static_cast<sim::Time>(wrs.size()) * cm.wqe_build_cpu;
  std::vector<FrameVec> inline_payloads;
  for (std::size_t i = 0; i < wrs.size(); ++i) {
    const SendWr& wr = wrs[i];
    if (!wr.inline_data) continue;
    if (inline_payloads.empty()) inline_payloads.resize(wrs.size());
    cpu += cm.copy_time(wr.sg_list.total_length());
    if (!wr.shared_payload.empty()) {
      // The WQE copy is elided: the refcounted handles pin the payload
      // until the NIC is done with it. The copy_time charge above stays —
      // real inline posting pays it.
      inline_payloads[i] = wr.shared_payload;
    } else {
      FrameVec gathered;
      for (const Sge& s : wr.sg_list) {
        const auto* src = reinterpret_cast<const std::uint8_t*>(s.addr);
        gathered.append(SharedBytes::copy_of(ByteView(src, s.length)));
      }
      inline_payloads[i] = std::move(gathered);
    }
  }
  co_await sim.sleep(cpu);

  // NIC pipeline: the batch becomes visible one doorbell after the post.
  sim::Time ready = sim.now() + cm.doorbell;
  for (std::size_t i = 0; i < wrs.size(); ++i) {
    SendWr& wr = wrs[i];
    ++send_queue_used_;

    const bool need_local_write = wr.opcode == Opcode::kRdmaRead;
    bool protection_ok = true;
    if (!wr.inline_data) {
      // Every SGE is validated independently — a slice spanning an MR
      // boundary or a wrong lkey on the Nth element fails the whole WR,
      // exactly as hardware NAKs the WQE.
      for (const Sge& s : wr.sg_list) {
        if (pd_->check_local(s, need_local_write) == nullptr) {
          protection_ok = false;
          break;
        }
      }
    }
    if (!protection_ok) {
      complete_send(wr.wr_id, wr.opcode, WcStatus::kLocalProtectionError,
                    /*signaled=*/true);
      break;
    }
    if (remote_dev_ == nullptr) {
      complete_send(wr.wr_id, wr.opcode, WcStatus::kRemoteOperationError,
                    /*signaled=*/true);
      break;
    }

    // NIC work: fetch + process the WQE; read the payload over DMA unless
    // it was inlined into the WQE.
    if (wr.opcode == Opcode::kRdmaRead) {
      pending_reads_[wr.wr_id] = PendingRead{wr.sg_list, wr.signaled};
    }

    const bool has_payload = wr.opcode != Opcode::kRdmaRead;
    sim::Time nic_work = cm.wqe_processing;
    if (has_payload && !wr.inline_data) {
      // Non-inline: the NIC fetches the payload over PCIe. One fetch
      // latency per WQE and one dma_time over the total — the gather is
      // pipelined on hardware, and per-slice charging would truncate
      // differently than the flattened equivalent.
      nic_work += cm.dma_fetch_latency + cm.dma_time(wr.sg_list.total_length());
    }
    const sim::Time tx_ready = dev_->nic_admit(ready, nic_work);
    ready = tx_ready;
    ++dev_->messages_sent_;

    // RC transport-retry watchdog: if this WR never completes (frames
    // vanished into a partition), the QP breaks instead of hanging.
    const std::uint64_t op = posted_ops_++;
    if (cfg_.transport_retry_timeout_ns > 0) {
      auto watchdog = weak_from_this();
      sim.schedule_after(cfg_.transport_retry_timeout_ns, [watchdog, op] {
        auto qp = watchdog.lock();
        if (!qp || qp->state_ != QpState::kReadyToSend) return;
        if (qp->completed_ops_ > op) return;  // completed in time
        qp->complete_send(0, Opcode::kSend,
                          WcStatus::kTransportRetryExceeded, true);
      });
    }

    // Snapshot the payload when the NIC actually reads it (zero-copy
    // semantics: mutating a registered send buffer before the WR
    // completes is a data race, exactly as on hardware). With a
    // shared_payload handle the snapshot is free: immutability means the
    // bytes the NIC would DMA now are the bytes the handle already holds.
    FrameVec payload;
    if (!inline_payloads.empty()) payload = std::move(inline_payloads[i]);
    if (!wr.inline_data && !wr.shared_payload.empty()) {
      payload = std::move(wr.shared_payload);
    }
    // Only the header slice of the WR survives past the post: the DMA-time
    // snapshot needs the SGE list and the delivery side needs WireWr, so
    // the closures capture those pieces instead of the full SendWr (SGE
    // list + payload handles + flags, ~2x the size).
    const WireWr w{wr.wr_id, wr.remote_addr, wr.rkey,
                   static_cast<std::uint32_t>(wr.sg_list.total_length()),
                   wr.opcode, wr.signaled};
    const bool recheck = !wr.inline_data && wr.opcode != Opcode::kRdmaRead;
    auto self = weak_from_this();
    Device* rdev = remote_dev_;
    const std::uint32_t rqpn = remote_qpn_;
    sim.schedule_at(tx_ready, [this, self, w, recheck, rdev, rqpn,
                               sg_list = wr.sg_list,
                               payload = std::move(payload)]() mutable {
      if (self.expired()) return;
      if (recheck) {
        FrameVec snapshot;
        for (const Sge& s : sg_list) {
          const MemoryRegion* m = pd_->check_local(s, false);
          if (m == nullptr) {  // deregistered between post and DMA
            complete_send(w.wr_id, w.opcode,
                          WcStatus::kLocalProtectionError, true);
            return;
          }
          if (payload.empty()) {
            snapshot.append(
                SharedBytes::copy_of(ByteView(m->data_at(s.addr), s.length)));
          }
        }
        if (payload.empty()) payload = std::move(snapshot);
      }
      const std::size_t wire_len =
          w.opcode == Opcode::kRdmaRead ? 28 : payload.total_size();
      dev_->fabric().transmit(
          dev_->host(), rdev->host(), wire_len,
          [self, w, rdev, rqpn, payload = std::move(payload)](
              const net::FrameFault& fault) mutable {
            // Fabric fault verdicts, RC semantics. A duplicated frame
            // carries a PSN the responder has already acked: everything
            // but an RDMA WRITE (whose DMA is idempotent and completes
            // nothing on re-execution) is discarded, and the ghost never
            // completes the sender's WR a second time.
            if (fault.duplicate && w.opcode != Opcode::kRdmaWrite) {
              RUBIN_COUNT("verbs.duplicate_discarded", 1);
              return;
            }
            auto sender = self.lock();
            auto target = rdev->find_qp(rqpn);
            if (target == nullptr || target->state_ == QpState::kError) {
              if (sender && !fault.duplicate) {
                sender->complete_send(w.wr_id, w.opcode,
                                      WcStatus::kRemoteOperationError, true);
              }
              return;
            }
            if (fault.corrupt) {
              // A garbled header-only frame (READ request) fails the ICRC
              // and is dropped — the transport watchdog notices. A garbled
              // payload is delivered: detecting it is the MAC layer's job,
              // which is exactly what FaultLab scenarios assert.
              if (w.opcode == Opcode::kRdmaRead || payload.empty()) return;
              SharedBytes garbled = payload.flatten();
              garbled.mutable_data()[fault.corrupt_offset % garbled.size()] ^=
                  fault.corrupt_mask;
              payload = FrameVec(std::move(garbled));
            }
            switch (w.opcode) {
              case Opcode::kSend:
                target->on_send_arrival(InboundSend{
                    std::move(payload), self, w.wr_id, w.signaled, 0, 0});
                break;
              case Opcode::kRdmaWrite:
                target->on_write_arrival(
                    w.rkey, w.remote_addr, std::move(payload),
                    fault.duplicate ? std::weak_ptr<QueuePair>{} : self,
                    w.wr_id, w.signaled && !fault.duplicate);
                break;
              case Opcode::kRdmaRead:
                target->on_read_request(w.remote_addr, w.rkey, w.read_len,
                                        self, w.wr_id);
                break;
              case Opcode::kRecv:
                break;  // unreachable: not a send opcode
            }
          });
    });
  }
  co_return PostResult::kOk;
}

sim::Task<PostResult> QueuePair::post_send_one(SendWr wr) {
  // The WR parameter lives in this coroutine's frame, which the awaiting
  // caller keeps alive until the post completes — exactly the span
  // contract, with no wrapper vector.
  co_return co_await post_send(std::span<SendWr>(&wr, 1));
}

sim::Task<PostResult> QueuePair::post_recv_one(RecvWr wr) {
  co_return co_await post_recv(std::span<const RecvWr>(&wr, 1));
}

sim::Task<PostResult> QueuePair::post_recv(std::vector<RecvWr> wrs) {
  co_return co_await post_recv(std::span<const RecvWr>(wrs));
}

sim::Task<PostResult> QueuePair::post_recv(std::span<const RecvWr> wrs) {
  auto& sim = dev_->simulator();
  const auto& cm = dev_->cost();
  co_await sim.sleep(cm.post_call_cpu +
                     static_cast<sim::Time>(wrs.size()) * cm.wqe_build_cpu);
  co_return post_recv_now(wrs);
}

PostResult QueuePair::post_recv_now(std::vector<RecvWr> wrs) {
  return post_recv_now(std::span<const RecvWr>(wrs));
}

PostResult QueuePair::post_recv_now(std::span<const RecvWr> wrs) {
  if (state_ == QpState::kError) return PostResult::kInvalidState;
  // An SRQ-attached QP has no receive queue of its own: post to the SRQ
  // (EINVAL in real verbs).
  if (cfg_.srq != nullptr) return PostResult::kInvalidState;
  if (recv_queue_.size() + wrs.size() > cfg_.max_recv_wr) {
    return PostResult::kQueueFull;
  }
  for (const RecvWr& wr : wrs) recv_queue_.push_back(wr);
  drain_inbound();
  return PostResult::kOk;
}

void QueuePair::set_error() {
  if (state_ == QpState::kError) return;
  state_ = QpState::kError;
  // Flush posted receives. SRQ WRs are *not* flushed — they belong to the
  // shared queue until taken (ibv_srq semantics), so an SRQ-attached QP
  // has an empty recv_queue_ and this loop does nothing.
  while (!recv_queue_.empty()) {
    const RecvWr wr = recv_queue_.front();
    recv_queue_.pop_front();
    complete_recv(Completion{wr.wr_id, Opcode::kRecv,
                             WcStatus::kWorkRequestFlushed, 0, qpn_, {}});
  }
  // Inbound sends parked behind RNR backpressure belong to remote WRs that
  // will never be matched now: NAK their senders (RC semantics — the
  // requester's WR must complete, with error, or its resources leak).
  auto& sim = dev_->simulator();
  const auto& cm = dev_->cost();
  for (const InboundSend& in : inbound_) {
    if (auto sender = in.sender.lock()) {
      sim.schedule_after(cm.ack_latency, [sender, wr_id = in.sender_wr_id] {
        sender->complete_send(wr_id, Opcode::kSend,
                              WcStatus::kRemoteOperationError, true);
      });
    }
  }
  inbound_.clear();
}

void QueuePair::on_send_arrival(InboundSend in) {
  in.first_arrival = dev_->simulator().now();
  in.retries_left = cfg_.rnr_retries;
  inbound_.push_back(std::move(in));
  drain_inbound();
  if (!inbound_.empty() && cfg_.srq != nullptr) {
    // Parked because the shared queue is drained: RNR-style backpressure.
    // A later SRQ refill re-drains us (attach order) ahead of the timer.
    RUBIN_COUNT("verbs.srq.rnr_backpressure", 1);
  }
  if (!inbound_.empty() && !rnr_timer_armed_) {
    rnr_timer_armed_ = true;
    auto self = weak_from_this();
    dev_->simulator().schedule_after(cfg_.rnr_timeout_ns, [self] {
      if (auto qp = self.lock()) qp->rnr_tick();
    });
  }
}

void QueuePair::drain_inbound() {
  auto& sim = dev_->simulator();
  const auto& cm = dev_->cost();
  SharedReceiveQueue* srq = cfg_.srq;
  while (!inbound_.empty() && state_ != QpState::kError &&
         (srq != nullptr ? srq->posted() > 0 : !recv_queue_.empty())) {
    InboundSend in = std::move(inbound_.front());
    inbound_.pop_front();
    RecvWr rwr;
    if (srq != nullptr) {
      rwr = srq->take();
    } else {
      rwr = recv_queue_.front();
      recv_queue_.pop_front();
    }
    const bool from_srq = srq != nullptr;

    const MemoryRegion* mr = pd_->check_local(rwr.sge, /*need_write=*/true);
    auto fail_both = [&](WcStatus recv_status, WcStatus send_status) {
      complete_recv(
          Completion{rwr.wr_id, Opcode::kRecv, recv_status, 0, qpn_, {}});
      set_error();
      if (auto sender = in.sender.lock()) {
        sim.schedule_after(cm.ack_latency, [sender, in_wr = in.sender_wr_id,
                                            send_status] {
          sender->complete_send(in_wr, Opcode::kSend, send_status, true);
        });
      }
    };
    if (mr == nullptr) {
      fail_both(WcStatus::kLocalProtectionError, WcStatus::kRemoteOperationError);
      return;
    }
    if (in.payload.total_size() > rwr.sge.length) {
      fail_both(WcStatus::kRecvBufferTooSmall, WcStatus::kRemoteOperationError);
      return;
    }

    // DMA the payload into the receive buffer, then complete.
    const std::uint32_t len = static_cast<std::uint32_t>(in.payload.total_size());
    const sim::Time done = dev_->nic_admit(
        sim.now(), cm.recv_match_cost + cm.dma_time(len));
    std::uint8_t* dst = mr->data_at(rwr.sge.addr);
    auto self = weak_from_this();
    sim.schedule_at(
        done, [self, dst, in = std::move(in), rwr, len, from_srq, &cm,
               &sim]() mutable {
          auto qp = self.lock();
          if (!qp || qp->state_ == QpState::kError) {
            // An SRQ WR belongs to the consuming QP from take() onward: a
            // QP torn down with the DMA in flight flush-completes it on
            // its own CQ (routing survives teardown). Per-QP WRs were
            // already flushed by set_error.
            if (qp && from_srq) {
              qp->complete_recv(Completion{rwr.wr_id, Opcode::kRecv,
                                           WcStatus::kWorkRequestFlushed, 0,
                                           qp->qpn_, {}});
            }
            // The responder died mid-DMA; the requester still gets a NAK —
            // its WR must complete (with error) or its resources leak.
            sim.schedule_after(
                cm.ack_latency, [s = in.sender, wr_id = in.sender_wr_id] {
                  if (auto q = s.lock()) {
                    q->complete_send(wr_id, Opcode::kSend,
                                     WcStatus::kRemoteOperationError, true);
                  }
                });
            return;
          }
          // The DMA-write charge is already in `done`; the physical copy
          // into the MR happens only when the receiver reads the MR bytes
          // directly. capture_payload consumers get the handle instead —
          // a spliced frame is gathered here, at the receiver, which is
          // where the paper's measured receive-side copy lives (it is
          // counted as such, never as a send-path copy).
          SharedBytes captured;
          if (rwr.capture_payload) {
            if (in.payload.slice_count() <= 1) {
              if (in.payload.slice_count() == 1) {
                captured = in.payload.slice_at(0);
              }
            } else {
              RUBIN_COUNT("datapath.recv_copy_bytes",
                                in.payload.total_size());
              captured = SharedBytes::allocate(in.payload.total_size());
              std::uint8_t* p = captured.mutable_data();
              for (const SharedBytes& s : in.payload) {
                std::memcpy(p, s.data(), s.size());
                p += s.size();
              }
            }
          } else {
            RUBIN_COUNT("datapath.recv_copy_bytes",
                              in.payload.total_size());
            std::uint8_t* p = dst;
            for (const SharedBytes& s : in.payload) {
              std::memcpy(p, s.data(), s.size());
              p += s.size();
            }
          }
          sim.schedule_after(cm.cqe_cost,
                             [self, rwr, len,
                              captured = std::move(captured)]() mutable {
            if (auto q = self.lock()) {
              q->complete_recv(Completion{rwr.wr_id, Opcode::kRecv,
                                          WcStatus::kSuccess, len, q->qpn_,
                                          std::move(captured)});
            }
          });
          // RC ack completes the sender's WR.
          sim.schedule_after(cm.ack_latency,
                             [s = in.sender, wr_id = in.sender_wr_id,
                              sig = in.sender_signaled] {
                               if (auto q = s.lock()) {
                                 q->complete_send(wr_id, Opcode::kSend,
                                                  WcStatus::kSuccess, sig);
                               }
                             });
        });
  }
}

void QueuePair::rnr_tick() {
  rnr_timer_armed_ = false;
  drain_inbound();
  if (inbound_.empty() || state_ == QpState::kError) return;
  auto& sim = dev_->simulator();
  const auto& cm = dev_->cost();
  InboundSend& head = inbound_.front();
  if (head.retries_left == 0) {
    // Receiver never provisioned a buffer (paper §II-A: "it is important
    // to allocate enough receive requests"). The connection breaks. The
    // head is popped first so set_error()'s NAK sweep of the remaining
    // parked senders cannot complete it a second time.
    const InboundSend failed = std::move(head);
    inbound_.pop_front();
    if (auto sender = failed.sender.lock()) {
      sim.schedule_after(cm.ack_latency, [sender, wr_id = failed.sender_wr_id] {
        sender->complete_send(wr_id, Opcode::kSend,
                              WcStatus::kRnrRetryExceeded, true);
      });
    }
    set_error();
    return;
  }
  --head.retries_left;
  rnr_timer_armed_ = true;
  auto self = weak_from_this();
  sim.schedule_after(cfg_.rnr_timeout_ns, [self] {
    if (auto qp = self.lock()) qp->rnr_tick();
  });
}

void QueuePair::on_write_arrival(std::uint32_t rkey, std::uint64_t remote_addr,
                                 FrameVec payload,
                                 std::weak_ptr<QueuePair> sender,
                                 std::uint64_t wr_id, bool signaled) {
  // One-sided writes always materialize into the target MR: the whole
  // point of RDMA WRITE is that the responder reads those bytes directly.
  auto& sim = dev_->simulator();
  const auto& cm = dev_->cost();
  const MemoryRegion* mr = pd_->check_remote(rkey, remote_addr,
                                             payload.total_size(),
                                             kAccessRemoteWrite);
  if (mr == nullptr) {
    // NAK: the requester learns, the responder application never does —
    // one of the one-sided security headaches from paper §III-C.
    sim.schedule_after(cm.ack_latency, [sender, wr_id] {
      if (auto q = sender.lock()) {
        q->complete_send(wr_id, Opcode::kRdmaWrite,
                         WcStatus::kRemoteAccessError, true);
      }
    });
    return;
  }
  const sim::Time done =
      dev_->nic_admit(sim.now(), cm.dma_time(payload.total_size()));
  std::uint8_t* dst = mr->data_at(remote_addr);
  sim.schedule_at(done, [dst, payload = std::move(payload), sender, wr_id,
                         signaled, &sim, &cm]() mutable {
    std::uint8_t* p = dst;
    for (const SharedBytes& s : payload) {
      std::memcpy(p, s.data(), s.size());
      p += s.size();
    }
    sim.schedule_after(cm.ack_latency, [sender, wr_id, signaled] {
      if (auto q = sender.lock()) {
        q->complete_send(wr_id, Opcode::kRdmaWrite, WcStatus::kSuccess,
                         signaled);
      }
    });
  });
}

void QueuePair::on_read_request(std::uint64_t remote_addr, std::uint32_t rkey,
                                std::uint32_t length,
                                std::weak_ptr<QueuePair> sender,
                                std::uint64_t wr_id) {
  auto& sim = dev_->simulator();
  const auto& cm = dev_->cost();
  const MemoryRegion* mr =
      pd_->check_remote(rkey, remote_addr, length, kAccessRemoteRead);
  if (mr == nullptr) {
    sim.schedule_after(cm.ack_latency, [sender, wr_id] {
      if (auto q = sender.lock()) {
        q->complete_send(wr_id, Opcode::kRdmaRead,
                         WcStatus::kRemoteAccessError, true);
      }
    });
    return;
  }
  // Responder NIC: turnaround + DMA read of the data, then the payload
  // travels back as a normal frame.
  const sim::Time done =
      dev_->nic_admit(sim.now(), cm.read_turnaround + cm.dma_time(length));
  const std::uint8_t* src = mr->data_at(remote_addr);
  Device* rdev = dev_;
  sim.schedule_at(done, [src, length, sender, wr_id, rdev]() {
    Bytes payload(src, src + length);
    auto q = sender.lock();
    if (q == nullptr) return;
    rdev->fabric().transmit(
        rdev->host(), q->device().host(), length,
        [sender, wr_id, payload = std::move(payload)](
            const net::FrameFault& fault) mutable {
          // Duplicate read responses carry an already-acked PSN: discard.
          if (fault.duplicate) {
            RUBIN_COUNT("verbs.duplicate_discarded", 1);
            return;
          }
          if (fault.corrupt && !payload.empty()) {
            payload[fault.corrupt_offset % payload.size()] ^=
                fault.corrupt_mask;
          }
          auto qp = sender.lock();
          if (qp == nullptr) return;
          qp->complete_read_response(wr_id, std::move(payload));
        });
  });
}

void QueuePair::complete_read_response(std::uint64_t wr_id, Bytes payload) {
  auto& sim = dev_->simulator();
  const auto& cm = dev_->cost();
  // Find the original WR's local SGE: we did not keep it — the payload
  // lands wherever the WR said. We re-validate and copy via the pending
  // read table.
  const auto it = pending_reads_.find(wr_id);
  if (it == pending_reads_.end()) return;
  const PendingRead pr = it->second;
  pending_reads_.erase(it);
  // Re-validate every SGE and resolve the scatter targets; the response
  // bytes fill the elements in order.
  std::array<std::uint8_t*, SgeList::kMaxSges> dsts{};
  bool protection_ok = true;
  for (std::size_t i = 0; i < pr.sg_list.size(); ++i) {
    const MemoryRegion* mr = pd_->check_local(pr.sg_list[i], /*need_write=*/true);
    if (mr == nullptr) {
      protection_ok = false;
      break;
    }
    dsts[i] = mr->data_at(pr.sg_list[i].addr);
  }
  if (!protection_ok || payload.size() > pr.sg_list.total_length()) {
    complete_send(wr_id, Opcode::kRdmaRead, WcStatus::kLocalProtectionError,
                  true);
    return;
  }
  const sim::Time done =
      dev_->nic_admit(sim.now(), cm.dma_time(payload.size()));
  auto self = weak_from_this();
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  sim.schedule_at(done, [self, dsts, pr, payload = std::move(payload), wr_id,
                         len, sig = pr.signaled, &cm, &sim]() mutable {
    const std::uint8_t* src = payload.data();
    std::size_t remaining = payload.size();
    for (std::size_t i = 0; i < pr.sg_list.size() && remaining > 0; ++i) {
      const std::size_t n =
          std::min<std::size_t>(remaining, pr.sg_list[i].length);
      std::memcpy(dsts[i], src, n);
      src += n;
      remaining -= n;
    }
    sim.schedule_after(cm.cqe_cost, [self, wr_id, len, sig] {
      if (auto q = self.lock()) {
        q->complete_send(wr_id, Opcode::kRdmaRead, WcStatus::kSuccess, sig,
                         len);
      }
    });
  });
}

void QueuePair::complete_send(std::uint64_t wr_id, Opcode op, WcStatus status,
                              bool signaled, std::uint32_t byte_len) {
  ++completed_ops_;
  reclaim_send_slot(signaled);
  if (signaled) {
    send_cq_->push(Completion{wr_id, op, status, byte_len, qpn_, {}});
  }
  if (status != WcStatus::kSuccess) set_error();
}

void QueuePair::complete_recv(const Completion& c) { recv_cq_->push(c); }

void QueuePair::reclaim_send_slot(bool signaled) {
  if (!signaled) {
    // Selective signaling: the slot is only reclaimed when the next
    // signaled WR completes (hardware semantics — an all-unsignaled
    // workload eventually fills the send queue).
    ++unreclaimed_unsignaled_;
    return;
  }
  const std::uint32_t reclaim =
      std::min(send_queue_used_, 1 + unreclaimed_unsignaled_);
  send_queue_used_ -= reclaim;
  unreclaimed_unsignaled_ = 0;
}

}  // namespace rubin::verbs
