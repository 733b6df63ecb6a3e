#include "rubin/mux.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/audit.hpp"

namespace rubin::nio {

namespace {
/// wr_id of inline replies — no staging slot to release at completion.
constexpr std::uint64_t kInlineWr = ~0ULL;
/// Staging-slot wr_ids are offset by one: wr_id 0 is reserved because the
/// transport-retry watchdog completes with it, and releasing slot 0 for a
/// watchdog completion would corrupt the pool.
constexpr std::uint64_t kSlotBase = 1;
}  // namespace

std::shared_ptr<MuxAcceptor> MuxAcceptor::listen(RubinContext& ctx,
                                                 std::uint16_t port,
                                                 MuxConfig cfg) {
  auto mux = std::shared_ptr<MuxAcceptor>(new MuxAcceptor(ctx, cfg));
  mux->start(port);
  return mux;
}

void MuxAcceptor::start(std::uint16_t port) {
  auto& dev = ctx_->device();
  if (cfg_.inline_threshold > dev.max_inline()) {
    throw std::invalid_argument(
        "MuxConfig: inline_threshold exceeds the device max_inline");
  }
  comp_channel_ = dev.create_channel();
  // The receive CQ must absorb every posted WR completing before one pump
  // runs (a full SRQ flushing at once is the worst case).
  send_cq_ = dev.create_cq(cfg_.cq_depth, comp_channel_);
  recv_cq_ = dev.create_cq(
      std::max<std::size_t>(cfg_.cq_depth, 2 * cfg_.srq_depth),
      comp_channel_);

  send_pool_ = std::make_unique<BufferPool>(ctx_->pd(), cfg_.send_pool_slots,
                                            cfg_.buffer_size, 0u);
  if (cfg_.use_srq) {
    srq_ = dev.create_srq(verbs::SrqConfig{cfg_.srq_depth, 0});
    recv_pool_ = std::make_unique<BufferPool>(ctx_->pd(), cfg_.srq_depth,
                                              cfg_.buffer_size,
                                              verbs::kAccessLocalWrite);
    std::vector<verbs::RecvWr> wrs;
    wrs.reserve(cfg_.srq_depth);
    for (std::uint32_t slot = 0; slot < cfg_.srq_depth; ++slot) {
      wrs.push_back(recv_wr(*recv_pool_, slot));
    }
    (void)srq_->post_now(std::move(wrs));
    // Low watermark: a burst that outruns the batched read()-side refill
    // re-posts everything pending at once, then re-arms.
    std::weak_ptr<MuxAcceptor> self = weak_from_this();
    srq_->set_limit_handler([self] {
      auto mux = self.lock();
      if (!mux || mux->closed_) return;
      if (!mux->pending_slots_.empty()) {
        std::vector<verbs::RecvWr> refill;
        refill.reserve(mux->pending_slots_.size());
        for (const std::uint32_t slot : mux->pending_slots_) {
          refill.push_back(mux->recv_wr(*mux->recv_pool_, slot));
        }
        mux->pending_slots_.clear();
        (void)mux->srq_->post_now(std::move(refill));
      }
      mux->srq_->arm_limit(mux->cfg_.srq_limit);
    });
    srq_->arm_limit(cfg_.srq_limit);
  }

  std::weak_ptr<MuxAcceptor> self = weak_from_this();
  comp_channel_->set_sink([self](verbs::CompletionQueue*) {
    if (auto mux = self.lock()) mux->pump();
  });
  send_cq_->req_notify();
  recv_cq_->req_notify();

  listener_ = ctx_->cm().listen(ctx_->host(), port, [self](
                                                        const verbs::CmEvent& e) {
    auto mux = self.lock();
    if (!mux || mux->closed_) return;
    switch (e.type) {
      case verbs::CmEventType::kConnectRequest:
        mux->on_connect_request(e);
        break;
      case verbs::CmEventType::kDisconnected:
        mux->on_disconnected(e);
        break;
      case verbs::CmEventType::kEstablished:
      case verbs::CmEventType::kRejected:
        break;
    }
  });
}

verbs::RecvWr MuxAcceptor::recv_wr(BufferPool& pool,
                                   std::uint32_t slot) const {
  // capture_payload: the slot backs the WR (flow control and DMA charges
  // are pool-shaped) but the inbound bytes arrive as a refcounted handle,
  // so the slot is recyclable the moment its completion is pumped.
  return verbs::RecvWr{
      slot, pool.sge(slot, static_cast<std::uint32_t>(cfg_.buffer_size)),
      /*capture_payload=*/true};
}

void MuxAcceptor::on_connect_request(const verbs::CmEvent& e) {
  verbs::QpConfig qc;
  qc.max_send_wr = cfg_.max_send_wr;
  qc.max_recv_wr = cfg_.per_conn_recv;
  qc.max_inline = static_cast<std::uint32_t>(cfg_.inline_threshold);
  qc.transport_retry_timeout_ns = cfg_.transport_retry_timeout_ns;
  if (cfg_.use_srq) qc.srq = srq_;
  auto qp = ctx_->device().create_qp(ctx_->pd(), *send_cq_, *recv_cq_, qc);

  const std::uint64_t index = conns_.size();
  Conn conn;
  conn.qp = qp;
  conn.cm_conn = e.conn_id;
  if (!cfg_.use_srq) {
    conn.recv_pool = std::make_unique<BufferPool>(
        ctx_->pd(), cfg_.per_conn_recv, cfg_.buffer_size,
        verbs::kAccessLocalWrite);
    std::vector<verbs::RecvWr> wrs;
    wrs.reserve(cfg_.per_conn_recv);
    for (std::uint32_t slot = 0; slot < cfg_.per_conn_recv; ++slot) {
      wrs.push_back(recv_wr(*conn.recv_pool, slot));
    }
    (void)qp->post_recv_now(std::move(wrs));
  }
  conn_by_qpn_.set(qp->qp_num(), static_cast<std::uint32_t>(index));
  conn_by_cm_[e.conn_id] = index;
  conns_.push_back(std::move(conn));
  listener_->accept(e.conn_id, std::move(qp));
}

void MuxAcceptor::on_disconnected(const verbs::CmEvent& e) {
  const auto it = conn_by_cm_.find(e.conn_id);
  if (it == conn_by_cm_.end()) return;
  conns_[it->second].open = false;
}

void MuxAcceptor::pump() {
  if (closed_) return;
  while (send_cq_->poll(polled_, 64) > 0) {
    for (const verbs::Completion& c : polled_) {
      if (c.wr_id != kInlineWr && c.wr_id >= kSlotBase) {
        send_pool_->release(static_cast<std::uint32_t>(c.wr_id - kSlotBase));
      }
      if (c.status != verbs::WcStatus::kSuccess) {
        const std::uint32_t conn = conn_by_qpn_.find(c.qp_num);
        if (conn != verbs::QpnIndex::kNone) conns_[conn].open = false;
      }
    }
  }
  while (recv_cq_->poll(polled_, 64) > 0) {
    for (const verbs::Completion& c : polled_) {
      if (c.status != verbs::WcStatus::kSuccess) {
        // Flushed SRQ WR of a torn-down QP: the slot is shared property,
        // reclaim it for the survivors. Per-QP slots die with their ring.
        if (cfg_.use_srq) {
          pending_slots_.push_back(static_cast<std::uint32_t>(c.wr_id));
        }
        continue;
      }
      const std::uint32_t conn = conn_by_qpn_.find(c.qp_num);
      if (conn == verbs::QpnIndex::kNone) continue;
      if (cfg_.use_srq) {
        pending_slots_.push_back(static_cast<std::uint32_t>(c.wr_id));
      } else {
        pending_per_qp_.emplace_back(conn,
                                     static_cast<std::uint32_t>(c.wr_id));
      }
      inbox_.push_back(MuxMessage{conn, c.payload});
      ++messages_received_;
    }
  }
  RUBIN_AUDIT_ASSERT("mux", !send_cq_->overflowed() && !recv_cq_->overflowed(),
                     "mux shared CQ overflowed — size cq_depth for the burst");
  send_cq_->req_notify();
  recv_cq_->req_notify();
  if (!inbox_.empty()) {
    arrival_.set();
    arrival_.reset();  // edge semantics: wake current waiters only
  }
}

sim::Task<void> MuxAcceptor::refill(std::vector<std::uint32_t> slots) {
  std::vector<verbs::RecvWr> wrs;
  wrs.reserve(slots.size());
  for (const std::uint32_t slot : slots) {
    wrs.push_back(recv_wr(*recv_pool_, slot));
  }
  (void)co_await srq_->post(std::span<const verbs::RecvWr>(wrs));
}

sim::Task<MuxMessage> MuxAcceptor::read() {
  for (;;) {
    if (!inbox_.empty()) {
      MuxMessage msg = std::move(inbox_.front());
      inbox_.pop_front();
      if (cfg_.use_srq) {
        if (pending_slots_.size() >= cfg_.refill_batch) {
          std::vector<std::uint32_t> batch = std::move(pending_slots_);
          pending_slots_.clear();
          co_await refill(std::move(batch));
        }
      } else if (!pending_per_qp_.empty()) {
        const auto [conn, slot] = pending_per_qp_.front();
        pending_per_qp_.pop_front();
        Conn& c = conns_[conn];
        if (c.open && c.qp->state() == verbs::QpState::kReadyToSend) {
          const verbs::RecvWr wr = recv_wr(*c.recv_pool, slot);
          (void)co_await c.qp->post_recv(
              std::span<const verbs::RecvWr>(&wr, 1));
        }
      }
      co_return msg;
    }
    co_await arrival_.wait();
  }
}

sim::Task<std::size_t> MuxAcceptor::reply(std::uint64_t conn,
                                          SharedBytes payload) {
  if (closed_ || conn >= conns_.size()) co_return 0;
  Conn& c = conns_[conn];
  if (!c.open || c.qp->state() != verbs::QpState::kReadyToSend ||
      c.qp->send_slots_free() == 0) {
    co_return 0;
  }
  if (payload.size() > cfg_.buffer_size) {
    throw std::invalid_argument("MuxAcceptor::reply: payload exceeds buffer_size");
  }

  verbs::SendWr wr;
  wr.opcode = verbs::Opcode::kSend;
  wr.signaled = true;  // acks are sparse per QP; no selective-signal ring
  const std::size_t n = payload.size();
  if (cfg_.inline_threshold > 0 && n <= cfg_.inline_threshold) {
    wr.inline_data = true;
    wr.wr_id = kInlineWr;
    wr.sg_list =
        verbs::Sge{reinterpret_cast<std::uint64_t>(payload.data()),
                   static_cast<std::uint32_t>(n), 0};
    wr.shared_payload.append(payload);
  } else {
    // The staging slot donates registered address space; the refcounted
    // handle rides the WR (zero-copy), so the slot's bytes stay cold.
    const auto slot = send_pool_->acquire();
    if (!slot) co_return 0;
    wr.wr_id = kSlotBase + *slot;
    wr.sg_list = send_pool_->sge(*slot, static_cast<std::uint32_t>(n));
    wr.shared_payload.append(payload);
  }
  const std::uint64_t posted_id = wr.wr_id;
  const auto result = co_await c.qp->post_send_one(std::move(wr));
  if (result != verbs::PostResult::kOk) {
    if (posted_id != kInlineWr) {
      send_pool_->release(static_cast<std::uint32_t>(posted_id - kSlotBase));
    }
    co_return 0;
  }
  co_return n;
}

std::uint64_t MuxAcceptor::receive_state_bytes() const noexcept {
  if (cfg_.use_srq) {
    return static_cast<std::uint64_t>(cfg_.srq_depth) * cfg_.buffer_size;
  }
  std::uint64_t total = 0;
  for (const Conn& c : conns_) {
    if (c.recv_pool != nullptr) {
      total += static_cast<std::uint64_t>(c.recv_pool->count()) *
               c.recv_pool->slot_size();
    }
  }
  return total;
}

void MuxAcceptor::close() {
  if (closed_) return;
  closed_ = true;
  for (Conn& c : conns_) {
    if (c.open) {
      c.open = false;
      ctx_->cm().disconnect(c.cm_conn);
    }
  }
}

}  // namespace rubin::nio
