#include "rubin/write_channel.hpp"

#include <cstring>
#include <stdexcept>

#include "common/audit.hpp"
#include "common/counters.hpp"

namespace rubin::nio {

namespace {
constexpr std::size_t kHeader = 16;  // u32 len | u32 pad | u64 seq

std::uint64_t read_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, 8);
  return v;
}

void write_u64(std::uint8_t* p, std::uint64_t v) { std::memcpy(p, &v, 8); }
}  // namespace

OneSidedChannel::OneSidedChannel(RubinContext& ctx, OneSidedConfig cfg)
    : ctx_(&ctx),
      cfg_(cfg),
      // The §III-C exposure: the inbound ring and the credit cell are
      // remotely writable by anyone holding their rkeys.
      ring_(ctx.pd(), static_cast<std::size_t>(cfg.slot_count) * slot_stride(),
            verbs::kAccessLocalWrite | verbs::kAccessRemoteWrite),
      credit_cell_(ctx.pd(), 8,
                   verbs::kAccessLocalWrite | verbs::kAccessRemoteWrite),
      bootstrap_buf_(ctx.pd(),
                     static_cast<std::size_t>(cfg.slot_count) * slot_stride(),
                     0) {
  auto& dev = ctx.device();
  scq_ = dev.create_cq(4 * cfg.slot_count);
  rcq_ = dev.create_cq(16);
  verbs::QpConfig qc;
  qc.max_send_wr = 2 * cfg.slot_count + 16;  // messages + credit writes
  qp_ = dev.create_qp(ctx.pd(), *scq_, *rcq_, qc);
}

std::pair<std::unique_ptr<OneSidedChannel>, std::unique_ptr<OneSidedChannel>>
OneSidedChannel::create_pair(RubinContext& a, RubinContext& b,
                             OneSidedConfig cfg) {
  auto ca = std::unique_ptr<OneSidedChannel>(new OneSidedChannel(a, cfg));
  auto cb = std::unique_ptr<OneSidedChannel>(new OneSidedChannel(b, cfg));
  ca->qp_->connect(b.device(), cb->qp_->qp_num());
  cb->qp_->connect(a.device(), ca->qp_->qp_num());
  // Address/rkey exchange (production would run this bootstrap through
  // the CM or one two-sided round; the helper wires it directly).
  ca->remote_ring_addr_ = cb->ring_.mr()->addr();
  ca->remote_ring_rkey_ = cb->ring_.mr()->rkey();
  ca->remote_credit_addr_ = cb->credit_cell_.mr()->addr();
  ca->remote_credit_rkey_ = cb->credit_cell_.mr()->rkey();
  cb->remote_ring_addr_ = ca->ring_.mr()->addr();
  cb->remote_ring_rkey_ = ca->ring_.mr()->rkey();
  cb->remote_credit_addr_ = ca->credit_cell_.mr()->addr();
  cb->remote_credit_rkey_ = ca->credit_cell_.mr()->rkey();
  return {std::move(ca), std::move(cb)};
}

std::uint64_t OneSidedChannel::credits_available() const noexcept {
  // Same plausibility filter as acquire_credit(), but pure: an implausible
  // (forgeable, §III-C) cell value falls back to the last accepted one.
  const std::uint64_t consumed = read_u64(credit_cell_.data());
  const std::uint64_t plausible =
      (consumed < last_credit_ || consumed > sent_seq_) ? last_credit_
                                                        : consumed;
  const std::uint64_t in_flight = sent_seq_ - plausible;
  return in_flight >= cfg_.slot_count ? 0 : cfg_.slot_count - in_flight;
}

sim::Task<bool> OneSidedChannel::acquire_credit() {
  (void)scq_->poll(16);  // retire old signaled completions (busy-poll mode)

  // Flow control: the peer writes its consumed count into our credit
  // cell; without this check we would overwrite unconsumed slots — the
  // "read/write race resulting in corrupted data" of paper §III-A.
  const std::uint64_t consumed = read_u64(credit_cell_.data());
  // The credit cell is remote-writable memory: a peer can write a value
  // that goes backwards or claims consumption ahead of what we sent.
  // Either is counted (it is the peer's fault, not a local bug) and the
  // flow-control gate below handles it conservatively.
  if (consumed < last_credit_ || consumed > sent_seq_) {
    RUBIN_COUNT("onesided.implausible_credit", 1);
  } else {
    last_credit_ = consumed;
  }
  if (sent_seq_ - consumed >= cfg_.slot_count) {
    ++stats_.no_credit_stalls;
    co_await ctx_->simulator().sleep(ctx_->cost().post_call_cpu);
    co_return false;
  }
  RUBIN_AUDIT_ASSERT("onesided", sent_seq_ - consumed < cfg_.slot_count,
                     "ring slot about to be reused before the peer "
                     "consumed it");
  co_return true;
}

void OneSidedChannel::stamp_header(std::uint8_t* h, std::size_t len) const {
  const std::uint32_t len32 = static_cast<std::uint32_t>(len);
  std::memcpy(h, &len32, 4);
  std::memset(h + 4, 0, 4);
  write_u64(h + 8, sent_seq_ + 1);
}

sim::Task<std::size_t> OneSidedChannel::post_slot(verbs::SendWr wr,
                                                  std::size_t idx,
                                                  std::size_t len) {
  wr.opcode = verbs::Opcode::kRdmaWrite;
  wr.wr_id = sent_seq_;
  wr.remote_addr = remote_ring_addr_ + idx * slot_stride();
  wr.rkey = remote_ring_rkey_;
  wr.signaled = (++wr_seq_ % 16) == 0;
  const auto r = co_await qp_->post_send_one(std::move(wr));
  if (r != verbs::PostResult::kOk) co_return 0;
  ++sent_seq_;
  ++stats_.messages_sent;
  co_return len;
}

sim::Task<std::size_t> OneSidedChannel::write(ByteView msg) {
  if (msg.size() > cfg_.slot_payload) {
    throw std::invalid_argument("OneSidedChannel::write: message too large");
  }
  if (!co_await acquire_credit()) co_return 0;

  // Stage header + payload in our registered staging slot, then one
  // RDMA WRITE places the whole message in the peer's ring.
  const std::size_t idx = sent_seq_ % cfg_.slot_count;
  std::uint8_t* slot = bootstrap_buf_.data() + idx * slot_stride();
  stamp_header(slot, msg.size());
  co_await ctx_->simulator().sleep(ctx_->cost().copy_time(msg.size()));
  std::memcpy(slot + kHeader, msg.data(), msg.size());

  verbs::SendWr wr;
  wr.sg_list = verbs::Sge{bootstrap_buf_.mr()->addr() + idx * slot_stride(),
                          static_cast<std::uint32_t>(kHeader + msg.size()),
                          bootstrap_buf_.mr()->lkey()};
  co_return co_await post_slot(std::move(wr), idx, msg.size());
}

sim::Task<std::size_t> OneSidedChannel::write(FrameVec msg) {
  if (msg.total_size() > cfg_.slot_payload) {
    throw std::invalid_argument("OneSidedChannel::write: message too large");
  }
  if (1 + msg.slice_count() > verbs::SgeList::kMaxSges) {
    throw std::invalid_argument(
        "OneSidedChannel::write: frame has too many slices for the SGE list");
  }
  if (!co_await acquire_credit()) co_return 0;

  // Scatter/gather one-sided write: the header is built in a fresh
  // refcounted slice and the payload slices ride as-is — the staging
  // memcpy of the flat path (both its copy_time charge and the physical
  // copy) never happens. The SGE list addresses the staging slot, whose
  // registered address space anchors the protection checks.
  const std::size_t idx = sent_seq_ % cfg_.slot_count;
  SharedBytes header = SharedBytes::allocate(kHeader);
  stamp_header(header.mutable_data(), msg.total_size());

  verbs::SendWr wr;
  const std::uint64_t slot_addr =
      bootstrap_buf_.mr()->addr() + idx * slot_stride();
  wr.sg_list = verbs::Sge{slot_addr, static_cast<std::uint32_t>(kHeader),
                          bootstrap_buf_.mr()->lkey()};
  std::uint64_t addr = slot_addr + kHeader;
  FrameVec wire(std::move(header));
  for (const SharedBytes& s : msg) {
    wr.sg_list.push_back(verbs::Sge{addr, static_cast<std::uint32_t>(s.size()),
                                    bootstrap_buf_.mr()->lkey()});
    addr += s.size();
    wire.append(s);
  }
  wr.shared_payload = std::move(wire);
  co_return co_await post_slot(std::move(wr), idx, msg.total_size());
}

sim::Task<std::size_t> OneSidedChannel::read(MutByteView out) {
  const std::size_t idx = recv_seq_ % cfg_.slot_count;
  const std::uint8_t* slot = ring_.data() + idx * slot_stride();
  if (read_u64(slot + 8) != recv_seq_ + 1) {
    // Nothing new; polling still costs a cache probe's worth of CPU.
    co_await ctx_->simulator().sleep(ctx_->cost().post_call_cpu);
    co_return 0;
  }
  std::uint32_t len = 0;
  std::memcpy(&len, slot, 4);
  // A corrupted length (ring memory is remotely writable!) is clamped so
  // it cannot read out of bounds; the *payload* may still be garbage —
  // exactly why Reptor layers HMACs on top (paper §III-C).
  len = std::min<std::uint32_t>(len, static_cast<std::uint32_t>(cfg_.slot_payload));
  if (out.size() < len) {
    throw std::invalid_argument("OneSidedChannel::read: buffer too small");
  }
  co_await ctx_->simulator().sleep(ctx_->cost().copy_time(len));
  std::memcpy(out.data(), slot + kHeader, len);
  ++recv_seq_;
  ++stats_.messages_received;

  RUBIN_AUDIT_ASSERT("onesided", recv_seq_ >= credited_seq_,
                     "credited more consumption than actually consumed");
  if (recv_seq_ - credited_seq_ >= cfg_.credit_interval) {
    co_await return_credits();
  }
  // Credit-return cadence: falling further behind than one interval
  // means the peer will stall on a full ring for no reason. Only a
  // broken QP (the peer is gone) excuses a return that did not post.
  RUBIN_AUDIT_ASSERT("onesided",
                     recv_seq_ - credited_seq_ < cfg_.credit_interval ||
                         qp_->state() == verbs::QpState::kError,
                     "credit return fell behind its cadence");
  co_return len;
}

sim::Task<void> OneSidedChannel::return_credits() {
  // One-sided credit return: an inline write of our consumed count into
  // the peer's credit cell (8 bytes ride in the WQE, no staging needed).
  // A receive-only endpoint posts nothing else on this QP, so the
  // signaling rule is what hands its unsignaled slots back; its
  // completions are retired here, where nothing else polls.
  (void)scq_->poll(16);
  const std::uint64_t consumed = recv_seq_;
  std::uint8_t scratch[8];
  write_u64(scratch, consumed);
  verbs::SendWr wr;
  wr.opcode = verbs::Opcode::kRdmaWrite;
  wr.wr_id = 0xC3ED17;
  wr.inline_data = true;
  wr.sg_list = verbs::Sge{reinterpret_cast<std::uint64_t>(scratch), 8, 0};
  wr.remote_addr = remote_credit_addr_;
  wr.rkey = remote_credit_rkey_;
  wr.signaled = qp_->needs_signal();
  if (co_await qp_->post_send_one(wr) != verbs::PostResult::kOk) {
    // Not credited: the next read retries the return.
    RUBIN_COUNT("onesided.credit_post_failed", 1);
    co_return;
  }
  credited_seq_ = consumed;
  ++stats_.credit_writes;
}

sim::Task<std::size_t> OneSidedChannel::read_await(MutByteView out) {
  for (;;) {
    const std::size_t n = co_await read(out);
    if (n > 0) co_return n;
    co_await ctx_->simulator().sleep(cfg_.poll_interval);
  }
}

}  // namespace rubin::nio
