#include "rubin/write_channel.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/audit.hpp"
#include "common/codec.hpp"
#include "common/counters.hpp"

namespace rubin::nio {

namespace {
constexpr std::size_t kHeader = 16;  // u32 len | u32 pad | u64 seq
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
      staging_(ctx.pd(),
               static_cast<std::size_t>(cfg.slot_count) * slot_stride(), 0) {
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
  // Address/rkey exchange (production would run it through the CM; the
  // helper wires it directly).
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

sim::Task<bool> OneSidedChannel::acquire_credit() {
  scq_->poll(polled_, 16);  // retire old signaled completions (busy-poll mode)

  // Flow control: the peer writes its consumed count into our credit
  // cell; without this check we would overwrite unconsumed slots — the
  // "read/write race resulting in corrupted data" of paper §III-A.
  const std::uint64_t consumed = load_le<std::uint64_t>(credit_cell_.data());
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

sim::Task<std::size_t> OneSidedChannel::write(ByteView msg) {
  if (msg.size() > cfg_.slot_payload) {
    throw std::invalid_argument("OneSidedChannel::write: message too large");
  }
  if (!co_await acquire_credit()) co_return 0;

  // Stage header (u32 len | u32 pad | u64 seq) + payload in our
  // registered staging slot, then one RDMA WRITE places the whole message
  // in the peer's ring.
  const std::size_t idx = sent_seq_ % cfg_.slot_count;
  std::uint8_t* slot = staging_.data() + idx * slot_stride();
  store_le(slot, static_cast<std::uint32_t>(msg.size()));
  store_le(slot + 4, std::uint32_t{0});
  store_le(slot + 8, sent_seq_ + 1);
  co_await ctx_->simulator().sleep(ctx_->cost().copy_time(msg.size()));
  std::memcpy(slot + kHeader, msg.data(), msg.size());

  verbs::SendWr wr;
  wr.opcode = verbs::Opcode::kRdmaWrite;
  wr.wr_id = sent_seq_;
  wr.sg_list = verbs::Sge{staging_.mr()->addr() + idx * slot_stride(),
                          static_cast<std::uint32_t>(kHeader + msg.size()),
                          staging_.mr()->lkey()};
  wr.remote_addr = remote_ring_addr_ + idx * slot_stride();
  wr.rkey = remote_ring_rkey_;
  wr.signaled = (++wr_seq_ % 16) == 0;
  const auto r = co_await qp_->post_send_one(std::move(wr));
  if (r != verbs::PostResult::kOk) co_return 0;
  ++sent_seq_;
  ++stats_.messages_sent;
  co_return msg.size();
}

bool OneSidedChannel::landed() const noexcept {
  const std::size_t idx = recv_seq_ % cfg_.slot_count;
  return load_le<std::uint64_t>(ring_.data() + idx * slot_stride() + 8) ==
         recv_seq_ + 1;
}

sim::Task<std::size_t> OneSidedChannel::read(MutByteView out) {
  const std::size_t idx = recv_seq_ % cfg_.slot_count;
  const std::uint8_t* slot = ring_.data() + idx * slot_stride();
  if (!landed()) {
    // Nothing new; polling still costs a cache probe's worth of CPU.
    co_await ctx_->simulator().sleep(ctx_->cost().post_call_cpu);
    co_return 0;
  }
  const std::uint32_t raw_len = load_le<std::uint32_t>(slot);
  // A corrupted length (ring memory is remotely writable!) is clamped so
  // it cannot read out of bounds of the slot or of `out`; the *payload*
  // may still be garbage — exactly why Reptor layers HMACs on top (paper
  // §III-C).
  const std::size_t len =
      std::min<std::size_t>({raw_len, cfg_.slot_payload, out.size()});
  if (len < raw_len) RUBIN_COUNT("onesided.oversized_slot", 1);
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
  scq_->poll(polled_, 16);
  const std::uint64_t consumed = recv_seq_;
  std::uint8_t scratch[8];
  store_le(scratch, consumed);
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
    // Phase 0 reads again (idle while nothing landed); phase 1 follows
    // the empty read's probe charge and only waits.
    (void)co_await ctx_->simulator().idle_wait(
        sim::IdleSteps(ctx_->cost().post_call_cpu, cfg_.poll_interval),
        [this](std::uint32_t phase) { return phase == 1 || !landed(); });
  }
}

}  // namespace rubin::nio
