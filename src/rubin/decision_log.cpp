#include "rubin/decision_log.hpp"

#include <cstring>
#include <stdexcept>

#include "common/counters.hpp"

namespace rubin::nio {

namespace {

std::uint64_t read_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, 8);
  return v;
}

std::uint32_t read_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, 4);
  return v;
}

void write_u64(std::uint8_t* p, std::uint64_t v) { std::memcpy(p, &v, 8); }
void write_u32(std::uint8_t* p, std::uint32_t v) { std::memcpy(p, &v, 4); }

/// granted_view_ while a flip is in flight: no view matches, so grant_for
/// fails and publishers bypass — "revoke before grant" as observable state.
constexpr std::uint64_t kNoGrant = ~0ULL;

}  // namespace

DecisionLog::DecisionLog(RubinContext& ctx, std::uint32_t self,
                         std::uint32_t n, DecisionLogConfig cfg)
    : ctx_(&ctx),
      cfg_(cfg),
      self_(self),
      selector_(ctx.cost(), cfg.policy) {
  auto& dev = ctx.device();
  scq_ = dev.create_cq(4 * cfg_.slot_count + 4 * n);
  rcq_ = dev.create_cq(16);

  ring_.resize(static_cast<std::size_t>(cfg_.slot_count) * slot_stride());
  ring_mr_ = ctx.pd().register_memory(
      ring_, verbs::kAccessLocalWrite | verbs::kAccessRemoteWrite);

  ack_buf_.resize(n);
  ack_mr_.resize(n, nullptr);
  for (std::uint32_t p = 0; p < n; ++p) {
    if (p == self_) continue;
    ack_buf_[p].resize(static_cast<std::size_t>(cfg_.slot_count) *
                       kAckCellBytes);
    // Separate MR per peer: the rkey handed to p maps only p's region, so
    // a cell in region p *proves* p wrote it (placement authentication).
    ack_mr_[p] = ctx.pd().register_memory(
        ack_buf_[p], verbs::kAccessLocalWrite | verbs::kAccessRemoteWrite);
  }

  staging_.resize(slot_stride());
  staging_mr_ = ctx.pd().register_memory(staging_, 0);

  qp_.resize(n);
  peer_.resize(n);
  cached_rkey_.resize(n, 0);
  verbs::QpConfig qc;
  qc.max_send_wr = 2 * cfg_.slot_count + 32;  // records + ack writes
  for (std::uint32_t p = 0; p < n; ++p) {
    if (p == self_) continue;
    qp_[p] = dev.create_qp(ctx.pd(), *scq_, *rcq_, qc);
  }
}

std::vector<std::unique_ptr<DecisionLog>> DecisionLog::create_group(
    const std::vector<RubinContext*>& ctxs, DecisionLogConfig cfg) {
  const auto n = static_cast<std::uint32_t>(ctxs.size());
  std::vector<std::unique_ptr<DecisionLog>> logs;
  logs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    logs.emplace_back(
        std::unique_ptr<DecisionLog>(new DecisionLog(*ctxs[i], i, n, cfg)));
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    logs[i]->group_.resize(n);
    for (std::uint32_t j = 0; j < n; ++j) logs[i]->group_[j] = logs[j].get();
  }
  // QP mesh + address exchange (production would run this bootstrap
  // through the CM; the helper wires it directly, like create_pair).
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      logs[i]->qp_[j]->connect(ctxs[j]->device(), logs[j]->qp_[i]->qp_num());
      logs[j]->qp_[i]->connect(ctxs[i]->device(), logs[i]->qp_[j]->qp_num());
    }
    for (std::uint32_t j = 0; j < n; ++j) {
      if (j == i) continue;
      logs[i]->peer_[j].ring_addr = logs[j]->ring_mr_->addr();
      logs[i]->peer_[j].ack_addr = logs[j]->ack_mr_[i]->addr();
      logs[i]->peer_[j].ack_rkey = logs[j]->ack_mr_[i]->rkey();
    }
    logs[i]->grant_initial();
  }
  return logs;
}

void DecisionLog::grant_initial() { granted_view_ = 0; }

std::size_t DecisionLog::exposed_bytes() const noexcept {
  std::size_t total = ring_.size();
  for (const Bytes& b : ack_buf_) total += b.size();
  return total;
}

sim::Task<void> DecisionLog::enter_view(std::uint64_t view) {
  // Revoke first: grant_for fails for every view from this line until the
  // flip's NIC charge has elapsed, and the *old* rkey is erased before the
  // first suspension below — a deposed primary's next write NAKs even if
  // it lands mid-flip.
  granted_view_ = kNoGrant;
  ++stats_.permission_flips;
  RUBIN_COUNT("decision_log.permission_flip", 1);
  (void)co_await ctx_->device().flip_write_permission(ctx_->pd(), ring_mr_,
                                                      true);
  granted_view_ = view;
}

bool DecisionLog::has_credit(std::uint32_t peer, std::uint64_t seq) const {
  if (seq <= cfg_.slot_count) return true;
  // The slot's previous occupant was seq - slot_count; its ack landed in
  // the *same* cell index of the peer's region. Any acked seq at or past
  // it proves consumption (acks are monotone per honest peer; a peer
  // lying here only risks its own ring).
  const std::uint8_t* cell =
      ack_buf_[peer].data() + (seq % cfg_.slot_count) * kAckCellBytes;
  return read_u64(cell) >= seq - cfg_.slot_count;
}

sim::Task<verbs::PostResult> DecisionLog::post_ring_write(
    std::uint32_t peer, std::uint64_t remote_off, FrameVec wire,
    std::uint32_t rkey) {
  verbs::SendWr wr;
  wr.opcode = verbs::Opcode::kRdmaWrite;
  wr.wr_id = wr_seq_;
  // SGEs anchor the protection checks in the staging span; the bytes ride
  // zero-copy as the refcounted wire slices (the FrameVec write path).
  std::uint64_t addr = staging_mr_->addr();
  for (const SharedBytes& s : wire) {
    wr.sg_list.push_back(verbs::Sge{
        addr, static_cast<std::uint32_t>(s.size()), staging_mr_->lkey()});
    addr += s.size();
  }
  wr.shared_payload = std::move(wire);
  wr.remote_addr = peer_[peer].ring_addr + remote_off;
  wr.rkey = rkey;
  wr.signaled = (++wr_seq_ % 8) == 0;
  co_return co_await qp_[peer]->post_send_one(std::move(wr));
}

sim::Task<std::uint32_t> DecisionLog::publish(std::uint64_t seq,
                                              std::uint64_t view,
                                              sim::Time proposed_at,
                                              SharedBytes record) {
  if (record.size() > cfg_.slot_payload) {
    throw std::invalid_argument("DecisionLog::publish: record too large");
  }
  (void)drain_completions();

  SharedBytes header = SharedBytes::allocate(kHeaderBytes);
  std::uint8_t* h = header.mutable_data();
  write_u64(h, seq);
  write_u64(h + 8, view);
  write_u64(h + 16, static_cast<std::uint64_t>(proposed_at));
  write_u32(h + 24, static_cast<std::uint32_t>(record.size()));
  write_u32(h + 28, 0);
  SharedBytes canary = SharedBytes::allocate(kCanaryBytes);
  write_u64(canary.mutable_data(), canary_of(seq, view));

  std::uint32_t written = 0;
  const auto n = static_cast<std::uint32_t>(group_.size());
  for (std::uint32_t p = 0; p < n; ++p) {
    if (p == self_) continue;
    const auto grant = group_[p]->grant_for(view);
    if (!grant.has_value() || !has_credit(p, seq)) {
      ++stats_.bypasses;
      RUBIN_COUNT("transport.onesided.bypass", 1);
      continue;
    }
    SelectorInputs in;
    in.payload = kHeaderBytes + record.size() + kCanaryBytes;
    in.send_slots_free = qp_[p]->send_slots_free();
    in.ring_credits = 1;
    in.recv_poll_interval = cfg_.poll_interval;
    if (selector_.pick(in) != TransportKind::kWrite) {
      ++stats_.bypasses;
      RUBIN_COUNT("transport.onesided.bypass", 1);
      continue;
    }
    cached_rkey_[p] = *grant;
    FrameVec wire(header);
    wire.append(record);
    wire.append(canary);
    const auto r = co_await post_ring_write(p, slot_offset(seq),
                                            std::move(wire), *grant);
    if (r != verbs::PostResult::kOk) {
      ++stats_.bypasses;
      RUBIN_COUNT("transport.onesided.bypass", 1);
      continue;
    }
    ++written;
    ++stats_.records_published;
    RUBIN_COUNT("transport.onesided.write", 1);
  }
  co_return written;
}

sim::Task<SlotStatus> DecisionLog::poll_slot(std::uint64_t seq,
                                             std::uint64_t view,
                                             DecisionRecord& out) {
  // A probe costs one cache-line read's worth of CPU, like the mailbox
  // poll of OneSidedChannel::read.
  co_await ctx_->simulator().sleep(ctx_->cost().post_call_cpu);

  const std::uint8_t* slot = ring_.data() + slot_offset(seq);
  const std::uint64_t h_seq = read_u64(slot);
  const std::uint64_t h_view = read_u64(slot + 8);

  if (h_seq != seq) {
    // An empty cell, or the wrapped leftover of an earlier lap of the
    // ring (seq - k * slot_count) — both benign. Anything else was never
    // written by an honest primary for this slot: suspend-worthy.
    const bool leftover = h_seq < seq && (seq - h_seq) % cfg_.slot_count == 0;
    if (h_seq == 0 || leftover) co_return SlotStatus::kEmpty;
    RUBIN_COUNT("decision_log.stale", 1);
    ++stats_.stale_slots;
    co_return SlotStatus::kBadFrame;
  }
  if (h_view != view) {
    // Right sequence, wrong view: a replayed record from before the view
    // change (or one that raced it). The new primary's write will
    // overwrite the slot; until then the message path carries the seq.
    RUBIN_COUNT("decision_log.stale", 1);
    ++stats_.stale_slots;
    co_return SlotStatus::kStale;
  }
  const std::uint32_t len = read_u32(slot + 24);
  if (len > cfg_.slot_payload) co_return SlotStatus::kBadFrame;
  if (read_u64(slot + kHeaderBytes + len) != canary_of(seq, view)) {
    // Header present, canary missing: the write has not fully landed (or
    // was deliberately torn). Not consumed, not fatal — a persistent torn
    // slot simply stalls the fast path until the watchdog falls back.
    RUBIN_COUNT("decision_log.torn", 1);
    ++stats_.torn_slots;
    co_return SlotStatus::kTorn;
  }

  co_await ctx_->simulator().sleep(ctx_->cost().copy_time(len));
  SharedBytes rec = SharedBytes::allocate(len);
  std::memcpy(rec.mutable_data(), slot + kHeaderBytes, len);
  out.seq = seq;
  out.view = h_view;
  out.proposed_at = static_cast<sim::Time>(read_u64(slot + 16));
  out.record = std::move(rec);
  co_return SlotStatus::kReady;
}

sim::Task<void> DecisionLog::ack(std::uint64_t seq, std::uint64_t tag) {
  std::uint8_t cell[kAckCellBytes];
  write_u64(cell, seq);
  write_u64(cell + 8, tag);
  const std::uint64_t cell_off = (seq % cfg_.slot_count) * kAckCellBytes;
  const auto n = static_cast<std::uint32_t>(group_.size());
  for (std::uint32_t p = 0; p < n; ++p) {
    if (p == self_) continue;
    // 16 bytes ride inline in the WQE: no staging, no payload DMA read,
    // no completion — the cheapest write the device offers.
    verbs::SendWr wr;
    wr.opcode = verbs::Opcode::kRdmaWrite;
    wr.wr_id = 0xACC'0000 + seq;
    wr.inline_data = true;
    wr.sg_list = verbs::Sge{reinterpret_cast<std::uint64_t>(cell),
                            kAckCellBytes, 0};
    wr.remote_addr = peer_[p].ack_addr + cell_off;
    wr.rkey = peer_[p].ack_rkey;
    wr.signaled = false;
    (void)co_await qp_[p]->post_send_one(wr);
    ++stats_.acks_sent;
  }
}

std::uint32_t DecisionLog::acks_for(std::uint64_t seq,
                                    std::uint64_t tag) const {
  std::uint32_t count = 0;
  const std::uint64_t cell_off = (seq % cfg_.slot_count) * kAckCellBytes;
  for (std::uint32_t p = 0; p < group_.size(); ++p) {
    if (p == self_) continue;
    const std::uint8_t* cell = ack_buf_[p].data() + cell_off;
    if (read_u64(cell) == seq && read_u64(cell + 8) == tag) ++count;
  }
  return count;
}

std::size_t DecisionLog::drain_completions() {
  std::size_t naks = 0;
  for (;;) {
    const auto batch = scq_->poll(16);
    for (const verbs::Completion& c : batch) {
      if (c.status == verbs::WcStatus::kRemoteAccessError) {
        ++naks;
        ++stats_.write_naks;
        RUBIN_COUNT("decision_log.write_nak", 1);
      }
    }
    if (batch.empty()) break;
  }
  return naks;
}

sim::Task<verbs::PostResult> DecisionLog::raw_write(
    std::uint32_t peer, std::uint64_t offset, SharedBytes bytes,
    std::optional<std::uint32_t> rkey) {
  if (bytes.size() > staging_.size()) {
    throw std::invalid_argument("DecisionLog::raw_write: too large");
  }
  FrameVec wire{bytes};
  co_return co_await post_ring_write(peer, offset, std::move(wire),
                                     rkey.value_or(cached_rkey_[peer]));
}

SharedBytes DecisionLog::make_slot(std::uint64_t seq, std::uint64_t view,
                                   sim::Time proposed_at, ByteView payload,
                                   bool valid_canary) {
  SharedBytes slot = SharedBytes::allocate(kHeaderBytes + payload.size() +
                                           kCanaryBytes);
  std::uint8_t* p = slot.mutable_data();
  write_u64(p, seq);
  write_u64(p + 8, view);
  write_u64(p + 16, static_cast<std::uint64_t>(proposed_at));
  write_u32(p + 24, static_cast<std::uint32_t>(payload.size()));
  write_u32(p + 28, 0);
  std::memcpy(p + kHeaderBytes, payload.data(), payload.size());
  const std::uint64_t canary = canary_of(seq, view);
  write_u64(p + kHeaderBytes + payload.size(),
            valid_canary ? canary : ~canary);
  return slot;
}

}  // namespace rubin::nio
