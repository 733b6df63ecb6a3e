#include "rubin/decision_log.hpp"

#include <cstring>
#include <stdexcept>

#include "common/codec.hpp"
#include "common/counters.hpp"

namespace rubin::nio {

namespace {

/// Slot header: u64 seq | u64 view | u64 proposed_at | u32 len | u32 pad.
void store_slot_header(std::uint8_t* h, std::uint64_t seq,
                       std::uint64_t view, sim::Time proposed_at,
                       std::size_t len) {
  store_le(h, seq);
  store_le(h + 8, view);
  store_le(h + 16, static_cast<std::uint64_t>(proposed_at));
  store_le(h + 24, static_cast<std::uint32_t>(len));
  store_le(h + 28, std::uint32_t{0});
}

/// granted_view_ while a flip is in flight: no view matches, so grant_for
/// fails and publishers bypass — "revoke before grant" as observable state.
constexpr std::uint64_t kNoGrant = ~0ULL;

/// One ack table per peer, none for `self`. A separate MR per peer: the
/// rkey handed to p maps only p's region, so a cell in region p *proves*
/// p wrote it (placement authentication).
std::vector<std::unique_ptr<verbs::RegisteredBuffer>> ack_tables(
    verbs::ProtectionDomain& pd, std::uint32_t self, std::uint32_t n,
    std::size_t bytes) {
  std::vector<std::unique_ptr<verbs::RegisteredBuffer>> tables(n);
  for (std::uint32_t p = 0; p < n; ++p) {
    if (p == self) continue;
    tables[p] = std::make_unique<verbs::RegisteredBuffer>(
        pd, bytes, verbs::kAccessLocalWrite | verbs::kAccessRemoteWrite);
  }
  return tables;
}

}  // namespace

DecisionLog::DecisionLog(RubinContext& ctx, std::uint32_t self,
                         std::uint32_t n, DecisionLogConfig cfg)
    : ctx_(&ctx),
      cfg_(cfg),
      self_(self),
      ring_(ctx.pd(), static_cast<std::size_t>(cfg.slot_count) * slot_stride(),
            verbs::kAccessLocalWrite | verbs::kAccessRemoteWrite),
      ack_buf_(ack_tables(
          ctx.pd(), self, n,
          cfg.slot_count * kAckCellBytes + kConsumedCellBytes)),
      staging_(ctx.pd(), slot_stride(), 0) {
  auto& dev = ctx.device();
  scq_ = dev.create_cq(4 * cfg_.slot_count + 4 * n);
  rcq_ = dev.create_cq(16);

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
      const verbs::MemoryRegion& ack = *logs[j]->ack_buf_[i]->mr();
      logs[i]->peer_[j].ring_addr = logs[j]->ring_addr();
      logs[i]->peer_[j].ack_addr = ack.addr();
      logs[i]->peer_[j].ack_rkey = ack.rkey();
    }
  }
  return logs;
}

std::size_t DecisionLog::exposed_bytes() const noexcept {
  std::size_t total = ring_.size();
  for (const auto& table : ack_buf_) {
    if (table != nullptr) total += table->size();
  }
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
  (void)co_await ctx_->device().flip_write_permission(ctx_->pd(), ring_.mr(),
                                                      true);
  granted_view_ = view;
}

bool DecisionLog::has_credit(std::uint32_t peer, std::uint64_t seq) const {
  if (seq <= cfg_.slot_count) return true;
  // The slot's previous occupant was seq - slot_count; its ack landed in
  // the *same* cell index of the peer's region. Any acked seq at or past
  // it proves consumption, and so does the peer's consumed cell when the
  // message path overtook it (both are monotone per honest peer; a peer
  // lying here only risks its own ring).
  const std::uint8_t* table = ack_buf_[peer]->data();
  const std::uint64_t prev = seq - cfg_.slot_count;
  const std::uint8_t* ack = table + (seq % cfg_.slot_count) * kAckCellBytes;
  return load_le<std::uint64_t>(ack) >= prev ||
         load_le<std::uint64_t>(table + consumed_offset()) >= prev;
}

void DecisionLog::bypass() {
  ++stats_.bypasses;
  RUBIN_COUNT("transport.onesided.bypass", 1);
}

sim::Task<verbs::PostResult> DecisionLog::post_ring_write(
    std::uint32_t peer, std::uint64_t remote_off, FrameVec wire,
    std::uint32_t rkey) {
  verbs::SendWr wr;
  wr.opcode = verbs::Opcode::kRdmaWrite;
  wr.wr_id = wr_seq_;
  // SGEs anchor the protection checks in the staging span; the bytes ride
  // zero-copy as the refcounted wire slices.
  std::uint64_t addr = staging_.mr()->addr();
  for (const SharedBytes& s : wire) {
    wr.sg_list.push_back(verbs::Sge{
        addr, static_cast<std::uint32_t>(s.size()), staging_.mr()->lkey()});
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
  store_slot_header(header.mutable_data(), seq, view, proposed_at,
                    record.size());
  SharedBytes canary = SharedBytes::allocate(kCanaryBytes);
  store_le(canary.mutable_data(), canary_of(seq, view));

  std::uint32_t written = 0;
  const auto n = static_cast<std::uint32_t>(group_.size());
  for (std::uint32_t p = 0; p < n; ++p) {
    if (p == self_) continue;
    const auto grant = group_[p]->grant_for(view);
    if (!grant.has_value()) {
      RUBIN_COUNT("transport.onesided.bypass.no_grant", 1);
      bypass();
      continue;
    }
    if (!has_credit(p, seq)) {
      RUBIN_COUNT("transport.onesided.bypass.no_credit", 1);
      bypass();
      continue;
    }
    cached_rkey_[p] = *grant;
    FrameVec wire(header);
    wire.append(record);
    wire.append(canary);
    const auto r = co_await post_ring_write(p, slot_offset(seq),
                                            std::move(wire), *grant);
    if (r != verbs::PostResult::kOk) {
      RUBIN_COUNT("transport.onesided.bypass.post", 1);
      bypass();
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
  co_await ctx_->simulator().sleep(probe_cost());
  co_return co_await read_slot(seq, view, out);
}

bool DecisionLog::slot_empty(std::uint64_t seq) const noexcept {
  // An empty cell, or the wrapped leftover of an earlier lap of the ring
  // (seq - k * slot_count) — both benign.
  const std::uint64_t h_seq =
      load_le<std::uint64_t>(ring_.data() + slot_offset(seq));
  if (h_seq == seq) return false;
  return h_seq == 0 || (h_seq < seq && (seq - h_seq) % cfg_.slot_count == 0);
}

sim::Task<SlotStatus> DecisionLog::read_slot(std::uint64_t seq,
                                             std::uint64_t view,
                                             DecisionRecord& out) {
  if (slot_empty(seq)) co_return SlotStatus::kEmpty;
  const std::uint8_t* slot = ring_.data() + slot_offset(seq);
  const std::uint64_t h_seq = load_le<std::uint64_t>(slot);
  const std::uint64_t h_view = load_le<std::uint64_t>(slot + 8);

  if (h_seq != seq) {
    // Neither empty nor a leftover: never written by an honest primary
    // for this slot, so suspend-worthy.
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
  const std::uint32_t len = load_le<std::uint32_t>(slot + 24);
  if (len > cfg_.slot_payload) co_return SlotStatus::kBadFrame;
  if (load_le<std::uint64_t>(slot + kHeaderBytes + len) !=
      canary_of(seq, view)) {
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
  out.proposed_at =
      static_cast<sim::Time>(load_le<std::uint64_t>(slot + 16));
  out.record = std::move(rec);
  co_return SlotStatus::kReady;
}

sim::Task<bool> DecisionLog::post_cell(std::uint32_t peer,
                                       std::uint64_t offset,
                                       const std::uint8_t* cell,
                                       std::uint32_t len,
                                       std::uint64_t wr_id) {
  // A few bytes ride inline in the WQE: no staging, no payload DMA read,
  // and no completion unless the signaling rule needs one to hand the
  // queue's unsignaled slots back (a follower's QPs carry nothing else).
  verbs::SendWr wr;
  wr.opcode = verbs::Opcode::kRdmaWrite;
  wr.wr_id = wr_id;
  wr.inline_data = true;
  wr.sg_list = verbs::Sge{reinterpret_cast<std::uint64_t>(cell), len, 0};
  wr.remote_addr = peer_[peer].ack_addr + offset;
  wr.rkey = peer_[peer].ack_rkey;
  wr.signaled = qp_[peer]->needs_signal();
  if (co_await qp_[peer]->post_send_one(wr) != verbs::PostResult::kOk) {
    ++stats_.cell_post_failures;
    RUBIN_COUNT("decision_log.cell_post_failed", 1);
    co_return false;
  }
  co_return true;
}

sim::Task<void> DecisionLog::ack(std::uint64_t seq, std::uint64_t tag) {
  (void)drain_completions();
  std::uint8_t cell[kAckCellBytes];
  store_le(cell, seq);
  store_le(cell + 8, tag);
  const std::uint64_t cell_off = (seq % cfg_.slot_count) * kAckCellBytes;
  for (std::uint32_t p = 0; p < group_.size(); ++p) {
    if (p == self_) continue;
    if (co_await post_cell(p, cell_off, cell, kAckCellBytes,
                           0xACC'0000 + seq)) {
      ++stats_.acks_sent;
    }
  }
}

sim::Task<void> DecisionLog::consumed(std::uint64_t seq) {
  (void)drain_completions();
  std::uint8_t cell[kConsumedCellBytes];
  store_le(cell, seq);
  for (std::uint32_t p = 0; p < group_.size(); ++p) {
    if (p == self_) continue;
    (void)co_await post_cell(p, consumed_offset(), cell, kConsumedCellBytes,
                             0xC0D'0000 + seq);
  }
}

std::uint32_t DecisionLog::acks_for(std::uint64_t seq,
                                    std::uint64_t tag) const {
  std::uint32_t count = 0;
  const std::uint64_t cell_off = (seq % cfg_.slot_count) * kAckCellBytes;
  for (std::uint32_t p = 0; p < group_.size(); ++p) {
    if (p == self_) continue;
    const std::uint8_t* cell = ack_buf_[p]->data() + cell_off;
    if (load_le<std::uint64_t>(cell) == seq &&
        load_le<std::uint64_t>(cell + 8) == tag) {
      ++count;
    }
  }
  return count;
}

std::size_t DecisionLog::drain_completions() {
  std::size_t naks = 0;
  while (scq_->poll(polled_, 16) > 0) {
    for (const verbs::Completion& c : polled_) {
      if (c.status == verbs::WcStatus::kRemoteAccessError) {
        ++naks;
        ++stats_.write_naks;
        RUBIN_COUNT("decision_log.write_nak", 1);
      }
    }
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
  store_slot_header(p, seq, view, proposed_at, payload.size());
  std::memcpy(p + kHeaderBytes, payload.data(), payload.size());
  const std::uint64_t canary = canary_of(seq, view);
  store_le(p + kHeaderBytes + payload.size(),
           valid_canary ? canary : ~canary);
  return slot;
}

}  // namespace rubin::nio
