#include "rubin/transport_select.hpp"

#include <array>

#include "common/counters.hpp"

namespace rubin::nio {

namespace {

/// OneSidedChannel's slot header (u32 len | u32 pad | u64 seq): the extra
/// bytes a mailbox write carries per frame.
constexpr std::size_t kMailboxHeaderBytes = 16;
/// A one-sided READ request frame (header-only, matches the verbs
/// device's wire accounting for kRdmaRead).
constexpr std::size_t kReadRequestBytes = 28;

}  // namespace

sim::Time TransportSelector::cost_of(TransportKind kind,
                                     const SelectorInputs& in) const {
  const net::CostModel& c = *cost_;
  const std::size_t p = in.payload;
  // Posting one WR from the sending thread through the NIC's WQE pipeline.
  const sim::Time post =
      c.post_call_cpu + c.wqe_build_cpu + c.doorbell + c.wqe_processing;
  // One wire transit of `bytes` of payload.
  const auto transit = [&c](std::size_t bytes) {
    return c.wire_serialization(bytes + c.frame_overhead_bytes) +
           c.propagation;
  };
  // Two-sided delivery: receive match, CQE, completion *event* through
  // the kernel, the app's ack + wakeup, and the receive-side copy-out
  // the paper measures (§IV).
  const sim::Time event_delivery = c.recv_match_cost + c.cqe_cost +
                                   c.completion_event_cost + c.event_ack_cpu +
                                   c.thread_wakeup + c.copy_time(p);
  // One-sided delivery: no events — the receiver detects the landed
  // bytes by polling (half an interval in expectation, plus the probe)
  // and copies them out of the ring.
  const sim::Time poll_delivery =
      in.recv_poll_interval / 2 + c.post_call_cpu + c.copy_time(p);

  switch (kind) {
    case TransportKind::kInline:
      // The CPU gathers the payload into the WQE (no payload DMA fetch).
      return post + c.copy_time(p) + transit(p) + c.dma_time(p) +
             event_delivery;
    case TransportKind::kSendRecv:
      // The NIC fetches the payload from host memory on both ends.
      return post + c.dma_fetch_latency + c.dma_time(p) + transit(p) +
             c.dma_time(p) + event_delivery;
    case TransportKind::kWrite: {
      // Mailbox write: pays the slot header on the DMA and the wire,
      // saves the whole completion-event chain on the receiver.
      const std::size_t w = p + kMailboxHeaderBytes;
      return post + c.dma_fetch_latency + c.dma_time(w) + transit(w) +
             c.dma_time(w) + poll_delivery;
    }
    case TransportKind::kReadDrain:
      // Receiver-driven pull: the *receiver* posts a READ, so the frame
      // pays a request transit and the responder NIC's turnaround before
      // the payload even starts — strictly worse on latency, but it
      // consumes no sender-side send slot or ring credit.
      return post + transit(kReadRequestBytes) + c.read_turnaround +
             c.dma_time(p) + transit(p) + c.dma_time(p) + c.cqe_cost +
             poll_delivery;
  }
  return 0;  // unreachable; keeps -Wreturn-type quiet across compilers
}

bool TransportSelector::available(TransportKind kind,
                                  const SelectorInputs& in) const {
  switch (kind) {
    case TransportKind::kInline:
      return in.payload <= cost_->max_inline && in.send_slots_free > 0;
    case TransportKind::kSendRecv:
      return in.send_slots_free > 0;
    case TransportKind::kWrite:
      return in.ring_credits > 0;
    case TransportKind::kReadDrain:
      return true;
  }
  return false;
}

TransportKind TransportSelector::pick(const SelectorInputs& in) const {
  TransportKind best = policy_.fixed;
  if (policy_.mode == TransportPolicy::Mode::kAdaptive) {
    // Literal argmin over the available kinds, evaluated in declaration
    // order with strict < — the earliest enum wins ties. kReadDrain is
    // always available, so the loop always finds a kind.
    constexpr std::array<TransportKind, 4> kKinds = {
        TransportKind::kInline, TransportKind::kSendRecv,
        TransportKind::kWrite, TransportKind::kReadDrain};
    bool have = false;
    sim::Time best_cost = 0;
    for (const TransportKind k : kKinds) {
      if (!available(k, in)) continue;
      const sim::Time t = cost_of(k, in);
      if (!have || t < best_cost) {
        have = true;
        best_cost = t;
        best = k;
      }
    }
  }
  switch (best) {
    case TransportKind::kInline:
      RUBIN_COUNT("transport.pick.inline", 1);
      break;
    case TransportKind::kSendRecv:
      RUBIN_COUNT("transport.pick.send_recv", 1);
      break;
    case TransportKind::kWrite:
      RUBIN_COUNT("transport.pick.write", 1);
      break;
    case TransportKind::kReadDrain:
      RUBIN_COUNT("transport.pick.read", 1);
      break;
  }
  return best;
}

std::size_t TransportSelector::inline_crossover() const {
  // The cost difference inline-vs-send/recv is affine in the payload
  // (copy_time vs dma_fetch + dma_time), so binary search is exact.
  SelectorInputs in;
  in.send_slots_free = 1;
  std::size_t lo = 0;
  std::size_t hi = cost_->max_inline;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo + 1) / 2;
    in.payload = mid;
    if (cost_of(TransportKind::kInline, in) <=
        cost_of(TransportKind::kSendRecv, in)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

std::size_t TransportSelector::write_crossover() const {
  // Affine difference again; search the smallest payload where the
  // mailbox write is no costlier than send/receive, up to 1 MiB.
  constexpr std::size_t kLimit = 1 << 20;
  SelectorInputs in;
  in.send_slots_free = 1;
  in.ring_credits = 1;
  const auto write_wins = [&](std::size_t p) {
    in.payload = p;
    return cost_of(TransportKind::kWrite, in) <=
           cost_of(TransportKind::kSendRecv, in);
  };
  if (write_wins(0)) return 0;
  if (!write_wins(kLimit)) return kLimit;  // never within the search range
  std::size_t lo = 0;   // write loses here
  std::size_t hi = kLimit;  // write wins here
  while (lo + 1 < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    (write_wins(mid) ? hi : lo) = mid;
  }
  return hi;
}

const char* to_string(TransportKind kind) noexcept {
  switch (kind) {
    case TransportKind::kInline:
      return "inline";
    case TransportKind::kSendRecv:
      return "send_recv";
    case TransportKind::kWrite:
      return "write";
    case TransportKind::kReadDrain:
      return "read";
  }
  return "?";
}

}  // namespace rubin::nio
