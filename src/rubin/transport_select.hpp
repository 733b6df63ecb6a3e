// Per-frame transport selection (DESIGN.md §11).
//
// The paper fixes one primitive per connection — two-sided send/receive
// behind the channel abstraction — and documents what that choice costs
// against one-sided read/write (§III, Fig. 3). This selector makes the
// choice per *frame* instead: given the payload size and the live
// resource state (send-queue headroom, mailbox ring credits), it picks
// the primitive the calibrated cost model says is cheapest right now.
//
// The contract is deliberately austere so it can be property-tested:
//   * cost_of() is a pure function of (kind, inputs) composed only of
//     net::CostModel terms — no magic latency numbers live here;
//   * pick() under kAdaptive is the literal argmin of cost_of over the
//     kinds whose resources are available(), ties broken toward the
//     smallest enum value (evaluation in declaration order, strict <);
//   * pick() under kFixed returns TransportPolicy::fixed unconditionally,
//     which is how every pre-existing configuration reproduces
//     bit-identically — the selector only *observes* in that mode.
//
// Every pick fires one transport.pick.* counter, so a run's
// transport mix is auditable after the fact (and rubinlint's audit-xref
// keeps the counter names test-asserted).
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/cost_model.hpp"
#include "rubin/config.hpp"
#include "sim/time.hpp"

namespace rubin::nio {

/// Sender-side observables the selector may consult for one frame.
struct SelectorInputs {
  std::size_t payload = 0;
  /// Free send-queue slots on the two-sided QP (gates kInline/kSendRecv;
  /// see RdmaChannel::send_slots_free()).
  std::uint32_t send_slots_free = 0;
  /// One-sided mailbox slots the peer has not yet consumed-and-credited
  /// (gates kWrite; see OneSidedChannel::credits_available()).
  std::uint64_t ring_credits = 0;
  /// The mailbox receiver's poll granularity; a one-sided delivery is
  /// detected, in expectation, half an interval after it lands.
  sim::Time recv_poll_interval = sim::microseconds(1.0);
};

class TransportSelector {
 public:
  /// `cost` is held by reference — it must outlive the selector (pass the
  /// context's model, not a temporary).
  TransportSelector(const net::CostModel& cost, TransportPolicy policy)
      : cost_(&cost), policy_(policy) {}

  /// The pick (see the file comment for the exact contract). Fires the
  /// matching transport.pick.* counter in either mode.
  TransportKind pick(const SelectorInputs& in) const;

  /// Modeled one-way delivery latency of `kind` for these inputs: sender
  /// CPU + NIC + wire + receiver-side cost up to application delivery.
  /// Pure — composed exclusively of net::CostModel terms.
  sim::Time cost_of(TransportKind kind, const SelectorInputs& in) const;

  /// Resource gate: whether `kind` can carry this frame at all. kInline
  /// needs the payload within the device inline cap and a send slot;
  /// kSendRecv needs a send slot; kWrite needs a ring credit; kReadDrain
  /// (receiver-driven pull) is always available — it is the escape hatch
  /// when the sender's resources are exhausted.
  bool available(TransportKind kind, const SelectorInputs& in) const;

  /// Largest payload for which the inline WQE copy undercuts the DMA
  /// fetch of a non-inline send, clamped by the device inline capacity.
  /// Under the roce_10g model the cap binds (the raw copy-vs-DMA
  /// crossover sits near 3 KB, well above max_inline).
  std::size_t inline_crossover() const;

  /// Smallest payload at which a one-sided write undercuts two-sided
  /// send/receive (0 when it always does — the roce_10g answer: skipping
  /// the completion-event chain beats the mailbox header at every size,
  /// the paper's "lowest latency of all modes").
  std::size_t write_crossover() const;

  const TransportPolicy& policy() const noexcept { return policy_; }

 private:
  const net::CostModel* cost_;
  TransportPolicy policy_;
};

/// Display name: the transport.pick.* counter suffix ("inline",
/// "send_recv", "write", "read").
const char* to_string(TransportKind kind) noexcept;

}  // namespace rubin::nio
