// OneSidedChannel — the design RUBIN rejected (paper §III-A), implemented
// so the trade-off is measurable instead of rhetorical.
//
// Messages travel as RDMA WRITEs into a ring of fixed slots in the
// *receiver's* memory (the DARE/FaRM mailbox pattern); the receiver
// polls, and returns credits by RDMA-writing its consumed counter into
// the sender's memory. No completion events, no receive WRs — which is
// precisely why it cannot sit behind the event-driven RdmaSelector, and
// why the receiver must expose remotely writable memory:
//
//   * lowest latency of all modes (matches the paper's Fig. 3 R/W line);
//   * "an application [must] expose its buffers to the connected remote
//     nodes" — anyone holding the rkey can corrupt the ring (§III-C);
//     tests demonstrate both the corruption and that Reptor's HMACs
//     detect it;
//   * per-peer pinned rings: memory and coordination grow with the group,
//     the paper's scalability objection.
//
// Wiring: create_pair connects the QPs and hands each side the peer's
// ring and credit-cell addresses and rkeys in-process (production would
// exchange them through the CM).
#pragma once

#include <cstdint>
#include <memory>

#include "common/bytes.hpp"
#include "rubin/context.hpp"
#include "sim/task.hpp"
#include "verbs/device.hpp"

namespace rubin::nio {

struct OneSidedConfig {
  std::uint32_t slot_count = 32;
  std::size_t slot_payload = 128 * 1024;
  /// Receiver returns credits after consuming this many slots.
  std::uint32_t credit_interval = 8;
  /// Poll loop granularity for read_await.
  sim::Time poll_interval = sim::microseconds(1.0);
};

struct OneSidedStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t credit_writes = 0;
  std::uint64_t no_credit_stalls = 0;
};

class OneSidedChannel {
 public:
  /// Builds a connected pair over two contexts, addresses and rkeys
  /// wired in-process; both channels are ready for write()/read() on
  /// return.
  static std::pair<std::unique_ptr<OneSidedChannel>,
                   std::unique_ptr<OneSidedChannel>>
  create_pair(RubinContext& a, RubinContext& b, OneSidedConfig cfg = {});

  /// One-sided send: RDMA-writes the message into the peer's ring.
  /// Returns msg.size(), or 0 when out of credits (peer not consuming).
  sim::Task<std::size_t> write(ByteView msg);

  /// Polls the local ring; returns the next message or 0 if none. The
  /// slot's length field is remotely writable: a length past the slot or
  /// past `out` is clamped and counted (onesided.oversized_slot), and
  /// the slot is consumed — the bytes are garbage for the BFT layer's
  /// MACs to reject, not a reason to fail the receiver.
  sim::Task<std::size_t> read(MutByteView out);

  /// Polling receive (there are *no* events to wait on — the defining
  /// limitation of this design): read, then poll_interval, until a
  /// message arrives. Empty polls park in sim::Simulator::idle_wait.
  sim::Task<std::size_t> read_await(MutByteView out);

  const OneSidedStats& stats() const noexcept { return stats_; }
  const OneSidedConfig& config() const noexcept { return cfg_; }
  /// Remotely writable bytes this endpoint must expose (the §III-C
  /// attack surface; grows linearly with the number of peers).
  std::size_t exposed_bytes() const noexcept { return ring_.size() + 16; }
  /// The ring's rkey — what an attacker needs to corrupt this channel
  /// (exposed for the security-demonstration tests).
  std::uint32_t ring_rkey() const noexcept { return ring_.mr()->rkey(); }
  std::uint64_t ring_addr() const noexcept { return ring_.mr()->addr(); }
  /// The credit cell — the *other* remotely writable word on this
  /// endpoint; forging it attacks flow control rather than payloads
  /// (exposed for the forged-credit security test).
  std::uint32_t credit_rkey() const noexcept {
    return credit_cell_.mr()->rkey();
  }
  std::uint64_t credit_addr() const noexcept {
    return credit_cell_.mr()->addr();
  }
  verbs::QueuePair& qp() noexcept { return *qp_; }

 private:
  OneSidedChannel(RubinContext& ctx, OneSidedConfig cfg);

  std::size_t slot_stride() const noexcept {
    return 16 + cfg_.slot_payload;  // u32 len | u32 pad | u64 seq | payload
  }
  /// True when the next message's slot has landed. Pure.
  bool landed() const noexcept;
  sim::Task<void> return_credits();
  /// Flow-control preamble of write(): polls completions, reads the
  /// (remotely writable) credit cell, and reports whether a ring slot is
  /// available. Sleeps post_call_cpu when stalled.
  sim::Task<bool> acquire_credit();

  RubinContext* ctx_;
  OneSidedConfig cfg_;
  std::shared_ptr<verbs::QueuePair> qp_;
  verbs::CompletionQueue* scq_ = nullptr;
  verbs::CompletionQueue* rcq_ = nullptr;
  /// Poll buffer for retiring send completions, reused across calls.
  std::vector<verbs::Completion> polled_;

  // Local (exposed) resources. Declaration order is registration order,
  // which fixes the keys each one gets.
  verbs::RegisteredBuffer ring_;         // inbound slots, remotely written
  verbs::RegisteredBuffer credit_cell_;  // peer writes its consumed count
  verbs::RegisteredBuffer staging_;      // send staging, one slot per ring slot

  // Remote targets (wired by create_pair).
  std::uint64_t remote_ring_addr_ = 0;
  std::uint32_t remote_ring_rkey_ = 0;
  std::uint64_t remote_credit_addr_ = 0;
  std::uint32_t remote_credit_rkey_ = 0;

  std::uint64_t sent_seq_ = 0;      // messages written to the peer
  std::uint64_t recv_seq_ = 0;      // messages consumed locally
  std::uint64_t credited_seq_ = 0;  // last consumed count sent to the peer
  std::uint64_t wr_seq_ = 0;        // selective-signaling counter
  /// Audit: highest plausible credit value observed. The credit cell is
  /// remotely writable (§III-C), so implausible values are *counted*, not
  /// asserted — a Byzantine peer may forge them.
  std::uint64_t last_credit_ = 0;

  OneSidedStats stats_;
};

}  // namespace rubin::nio
