// Calibrated cost model for the simulated testbed.
//
// The paper measured two 4-core Xeon machines with Mellanox MT27520 RNICs
// (RoCE) on a 10 Gbps full-duplex link, OFED 4.0-2. We have no RDMA
// hardware (repro band 2/5), so every latency in the reproduction comes
// from this one struct. The constants are set from published measurements:
//  * >50 % of TCP CPU cycles go to intermediate copies (Frey & Alonso,
//    ICDCS'09; cited as [6] in the paper) — hence the explicit per-byte
//    user<->kernel copy costs on the TCP path and the receiver-side copy
//    of the RDMA channel.
//  * RNIC doorbell/WQE/CQE costs in the sub-microsecond range and DMA at
//    link speed (DARE, HPDC'15; FaRM, NSDI'14).
//  * Completion-channel *events* (as opposed to busy polling) traverse the
//    kernel — that is why one-sided Read/Write with memory polling beats
//    Send/Receive with completion events, the paper's ≈46 % gap.
//
// Calibration targets are the paper's relative numbers (Fig. 3/4), checked
// by tests/calibration_test.cpp; absolute microseconds differ from the
// paper because their stack was Java + DiSNI (see EXPERIMENTS.md).
#pragma once

#include <cstddef>

#include "sim/time.hpp"

namespace rubin::net {

struct CostModel {
  // ------------------------------------------------------------- link ----
  /// One-way propagation (wire + switch) between any two hosts.
  sim::Time propagation = sim::microseconds(1.8);
  /// Link speed; serialization delay = bytes * 8 / bandwidth.
  double bandwidth_gbps = 10.0;
  /// Per-frame wire overhead (Ethernet + IP headers, RoCE BTH, preamble).
  std::size_t frame_overhead_bytes = 78;
  /// Maximum transmission unit — TCP segments payloads at this size.
  std::size_t mtu = 1500;

  // ---------------------------------------------------------- host OS ----
  /// One syscall boundary (send/recv/epoll_wait): user->kernel->user.
  sim::Time kernel_crossing = sim::microseconds(0.9);
  /// user<->kernel buffer copy bandwidth (memcpy through the page cache).
  double copy_gbps = 38.0;  // ~4.75 GB/s, a cold-ish single-core memcpy
  /// Fixed cost per memcpy call (loop setup, cache misses on the head).
  sim::Time copy_fixed = sim::microseconds(0.08);
  /// TCP/IP stack processing per segment (checksum offloaded; headers,
  /// cwnd accounting, skb management).
  sim::Time tcp_segment_cost = sim::microseconds(2.0);
  /// NIC interrupt + softirq dispatch on the TCP receive path.
  sim::Time interrupt_cost = sim::microseconds(1.6);
  /// Waking a blocked thread (futex/epoll wakeup + schedule-in).
  sim::Time thread_wakeup = sim::microseconds(1.1);

  // -------------------------------------------------------------- RNIC ---
  /// MMIO doorbell write telling the NIC new WQEs are ready. Batched
  /// posting amortizes this over the batch (paper §IV).
  sim::Time doorbell = sim::microseconds(0.30);
  /// NIC fetches + processes one WQE.
  sim::Time wqe_processing = sim::microseconds(0.45);
  /// DMA engine bandwidth between host memory and the NIC.
  double dma_gbps = 88.0;  // PCIe 3 x8 — effectively link-bound
  /// Generating a CQE (always) …
  sim::Time cqe_cost = sim::microseconds(0.15);
  /// … plus delivering a completion *event* through the completion channel
  /// (kernel visit + fd wakeup). Busy polling avoids this entirely; RUBIN's
  /// event-manager design pays it once per signaled completion.
  sim::Time completion_event_cost = sim::microseconds(3.6);
  /// Consuming one completion event on the application thread: reading
  /// the event fd and acknowledging it (ibv_get_cq_event +
  /// ibv_ack_cq_events). This is the per-event CPU that selective
  /// signaling avoids on the send path (paper §IV).
  sim::Time event_ack_cpu = sim::microseconds(0.7);
  /// Extra PCIe round trip for the NIC to fetch a non-inline payload from
  /// host memory (inline payloads ride inside the WQE — the paper's
  /// small-message latency win).
  sim::Time dma_fetch_latency = sim::microseconds(0.45);
  /// Matching an inbound SEND to a posted receive WQE.
  sim::Time recv_match_cost = sim::microseconds(0.25);
  /// Responder-side NIC turnaround for one-sided READ (request->DMA->reply).
  sim::Time read_turnaround = sim::microseconds(0.65);
  /// Payload bytes that fit inline in the WQE (no DMA read of the payload).
  std::size_t max_inline = 256;
  /// User-space CPU cost of one post_send/post_recv call (no kernel!) …
  sim::Time post_call_cpu = sim::microseconds(0.10);
  /// … plus building each WQE in the submission queue.
  sim::Time wqe_build_cpu = sim::microseconds(0.06);
  /// Latency from responder-side delivery to the requester-side CQE of a
  /// reliable SEND/WRITE: the RC acknowledgement, *coalesced* by the NIC
  /// (acks are batched/delayed to save wire and PCIe round trips). This
  /// is why blocking on every send completion — DiSNI endpoint semantics,
  /// the paper's Send/Receive baseline — costs so much at small message
  /// sizes, and why selective signaling (paper §IV) wins there: an
  /// unsignaled WR never waits for its ack.
  sim::Time ack_latency = sim::microseconds(12.0);
  /// Registering a memory region: pinning pages + programming the NIC TLB.
  /// Dominantly fixed cost plus a per-page component. This is why RUBIN
  /// caches registrations of application send buffers instead of
  /// registering per message (paper §IV).
  sim::Time mr_register_fixed = sim::microseconds(20.0);
  sim::Time mr_register_per_kb = sim::microseconds(0.20);

  // ------------------------------------------------------------- RUBIN ---
  /// RUBIN selector costs: select() entry and per-hybrid-event dispatch
  /// (ID comparison + ready-set update). All user space — but per *event*,
  /// whereas epoll charges per *call*; this is the "select() is less
  /// performant than the highly optimized Java NIO selector" effect the
  /// paper reports (§IV).
  sim::Time rubin_select_entry = sim::microseconds(0.25);
  sim::Time rubin_event_dispatch = sim::microseconds(0.30);

  sim::Time mr_register_time(std::size_t bytes) const {
    return mr_register_fixed +
           static_cast<sim::Time>(static_cast<double>(bytes) / 1024.0 *
                                  static_cast<double>(mr_register_per_kb));
  }

  // ------------------------------------------------------- derived -------
  /// Time to serialize `bytes` onto the wire (excludes propagation).
  sim::Time wire_serialization(std::size_t bytes) const {
    return static_cast<sim::Time>(static_cast<double>(bytes) * 8.0 /
                                  bandwidth_gbps);
  }
  /// One user<->kernel (or app<->staging) memcpy of `bytes`.
  sim::Time copy_time(std::size_t bytes) const {
    return copy_fixed + static_cast<sim::Time>(static_cast<double>(bytes) *
                                               8.0 / copy_gbps);
  }
  /// DMA transfer of `bytes` between host memory and the NIC.
  sim::Time dma_time(std::size_t bytes) const {
    return static_cast<sim::Time>(static_cast<double>(bytes) * 8.0 /
                                  dma_gbps);
  }
  /// Number of MTU-sized segments TCP needs for `bytes` of payload.
  std::size_t segments(std::size_t bytes) const {
    return bytes == 0 ? 1 : (bytes + mtu - 1) / mtu;
  }

  /// The testbed the paper used: defaults above.
  static CostModel roce_10g() { return CostModel{}; }
};

}  // namespace rubin::net
