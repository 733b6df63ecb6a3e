// RUBIN channel configuration: the tunables behind the paper's §IV
// optimizations. "This abstraction is flexible because the number of WRs
// as well as the size of buffers can be independently specified, thereby
// allowing for the versatility needed by BFT protocols."
#pragma once

#include <cstddef>
#include <cstdint>

namespace rubin::nio {

struct ChannelConfig {
  /// Buffers (== work requests) per direction. Receives are pre-posted in
  /// full at channel creation — under-provisioning shows up as RNR stalls,
  /// the classic two-sided pitfall the paper warns about (§II-A).
  std::uint32_t buffer_count = 64;
  /// Bytes per pooled buffer. One message occupies one buffer; messages
  /// larger than this are rejected (size your pool for the protocol's
  /// maximum message, as Reptor does).
  std::size_t buffer_size = 128 * 1024;
  /// Selective signaling: request a completion on every Nth send. 1 means
  /// every send is signaled (the unoptimized baseline for Ablation A1).
  std::uint32_t signal_interval = 16;
  /// Payloads <= this are sent inline in the WQE (no payload DMA read, no
  /// pool buffer). 0 disables inlining (Ablation A2).
  std::size_t inline_threshold = 256;
  /// Register the application's send buffer and let the NIC read from it
  /// directly instead of copying into a pool buffer (paper §IV, large
  /// messages). Registrations are cached per buffer; the first write from
  /// a given buffer pays the registration cost.
  bool zero_copy_send = true;
  /// RC transport-retry budget for the underlying QP: a WR that never
  /// completes within this window (e.g. the peer is partitioned away)
  /// breaks the connection instead of wedging it. 0 disables.
  std::int64_t transport_retry_timeout_ns = 50 * 1000 * 1000;  // 50 ms
  /// Planned future optimization (paper §VII): hand the receive pool
  /// buffer to the application without the receive-side copy. Off by
  /// default — the paper's measured system copies on receive, which is
  /// what degrades large-message latency in Figs. 3/4 (Ablation A3 flips
  /// this).
  bool zero_copy_receive = false;
};

}  // namespace rubin::nio
