// MuxAcceptor — the many-connections server endpoint (ROADMAP: "shared
// receive queues and QP multiplexing").
//
// An RdmaServerChannel gives every accepted client a fully-provisioned
// RdmaChannel: two CQs, a completion channel, and send+receive buffer
// pools of buffer_count × buffer_size bytes each. At datacenter client
// counts that per-connection receive state is the scalability wall
// (RDMAvisor, PAPERS.md). The mux keeps one QP per client — RC needs it —
// but shares everything else across the population:
//
//   * one completion channel + one send CQ + one receive CQ (the shared
//     selector key: one event pump for every connection);
//   * receives from one SharedReceiveQueue backed by one shared pool, so
//     receive memory scales with SRQ depth, not client count
//     (MuxConfig::use_srq = false keeps small per-QP rings instead — the
//     baseline the scalability bench compares against);
//   * a dense connection table mapping conn index <-> QP, with inbound
//     messages surfaced as (conn, payload) pairs from one inbox.
//
// Flow control: every message read returns its receive slot to a pending
// list that read() re-posts in charged batches; the SRQ low watermark
// (srq_limit) is the burst safety net — crossing it immediately re-posts
// everything pending and re-arms.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "common/shared_bytes.hpp"
#include "rubin/buffer_pool.hpp"
#include "rubin/context.hpp"
#include "sim/event.hpp"
#include "sim/task.hpp"
#include "verbs/cm.hpp"
#include "verbs/device.hpp"

namespace rubin::nio {

struct MuxConfig {
  /// Shared receive path (the tentpole). false = per-connection receive
  /// rings of per_conn_recv buffers — the per-QP baseline.
  bool use_srq = true;
  /// Shared-pool depth: receive WRs (and buffers) for the whole population.
  std::uint32_t srq_depth = 1024;
  /// Low watermark: crossing it re-posts every pending slot and re-arms.
  std::uint32_t srq_limit = 64;
  /// read() re-posts consumed slots in charged batches of this size.
  std::uint32_t refill_batch = 16;
  /// Per-connection ring depth when use_srq is off.
  std::uint32_t per_conn_recv = 8;
  /// Bytes per receive slot (the population's maximum request size).
  std::size_t buffer_size = 2048;
  /// Per-connection send window (replies are small; keep it shallow).
  std::uint32_t max_send_wr = 16;
  /// Shared send-staging pool slots (bounds replies in flight across the
  /// whole population).
  std::uint32_t send_pool_slots = 256;
  /// Replies at or below this ride inline in the WQE.
  std::size_t inline_threshold = 256;
  /// Shared CQ capacity. Must absorb a full burst: every posted receive
  /// plus every in-flight reply can complete before one pump runs.
  std::size_t cq_depth = 8192;
  /// RC transport-retry budget for accepted QPs (0 disables; population
  /// QPs sit idle between bursts, so the watchdog only covers replies).
  std::int64_t transport_retry_timeout_ns = 50 * 1000 * 1000;
};

/// One inbound request, routed back to the connection that sent it.
struct MuxMessage {
  std::uint64_t conn = 0;
  SharedBytes payload;
};

class MuxAcceptor : public std::enable_shared_from_this<MuxAcceptor> {
 public:
  /// Binds the acceptor on `port` of the context's host. Every connection
  /// request is accepted automatically (the population server has no
  /// admission policy).
  static std::shared_ptr<MuxAcceptor> listen(RubinContext& ctx,
                                             std::uint16_t port,
                                             MuxConfig cfg = {});

  const MuxConfig& config() const noexcept { return cfg_; }

  /// Awaits the next inbound message (FIFO across every connection) and
  /// re-posts consumed receive slots in charged batches.
  sim::Task<MuxMessage> read();

  std::size_t readable_messages() const noexcept { return inbox_.size(); }

  /// Sends a reply on `conn`. Returns payload.size(), or 0 under
  /// backpressure (send window or staging pool exhausted — callers drop
  /// or retry; the population protocol treats a lost ack as a timeout).
  sim::Task<std::size_t> reply(std::uint64_t conn, SharedBytes payload);

  std::size_t connection_count() const noexcept { return conns_.size(); }
  std::uint64_t messages_received() const noexcept { return messages_received_; }

  /// Bytes of receive-buffer state provisioned for the population — the
  /// scalability bench's memory-per-connection numerator. SRQ mode: the
  /// one shared pool. Per-QP mode: per_conn_recv × buffer_size per
  /// accepted connection.
  std::uint64_t receive_state_bytes() const noexcept;

  void close();

 private:
  struct Conn {
    std::shared_ptr<verbs::QueuePair> qp;
    std::uint64_t cm_conn = 0;
    /// Per-QP mode only: this connection's private receive ring.
    std::unique_ptr<BufferPool> recv_pool;
    bool open = true;
  };

  MuxAcceptor(RubinContext& ctx, MuxConfig cfg) : ctx_(&ctx), cfg_(cfg) {}

  void start(std::uint16_t port);
  void on_connect_request(const verbs::CmEvent& e);
  void on_disconnected(const verbs::CmEvent& e);
  /// Drains both shared CQs into the inbox / slot accounting and re-arms.
  void pump();
  sim::Task<void> refill(std::vector<std::uint32_t> slots);
  /// wr_id encoding for receive WRs: SRQ mode uses the shared pool slot;
  /// per-QP mode uses the connection's private slot (the QP disambiguates).
  verbs::RecvWr recv_wr(BufferPool& pool, std::uint32_t slot) const;

  RubinContext* ctx_;
  MuxConfig cfg_;
  std::shared_ptr<verbs::CmListener> listener_;
  verbs::SharedReceiveQueue* srq_ = nullptr;
  verbs::CompletionChannel* comp_channel_ = nullptr;
  verbs::CompletionQueue* send_cq_ = nullptr;
  verbs::CompletionQueue* recv_cq_ = nullptr;
  /// Shared receive pool (SRQ mode) and reply-staging pool (both modes).
  std::unique_ptr<BufferPool> recv_pool_;
  std::unique_ptr<BufferPool> send_pool_;

  /// Connection table: dense index == MuxMessage::conn.
  std::vector<Conn> conns_;
  verbs::QpnIndex conn_by_qpn_;
  std::map<std::uint64_t, std::uint64_t> conn_by_cm_;

  std::deque<MuxMessage> inbox_;
  /// pump()'s poll buffer, reused across calls.
  std::vector<verbs::Completion> polled_;
  /// Receive slots consumed but not yet re-posted. SRQ mode: shared pool
  /// slots. Per-QP mode: unused (slots re-post per connection in read()).
  std::vector<std::uint32_t> pending_slots_;
  /// Per-QP mode: (conn, slot) of the message just read, re-posted by the
  /// next read() call.
  std::deque<std::pair<std::uint64_t, std::uint32_t>> pending_per_qp_;

  sim::Event arrival_{ctx_->simulator()};
  std::uint64_t messages_received_ = 0;
  bool closed_ = false;
};

}  // namespace rubin::nio
