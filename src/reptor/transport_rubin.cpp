#include "reptor/transport_rubin.hpp"

namespace rubin::reptor {

namespace {
/// Key attachments: 0 = server channel, 1 = unidentified, peer id + 2
/// otherwise.
constexpr std::uint64_t kAttachServer = 0;
constexpr std::uint64_t kAttachUnidentified = 1;
constexpr std::uint64_t kAttachPeerBase = 2;

Bytes hello_frame(NodeId self) {
  Bytes b(4);
  for (int i = 0; i < 4; ++i) b[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(self >> (8 * i));
  return b;
}

NodeId parse_hello(ByteView b) {
  NodeId id = 0;
  for (int i = 0; i < 4 && i < static_cast<int>(b.size()); ++i) {
    id |= static_cast<NodeId>(b[static_cast<std::size_t>(i)]) << (8 * i);
  }
  return id;
}
}  // namespace

RubinTransport::RubinTransport(nio::RubinContext& ctx, GroupLayout layout,
                               NodeId self, nio::ChannelConfig ccfg,
                               std::size_t batch_limit,
                               std::optional<nio::ChannelConfig> accept_cfg)
    : Transport(std::move(layout), self),
      ctx_(&ctx),
      ccfg_(ccfg),
      accept_cfg_(accept_cfg),
      batch_limit_(batch_limit == 0 ? 1 : batch_limit),
      selector_(ctx) {
  if (ccfg_.policy.mode == nio::TransportPolicy::Mode::kAdaptive) {
    // The context's cost model outlives this transport (selector lifetime
    // contract). Derive the inline threshold from the model's crossover
    // instead of the configured magic number: with the threshold at the
    // crossover, the channel's size test reproduces pick()'s argmin over
    // the two-sided kinds frame for frame.
    xport_sel_.emplace(ctx_->cost(), ccfg_.policy);
    ccfg_.inline_threshold = xport_sel_->inline_crossover();
  }
}

bool RubinTransport::connected(NodeId peer) const {
  const auto it = conns_.find(peer);
  return it != conns_.end() && it->second.channel != nullptr &&
         it->second.channel->state() == nio::RdmaChannel::State::kEstablished;
}

bool RubinTransport::is_dialer(NodeId peer) const {
  return layout_.is_replica(self_) ? peer < self_
                                   : peer < layout_.replica_count;
}

void RubinTransport::adopt_channel(NodeId peer,
                                   std::shared_ptr<nio::RdmaChannel> ch) {
  Conn& conn = conns_[peer];
  if (conn.channel && conn.channel != ch) {
    // A replacement connection (peer re-dialed after a break): retire the
    // old channel and its selection key.
    if (auto* key = selector_.find_key(conn.channel->id())) key->cancel();
    conn.channel->close();
  }
  conn.channel = std::move(ch);
}

void RubinTransport::redial(NodeId peer) {
  Conn& conn = conns_[peer];
  if (conn.channel) {
    if (auto* key = selector_.find_key(conn.channel->id())) key->cancel();
    conn.channel->close();
  }
  auto ch = ctx_->connect(layout_.hosts[peer], layout_.base_port, ccfg_);
  selector_.register_channel(ch, nio::kOpAccept | nio::kOpReceive,
                             kAttachPeerBase + peer);
  conn.channel = std::move(ch);
  conn.hello_sent = false;
  conn.dial_time = ctx_->simulator().now();
}

sim::Task<void> RubinTransport::maintain_connections() {
  const sim::Time now = ctx_->simulator().now();
  constexpr sim::Time kMaxBackoff = sim::milliseconds(16);
  const sim::Time connect_timeout = sim::milliseconds(3);
  for (auto& [peer, conn] : conns_) {
    if (!conn.channel) continue;
    const auto state = conn.channel->state();
    if (is_dialer(peer)) {
      const bool dead = state == nio::RdmaChannel::State::kClosed;
      const bool stuck = state == nio::RdmaChannel::State::kConnecting &&
                         now - conn.dial_time > connect_timeout;
      if ((dead || stuck) && now - conn.dial_time > conn.backoff) {
        // Capped exponential backoff: a persistently failing peer (still
        // partitioned, QP repeatedly erroring) is probed ever more gently
        // instead of flooding the fabric with SYNs.
        conn.backoff = std::min<sim::Time>(conn.backoff * 2, kMaxBackoff);
        redial(peer);
        continue;
      }
      if (state == nio::RdmaChannel::State::kEstablished) {
        conn.backoff = sim::milliseconds(1);
        if (!conn.hello_sent) {
          // The hello must precede any protocol frame on the new channel.
          // A SharedBytes handle rides the WR, so the payload stays pinned
          // even under zero_copy_send configs (channel.hpp lifetime
          // contract) — a frame-local Bytes here would dangle.
          const SharedBytes hello = SharedBytes::copy_of(hello_frame(self_));
          if (co_await conn.channel->write(hello) > 0) conn.hello_sent = true;
        }
      }
    } else if (state == nio::RdmaChannel::State::kClosed) {
      // Acceptor side: drop the dead channel and wait for the dialer's
      // replacement to arrive through the server channel.
      if (auto* key = selector_.find_key(conn.channel->id())) key->cancel();
      conn.channel.reset();
    }
  }
  co_return;
}

sim::Task<void> RubinTransport::start() {
  if (layout_.is_replica(self_)) {
    server_ = ctx_->listen(layout_.base_port, accept_cfg_.value_or(ccfg_));
    selector_.register_server(server_, nio::kOpConnect | nio::kOpAccept,
                              kAttachServer);
  }

  // Initiate: replicas dial lower-numbered replicas; clients dial all.
  std::vector<NodeId> targets;
  const NodeId limit = layout_.is_replica(self_) ? self_ : layout_.replica_count;
  for (NodeId r = 0; r < limit; ++r) targets.push_back(r);

  for (NodeId peer : targets) {
    auto ch = ctx_->connect(layout_.hosts[peer], layout_.base_port, ccfg_);
    selector_.register_channel(ch, nio::kOpAccept | nio::kOpReceive,
                               kAttachPeerBase + peer);
    adopt_channel(peer, std::move(ch));
    // The hello is owed on first establishment, exactly as after a
    // redial; maintain_connections() sends it (hello precedes any
    // protocol frame because poll() runs maintenance before flush()).
    conns_[peer].hello_sent = false;
    conns_[peer].dial_time = ctx_->simulator().now();
  }

  // Wait for every initiated connection to establish *and* carry its
  // hello; keep servicing our own accepts meanwhile (replica i>0
  // establishing to 0..i-1 while i+1..n-1 dial us). Maintenance runs
  // inside the loop: a connect or hello lost to fault injection at t=0
  // must redial with backoff right here — poll() (the steady-state
  // owner of redials) never runs until start() returns, so without this
  // a single dropped handshake frame would wedge the node forever (a
  // startup-liveness hole the FaultLab explorer found).
  auto all_up = [&] {
    for (NodeId peer : targets) {
      if (!connected(peer) || !conns_[peer].hello_sent) return false;
    }
    return true;
  };
  while (!all_up()) {
    const std::size_t n = co_await selector_.select(sim::milliseconds(1));
    if (n > 0) {
      for (nio::RdmaSelectionKey* key : selector_.selected()) {
        if (key->server_channel()) {
          while (server_->pending_requests() > 0) (void)server_->accept();
          while (auto ch = server_->next_established()) {
            selector_.register_channel(ch, nio::kOpReceive,
                                       kAttachUnidentified);
            unidentified_.push_back(std::move(ch));
          }
        } else if (key->is_receivable() && key->channel()) {
          // Frames landing during startup are kept for the first poll().
          co_await drain_channel(*key->channel(),
                                 static_cast<NodeId>(key->attachment()),
                                 early_inbound_);
        }
      }
    }
    co_await maintain_connections();
  }
  co_return;
}

sim::Task<void> RubinTransport::drain_channel(nio::RdmaChannel& ch,
                                              NodeId attachment,
                                              std::vector<InboundMsg>& out) {
  for (;;) {
    // Frames arrive as refcounted handles straight off the receive pool —
    // no per-frame copy into a reassembly buffer (RDMA is message-
    // oriented, so each handle is one whole protocol frame).
    SharedBytes frame = co_await ch.read_shared();
    if (frame.empty()) break;
    stats_.bytes_received += frame.size();
    if (attachment == kAttachUnidentified) {
      // First frame on an accepted connection: the peer's hello. Under
      // fault injection the first frame can be something else entirely —
      // a reordered protocol frame or a corrupted hello — and a garbage
      // peer id would wedge this connection forever. Validate and drop
      // the channel instead; the dialer's backoff redials.
      const NodeId peer = parse_hello(frame.view());
      if (frame.size() != 4 || peer >= layout_.hosts.size() || peer == self_) {
        if (auto* key = selector_.find_key(ch.id())) key->cancel();
        ch.close();
        std::erase_if(unidentified_,
                      [&](const auto& c) { return c.get() == &ch; });
        break;
      }
      adopt_channel(peer, ch.shared_from_this());
      std::erase_if(unidentified_,
                    [&](const auto& c) { return c.get() == &ch; });
      attachment = kAttachPeerBase + peer;
      // Rebind the selection key so later drains route directly.
      if (auto* key = selector_.find_key(ch.id())) key->attach(attachment);
      continue;
    }
    ++stats_.frames_received;
    out.push_back(InboundMsg{static_cast<NodeId>(attachment - kAttachPeerBase),
                             std::move(frame)});
  }
  co_return;
}

sim::Task<void> RubinTransport::flush() {
  for (auto& [peer, queue] : outbound_) {
    if (queue.empty()) continue;
    const auto it = conns_.find(peer);
    if (it == conns_.end() || !connected(peer)) continue;
    Conn& conn = it->second;
    while (!queue.empty()) {
      // FrameVec batch: single-slice frames stage exactly as SharedBytes
      // did (bit-identical charges); multi-slice frames post as one
      // scatter/gather SGE list with no gather copy (DESIGN.md §11).
      std::vector<FrameVec> batch;
      const std::size_t take = std::min(batch_limit_, queue.size());
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) batch.push_back(queue[i]);
      if (xport_sel_) {
        // Record the selector's per-frame decision (transport.pick.*
        // counters). With no one-sided lane, ring_credits stays 0;
        // the channel enacts the inline/send-recv choice itself because
        // its threshold equals the selector's crossover (see header).
        // send_slots_hint() deliberately: pick must not pump, or the
        // adaptive run would drift from the fixed run's event order.
        const std::uint32_t slots = conn.channel->send_slots_hint();
        for (std::size_t i = 0; i < take; ++i) {
          nio::SelectorInputs in;
          in.payload = batch[i].total_size();
          in.send_slots_free =
              slots > i ? slots - static_cast<std::uint32_t>(i) : 0;
          in.ring_credits = 0;
          // A Reptor peer drains completions via events and polls no
          // remote-writable memory, so the polled lanes' effective
          // detection interval is unbounded — price them out honestly
          // rather than masking them.
          in.recv_poll_interval = sim::seconds(1);
          (void)xport_sel_->pick(in);
        }
      }
      const std::size_t accepted =
          co_await conn.channel->write_batch(std::move(batch));
      ++stats_.flush_batches;
      if (accepted == 0) break;  // backpressure: retry next poll
      std::size_t accepted_bytes = 0;
      for (std::size_t i = 0; i < accepted; ++i) {
        accepted_bytes += queue[i].total_size();
      }
      co_await ctx_->simulator().sleep(
          stack_cost_.time(accepted, accepted_bytes));
      for (std::size_t i = 0; i < accepted; ++i) {
        stats_.bytes_sent += queue.front().total_size();
        ++stats_.frames_sent;
        // The WR holds its own references to the slices; nothing to park.
        queue.pop_front();
      }
      if (accepted < take) break;
    }
  }
  co_return;
}

sim::Task<std::vector<InboundMsg>> RubinTransport::poll(sim::Time timeout) {
  co_await maintain_connections();
  co_await flush();

  bool backlog = false;
  for (const auto& [peer, queue] : outbound_) {
    if (!queue.empty()) backlog = true;
  }
  sim::Time effective = timeout;
  if (backlog) {
    const sim::Time retry = sim::microseconds(200);
    effective = (timeout < 0 || timeout > retry) ? retry : timeout;
  }

  std::vector<InboundMsg> out;
  if (!early_inbound_.empty()) {
    out = std::move(early_inbound_);
    early_inbound_.clear();
    effective = 0;  // just sweep what else is already there
  }
  const std::size_t n = co_await selector_.select(effective);
  if (n > 0) {
    for (nio::RdmaSelectionKey* key : selector_.selected()) {
      if (key->server_channel()) {
        while (server_->pending_requests() > 0) (void)server_->accept();
        while (auto ch = server_->next_established()) {
          selector_.register_channel(ch, nio::kOpReceive, kAttachUnidentified);
          unidentified_.push_back(std::move(ch));
        }
      } else if (key->is_receivable() && key->channel()) {
        co_await drain_channel(*key->channel(),
                               static_cast<NodeId>(key->attachment()), out);
      }
    }
  }
  if (!out.empty()) {
    std::size_t bytes = 0;
    for (const InboundMsg& m : out) bytes += m.frame.size();
    co_await ctx_->simulator().sleep(stack_cost_.time(out.size(), bytes));
  }
  co_return out;
}

}  // namespace rubin::reptor
