#include "reptor/transport_nio.hpp"

#include "common/codec.hpp"

namespace rubin::reptor {

namespace {
constexpr std::uint64_t kAttachListener = 0;
constexpr std::uint64_t kAttachPeerBase = 2;
constexpr std::uint64_t kTempFlag = 1ull << 40;  // unidentified accepts

/// Appends a frame's u32 length prefix.
void append_length(Bytes& out, std::size_t len) {
  out.resize(out.size() + 4);
  store_le(out.data() + out.size() - 4, static_cast<std::uint32_t>(len));
}

void append_framed(Bytes& out, ByteView frame) {
  append_length(out, frame.size());
  out.insert(out.end(), frame.begin(), frame.end());
}

/// A TCP stream has no scatter/gather: a multi-slice frame is gathered
/// slice-by-slice into the staging buffer under one length prefix.
void append_framed(Bytes& out, const FrameVec& frame) {
  append_length(out, frame.total_size());
  for (const SharedBytes& s : frame) {
    out.insert(out.end(), s.data(), s.data() + s.size());
  }
}
}  // namespace

NioTransport::NioTransport(tcpsim::TcpNetwork& net, GroupLayout layout,
                           NodeId self)
    : Transport(net.simulator(), std::move(layout), self),
      net_(&net),
      poller_(net),
      rx_buf_(64 * 1024) {}

bool NioTransport::connected(NodeId peer) const {
  const auto it = conns_.find(peer);
  return it != conns_.end() && it->second.socket != nullptr &&
         it->second.socket->state() == tcpsim::TcpSocket::State::kEstablished;
}

sim::Task<void> NioTransport::start() {
  if (layout_.is_replica(self_)) {
    listener_ = net_->listen(layout_.hosts[self_], layout_.base_port);
    poller_.register_listener(listener_, tcpsim::kOpAccept, kAttachListener);
  }

  std::vector<NodeId> targets;
  const NodeId limit = layout_.is_replica(self_) ? self_ : layout_.replica_count;
  for (NodeId r = 0; r < limit; ++r) targets.push_back(r);

  for (NodeId peer : targets) {
    auto sock = net_->connect(layout_.hosts[self_],
                              {layout_.hosts[peer], layout_.base_port});
    poller_.register_socket(sock, tcpsim::kOpRead, kAttachPeerBase + peer);
    Conn conn;
    conn.socket = std::move(sock);
    conn.identified = true;  // we know who we dialed
    conns_[peer] = std::move(conn);
  }

  auto all_up = [&] {
    for (NodeId peer : targets) {
      if (!connected(peer)) return false;
    }
    return true;
  };
  while (!all_up()) {
    if (co_await poller_.select(sim::milliseconds(1)) > 0) {
      co_await drain_selected(early_inbound_);
    }
  }

  // Hello must be the first thing on each dialed connection.
  Bytes hello;
  append_framed(hello, hello_frame());
  for (NodeId peer : targets) {
    std::size_t off = 0;
    while (off < hello.size()) {
      off += co_await conns_[peer].socket->write(ByteView(hello).subspan(off));
    }
  }
  co_return;
}

sim::Task<void> NioTransport::drain_selected(std::vector<InboundMsg>& out) {
  for (tcpsim::SelectionKey* key : poller_.selected()) {
    if (key->attachment() == kAttachListener) {
      if (key->is_acceptable()) {
        while (auto sock = listener_->accept()) {
          const std::uint64_t temp = kTempFlag | next_temp_++;
          poller_.register_socket(sock, tcpsim::kOpRead, temp);
          Conn conn;
          conn.socket = std::move(sock);
          unidentified_[temp] = std::move(conn);
        }
      }
      continue;
    }
    if (!key->is_readable()) continue;
    std::uint64_t att = key->attachment();
    if (att & kTempFlag) {
      const auto it = unidentified_.find(att);
      if (it == unidentified_.end()) continue;
      co_await drain_socket(it->second);
      if (!extract_frames(it->second, att, out)) {
        key->cancel();
        it->second.socket->close();
        unidentified_.erase(it);
      } else if (att != key->attachment()) {
        key->attach(att);
        conns_[static_cast<NodeId>(att - kAttachPeerBase)] =
            std::move(it->second);
        unidentified_.erase(it);
      }
    } else if (att >= kAttachPeerBase) {
      Conn& conn = conns_[static_cast<NodeId>(att - kAttachPeerBase)];
      co_await drain_socket(conn);
      extract_frames(conn, att, out);
    }
  }
}

sim::Task<void> NioTransport::drain_socket(Conn& conn) {
  for (;;) {
    const std::size_t n = co_await conn.socket->read(rx_buf_);
    if (n == 0) break;
    stats_.bytes_received += n;
    conn.rx_acc.insert(conn.rx_acc.end(), rx_buf_.begin(),
                       rx_buf_.begin() + static_cast<std::ptrdiff_t>(n));
  }
  co_return;
}

bool NioTransport::extract_frames(Conn& conn, std::uint64_t& attachment,
                                  std::vector<InboundMsg>& out) {
  std::size_t pos = 0;
  while (conn.rx_acc.size() - pos >= 4) {
    const std::uint32_t len = load_le<std::uint32_t>(conn.rx_acc.data() + pos);
    if (conn.rx_acc.size() - pos - 4 < len) break;
    const ByteView frame(conn.rx_acc.data() + pos + 4, len);
    if (!conn.identified) {
      const std::optional<NodeId> peer = parse_hello(frame);
      if (!peer) return false;
      conn.identified = true;
      attachment = kAttachPeerBase + *peer;
    } else {
      ++stats_.frames_received;
      out.push_back(InboundMsg{
          static_cast<NodeId>(attachment - kAttachPeerBase),
          SharedBytes::copy_of(frame)});
    }
    pos += 4 + len;
  }
  conn.rx_acc.erase(conn.rx_acc.begin(),
                    conn.rx_acc.begin() + static_cast<std::ptrdiff_t>(pos));
  return true;
}

sim::Task<void> NioTransport::flush() {
  for (auto& [peer, queue] : outbound_) {
    const auto it = conns_.find(peer);
    if (it == conns_.end() || !connected(peer)) continue;
    Conn& conn = it->second;
    for (;;) {
      // Refill the pending buffer from the frame queue.
      if (conn.tx_off == conn.tx_pending.size()) {
        conn.tx_pending.clear();
        conn.tx_off = 0;
        std::size_t staged = 0;
        std::size_t staged_bytes = 0;
        while (!queue.empty() && conn.tx_pending.size() < 256 * 1024) {
          stats_.bytes_sent += queue.front().total_size();
          staged_bytes += queue.front().total_size();
          ++stats_.frames_sent;
          ++staged;
          append_framed(conn.tx_pending, queue.front());
          queue.pop_front();
        }
        if (conn.tx_pending.empty()) break;
        ++stats_.flush_batches;
        co_await net_->simulator().sleep(stack_cost_.time(staged, staged_bytes));
      }
      const std::size_t w = co_await conn.socket->write(
          ByteView(conn.tx_pending).subspan(conn.tx_off));
      if (w == 0) break;  // kernel buffer full: retry next poll
      conn.tx_off += w;
    }
  }
  co_return;
}

bool NioTransport::backlog() const {
  for (const auto& [peer, conn] : conns_) {
    if (conn.tx_off < conn.tx_pending.size()) return true;
  }
  return Transport::backlog();
}

}  // namespace rubin::reptor
