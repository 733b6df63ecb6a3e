#include "tcpsim/tcp.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/counters.hpp"

namespace rubin::tcpsim {

// ----------------------------------------------------------- TcpSocket ---

sim::Task<std::size_t> TcpSocket::write(ByteView data) {
  auto& sim = net_->simulator();
  const auto& cost = net_->cost();
  // send(2): syscall entry + user->kernel copy of what fits.
  co_await sim.sleep(cost.kernel_crossing);
  if (state_ != State::kEstablished || data.empty()) co_return 0;
  const std::size_t n = std::min(data.size(), writable_bytes());
  if (n == 0) co_return 0;
  co_await sim.sleep(cost.copy_time(n));
  // The user->kernel copy happens here (modeled above, physical below);
  // everything downstream slices this chunk without copying again.
  tx_.push_back(SharedBytes::copy_of(data.first(n)));
  tx_size_ += n;
  pump_tx();
  co_return n;
}

sim::Task<std::size_t> TcpSocket::read(MutByteView out) {
  auto& sim = net_->simulator();
  const auto& cost = net_->cost();
  // recv(2): syscall entry + kernel->user copy of what is buffered.
  co_await sim.sleep(cost.kernel_crossing);
  const std::size_t n = std::min(out.size(), rx_size_);
  if (n == 0) co_return 0;
  co_await sim.sleep(cost.copy_time(n));
  // Kernel->user copy: gather the queued segment slices into `out`.
  RUBIN_COUNT("datapath.recv_copy_bytes", n);
  std::size_t copied = 0;
  while (copied < n) {
    const SharedBytes& head = rx_.front();
    const std::size_t take = std::min(head.size() - rx_head_off_, n - copied);
    std::memcpy(out.data() + copied, head.data() + rx_head_off_, take);
    copied += take;
    rx_head_off_ += take;
    if (rx_head_off_ == head.size()) {
      rx_.pop_front();
      rx_head_off_ = 0;
    }
  }
  rx_size_ -= n;
  // Receive window opened: let the peer transmit more.
  if (auto peer = peer_.lock()) peer->pump_tx();
  co_return n;
}

std::size_t TcpSocket::writable_bytes() const noexcept {
  if (state_ != State::kEstablished) return 0;
  const std::size_t cap = net_->buffer_capacity();
  return cap > tx_size_ ? cap - tx_size_ : 0;
}

void TcpSocket::close() {
  if (state_ == State::kClosed) return;
  state_ = State::kClosed;
  if (!fin_sent_) {
    fin_sent_ = true;
    if (auto peer = peer_.lock()) {
      net_->send_control(local_.host, remote_.host,
                         [p = peer_]() {
                           if (auto s = p.lock()) s->on_remote_closed();
                         });
    }
  }
  notify_poller();
}

TcpSocket::~TcpSocket() = default;

void TcpSocket::on_segment(FrameVec payload) {
  rx_in_flight_ -= std::min(rx_in_flight_, payload.total_size());
  rx_size_ += payload.total_size();
  for (const SharedBytes& s : payload) rx_.push_back(s);
  notify_poller();
}

void TcpSocket::on_established() {
  if (state_ == State::kConnecting) {
    state_ = State::kEstablished;
    notify_poller();
    pump_tx();
  }
}

void TcpSocket::on_remote_closed() {
  remote_closed_ = true;
  notify_poller();
}

void TcpSocket::pump_tx() {
  if (state_ != State::kEstablished) return;
  auto peer = peer_.lock();
  if (!peer) return;
  const std::size_t cap = net_->buffer_capacity();
  const std::size_t mtu = net_->cost().mtu;
  for (;;) {
    // Flow control ("god view" of the receive window — we skip explicit
    // window-update frames; the sender sees how much receive buffer the
    // peer has free, counting bytes still on the wire).
    const std::size_t used = peer->rx_size_ + peer->rx_in_flight_;
    if (used >= cap || tx_size_ == 0) break;
    const std::size_t n = std::min({tx_size_, mtu, cap - used});

    // A segment normally touches one write chunk, or two when it crosses
    // a chunk boundary. Only a pathological many-tiny-writes pattern can
    // exceed the FrameVec inline capacity; merge the buffer then (one
    // physical copy) so chunk bookkeeping never changes segmentation.
    {
      std::size_t need = n, off = tx_head_off_, spans = 0;
      for (const SharedBytes& c : tx_) {
        if (need == 0) break;
        need -= std::min(c.size() - off, need);
        off = 0;
        ++spans;
      }
      if (spans > FrameVec::kInlineSlices) coalesce_tx();
    }

    FrameVec segment;
    std::size_t rem = n;
    while (rem > 0) {
      const SharedBytes& head = tx_.front();
      const std::size_t take = std::min(head.size() - tx_head_off_, rem);
      segment.append(head.slice(tx_head_off_, take));
      rem -= take;
      tx_head_off_ += take;
      if (tx_head_off_ == head.size()) {
        tx_.pop_front();
        tx_head_off_ = 0;
      }
    }
    tx_size_ -= n;
    peer->rx_in_flight_ += n;
    net_->send_segment(*this, std::move(segment));
  }
  notify_poller();  // tx space freed -> kWrite readiness may have changed
}

void TcpSocket::coalesce_tx() {
  SharedBytes merged = SharedBytes::allocate(tx_size_);
  std::uint8_t* dst = merged.mutable_data();
  std::size_t pos = 0;
  std::size_t off = tx_head_off_;
  for (const SharedBytes& c : tx_) {
    std::memcpy(dst + pos, c.data() + off, c.size() - off);
    pos += c.size() - off;
    off = 0;
  }
  RUBIN_COUNT("datapath.copy_bytes", pos);
  tx_.clear();
  tx_.push_back(std::move(merged));
  tx_head_off_ = 0;
}

void TcpSocket::notify_poller() {
  if (notifier_ != nullptr) notifier_->notify();
}

// --------------------------------------------------------- TcpListener ---

std::shared_ptr<TcpSocket> TcpListener::accept() {
  if (pending_.empty()) return nullptr;
  auto s = std::move(pending_.front());
  pending_.pop_front();
  return s;
}

void TcpListener::close() {
  closed_ = true;
  pending_.clear();
}

void TcpListener::notify_poller() {
  if (notifier_ != nullptr) notifier_->notify();
}

// ---------------------------------------------------------- TcpNetwork ---

TcpNetwork::TcpNetwork(net::Fabric& fabric)
    : fabric_(&fabric),
      kernel_tx_free_(fabric.host_count(), 0),
      kernel_rx_free_(fabric.host_count(), 0),
      next_port_(fabric.host_count(), 49152) {}

std::shared_ptr<TcpListener> TcpNetwork::listen(net::HostId host,
                                                std::uint16_t port) {
  const Endpoint ep{host, port};
  if (listeners_.contains(ep)) {
    throw std::invalid_argument("TcpNetwork::listen: port already bound");
  }
  auto listener = std::shared_ptr<TcpListener>(new TcpListener(*this));
  listener->local_ = ep;
  listeners_[ep] = listener;
  return listener;
}

std::shared_ptr<TcpSocket> TcpNetwork::connect(net::HostId host,
                                               Endpoint remote) {
  auto client = std::shared_ptr<TcpSocket>(new TcpSocket(*this));
  client->local_ = Endpoint{host, ephemeral_port(host)};
  client->remote_ = remote;

  // SYN: on arrival, the listener (if any) creates the server-side socket
  // and answers with SYN-ACK; a missing listener resets the connection.
  send_control(host, remote.host, [this, client, remote]() {
    const auto it = listeners_.find(remote);
    if (it == listeners_.end() || it->second->closed_) {
      send_control(remote.host, client->local_.host, [client]() {
        client->state_ = TcpSocket::State::kClosed;
        client->remote_closed_ = true;
        client->notify_poller();
      });
      return;
    }
    auto& listener = *it->second;
    auto server = std::shared_ptr<TcpSocket>(new TcpSocket(*this));
    server->local_ = remote;
    server->remote_ = client->local_;
    server->state_ = TcpSocket::State::kEstablished;
    server->peer_ = client;
    client->peer_ = server;
    listener.pending_.push_back(server);
    listener.notify_poller();
    send_control(remote.host, client->local_.host,
                 [client]() { client->on_established(); });
  });
  return client;
}

sim::Time TcpNetwork::kernel_stack_admit(net::HostId host, bool rx,
                                         sim::Time ready,
                                         std::size_t segments) {
  auto& busy = rx ? kernel_rx_free_ : kernel_tx_free_;
  const sim::Time start = std::max(ready, busy[host]);
  const sim::Time done =
      start + static_cast<sim::Time>(segments) * cost().tcp_segment_cost;
  busy[host] = done;
  return done;
}

void TcpNetwork::send_segment(TcpSocket& from, FrameVec payload) {
  auto& sim = simulator();
  const net::HostId src = from.local_.host;
  const net::HostId dst = from.remote_.host;
  std::weak_ptr<TcpSocket> dest = from.peer_;

  // TX kernel stack processing precedes the NIC; segments from all sockets
  // on this host share the (serialized) kernel.
  const sim::Time stack_done = kernel_stack_admit(src, /*rx=*/false, sim.now(), 1);
  sim.schedule_at(stack_done, [this, src, dst, dest,
                               payload = std::move(payload)]() mutable {
    const std::size_t n = payload.total_size();
    fabric_->transmit(src, dst, n,
                      [this, dst, dest, payload = std::move(payload)]() mutable {
                        // RX: interrupt + softirq stack processing, then the
                        // bytes land in the socket buffer.
                        auto& sim2 = simulator();
                        const sim::Time done = kernel_stack_admit(
                            dst, /*rx=*/true, sim2.now() + cost().interrupt_cost, 1);
                        sim2.schedule_at(done, [dest, payload = std::move(payload)]() mutable {
                          if (auto s = dest.lock()) s->on_segment(std::move(payload));
                        });
                      });
  });
}

void TcpNetwork::send_control(net::HostId src, net::HostId dst,
                              sim::UniqueFunction action) {
  // 40-byte control segment (SYN/FIN/RST); negligible host-side cost.
  fabric_->transmit(src, dst, 40, std::move(action));
}

std::uint16_t TcpNetwork::ephemeral_port(net::HostId host) {
  return next_port_[host]++;
}

}  // namespace rubin::tcpsim
