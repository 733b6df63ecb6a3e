// Simulated TCP over the fabric, with the costs the paper blames for BFT
// latency made explicit: every send/recv crosses the kernel and copies the
// payload user<->kernel (two copies per direction end-to-end), and every
// MTU segment costs stack processing time serialized on the host's kernel.
//
// The API is non-blocking in the Java-NIO sense — read()/write() transfer
// what they can and return — but calls are *awaitable* because the call
// itself consumes virtual CPU time (syscall + memcpy). A coroutine that
// awaits a socket op is "its thread executing the syscall".
//
// Reliability: the fabric can drop frames, but TCP is a reliable stream —
// we model an idealized retransmission: segment delivery is exact-once in
// order per connection (go-back-N timers add nothing to the latency shape
// the paper measures on a lossless RoCE link). Loss testing for BFT
// liveness is done at the message layer instead.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>

#include "common/bytes.hpp"
#include "common/shared_bytes.hpp"
#include "net/fabric.hpp"
#include "sim/mailbox.hpp"
#include "sim/selector.hpp"
#include "sim/task.hpp"

namespace rubin::tcpsim {

class TcpNetwork;

/// One endpoint address.
struct Endpoint {
  net::HostId host = 0;
  std::uint16_t port = 0;
  auto operator<=>(const Endpoint&) const = default;
};

/// Stream socket. Create via TcpNetwork::connect or TcpListener::accept.
class TcpSocket : public std::enable_shared_from_this<TcpSocket> {
 public:
  enum class State : std::uint8_t { kConnecting, kEstablished, kClosed };

  State state() const noexcept { return state_; }
  Endpoint local() const noexcept { return local_; }
  Endpoint remote() const noexcept { return remote_; }

  /// Non-blocking write: copies at most tx-free-space bytes into the kernel
  /// buffer and returns how many were taken (0 if the buffer is full or the
  /// socket is not yet established). Costs one kernel crossing + the copy.
  sim::Task<std::size_t> write(ByteView data);

  /// Non-blocking read: moves at most out.size() buffered bytes to the app.
  /// Returns bytes read; 0 with eof() false means "would block".
  sim::Task<std::size_t> read(MutByteView out);

  /// True once the peer closed and the receive buffer has drained.
  bool eof() const noexcept { return remote_closed_ && rx_size_ == 0; }

  /// Closes the write side and tears the connection down (models
  /// close(2); no half-open lingering).
  void close();

  /// Bytes currently readable / writable without blocking.
  std::size_t readable_bytes() const noexcept { return rx_size_; }
  std::size_t writable_bytes() const noexcept;

  ~TcpSocket();

 private:
  friend class TcpNetwork;
  friend class TcpListener;
  template <typename, typename>
  friend class sim::Selector;

  explicit TcpSocket(TcpNetwork& net) : net_(&net) {}

  void on_segment(FrameVec payload);
  void on_established();
  void on_remote_closed();
  void pump_tx();            // drains tx_ into the fabric as segments
  void coalesce_tx();        // merges tx_ chunks so a segment fits a FrameVec
  void notify_poller();

  TcpNetwork* net_;
  std::weak_ptr<TcpSocket> peer_;
  Endpoint local_{};
  Endpoint remote_{};
  State state_ = State::kConnecting;
  /// Kernel socket buffers as chunked byte streams: each write lands one
  /// refcounted chunk (the modeled user->kernel copy); segments slice the
  /// chunks without further physical copies, and the receive side queues
  /// the very same slices until read() gathers them out (the modeled
  /// kernel->user copy). *_head_off_ is how far into the front chunk the
  /// stream has been consumed; *_size_ the total buffered bytes.
  std::deque<SharedBytes> tx_;
  std::size_t tx_head_off_ = 0;
  std::size_t tx_size_ = 0;
  std::deque<SharedBytes> rx_;
  std::size_t rx_head_off_ = 0;
  std::size_t rx_size_ = 0;
  std::size_t rx_in_flight_ = 0;  // bytes sent by peer, not yet read by app
  bool remote_closed_ = false;
  bool fin_sent_ = false;
  sim::SelectNotifier* notifier_ = nullptr;  // set while registered
};

/// Passive socket. Readiness = pending connections to accept.
class TcpListener : public std::enable_shared_from_this<TcpListener> {
 public:
  Endpoint local() const noexcept { return local_; }

  /// Non-blocking accept; nullptr when no connection is pending.
  std::shared_ptr<TcpSocket> accept();

  std::size_t pending() const noexcept { return pending_.size(); }
  void close();

 private:
  friend class TcpNetwork;
  template <typename, typename>
  friend class sim::Selector;

  explicit TcpListener(TcpNetwork& net) : net_(&net) {}
  void notify_poller();

  TcpNetwork* net_;
  Endpoint local_{};
  std::deque<std::shared_ptr<TcpSocket>> pending_;
  bool closed_ = false;
  sim::SelectNotifier* notifier_ = nullptr;
};

/// Factory + per-host kernel model. One instance per simulation.
class TcpNetwork {
 public:
  explicit TcpNetwork(net::Fabric& fabric);

  net::Fabric& fabric() noexcept { return *fabric_; }
  sim::Simulator& simulator() noexcept { return fabric_->simulator(); }
  const net::CostModel& cost() const noexcept { return fabric_->cost(); }

  /// Binds a listener on (host, port). Throws if the port is taken.
  std::shared_ptr<TcpListener> listen(net::HostId host, std::uint16_t port);

  /// Opens a connection from `host` to `remote`. The returned socket is in
  /// kConnecting state; it becomes established (and poller-ready with
  /// kConnect) after the handshake round trip.
  std::shared_ptr<TcpSocket> connect(net::HostId host, Endpoint remote);

  /// Per-socket kernel buffer capacity (both directions). The default is
  /// deliberately larger than the biggest paper payload (100 KB) so one
  /// message never deadlocks a naive echo loop.
  std::size_t buffer_capacity() const noexcept { return buffer_capacity_; }
  void set_buffer_capacity(std::size_t n) noexcept { buffer_capacity_ = n; }

 private:
  friend class TcpSocket;
  friend class TcpListener;

  /// Serializes kernel TCP stack work on a host: each segment occupies a
  /// kernel queue for tcp_segment_cost before reaching the NIC (tx) or
  /// the socket buffer (rx). TX and RX run on separate cores (softirq vs
  /// syscall context), so a busy receive path does not stall transmits.
  sim::Time kernel_stack_admit(net::HostId host, bool rx, sim::Time ready,
                               std::size_t segments);

  void send_segment(TcpSocket& from, FrameVec payload);
  void send_control(net::HostId src, net::HostId dst,
                    sim::UniqueFunction action);
  std::uint16_t ephemeral_port(net::HostId host);

  net::Fabric* fabric_;
  std::map<Endpoint, std::shared_ptr<TcpListener>> listeners_;
  std::vector<sim::Time> kernel_tx_free_;  // per-host TX kernel busy-until
  std::vector<sim::Time> kernel_rx_free_;  // per-host RX kernel busy-until
  std::vector<std::uint16_t> next_port_;
  std::size_t buffer_capacity_ = 256 * 1024;
};

}  // namespace rubin::tcpsim
