// Epoll-style readiness multiplexer over simulated TCP channels — the
// stand-in for the Java NIO Selector that BFT-SMaRt, UpRight, and Reptor
// build replica/client communication on, and the baseline RUBIN's
// RdmaSelector is measured against in Fig. 4. The select protocol is
// sim::Selector's; this backend adds socket readiness and the epoll_wait
// bill: one kernel crossing per call, no per-event dispatch, and a
// thread wakeup when the call actually parked.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/selector.hpp"
#include "tcpsim/tcp.hpp"

namespace rubin::tcpsim {

/// Interest / readiness bits (java.nio.channels.SelectionKey::OP_*).
enum Ops : std::uint32_t {
  kOpRead = 1u << 0,
  kOpWrite = 1u << 2,
  kOpConnect = 1u << 3,
  kOpAccept = 1u << 4,
};

class SelectionKey : public sim::BasicSelectionKey<TcpSocket, TcpListener> {
 public:
  bool is_readable() const noexcept { return ready_ & kOpRead; }
  bool is_writable() const noexcept { return ready_ & kOpWrite; }
  bool is_acceptable() const noexcept { return ready_ & kOpAccept; }
  bool is_connectable() const noexcept { return ready_ & kOpConnect; }

  /// The registered channel (exactly one of these is non-null).
  const std::shared_ptr<TcpSocket>& socket() const noexcept { return channel_; }
  const std::shared_ptr<TcpListener>& listener() const noexcept { return server_; }
};

class Poller : public sim::Selector<Poller, SelectionKey> {
 public:
  explicit Poller(TcpNetwork& net)
      : Selector(net.simulator(),
                 {net.cost().kernel_crossing, 0, net.cost().thread_wakeup}) {}

  /// Registers a socket; the key stays valid until cancel() + next select.
  SelectionKey* register_socket(std::shared_ptr<TcpSocket> s,
                                std::uint32_t interest,
                                std::uint64_t attachment = 0) {
    return add(std::move(s), interest, attachment);
  }
  SelectionKey* register_listener(std::shared_ptr<TcpListener> l,
                                  std::uint32_t interest,
                                  std::uint64_t attachment = 0) {
    return add(std::move(l), interest, attachment);
  }

  /// Readiness of a socket (kOpConnect once its connect attempt resolved:
  /// established or refused) and of a listener.
  static constexpr std::uint32_t kResolved = kOpConnect;
  static std::uint32_t ready_of(TcpSocket& s);
  static std::uint32_t ready_of(TcpListener& l);
};

}  // namespace rubin::tcpsim
