// Epoll-style readiness multiplexer over simulated TCP channels — the
// stand-in for the Java NIO Selector that BFT-SMaRt, UpRight, and Reptor
// build replica/client communication on, and the baseline RUBIN's
// RdmaSelector is measured against in Fig. 4.
//
// Semantics follow java.nio.channels.Selector:
//  * channels register with an *interest set*; registration yields a
//    SelectionKey carrying interest, readiness, and a user attachment;
//  * select() blocks (in virtual time) until >= 1 key is ready or the
//    timeout expires, and fills the selected-key list;
//  * readiness is level-triggered (computed from channel state on every
//    select pass, like epoll LT / Java NIO).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event.hpp"
#include "tcpsim/tcp.hpp"

namespace rubin::tcpsim {

/// Interest / readiness bits (java.nio.channels.SelectionKey::OP_*).
enum Ops : std::uint32_t {
  kOpRead = 1u << 0,
  kOpWrite = 1u << 2,
  kOpConnect = 1u << 3,
  kOpAccept = 1u << 4,
};

class SelectionKey {
 public:
  std::uint32_t interest_ops() const noexcept { return interest_; }
  void set_interest_ops(std::uint32_t ops) noexcept { interest_ = ops; }
  std::uint32_t ready_ops() const noexcept { return ready_; }

  bool is_readable() const noexcept { return ready_ & kOpRead; }
  bool is_writable() const noexcept { return ready_ & kOpWrite; }
  bool is_acceptable() const noexcept { return ready_ & kOpAccept; }
  bool is_connectable() const noexcept { return ready_ & kOpConnect; }

  /// Opaque user value (Java's key.attach()) — typically a connection id.
  std::uint64_t attachment() const noexcept { return attachment_; }
  void attach(std::uint64_t v) noexcept { attachment_ = v; }

  /// The registered channel (exactly one of these is non-null).
  const std::shared_ptr<TcpSocket>& socket() const noexcept { return socket_; }
  const std::shared_ptr<TcpListener>& listener() const noexcept { return listener_; }

  /// Deregisters the key; it is removed on the next select pass.
  void cancel() noexcept { cancelled_ = true; }
  bool cancelled() const noexcept { return cancelled_; }

 private:
  friend class Poller;
  std::shared_ptr<TcpSocket> socket_;
  std::shared_ptr<TcpListener> listener_;
  std::uint32_t interest_ = 0;
  std::uint32_t ready_ = 0;
  std::uint64_t attachment_ = 0;
  bool cancelled_ = false;
  bool connect_fired_ = false;  // kOpConnect reported at most once
};

class Poller {
 public:
  explicit Poller(TcpNetwork& net);
  ~Poller();
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  /// Registers a socket; the key stays valid until cancel() + next select.
  SelectionKey* register_socket(std::shared_ptr<TcpSocket> s,
                                std::uint32_t interest,
                                std::uint64_t attachment = 0);
  SelectionKey* register_listener(std::shared_ptr<TcpListener> l,
                                  std::uint32_t interest,
                                  std::uint64_t attachment = 0);

  /// Blocks until at least one registered channel is ready, the timeout
  /// elapses (timeout >= 0), or wakeup() is called. Returns the number of
  /// ready keys (0 on timeout/wakeup). Costs one kernel crossing per call
  /// plus a thread wakeup when it actually parked — the epoll_wait bill
  /// the paper's TCP baseline pays.
  sim::Task<std::size_t> select(sim::Time timeout = -1);

  /// Keys made ready by the last select call.
  const std::vector<SelectionKey*>& selected() const noexcept { return selected_; }

  /// Unblocks the pending select — or the next one, if none is in
  /// progress (Java Selector::wakeup semantics). A select consumes the
  /// wakeup however it returns.
  void wakeup() {
    wakeup_pending_ = true;
    wake_.set();
  }

  std::size_t key_count() const noexcept { return keys_.size(); }

  /// Called by channels whenever their readiness may have changed.
  void channel_changed() { wake_.set(); }

 private:
  std::uint32_t current_ready(const SelectionKey& key) const;
  void sweep_cancelled();

  TcpNetwork* net_;
  std::vector<std::unique_ptr<SelectionKey>> keys_;
  std::vector<SelectionKey*> selected_;
  sim::Event wake_;
  bool wakeup_pending_ = false;
};

}  // namespace rubin::tcpsim
