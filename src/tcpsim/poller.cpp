#include "tcpsim/poller.hpp"

#include <algorithm>

namespace rubin::tcpsim {

Poller::Poller(TcpNetwork& net) : net_(&net), wake_(net.simulator()) {}

Poller::~Poller() {
  for (auto& key : keys_) {
    if (key->socket_) key->socket_->poller_ = nullptr;
    if (key->listener_) key->listener_->poller_ = nullptr;
  }
}

SelectionKey* Poller::register_socket(std::shared_ptr<TcpSocket> s,
                                      std::uint32_t interest,
                                      std::uint64_t attachment) {
  auto key = std::make_unique<SelectionKey>();
  key->socket_ = std::move(s);
  key->interest_ = interest;
  key->attachment_ = attachment;
  key->socket_->poller_ = this;
  keys_.push_back(std::move(key));
  wake_.set();  // a new key may already be ready
  return keys_.back().get();
}

SelectionKey* Poller::register_listener(std::shared_ptr<TcpListener> l,
                                        std::uint32_t interest,
                                        std::uint64_t attachment) {
  auto key = std::make_unique<SelectionKey>();
  key->listener_ = std::move(l);
  key->interest_ = interest;
  key->attachment_ = attachment;
  key->listener_->poller_ = this;
  keys_.push_back(std::move(key));
  wake_.set();
  return keys_.back().get();
}

std::uint32_t Poller::current_ready(const SelectionKey& key) const {
  std::uint32_t ready = 0;
  if (key.listener_) {
    if (key.listener_->pending() > 0) ready |= kOpAccept;
    return ready;
  }
  const auto& s = *key.socket_;
  if (s.readable_bytes() > 0 || s.eof()) ready |= kOpRead;
  if (s.state() == TcpSocket::State::kEstablished && s.writable_bytes() > 0) {
    ready |= kOpWrite;
  }
  if (!key.connect_fired_ && s.state() != TcpSocket::State::kConnecting) {
    // Established or refused — either way the connect attempt resolved.
    ready |= kOpConnect;
  }
  return ready;
}

void Poller::sweep_cancelled() {
  std::erase_if(keys_, [](const std::unique_ptr<SelectionKey>& key) {
    if (!key->cancelled_) return false;
    if (key->socket_) key->socket_->poller_ = nullptr;
    if (key->listener_) key->listener_->poller_ = nullptr;
    return true;
  });
}

sim::Task<std::size_t> Poller::select(sim::Time timeout) {
  auto& sim = net_->simulator();
  const auto& cost = net_->cost();
  // epoll_wait syscall entry.
  co_await sim.sleep(cost.kernel_crossing);
  const sim::Time deadline = timeout >= 0 ? sim.now() + timeout : -1;

  for (;;) {
    wake_.reset();
    sweep_cancelled();
    selected_.clear();
    for (auto& key : keys_) {
      const std::uint32_t ready = key->interest_ & current_ready(*key);
      if (ready != 0) {
        key->ready_ = ready;
        if (ready & kOpConnect) key->connect_fired_ = true;
        selected_.push_back(key.get());
      }
    }
    // One selection consumes a wakeup, whether it returns on ready keys
    // or on the wakeup itself; a stale one must not end the next select.
    if (!selected_.empty() || wakeup_pending_) {
      wakeup_pending_ = false;
      co_return selected_.size();
    }
    if (deadline >= 0 && sim.now() >= deadline) co_return 0;

    sim::TimerId tid = 0;
    bool have_timer = false;
    if (deadline >= 0) {
      tid = sim.schedule_after(deadline - sim.now(), [this] { wake_.set(); });
      have_timer = true;
    }
    co_await wake_.wait();
    if (have_timer) sim.cancel(tid);
    // We actually parked: pay the thread wakeup on resumption.
    co_await sim.sleep(cost.thread_wakeup);
  }
}

}  // namespace rubin::tcpsim
