#include "rubin/selector.hpp"

#include <string>

#include "common/audit.hpp"

namespace rubin::nio {

RdmaSelector::RdmaSelector(RubinContext& ctx)
    : ctx_(&ctx), em_(ctx.simulator()) {}

RdmaSelector::~RdmaSelector() {
  for (auto& key : keys_) {
    if (key->channel_) key->channel_->selector_notify_ = nullptr;
    if (key->server_) key->server_->selector_notify_ = nullptr;
  }
}

RdmaSelectionKey* RdmaSelector::register_channel(
    std::shared_ptr<RdmaChannel> channel, std::uint32_t interest,
    std::uint64_t attachment) {
  auto key = std::make_unique<RdmaSelectionKey>();
  key->channel_ = std::move(channel);
  key->channel_id_ = key->channel_->id();
  key->interest_ = interest;
  key->attachment_ = attachment;
  RUBIN_AUDIT_ASSERT("selector", find_key(key->channel_id_) == nullptr,
                     "channel " + std::to_string(key->channel_id_) +
                         " registered twice with the same selector");
  // Channel events (CM + completions) flow into the hybrid queue tagged
  // with the connection id the selector will match on (Fig. 2, step 4).
  const std::uint64_t id = key->channel_id_;
  key->channel_->selector_notify_ = [this, id] {
    em_.push(EventManager::HybridEvent{
        EventManager::HybridEvent::Source::kCompletion, id});
  };
  keys_.push_back(std::move(key));
  em_.wake_.set();  // freshly registered channels may already be ready
  return keys_.back().get();
}

RdmaSelectionKey* RdmaSelector::register_server(
    std::shared_ptr<RdmaServerChannel> server, std::uint32_t interest,
    std::uint64_t attachment) {
  auto key = std::make_unique<RdmaSelectionKey>();
  key->server_ = std::move(server);
  key->channel_id_ = key->server_->id();
  key->interest_ = interest;
  key->attachment_ = attachment;
  RUBIN_AUDIT_ASSERT("selector", find_key(key->channel_id_) == nullptr,
                     "server channel " + std::to_string(key->channel_id_) +
                         " registered twice with the same selector");
  const std::uint64_t id = key->channel_id_;
  key->server_->selector_notify_ = [this, id] {
    em_.push(EventManager::HybridEvent{
        EventManager::HybridEvent::Source::kConnection, id});
  };
  keys_.push_back(std::move(key));
  em_.wake_.set();
  return keys_.back().get();
}

std::uint32_t RdmaSelector::current_ready(RdmaSelectionKey& key) const {
  std::uint32_t ready = 0;
  if (key.server_) {
    if (key.server_->pending_requests() > 0) ready |= kOpConnect;
    if (key.server_->established_count() > 0) ready |= kOpAccept;
    return ready;
  }
  RdmaChannel& ch = *key.channel_;
  if (!key.accept_fired_ && ch.state() != RdmaChannel::State::kConnecting) {
    ready |= kOpAccept;  // connection attempt resolved (possibly: failed)
  }
  if (ch.readable_messages() > 0 || ch.state() == RdmaChannel::State::kClosed) {
    ready |= kOpReceive;
  }
  if (ch.writable()) ready |= kOpSend;
  return ready;
}

void RdmaSelector::sweep_cancelled() {
  std::erase_if(keys_, [](const std::unique_ptr<RdmaSelectionKey>& key) {
    if (!key->cancelled_) return false;
    if (key->channel_) key->channel_->selector_notify_ = nullptr;
    if (key->server_) key->server_->selector_notify_ = nullptr;
    return true;
  });
}

sim::Task<std::size_t> RdmaSelector::select(sim::Time timeout) {
  auto& sim = ctx_->simulator();
  const auto& cost = ctx_->cost();
  co_await sim.sleep(cost.rubin_select_entry);
  const sim::Time deadline = timeout >= 0 ? sim.now() + timeout : -1;

  for (;;) {
    em_.wake_.reset();
    // Dispatch the hybrid event queue (Fig. 2, step 5): each event is
    // matched against the registered channels by comparing ids. The
    // matching itself is what costs; readiness is then recomputed from
    // channel state, which keeps semantics level-triggered like Java NIO.
    const std::size_t n_events = em_.queue_.size();
    em_.queue_.clear();
    events_dispatched_ += n_events;
    if (n_events > 0) {
      co_await sim.sleep(static_cast<sim::Time>(n_events) *
                         cost.rubin_event_dispatch);
    }

    sweep_cancelled();
    selected_.clear();
    for (auto& key : keys_) {
      // sweep_cancelled() ran just above; a cancelled key surviving into
      // the scan would let select() report (and the app operate on) a key
      // whose channel may already be torn down.
      RUBIN_AUDIT_ASSERT("selector", !key->cancelled_,
                         "cancelled key survived sweep into the ready scan");
      const std::uint32_t ready = key->interest_ & current_ready(*key);
      if (ready != 0) {
        key->ready_ = ready;
        RUBIN_AUDIT_ASSERT("selector", (key->ready_ & ~key->interest_) == 0,
                           "ready set escapes the interest set");
        if (ready & kOpAccept && key->channel_) key->accept_fired_ = true;
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
      tid = sim.schedule_after(deadline - sim.now(), [this] { em_.wake_.set(); });
      have_timer = true;
    }
    co_await em_.wake_.wait();
    if (have_timer) sim.cancel(tid);
    co_await sim.sleep(cost.thread_wakeup);  // the selector thread parked
  }
}

}  // namespace rubin::nio
