#include "verbs/srq.hpp"

#include <algorithm>
#include <functional>

#include "common/counters.hpp"
#include "verbs/device.hpp"

namespace rubin::verbs {

sim::Task<PostResult> SharedReceiveQueue::post(std::span<const RecvWr> wrs) {
  auto& sim = dev_->simulator();
  const auto& cm = dev_->cost();
  co_await sim.sleep(cm.post_call_cpu +
                     static_cast<sim::Time>(wrs.size()) * cm.wqe_build_cpu);
  co_return post_now(wrs);
}

PostResult SharedReceiveQueue::post_now(std::vector<RecvWr> wrs) {
  return post_now(std::span<const RecvWr>(wrs));
}

PostResult SharedReceiveQueue::post_now(std::span<const RecvWr> wrs) {
  if (queue_.size() + wrs.size() > cfg_.max_wr) return PostResult::kQueueFull;
  for (const RecvWr& wr : wrs) {
    queue_.push_back(wr);
    posted_bytes_ += wr.sge.length;
  }
  RUBIN_COUNT("verbs.srq.posted", wrs.size());
  if (!wrs.empty()) redrain();
  return PostResult::kOk;
}

RecvWr SharedReceiveQueue::take() {
  RecvWr wr = queue_.front();
  queue_.pop_front();
  posted_bytes_ -= wr.sge.length;
  ++taken_;
  RUBIN_COUNT("verbs.srq.stolen", 1);
  if (limit_ > 0 && queue_.size() < limit_) {
    // Watermark crossed: one event, then disarmed until re-armed
    // (IBV_EVENT_SRQ_LIMIT_REACHED). Delivery goes through the event
    // queue so a refill from the handler never re-enters the drain loop
    // that triggered it.
    limit_ = 0;
    RUBIN_COUNT("verbs.srq.limit_events", 1);
    if (limit_handler_) {
      dev_->simulator().post([handler = limit_handler_] { handler(); });
    }
  }
  return wr;
}

std::size_t SharedReceiveQueue::attached_qps() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(attached_.begin(), attached_.end(),
                    [](const auto& weak) { return !weak.expired(); }));
}

void SharedReceiveQueue::attach(const std::shared_ptr<QueuePair>& qp) {
  qp->srq_rank_ = static_cast<std::uint32_t>(attached_.size());
  attached_.push_back(qp);
}

void SharedReceiveQueue::park(QueuePair& qp) {
  if (qp.srq_parked_) return;
  qp.srq_parked_ = true;
  parked_.push_back(qp.srq_rank_);
  std::push_heap(parked_.begin(), parked_.end(), std::greater<>());
}

void SharedReceiveQueue::redrain() {
  // Lowest attach rank first, so which QP wins the freshly-posted WRs is a
  // pure function of attach order and arrival history. A QP with parked
  // messages is always listed (on_send_arrival parks it), so walking the
  // list drains exactly what a scan of every attached QP would.
  while (!queue_.empty() && !parked_.empty()) {
    if (auto qp = attached_[parked_.front()].lock()) {
      qp->drain_inbound();
      if (!qp->inbound_.empty()) return;  // the WRs ran out first
      qp->srq_parked_ = false;
    }
    std::pop_heap(parked_.begin(), parked_.end(), std::greater<>());
    parked_.pop_back();
  }
}

}  // namespace rubin::verbs
