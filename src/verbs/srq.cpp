#include "verbs/srq.hpp"

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

void SharedReceiveQueue::attach(const std::shared_ptr<QueuePair>& qp) {
  attached_.push_back(qp);
}

void SharedReceiveQueue::redrain() {
  // Attach order, and expired consumers are compacted away in place: the
  // iteration order — and therefore which QP wins the freshly-posted WRs —
  // is a pure function of attach/destroy history.
  std::size_t live = 0;
  for (auto& weak : attached_) {
    auto qp = weak.lock();
    if (!qp) continue;
    attached_[live++] = std::move(weak);
    if (queue_.empty()) continue;  // keep compacting, stop draining
    qp->drain_inbound();
  }
  attached_.resize(live);
}

}  // namespace rubin::verbs
