#include "verbs/cq.hpp"

namespace rubin::verbs {

std::size_t CompletionQueue::poll(std::vector<Completion>& out,
                                  std::size_t max) {
  out.clear();
  out.reserve(std::min(max, ring_.size()));
  while (out.size() < max && !ring_.empty()) out.push_back(ring_.pop());
  return out.size();
}

void CompletionQueue::push(const Completion& c) {
  if (ring_.size() == capacity_) {
    // Real hardware treats CQ overflow as a fatal async error; we latch a
    // flag the tests can assert on and drop the entry.
    overflowed_ = true;
    return;
  }
  ring_.push(c);
  if (armed_ && channel_ != nullptr) {
    armed_ = false;
    // The completion event takes a kernel visit to surface on the fd.
    sim_->schedule_after(event_cost_, [this] { channel_->deliver(this); });
  }
}

}  // namespace rubin::verbs
