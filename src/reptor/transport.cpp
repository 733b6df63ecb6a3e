#include "reptor/transport.hpp"

#include "common/codec.hpp"

namespace rubin::reptor {

bool Transport::backlog() const {
  for (const auto& [peer, queue] : outbound_) {
    if (!queue.empty()) return true;
  }
  return false;
}

sim::Task<std::vector<InboundMsg>> Transport::poll(sim::Time timeout) {
  co_await flush();

  sim::Time effective = timeout;
  if (backlog()) {
    const sim::Time retry = sim::microseconds(200);
    effective = (timeout < 0 || timeout > retry) ? retry : timeout;
  }

  std::vector<InboundMsg> out;
  if (!early_inbound_.empty()) {
    out = std::move(early_inbound_);
    early_inbound_.clear();
    effective = 0;  // just sweep what else is already there
  }

  parked_ = true;
  const std::size_t n = co_await select(effective);
  parked_ = false;
  if (n > 0) co_await drain_selected(out);
  if (!out.empty()) {
    std::size_t bytes = 0;
    for (const InboundMsg& m : out) bytes += m.frame.size();
    co_await sim_->sleep(stack_cost_.time(out.size(), bytes));
  }
  co_return out;
}

Bytes Transport::hello_frame() const {
  Bytes b(4);
  store_le(b.data(), std::uint32_t{self_});
  return b;
}

std::optional<NodeId> Transport::parse_hello(ByteView frame) const {
  if (frame.size() != 4) return std::nullopt;
  const NodeId id = load_le<std::uint32_t>(frame.data());
  if (id >= layout_.node_count() || id == self_) return std::nullopt;
  return id;
}

}  // namespace rubin::reptor
