#include "rubin/selector.hpp"

namespace rubin::nio {

RdmaSelectionKey* RdmaSelector::find_key(
    std::uint64_t channel_id) const noexcept {
  for (const auto& key : keys()) {
    if (key->channel_id() == channel_id && !key->cancelled()) return key.get();
  }
  return nullptr;
}

std::uint32_t RdmaSelector::ready_of(RdmaChannel& ch) {
  std::uint32_t ready = 0;
  if (ch.state() != RdmaChannel::State::kConnecting) ready |= kOpAccept;
  if (ch.readable_messages() > 0 || ch.state() == RdmaChannel::State::kClosed) {
    ready |= kOpReceive;
  }
  if (ch.writable()) ready |= kOpSend;
  return ready;
}

std::uint32_t RdmaSelector::ready_of(RdmaServerChannel& server) {
  std::uint32_t ready = 0;
  if (server.pending_requests() > 0) ready |= kOpConnect;
  if (server.established_count() > 0) ready |= kOpAccept;
  return ready;
}

}  // namespace rubin::nio
