#include "reptor/client.hpp"

#include <utility>
#include <vector>

#include "reptor/byzantine_client.hpp"

namespace rubin::reptor {

Client::Client(sim::Simulator& sim, std::unique_ptr<Transport> transport,
               KeyTable keys, ClientConfig cfg)
    : sim_(&sim),
      transport_(std::move(transport)),
      keys_(std::move(keys)),
      cfg_(cfg) {}

sim::Task<void> Client::start() { co_await transport_->start(); }

void Client::send_request(NodeId peer, const SharedBytes& frame) {
  if (!strategy_) {
    transport_->send(peer, frame);
    return;
  }
  ClientEnv env{*sim_, keys_, cfg_};
  // The hook owns a private copy: mutating a broadcast-shared frame
  // in-place would forge every other peer's copy too.
  SharedBytes mine = SharedBytes::copy_of(frame.view());
  std::vector<std::pair<NodeId, SharedBytes>> extra;
  const bool send_genuine = strategy_->on_send(env, peer, mine, extra);
  if (send_genuine) transport_->send(peer, mine);
  for (auto& [to, f] : extra) transport_->send(to, f);
}

sim::Task<Bytes> Client::invoke(Bytes op) {
  const std::uint64_t id = next_id_++;
  const Request req{.client = cfg_.self, .id = id, .op = std::move(op)};

  // The request carries a full authenticator: backups must be able to
  // verify it when the primary (or a retransmission) relays it.
  co_await sim_->sleep(cfg_.costs.mac_time(req.op.size()) *
                       static_cast<sim::Time>(cfg_.n));
  const SharedBytes frame =
      encode_for_replicas(Envelope{cfg_.self, Message{req}}, keys_, cfg_.n);

  const sim::Time started = sim_->now();
  send_request(primary_of(view_), frame);
  ++stats_.requests_sent;

  sim::Time retry_at = sim_->now() + cfg_.retry_timeout;
  // A Byzantine replica may lie; only f+1 matching replies are trusted.
  Votes votes;
  for (;;) {
    if (auto result =
            co_await collect_replies(id, cfg_.f + 1, retry_at, votes)) {
      latency_.add(sim::to_us(sim_->now() - started));
      co_return std::move(*result);
    }
    // Primary silent or reply lost: tell everyone (PBFT's retransmit —
    // backups forward to the primary and start their watchdogs).
    for (NodeId r = 0; r < cfg_.n; ++r) send_request(r, frame);
    ++stats_.retries;
    retry_at = sim_->now() + cfg_.retry_timeout;
  }
}

sim::Task<Bytes> Client::invoke_read_only(Bytes op) {
  const std::uint64_t id = next_id_++;
  // `op` stays for the fallback.
  const Request req{.client = cfg_.self, .id = id, .op = op, .read_only = true};

  co_await sim_->sleep(cfg_.costs.mac_time(req.op.size()) *
                       static_cast<sim::Time>(cfg_.n));
  const SharedBytes frame =
      encode_for_replicas(Envelope{cfg_.self, Message{req}}, keys_, cfg_.n);
  const sim::Time started = sim_->now();
  for (NodeId r = 0; r < cfg_.n; ++r) send_request(r, frame);
  ++stats_.requests_sent;

  // One shot: wait for a 2f+1 matching quorum until the deadline, then
  // fall back to the ordered path.
  Votes votes;
  if (auto result = co_await collect_replies(
          id, 2 * cfg_.f + 1, sim_->now() + cfg_.retry_timeout, votes)) {
    ++stats_.read_only_fast;
    latency_.add(sim::to_us(sim_->now() - started));
    co_return std::move(*result);
  }
  // Divergent or missing replies: the op must go through ordering.
  ++stats_.read_only_fallback;
  co_return co_await invoke(std::move(op));
}

sim::Task<std::optional<Bytes>> Client::collect_replies(std::uint64_t id,
                                                        std::size_t quorum,
                                                        sim::Time deadline,
                                                        Votes& votes) {
  // Polls at least once, then until the deadline.
  do {
    const sim::Time wait = std::max<sim::Time>(deadline - sim_->now(),
                                               sim::microseconds(5));
    const auto msgs = co_await transport_->poll(wait);
    for (const InboundMsg& m : msgs) {
      co_await sim_->sleep(cfg_.costs.mac_time(m.frame.size()));
      const auto env = decode_verified(m.frame.view(), keys_);
      if (!env || !std::holds_alternative<Reply>(env->msg)) continue;
      const auto& reply = std::get<Reply>(env->msg);
      if (reply.client != cfg_.self || reply.request_id != id) continue;
      if (env->sender != m.peer || env->sender >= cfg_.n) continue;
      ++stats_.replies_received;
      view_ = std::max(view_, reply.view);
      std::set<NodeId>& voters = votes[reply.result];
      voters.insert(env->sender);
      if (voters.size() >= quorum) co_return reply.result;
    }
  } while (sim_->now() < deadline);
  co_return std::nullopt;
}

}  // namespace rubin::reptor
