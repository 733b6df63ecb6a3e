#include "reptor/byzantine_client.hpp"

namespace rubin::reptor {

namespace {

/// Duplicate + replay attack: authentic frames, sent too often. The
/// protocol's defences (replica request dedup by client id, reply
/// caching, RC PSN tracking) must make every extra copy a no-op.
class ClientReplayer final : public ClientStrategy {
 public:
  const char* name() const noexcept override { return "client-replayer"; }

  bool on_send(ClientEnv& env, NodeId peer, SharedBytes& frame,
               std::vector<std::pair<NodeId, SharedBytes>>& extra) override {
    // Every genuine send goes out twice.
    extra.emplace_back(peer, frame);
    // And every fourth send replays the oldest recorded frame to every
    // replica — valid MACs, stale request id.
    recorded_.push_back(frame);
    if (++sends_ % 4 == 0) {
      for (NodeId r = 0; r < env.cfg.n; ++r) {
        extra.emplace_back(r, recorded_.front());
      }
    }
    return true;
  }

 private:
  std::uint64_t sends_ = 0;
  std::vector<SharedBytes> recorded_;
};

/// Forgery attack: alongside each genuine send, a wrong-MAC copy and an
/// impersonation of another client. Neither is authentic at any
/// replica — the checker's forgery rule proves none executed.
class ClientForger final : public ClientStrategy {
 public:
  const char* name() const noexcept override { return "client-forger"; }

  bool on_send(ClientEnv& env, NodeId peer, SharedBytes& frame,
               std::vector<std::pair<NodeId, SharedBytes>>& extra) override {
    // (a) Garbled authenticator: flip every MAC slot of a private copy.
    // Wire layout puts the `u8 mac_count | mac_count * Mac` trailer last.
    SharedBytes garbled = SharedBytes::copy_of(frame.view());
    const std::size_t mac_bytes = env.cfg.n * sizeof(Mac);
    if (garbled.size() > mac_bytes) {
      std::uint8_t* p = garbled.mutable_data() + garbled.size() - mac_bytes;
      for (std::size_t i = 0; i < mac_bytes; ++i) p[i] ^= 0xA5;
    }
    extra.emplace_back(peer, std::move(garbled));

    // (b) Impersonation: re-label the request as coming from another
    // client and re-MAC it with the forger's own keys. Replicas verify
    // against the session key of the *claimed* sender, so every slot
    // fails — the frame vanishes at the MAC layer.
    if (const auto parsed = parse_frame(frame.view())) {
      if (const auto* req = std::get_if<Request>(&parsed->env.msg)) {
        Request forged = *req;
        forged.client = victim_of(env);
        extra.emplace_back(
            peer, encode_for_replicas(Envelope{forged.client, Message{forged}},
                                      env.keys, env.cfg.n));
      }
    }
    return true;
  }

 private:
  /// Any other group identity — the forger does not hold its session
  /// keys, so the impersonated MACs cannot verify anywhere.
  NodeId victim_of(const ClientEnv& env) const noexcept {
    return (env.cfg.self + 1) % env.keys.group_size();
  }
};

}  // namespace

std::shared_ptr<ClientStrategy> make_client_replayer() {
  return std::make_shared<ClientReplayer>();
}

std::shared_ptr<ClientStrategy> make_client_forger() {
  return std::make_shared<ClientForger>();
}

std::shared_ptr<ClientStrategy> make_client_strategy_by_name(
    const std::string& name) {
  if (name == "client-replayer") return make_client_replayer();
  if (name == "client-forger") return make_client_forger();
  return nullptr;
}

}  // namespace rubin::reptor
