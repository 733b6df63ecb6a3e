#include "reptor/messages.hpp"

#include <algorithm>

#include "common/codec.hpp"

namespace rubin::reptor {

namespace {

enum class Type : std::uint8_t {
  kRequest = 1,
  kPrePrepare,
  kPrepare,
  kCommit,
  kReply,
  kCheckpoint,
  kViewChange,
  kNewView,
  kStateRequest,
  kStateResponse,
};

void put_digest(Encoder& e, const Digest& d) { e.put_raw(d); }

std::optional<Digest> get_digest(Decoder& d) {
  auto raw = d.get_raw(32);
  if (!raw) return std::nullopt;
  Digest out{};
  std::copy(raw->begin(), raw->end(), out.begin());
  return out;
}

void encode_request(Encoder& e, const Request& r) {
  e.put_u32(r.client);
  e.put_u64(r.id);
  e.put_bytes(r.op);
  e.put_u8(r.read_only ? 1 : 0);
}

std::optional<Request> decode_request(Decoder& d) {
  Request r;
  auto client = d.get_u32();
  auto id = d.get_u64();
  auto op = d.get_bytes();
  auto ro = d.get_u8();
  if (!client || !id || !op || !ro) return std::nullopt;
  r.client = *client;
  r.id = *id;
  r.op = std::move(*op);
  r.read_only = *ro != 0;
  return r;
}

void encode_pre_prepare(Encoder& e, const PrePrepare& p) {
  e.put_u64(p.view);
  e.put_u64(p.seq);
  put_digest(e, p.digest);
  e.put_u32(static_cast<std::uint32_t>(p.batch.size()));
  for (const Request& r : p.batch) encode_request(e, r);
}

std::optional<PrePrepare> decode_pre_prepare(Decoder& d) {
  PrePrepare p;
  auto view = d.get_u64();
  auto seq = d.get_u64();
  auto digest = get_digest(d);
  auto count = d.get_u32();
  if (!view || !seq || !digest || !count) return std::nullopt;
  p.view = *view;
  p.seq = *seq;
  p.digest = *digest;
  // No reserve(*count): the count is untrusted input, and reserving an
  // attacker-chosen size throws bad_alloc before the per-element decode
  // can reject the frame (found by the bit-flip fuzz test). Each bogus
  // element fails fast instead.
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto r = decode_request(d);
    if (!r) return std::nullopt;
    p.batch.push_back(std::move(*r));
  }
  return p;
}

void encode_payload(Encoder& e, const Message& m) {
  std::visit(
      [&](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, Request>) {
          encode_request(e, v);
        } else if constexpr (std::is_same_v<T, PrePrepare>) {
          encode_pre_prepare(e, v);
        } else if constexpr (std::is_same_v<T, Prepare> ||
                             std::is_same_v<T, Commit>) {
          e.put_u64(v.view);
          e.put_u64(v.seq);
          put_digest(e, v.digest);
        } else if constexpr (std::is_same_v<T, Reply>) {
          e.put_u64(v.view);
          e.put_u32(v.client);
          e.put_u64(v.request_id);
          e.put_bytes(v.result);
        } else if constexpr (std::is_same_v<T, Checkpoint>) {
          e.put_u64(v.seq);
          put_digest(e, v.state);
          put_digest(e, v.clients);
        } else if constexpr (std::is_same_v<T, StateRequest>) {
          e.put_u64(v.have_seq);
        } else if constexpr (std::is_same_v<T, StateResponse>) {
          e.put_u64(v.seq);
          e.put_bytes(v.app_snapshot);
          e.put_bytes(v.client_table);
        } else if constexpr (std::is_same_v<T, ViewChange>) {
          e.put_u64(v.new_view);
          e.put_u64(v.stable_seq);
          e.put_u32(static_cast<std::uint32_t>(v.prepared.size()));
          for (const PreparedProof& pp : v.prepared) {
            e.put_u64(pp.view);
            e.put_u64(pp.seq);
            put_digest(e, pp.digest);
            e.put_u32(static_cast<std::uint32_t>(pp.batch.size()));
            for (const Request& r : pp.batch) encode_request(e, r);
          }
        } else if constexpr (std::is_same_v<T, NewView>) {
          e.put_u64(v.view);
          e.put_u32(static_cast<std::uint32_t>(v.voters.size()));
          for (NodeId id : v.voters) e.put_u32(id);
          e.put_u32(static_cast<std::uint32_t>(v.pre_prepares.size()));
          for (const PrePrepare& pp : v.pre_prepares) encode_pre_prepare(e, pp);
        }
      },
      m);
}

std::optional<Message> decode_payload(Type t, Decoder& d) {
  switch (t) {
    case Type::kRequest: {
      auto r = decode_request(d);
      if (!r) return std::nullopt;
      return Message{std::move(*r)};
    }
    case Type::kPrePrepare: {
      auto p = decode_pre_prepare(d);
      if (!p) return std::nullopt;
      return Message{std::move(*p)};
    }
    case Type::kPrepare:
    case Type::kCommit: {
      auto view = d.get_u64();
      auto seq = d.get_u64();
      auto digest = get_digest(d);
      if (!view || !seq || !digest) return std::nullopt;
      if (t == Type::kPrepare) return Message{Prepare{*view, *seq, *digest}};
      return Message{Commit{*view, *seq, *digest}};
    }
    case Type::kReply: {
      Reply r;
      auto view = d.get_u64();
      auto client = d.get_u32();
      auto id = d.get_u64();
      auto result = d.get_bytes();
      if (!view || !client || !id || !result) return std::nullopt;
      r.view = *view;
      r.client = *client;
      r.request_id = *id;
      r.result = std::move(*result);
      return Message{std::move(r)};
    }
    case Type::kCheckpoint: {
      auto seq = d.get_u64();
      auto state = get_digest(d);
      auto clients = get_digest(d);
      if (!seq || !state || !clients) return std::nullopt;
      return Message{Checkpoint{*seq, *state, *clients}};
    }
    case Type::kStateRequest: {
      auto have = d.get_u64();
      if (!have) return std::nullopt;
      return Message{StateRequest{*have}};
    }
    case Type::kStateResponse: {
      StateResponse r;
      auto seq = d.get_u64();
      auto snap = d.get_bytes();
      auto clients = d.get_bytes();
      if (!seq || !snap || !clients) return std::nullopt;
      r.seq = *seq;
      r.app_snapshot = std::move(*snap);
      r.client_table = std::move(*clients);
      return Message{std::move(r)};
    }
    case Type::kViewChange: {
      ViewChange v;
      auto nv = d.get_u64();
      auto stable = d.get_u64();
      auto count = d.get_u32();
      if (!nv || !stable || !count) return std::nullopt;
      v.new_view = *nv;
      v.stable_seq = *stable;
      for (std::uint32_t i = 0; i < *count; ++i) {
        auto pv = d.get_u64();
        auto ps = d.get_u64();
        auto pd = get_digest(d);
        auto n_req = d.get_u32();
        if (!pv || !ps || !pd || !n_req) return std::nullopt;
        PreparedProof proof{*pv, *ps, *pd, {}};
        for (std::uint32_t k = 0; k < *n_req; ++k) {
          auto r = decode_request(d);
          if (!r) return std::nullopt;
          proof.batch.push_back(std::move(*r));
        }
        v.prepared.push_back(std::move(proof));
      }
      return Message{std::move(v)};
    }
    case Type::kNewView: {
      NewView v;
      auto view = d.get_u64();
      auto n_voters = d.get_u32();
      if (!view || !n_voters) return std::nullopt;
      v.view = *view;
      for (std::uint32_t i = 0; i < *n_voters; ++i) {
        auto id = d.get_u32();
        if (!id) return std::nullopt;
        v.voters.push_back(*id);
      }
      auto n_pp = d.get_u32();
      if (!n_pp) return std::nullopt;
      for (std::uint32_t i = 0; i < *n_pp; ++i) {
        auto pp = decode_pre_prepare(d);
        if (!pp) return std::nullopt;
        v.pre_prepares.push_back(std::move(*pp));
      }
      return Message{std::move(v)};
    }
  }
  return std::nullopt;
}

Type type_of(const Message& m) {
  return std::visit(
      [](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, Request>) return Type::kRequest;
        if constexpr (std::is_same_v<T, PrePrepare>) return Type::kPrePrepare;
        if constexpr (std::is_same_v<T, Prepare>) return Type::kPrepare;
        if constexpr (std::is_same_v<T, Commit>) return Type::kCommit;
        if constexpr (std::is_same_v<T, Reply>) return Type::kReply;
        if constexpr (std::is_same_v<T, Checkpoint>) return Type::kCheckpoint;
        if constexpr (std::is_same_v<T, ViewChange>) return Type::kViewChange;
        if constexpr (std::is_same_v<T, NewView>) return Type::kNewView;
        if constexpr (std::is_same_v<T, StateRequest>) return Type::kStateRequest;
        if constexpr (std::is_same_v<T, StateResponse>) return Type::kStateResponse;
      },
      m);
}

/// Encodes the authenticated portion of a frame (type | sender | payload)
/// straight into `e`, which then grows the MAC trailer in place — one
/// buffer end to end, no body staging copy.
void put_authenticated_body(Encoder& e, const Envelope& env) {
  e.put_u8(static_cast<std::uint8_t>(type_of(env.msg)));
  e.put_u32(env.sender);
  encode_payload(e, env.msg);
}

}  // namespace

Digest batch_digest(const std::vector<Request>& batch) {
  Encoder e;
  e.put_u32(static_cast<std::uint32_t>(batch.size()));
  for (const Request& r : batch) encode_request(e, r);
  return Sha256::hash(e.view());
}

Digest request_digest(const Request& r) {
  Encoder e;
  encode_request(e, r);
  return Sha256::hash(e.view());
}

SharedBytes encode_for_replicas(const Envelope& env, const KeyTable& keys,
                                std::uint32_t replica_count) {
  Encoder e;
  put_authenticated_body(e, env);
  // MAC the body *before* the trailer lands in the same buffer (the MACs
  // cover exactly the bytes written so far). The body is hashed once.
  const std::vector<Mac> macs = keys.authenticator(e.view(), replica_count);
  e.put_u8(static_cast<std::uint8_t>(replica_count));
  for (const Mac& m : macs) e.put_raw(m);
  return e.take_shared();
}

SharedBytes encode_for_peer(const Envelope& env, const KeyTable& keys,
                            NodeId peer) {
  Encoder e;
  put_authenticated_body(e, env);
  const Mac mac = keys.mac_for(peer, e.view());
  e.put_u8(1);
  e.put_raw(mac);
  return e.take_shared();
}

namespace {

std::optional<Envelope> decode_impl(ByteView frame, const KeyTable* keys) {
  Decoder d(frame);
  auto type = d.get_u8();
  auto sender = d.get_u32();
  if (!type || !sender) return std::nullopt;
  auto msg = decode_payload(static_cast<Type>(*type), d);
  if (!msg) return std::nullopt;

  const std::size_t body_len = frame.size() - d.remaining();
  auto mac_count = d.get_u8();
  if (!mac_count) return std::nullopt;
  if (d.remaining() != static_cast<std::size_t>(*mac_count) * sizeof(Mac)) {
    return std::nullopt;
  }
  if (keys != nullptr) {
    // A forged/corrupted sender id outside the group must be *rejected*,
    // not allowed to throw out of the decoder (remote crash vector —
    // found by the bit-flip fuzz test).
    if (*sender >= keys->group_size()) return std::nullopt;
    if (*mac_count == 0) return std::nullopt;  // nothing to verify
    // Pick our slot: full authenticators are indexed by node id; a single
    // MAC is for us by construction.
    const std::uint32_t self = keys->self();
    std::size_t slot = 0;
    if (*mac_count > 1) {
      if (self >= *mac_count) return std::nullopt;  // no MAC for us
      slot = self;
    }
    // Read our slot in place: the length check above put it inside frame.
    Mac mac;
    std::copy_n(frame.begin() + static_cast<std::ptrdiff_t>(
                                    body_len + 1 + slot * sizeof(Mac)),
                sizeof(Mac), mac.begin());
    if (!keys->verify_from(*sender, frame.first(body_len), mac)) {
      return std::nullopt;
    }
  }
  return Envelope{*sender, std::move(*msg)};
}

}  // namespace

std::optional<Envelope> decode_verified(ByteView frame, const KeyTable& keys) {
  return decode_impl(frame, &keys);
}

std::optional<Envelope> decode_unverified(ByteView frame) {
  return decode_impl(frame, nullptr);
}

const char* type_name(const Message& m) noexcept {
  switch (type_of(m)) {
    case Type::kRequest: return "REQUEST";
    case Type::kPrePrepare: return "PRE-PREPARE";
    case Type::kPrepare: return "PREPARE";
    case Type::kCommit: return "COMMIT";
    case Type::kReply: return "REPLY";
    case Type::kCheckpoint: return "CHECKPOINT";
    case Type::kViewChange: return "VIEW-CHANGE";
    case Type::kNewView: return "NEW-VIEW";
    case Type::kStateRequest: return "STATE-REQUEST";
    case Type::kStateResponse: return "STATE-RESPONSE";
  }
  return "?";
}

}  // namespace rubin::reptor
