#include "reptor/messages.hpp"

#include <algorithm>
#include <array>
#include <iterator>

#include "common/codec.hpp"

namespace rubin::reptor {

// Wire layouts, one walker per struct (common/codec.hpp). They live in
// this namespace rather than an anonymous one so that walk_each finds
// them by argument-dependent lookup.

template <class Io, Walked<Request> R>
bool walk(Io& io, R& r) {
  return io.u32(r.client) && io.u64(r.id) && io.bytes(r.op) &&
         io.flag(r.read_only);
}

template <class Io, Walked<PrePrepare, PreparedProof> R>
bool walk(Io& io, R& p) {
  return io.u64(p.view) && io.u64(p.seq) && io.raw(p.digest) &&
         io.seq(p.batch, walk_each);
}

template <class Io, Walked<Prepare, Commit> R>
bool walk(Io& io, R& p) {
  return io.u64(p.view) && io.u64(p.seq) && io.raw(p.digest);
}

template <class Io, Walked<Reply> R>
bool walk(Io& io, R& r) {
  return io.u64(r.view) && io.u32(r.client) && io.u64(r.request_id) &&
         io.bytes(r.result);
}

template <class Io, Walked<Checkpoint> R>
bool walk(Io& io, R& c) {
  return io.u64(c.seq) && io.raw(c.state) && io.raw(c.clients);
}

template <class Io, Walked<ViewChange> R>
bool walk(Io& io, R& v) {
  return io.u64(v.new_view) && io.u64(v.stable_seq) &&
         io.seq(v.prepared, walk_each);
}

constexpr auto walk_node_id = [](auto& io, auto& id) { return io.u32(id); };

template <class Io, Walked<NewView> R>
bool walk(Io& io, R& v) {
  return io.u64(v.view) && io.seq(v.voters, walk_node_id) &&
         io.seq(v.pre_prepares, walk_each);
}

template <class Io, Walked<StateRequest> R>
bool walk(Io& io, R& s) {
  return io.u64(s.have_seq);
}

template <class Io, Walked<StateResponse> R>
bool walk(Io& io, R& s) {
  return io.u64(s.seq) && io.bytes(s.app_snapshot) && io.bytes(s.client_table);
}

/// One ClientTable entry: (client id, record).
constexpr auto walk_client = [](auto& io, auto& entry) {
  return io.u32(entry.first) && io.u64(entry.second.last_id) &&
         io.opt(entry.second.last_reply, walk_each);
};

template <class Io, Walked<ClientTable> R>
bool walk(Io& io, R& table) {
  return io.seq(table, walk_client);
}

namespace {

// The type byte is the Message alternative's index + 1.
constexpr const char* kTypeNames[] = {
    "REQUEST",    "PRE-PREPARE", "PREPARE",  "COMMIT",        "REPLY",
    "CHECKPOINT", "VIEW-CHANGE", "NEW-VIEW", "STATE-REQUEST", "STATE-RESPONSE",
};
static_assert(std::size(kTypeNames) == std::variant_size_v<Message>);

using PayloadReader = bool (*)(Decoder&, Message&);

template <std::size_t I>
bool read_payload(Decoder& d, Message& m) {
  return walk(d, m.emplace<I>());
}

constexpr auto kPayloadReaders =
    []<std::size_t... I>(std::index_sequence<I...>) {
      return std::array<PayloadReader, sizeof...(I)>{&read_payload<I>...};
    }(std::make_index_sequence<std::variant_size_v<Message>>{});

/// Encodes the authenticated portion of a frame (type | sender | payload)
/// straight into `e`, which then grows the MAC trailer in place — one
/// buffer end to end, no body staging copy.
void put_authenticated_body(Encoder& e, const Envelope& env) {
  e.u8(static_cast<std::uint8_t>(env.msg.index() + 1));
  e.u32(env.sender);
  std::visit([&e](const auto& v) { walk(e, v); }, env.msg);
}

}  // namespace

Digest batch_digest(const std::vector<Request>& batch) {
  Encoder e;
  e.seq(batch, walk_each);
  return Sha256::hash(e.view());
}

SharedBytes encode_for_replicas(const Envelope& env, const KeyTable& keys,
                                std::uint32_t replica_count) {
  Encoder e;
  put_authenticated_body(e, env);
  // MAC the body *before* the trailer lands in the same buffer (the MACs
  // cover exactly the bytes written so far). The body is hashed once.
  const std::vector<Mac> macs = keys.authenticator(e.view(), replica_count);
  e.u8(static_cast<std::uint8_t>(replica_count));
  for (const Mac& m : macs) e.raw(m);
  return e.take_shared();
}

SharedBytes encode_for_peer(const Envelope& env, const KeyTable& keys,
                            NodeId peer) {
  Encoder e;
  put_authenticated_body(e, env);
  const Mac mac = keys.mac_for(peer, e.view());
  e.u8(1);
  e.raw(mac);
  return e.take_shared();
}

std::optional<ParsedFrame> parse_frame(ByteView frame) {
  Decoder d(frame);
  std::uint8_t type = 0;
  ParsedFrame parsed;
  if (!d.u8(type) || !d.u32(parsed.env.sender)) return std::nullopt;
  if (type == 0 || type > kPayloadReaders.size()) return std::nullopt;
  if (!kPayloadReaders[type - 1](d, parsed.env.msg)) return std::nullopt;

  parsed.body_len = frame.size() - d.remaining();
  std::uint8_t mac_count = 0;
  if (!d.u8(mac_count)) return std::nullopt;
  if (d.remaining() != static_cast<std::size_t>(mac_count) * sizeof(Mac)) {
    return std::nullopt;
  }
  return parsed;
}

bool authentic(ByteView frame, const ParsedFrame& parsed,
               const KeyTable& keys) {
  // A forged/corrupted sender id outside the group must be *rejected*,
  // not allowed to throw out of the MAC check (remote crash vector —
  // found by the bit-flip fuzz test).
  if (parsed.env.sender >= keys.group_size()) return false;
  // parse_frame put the mac_count byte at body_len, and its MACs after.
  const std::size_t mac_count = frame[parsed.body_len];
  if (mac_count == 0) return false;  // nothing to verify
  // Pick our slot: full authenticators are indexed by node id; a single
  // MAC is for us by construction.
  const std::uint32_t self = keys.self();
  std::size_t slot = 0;
  if (mac_count > 1) {
    if (self >= mac_count) return false;  // no MAC for us
    slot = self;
  }
  Mac mac;
  std::copy_n(frame.begin() + static_cast<std::ptrdiff_t>(
                                  parsed.body_len + 1 + slot * sizeof(Mac)),
              sizeof(Mac), mac.begin());
  return keys.verify_from(parsed.env.sender, frame.first(parsed.body_len),
                          mac);
}

std::optional<Envelope> decode_verified(ByteView frame, const KeyTable& keys) {
  std::optional<ParsedFrame> parsed = parse_frame(frame);
  if (!parsed || !authentic(frame, *parsed, keys)) return std::nullopt;
  return std::move(parsed->env);
}

Bytes encode_client_table(const ClientTable& table) {
  Encoder e;
  walk(e, table);
  return e.take();
}

std::optional<ClientTable> decode_client_table(ByteView data) {
  Decoder d(data);
  ClientTable table;
  if (!walk(d, table) || !d.exhausted()) return std::nullopt;
  return table;
}

const char* type_name(const Message& m) noexcept {
  return m.valueless_by_exception() ? "?" : kTypeNames[m.index()];
}

}  // namespace rubin::reptor
