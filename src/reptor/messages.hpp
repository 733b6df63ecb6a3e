// PBFT message types and their authenticated wire format.
//
// Replica-to-replica messages carry a full *authenticator* — one
// truncated HMAC per replica — because a Byzantine sender may craft a MAC
// vector that verifies at some receivers and not others (the attack the
// crypto tests demonstrate). Messages to a single peer (replies to
// clients) carry one MAC.
//
// Wire layout:
//   u8 type | u32 sender | payload | u8 mac_count | mac_count * 8B
// The type byte is the Message alternative's index + 1. Each payload's
// layout is written down once, as a walker in messages.cpp that both
// encodes and decodes it (common/codec.hpp). The MACs authenticate
// (type | sender | payload).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <variant>
#include <vector>

#include "common/bytes.hpp"
#include "common/shared_bytes.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

namespace rubin::reptor {

/// Node numbering: replicas are 0..n-1; clients are n, n+1, … — one
/// KeyTable spans the whole group so any pair shares a session key.
using NodeId = std::uint32_t;

struct Request {
  NodeId client = 0;
  std::uint64_t id = 0;  // client-local, strictly increasing
  Bytes op;
  /// PBFT read-only optimization (Castro & Liskov §4.1): read-only
  /// requests skip the three-phase ordering — each replica answers from
  /// its current committed state, and the client accepts a result only
  /// when 2f+1 replies match (falling back to ordered execution when
  /// concurrent writes make them diverge).
  bool read_only = false;

  bool operator==(const Request&) const = default;
};

/// Ordered batch proposal from the primary (PBFT PRE-PREPARE). `digest`
/// covers the encoded batch; PREPARE/COMMIT refer to it by digest only
/// (the "hashes instead of full messages" optimization, paper §II-B).
struct PrePrepare {
  std::uint64_t view = 0;
  std::uint64_t seq = 0;
  Digest digest{};
  std::vector<Request> batch;

  bool operator==(const PrePrepare&) const = default;
};

struct Prepare {
  std::uint64_t view = 0;
  std::uint64_t seq = 0;
  Digest digest{};

  bool operator==(const Prepare&) const = default;
};

struct Commit {
  std::uint64_t view = 0;
  std::uint64_t seq = 0;
  Digest digest{};

  bool operator==(const Commit&) const = default;
};

struct Reply {
  std::uint64_t view = 0;
  NodeId client = 0;
  std::uint64_t request_id = 0;
  Bytes result;

  bool operator==(const Reply&) const = default;
};

struct Checkpoint {
  std::uint64_t seq = 0;
  Digest state{};    // application state digest at seq
  Digest clients{};  // client-table digest at seq (reply dedup state)

  bool operator==(const Checkpoint&) const = default;
};

/// Per-sequence evidence carried in a VIEW-CHANGE: the sender prepared
/// this digest at this sequence in some earlier view. Carries the full
/// batch so the new primary can re-issue it without a fetch round
/// (simplification over PBFT's digest-only proofs; see replica.hpp).
struct PreparedProof {
  std::uint64_t view = 0;
  std::uint64_t seq = 0;
  Digest digest{};
  std::vector<Request> batch;

  bool operator==(const PreparedProof&) const = default;
};

struct ViewChange {
  std::uint64_t new_view = 0;
  std::uint64_t stable_seq = 0;
  std::vector<PreparedProof> prepared;

  bool operator==(const ViewChange&) const = default;
};

struct NewView {
  std::uint64_t view = 0;
  std::vector<NodeId> voters;          // the 2f+1 view-change senders
  std::vector<PrePrepare> pre_prepares;  // re-issued proposals

  bool operator==(const NewView&) const = default;
};

/// Catch-up sub-protocol (PBFT state transfer): a replica whose execution
/// fell behind the group's stable checkpoint asks a peer for a snapshot.
struct StateRequest {
  std::uint64_t have_seq = 0;  // requester's last executed sequence

  bool operator==(const StateRequest&) const = default;
};

/// Snapshot at the responder's stable checkpoint. Trust model: the
/// receiver only installs it if the snapshot's digests match a checkpoint
/// digest it saw 2f+1 replicas vote for — a Byzantine responder can stall
/// the transfer but never corrupt state.
struct StateResponse {
  std::uint64_t seq = 0;
  Bytes app_snapshot;
  Bytes client_table;

  bool operator==(const StateResponse&) const = default;
};

/// The alternative's index + 1 is the frame's type byte: append new
/// types, never reorder.
using Message = std::variant<Request, PrePrepare, Prepare, Commit, Reply,
                             Checkpoint, ViewChange, NewView, StateRequest,
                             StateResponse>;

struct Envelope {
  NodeId sender = 0;
  Message msg;

  bool operator==(const Envelope&) const = default;
};

/// A replica's per-client reply cache: the last request id it executed
/// for the client, and the reply to resend when that request is retried.
struct ClientRecord {
  std::uint64_t last_id = 0;
  std::optional<Reply> last_reply;

  bool operator==(const ClientRecord&) const = default;
};

/// The client table travels in STATE-RESPONSE, and its SHA-256 is the
/// client digest a CHECKPOINT votes on. std::map: deterministic order.
using ClientTable = std::map<NodeId, ClientRecord>;

Bytes encode_client_table(const ClientTable& table);

/// Strict parse: nullopt on truncation or trailing bytes.
std::optional<ClientTable> decode_client_table(ByteView data);

/// Digest of a request batch (what PRE-PREPARE/PREPARE/COMMIT agree on).
Digest batch_digest(const std::vector<Request>& batch);

/// Serializes `msg` and appends an authenticator with one MAC per replica
/// (slots 0..replica_count-1 of the key table). The frame comes back as a
/// refcounted buffer: broadcasting it to n peers shares one allocation
/// instead of copying it n times.
SharedBytes encode_for_replicas(const Envelope& env, const KeyTable& keys,
                                std::uint32_t replica_count);

/// Serializes `msg` with a single MAC for `peer`.
SharedBytes encode_for_peer(const Envelope& env, const KeyTable& keys,
                            NodeId peer);

/// A frame that passed parse_frame: its envelope, and the length of
/// the body (type | sender | payload) its MACs cover.
struct ParsedFrame {
  Envelope env;
  std::size_t body_len = 0;
};

/// Structural parse, no MAC check: nullopt on an unknown type, a short
/// payload, or a MAC trailer whose length disagrees with its count.
std::optional<ParsedFrame> parse_frame(ByteView frame);

/// True when our MAC slot of `frame` (whose parse is `parsed`) verifies.
/// A Byzantine peer's frame simply vanishes here, which PBFT tolerates
/// by design.
bool authentic(ByteView frame, const ParsedFrame& parsed,
               const KeyTable& keys);

/// parse_frame, then authentic: the envelope of an authentic frame.
std::optional<Envelope> decode_verified(ByteView frame, const KeyTable& keys);

/// Human-readable message-type name (logging).
const char* type_name(const Message& m) noexcept;

}  // namespace rubin::reptor
