// HMAC-SHA-256 (RFC 2104) and the MAC-vector "authenticators" PBFT uses.
//
// Reptor authenticates replica messages with per-pair symmetric keys: a
// message carries one MAC per receiver (an *authenticator vector*). A
// Byzantine sender can put a valid MAC for one receiver and garbage for
// another, which is exactly the behaviour the PBFT view-change machinery
// must tolerate — so the authenticator is modeled faithfully here rather
// than as a single shared MAC.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace rubin {

/// One-shot HMAC-SHA-256. Keys of any length (hashed down if > 64 bytes).
Digest hmac_sha256(ByteView key, ByteView message);

/// Truncated 8-byte MAC as used in PBFT authenticators (Castro & Liskov use
/// 10-byte UMACs; we truncate HMAC-SHA-256 — same trust model, cheaper wire
/// format than full digests).
using Mac = std::array<std::uint8_t, 8>;

Mac truncated_mac(ByteView key, ByteView message);

/// HMAC key with its SHA-256 midstates precomputed: the ipad and opad
/// blocks are absorbed once at construction, so each MAC costs two fewer
/// compressions than a from-scratch keyed hash — the paper's session keys
/// are long-lived while authenticators are per-message, so this is the
/// right trade. Results are bit-identical to hmac_sha256().
///
/// After construction an HmacKey is deep-immutable: mac()/truncated()
/// copy the cached `inner_`/`outer_` midstates by value and hash in the
/// copy.
class HmacKey {
 public:
  explicit HmacKey(ByteView key);

  Digest mac(ByteView message) const;
  Mac truncated(ByteView message) const;

 private:
  Digest finish_outer(Sha256 inner) const;

  Sha256 inner_;  // state after absorbing key ^ ipad
  Sha256 outer_;  // state after absorbing key ^ opad
};

/// Symmetric pairwise session keys for a group of n nodes. Node i and node
/// j share key derive(i, j) == derive(j, i). Derivation is from a group
/// secret — stand-in for the key exchange a deployment would run.
///
/// The PBFT MAC rule, used by every method below: the MAC of a message
/// body for `peer` is the first 8 bytes of
/// HMAC-SHA-256(key_for(peer), SHA-256(body)). As in Castro and Liskov's
/// authenticators, the body is hashed once and each receiver's MAC covers
/// only the 32-byte digest, so an n-MAC authenticator costs |body| + 2n
/// compressions (the cached midstates make each MAC two), not n·|body|.
class KeyTable {
 public:
  KeyTable(std::uint32_t self, std::uint32_t group_size, ByteView group_secret);

  std::uint32_t self() const noexcept { return self_; }
  std::uint32_t group_size() const noexcept { return static_cast<std::uint32_t>(keys_.size()); }

  /// Session key shared with `peer`.
  ByteView key_for(std::uint32_t peer) const;

  /// MAC of `message` for `peer`: one hash of the message, then two
  /// compressions from the cached midstates.
  Mac mac_for(std::uint32_t peer, ByteView message) const;

  /// Verifies a MAC claimed to come from `peer`.
  bool verify_from(std::uint32_t peer, ByteView message, const Mac& mac) const;

  /// Full authenticator: one MAC per group member (including self, which
  /// keeps indexing trivial; receivers only check their own slot).
  std::vector<Mac> authenticator(ByteView message) const;
  /// Authenticator for nodes 0..count-1 only (e.g. the replicas of a
  /// group that also holds client keys). The message is hashed once.
  std::vector<Mac> authenticator(ByteView message, std::uint32_t count) const;

 private:
  Mac mac_of_digest(std::uint32_t peer, const Digest& body) const;

  std::uint32_t self_;
  std::vector<Bytes> keys_;      // keys_[j] = pairwise key with node j
  std::vector<HmacKey> cached_;  // cached_[j] = midstates for keys_[j]
};

}  // namespace rubin
