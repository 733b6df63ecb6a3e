// Wire serialization: a little-endian writer/reader pair.
//
// All protocol messages (PBFT, RDMA CM handshakes, blockchain blocks) are
// encoded with these. Encoding is explicit and versioned by the message
// structs themselves; this layer only provides primitive fields, length-
// prefixed byte strings, and bounds-checked reads that fail loudly instead
// of reading past the end of a truncated (possibly malicious) message.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/bytes.hpp"
#include "common/shared_bytes.hpp"

namespace rubin {

/// Appends primitive values to an owned buffer, little-endian.
class Encoder {
 public:
  Encoder() = default;

  void put_u8(std::uint8_t v);
  void put_u16(std::uint16_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v);
  /// Length-prefixed (u32) byte string.
  void put_bytes(ByteView b);
  /// Raw bytes with no length prefix (fixed-size fields like digests).
  void put_raw(ByteView b);
  void put_string(std::string_view s);

  /// Finishes encoding; the encoder is empty afterwards.
  Bytes take() { return std::move(buf_); }
  /// Finishes into a refcounted buffer so the frame can be multicast or
  /// queued without further per-consumer copies (one copy here, at the
  /// serialization boundary — the last one the frame ever pays).
  SharedBytes take_shared();
  ByteView view() const { return buf_; }
  std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

/// Bounds-checked sequential reader over a byte view. Every getter returns
/// std::nullopt once the input is exhausted or a length prefix overruns the
/// buffer; callers treat nullopt as a malformed message.
class Decoder {
 public:
  explicit Decoder(ByteView b) : buf_(b) {}

  std::optional<std::uint8_t> get_u8();
  std::optional<std::uint16_t> get_u16();
  std::optional<std::uint32_t> get_u32();
  std::optional<std::uint64_t> get_u64();
  std::optional<std::int64_t> get_i64();
  /// Reads a u32 length prefix then that many bytes.
  std::optional<Bytes> get_bytes();
  /// Reads exactly n raw bytes.
  std::optional<Bytes> get_raw(std::size_t n);
  std::optional<std::string> get_string();

  /// Bytes not yet consumed.
  std::size_t remaining() const { return buf_.size() - pos_; }
  /// True when the whole input has been consumed (strict decoders require
  /// this at the end to reject trailing garbage).
  bool exhausted() const { return remaining() == 0; }

 private:
  bool ensure(std::size_t n) const { return remaining() >= n; }
  ByteView buf_;
  std::size_t pos_ = 0;
};

}  // namespace rubin
