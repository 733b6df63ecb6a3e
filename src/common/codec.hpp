// Wire serialization: little-endian field codecs.
//
// Every variable-length layout the tree puts on a wire or into a digest
// (PBFT frames, the client table, application snapshots) is written down
// exactly once, as a walker over its struct:
//
//   template <class Io, Walked<Prepare> R>
//   bool walk(Io& io, R& p) {
//     return io.u64(p.view) && io.u64(p.seq) && io.raw(p.digest);
//   }
//
// Encoder and Decoder have the same field methods, so one walker both
// writes the layout (R is const T; every field succeeds) and reads it
// (R is T; a field fails on a short input and the && chain stops there).
// Decoders never reserve() from a count read off the wire: an
// attacker-chosen count would throw bad_alloc before the per-element
// reads could reject the input.
//
// Layouts addressed by fixed offsets (decision-log slots and cells, ring
// slots, stream length prefixes, the transport hello) use load_le and
// store_le instead.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <map>
#include <optional>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/bytes.hpp"
#include "common/shared_bytes.hpp"

namespace rubin {

/// Reads a little-endian T at p.
template <std::unsigned_integral T>
T load_le(const std::uint8_t* p) noexcept {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<T>(p[i]) << (8 * i));
  }
  return v;
}

/// Writes v little-endian at p.
template <std::unsigned_integral T>
void store_le(std::uint8_t* p, T v) noexcept {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// A walker's struct parameter: one of Ts when decoding, const when
/// encoding.
template <class R, class... Ts>
concept Walked = (std::same_as<std::remove_const_t<R>, Ts> || ...);

/// Sequence-element callback that walks each element with the walker
/// for its type, found by argument-dependent lookup: walkers live in
/// their struct's namespace.
inline constexpr auto walk_each = [](auto& io, auto& v) {
  return walk(io, v);
};

/// Appends fields to an owned buffer, little-endian. Every field method
/// succeeds; they return bool only to share walkers with Decoder.
class Encoder {
 public:
  bool u8(std::uint8_t v) {
    buf_.push_back(v);
    return true;
  }
  bool u32(std::uint32_t v) { return fixed(v); }
  bool u64(std::uint64_t v) { return fixed(v); }
  bool flag(bool v) { return u8(v ? 1 : 0); }
  /// Length-prefixed (u32) byte string.
  bool bytes(ByteView v) {
    u32(static_cast<std::uint32_t>(v.size()));
    return raw(v);
  }
  bool bytes(std::string_view v) {
    return bytes(ByteView(reinterpret_cast<const std::uint8_t*>(v.data()),
                          v.size()));
  }
  /// Raw bytes with no length prefix (fixed-size fields: digests, MACs).
  bool raw(ByteView v) {
    buf_.insert(buf_.end(), v.begin(), v.end());
    return true;
  }
  /// u32 element count, then f(*this, element) for each element.
  template <class C, class F>
  bool seq(const C& c, F f) {
    u32(static_cast<std::uint32_t>(c.size()));
    for (const auto& x : c) f(*this, x);
    return true;
  }
  /// Presence flag, then f(*this, value) when present.
  template <class T, class F>
  bool opt(const std::optional<T>& v, F f) {
    flag(v.has_value());
    return !v || f(*this, *v);
  }

  /// Finishes encoding; the encoder is empty afterwards.
  Bytes take() { return std::move(buf_); }
  /// Finishes into a refcounted buffer so the frame can be multicast or
  /// queued without further per-consumer copies (one copy here, at the
  /// serialization boundary — the last one the frame ever pays).
  SharedBytes take_shared() {
    SharedBytes out = SharedBytes::copy_of(buf_);
    buf_.clear();
    return out;
  }
  ByteView view() const { return buf_; }
  std::size_t size() const { return buf_.size(); }

 private:
  template <std::unsigned_integral T>
  bool fixed(T v) {
    const std::size_t at = buf_.size();
    buf_.resize(at + sizeof(T));
    store_le(buf_.data() + at, v);
    return true;
  }

  Bytes buf_;
};

/// Bounds-checked sequential reader over a byte view. Every field method
/// returns false once the input is exhausted or a length prefix overruns
/// it; callers treat false as a malformed message. A field that fails
/// leaves its output unspecified.
class Decoder {
 public:
  explicit Decoder(ByteView b) : buf_(b) {}

  bool u8(std::uint8_t& v) { return fixed(v); }
  bool u32(std::uint32_t& v) { return fixed(v); }
  bool u64(std::uint64_t& v) { return fixed(v); }
  bool flag(bool& v) {
    std::uint8_t b = 0;
    if (!u8(b)) return false;
    v = b != 0;
    return true;
  }
  /// Reads a u32 length prefix then that many bytes into a Bytes or a
  /// std::string.
  template <class S>
  bool bytes(S& v) {
    std::uint32_t len = 0;
    if (!u32(len) || !ensure(len)) return false;
    const std::uint8_t* p = buf_.data() + pos_;
    v.assign(p, p + len);
    pos_ += len;
    return true;
  }
  template <std::size_t N>
  bool raw(std::array<std::uint8_t, N>& v) {
    if (!ensure(N)) return false;
    std::copy_n(buf_.data() + pos_, N, v.begin());
    pos_ += N;
    return true;
  }
  /// Reads a u32 count, then that many elements through f(*this, element),
  /// appended in order (a map keeps the first of duplicate keys). No
  /// reserve(count): see the file comment.
  template <class C, class F>
  bool seq(C& c, F f) {
    std::uint32_t count = 0;
    if (!u32(count)) return false;
    for (std::uint32_t i = 0; i < count; ++i) {
      typename Element<C>::type x{};
      if (!f(*this, x)) return false;
      c.insert(c.end(), std::move(x));
    }
    return true;
  }
  template <class T, class F>
  bool opt(std::optional<T>& v, F f) {
    bool present = false;
    if (!flag(present)) return false;
    if (!present) {
      v.reset();
      return true;
    }
    return f(*this, v.emplace());
  }

  std::optional<std::uint64_t> get_u64() {
    std::uint64_t v = 0;
    if (!u64(v)) return std::nullopt;
    return v;
  }

  /// Bytes not yet consumed.
  std::size_t remaining() const { return buf_.size() - pos_; }
  /// True when the whole input has been consumed (strict decoders require
  /// this at the end to reject trailing garbage).
  bool exhausted() const { return remaining() == 0; }

 private:
  /// What seq decodes into: a map's value_type has a const key.
  template <class C>
  struct Element {
    using type = typename C::value_type;
  };
  template <class K, class V, class Cmp, class A>
  struct Element<std::map<K, V, Cmp, A>> {
    using type = std::pair<K, V>;
  };

  bool ensure(std::size_t n) const { return remaining() >= n; }
  template <std::unsigned_integral T>
  bool fixed(T& v) {
    if (!ensure(sizeof(T))) return false;
    v = load_le<T>(buf_.data() + pos_);
    pos_ += sizeof(T);
    return true;
  }

  ByteView buf_;
  std::size_t pos_ = 0;
};

}  // namespace rubin
