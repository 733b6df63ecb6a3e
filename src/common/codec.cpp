#include "common/codec.hpp"

namespace rubin {

void Encoder::put_u8(std::uint8_t v) { buf_.push_back(v); }

void Encoder::put_u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void Encoder::put_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Encoder::put_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Encoder::put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }

void Encoder::put_bytes(ByteView b) {
  put_u32(static_cast<std::uint32_t>(b.size()));
  put_raw(b);
}

void Encoder::put_raw(ByteView b) { buf_.insert(buf_.end(), b.begin(), b.end()); }

void Encoder::put_string(std::string_view s) {
  put_bytes(ByteView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

SharedBytes Encoder::take_shared() {
  SharedBytes out = SharedBytes::copy_of(buf_);
  buf_.clear();
  return out;
}

std::optional<std::uint8_t> Decoder::get_u8() {
  if (!ensure(1)) return std::nullopt;
  return buf_[pos_++];
}

std::optional<std::uint16_t> Decoder::get_u16() {
  if (!ensure(2)) return std::nullopt;
  const std::uint16_t v = static_cast<std::uint16_t>(
      buf_[pos_] | (static_cast<unsigned>(buf_[pos_ + 1]) << 8));
  pos_ += 2;
  return v;
}

std::optional<std::uint32_t> Decoder::get_u32() {
  if (!ensure(4)) return std::nullopt;
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(buf_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::optional<std::uint64_t> Decoder::get_u64() {
  if (!ensure(8)) return std::nullopt;
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(buf_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

std::optional<std::int64_t> Decoder::get_i64() {
  auto v = get_u64();
  if (!v) return std::nullopt;
  return static_cast<std::int64_t>(*v);
}

std::optional<Bytes> Decoder::get_bytes() {
  auto len = get_u32();
  if (!len) return std::nullopt;
  return get_raw(*len);
}

std::optional<Bytes> Decoder::get_raw(std::size_t n) {
  if (!ensure(n)) return std::nullopt;
  Bytes out(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
            buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

std::optional<std::string> Decoder::get_string() {
  auto b = get_bytes();
  if (!b) return std::nullopt;
  return std::string(b->begin(), b->end());
}

}  // namespace rubin
