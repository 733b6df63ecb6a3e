#include "crypto/hmac.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/codec.hpp"

namespace rubin {

HmacKey::HmacKey(ByteView key) {
  std::array<std::uint8_t, 64> block{};
  if (key.size() > block.size()) {
    const Digest kd = Sha256::hash(key);
    std::memcpy(block.data(), kd.data(), kd.size());
  } else {
    std::memcpy(block.data(), key.data(), key.size());
  }

  std::array<std::uint8_t, 64> ipad;
  std::array<std::uint8_t, 64> opad;
  for (std::size_t i = 0; i < 64; ++i) {
    ipad[i] = block[i] ^ 0x36;
    opad[i] = block[i] ^ 0x5c;
  }
  inner_.update(ipad);
  outer_.update(opad);
}

Digest HmacKey::finish_outer(Sha256 inner) const {
  const Digest inner_digest = inner.finish();
  Sha256 outer = outer_;  // resume the cached opad midstate
  outer.update(inner_digest);
  return outer.finish();
}

Digest HmacKey::mac(ByteView message) const {
  Sha256 inner = inner_;  // resume the cached ipad midstate
  inner.update(message);
  return finish_outer(inner);
}

Mac HmacKey::truncated(ByteView message) const {
  const Digest full = mac(message);
  Mac m;
  std::copy_n(full.begin(), m.size(), m.begin());
  return m;
}

Digest hmac_sha256(ByteView key, ByteView message) {
  return HmacKey(key).mac(message);
}

Mac truncated_mac(ByteView key, ByteView message) {
  return HmacKey(key).truncated(message);
}

KeyTable::KeyTable(std::uint32_t self, std::uint32_t group_size,
                   ByteView group_secret)
    : self_(self) {
  if (self >= group_size) {
    throw std::invalid_argument("KeyTable: self index out of range");
  }
  keys_.reserve(group_size);
  cached_.reserve(group_size);
  for (std::uint32_t peer = 0; peer < group_size; ++peer) {
    // Symmetric derivation: the pair is ordered (min, max) so both sides
    // compute the same key.
    Encoder enc;
    enc.u32(std::min(self, peer));
    enc.u32(std::max(self, peer));
    enc.raw(group_secret);
    const Digest d = Sha256::hash(enc.view());
    keys_.emplace_back(d.begin(), d.end());
    cached_.emplace_back(keys_.back());
  }
}

ByteView KeyTable::key_for(std::uint32_t peer) const {
  if (peer >= keys_.size()) {
    throw std::out_of_range("KeyTable: peer index out of range");
  }
  return keys_[peer];
}

Mac KeyTable::mac_of_digest(std::uint32_t peer, const Digest& body) const {
  if (peer >= cached_.size()) {
    throw std::out_of_range("KeyTable: peer index out of range");
  }
  return cached_[peer].truncated(body);
}

Mac KeyTable::mac_for(std::uint32_t peer, ByteView message) const {
  return mac_of_digest(peer, Sha256::hash(message));
}

bool KeyTable::verify_from(std::uint32_t peer, ByteView message,
                           const Mac& mac) const {
  const Mac expect = mac_for(peer, message);
  return constant_time_equal(expect, mac);
}

std::vector<Mac> KeyTable::authenticator(ByteView message) const {
  return authenticator(message, group_size());
}

std::vector<Mac> KeyTable::authenticator(ByteView message,
                                         std::uint32_t count) const {
  const Digest body = Sha256::hash(message);
  std::vector<Mac> out;
  out.reserve(count);
  for (std::uint32_t peer = 0; peer < count; ++peer) {
    out.push_back(mac_of_digest(peer, body));
  }
  return out;
}

}  // namespace rubin
