// SHA-256 (FIPS 180-4).
//
// Used for PBFT request/batch digests, the PBFT MAC rule (crypto/hmac.hpp)
// and the blockchain's prev-hash links. Streaming interface so large
// payloads can be hashed without copying them into one contiguous buffer.
// The compression runs on x86 SHA-NI when cpuid reports it and on the
// portable scalar code otherwise; both are in crypto/sha256_detail.hpp and
// give bit-identical digests.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace rubin {

/// A 256-bit digest. Fixed-size array so it can live inline in messages.
using Digest = std::array<std::uint8_t, 32>;

std::string to_hex(const Digest& d);

class Sha256 {
 public:
  Sha256() noexcept { reset(); }

  /// Clears all state; the object can be reused for a new message.
  void reset() noexcept;

  /// Absorbs more input. May be called any number of times.
  void update(ByteView data) noexcept;

  /// Finalizes and returns the digest. The object must be reset() before
  /// being reused (finish() leaves it in a consumed state on purpose —
  /// accidentally appending to a finished hash is a bug we want loud).
  Digest finish() noexcept;

  /// One-shot convenience.
  static Digest hash(ByteView data) noexcept;

 private:
  /// Absorbs `n` whole 64-byte blocks with the dispatched kernel.
  void compress(const std::uint8_t* blocks, std::size_t n) noexcept;

  std::array<std::uint32_t, 8> h_{};
  std::array<std::uint8_t, 64> buf_{};
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
};

}  // namespace rubin
