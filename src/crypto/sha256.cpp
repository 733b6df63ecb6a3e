#include "crypto/sha256.hpp"

#include <cstring>

#include "crypto/sha256_detail.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace rubin {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

namespace sha256_detail {

void compress_scalar(std::uint32_t* state, const std::uint8_t* blocks,
                     std::size_t n) noexcept {
  for (; n > 0; --n, blocks += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<std::uint32_t>(blocks[4 * i]) << 24 |
             static_cast<std::uint32_t>(blocks[4 * i + 1]) << 16 |
             static_cast<std::uint32_t>(blocks[4 * i + 2]) << 8 |
             static_cast<std::uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kRoundConstants[static_cast<std::size_t>(i)] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g; g = f; f = e; e = d + t1;
      d = c; c = b; b = a; a = t1 + t2;
    }
    state[0] += a; state[1] += b; state[2] += c; state[3] += d;
    state[4] += e; state[5] += f; state[6] += g; state[7] += h;
  }
}

#if defined(__x86_64__) || defined(__i386__)

bool shani_available() noexcept {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0) return false;
  if ((c & bit_SSSE3) == 0 || (c & bit_SSE4_1) == 0) return false;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return false;
  return (b & bit_SHA) != 0;
}

// The SHA-NI instructions keep the state as two vectors, ABEF and CDGH
// (high lane first). sha256rnds2 runs two rounds from the low two words
// of its message+constant operand; sha256msg1/msg2 compute the message
// schedule four words at a time. Only this function is compiled for the
// SHA extensions; callers check shani_available() first.
__attribute__((target("sha,sse4.1,ssse3")))
void compress_shani(std::uint32_t* state, const std::uint8_t* blocks,
                    std::size_t n) noexcept {
  // Byte-swaps each 32-bit lane: the message words are big-endian.
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  const auto* k = reinterpret_cast<const __m128i*>(kRoundConstants.data());

  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);                 // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);               // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);       // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);            // CDGH

  for (; n > 0; --n, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // Schedule words 4g..4g+3 live in w[g & 3]: four groups at a time.
    __m128i w[4];
#pragma GCC unroll 4
    for (int g = 0; g < 4; ++g) {
      w[g] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * g)),
          bswap);
    }
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g >= 4) {
        // W[t..t+3] = msg2(msg1(W[t-16..], W[t-12..]) + W[t-7..t-4], W[t-4..])
        const __m128i w4 = w[(g - 1) & 3];
        __m128i x = _mm_sha256msg1_epu32(w[g & 3], w[(g - 3) & 3]);
        x = _mm_add_epi32(x, _mm_alignr_epi8(w4, w[(g - 2) & 3], 4));
        w[g & 3] = _mm_sha256msg2_epu32(x, w4);
      }
      const __m128i wk = _mm_add_epi32(w[g & 3], _mm_loadu_si128(k + g));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);                // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);               // DCHG
  abef = _mm_blend_epi16(tmp, cdgh, 0xF0);            // DCBA
  cdgh = _mm_alignr_epi8(cdgh, tmp, 8);               // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), abef);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), cdgh);
}

#else

bool shani_available() noexcept { return false; }

#endif

CompressFn compress() noexcept {
  static const CompressFn kernel =
#if defined(__x86_64__) || defined(__i386__)
      shani_available() ? compress_shani :
#endif
      compress_scalar;
  return kernel;
}

}  // namespace sha256_detail

std::string to_hex(const Digest& d) { return to_hex(ByteView(d)); }

void Sha256::reset() noexcept {
  h_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buf_len_ = 0;
  total_len_ = 0;
}

void Sha256::update(ByteView data) noexcept {
  total_len_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0) {
    const std::size_t take = std::min(data.size(), buf_.size() - buf_len_);
    std::memcpy(buf_.data() + buf_len_, data.data(), take);
    buf_len_ += take;
    off += take;
    if (buf_len_ == buf_.size()) {
      compress(buf_.data(), 1);
      buf_len_ = 0;
    }
  }
  // Every whole block in one kernel call: the state is loaded and stored
  // once per update(), not once per block.
  const std::size_t blocks = (data.size() - off) / 64;
  if (blocks > 0) {
    compress(data.data() + off, blocks);
    off += blocks * 64;
  }
  if (off < data.size()) {
    std::memcpy(buf_.data(), data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
}

Digest Sha256::finish() noexcept {
  const std::uint64_t bit_len = total_len_ * 8;
  // Padding: 0x80, zeros up to byte 56 of a block, then the 64-bit
  // big-endian bit length.
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > 56) {
    std::memset(buf_.data() + buf_len_, 0, buf_.size() - buf_len_);
    compress(buf_.data(), 1);
    buf_len_ = 0;
  }
  std::memset(buf_.data() + buf_len_, 0, 56 - buf_len_);
  for (std::size_t i = 0; i < 8; ++i) {
    buf_[56 + i] = static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
  }
  compress(buf_.data(), 1);
  buf_len_ = 0;

  Digest out;
  for (std::size_t i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(h_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(h_[i]);
  }
  return out;
}

Digest Sha256::hash(ByteView data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finish();
}

void Sha256::compress(const std::uint8_t* blocks, std::size_t n) noexcept {
  sha256_detail::compress()(h_.data(), blocks, n);
}

}  // namespace rubin
