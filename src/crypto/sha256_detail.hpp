// SHA-256 compression kernels behind Sha256, exposed for the differential
// test and the kernel microbench. Production code goes through Sha256,
// which calls compress(); nothing here is a switch.
//
// A kernel absorbs `n` whole 64-byte blocks starting at `blocks` (any
// alignment) into the eight state words `state` (a..h, native order).
#pragma once

#include <cstddef>
#include <cstdint>

namespace rubin::sha256_detail {

using CompressFn = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                            std::size_t n) noexcept;

/// Portable FIPS 180-4 compression: the reference and the fallback.
void compress_scalar(std::uint32_t* state, const std::uint8_t* blocks,
                     std::size_t n) noexcept;

/// True when the CPU has the SHA extensions plus SSSE3 and SSE4.1, i.e.
/// when compress_shani() may be called. Always false off x86.
bool shani_available() noexcept;

#if defined(__x86_64__) || defined(__i386__)
/// x86 SHA-NI compression. Call only when shani_available().
void compress_shani(std::uint32_t* state, const std::uint8_t* blocks,
                    std::size_t n) noexcept;
#endif

/// The kernel Sha256 uses: SHA-NI when available, else scalar. Chosen once
/// per process from cpuid.
CompressFn compress() noexcept;

}  // namespace rubin::sha256_detail
