// FNV-1a digesting for determinism oracles.
//
// The parity gates (tests/rebalance_fuzz_test's sharded-vs-serial replay
// oracle, tests/migration_parity_test's pinned routing-change digest) hash
// the exact (event index, sorted match ids) assignment and compare across
// engine configurations; they are only a shared oracle if every gate uses
// bit-identical hashing, so the function lives here instead of being
// re-derived per binary.
#pragma once

#include <cstddef>
#include <cstdint>

namespace accl {

inline constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ull;

/// Folds the 8 bytes of `x` (little-endian order) into FNV-1a state `h`.
inline uint64_t Fnv1a(uint64_t h, uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xFF;
    h *= 1099511628211ull;
  }
  return h;
}

/// Folds `n` raw bytes into FNV-1a state `h`. The durability layer's
/// record/checkpoint checksums chain this (payload first, trailing fields
/// after), so the state-in/state-out form matters.
inline uint64_t Fnv1aBytes(uint64_t h, const void* p, size_t n) {
  const auto* b = static_cast<const uint8_t*>(p);
  for (size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Folds a 64-bit FNV state to the 32 bits stored in on-disk checksums.
inline uint32_t FnvFold32(uint64_t h) {
  return static_cast<uint32_t>(h ^ (h >> 32));
}

}  // namespace accl
