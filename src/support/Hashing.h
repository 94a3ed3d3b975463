//===- Hashing.h - Hash combinators ------------------------------*- C++ -*-===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small hash combinators used for composite keys (path sequences,
/// (feature, label) pairs, path-contexts).
///
//===----------------------------------------------------------------------===//

#ifndef PIGEON_SUPPORT_HASHING_H
#define PIGEON_SUPPORT_HASHING_H

#include <cstddef>
#include <cstdint>

namespace pigeon {

/// Mixes \p Value into \p Seed (boost::hash_combine style with a 64-bit
/// avalanche).
inline uint64_t hashCombine(uint64_t Seed, uint64_t Value) {
  Value *= 0xff51afd7ed558ccdULL;
  Value ^= Value >> 33;
  Seed ^= Value + 0x9e3779b97f4a7c15ULL + (Seed << 6) + (Seed >> 2);
  return Seed;
}

/// FNV-1a over raw bytes. Unlike std::hash this is *stable*: the value is
/// pinned by the algorithm, not the standard library build, so it is safe
/// to persist — the stored open-addressed indexes of the mmap bundle format
/// (frozen interner / path table) are probed with exactly this hash by
/// whatever binary maps them later.
inline uint64_t stableHashBytes(const void *Data, size_t Len) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  uint64_t H = 0xcbf29ce484222325ULL;
  for (size_t I = 0; I < Len; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ULL;
  }
  return H;
}

/// Finalizer for 64-bit hashes (MurmurHash3 fmix64).
inline uint64_t hashFinalize(uint64_t H) {
  H ^= H >> 33;
  H *= 0xff51afd7ed558ccdULL;
  H ^= H >> 33;
  H *= 0xc4ceb9fe1a85ec53ULL;
  H ^= H >> 33;
  return H;
}

} // namespace pigeon

#endif // PIGEON_SUPPORT_HASHING_H
