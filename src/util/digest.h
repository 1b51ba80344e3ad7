// FNV-1a 64-bit digests — the fingerprint the replay story compares across
// runs (workload and trace-count digests fold ids and counters with
// fnv1a_mix), stable across platforms and dependency-free. Not
// cryptographic. The byte-range form walks one byte at a time (~1.5
// ns/B), so it is for tests and small folds; hot byte streams, such as
// shipped thread images and checkpoint frames, use crc32 (util/crc32.h).
#pragma once

#include <cstddef>
#include <cstdint>

namespace mfc {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// Digest of a byte range, chainable via `h` (pass a previous digest to
/// fold multiple ranges into one fingerprint).
inline std::uint64_t fnv1a(const void* data, std::size_t n,
                           std::uint64_t h = kFnvOffset) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// Folds one 64-bit word into a digest (itineraries, counters, ids).
inline std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) {
  return fnv1a(&v, sizeof v, h);
}

}  // namespace mfc
