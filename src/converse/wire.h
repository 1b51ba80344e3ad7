// Wire framing of the cross-process shm rings (converse/shmring.h).
//
// A frame is a fixed 56-byte Header followed by `payload_len` payload bytes.
// The sender hands the payload over as a scatter list (`Span`s), which the
// ring copy loop reads in place: no intermediate gather buffer, so
// `ImageManifest::wire_spans()` goes straight into the ring. The same
// header layout is shared by every process of a machine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace mfc::converse::wire {

/// Frame kinds. Eager frames carry a whole message; kChunk splits a message
/// too large for one shm-ring pass (offset/total_len sequence the pieces);
/// kProcDone/kStop are the shutdown handshake (child → PE0-process → all).
/// A kind never changes its number, so the retired 3–5 stay unused.
enum class Kind : std::uint32_t {
  kEager = 1,
  kChunk = 2,
  kProcDone = 6,
  kStop = 7,
  /// FT control plane, a revive: src_pe = requesting PE, dest_pe = the PE
  /// to revive; msg_id is unused. No payload. Machine-level — the
  /// delivering thread flips the target's dead/wipe flags, no handler.
  kFtCtl = 8,
};

/// POD frame header; identical layout in every process (all fixed-width
/// fields, no padding surprises: 4+4+4+4 + 8*5 = 56 bytes).
struct Header {
  std::uint32_t kind = 0;
  std::uint32_t handler = 0;
  std::int32_t src_pe = -1;
  std::int32_t dest_pe = -1;
  std::uint64_t payload_len = 0;  ///< bytes following this header
  std::uint64_t total_len = 0;    ///< whole-message bytes (kChunk)
  std::uint64_t offset = 0;       ///< this piece's offset (kChunk)
  std::uint64_t msg_id = 0;       ///< unused; keeps the 56-byte layout
  std::uint64_t trace_flow = 0;   ///< cross-process send→dispatch arrow
};
static_assert(sizeof(Header) == 56, "wire header layout must be fixed");

/// One scatter-gather piece of a payload.
struct Span {
  const void* data = nullptr;
  std::size_t len = 0;
};

inline std::size_t spans_total(const Span* spans, std::size_t n) {
  std::size_t t = 0;
  for (std::size_t i = 0; i < n; ++i) t += spans[i].len;
  return t;
}

/// Gathers spans into `dst` (the in-process send_spans path).
inline void spans_gather(char* dst, const Span* spans, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (spans[i].len != 0) std::memcpy(dst, spans[i].data, spans[i].len);
    dst += spans[i].len;
  }
}

}  // namespace mfc::converse::wire
