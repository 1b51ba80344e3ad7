// Thread image manifests — the one image type, for shipping and arrival.
//
// An ImageManifest describes a thread image: the metadata fields by value
// plus a list of {pointer, length} runs. On the sending side the runs
// reference the suspended thread's live memory: isomalloc runs already sit
// in page-aligned, self-describing slots at machine-wide-unique addresses,
// so they are referenced in place. Gathering a manifest into a wire buffer
// folds a streaming CRC-32C per run as it copies and touches the source
// memory exactly once. MigratableThread::pack(), the checkpoint encoder and
// the storm's zero-copy ship all gather manifests; the golden-vector test
// in tests/migrate_property_test.cc freezes the bytes.
//
// On the receiving side decode() parses those wire bytes in place: the
// decoded manifest's runs point into the caller's buffer, and
// MigratableThread::unpack() installs straight from them, so an arrived
// image is copied once, into the thread. decode() is bounds-checked: it
// returns a typed error and never crashes on bad bytes, and it allocates
// nothing a length word asks for (only entries whose bytes are present).
//
// An image carries only live bytes, and every technique's manifest
// borrows them in place:
//   - stack-copy: the saved-stack buffer, the bytes from the saved stack
//     pointer to the arena top;
//   - memory-alias: the same span of the thread's slot in the stack pool's
//     window (memalias_thread.h);
//   - isomalloc: the stack slot run from the saved stack pointer to its top,
//     then each heap arena from its slot base through its extent
//     (iso/heap.h).
// The stack-copy and memory-alias borrows stay valid until the thread next
// runs, migrates or dies. The destination stands in for the bytes no run
// carries with dead ones: an isomalloc install's zero-fill pages, or a
// pool slot's bytes below the stack pointer.
//
// decode() checks what unpack relies on, and returns kBadShape or kBadSlot
// where unpack would abort or resume a thread outside its bytes:
//   - a stack-copy or memory-alias stack run fits its capacity word, no
//     more than a common arena (so a hostile capacity never sizes a pool
//     slot); its arena base is this process's arena for the technique, and
//     its saved stack pointer is the run's first byte there; a
//     memory-alias capacity is a whole number of pages;
//   - an isomalloc image's slot ids lie in the running region's geometry
//     (so a hostile id never reaches Region::install), and each run fits
//     the slot run it lands in. Its saved stack pointer, and each heap
//     run's arena header, are checked only at unpack (an MFC_CHECK there),
//     against the installed slots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "iso/region.h"
#include "pup/pup.h"

namespace mfc::migrate {

enum class Technique : std::uint8_t;

/// Typed decode failures, shared by the image decoder and the checkpoint
/// frame codec. Every corruption a wire, a buddy store or a file can hand
/// over maps to one of these; neither decoder crashes on hostile bytes.
enum class CodecError {
  kOk = 0,
  kTruncated,      ///< the bytes end inside a field or the frame header
  kBadMagic,       ///< not a checkpoint frame at all
  kBadVersion,     ///< framed by an incompatible codec revision
  kBadCrc,         ///< payload bytes fail the stored CRC-32
  kOverrun,        ///< a count or length word claims more bytes than remain
  kTrailingBytes,  ///< bytes left over after the last field
  kBadTechnique,   ///< technique byte names no migration technique
  kBadShape,       ///< the runs do not fit the technique's image layout:
                   ///< a run longer than its capacity or slot run, or a
                   ///< stack that is not this process's live arena stack
  kBadSlot,        ///< an isomalloc slot id names no slot run of the region
};
const char* to_string(CodecError e);

/// One run: `len` bytes at `data` (the thread's memory when shipping, the
/// arrived bytes after decode()).
struct IoRun {
  const char* data = nullptr;
  std::size_t len = 0;
};

class ImageManifest {
 public:
  // Image metadata, in wire order.
  Technique technique{};
  std::uint64_t thread_id = 0;
  double accumulated_load = 0.0;
  std::uint64_t saved_sp = 0;  ///< virtual address; valid on the destination
                               ///< because the stack address is preserved

  // Isomalloc payload: slot ids plus each slot run's live bytes.
  iso::SlotId stack_slot;
  std::vector<iso::SlotId> heap_slots;
  /// isomalloc: the stack run first (top-anchored in its slot run), then
  /// one run per heap slot run (base-anchored: the arena's extent)
  std::vector<IoRun> runs;

  // Stack-copy / memory-alias payload.
  IoRun stack_run;  ///< live stack contents, saved_sp up to the arena top
  std::uint64_t stack_capacity = 0;
  std::uint64_t arena_base = 0;  ///< common execution address; must match on
                                 ///< the destination address space

  /// Parses an image's wire bytes in place into `*out`, whose runs then
  /// point into [data, data + size) and stay valid while those bytes do.
  /// Returns a typed error and never crashes: every count and length word
  /// is checked against the bytes that remain before anything is read or
  /// sized by it. With `consumed` null the image must fill the buffer
  /// exactly (else kTrailingBytes); otherwise the image may be followed by
  /// other bytes and *consumed receives its length — how a stream of
  /// images, like a checkpoint frame, is walked.
  static CodecError decode(const char* data, std::size_t size,
                           ImageManifest* out,
                           std::size_t* consumed = nullptr);
  static CodecError decode(const std::vector<char>& bytes,
                           ImageManifest* out);

  /// Serialized size. O(#fields + #runs) — no data is touched.
  std::size_t wire_size() const;

  /// Sum of run payload bytes (the figure the pack trace span reports).
  std::size_t payload_bytes() const;

  /// Drives a sizing or packing `p` over the wire encoding (decode() is
  /// its one reader).
  void pup_into(pup::Er& p) const;

  /// One-call gather into a fresh vector; `crc_out` receives the CRC-32C of
  /// the returned bytes when non-null.
  std::vector<char> to_wire(std::uint32_t* crc_out = nullptr) const;

  /// Scatter-gather view of the serialized stream: a span list whose
  /// concatenation is byte-identical to to_wire(), with run payloads
  /// referenced in place (no copy) and only the framing — metadata prefix,
  /// per-run length words, trailer — staged into `scratch`. Feeding the
  /// spans to send_spans() ships the image without gathering it first:
  /// its data pages are read exactly once, by the wire path. The spans
  /// stay valid while `scratch` and the image's source memory do.
  std::vector<IoRun> wire_spans(std::vector<char>* scratch) const;
};

}  // namespace mfc::migrate
