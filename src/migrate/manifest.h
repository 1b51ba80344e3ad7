// Scatter-gather image manifests — the one way a thread image is produced.
//
// An ImageManifest describes a suspended thread's image: the metadata fields
// by value plus a list of {pointer, length} runs referencing the thread's
// live memory. Isomalloc runs already sit in page-aligned, self-describing
// slots at machine-wide-unique addresses, so they are referenced in place.
// Gathering a manifest into a wire buffer produces the stream that
// ThreadImage::pup decodes (ThreadImage is the owning type unpack() takes),
// folds a streaming CRC-32C per run as it copies, and touches the source
// memory exactly once. MigratableThread::pack(), the checkpoint encoder and
// the storm's zero-copy ship all gather manifests; the golden-vector test in
// tests/migrate_property_test.cc freezes the bytes.
//
// Memory-alias threads have no stable source to reference (their memfd
// pages are only mapped while running), so their manifests stage the stack
// bytes in manifest-owned storage; stack-copy manifests borrow the saved-
// stack buffer, which is valid until the thread next runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "iso/region.h"
#include "pup/pup.h"

namespace mfc::migrate {

enum class Technique : std::uint8_t;

/// One gather run: `len` bytes read from `data` when shipping.
struct IoRun {
  const char* data = nullptr;
  std::size_t len = 0;
};

class ImageManifest {
 public:
  // Image metadata, field-for-field the same as ThreadImage (and emitted in
  // the order ThreadImage::pup reads it).
  Technique technique{};
  std::uint64_t thread_id = 0;
  double accumulated_load = 0.0;
  std::uint64_t saved_sp = 0;

  iso::SlotId stack_slot;
  std::vector<iso::SlotId> heap_slots;
  std::vector<IoRun> runs;  ///< stands in for ThreadImage::slot_data
                            ///< (stack run first, heap runs after)
  IoRun stack_run;          ///< stands in for ThreadImage::stack_bytes

  std::uint64_t stack_capacity = 0;
  std::uint64_t arena_base = 0;

  /// Owned staging for techniques without a stable source (memory-alias
  /// preads its backing file here; runs/stack_run may point into it).
  std::vector<char> staged;

  /// Serialized size (identical to pup::packed_size of the equivalent
  /// ThreadImage). O(#fields + #runs) — no data is touched.
  std::size_t wire_size() const;

  /// Sum of run payload bytes (the figure the pack trace span reports).
  std::size_t payload_bytes() const;

  /// Drives `p` exactly as ThreadImage::pup would for the decoded image.
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
