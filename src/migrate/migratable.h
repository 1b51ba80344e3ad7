// Migratable threads — the paper's §3.4.
//
// A MigratableThread can be packed into image bytes while suspended,
// shipped to another PE (or another address space), and unpacked there to
// continue from the exact point it suspended. All three techniques share
// the same approach: "guarantee that the stack will have exactly the same
// address on the new processor", so no pointer in the stack or heap is ever
// fixed up.
#pragma once

#include <cstdint>
#include <vector>

#include "iso/region.h"
#include "migrate/manifest.h"
#include "pup/pup.h"
#include "trace/metrics.h"
#include "trace/trace.h"
#include "ult/thread.h"

namespace mfc::migrate {

enum class Technique : std::uint8_t {
  kStackCopy = 0,  ///< §3.4.1 — one system-wide stack address, copied in/out
  kIsomalloc = 1,  ///< §3.4.2 — machine-wide-unique stack & heap slots
  kMemAlias = 2,   ///< §3.4.3 — per-thread pages mmap'ed over a common address
};

const char* to_string(Technique t);

/// Technique tag carried in trace records (0 is reserved for "none").
inline std::uint8_t trace_tag(Technique t) {
  return static_cast<std::uint8_t>(t) + 1;
}
/// Per-technique pack/unpack counters (metrics enum order matches
/// Technique order, so the offset arithmetic is exact).
inline metrics::Counter pack_counter(Technique t) {
  return static_cast<metrics::Counter>(
      static_cast<int>(metrics::Counter::kPackStackCopy) +
      static_cast<int>(t));
}
inline metrics::Counter unpack_counter(Technique t) {
  return static_cast<metrics::Counter>(
      static_cast<int>(metrics::Counter::kUnpackStackCopy) +
      static_cast<int>(t));
}

class MigratableThread : public ult::Thread {
 public:
  virtual Technique technique() const = 0;

  /// Packs the thread for shipment and returns its wire bytes (the format
  /// ImageManifest::decode reads): pack_manifest(/*count=*/true).to_wire(),
  /// then complete_pack(). Requires state() == kSuspended (a thread cannot
  /// pack itself while running).
  /// Consumes the thread's local memory: after pack() the object is a husk
  /// that must be deleted, not resumed.
  std::vector<char> pack();

  /// Zero-copy pack: returns an iovec manifest referencing the thread's
  /// live memory in place (isomalloc slots, the stack-copy saved-stack
  /// buffer, the memory-alias pool slot); nothing is copied or read through
  /// a system call. Non-destructive — the thread stays suspended and
  /// resumable, which is what checkpoint captures want. The manifest is
  /// valid only until the thread next runs, migrates, or dies.
  /// With `count` true the migration pack trace span, pack histogram and
  /// per-technique pack counter are emitted (a migration, not a capture).
  virtual ImageManifest pack_manifest(bool count = false) = 0;

  /// Destructive epilogue of a migration: drops the local memory now that
  /// the gathered bytes are the only copy (isomalloc evacuates its slots in
  /// one call per slot run; memory-alias returns its pool slot). After this
  /// the object is a husk that must be deleted. Not called for
  /// checkpoint-style captures.
  virtual void complete_pack() = 0;

  /// Rebuilds a thread on the destination from an image, typically one
  /// ImageManifest::decode() parsed in place: the technique copies each
  /// run straight to its home (isomalloc slots, installed in one call per
  /// slot run; the saved-stack buffer; a free memory-alias pool slot), the
  /// only copy arrival makes. The runs must stay valid for the call.
  /// `dest_pe` is the arriving PE (used only for bookkeeping; addresses
  /// come from the image).
  static MigratableThread* unpack(const ImageManifest& image, int dest_pe);

 protected:
  using ult::Thread::Thread;
};

}  // namespace mfc::migrate
