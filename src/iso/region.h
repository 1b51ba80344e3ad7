// Isomalloc region — the paper's §3.4.2 machine-wide virtual address space
// partition (Figure 2).
//
// At startup all processors agree on one large region of virtual address
// space, divided into per-PE strips of fixed-size slots. A PE hands local
// threads slots from its own strip, so every slot address is unique across
// the whole machine. A migrating thread keeps its slot addresses for life:
// on arrival the destination maps the *same* virtual addresses and copies
// the bytes in — no pointer inside the thread's stack or heap ever needs
// fixing up.
//
// Physical memory is only committed for locally-resident slots, exactly the
// paper's use of mmap to keep the (potentially enormous) reservation cheap.
// A slot this process has not mapped, or has released, stays PROT_NONE. A
// slot whose thread departed keeps its R/W mapping but loses its pages
// behind madvise guard markers (Linux >= 6.13), so touching it still raises
// SIGSEGV. Guard markers take the mmap lock only for reading, where a remap
// would stall every other PE of the process on it. Where the kernel rejects
// them, evacuation remaps the slot PROT_NONE instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "pup/pup.h"

namespace mfc::iso {

/// Identifies one slot: the strip (birth PE) it was allocated from and its
/// index within that strip. Identity — and therefore address — never changes,
/// even after the owning thread migrates.
struct SlotId {
  std::int32_t pe = -1;
  std::uint32_t index = 0;
  std::uint32_t count = 1;  ///< number of contiguous slots (multi-slot blocks)

  bool valid() const { return pe >= 0; }
  friend bool operator==(const SlotId&, const SlotId&) = default;

  void pup(pup::Er& p) { p | pe | index | count; }
};

class Region {
 public:
  struct Config {
    int npes = 1;
    std::size_t slot_bytes = 256 * 1024;  ///< must be page-multiple
    std::uint32_t slots_per_pe = 1024;
  };

  /// Reserves the machine-wide region (PROT_NONE). Must run before any PE
  /// starts, and — for the fork transport — before fork, so every address
  /// space inherits the same reservation.
  static void init(const Config& config);
  static void shutdown();
  static bool initialized();
  static Region& instance();

  /// Acquires `count` contiguous free slots from `pe`'s strip and maps them
  /// read/write. Aborts if the strip is exhausted (address space is a hard
  /// resource; see the paper's 32-bit discussion).
  SlotId acquire(int pe, std::uint32_t count = 1);

  /// Tries to acquire; returns an invalid SlotId instead of aborting.
  SlotId try_acquire(int pe, std::uint32_t count = 1);

  /// Returns the slots to the strip free pool and drops their pages.
  void release(SlotId id);

  /// Virtual address of the slot — identical on every PE by construction.
  void* slot_base(SlotId id) const;
  std::size_t slot_span(SlotId id) const { return id.count * config_.slot_bytes; }

  /// Migration: drop the local pages of a thread's slots (after their
  /// contents were packed); any later touch faults. Adjacent slots of one
  /// strip are coalesced into runs, and each run costs one page-table call:
  /// a guard-marker madvise, or the remap fallback's mmap. Aborts on a slot
  /// that is not locally resident (double evacuate).
  void evacuate(std::span<const SlotId> ids);
  void evacuate(SlotId id) { evacuate({&id, 1}); }
  /// Migration: make the same addresses read/write again, zero-filled
  /// (before unpacking), one page-table call per run as in evacuate().
  /// Aborts on a slot that is ALREADY resident — the guard that catches a
  /// checkpoint image restored over a live thread occupying the same slots.
  void install(std::span<const SlotId> ids);
  void install(SlotId id) { install({&id, 1}); }

  /// True when evacuate()/install() use guard markers, false on the remap
  /// fallback (probed once per region).
  bool guard_markers() const { return guard_markers_; }

  /// True when `p` points inside the isomalloc reservation — used by the
  /// malloc-interposition layer to route free() correctly.
  bool contains(const void* p) const;

  /// Cross-process slot leasing. On a multi-process machine every process
  /// holds a copy-on-write copy of the strip bitmaps, so a slot's `used`
  /// bits are only meaningful in the process that acquired it (its birth
  /// process — the one hosting the strip's PE). The machine layer installs
  /// a lease after forking: release() then evacuates the local pages and,
  /// when the strip's PE is not local, forwards the free order instead of
  /// touching the (stale) local bitmap. The birth process applies it via
  /// free_remote(). Single-process machines never install a lease and keep
  /// the fully-local path.
  static void set_lease(std::function<bool(int)> owner_local,
                        std::function<void(SlotId)> forward);
  static void clear_lease();

  /// Applies a forwarded free in the slot's birth process: clears the
  /// `used` bits and nothing else — the pages here were already evacuated
  /// when the owning thread departed, and the releasing process dropped its
  /// own mapping before forwarding.
  void free_remote(SlotId id);

  /// Re-asserts ownership of `id` in the slot's birth process. A respawned
  /// process boots with the zygote's boot-time bitmap copy, which misses
  /// every acquire made since; recovery replays the leases of restored
  /// threads through this so later forwarded frees find the `used` bits
  /// set. Idempotent — already-set bits are left alone (survivor strips).
  /// Pages and residency are untouched.
  void reassert(SlotId id);

  const Config& config() const { return config_; }
  void* base() const { return base_; }
  std::size_t reservation_bytes() const { return total_bytes_; }
  std::uint32_t used_slots(int pe) const;
  std::uint32_t free_slots(int pe) const;

 private:
  explicit Region(const Config& config);
  ~Region();
  Region(const Region&) = delete;
  Region& operator=(const Region&) = delete;

  struct Strip {
    std::mutex mutex;
    std::vector<bool> used;  ///< per-slot occupancy bitmap
    /// Per-slot paging state: true while the slot's pages are mapped R/W
    /// here. Distinct from `used` — a packed thread's slots stay *used*
    /// (identity reserved machine-wide) but not *resident* (pages dropped).
    std::vector<bool> resident;
    /// Per-slot VMA state in this process: true while the slot's range is
    /// mapped R/W here, resident or evacuated behind guard markers. False
    /// for the PROT_NONE reservation, which is what a remote arrival or a
    /// zygote-respawned process finds. fork() copies it with the VMAs.
    std::vector<bool> mapped;
    std::uint32_t used_count = 0;
    std::uint32_t search_hint = 0;  ///< next-fit start for contiguous scans
  };

  /// Clears residency and drops the pages of `ids`, keeping the R/W mapping
  /// behind guard markers or remapping PROT_NONE, one call per run of
  /// adjacent slots. Returns the number of calls.
  std::size_t drop(std::span<const SlotId> ids, bool keep_mapping);

  /// Raw page-table operations (no residency bookkeeping): mmap the slot
  /// span R/W or back to PROT_NONE, or madvise a guard-marker edit over it.
  void map_rw(SlotId id);
  void map_none(SlotId id);
  void advise(SlotId id, int advice);

  Config config_;
  bool guard_markers_ = false;
  void* base_ = nullptr;
  std::size_t total_bytes_ = 0;
  std::vector<Strip> strips_;
};

}  // namespace mfc::iso
