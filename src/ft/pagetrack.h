// Dirty-page tracking via an mprotect + SIGSEGV write barrier.
//
// The incremental checkpoint path needs to know which pages of a parked
// thread's isomalloc slots were written since the previous epoch, so a
// capture can reuse the previous epoch's gathered bytes for clean runs and
// re-copy only the touched ones. arm() write-protects every tracked range
// (PROT_READ); the first write to a page faults, the SIGSEGV handler marks
// the page's bit and restores PROT_READ|PROT_WRITE, and the write retries —
// one fault per touched page per epoch, no cost at all for clean pages.
//
// userfaultfd write-protect mode could do the same without taking signals;
// the probe (userfaultfd_wp_available) reports whether this kernel offers
// it, but the shipped barrier is the portable mprotect one — userfaultfd
// WP requires a reader thread and CAP_SYS_PTRACE-ish privileges on many
// configurations, which a library cannot assume.
//
// Rules:
//   - Ranges must be page-aligned (isomalloc slots are).
//   - bind_thread() must run once on every kernel thread that may touch a
//     protected range: faults on a protected ULT *stack* need an alternate
//     signal stack, or the kernel cannot even push the signal frame.
//   - untrack() before the underlying pages are unmapped, remapped or
//     evacuated. This is required for correctness: iso::Region::evacuate
//     installs guard markers and leaves the protection as it is, so an
//     armed range would come back read-only on install, its writes
//     faulting into a stale registry entry. (The remap fallback clears the
//     protection instead, but still leaves the stale entry.)
//
// The fault handler is lock-free: it scans a fixed array of atomically
// published range slots and touches only atomics and mprotect. Faults that
// match no armed range chain to the previously installed handler (or the
// default action), so genuine crashes still crash.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mfc::ft {

class DirtyTracker {
 public:
  struct Range;  // opaque outside pagetrack.cc (signal handler scans these)

  DirtyTracker() = default;
  ~DirtyTracker();
  DirtyTracker(const DirtyTracker&) = delete;
  DirtyTracker& operator=(const DirtyTracker&) = delete;

  static std::size_t page_bytes();

  /// Kernel support probe for the optional userfaultfd write-protect
  /// backend (reported in benchmarks/docs; the mprotect barrier is used
  /// regardless).
  static bool userfaultfd_wp_available();

  /// Installs this kernel thread's alternate signal stack. Idempotent.
  static void bind_thread();

  /// Registers a page-aligned range. No protection changes until arm().
  void track(void* base, std::size_t len);

  /// Deregisters the range starting at `base` (restores RW first if armed).
  void untrack(void* base);
  void untrack_all();
  bool tracking(const void* base) const;
  std::size_t tracked_ranges() const { return count_; }

  /// Write-protects every tracked range and clears all dirty bits.
  void arm();

  /// Restores RW on every tracked range; dirty bits remain readable until
  /// the next arm().
  void disarm();
  bool armed() const { return armed_; }

  /// Dirty-page count within [base, base+len) of a tracked range.
  std::size_t dirty_pages_in(const void* base, std::size_t len) const;
  bool any_dirty(const void* base, std::size_t len) const {
    return dirty_pages_in(base, len) != 0;
  }
  /// Dirty pages across all tracked ranges.
  std::size_t dirty_total() const;

 private:
  Range* find(const void* base) const;

  static constexpr std::size_t kMaxRanges = 1024;
  Range* ranges_[kMaxRanges] = {};
  std::size_t count_ = 0;
  bool armed_ = false;
};

}  // namespace mfc::ft
