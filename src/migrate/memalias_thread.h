// Memory-aliasing stacks (paper §3.4.3, Figure 3).
//
// Each thread's stack pages live in physical memory of their own; switching
// a thread in maps those pages over the common stack address with one mmap
// call — "simulating the copy using the virtual memory hardware". Total
// virtual-address cost at the execution address is a single stack, which is
// what makes the technique viable on 32-bit machines like Blue Gene/L; the
// price is an mmap call per switch-in plus the soft faults of re-touching
// the mapped pages (the ~4 µs plateau in Figure 9).
//
// The pages come from the process's stack pool (MemAliasPool below): one
// memfd cut into slots that threads reuse, plus a window that keeps the
// whole file mapped read/write. A thread's stack is the top `stack_bytes`
// of its slot. Through the window, a pack borrows the live stack in place:
// the bytes from the saved stack pointer to the top, as stack-copy and
// isomalloc stacks ship. An arrival takes a slot for the whole capacity
// and is one memcpy of that run to the slot's top; the dead bytes below it
// are whatever the slot's earlier tenants left, which the thread writes
// before it reads. The switch-in maps the slot's file range. No migration
// creates, sizes, reads or writes a file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "migrate/common_arena.h"
#include "migrate/migratable.h"

namespace mfc::migrate {

/// The process's memory-alias stack pool.
///
/// Slots sit kSlotBytes apart in the file and in the window, so a stack of
/// any size up to CommonStackArena::kCapacity fits any slot. The file is
/// sparse: a slot holds pages only for the deepest stack any of its tenants
/// had. A slot is handed out as its last tenant left it: no byte below a
/// thread's saved stack pointer leaves the process, so nothing is zeroed.
///
/// Bound (no hoarding): the file holds at most the high-water count of
/// memory-alias stacks resident at once in this process, rounded up to
/// kGrowSlots. A departing thread returns its slot, and a new or arriving
/// thread takes a returned slot before the file grows.
///
/// The window's address range is reserved once (kWindowSlots slots), so
/// growing the pool never moves bytes a manifest has borrowed. Running out
/// of it aborts, like isomalloc strip exhaustion.
///
/// Fork: a child that inherited the pool starts a file of its own at its
/// first acquire, so it never writes through the parent's file. Threads it
/// inherited cannot run or pack in it, and deleting one frees nothing.
class MemAliasPool {
 public:
  static constexpr std::size_t kSlotBytes = CommonStackArena::kCapacity;
  static constexpr std::uint32_t kGrowSlots = 16;
  static constexpr std::uint32_t kWindowSlots = 1024;

  /// One slot, tagged with the pool generation that handed it out (a fork
  /// child's own pool is a new generation).
  struct Slot {
    std::uint32_t index = 0;
    std::uint32_t generation = 0;
  };

  struct Stats {
    std::uint32_t in_use = 0;
    std::uint32_t high_water = 0;  ///< most slots in use at once
    std::uint32_t file_slots = 0;  ///< slots the file holds
    /// The no-hoarding bound above.
    bool bounded() const {
      return file_slots <=
             (high_water + kGrowSlots - 1) / kGrowSlots * kGrowSlots;
    }
  };

  static MemAliasPool& instance();

  /// Takes a slot for a stack of `stack_bytes` (a page multiple), growing
  /// the file by kGrowSlots when none is free.
  Slot acquire(std::size_t stack_bytes);
  void release(Slot slot);

  /// The top of the slot's stack in the window; the stack is the bytes
  /// just below it.
  char* top(Slot slot) const;
  /// The pool file and the offset of the slot's top `bytes` in it, which
  /// the switch-in maps over the common stack address.
  int fd() const { return fd_; }
  std::size_t stack_offset(Slot slot, std::size_t bytes) const;

  Stats stats() const;

 private:
  MemAliasPool();
  void check_owned(Slot slot) const;
  void grow_locked();
  void restart_locked();

  mutable std::mutex mutex_;  // guards everything below but window_ bytes
  int fd_ = -1;
  char* window_ = nullptr;
  bool inherited_ = false;  ///< set in a fork child until it restarts
  std::uint32_t generation_ = 0;
  std::uint32_t file_slots_ = 0;
  std::uint32_t in_use_ = 0;
  std::uint32_t high_water_ = 0;
  std::vector<std::uint32_t> free_;  ///< LIFO: the warmest slot first
  std::vector<bool> used_;           ///< per file slot
};

class MemAliasThread final : public MigratableThread {
 public:
  explicit MemAliasThread(Fn fn, std::size_t stack_bytes = kDefaultStackBytes);
  ~MemAliasThread() override;

  static constexpr std::size_t kDefaultStackBytes = 64 * 1024;

  Technique technique() const override { return Technique::kMemAlias; }
  ImageManifest pack_manifest(bool count = false) override;
  void complete_pack() override;
  static MemAliasThread* from_image(const ImageManifest& image);

  void on_switch_in() override;
  void on_switch_out() override;

 private:
  explicit MemAliasThread(const ImageManifest& image);  // unpack path

  std::size_t stack_bytes_;
  bool started_ = false;
  std::optional<MemAliasPool::Slot> slot_;  ///< empty once packed away
};

}  // namespace mfc::migrate
