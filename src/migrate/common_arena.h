// The "one address system-wide" execution arenas of the stack-copy and
// memory-alias techniques (paper §3.4.1, §3.4.3), one arena per technique.
//
// Each arena is a region of virtual address space reserved at an address
// every processor agrees on (in-process PEs share it trivially; forked
// processes inherit it). Both are reserved when the library loads, so they
// exist before any Machine::run forks. Exactly one thread may execute on an
// arena at a time — the paper's stated limitation for both techniques —
// enforced with a mutex held from switch-in to switch-out; a stack-copy and
// a memory-alias thread may therefore run at once on two PEs. A stack-copy
// arena never holds a memory-alias thread's file pages, so its switch-in is
// a memcpy and never a remap. The memory-alias arena's pages come from the
// process's stack pool (MemAliasPool, memalias_thread.h).
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>

namespace mfc::migrate {

class CommonStackArena {
 public:
  /// The process-wide arena of each technique. `kCapacity` is the maximum
  /// stack size a thread of that technique may request.
  static CommonStackArena& stack_copy();
  static CommonStackArena& mem_alias();
  static constexpr std::size_t kCapacity = 16 * 1024 * 1024;

  void* base() const { return base_; }
  /// Stacks grow downward from the arena top.
  char* top() const { return static_cast<char*>(base_) + kCapacity; }

  /// Serializes arena occupancy ("only one thread active per address
  /// space"). Locked by on_switch_in, released by on_switch_out.
  void lock() { mutex_.lock(); }
  void unlock() { mutex_.unlock(); }

  /// Which memory-alias thread's pages are currently mapped (guarded by the
  /// lock), so a thread that was also the previous occupant skips its remap.
  const void* occupant() const {
    return occupant_.load(std::memory_order_acquire);
  }
  void set_occupant(const void* who) {
    occupant_.store(who, std::memory_order_release);
  }
  /// Clears the occupancy record iff it still names `who`. For paths that do
  /// not hold the arena lock — destructors and pack() run on whichever PE
  /// owns the thread object, possibly concurrent with another PE's
  /// switch-in — so the clear must be a lock-free compare-and-swap.
  void clear_occupant_if(const void* who) {
    const void* expected = who;
    occupant_.compare_exchange_strong(expected, nullptr,
                                      std::memory_order_acq_rel);
  }

  /// Maps `bytes` of `fd` from `offset` (a memory-alias thread's stack in
  /// the stack pool's file) so that they end at the arena top — the
  /// memory-alias switch-in (Figure 3), one mmap call.
  void map_fd(int fd, std::size_t offset, std::size_t bytes);

 private:
  CommonStackArena();
  ~CommonStackArena();

  void* base_ = nullptr;
  std::mutex mutex_;
  std::atomic<const void*> occupant_{nullptr};
};

}  // namespace mfc::migrate
