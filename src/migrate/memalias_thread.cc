#include "migrate/memalias_thread.h"

#define _GNU_SOURCE 1
#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "trace/flight.h"
#include "trace/hist.h"
#include "util/check.h"
#include "util/timer.h"

namespace mfc::migrate {

// ---- MemAliasPool -----------------------------------------------------------

MemAliasPool& MemAliasPool::instance() {
  // Never destroyed: threads deleted by late static destructors and the
  // fork handlers may still reach it; the file and window die with the
  // process.
  static MemAliasPool* const pool = new MemAliasPool;
  return *pool;
}

MemAliasPool::MemAliasPool() {
  // Fork holds the lock across the fork, so the child's copy of the books
  // is consistent; the child marks the pool inherited and forgets which
  // thread's pages the arena maps (they are the parent's file).
  pthread_atfork([] { instance().mutex_.lock(); },
                 [] { instance().mutex_.unlock(); },
                 [] {
                   MemAliasPool& pool = instance();
                   pool.inherited_ = pool.fd_ >= 0;
                   pool.mutex_.unlock();
                   CommonStackArena::mem_alias().set_occupant(nullptr);
                 });
}

MemAliasPool::Slot MemAliasPool::acquire(std::size_t stack_bytes) {
  MFC_CHECK(stack_bytes <= kSlotBytes);
  std::lock_guard<std::mutex> lock(mutex_);
  if (inherited_) restart_locked();
  if (free_.empty()) grow_locked();
  Slot slot;
  slot.index = free_.back();
  free_.pop_back();
  slot.generation = generation_;
  used_[slot.index] = true;
  high_water_ = std::max(high_water_, ++in_use_);
  return slot;
}

void MemAliasPool::release(Slot slot) {
  std::lock_guard<std::mutex> lock(mutex_);
  // A slot of the parent's pool, inherited through fork, is not this
  // process's to free.
  if (inherited_ || slot.generation != generation_) return;
  MFC_CHECK_MSG(slot.index < file_slots_ && used_[slot.index],
                "double release of a memory-alias stack slot");
  used_[slot.index] = false;
  free_.push_back(slot.index);
  --in_use_;
}

void MemAliasPool::check_owned(Slot slot) const {
  MFC_CHECK_MSG(!inherited_ && slot.generation == generation_,
                "memory-alias thread inherited through fork: its stack "
                "stays in the parent's pool");
}

char* MemAliasPool::top(Slot slot) const {
  check_owned(slot);
  return window_ + (std::size_t{slot.index} + 1) * kSlotBytes;
}

std::size_t MemAliasPool::stack_offset(Slot slot, std::size_t bytes) const {
  check_owned(slot);
  return (std::size_t{slot.index} + 1) * kSlotBytes - bytes;
}

MemAliasPool::Stats MemAliasPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {in_use_, high_water_, file_slots_};
}

void MemAliasPool::grow_locked() {
  if (window_ == nullptr) {
    void* w = mmap(nullptr, kWindowSlots * kSlotBytes, PROT_NONE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    MFC_CHECK_MSG(w != MAP_FAILED, "memory-alias window reservation failed");
    window_ = static_cast<char*>(w);
  }
  if (fd_ < 0) {
    fd_ = memfd_create("mfc-memalias-stacks", MFD_CLOEXEC);
    MFC_CHECK_MSG(fd_ >= 0, "memfd_create failed (memory-alias stacks need "
                            "Linux >= 3.17; see Table 1)");
  }
  MFC_CHECK_MSG(file_slots_ + kGrowSlots <= kWindowSlots,
                "memory-alias stack pool exhausted (more stacks resident "
                "at once than MemAliasPool::kWindowSlots)");
  const std::size_t old_bytes = file_slots_ * kSlotBytes;
  const std::size_t grow_bytes = kGrowSlots * kSlotBytes;
  MFC_CHECK(ftruncate(fd_, static_cast<off_t>(old_bytes + grow_bytes)) == 0);
  void* at = window_ + old_bytes;
  void* r = mmap(at, grow_bytes, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_FIXED,
                 fd_, static_cast<off_t>(old_bytes));
  MFC_CHECK_MSG(r == at, "memory-alias window map failed");
  const std::uint32_t first = file_slots_;
  file_slots_ += kGrowSlots;
  used_.resize(file_slots_);
  for (std::uint32_t i = file_slots_; i-- > first;) free_.push_back(i);
  metrics::bump(metrics::Counter::kMemAliasPoolGrows);
}

void MemAliasPool::restart_locked() {
  // The inherited file and its mapping stay the parent's: drop this
  // process's view of both and begin an empty pool of its own.
  close(fd_);
  fd_ = -1;
  void* r = mmap(window_, file_slots_ * kSlotBytes, PROT_NONE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_FIXED, -1,
                 0);
  MFC_CHECK_MSG(r == window_, "memory-alias window reset failed");
  file_slots_ = in_use_ = high_water_ = 0;
  free_.clear();
  used_.clear();
  ++generation_;
  inherited_ = false;
}

// ---- MemAliasThread ---------------------------------------------------------

MemAliasThread::MemAliasThread(Fn fn, std::size_t stack_bytes)
    : MigratableThread(std::move(fn)), stack_bytes_(stack_bytes) {
  MFC_CHECK(stack_bytes_ <= CommonStackArena::kCapacity);
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  stack_bytes_ = (stack_bytes_ + page - 1) & ~(page - 1);
  slot_ = MemAliasPool::instance().acquire(stack_bytes_);
}

MemAliasThread::MemAliasThread(const ImageManifest& image)
    : MigratableThread(Fn{}),
      stack_bytes_(image.stack_capacity),
      started_(true) {
  // ImageManifest::decode has checked this shape for images from the wire.
  // The slot holds the whole capacity, so the thread can grow its stack;
  // the live run lands at its top, and the bytes below are dead.
  const std::size_t n = image.stack_run.len;
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  MFC_CHECK_MSG(n <= stack_bytes_ &&
                    stack_bytes_ <= CommonStackArena::kCapacity &&
                    stack_bytes_ % page == 0,
                "corrupt thread image: memory-alias stack size");
  MemAliasPool& pool = MemAliasPool::instance();
  slot_ = pool.acquire(stack_bytes_);
  std::memcpy(pool.top(*slot_) - n, image.stack_run.data, n);
}

MemAliasThread::~MemAliasThread() {
  // Clear stale occupancy: a later thread allocated at this address must
  // not be mistaken for us and skip mapping its own pages.
  CommonStackArena::mem_alias().clear_occupant_if(this);
  if (slot_) MemAliasPool::instance().release(*slot_);
}

void MemAliasThread::on_switch_in() {
  CommonStackArena& arena = CommonStackArena::mem_alias();
  arena.lock();
  // The switch itself: one mmap aliases this thread's pages over the common
  // stack address. No data is copied — the virtual memory hardware does the
  // work (Figure 3). When this thread was also the previous occupant, its
  // pages are still mapped and even the mmap is skipped.
  if (!started_ || arena.occupant() != this) {
    const MemAliasPool& pool = MemAliasPool::instance();
    arena.map_fd(pool.fd(), pool.stack_offset(*slot_, stack_bytes_),
                 stack_bytes_);
    arena.set_occupant(this);
  }
  if (!started_) {
    init_context(arena.top() - stack_bytes_, stack_bytes_);
    started_ = true;
  }
}

void MemAliasThread::on_switch_out() {
  // Stack writes went straight to the slot's pages (MAP_SHARED); nothing to
  // copy. The alias stays mapped until the next occupant maps its own slot.
  CommonStackArena::mem_alias().unlock();
}

ImageManifest MemAliasThread::pack_manifest(bool count) {
  MFC_CHECK_MSG(state() == ult::State::kSuspended,
                "pack_manifest() requires a suspended thread");
  const std::uint64_t t0 = count && hist::on() ? rdtsc() : 0;
  ImageManifest m;
  m.technique = Technique::kMemAlias;
  m.thread_id = id();
  m.accumulated_load = accumulated_load();
  m.saved_sp = reinterpret_cast<std::uint64_t>(saved_sp());
  m.stack_capacity = stack_bytes_;
  m.arena_base =
      reinterpret_cast<std::uint64_t>(CommonStackArena::mem_alias().base());
  // The live stack runs from the saved stack pointer to the arena top. The
  // pool's window shows the same bytes at the top of the thread's slot for
  // as long as the thread holds it, so the manifest borrows them in place;
  // the thread stays resumable, which checkpoint captures need.
  char* const arena_top = CommonStackArena::mem_alias().top();
  auto* sp = static_cast<char*>(saved_sp());
  MFC_CHECK(sp > arena_top - stack_bytes_ && sp <= arena_top);
  const auto live = static_cast<std::size_t>(arena_top - sp);
  m.stack_run = {MemAliasPool::instance().top(*slot_) - live, live};
  if (count) {
    trace::emit_flight(trace::Ev::kMigratePackBegin, m.thread_id, 0, 0, -1,
                       trace_tag(Technique::kMemAlias));
    metrics::bump(pack_counter(Technique::kMemAlias));
    if (t0 != 0) hist::record(hist::Hist::kMigratePack, rdtsc() - t0);
    trace::emit_flight(trace::Ev::kMigratePackEnd, m.thread_id, 0,
                       static_cast<std::uint32_t>(m.stack_run.len), -1,
                       trace_tag(Technique::kMemAlias));
  }
  return m;
}

void MemAliasThread::complete_pack() {
  // The shipped bytes are now the only copy that matters: return the slot
  // and drop occupancy, leaving a husk that must be deleted.
  CommonStackArena::mem_alias().clear_occupant_if(this);
  MemAliasPool::instance().release(*slot_);
  slot_.reset();
}

MemAliasThread* MemAliasThread::from_image(const ImageManifest& image) {
  MFC_CHECK_MSG(image.arena_base == reinterpret_cast<std::uint64_t>(
                                        CommonStackArena::mem_alias().base()),
                "memory-alias migration requires the same common stack "
                "address on both processors");
  MFC_CHECK_MSG(image.saved_sp == reinterpret_cast<std::uint64_t>(
                                      CommonStackArena::mem_alias().top()) -
                                      image.stack_run.len,
                "corrupt thread image: saved stack pointer outside the "
                "shipped stack");
  auto* t = new MemAliasThread(image);
  t->set_saved_sp(reinterpret_cast<void*>(image.saved_sp));
  t->restore_identity(image.thread_id, image.accumulated_load);
  return t;
}

}  // namespace mfc::migrate
