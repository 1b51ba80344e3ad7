#include "migrate/memalias_thread.h"

#define _GNU_SOURCE 1
#include <sys/mman.h>
#include <unistd.h>

#include <cstring>

#include "trace/flight.h"
#include "trace/hist.h"
#include "util/check.h"
#include "util/timer.h"

namespace mfc::migrate {

MemAliasThread::MemAliasThread(Fn fn, std::size_t stack_bytes)
    : MigratableThread(std::move(fn)), stack_bytes_(stack_bytes) {
  MFC_CHECK(stack_bytes_ <= CommonStackArena::kCapacity);
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  stack_bytes_ = (stack_bytes_ + page - 1) & ~(page - 1);
  create_backing();
}

MemAliasThread::MemAliasThread(const ImageManifest& image)
    : MigratableThread(Fn{}),
      stack_bytes_(image.stack_capacity),
      started_(true) {
  // Write the shipped stack contents into the backing pages.
  const std::size_t n = image.stack_run.len;
  MFC_CHECK_MSG(n == stack_bytes_ && n <= CommonStackArena::kCapacity,
                "corrupt thread image: memory-alias stack size");
  create_backing();
  ssize_t w = pwrite(backing_fd_, image.stack_run.data, n, 0);
  MFC_CHECK(w == static_cast<ssize_t>(n));
}

void MemAliasThread::create_backing() {
  backing_fd_ = memfd_create("mfc-memalias-stack", 0);
  MFC_CHECK_MSG(backing_fd_ >= 0, "memfd_create failed (memory-alias stacks "
                                  "need Linux >= 3.17; see Table 1)");
  MFC_CHECK(ftruncate(backing_fd_, static_cast<off_t>(stack_bytes_)) == 0);
}

MemAliasThread::~MemAliasThread() {
  // Clear stale occupancy: a later thread allocated at this address must
  // not be mistaken for us and skip mapping its own pages.
  CommonStackArena::mem_alias().clear_occupant_if(this);
  if (backing_fd_ >= 0) close(backing_fd_);
}

void MemAliasThread::on_switch_in() {
  CommonStackArena& arena = CommonStackArena::mem_alias();
  arena.lock();
  // The switch itself: one mmap aliases this thread's pages over the common
  // stack address. No data is copied — the virtual memory hardware does the
  // work (Figure 3). When this thread was also the previous occupant, its
  // pages are still mapped and even the mmap is skipped.
  if (!started_ || arena.occupant() != this) {
    arena.map_fd(backing_fd_, stack_bytes_);
    arena.set_occupant(this);
  }
  if (!started_) {
    init_context(arena.top() - stack_bytes_, stack_bytes_);
    started_ = true;
  }
}

void MemAliasThread::on_switch_out() {
  // Stack writes went straight to the backing pages (MAP_SHARED); nothing to
  // copy. The alias stays mapped until the next occupant maps its own fd.
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
  // No stable in-address-space source: the pages live in the backing file
  // and are only mapped while running. Stage them into the manifest (this
  // technique keeps the copy path; it shares only the codec). The fd stays
  // open so the thread remains resumable — checkpoint captures need that.
  m.staged.resize(stack_bytes_);
  ssize_t r = pread(backing_fd_, m.staged.data(), stack_bytes_, 0);
  MFC_CHECK(r == static_cast<ssize_t>(stack_bytes_));
  m.stack_run = {m.staged.data(), m.staged.size()};
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
  // The shipped bytes are now the only copy that matters: drop the local
  // backing file and occupancy, leaving a husk that must be deleted.
  CommonStackArena::mem_alias().clear_occupant_if(this);
  close(backing_fd_);
  backing_fd_ = -1;
}

MemAliasThread* MemAliasThread::from_image(const ImageManifest& image) {
  MFC_CHECK_MSG(image.arena_base == reinterpret_cast<std::uint64_t>(
                                        CommonStackArena::mem_alias().base()),
                "memory-alias migration requires the same common stack "
                "address on both processors");
  auto* t = new MemAliasThread(image);
  t->set_saved_sp(reinterpret_cast<void*>(image.saved_sp));
  t->restore_identity(image.thread_id, image.accumulated_load);
  return t;
}

}  // namespace mfc::migrate
