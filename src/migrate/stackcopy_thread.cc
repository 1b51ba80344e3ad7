#include "migrate/stackcopy_thread.h"

#include <cstring>

#include "trace/flight.h"
#include "trace/hist.h"
#include "util/check.h"
#include "util/timer.h"

namespace mfc::migrate {

StackCopyThread::StackCopyThread(Fn fn, std::size_t stack_bytes)
    : MigratableThread(std::move(fn)), stack_bytes_(stack_bytes) {
  MFC_CHECK(stack_bytes_ <= CommonStackArena::kCapacity);
}

StackCopyThread::StackCopyThread(const ImageManifest& image)
    : MigratableThread(Fn{}),
      stack_bytes_(image.stack_capacity),
      started_(true),
      saved_(image.stack_run.data, image.stack_run.data + image.stack_run.len) {
  MFC_CHECK_MSG(saved_.size() <= stack_bytes_ &&
                    stack_bytes_ <= CommonStackArena::kCapacity,
                "corrupt thread image: stack-copy stack size");
}

void StackCopyThread::on_switch_in() {
  CommonStackArena& arena = CommonStackArena::stack_copy();
  arena.lock();  // "only one thread active in each address space"
  if (!started_) {
    // First run: build the bootstrap frame directly at the arena address.
    init_context(arena.top() - stack_bytes_, stack_bytes_);
    started_ = true;
    return;
  }
  // Copy the saved live bytes back to the system-wide stack address.
  std::memcpy(arena.top() - saved_.size(), saved_.data(), saved_.size());
}

void StackCopyThread::on_switch_out() {
  CommonStackArena& arena = CommonStackArena::stack_copy();
  if (state() != ult::State::kDone) {
    // Everything from the saved stack pointer to the arena top is live.
    auto* sp = static_cast<char*>(saved_sp());
    MFC_CHECK(sp > arena.base() && sp <= arena.top());
    saved_.assign(sp, arena.top());
  } else {
    saved_.clear();
  }
  arena.unlock();
}

ImageManifest StackCopyThread::pack_manifest(bool count) {
  MFC_CHECK_MSG(state() == ult::State::kSuspended,
                "pack_manifest() requires a suspended thread");
  const std::uint64_t t0 = count && hist::on() ? rdtsc() : 0;
  ImageManifest m;
  m.technique = Technique::kStackCopy;
  m.thread_id = id();
  m.accumulated_load = accumulated_load();
  m.saved_sp = reinterpret_cast<std::uint64_t>(saved_sp());
  // The saved-stack buffer already holds the only copy of the live bytes
  // while suspended; the manifest borrows it (valid until the thread runs).
  m.stack_run = {saved_.data(), saved_.size()};
  m.stack_capacity = stack_bytes_;
  m.arena_base =
      reinterpret_cast<std::uint64_t>(CommonStackArena::stack_copy().base());
  if (count) {
    trace::emit_flight(trace::Ev::kMigratePackBegin, m.thread_id, 0, 0, -1,
                       trace_tag(Technique::kStackCopy));
    metrics::bump(pack_counter(Technique::kStackCopy));
    if (t0 != 0) hist::record(hist::Hist::kMigratePack, rdtsc() - t0);
    trace::emit_flight(trace::Ev::kMigratePackEnd, m.thread_id, 0,
                       static_cast<std::uint32_t>(m.stack_run.len), -1,
                       trace_tag(Technique::kStackCopy));
  }
  return m;
}

StackCopyThread* StackCopyThread::from_image(const ImageManifest& image) {
  MFC_CHECK_MSG(image.arena_base == reinterpret_cast<std::uint64_t>(
                                        CommonStackArena::stack_copy().base()),
                "stack-copy migration requires the same system-wide stack "
                "address on both processors (paper §3.4.1)");
  MFC_CHECK_MSG(image.saved_sp == reinterpret_cast<std::uint64_t>(
                                      CommonStackArena::stack_copy().top()) -
                                      image.stack_run.len,
                "corrupt thread image: saved stack pointer outside the "
                "shipped stack");
  auto* t = new StackCopyThread(image);
  t->set_saved_sp(reinterpret_cast<void*>(image.saved_sp));
  t->restore_identity(image.thread_id, image.accumulated_load);
  return t;
}

}  // namespace mfc::migrate
