// Table 1: portability of the migratable-thread techniques.
//
// The paper's table records, per platform, whether each technique is
// implemented ("Yes"), theoretically fine but unimplemented ("Maybe"), or
// impossible ("No"). This binary regenerates the row for the *current*
// platform by actually probing the OS capabilities each technique needs and
// then running a live create/suspend/pack/unpack/resume cycle for each.

#include <cstdio>

#include "bench/bench_common.h"
#include "iso/region.h"
#include "migrate/iso_thread.h"
#include "migrate/memalias_thread.h"
#include "migrate/stackcopy_thread.h"
#include "pup/pup.h"
#include "ult/scheduler.h"
#include "util/sysinfo.h"

namespace {

/// Live end-to-end check: build a thread of type T, run it to a suspend,
/// pack/serialize/unpack, resume, and verify it finished.
template <typename MakeThread>
bool technique_works(MakeThread make) {
  mfc::ult::Scheduler sched;
  bool after = false;
  mfc::migrate::MigratableThread* t = make([&] {
    int local = 41;
    sched.suspend();
    after = (local == 41);
  });
  sched.ready(t);
  sched.run_until_idle();
  if (t->state() != mfc::ult::State::kSuspended) return false;
  auto wire = t->pack();
  delete t;
  mfc::migrate::ImageManifest arrived;
  if (mfc::migrate::ImageManifest::decode(wire, &arrived) !=
      mfc::migrate::CodecError::kOk) {
    return false;
  }
  auto* t2 = mfc::migrate::MigratableThread::unpack(arrived, 0);
  sched.ready(t2);
  sched.run_until_idle();
  const bool done = t2->state() == mfc::ult::State::kDone && after;
  delete t2;
  return done;
}

const char* yn(bool b) { return b ? "Yes" : "No"; }

}  // namespace

int main() {
  mfc::bench::print_header(
      "Portability matrix row for this platform (live-probed)",
      "Table 1 (paper rows for x86/IA64/.../BG/L/Windows; this regenerates "
      "the current-platform column)");

  const auto caps = mfc::probe_capabilities();
  std::printf("capability probes:\n");
  std::printf("  %-42s %s\n", "mmap MAP_FIXED remap", yn(caps.mmap_fixed));
  std::printf("  %-42s %s\n", "memfd_create (memory-alias backing)",
              yn(caps.memfd));
  std::printf("  %-42s %s\n", ">=16GB PROT_NONE reservation (isomalloc)",
              yn(caps.big_reservation));
  std::printf("  %-42s %s\n", "fork (process flows)", yn(caps.fork_works));
  std::printf("  %-42s %s\n", "agreed stack base via private arena",
              yn(caps.stack_base_fixed));
  std::printf("  %-42s %s\n", "madvise guard markers (iso evacuation)",
              yn(caps.guard_pages));

  mfc::iso::Region::Config cfg;
  cfg.npes = 1;
  cfg.slot_bytes = 64 * 1024;
  cfg.slots_per_pe = 512;
  mfc::iso::Region::init(cfg);

  const bool sc = technique_works(
      [](auto fn) { return new mfc::migrate::StackCopyThread(std::move(fn)); });
  const bool iso = technique_works(
      [](auto fn) { return new mfc::migrate::IsoThread(std::move(fn), 0); });
  const bool ma = technique_works(
      [](auto fn) { return new mfc::migrate::MemAliasThread(std::move(fn)); });
  mfc::iso::Region::shutdown();

  std::printf("\nend-to-end migrate cycle (create/suspend/pack/unpack/resume):\n");
  std::printf("  %-14s %-14s %-14s\n", "Stack Copy", "Isomalloc",
              "Memory Alias");
  std::printf("  %-14s %-14s %-14s\n", yn(sc), yn(iso), yn(ma));

  std::printf("\n# paper Table 1 for reference: Stack Copy Yes on most "
              "platforms (incl. Windows);\n# Isomalloc/Memory Alias Yes "
              "everywhere mmap exists, No/Maybe on BG/L and Windows.\n# On "
              "x86-64 Linux (this row) the paper reports Yes/Yes/Yes.\n");
  return sc && iso && ma ? 0 : 1;
}
