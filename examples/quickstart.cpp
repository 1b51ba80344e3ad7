// Quickstart: the mfc runtime in five minutes.
//
//   1. user-level threads and the scheduler            (paper §2.3)
//   2. a migratable isomalloc thread packed on one "processor" and
//      resumed on another, pointers intact              (paper §3.4.2)
//   3. privatized globals swapped per thread            (paper §3.1.1)
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>
#include <vector>

#include "iso/heap.h"
#include "iso/region.h"
#include "migrate/iso_thread.h"
#include "pup/pup.h"
#include "swapglobal/global.h"
#include "ult/scheduler.h"

namespace ult = mfc::ult;
namespace migrate = mfc::migrate;
namespace sg = mfc::swapglobal;

// A privatized global: each thread that installs a GlobalSet sees its own
// copy; code outside any thread sees the shared default.
sg::Global<int> g_step_count{0};

int main() {
  // --- 1. user-level threads -------------------------------------------
  std::printf("== user-level threads ==\n");
  ult::Scheduler sched;
  ult::StandardThread ping([&] {
    for (int i = 0; i < 3; ++i) {
      std::printf("ping %d\n", i);
      sched.yield();
    }
  });
  ult::StandardThread pong([&] {
    for (int i = 0; i < 3; ++i) {
      std::printf("  pong %d\n", i);
      sched.yield();
    }
  });
  sched.ready(&ping);
  sched.ready(&pong);
  sched.run_until_idle();

  // --- 2. migratable thread --------------------------------------------
  std::printf("\n== migration: pack on PE0, resume on PE1 ==\n");
  mfc::iso::Region::Config iso_cfg;
  iso_cfg.npes = 2;
  mfc::iso::Region::init(iso_cfg);

  ult::Scheduler pe0, pe1;  // two "processors"
  auto* worker = new migrate::IsoThread(
      [&] {
        // Stack array, a pointer into it, and heap data from the thread's
        // isomalloc heap — all survive migration without fixup.
        int table[8] = {1, 2, 3, 4, 5, 6, 7, 8};
        int* into_stack = &table[3];
        auto* heap_buf = static_cast<char*>(mfc::iso::routed_malloc(256));
        heap_buf[0] = 'M';
        std::printf("  [thread] before migration: table[3]=%d heap=%c\n",
                    *into_stack, heap_buf[0]);
        ult::Scheduler::current().suspend();  // -- migrated here --
        std::printf("  [thread] after migration:  table[3]=%d heap=%c "
                    "(pointers unchanged: %s)\n",
                    *into_stack, heap_buf[0],
                    into_stack == &table[3] ? "yes" : "NO");
        mfc::iso::routed_free(heap_buf);
      },
      /*birth_pe=*/0);
  pe0.ready(worker);
  pe0.run_until_idle();  // runs until the thread suspends

  std::vector<char> wire = worker->pack();  // serialize: "network" bytes
  delete worker;
  std::printf("  [main] thread packed into %zu bytes, shipping to PE1\n",
              wire.size());

  // Arrival: decode the bytes in place (a typed error, never a crash, on
  // damaged input), then install the thread at its original addresses.
  migrate::ImageManifest arrived;
  if (migrate::ImageManifest::decode(wire, &arrived) !=
      migrate::CodecError::kOk) {
    std::printf("  [main] corrupt image\n");
    return 1;
  }
  auto* resumed = migrate::MigratableThread::unpack(arrived, 1);
  pe1.ready(resumed);
  pe1.run_until_idle();
  delete resumed;

  // --- 3. privatized globals -------------------------------------------
  std::printf("\n== swap-global privatization ==\n");
  sg::GlobalSet set_a, set_b;
  ult::StandardThread ta([&] {
    for (int i = 0; i < 5; ++i) g_step_count.get() += 1;
    std::printf("  thread A sees %d (its own copy)\n", g_step_count.get());
  });
  ult::StandardThread tb([&] {
    for (int i = 0; i < 2; ++i) g_step_count.get() += 1;
    std::printf("  thread B sees %d (its own copy)\n", g_step_count.get());
  });
  sg::attach(&ta, &set_a);
  sg::attach(&tb, &set_b);
  sched.ready(&ta);
  sched.ready(&tb);
  sched.run_until_idle();
  std::printf("  main sees   %d (the shared default)\n", g_step_count.get());

  mfc::iso::Region::shutdown();
  return 0;
}
