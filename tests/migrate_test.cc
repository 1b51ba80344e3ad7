// Migratable-thread tests — the paper's §3.4 techniques, exercised through
// real pack → serialize → unpack → resume cycles.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "expect_segv.h"
#include "guard_markers_hidden.h"
#include "iso/heap.h"
#include "migrate/common_arena.h"
#include "migrate/iso_thread.h"
#include "migrate/memalias_thread.h"
#include "migrate/migratable.h"
#include "migrate/stackcopy_thread.h"
#include "pup/pup.h"
#include "ult/scheduler.h"

namespace {

using mfc::migrate::CommonStackArena;
using mfc::migrate::IsoThread;
using mfc::migrate::MemAliasThread;
using mfc::migrate::MigratableThread;
using mfc::migrate::StackCopyThread;
using mfc::migrate::Technique;
using mfc::migrate::CodecError;
using mfc::migrate::ImageManifest;
using mfc::ult::Scheduler;
using mfc::ult::State;

class MigrateFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    mfc::iso::Region::Config cfg;
    cfg.npes = 4;
    cfg.slot_bytes = 64 * 1024;
    cfg.slots_per_pe = 512;
    mfc::iso::Region::init(cfg);
  }
  void TearDown() override { mfc::iso::Region::shutdown(); }
};

// Shared test body: a thread builds stack + (optionally heap) state, suspends,
// is packed/shipped/unpacked, then resumes and self-verifies.
struct ProbeState {
  bool before_ok = false;
  bool after_ok = false;
  void* heap_ptr = nullptr;
};

template <typename MakeThread>
void run_migration_roundtrip(Scheduler& sched, ProbeState& probe,
                             MakeThread make, bool with_heap) {
  MigratableThread* t = make([&probe, &sched, with_heap] {
    // Stack state: a local array with a known pattern, plus pointers into
    // the stack itself (the hard case the same-address guarantee solves).
    int pattern[64];
    for (int i = 0; i < 64; ++i) pattern[i] = i * i + 1;
    int* self_ptr = &pattern[17];

    char* heap_data = nullptr;
    if (with_heap) {
      heap_data = static_cast<char*>(mfc::iso::routed_malloc(5000));
      std::memset(heap_data, 0x5A, 5000);
      probe.heap_ptr = heap_data;
    }
    probe.before_ok = (*self_ptr == 17 * 17 + 1);

    sched.suspend();  // ---- migration happens here ----

    // Resumed on the "destination": every pointer must still be valid.
    bool ok = (self_ptr == &pattern[17]) && (*self_ptr == 17 * 17 + 1);
    for (int i = 0; i < 64; ++i) ok = ok && (pattern[i] == i * i + 1);
    if (with_heap) {
      ok = ok && (heap_data == probe.heap_ptr);
      for (int i = 0; i < 5000; ++i) ok = ok && (heap_data[i] == 0x5A);
      mfc::iso::routed_free(heap_data);
    }
    probe.after_ok = ok;
  });

  sched.ready(t);
  sched.run_until_idle();
  ASSERT_EQ(t->state(), State::kSuspended);
  ASSERT_TRUE(probe.before_ok);

  // Pack and serialize exactly as the converse migration message would.
  std::vector<char> wire = t->pack();
  delete t;

  ImageManifest arrived;
  ASSERT_EQ(ImageManifest::decode(wire, &arrived), CodecError::kOk);
  MigratableThread* t2 = MigratableThread::unpack(arrived, 1);
  ASSERT_NE(t2, nullptr);

  sched.ready(t2);
  sched.run_until_idle();
  EXPECT_EQ(t2->state(), State::kDone);
  EXPECT_TRUE(probe.after_ok);
  delete t2;
}

TEST_F(MigrateFixture, IsoThreadMigratesStackAndHeap) {
  Scheduler sched;
  ProbeState probe;
  run_migration_roundtrip(
      sched, probe,
      [](auto fn) { return new IsoThread(std::move(fn), /*birth_pe=*/0); },
      /*with_heap=*/true);
}

TEST_F(MigrateFixture, StackCopyThreadMigratesStack) {
  Scheduler sched;
  ProbeState probe;
  run_migration_roundtrip(
      sched, probe,
      [](auto fn) { return new StackCopyThread(std::move(fn)); },
      /*with_heap=*/false);
}

TEST_F(MigrateFixture, MemAliasThreadMigratesStack) {
  Scheduler sched;
  ProbeState probe;
  run_migration_roundtrip(
      sched, probe,
      [](auto fn) { return new MemAliasThread(std::move(fn)); },
      /*with_heap=*/false);
}

TEST_F(MigrateFixture, IsoThreadIdentityAndLoadSurviveMigration) {
  Scheduler sched;
  auto* t = new IsoThread([&sched] { sched.suspend(); }, 0);
  sched.ready(t);
  sched.run_until_idle();
  const auto id = t->id();
  const std::vector<char> wire = t->pack();
  ImageManifest image;
  ASSERT_EQ(ImageManifest::decode(wire, &image), CodecError::kOk);
  delete t;
  auto* t2 = MigratableThread::unpack(image, 2);
  EXPECT_EQ(t2->id(), id);
  EXPECT_GE(t2->accumulated_load(), 0.0);
  sched.ready(t2);
  sched.run_until_idle();
  delete t2;
}

TEST_F(MigrateFixture, StackAddressesIdenticalBeforeAndAfter) {
  // The central claim of §3.4: "the stack will have exactly the same address
  // on the new processor."
  Scheduler sched;
  static std::uintptr_t addr_before;
  static std::uintptr_t addr_after;
  auto* t = new IsoThread(
      [&sched] {
        int anchor = 0;
        addr_before = reinterpret_cast<std::uintptr_t>(&anchor);
        sched.suspend();
        addr_after = reinterpret_cast<std::uintptr_t>(&anchor);
      },
      0);
  sched.ready(t);
  sched.run_until_idle();
  const std::vector<char> wire = t->pack();
  ImageManifest image;
  ASSERT_EQ(ImageManifest::decode(wire, &image), CodecError::kOk);
  delete t;
  auto* t2 = MigratableThread::unpack(image, 3);
  sched.ready(t2);
  sched.run_until_idle();
  EXPECT_EQ(addr_before, addr_after);
  delete t2;
}

TEST_F(MigrateFixture, ManyStackCopyThreadsShareOneArena) {
  Scheduler sched;
  constexpr int kThreads = 32;
  int done = 0;
  std::vector<StackCopyThread*> ts;
  for (int i = 0; i < kThreads; ++i) {
    auto* t = new StackCopyThread([&sched, &done, i] {
      // Per-thread distinct stack content, interleaved via yields.
      int mine[16];
      for (int k = 0; k < 16; ++k) mine[k] = i * 100 + k;
      for (int y = 0; y < 5; ++y) {
        sched.yield();
        for (int k = 0; k < 16; ++k) ASSERT_EQ(mine[k], i * 100 + k);
      }
      ++done;
    });
    ts.push_back(t);
    sched.ready(t);
  }
  sched.run_until_idle();
  EXPECT_EQ(done, kThreads);
  for (auto* t : ts) delete t;
}

TEST_F(MigrateFixture, ManyMemAliasThreadsShareOneAddress) {
  Scheduler sched;
  constexpr int kThreads = 16;
  int done = 0;
  std::vector<MemAliasThread*> ts;
  for (int i = 0; i < kThreads; ++i) {
    auto* t = new MemAliasThread([&sched, &done, i] {
      double mine[8];
      for (int k = 0; k < 8; ++k) mine[k] = i + k * 0.5;
      for (int y = 0; y < 5; ++y) {
        sched.yield();
        for (int k = 0; k < 8; ++k) ASSERT_EQ(mine[k], i + k * 0.5);
      }
      ++done;
    });
    ts.push_back(t);
    sched.ready(t);
  }
  sched.run_until_idle();
  EXPECT_EQ(done, kThreads);
  for (auto* t : ts) delete t;
}

TEST_F(MigrateFixture, MixedTechniquesCoexistOnOneScheduler) {
  Scheduler sched;
  int done = 0;
  auto body = [&sched, &done] {
    long local = 12345;
    sched.yield();
    ASSERT_EQ(local, 12345);
    ++done;
  };
  IsoThread iso(body, 0);
  StackCopyThread sc(body);
  MemAliasThread ma(body);
  mfc::ult::StandardThread plain(body);
  for (mfc::ult::Thread* t :
       std::initializer_list<mfc::ult::Thread*>{&iso, &sc, &ma, &plain}) {
    sched.ready(t);
  }
  sched.run_until_idle();
  EXPECT_EQ(done, 4);
}

// A ULT body that fills a stack canary, yields `yields` times checking it
// after each resume, then counts itself done.
std::function<void()> canary_body(Scheduler& sched, std::atomic<int>& done,
                                  long tag, int yields) {
  return [&sched, &done, tag, yields] {
    long canary[64];
    for (int k = 0; k < 64; ++k) canary[k] = tag * 1000 + k;
    for (int y = 0; y < yields; ++y) {
      sched.yield();
      for (int k = 0; k < 64; ++k) ASSERT_EQ(canary[k], tag * 1000 + k);
    }
    done.fetch_add(1);
  };
}

TEST_F(MigrateFixture, StackCopyAndMemAliasInterleaveOnOnePe) {
  // Each technique runs on its own arena, so a stack-copy switch-in never
  // lands on pages a memory-alias thread mapped from its backing file.
  Scheduler sched;
  std::atomic<int> done{0};
  std::vector<MigratableThread*> ts;
  for (long i = 0; i < 4; ++i) {
    ts.push_back(new StackCopyThread(canary_body(sched, done, 2 * i, 8)));
    ts.push_back(new MemAliasThread(canary_body(sched, done, 2 * i + 1, 8)));
  }
  for (MigratableThread* t : ts) sched.ready(t);
  sched.run_until_idle();
  EXPECT_EQ(done.load(), 8);
  for (MigratableThread* t : ts) delete t;
}

TEST_F(MigrateFixture, StackCopyAndMemAliasRunAtOnceOnTwoPes) {
  // "One thread active per address space" holds per technique: while a
  // stack-copy thread occupies its arena on one PE, a memory-alias thread
  // switches in on another, and each waits until both are inside.
  std::atomic<int> inside{0};
  std::atomic<int> met{0};
  std::atomic<int> done{0};
  auto pe = [&](bool stack_copy) {
    Scheduler sched;
    std::function<void()> check = canary_body(sched, done, stack_copy, 4);
    auto body = [&inside, &met, check] {
      inside.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (inside.load() < 2 && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      if (inside.load() == 2) met.fetch_add(1);
      check();
    };
    MigratableThread* t = stack_copy
                              ? static_cast<MigratableThread*>(
                                    new StackCopyThread(body))
                              : new MemAliasThread(body);
    sched.ready(t);
    sched.run_until_idle();
    delete t;
  };
  std::thread pe0(pe, true);
  std::thread pe1(pe, false);
  pe0.join();
  pe1.join();
  EXPECT_EQ(met.load(), 2) << "the two techniques shared one arena lock";
  EXPECT_EQ(done.load(), 2);
}

TEST_F(MigrateFixture, ImagesCarryTheirOwnTechniquesArenaBase) {
  Scheduler sched;
  auto* sc = new StackCopyThread([&sched] { sched.suspend(); });
  auto* ma = new MemAliasThread([&sched] { sched.suspend(); });
  sched.ready(sc);
  sched.ready(ma);
  sched.run_until_idle();
  const auto sc_base =
      reinterpret_cast<std::uint64_t>(CommonStackArena::stack_copy().base());
  const auto ma_base =
      reinterpret_cast<std::uint64_t>(CommonStackArena::mem_alias().base());
  EXPECT_NE(sc_base, ma_base);

  const std::vector<char> sc_wire = sc->pack();
  const std::vector<char> ma_wire = ma->pack();
  ImageManifest sc_image;
  ImageManifest ma_image;
  ASSERT_EQ(ImageManifest::decode(sc_wire, &sc_image), CodecError::kOk);
  ASSERT_EQ(ImageManifest::decode(ma_wire, &ma_image), CodecError::kOk);
  delete sc;
  delete ma;
  EXPECT_EQ(sc_image.arena_base, sc_base);
  EXPECT_EQ(ma_image.arena_base, ma_base);

  // An image naming the other technique's arena is refused.
  ImageManifest wrong = sc_image;
  wrong.arena_base = ma_base;
  EXPECT_DEATH(MigratableThread::unpack(wrong, 0),
               "same system-wide stack address");
  wrong = ma_image;
  wrong.arena_base = sc_base;
  EXPECT_DEATH(MigratableThread::unpack(wrong, 0),
               "same common stack address");

  for (const ImageManifest* image : {&sc_image, &ma_image}) {
    MigratableThread* t = MigratableThread::unpack(*image, 1);
    sched.ready(t);
    sched.run_until_idle();
    EXPECT_EQ(t->state(), State::kDone);
    delete t;
  }
}

// Where the kernel rejects guard markers (before Linux 6.13), iso::Region
// evacuates by remapping. A forked child hides the markers and checks that
// branch: the evacuate/install properties, the faults on an evacuated slot,
// and an isomalloc migration round trip. Failures print from the child.
void check_remap_fallback() {
  mfc::iso::Region::Config cfg;
  cfg.npes = 4;
  cfg.slot_bytes = 64 * 1024;
  cfg.slots_per_pe = 512;
  mfc::iso::Region::init(cfg);
  mfc::iso::Region& r = mfc::iso::Region::instance();
  EXPECT_FALSE(r.guard_markers());

  const mfc::iso::SlotId id = r.acquire(2);
  auto* p = static_cast<volatile char*>(r.slot_base(id));
  std::memset(r.slot_base(id), 0xAB, r.slot_span(id));
  r.evacuate(id);
  ::testing::FLAGS_gtest_death_test_style = "fast";
  EXPECT_SEGV((void)p[0]);
  EXPECT_SEGV(p[0] = 1);
  r.install(id);
  EXPECT_EQ(r.slot_base(id), const_cast<char*>(p));
  EXPECT_EQ(p[0], 0);  // the old pages were dropped
  p[0] = 43;
  EXPECT_EQ(p[0], 43);
  r.evacuate(id);
  EXPECT_SEGV((void)p[0]);
  r.install(id);
  r.release(id);

  Scheduler sched;
  ProbeState probe;
  run_migration_roundtrip(
      sched, probe,
      [](auto fn) { return new IsoThread(std::move(fn), /*birth_pe=*/0); },
      /*with_heap=*/true);
  mfc::iso::Region::shutdown();
}

TEST(IsoRemapFallback, RegionAndMigrationWorkWithGuardMarkersHidden) {
  constexpr int kNoSeccomp = 77;
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    if (!mfc::test::hide_guard_markers()) _exit(kNoSeccomp);
    check_remap_fallback();
    _exit(::testing::Test::HasFailure() ? 1 : 0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child killed by signal "
                                 << WTERMSIG(status);
  if (WEXITSTATUS(status) == kNoSeccomp) {
    GTEST_SKIP() << "seccomp filters are unavailable here";
  }
  EXPECT_EQ(WEXITSTATUS(status), 0) << "the child's failures are above";
}

TEST_F(MigrateFixture, IsoSlotsFreedOnDestruction) {
  auto& region = mfc::iso::Region::instance();
  const auto free_before = region.free_slots(0);
  {
    Scheduler sched;
    auto* t = new IsoThread([] {}, 0);
    sched.ready(t);
    sched.run_until_idle();
    delete t;
  }
  EXPECT_EQ(region.free_slots(0), free_before);
}

TEST_F(MigrateFixture, IsoSlotsTravelWithMigration) {
  auto& region = mfc::iso::Region::instance();
  Scheduler sched;
  const auto used_before = region.used_slots(0);
  auto* t = new IsoThread([&sched] { sched.suspend(); }, 0);
  const auto used_running = region.used_slots(0);
  EXPECT_GT(used_running, used_before);
  sched.ready(t);
  sched.run_until_idle();
  const std::vector<char> wire = t->pack();
  ImageManifest image;
  ASSERT_EQ(ImageManifest::decode(wire, &image), CodecError::kOk);
  delete t;
  // Slots still reserved (they belong to the in-flight image), pages dropped.
  EXPECT_EQ(region.used_slots(0), used_running);
  auto* t2 = MigratableThread::unpack(image, 1);
  sched.ready(t2);
  sched.run_until_idle();
  delete t2;
  EXPECT_EQ(region.used_slots(0), used_before);
}

TEST_F(MigrateFixture, PackRequiresSuspendedThread) {
  Scheduler sched;
  auto* t = new IsoThread([] {}, 0);
  EXPECT_DEATH(t->pack(), "suspended");
  sched.ready(t);
  sched.run_until_idle();
  delete t;
}

TEST_F(MigrateFixture, TechniqueNames) {
  EXPECT_STREQ(to_string(Technique::kStackCopy), "stack-copy");
  EXPECT_STREQ(to_string(Technique::kIsomalloc), "isomalloc");
  EXPECT_STREQ(to_string(Technique::kMemAlias), "memory-alias");
}

}  // namespace
