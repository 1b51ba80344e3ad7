// Malloc-interposition tests: this binary links mfc_isohook, so the global
// malloc/free/calloc/realloc symbols route through the isomalloc heap when
// a migratable-thread context is active (paper §3.4.2: "allows unmodified
// applications to use migratable thread memory for their heap data").
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "iso/heap.h"
#include "iso/region.h"
#include "migrate/iso_thread.h"
#include "pup/pup.h"
#include "ult/scheduler.h"

namespace {

using mfc::iso::Region;
using mfc::migrate::IsoThread;
using mfc::migrate::MigratableThread;
using mfc::migrate::CodecError;
using mfc::migrate::ImageManifest;
using mfc::ult::Scheduler;

class HookFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Region::Config cfg;
    cfg.npes = 2;
    cfg.slot_bytes = 64 * 1024;
    cfg.slots_per_pe = 512;
    Region::init(cfg);
  }
  void TearDown() override { Region::shutdown(); }
};

TEST_F(HookFixture, PlainMallocRoutesByContext) {
  // Outside any thread context: libc memory.
  void* outside = std::malloc(64);
  EXPECT_FALSE(Region::instance().contains(outside));

  Scheduler sched;
  void* inside = nullptr;
  IsoThread t([&] { inside = std::malloc(64); }, 0);
  sched.ready(&t);
  sched.run_until_idle();
  ASSERT_NE(inside, nullptr);
  EXPECT_TRUE(Region::instance().contains(inside))
      << "allocation made inside a migratable thread must come from its "
         "isomalloc heap";

  // free() routes by address from any context.
  std::free(inside);
  std::free(outside);
}

TEST_F(HookFixture, OperatorNewAndStdContainersRoute) {
  Scheduler sched;
  bool ok = false;
  IsoThread t(
      [&] {
        // std::vector and std::string allocate through operator new, which
        // glibc implements over malloc — all captured by the hook.
        auto* v = new std::vector<double>(1000, 3.5);
        std::string s(5000, 'x');
        ok = Region::instance().contains(v->data()) &&
             Region::instance().contains(s.data());
        delete v;
      },
      0);
  sched.ready(&t);
  sched.run_until_idle();
  EXPECT_TRUE(ok);
}

TEST_F(HookFixture, UnmodifiedCodeMigratesItsHeap) {
  // The paper's punchline: code that calls plain malloc — knowing nothing
  // about the runtime — migrates with its heap intact.
  Scheduler sched;
  static bool after_ok;
  after_ok = false;
  auto* t = new IsoThread(
      [] {
        char* buf = static_cast<char*>(std::malloc(10000));
        std::memset(buf, 0x77, 10000);
        auto* numbers = new long[500];
        for (int i = 0; i < 500; ++i) numbers[i] = i * 3L;

        Scheduler::current().suspend();  // ---- migrated here ----

        bool ok = true;
        for (int i = 0; i < 10000; ++i) ok = ok && buf[i] == 0x77;
        for (int i = 0; i < 500; ++i) ok = ok && numbers[i] == i * 3L;
        std::free(buf);
        delete[] numbers;
        after_ok = ok;
      },
      0);
  sched.ready(t);
  sched.run_until_idle();
  auto wire = t->pack();
  delete t;

  ImageManifest arrived;
  ASSERT_EQ(ImageManifest::decode(wire, &arrived), CodecError::kOk);
  auto* t2 = MigratableThread::unpack(arrived, 1);
  sched.ready(t2);
  sched.run_until_idle();
  EXPECT_TRUE(after_ok);
  delete t2;
}

TEST_F(HookFixture, CallocAndReallocRoute) {
  Scheduler sched;
  bool ok = false;
  IsoThread t(
      [&] {
        auto* z = static_cast<unsigned char*>(std::calloc(100, 4));
        bool zeroed = true;
        for (int i = 0; i < 400; ++i) zeroed = zeroed && z[i] == 0;
        auto* grown = static_cast<unsigned char*>(std::realloc(z, 4000));
        ok = zeroed && Region::instance().contains(grown);
        std::free(grown);
      },
      0);
  sched.ready(&t);
  sched.run_until_idle();
  EXPECT_TRUE(ok);
}

TEST_F(HookFixture, CrossContextFreeIsSafe) {
  Scheduler sched;
  void* from_thread = nullptr;
  IsoThread t([&] { from_thread = std::malloc(128); }, 0);
  sched.ready(&t);
  sched.run_until_idle();
  ASSERT_TRUE(Region::instance().contains(from_thread));
  // Freed from the main context (no thread heap active): address routing
  // must still find the right allocator.
  std::free(from_thread);
}

TEST(HookNoRegion, FallsThroughToLibcWhenUninitialized) {
  void* p = std::malloc(32);
  ASSERT_NE(p, nullptr);
  std::free(p);
}

}  // namespace
