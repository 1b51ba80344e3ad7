// Swap-global privatization tests (paper §3.1.1): the registry-based
// Global<T> scheme and the real ELF GOT swap.
#include <dlfcn.h>
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "migrate/memalias_thread.h"
#include "migrate/migratable.h"
#include "pup/pup.h"
#include "swapglobal/elf_got.h"
#include "swapglobal/global.h"
#include "ult/scheduler.h"

namespace {

using mfc::swapglobal::attach;
using mfc::swapglobal::Global;
using mfc::swapglobal::GlobalSet;
using mfc::swapglobal::GotCopies;
using mfc::swapglobal::GotView;

// Statics: registered before any GlobalSet exists.
Global<int> g_counter{7};
Global<std::string> g_name{"default"};

TEST(SwapGlobal, FallsBackToSharedDefaultOutsideThreads) {
  EXPECT_EQ(GlobalSet::current(), nullptr);
  EXPECT_EQ(g_counter.get(), 7);
  EXPECT_EQ(g_name.get(), "default");
}

TEST(SwapGlobal, EachSetHasPrivateValues) {
  GlobalSet a, b;
  GlobalSet::install(&a);
  g_counter.get() = 11;
  g_name.get() = "alpha";
  GlobalSet::install(&b);
  EXPECT_EQ(g_counter.get(), 7) << "set b must start from the default";
  g_counter.get() = 22;
  GlobalSet::install(&a);
  EXPECT_EQ(g_counter.get(), 11);
  EXPECT_EQ(g_name.get(), "alpha");
  GlobalSet::install(nullptr);
  EXPECT_EQ(g_counter.get(), 7) << "shared default untouched";
}

TEST(SwapGlobal, SchedulerSwapsSetsBetweenThreads) {
  // Two threads increment "the same" global; privatization keeps the counts
  // separate across interleaved yields — the §3.1.1 goal.
  mfc::ult::Scheduler sched;
  GlobalSet set_a, set_b;
  int seen_a = -1, seen_b = -1;
  mfc::ult::StandardThread ta([&] {
    for (int i = 0; i < 5; ++i) {
      g_counter.get() += 1;
      sched.yield();
    }
    seen_a = g_counter.get();
  });
  mfc::ult::StandardThread tb([&] {
    for (int i = 0; i < 5; ++i) {
      g_counter.get() += 100;
      sched.yield();
    }
    seen_b = g_counter.get();
  });
  attach(&ta, &set_a);
  attach(&tb, &set_b);
  sched.ready(&ta);
  sched.ready(&tb);
  sched.run_until_idle();
  EXPECT_EQ(seen_a, 7 + 5);
  EXPECT_EQ(seen_b, 7 + 500);
  EXPECT_EQ(g_counter.get(), 7);  // shared default never touched
}

TEST(SwapGlobal, SetsPupRoundTrip) {
  GlobalSet src;
  GlobalSet::install(&src);
  g_counter.get() = 1234;
  g_name.get() = "migrated";
  GlobalSet::install(nullptr);

  auto bytes = mfc::pup::to_bytes(src);
  GlobalSet dst;
  mfc::pup::from_bytes(bytes, dst);
  GlobalSet::install(&dst);
  EXPECT_EQ(g_counter.get(), 1234);
  EXPECT_EQ(g_name.get(), "migrated");
  GlobalSet::install(nullptr);
}

// ---- Privatized globals crossing a migration (memalias + swapglobal) ----

TEST(SwapGlobalMigrate, MemAliasThreadCarriesPrivateGlobalsAcrossMigration) {
  // A thread with a privatized global set migrates via the memory-alias
  // technique. The runtime ships the GlobalSet alongside the thread image
  // (GlobalSet::pup) and re-attaches the switch hook on the destination —
  // hooks are per-thread scheduler state, not part of the packed image.
  mfc::ult::Scheduler sched;
  int before = -1, after = -1;
  std::string name_after;
  const GlobalSet* set_in_thread = nullptr;
  auto* t = new mfc::migrate::MemAliasThread([&] {
    g_counter.get() = 4321;
    g_name.get() = "voyager";
    before = g_counter.get();
    mfc::ult::suspend();  // docked: migration happens here
    set_in_thread = GlobalSet::current();
    after = g_counter.get();
    name_after = g_name.get();
  });
  GlobalSet src;
  attach(t, &src);
  sched.ready(t);
  sched.run_until_idle();  // phase 1 writes privates, then docks

  ASSERT_EQ(before, 4321);
  EXPECT_EQ(g_counter.get(), 7) << "suspended thread's set must be swapped out";

  // Source PE: pack the thread and pup its global set separately.
  auto set_bytes = mfc::pup::to_bytes(src);
  auto wire = t->pack();
  delete t;

  // Destination PE: rebuild image + set, re-attach, resume on a new
  // scheduler (a different kernel-thread context in the real machine).
  mfc::migrate::ImageManifest arrived;
  ASSERT_EQ(mfc::migrate::ImageManifest::decode(wire, &arrived),
            mfc::migrate::CodecError::kOk);
  auto* t2 = mfc::migrate::MigratableThread::unpack(arrived, 1);
  GlobalSet dst;
  mfc::pup::from_bytes(set_bytes, dst);
  attach(t2, &dst);
  mfc::ult::Scheduler dest_sched;
  dest_sched.ready(t2);
  dest_sched.run_until_idle();
  delete t2;

  EXPECT_EQ(set_in_thread, &dst)
      << "resumed thread must see the destination PE's global table";
  EXPECT_EQ(after, 4321) << "private value lost across migration";
  EXPECT_EQ(name_after, "voyager");
  EXPECT_EQ(g_counter.get(), 7) << "shared default untouched throughout";
  EXPECT_EQ(GlobalSet::current(), nullptr);
}

// ---- Real ELF GOT swapping ----

class GotFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    handle_ = dlopen(SGTEST_LIB_PATH, RTLD_NOW | RTLD_LOCAL);
    ASSERT_NE(handle_, nullptr) << dlerror();
    get_counter_ = reinterpret_cast<int (*)()>(dlsym(handle_, "sgtest_get_counter"));
    set_counter_ = reinterpret_cast<void (*)(int)>(dlsym(handle_, "sgtest_set_counter"));
    increment_ = reinterpret_cast<void (*)()>(dlsym(handle_, "sgtest_increment"));
    sum_values_ = reinterpret_cast<double (*)()>(dlsym(handle_, "sgtest_sum_values"));
    scale_values_ = reinterpret_cast<void (*)(double)>(dlsym(handle_, "sgtest_scale_values"));
    ASSERT_NE(get_counter_, nullptr);
  }
  void TearDown() override { dlclose(handle_); }

  static bool sg_filter(const char* name) {
    return std::strncmp(name, "sgtest_", 7) == 0;
  }

  void* handle_ = nullptr;
  int (*get_counter_)() = nullptr;
  void (*set_counter_)(int) = nullptr;
  void (*increment_)() = nullptr;
  double (*sum_values_)() = nullptr;
  void (*scale_values_)(double) = nullptr;
};

TEST_F(GotFixture, ScanFindsTheLibraryGlobals) {
  GotView view(handle_, sg_filter);
  ASSERT_EQ(view.vars().size(), 2u);
  bool found_counter = false, found_values = false;
  for (const auto& var : view.vars()) {
    if (var.name == "sgtest_counter") {
      found_counter = true;
      EXPECT_EQ(var.size, sizeof(int));
    }
    if (var.name == "sgtest_values") {
      found_values = true;
      EXPECT_EQ(var.size, 4 * sizeof(double));
    }
  }
  EXPECT_TRUE(found_counter);
  EXPECT_TRUE(found_values);
}

TEST_F(GotFixture, GotSwapPrivatizesUnmodifiedCode) {
  GotView view(handle_, sg_filter);
  ASSERT_EQ(view.vars().size(), 2u);
  EXPECT_EQ(get_counter_(), 100);

  // Two "threads": private copies of every global in the library.
  GotCopies thread_a = view.make_copies();
  GotCopies thread_b = view.make_copies();

  view.install(thread_a);
  set_counter_(1);
  scale_values_(10.0);
  EXPECT_EQ(get_counter_(), 1);
  EXPECT_DOUBLE_EQ(sum_values_(), 100.0);

  view.install(thread_b);  // the scheduler's "swap the GOT"
  EXPECT_EQ(get_counter_(), 100) << "thread b sees pristine values";
  EXPECT_DOUBLE_EQ(sum_values_(), 10.0);
  increment_();
  EXPECT_EQ(get_counter_(), 101);

  view.install(thread_a);
  EXPECT_EQ(get_counter_(), 1) << "thread a state preserved across swap";

  view.restore();
  EXPECT_EQ(get_counter_(), 100) << "original storage untouched throughout";
  EXPECT_DOUBLE_EQ(sum_values_(), 10.0);
}

TEST_F(GotFixture, UnfilteredScanIsSaneAndRestorable) {
  GotView view(handle_);  // every object symbol, not just sgtest_
  EXPECT_GE(view.vars().size(), 2u);
  GotCopies copies = view.make_copies();
  view.install(copies);
  EXPECT_EQ(get_counter_(), 100);  // copies initialized from live values
  view.restore();
  EXPECT_EQ(get_counter_(), 100);
}

}  // namespace
