// The memory-alias stack pool (labeled migrate-perf, so scripts/ci_migrate.sh
// runs it under the release and tsan presets): a fork child never writes
// through its parent's pool file, a fresh thread in a recycled slot ships
// its live stack and none of the bytes an earlier tenant left below it, and
// slots return to the pool with the file held to its high-water bound.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "chaos/storm.h"
#include "migrate/common_arena.h"
#include "migrate/manifest.h"
#include "migrate/memalias_thread.h"
#include "ult/scheduler.h"

namespace {

using mfc::migrate::CodecError;
using mfc::migrate::CommonStackArena;
using mfc::migrate::ImageManifest;
using mfc::migrate::MemAliasPool;
using mfc::migrate::MemAliasThread;
using mfc::ult::Scheduler;

constexpr std::size_t kStack = 16 * 1024;
constexpr unsigned char kScribble = 0xA5;
constexpr unsigned char kChildScribble = 0x3C;  ///< a fork child's own mark
constexpr std::size_t kScribbleBytes = 8 * 1024;

/// A thread body that writes `mark` over 8 KiB of its stack, below
/// anything a plain suspend reaches, and then suspends with it live.
void scribble_and_suspend(Scheduler& sched, unsigned char mark = kScribble) {
  volatile unsigned char junk[kScribbleBytes];
  for (std::size_t i = 0; i < kScribbleBytes; ++i) junk[i] = mark;
  sched.suspend();
  EXPECT_EQ(junk[kScribbleBytes / 2], mark);
}

/// The bytes a memory-alias image ships: its live stack.
std::vector<unsigned char> stack_bytes(const ImageManifest& m) {
  const auto* p = reinterpret_cast<const unsigned char*>(m.stack_run.data);
  return {p, p + m.stack_run.len};
}

/// The live length of a parked memory-alias thread's stack: from its saved
/// stack pointer to the arena top.
std::size_t live_len(const ImageManifest& m) {
  return static_cast<std::size_t>(m.arena_base + CommonStackArena::kCapacity -
                                  m.saved_sp);
}

/// The bytes of a thread's kStack stack below its saved stack pointer, read
/// in place through the pool's window (the shipped run ends at the slot's
/// top there). They stay in the process.
std::vector<unsigned char> below_sp(const ImageManifest& m) {
  const auto* run = reinterpret_cast<const unsigned char*>(m.stack_run.data);
  EXPECT_LE(m.stack_run.len, kStack);
  return {run + m.stack_run.len - kStack, run};
}

bool has_scribble(const std::vector<unsigned char>& bytes,
                  unsigned char mark = kScribble) {
  const std::vector<unsigned char> run(64, mark);
  return std::search(bytes.begin(), bytes.end(), run.begin(), run.end()) !=
         bytes.end();
}

/// Runs `t` on `sched` until it suspends.
void park(Scheduler& sched, MemAliasThread* t) {
  sched.ready(t);
  sched.run_until_idle();
  ASSERT_EQ(t->state(), mfc::ult::State::kSuspended);
}

TEST(MemAliasPool, FreshThreadInRecycledSlotShipsOnlyItsLiveStack) {
  Scheduler sched;
  auto* first = new MemAliasThread([&] { scribble_and_suspend(sched); }, kStack);
  park(sched, first);
  const ImageManifest m1 = first->pack_manifest();
  ASSERT_TRUE(has_scribble(stack_bytes(m1)));
  const char* slot_top = m1.stack_run.data + m1.stack_run.len;
  const MemAliasPool::Stats before = MemAliasPool::instance().stats();
  delete first;  // returns the slot, scribble and all

  auto* fresh = new MemAliasThread([&] { sched.suspend(); }, kStack);
  park(sched, fresh);
  const ImageManifest m2 = fresh->pack_manifest();
  EXPECT_EQ(m2.stack_run.data + m2.stack_run.len, slot_top)
      << "the slot was not recycled";
  EXPECT_EQ(MemAliasPool::instance().stats().file_slots, before.file_slots);
  // The slot still holds the earlier tenant's scribble below the fresh
  // thread's stack pointer (the pool zeroes nothing), and none of it ships:
  // the run is exactly the live stack.
  EXPECT_TRUE(has_scribble(below_sp(m2)));
  EXPECT_EQ(m2.stack_run.len, live_len(m2))
      << "bytes from below the saved stack pointer ship";
  EXPECT_FALSE(has_scribble(stack_bytes(m2)))
      << "the previous tenant's bytes ship with a fresh thread";
  sched.ready(fresh);
  sched.run_until_idle();
  delete fresh;
}

TEST(MemAliasPool, ForkChildNeverWritesThroughTheParentsFile) {
  Scheduler sched;
  bool intact = false;
  auto* live = new MemAliasThread(
      [&] {
        long canary[64];
        for (int k = 0; k < 64; ++k) canary[k] = 0x5eed0000L + k;
        sched.suspend();
        intact = true;
        for (int k = 0; k < 64; ++k) {
          intact = intact && canary[k] == 0x5eed0000L + k;
        }
      },
      kStack);
  park(sched, live);  // suspended in its slot, and the arena's occupant
  const std::uint32_t parent_in_use = MemAliasPool::instance().stats().in_use;

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // The child creates, runs and packs a thread of its own. Its pool is a
    // new file: the inherited thread is not among its slots.
    Scheduler child;
    auto* t = new MemAliasThread(
        [&] { scribble_and_suspend(child, kChildScribble); }, kStack);
    EXPECT_EQ(MemAliasPool::instance().stats().in_use, 1u);
    park(child, t);
    const std::vector<char> wire = t->pack();
    delete t;
    ImageManifest m;
    EXPECT_EQ(ImageManifest::decode(wire, &m), CodecError::kOk);
    EXPECT_EQ(m.stack_run.len, live_len(m));
    EXPECT_EQ(MemAliasPool::instance().stats().in_use, 0u);
    _exit(::testing::Test::HasFailure() ? 1 : 0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child killed by signal "
                                 << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), 0) << "the child's failures are above";

  EXPECT_EQ(MemAliasPool::instance().stats().in_use, parent_in_use);
  sched.ready(live);
  sched.run_until_idle();
  EXPECT_TRUE(intact) << "the child wrote over the parent's live stack";
  delete live;

  // The slots the child could have taken from the parent's books hold none
  // of the child's bytes: fresh threads in them find no child scribble
  // below their stacks (an earlier test's scribble may be there).
  std::vector<MemAliasThread*> fresh;
  for (int i = 0; i < 2; ++i) {
    fresh.push_back(new MemAliasThread([&] { sched.suspend(); }, kStack));
    park(sched, fresh.back());
    EXPECT_FALSE(has_scribble(below_sp(fresh.back()->pack_manifest()),
                              kChildScribble))
        << "the child wrote through the parent's pool file";
  }
  for (MemAliasThread* t : fresh) {
    sched.ready(t);
    sched.run_until_idle();
    delete t;
  }
}

TEST(MemAliasPool, SlotsReturnAndTheFileStaysWithinItsHighWater) {
  MemAliasPool& pool = MemAliasPool::instance();
  const MemAliasPool::Stats base = pool.stats();
  const std::uint32_t n = MemAliasPool::kGrowSlots + 1;
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<MemAliasThread*> ts;
    for (std::uint32_t i = 0; i < n; ++i) {
      ts.push_back(new MemAliasThread([] {}, kStack));
    }
    EXPECT_EQ(pool.stats().in_use, base.in_use + n);
    for (MemAliasThread* t : ts) delete t;
    const MemAliasPool::Stats s = pool.stats();
    EXPECT_EQ(s.in_use, base.in_use);
    EXPECT_GE(s.high_water, base.in_use + n);
    EXPECT_TRUE(s.bounded()) << s.file_slots << " slots for a high water of "
                             << s.high_water;
  }

  // A storm returns every slot its memory-alias workers took, and says so.
  mfc::chaos::StormOptions opt;
  opt.seed = 11;
  opt.npes = 4;
  opt.workers = 12;
  opt.rounds = 8;
  const mfc::chaos::StormReport r = mfc::chaos::run_storm(opt);
  EXPECT_TRUE(r.stack_pool_balanced);
  EXPECT_TRUE(r.clean());
  const MemAliasPool::Stats s = pool.stats();
  EXPECT_EQ(s.in_use, base.in_use);
  EXPECT_TRUE(s.bounded());
}

}  // namespace
