// What a thread image carries (labeled migrate-perf): only live bytes. A
// stack run starts at the saved stack pointer, whichever the technique, and
// an isomalloc heap run is its arena's extent (iso/heap.h): the slot base
// through the header of the free tail block. The heap tests read the
// extent from outside, as the address where the next allocation's payload
// begins, and follow it as a thread allocates and frees; after arrival the
// bytes past it read as the install's zero-fill pages.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "iso/heap.h"
#include "migrate/common_arena.h"
#include "migrate/iso_thread.h"
#include "migrate/manifest.h"
#include "migrate/memalias_thread.h"
#include "migrate/migratable.h"
#include "migrate/stackcopy_thread.h"
#include "ult/scheduler.h"

namespace {

using mfc::iso::Region;
using mfc::iso::routed_free;
using mfc::iso::routed_malloc;
using mfc::migrate::CodecError;
using mfc::migrate::CommonStackArena;
using mfc::migrate::ImageManifest;
using mfc::migrate::IoRun;
using mfc::migrate::IsoThread;
using mfc::migrate::MemAliasThread;
using mfc::migrate::MigratableThread;
using mfc::migrate::StackCopyThread;
using mfc::migrate::Technique;
using mfc::ult::Scheduler;
using mfc::ult::State;

constexpr std::size_t kSlot = 16 * 1024;
constexpr std::size_t kStack = 16 * 1024;

class ImageShape : public ::testing::Test {
 protected:
  void SetUp() override {
    Region::Config cfg;
    cfg.npes = 2;
    cfg.slot_bytes = kSlot;
    cfg.slots_per_pe = 256;
    Region::init(cfg);
  }
  void TearDown() override { Region::shutdown(); }
};

char* slot_base(const mfc::iso::SlotId& id) {
  return static_cast<char*>(Region::instance().slot_base(id));
}

/// Where the thread's next allocation of 16 bytes would begin: allocated
/// and freed at once, so the heap is left as it was.
void* probe_next_block() {
  void* q = routed_malloc(16);
  routed_free(q);
  return q;
}

TEST_F(ImageShape, StackRunsStartAtTheSavedStackPointer) {
  Scheduler sched;
  void* next_block = nullptr;
  int frames_intact = 0;
  auto body = [&](bool heap) {
    volatile char frame[512];  // live across the suspend
    for (std::size_t i = 0; i < sizeof frame; ++i) frame[i] = 1;
    void* p = heap ? routed_malloc(1000) : nullptr;
    sched.suspend();
    frames_intact += frame[0] == 1 && frame[sizeof frame - 1] == 1;
    if (heap) {
      next_block = probe_next_block();
      routed_free(p);
    }
  };
  MigratableThread* threads[] = {
      new StackCopyThread([&] { body(false); }, kStack),
      new MemAliasThread([&] { body(false); }, kStack),
      new IsoThread([&] { body(true); }, 0, kStack)};
  for (MigratableThread* t : threads) sched.ready(t);
  sched.run_until_idle();

  std::size_t heap_run = 0;
  char* heap_base = nullptr;
  for (MigratableThread* t : threads) {
    SCOPED_TRACE(to_string(t->technique()));
    ASSERT_EQ(t->state(), State::kSuspended);
    const ImageManifest m = t->pack_manifest();
    std::uint64_t top = 0;
    IoRun stack = m.stack_run;
    switch (t->technique()) {
      case Technique::kStackCopy:
        top = reinterpret_cast<std::uint64_t>(CommonStackArena::stack_copy().top());
        break;
      case Technique::kMemAlias:
        top = reinterpret_cast<std::uint64_t>(CommonStackArena::mem_alias().top());
        break;
      case Technique::kIsomalloc:
        top = reinterpret_cast<std::uint64_t>(slot_base(m.stack_slot)) +
              Region::instance().slot_span(m.stack_slot);
        ASSERT_EQ(m.runs.size(), 2u);
        stack = m.runs[0];
        heap_run = m.runs[1].len;
        heap_base = slot_base(m.heap_slots[0]);
        break;
    }
    EXPECT_EQ(stack.len, top - m.saved_sp)
        << "the stack run is not the bytes from the saved stack pointer up";
    EXPECT_GT(stack.len, 512u);
    EXPECT_LT(stack.len, kStack);
  }
  for (MigratableThread* t : threads) sched.ready(t);
  sched.run_until_idle();
  for (MigratableThread* t : threads) {
    EXPECT_EQ(t->state(), State::kDone);
    delete t;
  }
  EXPECT_EQ(frames_intact, 3);
  EXPECT_EQ(heap_base + heap_run, next_block)
      << "the heap run does not end where the free tail's payload begins";
  EXPECT_LT(heap_run, kSlot);
}

/// An isomalloc thread that runs each step the test hands it and parks
/// after it, so the test can read the thread's manifest between steps.
class ScriptedIsoThread {
 public:
  explicit ScriptedIsoThread(Scheduler& sched)
      : sched_(sched),
        t_(new IsoThread(
            [this] {
              while (!quit_) {
                step_();
                sched_.suspend();
              }
            },
            0, kStack)) {}
  ~ScriptedIsoThread() {
    quit_ = true;
    step_ = [] {};
    sched_.ready(t_);
    sched_.run_until_idle();
    EXPECT_EQ(t_->state(), State::kDone);
    delete t_;
  }

  /// Runs `step` in the thread, then returns the parked thread's heap
  /// runs.
  std::vector<IoRun> run(std::function<void()> step) {
    step_ = std::move(step);
    sched_.ready(t_);
    sched_.run_until_idle();
    EXPECT_EQ(t_->state(), State::kSuspended);
    manifest_ = t_->pack_manifest();
    return {manifest_.runs.begin() + 1, manifest_.runs.end()};
  }
  char* arena_base(std::size_t i) const {
    return slot_base(manifest_.heap_slots.at(i));
  }

 private:
  Scheduler& sched_;
  bool quit_ = false;
  std::function<void()> step_;
  IsoThread* t_;
  ImageManifest manifest_;
};

TEST_F(ImageShape, HeapRunFollowsTheArenasFreeTail) {
  Scheduler sched;
  ScriptedIsoThread thread(sched);
  void* next = nullptr;
  auto probe = [&] { next = probe_next_block(); };

  // An empty arena ships its header and the one free block's header.
  std::vector<IoRun> heap = thread.run(probe);
  ASSERT_EQ(heap.size(), 1u);
  const std::size_t empty = heap[0].len;
  EXPECT_EQ(thread.arena_base(0) + empty, next);
  EXPECT_LT(empty, 256u);

  void* a = nullptr;
  void* b = nullptr;
  heap = thread.run([&] {
    a = routed_malloc(1000);
    probe();
  });
  const std::size_t after_a = heap[0].len;
  EXPECT_EQ(thread.arena_base(0) + after_a, next);
  EXPECT_GE(after_a, empty + 1000);

  heap = thread.run([&] {
    b = routed_malloc(3000);
    probe();
  });
  EXPECT_EQ(thread.arena_base(0) + heap[0].len, next);
  EXPECT_GE(heap[0].len, after_a + 3000);

  // Freeing the last block coalesces it back into the tail.
  heap = thread.run([&] { routed_free(b); });
  EXPECT_EQ(heap[0].len, after_a);
  heap = thread.run([&] { routed_free(a); });
  EXPECT_EQ(heap[0].len, empty);

  heap = thread.run([&] {
    a = routed_malloc(2000);
    probe();
  });
  const std::size_t after_c = heap[0].len;
  EXPECT_EQ(thread.arena_base(0) + after_c, next);

  // The tail's whole payload taken: no free tail, the arena ships whole.
  heap = thread.run([&] { b = routed_malloc(kSlot - after_c); });
  ASSERT_EQ(heap.size(), 1u);
  EXPECT_EQ(heap[0].len, kSlot);

  // A block that fills a grown two-slot arena: it ships whole too.
  void* big = nullptr;
  heap = thread.run([&] { big = routed_malloc(2 * kSlot - empty); });
  ASSERT_EQ(heap.size(), 2u);
  EXPECT_EQ(heap[0].len, kSlot);
  EXPECT_EQ(heap[1].len, 2 * kSlot);

  // A grown arena with room to spare ships through its free tail.
  void* spare = nullptr;
  heap = thread.run([&] {
    spare = routed_malloc(kSlot);
    probe();
  });
  ASSERT_EQ(heap.size(), 3u);
  EXPECT_EQ(thread.arena_base(2) + heap[2].len, next);
  EXPECT_LT(heap[2].len, 2 * kSlot);
  EXPECT_GE(heap[2].len, kSlot + empty);

  thread.run([&] {
    for (void* p : {a, b, big, spare}) routed_free(p);
  });
}

TEST_F(ImageShape, HeapArrivesWithItsLiveBlocksAndAZeroTail) {
  constexpr std::size_t kKeep = 512;
  constexpr std::size_t kGone = 4096;
  Scheduler sched;
  unsigned char* keep = nullptr;
  unsigned char* gone = nullptr;
  bool intact = false;
  bool zero_tail = false;
  bool allocates = false;
  auto* t = new IsoThread(
      [&] {
        keep = static_cast<unsigned char*>(routed_malloc(kKeep));
        std::memset(keep, 0x5A, kKeep);
        gone = static_cast<unsigned char*>(routed_malloc(kGone));
        std::memset(gone, 0xA5, kGone);
        routed_free(gone);  // coalesces into the free tail
        sched.suspend();
        // Arrived. The freed block's payload lies past the extent, so it
        // did not ship: it reads as the install's zero-fill pages.
        intact = std::all_of(keep, keep + kKeep,
                             [](unsigned char c) { return c == 0x5A; });
        zero_tail = std::all_of(gone, gone + kGone,
                                [](unsigned char c) { return c == 0; });
        auto* p = static_cast<unsigned char*>(routed_malloc(6000));
        std::memset(p, 1, 6000);
        allocates = p != nullptr && mfc::iso::Region::instance().contains(p);
        routed_free(p);
        routed_free(keep);
      },
      0, kStack);
  sched.ready(t);
  sched.run_until_idle();
  ASSERT_EQ(t->state(), State::kSuspended);

  const std::vector<char> wire = t->pack();
  delete t;
  ImageManifest arrived;
  ASSERT_EQ(ImageManifest::decode(wire, &arrived), CodecError::kOk);
  ASSERT_EQ(arrived.runs.size(), 2u);
  EXPECT_EQ(slot_base(arrived.heap_slots[0]) + arrived.runs[1].len,
            reinterpret_cast<char*>(gone))
      << "the heap run does not end at the free tail's payload";
  MigratableThread* t2 = MigratableThread::unpack(arrived, 1);
  sched.ready(t2);
  sched.run_until_idle();
  EXPECT_EQ(t2->state(), State::kDone);
  EXPECT_TRUE(intact) << "a live block changed in transit";
  EXPECT_TRUE(zero_tail) << "the freed tail's old payload shipped";
  EXPECT_TRUE(allocates);
  delete t2;
}

}  // namespace
