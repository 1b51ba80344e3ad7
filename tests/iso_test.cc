// Isomalloc region and thread-heap tests (paper §3.4.2).
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "expect_segv.h"
#include "iso/heap.h"
#include "iso/region.h"
#include "util/rng.h"

namespace {

using mfc::iso::Region;
using mfc::iso::SlotId;
using mfc::iso::ThreadHeap;

class IsoFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Region::Config cfg;
    cfg.npes = 4;
    cfg.slot_bytes = 64 * 1024;
    cfg.slots_per_pe = 256;
    Region::init(cfg);
  }
  void TearDown() override { Region::shutdown(); }
};

TEST_F(IsoFixture, SlotAddressesAreMachineWideUnique) {
  Region& r = Region::instance();
  std::set<void*> seen;
  std::vector<SlotId> ids;
  for (int pe = 0; pe < 4; ++pe) {
    for (int i = 0; i < 10; ++i) {
      SlotId id = r.acquire(pe);
      EXPECT_TRUE(seen.insert(r.slot_base(id)).second)
          << "slot address reused across PEs";
      ids.push_back(id);
    }
  }
  for (auto id : ids) r.release(id);
}

TEST_F(IsoFixture, SlotAddressIsAPureFunctionOfIdentity) {
  Region& r = Region::instance();
  SlotId id = r.acquire(2);
  void* addr = r.slot_base(id);
  // Identity → address never changes, even after evacuate/install cycles
  // (this is the invariant that makes pointer-fixup-free migration work).
  std::memset(addr, 0xAB, r.slot_span(id));
  r.evacuate(id);
  r.install(id);
  EXPECT_EQ(r.slot_base(id), addr);
  // Freshly installed pages are zero (old physical pages were dropped).
  EXPECT_EQ(static_cast<char*>(addr)[0], 0);
  r.release(id);
}

TEST_F(IsoFixture, EvacuateDropsAndInstallRestoresWritability) {
  Region& r = Region::instance();
  SlotId id = r.acquire(0);
  auto* p = static_cast<char*>(r.slot_base(id));
  p[0] = 42;
  r.evacuate(id);
  r.install(id);
  p[0] = 43;  // must not fault
  EXPECT_EQ(p[0], 43);
  r.release(id);
}

// The safety property of evacuation: an evacuated slot holds no pages, and
// any touch of it raises SIGSEGV instead of reading stale or fresh memory.
volatile char* evacuated_slot(Region& r, SlotId& id) {
  id = r.acquire(1);
  auto* p = static_cast<volatile char*>(r.slot_base(id));
  p[0] = 1;
  p[r.slot_span(id) - 1] = 2;
  r.evacuate(id);
  return p;
}

TEST_F(IsoFixture, EvacuatedSlotFaultsInProcess) {
  // Threadsafe death tests re-run this body in a fresh process, so the
  // evacuation happens in the very process that then touches the slot.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Region& r = Region::instance();
  SlotId id;
  volatile char* p = evacuated_slot(r, id);
  const std::size_t last = r.slot_span(id) - 1;
  EXPECT_SEGV((void)p[0]);
  EXPECT_SEGV((void)p[last]);
  EXPECT_SEGV(p[0] = 3);
  EXPECT_SEGV(p[last] = 3);
  r.install(id);
  r.release(id);
}

TEST_F(IsoFixture, EvacuatedSlotFaultsInAChildForkedAfterward) {
  // Fast death tests fork the dying child from this process after the
  // evacuation: the multi-process machine's view of a departed thread.
  ::testing::FLAGS_gtest_death_test_style = "fast";
  Region& r = Region::instance();
  SlotId id;
  volatile char* p = evacuated_slot(r, id);
  EXPECT_SEGV((void)p[0]);
  EXPECT_SEGV(p[0] = 3);
  r.install(id);
  r.release(id);
}

TEST_F(IsoFixture, EvacuatedSlotFaultsAfterAnInstallCycle) {
  Region& r = Region::instance();
  SlotId id;
  volatile char* p = evacuated_slot(r, id);
  r.install(id);
  p[0] = 4;  // installed: writable again
  r.evacuate(id);
  EXPECT_SEGV((void)p[0]);
  EXPECT_SEGV(p[0] = 5);
  r.install(id);
  EXPECT_EQ(p[0], 0);
  r.release(id);
}

TEST_F(IsoFixture, ContiguousMultiSlotAcquisition) {
  Region& r = Region::instance();
  SlotId big = r.acquire(1, 8);
  EXPECT_EQ(big.count, 8u);
  EXPECT_EQ(r.slot_span(big), 8 * 64 * 1024u);
  // The whole span is writable and contiguous.
  std::memset(r.slot_base(big), 1, r.slot_span(big));
  r.release(big);
}

TEST_F(IsoFixture, StripExhaustionIsDetected) {
  Region& r = Region::instance();
  std::vector<SlotId> ids;
  for (int i = 0; i < 256; ++i) ids.push_back(r.acquire(3));
  EXPECT_FALSE(r.try_acquire(3).valid());
  EXPECT_EQ(r.free_slots(3), 0u);
  // Other strips are unaffected — per-PE partitioning.
  EXPECT_TRUE(r.try_acquire(2).valid());
  for (auto id : ids) r.release(id);
  EXPECT_EQ(r.free_slots(3), 256u);
}

TEST_F(IsoFixture, ContainsIdentifiesRegionPointers) {
  Region& r = Region::instance();
  SlotId id = r.acquire(0);
  EXPECT_TRUE(r.contains(r.slot_base(id)));
  int local = 0;
  EXPECT_FALSE(r.contains(&local));
  r.release(id);
}

TEST_F(IsoFixture, HeapBasicAllocFree) {
  ThreadHeap heap(0);
  void* a = heap.malloc(100);
  void* b = heap.malloc(200);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_TRUE(heap.owns(a));
  EXPECT_TRUE(heap.owns(b));
  EXPECT_EQ(heap.allocation_count(), 2u);
  std::memset(a, 1, 100);
  std::memset(b, 2, 200);
  heap.free(a);
  heap.free(b);
  EXPECT_EQ(heap.allocation_count(), 0u);
  EXPECT_EQ(heap.live_bytes(), 0u);
}

TEST_F(IsoFixture, HeapAlignmentIs16Bytes) {
  ThreadHeap heap(0);
  for (std::size_t sz : {1u, 7u, 16u, 17u, 100u, 4096u}) {
    void* p = heap.malloc(sz);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 16, 0u) << sz;
    heap.free(p);
  }
}

TEST_F(IsoFixture, HeapCoalescingPreventsFragmentationDeath) {
  ThreadHeap heap(0);
  const std::size_t before = heap.footprint();
  // Alloc/free cycles of a size near the slot capacity must reuse memory
  // rather than growing arenas forever.
  for (int i = 0; i < 100; ++i) {
    void* p = heap.malloc(40 * 1024);
    heap.free(p);
  }
  EXPECT_EQ(heap.footprint(), before);
}

TEST_F(IsoFixture, HeapGrowsWithMultiSlotArenasForBigBlocks) {
  ThreadHeap heap(0);
  void* big = heap.malloc(200 * 1024);  // > one 64 KB slot
  ASSERT_NE(big, nullptr);
  std::memset(big, 3, 200 * 1024);
  EXPECT_TRUE(heap.owns(big));
  heap.free(big);
}

TEST_F(IsoFixture, HeapReallocPreservesData) {
  ThreadHeap heap(0);
  char* p = static_cast<char*>(heap.malloc(64));
  std::memset(p, 7, 64);
  char* q = static_cast<char*>(heap.realloc(p, 4096));
  for (int i = 0; i < 64; ++i) ASSERT_EQ(q[i], 7);
  heap.free(q);
}

TEST_F(IsoFixture, CallocZeroes) {
  ThreadHeap heap(0);
  auto* p = static_cast<unsigned char*>(heap.calloc(100, 8));
  for (int i = 0; i < 800; ++i) ASSERT_EQ(p[i], 0);
  heap.free(p);
}

TEST_F(IsoFixture, RoutedAllocationFollowsThreadContext) {
  ThreadHeap heap(1);
  EXPECT_EQ(mfc::iso::current_heap(), nullptr);
  void* outside = mfc::iso::routed_malloc(32);  // libc path
  EXPECT_FALSE(Region::instance().contains(outside));

  mfc::iso::set_current_heap(&heap);
  void* inside = mfc::iso::routed_malloc(32);  // iso path
  EXPECT_TRUE(Region::instance().contains(inside));
  mfc::iso::set_current_heap(nullptr);

  // free() routes by address, regardless of current context.
  mfc::iso::routed_free(inside);
  mfc::iso::routed_free(outside);
  EXPECT_EQ(heap.allocation_count(), 0u);
}

TEST_F(IsoFixture, ReattachRebuildsHeapFromSlotMemory) {
  auto* heap = new ThreadHeap(0);
  char* p = static_cast<char*>(heap->malloc(128));
  std::memset(p, 9, 128);
  const auto slots = heap->slots();
  const auto live = heap->live_bytes();
  heap->abandon();
  delete heap;

  ThreadHeap* re = ThreadHeap::reattach(0, slots);
  EXPECT_EQ(re->live_bytes(), live);
  EXPECT_EQ(re->allocation_count(), 1u);
  for (int i = 0; i < 128; ++i) ASSERT_EQ(p[i], 9);  // data untouched
  re->free(p);
  EXPECT_EQ(re->allocation_count(), 0u);
  delete re;
}

TEST_F(IsoFixture, HeapPropertyRandomizedWorkload) {
  ThreadHeap heap(2);
  mfc::SplitMix64 rng(99);
  struct Alloc {
    unsigned char* p;
    std::size_t n;
    unsigned char tag;
  };
  std::vector<Alloc> live;
  for (int step = 0; step < 3000; ++step) {
    if (live.empty() || rng.next_below(100) < 60) {
      const std::size_t n = 1 + rng.next_below(3000);
      auto* p = static_cast<unsigned char*>(heap.malloc(n));
      const auto tag = static_cast<unsigned char>(rng.next());
      std::memset(p, tag, n);
      live.push_back({p, n, tag});
    } else {
      const auto idx = rng.next_below(live.size());
      Alloc a = live[idx];
      // Contents must be intact (no allocator overlap/corruption).
      for (std::size_t i = 0; i < a.n; i += 97) ASSERT_EQ(a.p[i], a.tag);
      heap.free(a.p);
      live[idx] = live.back();
      live.pop_back();
    }
  }
  EXPECT_EQ(heap.allocation_count(), live.size());
  for (auto& a : live) heap.free(a.p);
  EXPECT_EQ(heap.live_bytes(), 0u);
}

TEST(IsoNoRegion, DoubleInitAborts) {
  Region::Config cfg;
  cfg.npes = 1;
  cfg.slots_per_pe = 4;
  Region::init(cfg);
  EXPECT_DEATH(Region::init(cfg), "twice");
  Region::shutdown();
}

}  // namespace
