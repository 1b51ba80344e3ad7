// Property/fuzz tests for migratable threads: random techniques, stack
// depths, yield schedules, and pack points — the invariant is always the
// same: a thread's observable state is identical whether or not it was
// packed, serialized, and resumed in between.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "iso/heap.h"
#include "migrate/checkpoint.h"
#include "migrate/iso_thread.h"
#include "migrate/manifest.h"
#include "migrate/memalias_thread.h"
#include "migrate/migratable.h"
#include "migrate/stackcopy_thread.h"
#include "pup/pup.h"
#include "ult/scheduler.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace {

using mfc::migrate::CodecError;
using mfc::migrate::ImageManifest;
using mfc::migrate::IsoThread;
using mfc::migrate::MemAliasThread;
using mfc::migrate::MigratableThread;
using mfc::migrate::StackCopyThread;
using mfc::ult::Scheduler;
using mfc::ult::State;

class MigrateFuzz : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    mfc::iso::Region::Config cfg;
    cfg.npes = 2;
    cfg.slot_bytes = 64 * 1024;
    cfg.slots_per_pe = 1024;
    mfc::iso::Region::init(cfg);
  }
  void TearDown() override { mfc::iso::Region::shutdown(); }
};

/// The workload: recurse to a random depth (building stack state with
/// self-referential pointers at every level), checksum on the way down,
/// suspend a random number of times at the bottom, verify on the way up.
struct Workload {
  Scheduler* sched;
  int depth;
  int suspends;
  std::uint64_t expected;
  std::uint64_t computed = 0;
  bool finished = false;
  bool verified = true;

  static std::uint64_t mix(std::uint64_t h, int level) {
    return h * 1099511628211ULL + static_cast<std::uint64_t>(level) + 1;
  }

  void recurse(int level, std::uint64_t hash) {
    long frame_mark = 0xF00D + level;
    long* self = &frame_mark;
    hash = mix(hash, level);
    if (level < depth) {
      recurse(level + 1, hash);
    } else {
      computed = hash;
      for (int s = 0; s < suspends; ++s) sched->suspend();  // pack points
    }
    // Unwinding after resumption: every frame's local state must be intact.
    verified = verified && (*self == 0xF00D + level) && (self == &frame_mark);
  }

  void run() {
    recurse(0, 14695981039346656037ULL);
    finished = true;
  }
};

MigratableThread* make_thread(int technique, std::function<void()> fn,
                              std::size_t stack_bytes) {
  switch (technique) {
    case 0: return new IsoThread(std::move(fn), 0, stack_bytes);
    case 1: return new StackCopyThread(std::move(fn), stack_bytes);
    default: return new MemAliasThread(std::move(fn), stack_bytes);
  }
}

TEST_P(MigrateFuzz, RandomDepthsAndPackPoints) {
  mfc::SplitMix64 rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  for (int round = 0; round < 6; ++round) {
    Scheduler sched;
    const int technique = static_cast<int>(rng.next_below(3));
    const int depth = 1 + static_cast<int>(rng.next_below(120));
    const int suspends = 1 + static_cast<int>(rng.next_below(4));

    Workload w;
    w.sched = &sched;
    w.depth = depth;
    w.suspends = suspends;
    // Reference hash, computed without any threading.
    std::uint64_t h = 14695981039346656037ULL;
    for (int level = 0; level <= depth; ++level) h = Workload::mix(h, level);
    w.expected = h;

    MigratableThread* t =
        make_thread(technique, [&w] { w.run(); }, 192 * 1024);
    sched.ready(t);
    sched.run_until_idle();

    // Pack/serialize/unpack at a random subset of the suspend points.
    for (int s = 0; s < suspends; ++s) {
      ASSERT_EQ(t->state(), State::kSuspended);
      if (rng.next_below(2) == 0) {
        auto wire = t->pack();
        delete t;
        ImageManifest arrived;
        ASSERT_EQ(ImageManifest::decode(wire, &arrived), CodecError::kOk);
        t = MigratableThread::unpack(arrived,
                                     static_cast<int>(rng.next_below(2)));
      }
      sched.ready(t);
      sched.run_until_idle();
    }

    EXPECT_TRUE(w.finished) << "technique=" << technique << " depth=" << depth;
    EXPECT_TRUE(w.verified) << "frame state corrupted after migration";
    EXPECT_EQ(w.computed, w.expected);
    EXPECT_EQ(t->state(), State::kDone);
    delete t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MigrateFuzz, ::testing::Range(1, 13));

// Interleaving fuzz: several migratable threads of mixed techniques yield
// in random schedules; every thread's private counter must stay private.
class InterleaveFuzz : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    mfc::iso::Region::Config cfg;
    cfg.npes = 1;
    cfg.slot_bytes = 64 * 1024;
    cfg.slots_per_pe = 1024;
    mfc::iso::Region::init(cfg);
  }
  void TearDown() override { mfc::iso::Region::shutdown(); }
};

TEST_P(InterleaveFuzz, MixedTechniquesKeepPrivateState) {
  mfc::SplitMix64 rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  Scheduler sched;
  constexpr int kThreads = 9;
  std::vector<long> finals(kThreads, -1);
  std::vector<long> expected(kThreads, 0);
  std::vector<MigratableThread*> ts;
  for (int i = 0; i < kThreads; ++i) {
    const int yields = 3 + static_cast<int>(rng.next_below(20));
    expected[static_cast<std::size_t>(i)] = i * 1000L + static_cast<long>(yields) * (i + 1);
    ts.push_back(make_thread(i % 3,
                             [&sched, &finals, i, yields] {
                               long acc = i * 1000;
                               for (int y = 0; y < yields; ++y) {
                                 acc += i + 1;
                                 sched.yield();
                               }
                               finals[static_cast<std::size_t>(i)] = acc;
                             },
                             64 * 1024));
  }
  // Random ready order.
  std::vector<int> order(kThreads);
  for (int i = 0; i < kThreads; ++i) order[static_cast<std::size_t>(i)] = i;
  for (int i = kThreads - 1; i > 0; --i) {
    std::swap(order[static_cast<std::size_t>(i)],
              order[rng.next_below(static_cast<std::uint64_t>(i + 1))]);
  }
  for (int i : order) sched.ready(ts[static_cast<std::size_t>(i)]);
  sched.run_until_idle();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(finals[static_cast<std::size_t>(i)],
              expected[static_cast<std::size_t>(i)])
        << "thread " << i << " state was corrupted or lost";
  }
  for (auto* t : ts) delete t;
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterleaveFuzz, ::testing::Range(1, 9));

// ---- Scatter-gather manifest equivalence (labeled migrate-perf) ----
//
// Every ship path must put the same bytes on the wire: pack(), the
// manifest's to_wire() and its zero-copy span list, for every technique,
// including payloads full of NaN/inf bit patterns and images with zero heap
// runs. Decoding those bytes in place and re-gathering the decoded manifest
// must reproduce them exactly.

class ManifestEquiv : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    mfc::iso::Region::Config cfg;
    cfg.npes = 2;
    cfg.slot_bytes = 64 * 1024;
    cfg.slots_per_pe = 1024;
    mfc::iso::Region::init(cfg);
  }
  void TearDown() override { mfc::iso::Region::shutdown(); }
};

/// Parks with IEEE specials and a patterned array live in the frame, then
/// verifies all of it (including the NaN payload bits) after resumption.
/// The array spans two 4 KiB pages, so every image carries whole pages of
/// live stack, like the storm's ~11 KB images.
struct SpecialsWorkload {
  static constexpr int kPatternLongs = 1024;

  Scheduler* sched;
  bool with_heap = false;
  bool finished = false;
  bool verified = false;

  void run() {
    double specials[4] = {std::nan("0x7ff"), HUGE_VAL, -HUGE_VAL, -0.0};
    long pattern[kPatternLongs];
    for (int i = 0; i < kPatternLongs; ++i) pattern[i] = 0x5EED0000L + i;
    char* heap_data = nullptr;
    if (with_heap) {
      heap_data = static_cast<char*>(mfc::iso::routed_malloc(3000));
      std::memset(heap_data, 0xA5, 3000);
    }
    sched->suspend();  // ---- packed and compared here ----
    bool ok = std::isnan(specials[0]) && std::isinf(specials[1]) &&
              specials[1] > 0 && std::isinf(specials[2]) && specials[2] < 0 &&
              std::signbit(specials[3]);
    for (int i = 0; i < kPatternLongs; ++i) {
      ok = ok && pattern[i] == 0x5EED0000L + i;
    }
    if (heap_data != nullptr) {
      for (int i = 0; i < 3000; ++i) {
        ok = ok && heap_data[i] == static_cast<char>(0xA5);
      }
      mfc::iso::routed_free(heap_data);
    }
    verified = ok;
    finished = true;
  }
};

/// Corruption corpus over a shipped image wire: every case is a damage
/// shape a migration can suffer in transit or in a racing gather, and each
/// must change the CRC-32C the storm's receiver checks.
void expect_corruptions_move_crc(const std::vector<char>& wire) {
  constexpr std::size_t kPage = 4096;
  constexpr std::size_t kBlock = 64;
  // Iso and memalias images carry long runs of unused, zero stack; aim the
  // multi-byte cases at the live frames, which end at the last non-zero
  // byte.
  std::size_t live_end = wire.size();
  while (live_end > 0 && wire[live_end - 1] == 0) --live_end;
  ASSERT_GE(live_end, kPage) << "image holds less than a page of live bytes";

  std::vector<std::pair<std::string, std::vector<char>>> corpus;
  for (const std::size_t off : {std::size_t{0}, wire.size() / 2,
                                wire.size() - 1}) {
    std::vector<char> c = wire;
    c[off] = static_cast<char>(c[off] ^ 0x01);
    corpus.emplace_back("flip byte " + std::to_string(off), std::move(c));
  }
  corpus.emplace_back("drop last byte",
                      std::vector<char>(wire.begin(), wire.end() - 1));
  {
    // A page that reads back as zeros: what a gather that raced the
    // source's evacuation (a MAP_FIXED remap) would put on the wire.
    std::vector<char> c = wire;
    std::memset(c.data() + live_end - kPage, 0, kPage);
    corpus.emplace_back("zero 4 KiB page", std::move(c));
  }
  {
    std::vector<char> c = wire;
    std::swap_ranges(c.begin(), c.begin() + kBlock,
                     c.begin() + static_cast<std::ptrdiff_t>(live_end - kBlock));
    corpus.emplace_back("swap two 64 B blocks", std::move(c));
  }

  const std::uint32_t good = mfc::crc32(wire.data(), wire.size());
  for (const auto& [name, bad] : corpus) {
    ASSERT_NE(bad, wire) << name << " left the wire unchanged";
    EXPECT_NE(mfc::crc32(bad.data(), bad.size()), good)
        << name << " (wire " << wire.size() << " B) kept the CRC";
  }
}

TEST_P(ManifestEquiv, IovecWireMatchesBlobWireExactly) {
  const int technique = GetParam() % 3;
  const bool with_heap = GetParam() >= 3;  // iso-only heap-run variant
  Scheduler sched;
  SpecialsWorkload w;
  w.sched = &sched;
  w.with_heap = with_heap;
  MigratableThread* t =
      make_thread(technique, [&w] { w.run(); }, 64 * 1024);
  sched.ready(t);
  sched.run_until_idle();
  ASSERT_EQ(t->state(), State::kSuspended);

  // Gather the iovec view first (non-destructive: the thread stays parked).
  mfc::migrate::ImageManifest m = t->pack_manifest();
  if (technique != 0) {
    // Stack-copy / memory-alias images carry no heap slots at all: the
    // zero-length-region case of the manifest codec.
    EXPECT_TRUE(m.heap_slots.empty()) << "expected a zero-heap-run image";
  }
  if (with_heap) ASSERT_FALSE(m.heap_slots.empty());
  std::uint32_t gather_crc = 0;
  const std::vector<char> iovec_wire = m.to_wire(&gather_crc);
  EXPECT_EQ(iovec_wire.size(), m.wire_size());
  // The storm's sender CRCs the zero-copy span list span by span, while the
  // spans still borrow the parked thread's memory.
  std::vector<char> scratch;
  std::uint32_t span_crc = 0;
  for (const mfc::migrate::IoRun& r : m.wire_spans(&scratch)) {
    span_crc = mfc::crc32(r.data, r.len, span_crc);
  }

  // The migration pack of the very same suspend point.
  const std::vector<char> packed = t->pack();

  ASSERT_EQ(iovec_wire.size(), packed.size());
  EXPECT_TRUE(std::memcmp(iovec_wire.data(), packed.data(), packed.size()) ==
              0)
      << "technique " << technique << " pack() diverged from the gather";
  const std::uint32_t wire_crc = mfc::crc32(packed.data(), packed.size());
  EXPECT_EQ(gather_crc, wire_crc);
  // ...and its receiver checks one crc32 over the arrived wire.
  EXPECT_EQ(span_crc, wire_crc);
  expect_corruptions_move_crc(packed);

  // The packed bytes are the shipping format: arrive, decode in place
  // (re-gathering the decoded manifest reproduces them exactly), unpack,
  // resume.
  delete t;
  ImageManifest arrived;
  ASSERT_EQ(ImageManifest::decode(packed, &arrived), CodecError::kOk);
  EXPECT_TRUE(arrived.to_wire() == packed)
      << "technique " << technique << " decode/re-gather changed the bytes";
  t = MigratableThread::unpack(arrived, /*dest_pe=*/1);
  sched.ready(t);
  sched.run_until_idle();
  EXPECT_EQ(t->state(), State::kDone);
  EXPECT_TRUE(w.finished);
  EXPECT_TRUE(w.verified) << "NaN/inf or pattern payload corrupted";
  delete t;
}

// Params 0..2 = technique with no heap use (iso case has zero heap runs);
// param 3 = isomalloc with a live heap slot (heap runs on the wire).
INSTANTIATE_TEST_SUITE_P(Techniques, ManifestEquiv, ::testing::Range(0, 4));

// ---- Golden wire vectors (labeled migrate-perf) ----
//
// A thread image's wire bytes and a checkpoint's frame bytes are formats:
// other processes, buddy memory and files hold them. They are frozen here
// as hex, taken from the two-encoder code that preceded the single pack
// path (an owning image type copied through pup::to_bytes, and a
// Checkpoint of such images). The manifest is built by hand over two
// static runs, with no thread and no isomalloc region, so the frame's
// region stamp is zero.

// The image wire, field by field (x86-64, little-endian).
constexpr char kGoldenWire[] =
    "01"                                          // technique: isomalloc
    "efcdab8967452301"                            // thread_id
    "0000000000000440"                            // accumulated_load 2.5
    "78563412007f0000"                            // saved_sp
    "010000000700000001000000"                    // stack_slot {1, 7, 1}
    "0100000000000000010000002a00000002000000"    // heap_slots {{1, 42, 2}}
    "0200000000000000"                            // run count
    "1800000000000000"                            // run 0: 24 bytes
    "737461636b2072756e3a203234206c697665206279746573"
    "1000000000000000"                            // run 1: 16 bytes
    "6865617020736c6f742c203136204221"
    "0000000000000000"                            // stack_bytes: empty
    "0000000000000000"                            // stack_capacity
    "0000000000000000";                           // arena_base

// The checkpoint frame: header, zero region stamp, one image, user data.
constexpr char kGoldenFrameHead[] =
    "4b43464d"                                    // magic "MFCK"
    "02000000"                                    // version 2
    "be00000000000000"                            // payload_len 190
    "201892c5"                                    // CRC-32C of the payload
    "01"                                          // stamped
    "000000000000000000000000000000000000000000000000"  // region stamp
    "0100000000000000";                           // image count
constexpr char kGoldenFrameTail[] =
    "0400000000000000"                            // user data: 4 bytes
    "6d666321";                                   // "mfc!"

std::string hex(const std::vector<char>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(2 * bytes.size());
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

TEST(GoldenWire, ManifestImageAndCheckpointBytesAreFrozen) {
  static const char kStackRun[] = "stack run: 24 live bytes";
  static const char kHeapRun[] = "heap slot, 16 B!";
  mfc::migrate::ImageManifest m;
  m.technique = mfc::migrate::Technique::kIsomalloc;
  m.thread_id = 0x0123456789abcdefULL;
  m.accumulated_load = 2.5;
  m.saved_sp = 0x00007f0012345678ULL;
  m.stack_slot = {1, 7, 1};
  m.heap_slots = {{1, 42, 2}};
  m.runs = {{kStackRun, sizeof kStackRun - 1}, {kHeapRun, sizeof kHeapRun - 1}};

  const std::vector<char> wire = m.to_wire();
  EXPECT_EQ(wire.size(), 145u);
  EXPECT_EQ(hex(wire), kGoldenWire);

  // Decoding in place and re-gathering reproduces the same bytes, and the
  // decoded runs point into the wire buffer itself.
  ImageManifest image;
  ASSERT_EQ(ImageManifest::decode(wire, &image), CodecError::kOk);
  EXPECT_EQ(hex(image.to_wire()), kGoldenWire);
  ASSERT_EQ(image.runs.size(), 2u);
  EXPECT_EQ(image.runs[0].data, wire.data() + 73);
  EXPECT_EQ(image.runs[1].data, wire.data() + 105);

  mfc::migrate::Checkpoint ckpt;
  ckpt.add_manifest(m);
  ckpt.set_user_data({'m', 'f', 'c', '!'});
  const std::vector<char> frame = ckpt.encode();
  EXPECT_EQ(frame.size(), 210u);
  EXPECT_EQ(hex(frame), std::string(kGoldenFrameHead) + kGoldenWire +
                            kGoldenFrameTail);
}

}  // namespace
