// Fuzz of the thread-image decoder (labeled migrate-perf): the bytes it
// reads come from other PEs, other processes and buddy stores, so it must
// return a typed error and never crash. Modeled on the checkpoint frame
// fuzz (checkpoint_ft_test.cc): every truncation of the golden 145-byte
// wire and of a real image of each technique is an error, and every
// single-byte flip is either an error or an image whose runs all lie
// inside the buffer — with no container sized by a flipped length.
#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <utility>
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

using mfc::migrate::CodecError;
using mfc::migrate::ImageManifest;
using mfc::migrate::IoRun;
using mfc::migrate::MigratableThread;
using mfc::ult::Scheduler;

/// Decodes `size` bytes at `data`. Whatever the verdict, the manifest's
/// containers (the only memory decode() allocates) hold no more entries
/// than the bytes could: a heap slot takes 12 bytes and a run at least its
/// 8-byte length word, and push_back at most doubles. A container sized by
/// a length word would blow through that. On success every run must also
/// lie inside the buffer.
CodecError decode_checked(const char* data, std::size_t size,
                          const std::string& what) {
  ImageManifest m;
  const CodecError err = ImageManifest::decode(data, size, &m);
  EXPECT_LE(m.heap_slots.capacity(), 2 * (size / 12) + 1) << what;
  EXPECT_LE(m.runs.capacity(), 2 * (size / 8) + 1) << what;
  if (err != CodecError::kOk) return err;
  auto inside = [&](const IoRun& r) {
    return r.data >= data && r.len <= size &&
           r.data + r.len <= data + size;
  };
  EXPECT_TRUE(inside(m.stack_run)) << what << ": stack run out of bounds";
  for (const IoRun& r : m.runs) {
    EXPECT_TRUE(inside(r)) << what << ": run out of bounds";
  }
  return err;
}

/// The golden wire of migrate_property_test.cc's GoldenWire test.
std::vector<char> golden_wire() {
  static const char kStackRun[] = "stack run: 24 live bytes";
  static const char kHeapRun[] = "heap slot, 16 B!";
  ImageManifest m;
  m.technique = mfc::migrate::Technique::kIsomalloc;
  m.thread_id = 0x0123456789abcdefULL;
  m.accumulated_load = 2.5;
  m.saved_sp = 0x00007f0012345678ULL;
  m.stack_slot = {1, 7, 1};
  m.heap_slots = {{1, 42, 2}};
  m.runs = {{kStackRun, sizeof kStackRun - 1}, {kHeapRun, sizeof kHeapRun - 1}};
  return m.to_wire();
}

class ImageDecode : public ::testing::Test {
 protected:
  void SetUp() override {
    mfc::iso::Region::Config cfg;
    cfg.npes = 2;
    cfg.slot_bytes = 16 * 1024;
    cfg.slots_per_pe = 256;
    mfc::iso::Region::init(cfg);
  }
  void TearDown() override { mfc::iso::Region::shutdown(); }

  /// The golden wire plus a packed, suspended thread of each technique
  /// (the isomalloc one with a live heap slot), with their names.
  std::vector<std::pair<std::string, std::vector<char>>> corpus() {
    std::vector<std::pair<std::string, std::vector<char>>> out;
    out.emplace_back("golden", golden_wire());
    Scheduler sched;
    auto body = [&sched](bool heap) {
      void* p = heap ? mfc::iso::routed_malloc(1000) : nullptr;
      sched.suspend();
      if (p != nullptr) mfc::iso::routed_free(p);
    };
    MigratableThread* threads[] = {
        new mfc::migrate::IsoThread([&] { body(true); }, 0, 16 * 1024),
        new mfc::migrate::StackCopyThread([&] { body(false); }, 16 * 1024),
        new mfc::migrate::MemAliasThread([&] { body(false); }, 16 * 1024)};
    for (MigratableThread* t : threads) sched.ready(t);
    sched.run_until_idle();
    for (MigratableThread* t : threads) {
      out.emplace_back(to_string(t->technique()), t->pack());
      delete t;
    }
    return out;
  }
};

TEST_F(ImageDecode, RealImagesDecodeInPlace) {
  for (const auto& [name, wire] : corpus()) {
    ImageManifest m;
    ASSERT_EQ(ImageManifest::decode(wire, &m), CodecError::kOk) << name;
    EXPECT_EQ(m.to_wire(), wire) << name << ": decode/re-gather diverged";
    EXPECT_EQ(decode_checked(wire.data(), wire.size(), name), CodecError::kOk);
  }
}

TEST_F(ImageDecode, RejectsEveryTruncation) {
  for (const auto& [name, wire] : corpus()) {
    for (std::size_t len = 0; len < wire.size(); ++len) {
      // An exact-size copy, so nothing past the cut is readable in bounds.
      const std::vector<char> cut(wire.begin(),
                                  wire.begin() + static_cast<long>(len));
      const CodecError err = decode_checked(cut.data(), cut.size(), name);
      ASSERT_TRUE(err == CodecError::kTruncated || err == CodecError::kOverrun)
          << name << " truncated to " << len << " bytes: " << to_string(err);
    }
  }
}

TEST_F(ImageDecode, EverySingleByteFlipIsTypedOrInBounds) {
  for (auto& [name, wire] : corpus()) {
    for (std::size_t i = 0; i < wire.size(); ++i) {
      wire[i] = static_cast<char>(wire[i] ^ 0xFF);
      decode_checked(wire.data(), wire.size(),
                     name + " flip at " + std::to_string(i));
      wire[i] = static_cast<char>(wire[i] ^ 0xFF);
      if (HasFailure()) return;
    }
  }
}

/// Each malformation has its own error, at a known offset of the golden
/// wire (see its field-by-field hex in migrate_property_test.cc).
TEST_F(ImageDecode, NamesEachMalformation) {
  const std::vector<char> wire = golden_wire();
  ImageManifest m;
  std::vector<char> bad = wire;
  bad.push_back('\0');
  EXPECT_EQ(ImageManifest::decode(bad, &m), CodecError::kTrailingBytes);
  std::size_t used = 0;
  EXPECT_EQ(ImageManifest::decode(bad.data(), bad.size(), &m, &used),
            CodecError::kOk);
  EXPECT_EQ(used, wire.size()) << "a prefix decode reports the image length";

  bad = wire;
  bad[0] = 3;  // technique
  EXPECT_EQ(ImageManifest::decode(bad, &m), CodecError::kBadTechnique);

  bad = wire;
  bad[37 + 7] = 0x40;  // heap slot count's top byte
  EXPECT_EQ(ImageManifest::decode(bad, &m), CodecError::kOverrun);

  bad = wire;
  bad[65] = 25;  // run 0 length: one byte more than the run holds
  EXPECT_NE(ImageManifest::decode(bad, &m), CodecError::kOk);
  bad[65 + 7] = 0x7f;  // run 0 length's top byte
  EXPECT_EQ(ImageManifest::decode(bad, &m), CodecError::kOverrun);

  bad = wire;
  bad[0] = 0;  // stack-copy: isomalloc runs do not fit its layout
  EXPECT_EQ(ImageManifest::decode(bad, &m), CodecError::kBadShape);

  // A stack-copy or memory-alias image is its technique's live arena stack
  // in this process: the run fits its capacity word (no larger than the
  // common arena, a whole number of pages for memory-alias, since the
  // destination takes a pool slot that big), its arena base is this
  // process's arena, and its saved stack pointer is the run's first byte
  // there. Each is checked before any thread is sized or resumed by it.
  using mfc::migrate::CommonStackArena;
  using mfc::migrate::Technique;
  const auto pg = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::vector<char> stack(3 * pg, 'x');
  const auto arena = [](Technique t) -> const CommonStackArena& {
    return t == Technique::kMemAlias ? CommonStackArena::mem_alias()
                                     : CommonStackArena::stack_copy();
  };
  auto image = [&](Technique t, std::size_t run, std::uint64_t capacity) {
    ImageManifest s;
    s.technique = t;
    s.stack_run = {stack.data(), run};
    s.stack_capacity = capacity;
    s.arena_base = reinterpret_cast<std::uint64_t>(arena(t).base());
    s.saved_sp = reinterpret_cast<std::uint64_t>(arena(t).top()) - run;
    return s;
  };
  for (const Technique t : {Technique::kMemAlias, Technique::kStackCopy}) {
    SCOPED_TRACE(to_string(t));
    EXPECT_EQ(ImageManifest::decode(image(t, 2 * pg, 2 * pg).to_wire(), &m),
              CodecError::kOk);
    EXPECT_EQ(ImageManifest::decode(image(t, 200, 2 * pg).to_wire(), &m),
              CodecError::kOk)
        << "a live run shorter than its capacity";
    EXPECT_EQ(ImageManifest::decode(image(t, 3 * pg, 2 * pg).to_wire(), &m),
              CodecError::kBadShape)
        << "run longer than its capacity";
    EXPECT_EQ(ImageManifest::decode(
                  image(t, 0, CommonStackArena::kCapacity + pg).to_wire(), &m),
              CodecError::kBadShape)
        << "capacity larger than the arena";

    ImageManifest bad_sp = image(t, 200, 2 * pg);
    bad_sp.saved_sp += 8;
    EXPECT_EQ(ImageManifest::decode(bad_sp.to_wire(), &m),
              CodecError::kBadShape)
        << "saved stack pointer above the run";
    bad_sp.saved_sp -= 16;
    EXPECT_EQ(ImageManifest::decode(bad_sp.to_wire(), &m),
              CodecError::kBadShape)
        << "saved stack pointer below the run";
    bad_sp.saved_sp = 0;
    EXPECT_EQ(ImageManifest::decode(bad_sp.to_wire(), &m),
              CodecError::kBadShape)
        << "saved stack pointer outside the arena";

    const Technique other = t == Technique::kMemAlias ? Technique::kStackCopy
                                                      : Technique::kMemAlias;
    ImageManifest bad_base = image(t, 200, 2 * pg);
    const ImageManifest there = image(other, 200, 2 * pg);
    bad_base.arena_base = there.arena_base;
    bad_base.saved_sp = there.saved_sp;  // consistent with that arena
    EXPECT_EQ(ImageManifest::decode(bad_base.to_wire(), &m),
              CodecError::kBadShape)
        << "the other technique's arena";
    bad_base.arena_base = 0;
    bad_base.saved_sp = CommonStackArena::kCapacity - 200;
    EXPECT_EQ(ImageManifest::decode(bad_base.to_wire(), &m),
              CodecError::kBadShape)
        << "an arena this process does not have";
  }
  EXPECT_EQ(ImageManifest::decode(
                image(Technique::kMemAlias, 0, 1ULL << 40).to_wire(), &m),
            CodecError::kBadShape)
      << "hostile capacity word";
  EXPECT_EQ(ImageManifest::decode(
                image(Technique::kMemAlias, pg - 96, pg - 96).to_wire(), &m),
            CodecError::kBadShape)
      << "memory-alias capacity not a page multiple";
  EXPECT_EQ(ImageManifest::decode(
                image(Technique::kStackCopy, pg - 96, pg - 96).to_wire(), &m),
            CodecError::kOk)
      << "a stack-copy capacity needs no page rounding";

  // Each isomalloc run fits the slot run it lands in (16 KiB slots here):
  // the stack run its stack slot, each heap run its heap slots.
  const std::vector<char> big(3 * 16 * 1024, 'y');
  auto iso = [&big](std::size_t stack_len, std::size_t heap_len) {
    ImageManifest s;
    s.technique = Technique::kIsomalloc;
    s.stack_slot = {1, 7, 1};
    s.heap_slots = {{1, 42, 2}};
    s.runs = {{big.data(), stack_len}, {big.data(), heap_len}};
    return s.to_wire();
  };
  EXPECT_EQ(ImageManifest::decode(iso(16 * 1024, 32 * 1024), &m),
            CodecError::kOk)
      << "runs that fill their slot runs";
  EXPECT_EQ(ImageManifest::decode(iso(16 * 1024 + 1, 16), &m),
            CodecError::kBadShape)
      << "stack run longer than its stack slot";
  EXPECT_EQ(ImageManifest::decode(iso(24, 32 * 1024 + 1), &m),
            CodecError::kBadShape)
      << "heap run longer than its heap slots";
}

// An isomalloc image's slot ids are checked against the region (npes 2,
// 256 slots per PE) before any install could touch it: a PE outside the
// machine, an empty run, or a run past the end of its strip is kBadSlot.
// Index 4,000,000,000 used to decode and then crash the install.
TEST_F(ImageDecode, NamesSlotIdsOutsideTheRegion) {
  static const char kRun[] = "bytes";
  auto image = [](mfc::iso::SlotId stack, mfc::iso::SlotId heap) {
    ImageManifest s;
    s.technique = mfc::migrate::Technique::kIsomalloc;
    s.stack_slot = stack;
    s.heap_slots = {heap};
    s.runs = {{kRun, 5}, {kRun, 5}};
    return s.to_wire();
  };
  const mfc::iso::SlotId good{1, 7, 1};
  ImageManifest m;
  EXPECT_EQ(ImageManifest::decode(image(good, {0, 254, 2}), &m),
            CodecError::kOk)
      << "a run that ends at the strip's end fits";
  const struct {
    mfc::iso::SlotId id;
    const char* why;
  } bad[] = {
      {{2, 0, 1}, "pe == npes"},
      {{-1, 0, 1}, "negative pe"},
      {{0, 0, 0}, "count 0"},
      {{0, 255, 2}, "run past the strip's end"},
      {{0, 4000000000u, 1}, "index far outside the strip"},
      {{0, 1, 0xffffffffu}, "count that wraps a 32-bit sum"},
  };
  for (const auto& b : bad) {
    EXPECT_EQ(ImageManifest::decode(image(b.id, good), &m),
              CodecError::kBadSlot)
        << "stack slot: " << b.why;
    EXPECT_EQ(ImageManifest::decode(image(good, b.id), &m),
              CodecError::kBadSlot)
        << "heap slot: " << b.why;
  }
}

}  // namespace
