// Checkpoint codec + error-path tests for the ft layer (labeled `ft`).
//
// The framed codec (magic / version / payload_len / crc32) is the trust
// boundary between the PUP layer and bytes that arrive from storage or a
// buddy PE: the fuzz tests below walk every truncation length and every
// single-byte flip of a real frame and require a typed error — never a
// crash, never a silent kOk.
//
// Death tests exercise the MFC_CHECK guards behind restore: geometry
// mismatch (restoring under a different isomalloc reservation) and
// installing a checkpoint image over a still-live thread. They fork, so
// they are compiled out under ThreadSanitizer (MFC_TSAN).
#include "migrate/checkpoint.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "iso/region.h"
#include "migrate/iso_thread.h"
#include "migrate/migratable.h"
#include "ult/scheduler.h"

namespace {

using mfc::migrate::Checkpoint;
using mfc::migrate::CodecError;
using mfc::migrate::IsoThread;
using mfc::migrate::MigratableThread;
using mfc::ult::Scheduler;
using mfc::ult::State;

class CheckpointFtFixture : public ::testing::Test {
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

std::vector<char> patterned_user_data(std::size_t n) {
  std::vector<char> bytes(n);
  for (std::size_t i = 0; i < n; ++i)
    bytes[i] = static_cast<char>((i * 131) ^ (i >> 3));
  return bytes;
}

/// Parks one IsoThread that writes `tag` into *out when resumed, and adds
/// it to `ckpt` destructively (pack + delete, migration-to-memory style).
void park_and_add(Scheduler& sched, Checkpoint& ckpt, int* out, int tag) {
  auto* t = new IsoThread(
      [&sched, out, tag] {
        sched.suspend();  // ---- checkpointed here ----
        *out = tag;
      },
      /*birth_pe=*/0);
  sched.ready(t);
  sched.run_until_idle();
  ASSERT_EQ(t->state(), State::kSuspended);
  ckpt.add(t);
  delete t;
}

TEST_F(CheckpointFtFixture, EncodeDecodeRoundTripsThreadsAndUserData) {
  Scheduler sched;
  int result = 0;
  Checkpoint ckpt;
  park_and_add(sched, ckpt, &result, 42);
  const std::vector<char> user = patterned_user_data(777);
  ckpt.set_user_data(user);

  const std::vector<char> frame = ckpt.encode();
  ASSERT_GT(frame.size(), user.size());

  Checkpoint back;
  ASSERT_EQ(Checkpoint::decode(frame, &back), CodecError::kOk);
  EXPECT_EQ(back.user_data(), user);
  ASSERT_EQ(back.thread_count(), 1u);

  // The decoded checkpoint restores a runnable thread at the original
  // addresses — resume it and let it prove its state survived the frame.
  std::vector<MigratableThread*> threads = back.restore_all(0);
  ASSERT_EQ(threads.size(), 1u);
  sched.ready(threads[0]);
  sched.run_until_idle();
  EXPECT_EQ(threads[0]->state(), State::kDone);
  EXPECT_EQ(result, 42);
  delete threads[0];
}

TEST_F(CheckpointFtFixture, DecodeRejectsEveryTruncation) {
  Checkpoint ckpt;
  ckpt.set_user_data(patterned_user_data(1024));
  const std::vector<char> frame = ckpt.encode();

  for (std::size_t len = 0; len < frame.size(); ++len) {
    Checkpoint out;
    const CodecError err = Checkpoint::decode(frame.data(), len, &out);
    ASSERT_NE(err, CodecError::kOk) << "truncation to " << len << " bytes";
  }
}

TEST_F(CheckpointFtFixture, DecodeRejectsEverySingleByteFlip) {
  Checkpoint ckpt;
  ckpt.set_user_data(patterned_user_data(1024));
  const std::vector<char> frame = ckpt.encode();

  // Frame layout: [magic 0..4)[version 4..8)[payload_len 8..16)[crc 16..20).
  for (std::size_t i = 0; i < frame.size(); ++i) {
    std::vector<char> bad = frame;
    bad[i] = static_cast<char>(bad[i] ^ 0xFF);
    Checkpoint out;
    const CodecError err = Checkpoint::decode(bad, &out);
    CodecError want;
    if (i < 4) {
      want = CodecError::kBadMagic;
    } else if (i < 8) {
      want = CodecError::kBadVersion;
    } else if (i < 16) {
      want = CodecError::kTruncated;  // declared length no longer matches
    } else {
      want = CodecError::kBadCrc;  // crc field or payload byte
    }
    ASSERT_EQ(err, want) << "flip at offset " << i;
  }
}

TEST_F(CheckpointFtFixture, DecodeRejectsForeignBytes) {
  const std::vector<char> noise = patterned_user_data(256);
  Checkpoint out;
  EXPECT_EQ(Checkpoint::decode(noise, &out), CodecError::kBadMagic);
  EXPECT_EQ(Checkpoint::decode(noise.data(), 3, &out), CodecError::kTruncated);
}

TEST_F(CheckpointFtFixture, GatherEncodeMatchesLegacyEncodeExactly) {
  // Both capture styles feed one encoder and must frame the same bytes:
  // borrowed manifests (non-destructive, the ft capture path) and
  // destructive add() ("migration to disk") of the very same suspend
  // points. This is what lets a capture pick either style without
  // versioning the frame.
  Scheduler sched;
  int r1 = 0, r2 = 0;
  auto* a = new IsoThread(
      [&sched, &r1] {
        sched.suspend();
        r1 = 11;
      },
      /*birth_pe=*/0);
  auto* b = new IsoThread(
      [&sched, &r2] {
        sched.suspend();
        r2 = 22;
      },
      /*birth_pe=*/1);
  sched.ready(a);
  sched.ready(b);
  sched.run_until_idle();
  ASSERT_EQ(a->state(), State::kSuspended);
  ASSERT_EQ(b->state(), State::kSuspended);
  const std::vector<char> user = patterned_user_data(333);

  // Zero-copy: borrow manifests straight off the parked threads.
  const mfc::migrate::ImageManifest ma = a->pack_manifest();
  const mfc::migrate::ImageManifest mb = b->pack_manifest();
  Checkpoint gather;
  gather.set_user_data(user);
  gather.add_manifest(ma);
  gather.add_manifest(mb);
  EXPECT_EQ(gather.thread_count(), 2u);
  const std::vector<char> gather_frame = gather.encode();

  // Destructive capture of the same threads.
  Checkpoint packed;
  packed.set_user_data(user);
  packed.add(a);
  packed.add(b);
  delete a;
  delete b;
  const std::vector<char> packed_frame = packed.encode();
  ASSERT_EQ(gather_frame.size(), packed_frame.size());
  EXPECT_EQ(gather_frame, packed_frame);

  // And the gather frame is a real checkpoint: decode, restore, resume.
  Checkpoint back;
  ASSERT_EQ(Checkpoint::decode(gather_frame, &back), CodecError::kOk);
  EXPECT_EQ(back.user_data(), user);
  std::vector<MigratableThread*> threads = back.restore_all(0);
  ASSERT_EQ(threads.size(), 2u);
  for (auto* t : threads) sched.ready(t);
  sched.run_until_idle();
  EXPECT_EQ(r1, 11);
  EXPECT_EQ(r2, 22);
  for (auto* t : threads) delete t;
}

#ifndef MFC_TSAN

TEST_F(CheckpointFtFixture, RestoreUnderDifferentGeometryDies) {
  Scheduler sched;
  int result = 0;
  Checkpoint ckpt;
  park_and_add(sched, ckpt, &result, 1);

  // Serialize so the child can restore from bytes after remapping the
  // region — exactly the "restore into a wrong-shaped process" mistake.
  const std::vector<char> frame = ckpt.encode();
  EXPECT_DEATH(
      {
        Checkpoint loaded;
        if (Checkpoint::decode(frame, &loaded) != CodecError::kOk) abort();
        mfc::iso::Region::shutdown();
        mfc::iso::Region::Config other;
        other.npes = 4;
        other.slot_bytes = 128 * 1024;  // different slot size than SetUp()
        other.slots_per_pe = 256;
        mfc::iso::Region::init(other);
        loaded.restore_all(0);
      },
      "geometry");
}

TEST_F(CheckpointFtFixture, RestoreOverLiveThreadDies) {
  Scheduler sched;
  bool resumed = false;
  auto* t = new IsoThread(
      [&sched, &resumed] {
        sched.suspend();
        resumed = true;
      },
      /*birth_pe=*/0);
  sched.ready(t);
  sched.run_until_idle();
  ASSERT_EQ(t->state(), State::kSuspended);

  // Non-destructive capture (the ft layer's checkpoint path): the thread
  // stays live and keeps its slots.
  const mfc::migrate::ImageManifest m = t->pack_manifest();
  Checkpoint captured;
  captured.add_manifest(m);
  Checkpoint ckpt;
  ASSERT_EQ(Checkpoint::decode(captured.encode(), &ckpt), CodecError::kOk);

  // Restoring the checkpoint copy while `t` still owns the slots must
  // abort at the residency guard, not corrupt the running thread's stack.
  EXPECT_DEATH(ckpt.restore_all(0), "resident slot");

  sched.ready(t);
  sched.run_until_idle();
  EXPECT_EQ(t->state(), State::kDone);
  EXPECT_TRUE(resumed);
  delete t;
}

#endif  // MFC_TSAN

}  // namespace
