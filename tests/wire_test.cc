// Wire codec tests (labeled transport): the shm ring frame codec.
//
// Every cross-process message travels as frames in a shm::RingView: a
// 56-byte header and its payload copied in from a span list, possibly
// split by the ring's wrap point, and made visible by one tail store.
// These tests drive RingView directly, over a ring in ordinary memory whose
// head and tail start at any chosen byte offset, and assert that frames
// come out byte-identical wherever the wrap cuts them, that a skipped or
// empty payload keeps the framing, that a drained ring stops cleanly at a
// frame boundary, that a frame is visible only once published, and that a
// push is all-or-nothing.
#include "converse/shmring.h"
#include "converse/wire.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "util/rng.h"

namespace {

using namespace mfc::converse::wire;
using mfc::SplitMix64;
using mfc::converse::shm::RingCtrl;
using mfc::converse::shm::RingView;

std::vector<char> patterned(std::size_t n, std::uint64_t salt) {
  std::vector<char> v(n);
  SplitMix64 rng(salt);
  for (auto& b : v) b = static_cast<char>(rng.next());
  return v;
}

Header make_header(std::uint64_t payload_len, std::uint32_t seq) {
  Header h;
  h.kind = static_cast<std::uint32_t>(Kind::kEager);
  h.handler = seq;
  h.src_pe = static_cast<std::int32_t>(seq % 7);
  h.dest_pe = static_cast<std::int32_t>(seq % 5);
  h.payload_len = payload_len;
  h.total_len = payload_len;
  h.msg_id = 0x1234567800ULL + seq;
  h.trace_flow = seq * 3;
  return h;
}

bool same_header(const Header& a, const Header& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;  // fixed layout, no padding
}

/// A ring in ordinary memory whose head and tail both start at byte
/// position `start`, with separate producer and consumer views over it
/// (as the transport has: the views live in different processes).
struct TestRing {
  RingCtrl ctrl;
  std::vector<char> data;
  RingView prod;
  RingView cons;

  TestRing(std::uint64_t capacity, std::uint64_t start) : data(capacity) {
    RingView(&ctrl, data.data()).init(capacity);
    ctrl.head.store(start);
    ctrl.tail.store(start);
    prod = RingView(&ctrl, data.data());
    cons = RingView(&ctrl, data.data());
  }
};

/// Collects every popped frame. With `skip` set, on_header returns nullptr
/// and the ring must step over the payload without copying it.
struct CollectSink {
  struct Frame {
    Header h;
    std::vector<char> payload;
    bool skipped = false;
  };
  std::vector<Frame> frames;
  bool skip = false;
  std::vector<char> landing;

  char* on_header(const Header& h) {
    if (skip) return nullptr;
    landing.assign(h.payload_len, '\0');
    return landing.data();
  }
  void on_frame(const Header& h, char* payload) {
    Frame f;
    f.h = h;
    f.skipped = payload == nullptr;
    if (payload != nullptr && h.payload_len != 0) {
      f.payload.assign(payload, payload + h.payload_len);
    }
    frames.push_back(std::move(f));
  }
};

TEST(Wire, SpansGatherMatchesConcatenation) {
  const std::vector<char> a = patterned(13, 1), b = patterned(0, 2),
                          c = patterned(77, 3);
  const Span spans[] = {{a.data(), a.size()}, {b.data(), b.size()},
                        {c.data(), c.size()}};
  ASSERT_EQ(spans_total(spans, 3), a.size() + c.size());
  std::vector<char> out(spans_total(spans, 3));
  spans_gather(out.data(), spans, 3);
  std::vector<char> expect = a;
  expect.insert(expect.end(), c.begin(), c.end());
  EXPECT_EQ(out, expect);
}

TEST(Wire, RingFramesStraddlingTheWrapReassembleAtEveryOffset) {
  // A 256-byte ring started at every byte offset: depending on the offset
  // the wrap falls before the frame, inside its header or inside its
  // payload. The largest payload fills the ring exactly.
  constexpr std::uint64_t kCap = 256;
  const std::uint64_t lens[] = {0, 1, 55, 56, 57, 100, kCap - sizeof(Header)};
  for (std::uint64_t start = 0; start < kCap; ++start) {
    for (const std::uint64_t len : lens) {
      TestRing ring(kCap, start);
      // Three spans, the middle one empty, cut at an offset-dependent point.
      const std::vector<char> payload = patterned(len, start * 31 + len);
      const std::size_t cut = len == 0 ? 0 : start % len;
      const Span spans[] = {{payload.data(), cut},
                            {payload.data() + cut, 0},
                            {payload.data() + cut, len - cut}};
      const Header h = make_header(len, static_cast<std::uint32_t>(start));
      ASSERT_TRUE(ring.prod.try_push(h, spans, 3));
      CollectSink sink;
      ASSERT_TRUE(ring.cons.try_pop(sink));
      ASSERT_EQ(sink.frames.size(), 1u);
      ASSERT_TRUE(same_header(sink.frames[0].h, h))
          << "start " << start << " len " << len;
      ASSERT_EQ(sink.frames[0].payload, payload)
          << "start " << start << " len " << len;
      EXPECT_TRUE(ring.cons.empty());
      EXPECT_FALSE(ring.cons.try_pop(sink));
      EXPECT_EQ(ring.ctrl.head.load(), start + sizeof(Header) + len);
    }
  }
}

TEST(Wire, EofAtFrameBoundaryIsCleanAndScratchPathWorks) {
  // A consumer whose on_header returns nullptr (no destination: the
  // transport's path for an orphan chunk tail) gets the header and a null
  // payload, and the ring steps over the payload even where the wrap cuts
  // it. The drained ring then stops cleanly at the frame boundary: pop
  // finds nothing and consumes nothing, and the next frame pops intact.
  constexpr std::uint64_t kCap = 256;
  const std::vector<char> payload = patterned(64, 41);
  const Span span{payload.data(), payload.size()};
  // Wrap before the frame, inside its header, inside its payload, after it.
  const std::uint64_t starts[] = {0, 230, kCap - sizeof(Header) - 10,
                                  kCap - sizeof(Header) - 64};
  for (const std::uint64_t start : starts) {
    TestRing ring(kCap, start);
    const Header h = make_header(payload.size(), 1);
    ASSERT_TRUE(ring.prod.try_push(h, &span, 1));
    CollectSink sink;
    sink.skip = true;
    ASSERT_TRUE(ring.cons.try_pop(sink)) << "start " << start;
    ASSERT_EQ(sink.frames.size(), 1u);
    EXPECT_TRUE(same_header(sink.frames[0].h, h)) << "start " << start;
    EXPECT_TRUE(sink.frames[0].skipped) << "start " << start;
    const std::uint64_t boundary = start + sizeof(Header) + payload.size();
    EXPECT_EQ(ring.ctrl.head.load(), boundary) << "start " << start;

    EXPECT_TRUE(ring.cons.empty());
    EXPECT_FALSE(ring.cons.try_pop(sink));
    EXPECT_EQ(ring.ctrl.head.load(), boundary) << "an empty pop moved head";
    ASSERT_EQ(sink.frames.size(), 1u);

    const Header h2 = make_header(payload.size(), 2);
    ASSERT_TRUE(ring.prod.try_push(h2, &span, 1));
    sink.skip = false;
    ASSERT_TRUE(ring.cons.try_pop(sink)) << "start " << start;
    ASSERT_EQ(sink.frames.size(), 2u);
    EXPECT_TRUE(same_header(sink.frames[1].h, h2)) << "start " << start;
    EXPECT_EQ(sink.frames[1].payload, payload) << "start " << start;
    EXPECT_TRUE(ring.cons.empty());
  }
}

TEST(Wire, EmptyPayloadFrames) {
  // Header-only frames (no spans at all) take exactly one header's room and
  // pop in order with an empty payload, across the wrap too.
  constexpr std::uint64_t kCap = 256;
  const std::uint64_t starts[] = {0, kCap - 20};
  for (const std::uint64_t start : starts) {
    TestRing ring(kCap, start);
    const Header h3 = make_header(0, 3), h4 = make_header(0, 4);
    ASSERT_TRUE(ring.prod.try_push(h3, nullptr, 0));
    ASSERT_TRUE(ring.prod.try_push(h4, nullptr, 0));
    EXPECT_EQ(ring.ctrl.tail.load(), start + 2 * sizeof(Header));
    CollectSink sink;
    while (ring.cons.try_pop(sink)) {
    }
    ASSERT_EQ(sink.frames.size(), 2u) << "start " << start;
    EXPECT_TRUE(same_header(sink.frames[0].h, h3)) << "start " << start;
    EXPECT_TRUE(same_header(sink.frames[1].h, h4)) << "start " << start;
    EXPECT_TRUE(sink.frames[0].payload.empty());
    EXPECT_TRUE(sink.frames[1].payload.empty());
    EXPECT_TRUE(ring.cons.empty());
  }
}

TEST(Wire, FuzzSeededSplitPoints) {
  // 32 seeded trials on a 2 KiB ring at a seeded start offset, so the wrap
  // splits frames at seeded points: each trial queues frames built from
  // random span lists (empty spans and empty payloads included) until the
  // ring refuses one, then pops them all. Every other pop skips its payload
  // (on_header returns nullptr, as for an orphan chunk tail): the frames
  // after it must still decode.
  constexpr std::uint64_t kCap = 2048;
  for (std::uint64_t trial = 0; trial < 32; ++trial) {
    SplitMix64 rng(0xA11CE + trial * 0x9e3779b97f4a7c15ULL);
    TestRing ring(kCap, rng.next_below(4 * kCap));
    std::vector<Header> headers;
    std::vector<std::vector<char>> expected;
    for (std::uint32_t f = 0;; ++f) {
      const std::size_t nspans = rng.next_below(5);  // 0..4 spans
      std::vector<std::vector<char>> parts;
      std::vector<char> concat;
      for (std::size_t s = 0; s < nspans; ++s) {
        const std::size_t len =
            rng.next_below(4) == 0 ? 0 : rng.next_below(100);
        parts.push_back(patterned(len, rng.next()));
        concat.insert(concat.end(), parts.back().begin(), parts.back().end());
      }
      std::vector<Span> spans;
      for (const auto& p : parts) spans.push_back({p.data(), p.size()});
      const Header h = make_header(concat.size(), f);
      if (!ring.prod.try_push(h, spans.data(), spans.size())) break;
      headers.push_back(h);
      expected.push_back(std::move(concat));
    }
    ASSERT_GE(headers.size(), 3u) << "trial " << trial;
    CollectSink sink;
    for (std::size_t f = 0; f < headers.size(); ++f) {
      sink.skip = f % 2 == 1;
      ASSERT_TRUE(ring.cons.try_pop(sink)) << "trial " << trial;
    }
    EXPECT_TRUE(ring.cons.empty()) << "trial " << trial;
    ASSERT_EQ(sink.frames.size(), headers.size());
    for (std::size_t f = 0; f < headers.size(); ++f) {
      ASSERT_TRUE(same_header(sink.frames[f].h, headers[f]))
          << "trial " << trial << " frame " << f;
      if (f % 2 == 1) {
        EXPECT_TRUE(sink.frames[f].skipped);
      } else {
        ASSERT_EQ(sink.frames[f].payload, expected[f])
            << "trial " << trial << " frame " << f;
      }
    }
  }
}

TEST(Wire, RingUnpublishedFrameStaysInvisibleUntilPublish) {
  // The transport pushes a frame with publish=false, runs the sender's
  // on_consumed callback, then publishes. Until then the consumer must see
  // nothing — at any ring position, wrapped or not.
  constexpr std::uint64_t kCap = 256;
  for (const std::uint64_t start : {0ull, 100ull, 230ull, 255ull}) {
    TestRing ring(kCap, start);
    const std::vector<char> payload = patterned(120, start);
    const Span span{payload.data(), payload.size()};
    const Header h = make_header(payload.size(), 9);
    ASSERT_TRUE(ring.prod.try_push(h, &span, 1, /*publish=*/false));
    CollectSink sink;
    EXPECT_TRUE(ring.cons.empty()) << "start " << start;
    EXPECT_FALSE(ring.cons.try_pop(sink)) << "start " << start;
    EXPECT_EQ(ring.ctrl.tail.load(), start);
    // The producer's own shadow already counts the frame: a second frame
    // that would fit an empty ring does not fit behind it.
    const std::vector<char> big = patterned(kCap - sizeof(Header), 1);
    const Span big_span{big.data(), big.size()};
    EXPECT_FALSE(ring.prod.try_push(make_header(big.size(), 10), &big_span, 1));

    ring.prod.publish();
    EXPECT_FALSE(ring.cons.empty());
    ASSERT_TRUE(ring.cons.try_pop(sink));
    ASSERT_EQ(sink.frames.size(), 1u);
    EXPECT_TRUE(same_header(sink.frames[0].h, h));
    EXPECT_EQ(sink.frames[0].payload, payload);
    EXPECT_TRUE(ring.cons.empty());
  }
}

TEST(Wire, RingTryPushRefusesAFrameThatDoesNotFitUntilAPop) {
  // Fill a 512-byte ring with 100-byte frames (56 + 44) until one is
  // refused. A refusal writes nothing: the frames already queued still
  // pop intact. One pop frees exactly one frame's room.
  constexpr std::uint64_t kCap = 512;
  TestRing ring(kCap, 300);
  const std::vector<char> payload = patterned(44, 5);
  const Span span{payload.data(), payload.size()};
  std::uint32_t pushed = 0;
  while (ring.prod.try_push(make_header(payload.size(), pushed), &span, 1)) {
    ++pushed;
  }
  ASSERT_EQ(pushed, kCap / 100);
  const std::uint64_t tail = ring.ctrl.tail.load();
  EXPECT_FALSE(
      ring.prod.try_push(make_header(payload.size(), pushed), &span, 1));
  EXPECT_EQ(ring.ctrl.tail.load(), tail) << "a refused push moved the tail";

  CollectSink sink;
  ASSERT_TRUE(ring.cons.try_pop(sink));
  ASSERT_TRUE(
      ring.prod.try_push(make_header(payload.size(), pushed), &span, 1));
  EXPECT_FALSE(ring.prod.try_push(make_header(payload.size(), pushed + 1),
                                  &span, 1));
  while (ring.cons.try_pop(sink)) {
  }
  ASSERT_EQ(sink.frames.size(), static_cast<std::size_t>(pushed) + 1);
  for (std::uint32_t f = 0; f <= pushed; ++f) {
    EXPECT_EQ(sink.frames[f].h.handler, f) << "frame " << f;
    EXPECT_EQ(sink.frames[f].payload, payload) << "frame " << f;
  }
  EXPECT_TRUE(ring.cons.empty());
}

}  // namespace
