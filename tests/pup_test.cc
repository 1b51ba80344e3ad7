// PUP framework round-trip tests (paper §3.1.1).
#include "pup/pup.h"

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "util/digest.h"
#include "util/rng.h"

namespace {

using namespace mfc;

struct Inner {
  int a = 0;
  std::string label;
  void pup(pup::Er& p) { p | a | label; }
  bool operator==(const Inner&) const = default;
};

struct Outer {
  double x = 0;
  std::vector<Inner> inners;
  std::map<std::string, int> index;
  std::vector<std::uint8_t> raw;
  void pup(pup::Er& p) { p | x | inners | index | raw; }
  bool operator==(const Outer&) const = default;
};

TEST(Pup, ScalarRoundTrip) {
  double v = 3.25;
  auto bytes = pup::to_bytes(v);
  EXPECT_EQ(bytes.size(), sizeof(double));
  double w = 0;
  pup::from_bytes(bytes, w);
  EXPECT_EQ(w, 3.25);
}

TEST(Pup, StringRoundTripIncludingEmpty) {
  for (std::string s : {std::string{}, std::string{"hello"},
                        std::string(10000, 'x')}) {
    auto bytes = pup::to_bytes(s);
    std::string t = "garbage";
    pup::from_bytes(bytes, t);
    EXPECT_EQ(s, t);
  }
}

TEST(Pup, NestedUserTypes) {
  Outer o;
  o.x = -1.5;
  o.inners = {{1, "one"}, {2, "two"}, {3, ""}};
  o.index = {{"alpha", 10}, {"beta", 20}};
  o.raw = {0, 255, 7};
  auto bytes = pup::to_bytes(o);
  Outer p;
  pup::from_bytes(bytes, p);
  EXPECT_EQ(o, p);
}

TEST(Pup, SizerMatchesPackerExactly) {
  Outer o;
  o.inners.resize(17);
  for (int i = 0; i < 17; ++i)
    o.inners[static_cast<std::size_t>(i)] = {i, std::string(static_cast<std::size_t>(i), 'q')};
  const std::size_t sized = pup::packed_size(o);
  std::vector<char> buf(sized);
  pup::MemPacker packer(buf.data(), buf.size());
  pup::pup(packer, o);
  EXPECT_EQ(packer.written(buf.data()), sized);
}

TEST(Pup, VectorOfTriviallyCopyableUsesBulkBytes) {
  std::vector<int> v = {1, 2, 3, 4, 5};
  EXPECT_EQ(pup::packed_size(v), sizeof(std::size_t) + 5 * sizeof(int));
}

TEST(Pup, OptionalRoundTrip) {
  std::optional<std::string> some = "value";
  std::optional<std::string> none;
  std::optional<std::string> out1, out2 = "stale";
  pup::from_bytes(pup::to_bytes(some), out1);
  pup::from_bytes(pup::to_bytes(none), out2);
  EXPECT_EQ(out1, some);
  EXPECT_EQ(out2, none);
}

TEST(Pup, PairAndArray) {
  std::pair<int, std::string> pr = {9, "nine"};
  std::array<double, 4> arr = {1, 2, 3, 4};
  decltype(pr) pr2;
  decltype(arr) arr2{};
  pup::from_bytes(pup::to_bytes(pr), pr2);
  pup::from_bytes(pup::to_bytes(arr), arr2);
  EXPECT_EQ(pr, pr2);
  EXPECT_EQ(arr, arr2);
}

TEST(Pup, UnorderedMapRoundTrip) {
  std::unordered_map<int, std::vector<int>> m;
  for (int i = 0; i < 50; ++i) m[i] = std::vector<int>(static_cast<std::size_t>(i), i);
  decltype(m) n;
  pup::from_bytes(pup::to_bytes(m), n);
  EXPECT_EQ(m, n);
}

TEST(PupDeath, UnpackerRefusesUnderflow) {
  std::vector<char> buf(4);
  pup::MemUnpacker u(buf.data(), buf.size());
  double big = 0;
  EXPECT_DEATH(pup::pup(u, big), "underflow");
}

/// A container's length word, damaged in transit, must fail as an
/// underflow before it sizes an allocation. The counts are beyond any
/// container's max_size(), so sizing by them throws at once.
std::vector<char> damaged_length(std::vector<char> bytes) {
  std::size_t n = 0;
  std::memcpy(&n, bytes.data(), sizeof n);
  n ^= std::size_t{1} << 63;
  std::memcpy(bytes.data(), &n, sizeof n);
  return bytes;
}

TEST(PupDeath, VectorLengthWordCannotSizeAnAllocation) {
  const std::vector<char> bytes =
      damaged_length(pup::to_bytes(std::vector<int>{1, 2, 3}));
  std::vector<int> v;
  EXPECT_DEATH(pup::from_bytes(bytes, v), "pup unpack underflow");
  const std::vector<char> strings = damaged_length(
      pup::to_bytes(std::vector<std::string>{"a", "bc"}));
  std::vector<std::string> vs;
  EXPECT_DEATH(pup::from_bytes(strings, vs), "pup unpack underflow");
}

TEST(PupDeath, StringLengthWordCannotSizeAnAllocation) {
  const std::vector<char> bytes =
      damaged_length(pup::to_bytes(std::string("hello")));
  std::string s;
  EXPECT_DEATH(pup::from_bytes(bytes, s), "pup unpack underflow");
}

TEST(PupDeath, DequeLengthWordCannotSizeAnAllocation) {
  const std::vector<char> bytes =
      damaged_length(pup::to_bytes(std::deque<int>{4, 5, 6}));
  std::deque<int> d;
  EXPECT_DEATH(pup::from_bytes(bytes, d), "pup unpack underflow");
}

TEST(Pup, UnpackReusesAndTrimsExistingElements) {
  const std::vector<std::string> two = {"x", "yz"};
  std::vector<std::string> longer = {"stale", "stale", "stale"};
  pup::from_bytes(pup::to_bytes(two), longer);
  EXPECT_EQ(longer, two);
  const std::deque<std::string> three = {"a", "b", "c"};
  std::deque<std::string> shorter = {"stale"};
  pup::from_bytes(pup::to_bytes(three), shorter);
  EXPECT_EQ(shorter, three);
}

TEST(PupDeath, PackerRefusesOverflow) {
  std::vector<char> buf(4);
  pup::MemPacker p(buf.data(), buf.size());
  double big = 1.0;
  EXPECT_DEATH(pup::pup(p, big), "overflow");
}

// Property-style sweep: packed size is a pure function of the value, and
// round-trips are exact, across many randomized shapes.
class PupProperty : public ::testing::TestWithParam<int> {};

TEST_P(PupProperty, RandomizedRoundTrip) {
  mfc::SplitMix64 rng(static_cast<std::uint64_t>(GetParam()));
  Outer o;
  o.x = rng.next_double();
  const auto n_inner = rng.next_below(40);
  for (std::uint64_t i = 0; i < n_inner; ++i) {
    Inner in;
    in.a = static_cast<int>(rng.next());
    in.label = std::string(rng.next_below(100), static_cast<char>('a' + (i % 26)));
    o.inners.push_back(in);
  }
  const auto n_keys = rng.next_below(20);
  for (std::uint64_t i = 0; i < n_keys; ++i) {
    o.index[std::to_string(rng.next())] = static_cast<int>(rng.next());
  }
  o.raw.resize(rng.next_below(1000));
  for (auto& b : o.raw) b = static_cast<std::uint8_t>(rng.next());

  auto bytes = pup::to_bytes(o);
  EXPECT_EQ(bytes.size(), pup::packed_size(o));
  Outer p;
  pup::from_bytes(bytes, p);
  EXPECT_EQ(o, p);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PupProperty, ::testing::Range(1, 21));

// ---------------------------------------------------------------------------
// Fuzz round-trip with digest comparison.
//
// Value equality (operator==) cannot verify payloads containing NaN, so
// these tests compare at the byte level instead: serialize, deserialize,
// re-serialize, and require the two byte streams (and their FNV digests) to
// be identical. That is the exact property migration relies on — a shipped
// image re-packed on the destination must be bit-identical.

/// Randomized nested structure mixing every scalar family PUP handles,
/// including non-finite floats, with recursive children.
struct FuzzNode {
  float f = 0;
  double d = 0;
  std::int64_t i = 0;
  std::string s;
  std::vector<double> vd;
  std::map<std::int32_t, std::string> m;
  std::vector<FuzzNode> kids;
  void pup(pup::Er& p) { p | f | d | i | s | vd | m | kids; }
};

double fuzz_double(SplitMix64& rng) {
  switch (rng.next_below(8)) {
    case 0: return std::numeric_limits<double>::quiet_NaN();
    case 1: return std::numeric_limits<double>::infinity();
    case 2: return -std::numeric_limits<double>::infinity();
    case 3: return -0.0;
    case 4: return std::numeric_limits<double>::denorm_min();
    case 5: return std::numeric_limits<double>::max();
    default: return rng.next_in(-1e9, 1e9);
  }
}

FuzzNode make_fuzz_node(SplitMix64& rng, int depth) {
  FuzzNode n;
  n.f = static_cast<float>(fuzz_double(rng));
  n.d = fuzz_double(rng);
  n.i = static_cast<std::int64_t>(rng.next());
  n.s.resize(rng.next_below(64));
  for (auto& c : n.s) c = static_cast<char>(rng.next());  // arbitrary bytes
  n.vd.resize(rng.next_below(16));
  for (auto& v : n.vd) v = fuzz_double(rng);
  const auto n_keys = rng.next_below(8);
  for (std::uint64_t k = 0; k < n_keys; ++k) {
    n.m[static_cast<std::int32_t>(rng.next())] =
        std::string(rng.next_below(32), static_cast<char>('!' + rng.next_below(90)));
  }
  if (depth > 0) {
    const auto n_kids = rng.next_below(4);
    for (std::uint64_t k = 0; k < n_kids; ++k) {
      n.kids.push_back(make_fuzz_node(rng, depth - 1));
    }
  }
  return n;
}

class PupFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PupFuzz, ByteDigestStableAcrossRoundTrip) {
  SplitMix64 rng(0x9d5c000u + static_cast<std::uint64_t>(GetParam()));
  FuzzNode o = make_fuzz_node(rng, 3);
  const std::vector<char> bytes = pup::to_bytes(o);
  EXPECT_EQ(bytes.size(), pup::packed_size(o));
  FuzzNode q;
  pup::from_bytes(bytes, q);
  const std::vector<char> rebytes = pup::to_bytes(q);
  EXPECT_EQ(fnv1a(bytes.data(), bytes.size()),
            fnv1a(rebytes.data(), rebytes.size()))
      << "round-trip must be bit-identical (NaN payloads included)";
  EXPECT_EQ(bytes, rebytes);
}

TEST_P(PupFuzz, NonFiniteScalarsSurviveByBitPattern) {
  SplitMix64 rng(0xf10a700u + static_cast<std::uint64_t>(GetParam()));
  std::vector<double> vals;
  for (int i = 0; i < 32; ++i) vals.push_back(fuzz_double(rng));
  std::vector<double> back;
  pup::from_bytes(pup::to_bytes(vals), back);
  ASSERT_EQ(back.size(), vals.size());
  for (std::size_t i = 0; i < vals.size(); ++i) {
    EXPECT_EQ(std::memcmp(&vals[i], &back[i], sizeof(double)), 0)
        << "bit pattern drifted at index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PupFuzz, ::testing::Range(1, 31));

}  // namespace
