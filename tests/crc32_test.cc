// CRC-32C implementation equivalence (labeled migrate-perf).
//
// The checkpoint codec trusts crc32() to behave identically however the
// runtime dispatch resolved — byte-at-a-time reference, slice-by-8 tables,
// or the SSE4.2/ARMv8 instructions. These tests pin the function three
// ways: known Castagnoli vectors, cross-implementation agreement over a
// corruption corpus shaped like the codec fuzz suite (every truncation
// length, every single-byte flip of a patterned frame), and the chaining /
// streaming identities the scatter-gather path depends on (folding the CRC
// per-iovec must equal one pass over the assembled wire bytes).
#include "util/crc32.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "util/rng.h"

namespace {

using mfc::Crc32;
using mfc::crc32;
namespace detail = mfc::detail;

/// Full pre/post-XOR CRC through one specific implementation.
std::uint32_t full_crc(std::uint32_t (*impl)(std::uint32_t, const void*,
                                             std::size_t),
                       const void* data, std::size_t n,
                       std::uint32_t seed = 0) {
  return impl(seed ^ 0xFFFFFFFFu, data, n) ^ 0xFFFFFFFFu;
}

std::vector<char> patterned(std::size_t n, std::uint64_t salt) {
  std::vector<char> bytes(n);
  mfc::SplitMix64 rng(salt);
  for (auto& b : bytes) b = static_cast<char>(rng.next());
  return bytes;
}

TEST(Crc32, KnownCastagnoliVectors) {
  // RFC 3720 (iSCSI) test vectors — these fail loudly if anyone swaps the
  // polynomial back to IEEE 802.3 or drops the pre/post inversion.
  const char* check = "123456789";
  EXPECT_EQ(crc32(check, 9), 0xE3069283u);

  unsigned char zeros[32] = {};
  EXPECT_EQ(crc32(zeros, sizeof zeros), 0x8A9136AAu);

  unsigned char ones[32];
  std::memset(ones, 0xFF, sizeof ones);
  EXPECT_EQ(crc32(ones, sizeof ones), 0x62A8AB43u);

  EXPECT_EQ(crc32(nullptr, 0), 0x00000000u);
}

TEST(Crc32, DispatchResolvedToSomething) {
  const detail::CrcImpl impl = detail::crc32c_impl();
  EXPECT_TRUE(impl == detail::CrcImpl::kReference ||
              impl == detail::CrcImpl::kSliceBy8 ||
              impl == detail::CrcImpl::kHardware);
}

TEST(Crc32, ImplementationsAgreeOnAllSmallLengths) {
  // Lengths 0..300 cover every alignment head/tail combination of the
  // 8-byte-stride implementations, with unaligned starting offsets too.
  const std::vector<char> buf = patterned(308, 0xC0FFEE);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len + off <= buf.size(); len += (len < 40 ? 1 : 7)) {
      const char* p = buf.data() + off;
      const std::uint32_t ref =
          full_crc(detail::crc32c_update_reference, p, len);
      EXPECT_EQ(full_crc(detail::crc32c_update_slice8, p, len), ref)
          << "slice8 diverged at off=" << off << " len=" << len;
      EXPECT_EQ(full_crc(detail::crc32c_update_dispatch, p, len), ref)
          << "dispatch diverged at off=" << off << " len=" << len;
    }
  }
}

TEST(Crc32, ImplementationsAgreeOverCorruptionCorpus) {
  // The checkpoint codec's fuzz corpus shape: a patterned frame, every
  // truncation length, every single-byte flip. All three implementations
  // must agree on every corpus entry, and every flip must change the CRC
  // (CRC-32 detects all single-byte errors at these lengths).
  std::vector<char> frame = patterned(512, 0xF4A3E);
  const std::uint32_t whole = crc32(frame.data(), frame.size());

  for (std::size_t len = 0; len <= frame.size(); ++len) {
    const std::uint32_t ref =
        full_crc(detail::crc32c_update_reference, frame.data(), len);
    ASSERT_EQ(full_crc(detail::crc32c_update_slice8, frame.data(), len), ref);
    ASSERT_EQ(full_crc(detail::crc32c_update_dispatch, frame.data(), len), ref);
  }
  for (std::size_t i = 0; i < frame.size(); ++i) {
    frame[i] = static_cast<char>(frame[i] ^ 0x40);
    const std::uint32_t flipped = crc32(frame.data(), frame.size());
    ASSERT_NE(flipped, whole) << "flip at byte " << i << " went undetected";
    ASSERT_EQ(full_crc(detail::crc32c_update_reference, frame.data(),
                       frame.size()),
              flipped);
    frame[i] = static_cast<char>(frame[i] ^ 0x40);
  }
}

TEST(Crc32, SeedChainingSplitsAnywhere) {
  const std::vector<char> buf = patterned(4096, 0x5EED);
  const std::uint32_t whole = crc32(buf.data(), buf.size());
  for (std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                            std::size_t{63}, std::size_t{512},
                            std::size_t{4095}, buf.size()}) {
    const std::uint32_t head = crc32(buf.data(), split);
    EXPECT_EQ(crc32(buf.data() + split, buf.size() - split, head), whole)
        << "chain broke at split " << split;
  }
}

TEST(Crc32, StreamingMatchesOneShotUnderRandomChunking) {
  // The gather path folds the CRC per-iovec in whatever run sizes the
  // manifest happens to hold; any chunking must equal the one-shot value.
  const std::vector<char> buf = patterned(64 * 1024, 0xD15EA5E);
  const std::uint32_t whole = crc32(buf.data(), buf.size());
  mfc::SplitMix64 rng(99);
  for (int trial = 0; trial < 16; ++trial) {
    Crc32 acc;
    std::size_t pos = 0;
    while (pos < buf.size()) {
      const std::size_t chunk =
          1 + rng.next_below(std::min<std::uint64_t>(buf.size() - pos, 9000));
      acc.update(buf.data() + pos, chunk);
      pos += chunk;
    }
    ASSERT_EQ(acc.value(), whole) << "trial " << trial;
  }
  // Seeded restart mid-stream behaves like the free-function chaining.
  Crc32 seeded(crc32(buf.data(), 1000));
  seeded.update(buf.data() + 1000, buf.size() - 1000);
  EXPECT_EQ(seeded.value(), whole);
}

TEST(Crc32, ThreeWaySplitChainsOnEveryImplementation) {
  // The transport's eager/chunk split means one logical message
  // can be CRC'd as up to three separately-seeded passes (staged prefix,
  // in-place spans, trailer). Any i <= j split into [0,i) [i,j) [j,n) must
  // chain to the one-shot value — on every dispatch variant, not just the
  // one this host resolved to.
  const std::vector<char> buf = patterned(611, 0x3AB5);
  using Impl = std::uint32_t (*)(std::uint32_t, const void*, std::size_t);
  const Impl impls[] = {detail::crc32c_update_reference,
                        detail::crc32c_update_slice8,
                        detail::crc32c_update_dispatch};
  const char* names[] = {"reference", "slice8", "dispatch"};

  // Exhaustive over a coarse grid plus every boundary-adjacent pair, then a
  // seeded sweep of fully arbitrary (i, j) points.
  std::vector<std::pair<std::size_t, std::size_t>> splits;
  for (std::size_t i = 0; i <= buf.size(); i += 61) {
    for (std::size_t j = i; j <= buf.size(); j += 67) splits.push_back({i, j});
  }
  for (std::size_t b : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                        std::size_t{8}, std::size_t{9}, buf.size() - 1,
                        buf.size()}) {
    splits.push_back({b, b});
    splits.push_back({0, b});
    splits.push_back({b, buf.size()});
  }
  mfc::SplitMix64 rng(0x3577A7);
  for (int t = 0; t < 200; ++t) {
    const std::size_t i = rng.next_below(buf.size() + 1);
    const std::size_t j = i + rng.next_below(buf.size() + 1 - i);
    splits.push_back({i, j});
  }

  for (int k = 0; k < 3; ++k) {
    const std::uint32_t whole = full_crc(impls[k], buf.data(), buf.size());
    for (const auto& [i, j] : splits) {
      const std::uint32_t a = full_crc(impls[k], buf.data(), i);
      const std::uint32_t b = full_crc(impls[k], buf.data() + i, j - i, a);
      const std::uint32_t c =
          full_crc(impls[k], buf.data() + j, buf.size() - j, b);
      ASSERT_EQ(c, whole) << names[k] << " broke at split (" << i << ", "
                          << j << ")";
    }
  }
}

}  // namespace
