#include <gtest/gtest.h>

#include <atomic>
#include <clocale>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "util/queue.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/sysinfo.h"
#include "util/timer.h"

namespace {

TEST(Stats, RunningMatchesClosedForm) {
  mfc::RunningStats s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_EQ(s.count(), 100u);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  // Variance of 1..100 (sample): n(n+1)/12 with n=101 → 841.666...
  EXPECT_NEAR(s.variance(), 841.6667, 1e-3);
}

TEST(Stats, PercentileInterpolates) {
  mfc::Sample s;
  for (int i = 0; i <= 10; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 2.5);
}

TEST(Stats, EmptyAndSingleElementEdgeCases) {
  // Empty: every accessor must return a defined zero, not UB on xs_[0].
  mfc::Sample empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_DOUBLE_EQ(empty.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(100), 0.0);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
  EXPECT_DOUBLE_EQ(empty.min(), 0.0);
  EXPECT_DOUBLE_EQ(empty.max(), 0.0);

  // Single element: every percentile collapses to it (no interpolation
  // partner exists).
  mfc::Sample one;
  one.add(42.0);
  EXPECT_DOUBLE_EQ(one.percentile(0), 42.0);
  EXPECT_DOUBLE_EQ(one.percentile(37.5), 42.0);
  EXPECT_DOUBLE_EQ(one.percentile(100), 42.0);
  EXPECT_DOUBLE_EQ(one.median(), 42.0);

  mfc::RunningStats rs;
  EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
  EXPECT_DOUBLE_EQ(rs.stddev(), 0.0);
  rs.add(-3.0);
  EXPECT_DOUBLE_EQ(rs.mean(), -3.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0) << "n=1 sample variance is defined 0";
  EXPECT_DOUBLE_EQ(rs.min(), -3.0);
  EXPECT_DOUBLE_EQ(rs.max(), -3.0);
}

TEST(Stats, RunningStatsClearResetsEverything) {
  mfc::RunningStats rs;
  for (int i = 0; i < 10; ++i) rs.add(i * 1.5);
  rs.clear();
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
  EXPECT_DOUBLE_EQ(rs.sum(), 0.0);
  EXPECT_DOUBLE_EQ(rs.min(), 0.0);
  EXPECT_DOUBLE_EQ(rs.max(), 0.0);
  // A cleared accumulator behaves like a fresh one.
  rs.add(5.0);
  rs.add(7.0);
  EXPECT_DOUBLE_EQ(rs.mean(), 6.0);
  EXPECT_DOUBLE_EQ(rs.min(), 5.0);
  EXPECT_DOUBLE_EQ(rs.max(), 7.0);
}

TEST(Stats, ImbalanceRatio) {
  EXPECT_DOUBLE_EQ(mfc::imbalance_ratio({1, 1, 1, 1}), 1.0);
  EXPECT_DOUBLE_EQ(mfc::imbalance_ratio({4, 0, 0, 0}), 4.0);
  EXPECT_DOUBLE_EQ(mfc::imbalance_ratio({3, 1}), 1.5);
}

TEST(Format, FormatDoubleBasicAndEdgeInputs) {
  EXPECT_EQ(mfc::format_double(1.5, 1), "1.5");
  EXPECT_EQ(mfc::format_double(1.25, 2), "1.25");
  EXPECT_EQ(mfc::format_double(0.0, 1), "0.0");
  EXPECT_EQ(mfc::format_double(0.0, 0), "0");
  EXPECT_EQ(mfc::format_double(2.5, 0), "3");  // round half up
  EXPECT_EQ(mfc::format_double(0.999, 2), "1.00");
  EXPECT_EQ(mfc::format_double(-1.5, 1), "-1.5");
  EXPECT_EQ(mfc::format_double(-0.04, 1), "-0.0");
  EXPECT_EQ(mfc::format_double(3.14159, -2), "3") << "decimals clamps to 0";
  EXPECT_EQ(mfc::format_double(std::nan(""), 2), "nan");
  EXPECT_EQ(mfc::format_double(HUGE_VAL, 2), "inf");
  EXPECT_EQ(mfc::format_double(-HUGE_VAL, 2), "-inf");
  // Values too large for 64-bit integer scaling fall back to "%.0f", which
  // never prints a decimal separator — still locale-proof, still numeric.
  const std::string huge = mfc::format_double(1e30, 3);
  EXPECT_FALSE(huge.empty());
  EXPECT_EQ(huge.find(','), std::string::npos);
  EXPECT_EQ(huge.find('.'), std::string::npos);
  EXPECT_DOUBLE_EQ(std::strtod(huge.c_str(), nullptr), 1e30);
}

TEST(Format, FormatNsUnitsAndSigns) {
  EXPECT_EQ(mfc::format_ns(0.0), "0.0 ns");
  EXPECT_EQ(mfc::format_ns(12.34), "12.3 ns");
  EXPECT_EQ(mfc::format_ns(1500.0), "1.50 us");
  EXPECT_EQ(mfc::format_ns(2.5e6), "2.50 ms");
  EXPECT_EQ(mfc::format_ns(3.0e9), "3.00 s");
  // Negative quantities pick the unit by magnitude and keep the sign —
  // the old %f path would have filed -5e9 under "ns".
  EXPECT_EQ(mfc::format_ns(-1500.0), "-1.50 us");
  EXPECT_EQ(mfc::format_ns(-5.0e9), "-5.00 s");
  EXPECT_EQ(mfc::format_ns(std::nan("")), "nan");
}

TEST(Format, DecimalPointSurvivesCommaLocales) {
  // If a comma-decimal locale is installed, formatting must not pick it up
  // (that was the bug: "1,5 ms" in machine-parsed reports). If none is
  // available in this image the test still covers the C-locale contract.
  const char* candidates[] = {"de_DE.UTF-8", "de_DE", "fr_FR.UTF-8", "fr_FR"};
  const char* old = std::setlocale(LC_NUMERIC, nullptr);
  const std::string saved = old != nullptr ? old : "C";
  bool switched = false;
  for (const char* loc : candidates) {
    if (std::setlocale(LC_NUMERIC, loc) != nullptr) {
      switched = true;
      break;
    }
  }
  if (switched) {
    // Only meaningful if the locale actually uses ',' — glibc minimal
    // builds may alias these names to C behavior.
    char probe[32];
    std::snprintf(probe, sizeof probe, "%.1f", 1.5);
    if (std::strchr(probe, ',') == nullptr) switched = false;
  }
  const std::string a = mfc::format_double(1234.5, 1);
  const std::string ns = mfc::format_ns(1.5e6);
  std::setlocale(LC_NUMERIC, saved.c_str());
  EXPECT_EQ(a, "1234.5") << (switched ? "comma locale leaked into output"
                                      : "C locale formatting broken");
  EXPECT_EQ(ns, "1.50 ms");
  EXPECT_EQ(a.find(','), std::string::npos);
}

TEST(Rng, DeterministicAndInRange) {
  mfc::SplitMix64 a(7), b(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  mfc::SplitMix64 c(123);
  for (int i = 0; i < 1000; ++i) {
    const double d = c.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    EXPECT_LT(c.next_below(17), 17u);
  }
}

TEST(Timer, MonotoneAndPositive) {
  const double t0 = mfc::wall_time();
  const double c0 = mfc::thread_cpu_time();
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(mfc::wall_time(), t0);
  EXPECT_GE(mfc::thread_cpu_time(), c0);
}

namespace {
struct LinkedItem {
  int producer = 0;
  int seq = 0;
  LinkedItem* next = nullptr;
};
}  // namespace

TEST(IntrusiveChannel, MultiProducerStressPerProducerFifo) {
  mfc::IntrusiveMpscChannel<LinkedItem> q;
  constexpr int kProducers = 8;
  constexpr int kEach = 20000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kEach; ++i) q.push(new LinkedItem{p, i});
    });
  }
  std::vector<int> next_seq(kProducers, 0);
  int got = 0;
  while (got < kProducers * kEach) {
    LinkedItem* item = q.pop_wait();
    if (item == nullptr) continue;
    ASSERT_EQ(item->seq, next_seq[static_cast<std::size_t>(item->producer)])
        << "producer " << item->producer << " reordered";
    ++next_seq[static_cast<std::size_t>(item->producer)];
    ++got;
    delete item;
  }
  for (auto& t : producers) t.join();
  EXPECT_TRUE(q.consumer_empty());
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(next_seq[p], kEach);
}

TEST(IntrusiveChannel, ConsumerEmptyTracksBatchAndInbox) {
  mfc::IntrusiveMpscChannel<LinkedItem> q;
  EXPECT_TRUE(q.consumer_empty());
  q.push(new LinkedItem{0, 0});
  q.push(new LinkedItem{0, 1});
  EXPECT_FALSE(q.consumer_empty());  // inbox non-empty
  LinkedItem* a = q.try_pop();       // drains inbox into the private batch
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->seq, 0);
  EXPECT_FALSE(q.consumer_empty());  // batch still holds item 1
  LinkedItem* b = q.try_pop();
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->seq, 1);
  EXPECT_TRUE(q.consumer_empty());
  delete a;
  delete b;
}

TEST(IntrusiveChannel, WakeUnblocksWithoutData) {
  mfc::IntrusiveMpscChannel<LinkedItem> q;
  std::thread waker([&q] { q.wake(); });
  LinkedItem* item = q.pop_wait();  // must not hang
  EXPECT_EQ(item, nullptr);
  waker.join();
}

namespace {
/// A consumer's feed (util/queue.h NoFeed) that counts its polls and
/// sleeps, and sticky-wakes the channel at its first poll (`wake_at_poll`)
/// or at the park's re-check (`wake_at_recheck`): the wake lands during the
/// spin, or after it.
struct WakingFeed {
  mfc::IntrusiveMpscChannel<LinkedItem>* q = nullptr;
  bool wake_at_poll = false;
  bool wake_at_recheck = false;
  int polls = 0;
  int sleeps = 0;
  void poll() {
    if (polls++ == 0 && wake_at_poll) q->wake();
  }
  bool ready() {
    if (wake_at_recheck) q->wake();
    return false;
  }
  void on_sleep() { ++sleeps; }
};

constexpr std::uint64_t kNoDeadline = 0;
constexpr std::uint64_t kOneSecond = 1000000;
}  // namespace

// A sticky wake that lands while the consumer spins (quiescence and FT
// events reach a waiting PE this way) ends the wait at the spin's next
// look, not after the spin and the yield rounds, and is consumed: the
// parking word reads idle again, so the next wait does not end on it.
TEST(IntrusiveChannel, WakeDuringTheSpinEndsTheWaitAtTheNextLook) {
  for (const std::uint64_t park_us : {kNoDeadline, kOneSecond}) {
    mfc::IntrusiveMpscChannel<LinkedItem> q;
    std::atomic<std::uint32_t> word{mfc::detail::kWordIdle};
    q.bind_wake_word(&word, /*shared=*/false);
    WakingFeed feed;
    feed.q = &q;
    feed.wake_at_poll = true;
    EXPECT_EQ(q.pop_wait(feed, park_us), nullptr) << park_us;
    EXPECT_LE(feed.polls, 2) << park_us;
    EXPECT_EQ(feed.sleeps, 0) << park_us;
    EXPECT_EQ(word.load(), mfc::detail::kWordIdle) << park_us;
  }
}

// A wake that lands after the spin, while the park re-checks its sources,
// still keeps the consumer from sleeping, with or without a deadline.
TEST(IntrusiveChannel, WakeDuringTheParkReCheckPreventsTheSleep) {
  for (const std::uint64_t park_us : {kNoDeadline, kOneSecond}) {
    mfc::IntrusiveMpscChannel<LinkedItem> q;
    std::atomic<std::uint32_t> word{mfc::detail::kWordIdle};
    q.bind_wake_word(&word, /*shared=*/false);
    WakingFeed feed;
    feed.q = &q;
    feed.wake_at_recheck = true;
    EXPECT_EQ(q.pop_wait(feed, park_us), nullptr) << park_us;
    EXPECT_EQ(feed.sleeps, 0) << park_us;
    EXPECT_EQ(word.load(), mfc::detail::kWordIdle) << park_us;
  }
}

// With a deadline and nothing arriving, the wait sleeps once and returns
// empty; an item pushed afterwards is the next wait's.
TEST(IntrusiveChannel, ParkDeadlineEndsAnEmptyWait) {
  mfc::IntrusiveMpscChannel<LinkedItem> q;
  WakingFeed feed;
  feed.q = &q;
  EXPECT_EQ(q.pop_wait(feed, /*park_us=*/2000), nullptr);
  EXPECT_EQ(feed.sleeps, 1);
  LinkedItem item{0, 7};
  q.push(&item);
  EXPECT_EQ(q.pop_wait(feed, /*park_us=*/2000), &item);
  EXPECT_EQ(feed.sleeps, 1);
}

TEST(SysInfo, ReportsSaneValues) {
  const auto info = mfc::query_sysinfo();
  EXPECT_FALSE(info.arch.empty());
  EXPECT_GE(info.ncpus, 1);
  EXPECT_GE(info.page_size, 4096u);
}

TEST(SysInfo, CapabilitiesOnLinux) {
  const auto caps = mfc::probe_capabilities();
  // This container demonstrated all of these in the pre-build probe; the
  // portability table (Table 1) depends on them.
  EXPECT_TRUE(caps.mmap_fixed);
  EXPECT_TRUE(caps.big_reservation);
}

TEST(Format, AdaptiveUnits) {
  EXPECT_EQ(mfc::format_ns(12.0), "12.0 ns");
  EXPECT_EQ(mfc::format_ns(4200.0), "4.20 us");
  EXPECT_EQ(mfc::format_ns(3.5e6), "3.50 ms");
  EXPECT_EQ(mfc::format_ns(2.1e9), "2.10 s");
}

}  // namespace
