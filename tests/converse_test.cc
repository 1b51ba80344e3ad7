// Converse machine-layer tests: PEs, active messages, barriers.
#include "converse/machine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>

namespace {

namespace cv = mfc::converse;

TEST(Converse, EveryPeRunsEntryExactlyOnce) {
  std::mutex mu;
  std::set<int> seen;
  cv::Machine::Config cfg;
  cfg.npes = 4;
  cv::Machine::run(cfg, [&](int pe) {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_TRUE(seen.insert(pe).second);
    EXPECT_EQ(cv::my_pe(), pe);
    EXPECT_EQ(cv::num_pes(), 4);
  });
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Converse, PointToPointMessageDelivery) {
  static std::atomic<int> received{0};
  static cv::HandlerId h = cv::register_handler([](cv::Message&& m) {
    int v = m.as<int>();
    EXPECT_EQ(v, 1000 + m.src_pe);
    received.fetch_add(1);
  });
  received = 0;
  cv::Machine::Config cfg;
  cfg.npes = 4;
  cv::Machine::run(cfg, [&](int pe) {
    int value = 1000 + pe;
    cv::send_value((pe + 1) % 4, h, value);
    cv::barrier();  // keep the machine alive until delivery
    cv::barrier();
  });
  EXPECT_EQ(received.load(), 4);
}

TEST(Converse, BroadcastReachesAllPes) {
  static std::atomic<int> hits{0};
  static cv::HandlerId h =
      cv::register_handler([](cv::Message&&) { hits.fetch_add(1); });
  hits = 0;
  cv::Machine::Config cfg;
  cfg.npes = 3;
  cv::Machine::run(cfg, [&](int pe) {
    if (pe == 0) cv::broadcast(h, {});
    cv::barrier();
  });
  EXPECT_EQ(hits.load(), 3);
}

TEST(Converse, RepeatedBarriersStayInLockstep) {
  static std::atomic<int> counter{0};
  counter = 0;
  cv::Machine::Config cfg;
  cfg.npes = 4;
  cv::Machine::run(cfg, [&](int) {
    for (int round = 0; round < 20; ++round) {
      // Before the barrier of round r, the counter can be at most 4*(r+1);
      // after it, at least 4*(r+1) — lockstep means no PE races ahead.
      counter.fetch_add(1);
      cv::barrier();
      EXPECT_GE(counter.load(), 4 * (round + 1));
      cv::barrier();
    }
  });
  EXPECT_EQ(counter.load(), 80);
}

TEST(Converse, HandlersCanResumeBlockedThreads) {
  // The blocking-receive pattern AMPI is built on: a ULT suspends, a
  // message handler readies it.
  static std::atomic<int> resumed{0};
  struct Wake {
    std::uintptr_t thread_ptr;
    void pup(mfc::pup::Er& p) { p | thread_ptr; }
  };
  static cv::HandlerId h = cv::register_handler([](cv::Message&& m) {
    auto wake = m.as<Wake>();
    cv::ready_thread(reinterpret_cast<mfc::ult::Thread*>(wake.thread_ptr));
    resumed.fetch_add(1);
  });
  resumed = 0;
  cv::Machine::Config cfg;
  cfg.npes = 2;
  cv::Machine::run(cfg, [&](int pe) {
    if (pe == 0) {
      // Tell PE0's own handler (via self-send) to wake us — exercises the
      // suspend/handler/ready cycle on one PE.
      Wake wake{reinterpret_cast<std::uintptr_t>(cv::pe_scheduler().running())};
      cv::send_value(0, h, wake);
      cv::pe_scheduler().suspend();
    }
    cv::barrier();
  });
  EXPECT_EQ(resumed.load(), 1);
}

TEST(Converse, MessageCountersAdvance) {
  cv::Machine::Config cfg;
  cfg.npes = 2;
  static cv::HandlerId h = cv::register_handler([](cv::Message&&) {});
  cv::Machine::run(cfg, [&](int pe) {
    if (pe == 0) {
      for (int i = 0; i < 10; ++i) cv::send(1, h, {});
    }
    // PE 0's sends happen before it arrives at the barrier, so every PE
    // reads them once the barrier releases it (and not necessarily before).
    cv::barrier();
    EXPECT_GE(cv::messages_sent(), 10u);
  });
}

TEST(Converse, LargePayloadsSurviveTransit) {
  static std::atomic<bool> ok{false};
  static cv::HandlerId h = cv::register_handler([](cv::Message&& m) {
    auto v = m.as<std::vector<std::uint64_t>>();
    bool good = v.size() == 100000;
    for (std::size_t i = 0; i < v.size(); ++i) good = good && v[i] == i * i;
    ok.store(good);
  });
  ok = false;
  cv::Machine::Config cfg;
  cfg.npes = 2;
  cv::Machine::run(cfg, [&](int pe) {
    if (pe == 0) {
      std::vector<std::uint64_t> big(100000);
      for (std::size_t i = 0; i < big.size(); ++i) big[i] = i * i;
      cv::send_value(1, h, big);
    }
    cv::barrier();
  });
  EXPECT_TRUE(ok.load());
}

/// Pools recycle envelopes, not payload buffers: one PE floods another with
/// 1,000 messages of 16 KiB, and at teardown the pool that adopted those
/// envelopes owns no payload bytes — none of the flood's 16 MB stays
/// behind in it.
TEST(Converse, PooledEnvelopesOwnNoPayloadBytes) {
  static constexpr int kFlood = 1000;
  static constexpr std::size_t kBytes = 16 * 1024;
  static std::atomic<int> got{0};
  static cv::HandlerId h = cv::register_handler([](cv::Message&& m) {
    EXPECT_EQ(m.payload.size(), kBytes);
    got.fetch_add(1);
  });
  got = 0;
  cv::Machine::Config cfg;
  cfg.npes = 2;
  cv::Machine::run(cfg, [&](int pe) {
    if (pe == 0) {
      for (int i = 0; i < kFlood; ++i) {
        cv::send(1, h, std::vector<char>(kBytes, static_cast<char>(i)));
      }
    }
    cv::wait_quiescence();
  });
  EXPECT_EQ(got.load(), kFlood);
  const cv::PoolStats ps = cv::pool_stats();
  EXPECT_EQ(ps.allocated, ps.freed);
  EXPECT_EQ(ps.pooled_payload_bytes, 0u);
}

TEST(Converse, SinglePeMachineWorks) {
  int ran = 0;
  cv::Machine::Config cfg;
  cfg.npes = 1;
  cv::Machine::run(cfg, [&](int pe) {
    EXPECT_EQ(pe, 0);
    cv::barrier();
    ++ran;
  });
  EXPECT_EQ(ran, 1);
}

TEST(Converse, QuiescenceUnderMessageStorm) {
  // Each seed message fans out two children per hop until its TTL expires —
  // a storm whose in-flight population grows before it dies out, crossing
  // every messaging path (remote sends, self-send fast path, pooled
  // recycling). wait_quiescence() must not fire early: when it returns,
  // every PE must observe the storm's exact final handler count.
  struct Hop {
    std::int32_t ttl = 0;
    void pup(mfc::pup::Er& p) { p | ttl; }
  };
  static std::atomic<long> storm_hits{0};
  static cv::HandlerId h = cv::register_handler([](cv::Message&& m) {
    auto hop = m.as<Hop>();
    if (hop.ttl > 0) {
      Hop child{hop.ttl - 1};
      const int npes = cv::num_pes();
      cv::send_value((cv::my_pe() + 1) % npes, h, child);
      cv::send_value(cv::my_pe(), h, child);  // exercises the inline path
    }
    storm_hits.fetch_add(1, std::memory_order_relaxed);
  });
  constexpr int kNpes = 4;
  constexpr int kSeeds = 4;
  constexpr int kTtl = 6;
  // Fan-out 2 per hop: one seed yields 2^(ttl+1) - 1 handler runs.
  constexpr long kExpected =
      static_cast<long>(kNpes) * kSeeds * ((1L << (kTtl + 1)) - 1);
  storm_hits = 0;
  cv::Machine::Config cfg;
  cfg.npes = kNpes;
  cv::Machine::run(cfg, [&](int pe) {
    for (int s = 0; s < kSeeds; ++s) {
      Hop seed{kTtl};
      cv::send_value((pe + s) % kNpes, h, seed);
    }
    cv::wait_quiescence();
    EXPECT_EQ(storm_hits.load(), kExpected);
  });
  EXPECT_EQ(storm_hits.load(), kExpected);
}

TEST(Converse, MachineRunsBackToBack) {
  for (int round = 0; round < 3; ++round) {
    std::atomic<int> entries{0};
    cv::Machine::Config cfg;
    cfg.npes = 2;
    cv::Machine::run(cfg, [&](int) { entries.fetch_add(1); });
    EXPECT_EQ(entries.load(), 2);
  }
}

}  // namespace
