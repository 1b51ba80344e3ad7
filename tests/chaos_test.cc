// Chaos-layer tests: seeded determinism, injection points threaded through
// iso/converse/ult, and the shutdown pool books.
#include "chaos/chaos.h"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "converse/machine.h"
#include "iso/region.h"
#include "ult/scheduler.h"
#include "ult/thread.h"
#include "util/digest.h"

namespace {

namespace chaos = mfc::chaos;
namespace cv = mfc::converse;
using chaos::Point;
using mfc::iso::Region;
using mfc::iso::SlotId;

/// Installs on construction, uninstalls on destruction; keeps every test
/// exception/assert path from leaking an installed engine into the next test.
struct ScopedChaos {
  explicit ScopedChaos(const chaos::Config& cfg) { chaos::install(cfg); }
  ~ScopedChaos() { chaos::uninstall(); }
};

chaos::Config base_config(std::uint64_t seed) {
  chaos::Config cfg;
  cfg.enabled = true;
  cfg.seed = seed;
  return cfg;
}

// ---------------------------------------------------------------------------
// Determinism contract

TEST(ChaosDeterminism, KeyedDecisionsArePureFunctionsOfSeed) {
  std::vector<bool> fire1, fire2;
  std::vector<std::uint64_t> draw1, draw2;
  auto sample = [](std::vector<bool>* fires, std::vector<std::uint64_t>* draws) {
    for (std::uint64_t key = 0; key < 256; ++key) {
      fires->push_back(chaos::keyed_inject(Point::kProcKill, key));
      draws->push_back(chaos::keyed_draw(Point::kProcKill, key, 1 << 20));
    }
  };
  chaos::Config cfg = base_config(0xfeedULL);
  cfg.proc_kill = 0.5;
  {
    ScopedChaos c(cfg);
    sample(&fire1, &draw1);
  }
  {
    ScopedChaos c(cfg);
    sample(&fire2, &draw2);
  }
  EXPECT_EQ(fire1, fire2);
  EXPECT_EQ(draw1, draw2);
  // ... and they actually depend on the seed.
  cfg.seed = 0xfeed + 1;
  std::vector<bool> fire3;
  std::vector<std::uint64_t> draw3;
  {
    ScopedChaos c(cfg);
    sample(&fire3, &draw3);
  }
  EXPECT_NE(draw1, draw3);
}

TEST(ChaosDeterminism, PerPeStreamsReplayAndDiffer) {
  chaos::Config cfg = base_config(77);
  cfg.delivery_delay = 0.5;
  cfg.max_delay_ticks = 16;
  auto sample_pe = [&](int pe) {
    chaos::bind_stream(pe);
    std::vector<std::uint64_t> seq;
    for (int i = 0; i < 128; ++i) {
      seq.push_back(chaos::should_inject(Point::kDelivery) ? 1u : 0u);
      seq.push_back(chaos::draw(Point::kDelivery, cfg.max_delay_ticks));
    }
    chaos::unbind_stream();
    return seq;
  };
  std::vector<std::uint64_t> pe0_a, pe0_b, pe1;
  {
    ScopedChaos c(cfg);
    pe0_a = sample_pe(0);
    pe1 = sample_pe(1);
  }
  {
    ScopedChaos c(cfg);
    pe0_b = sample_pe(0);
  }
  EXPECT_EQ(pe0_a, pe0_b) << "same seed + same PE must replay bit-identically";
  EXPECT_NE(pe0_a, pe1) << "different PEs must draw from different streams";
}

TEST(ChaosDeterminism, ReinstallWithNewSeedDiscardsStaleStreams) {
  // A rebind after reinstall must pick up the *new* seed, not a cached
  // thread-local stream from the old engine (the epoch mechanism).
  auto first_draws = [&](std::uint64_t seed) {
    chaos::Config cfg = base_config(seed);
    cfg.delivery_delay = 1.0;
    ScopedChaos c(cfg);
    chaos::bind_stream(0);
    std::vector<std::uint64_t> seq;
    for (int i = 0; i < 32; ++i) seq.push_back(chaos::draw(Point::kDelivery, 1 << 30));
    chaos::unbind_stream();
    return seq;
  };
  auto a = first_draws(1);
  auto b = first_draws(2);
  auto a2 = first_draws(1);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, a2);
}

TEST(ChaosDeterminism, EnvSeedOverridesConfigSeed) {
  ASSERT_EQ(setenv("MFC_CHAOS_SEED", "424242", 1), 0);
  {
    ScopedChaos c(base_config(7));
    EXPECT_EQ(chaos::seed(), 424242u);
  }
  ASSERT_EQ(unsetenv("MFC_CHAOS_SEED"), 0);
  {
    ScopedChaos c(base_config(7));
    EXPECT_EQ(chaos::seed(), 7u);
  }
}

TEST(Chaos, DisabledEngineInjectsNothing) {
  // Not installed at all: every query is a cheap no.
  EXPECT_FALSE(chaos::enabled());
  EXPECT_FALSE(chaos::should_inject(Point::kIsoAcquire));
  EXPECT_FALSE(chaos::keyed_inject(Point::kPoolAcquire, 9));
  EXPECT_EQ(chaos::sched_choice_rng(), nullptr);
  chaos::preempt_point("chaos_test.noop");  // must be safe outside a thread
}

// ---------------------------------------------------------------------------
// Iso slot-allocator injection

class ChaosIsoFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Region::Config cfg;
    cfg.npes = 2;
    cfg.slot_bytes = 16 * 1024;
    cfg.slots_per_pe = 64;
    Region::init(cfg);
  }
  void TearDown() override { Region::shutdown(); }
};

TEST_F(ChaosIsoFixture, TryAcquireFailsOnInjectionAndCountsIt) {
  chaos::Config cfg = base_config(3);
  cfg.iso_alloc_fail = 1.0;  // every attempt fails
  ScopedChaos c(cfg);
  Region& r = Region::instance();
  for (int i = 0; i < 8; ++i) EXPECT_FALSE(r.try_acquire(0).valid());
  EXPECT_EQ(chaos::injections(Point::kIsoAcquire), 8u);
  EXPECT_EQ(r.used_slots(0), 0u) << "injected failures must not leak slots";
}

TEST_F(ChaosIsoFixture, AcquireRetriesThroughInjectedFailures) {
  chaos::Config cfg = base_config(11);
  cfg.iso_alloc_fail = 0.5;  // P(64 consecutive failures) ~ 5e-20
  ScopedChaos c(cfg);
  Region& r = Region::instance();
  std::vector<SlotId> ids;
  for (int i = 0; i < 32; ++i) {
    SlotId id = r.acquire(1);
    ASSERT_TRUE(id.valid());
    ids.push_back(id);
  }
  EXPECT_GT(chaos::injections(Point::kIsoAcquire), 0u);
  EXPECT_EQ(r.used_slots(1), 32u);
  for (auto id : ids) r.release(id);
  EXPECT_EQ(r.used_slots(1), 0u);
}

// ---------------------------------------------------------------------------
// Scheduler integration: seeded choice RNG and forced preemption points

TEST(ChaosSched, ChoiceRngPermutesReadyOrderDeterministically) {
  auto run_order = [](mfc::SplitMix64* rng) {
    mfc::ult::Scheduler sched;
    sched.set_choice_rng(rng);
    std::vector<int> order;
    for (int i = 0; i < 8; ++i) {
      auto* t = new mfc::ult::StandardThread([&order, i] { order.push_back(i); },
                                             16 * 1024);
      t->set_delete_on_exit(true);
      sched.ready(t);
    }
    sched.run_until_idle();
    return order;
  };
  std::vector<int> fifo = run_order(nullptr);
  EXPECT_EQ(fifo, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  mfc::SplitMix64 rng_a(99), rng_b(99);
  std::vector<int> shuffled_a = run_order(&rng_a);
  std::vector<int> shuffled_b = run_order(&rng_b);
  EXPECT_EQ(shuffled_a, shuffled_b) << "same seed must replay the same order";
  EXPECT_NE(shuffled_a, fifo) << "seed 99 should permute an 8-thread queue";
}

TEST(ChaosSched, PreemptPointYieldsInsideThreads) {
  chaos::Config cfg = base_config(5);
  cfg.preempt = 1.0;  // every instrumented point yields
  ScopedChaos c(cfg);
  mfc::ult::Scheduler sched;
  std::vector<int> trace;
  for (int id = 0; id < 2; ++id) {
    auto* t = new mfc::ult::StandardThread(
        [&trace, id] {
          for (int step = 0; step < 3; ++step) {
            trace.push_back(id);
            chaos::preempt_point("chaos_test.loop");
          }
        },
        16 * 1024);
    t->set_delete_on_exit(true);
    sched.ready(t);
  }
  sched.run_until_idle();
  // With a forced yield after every step the two threads interleave strictly.
  EXPECT_EQ(trace, (std::vector<int>{0, 1, 0, 1, 0, 1}));
  EXPECT_GE(chaos::injections(Point::kPreempt), 6u);
}

// ---------------------------------------------------------------------------
// Converse machine integration

TEST(ChaosMachine, DelayedDeliveryReordersButLosesNothing) {
  static std::atomic<int> received{0};
  static std::atomic<int> out_of_order{0};
  static std::atomic<int> last_seq{-1};
  static cv::HandlerId h = cv::register_handler([](cv::Message&& m) {
    int seq = m.as<int>();
    int prev = last_seq.exchange(seq);
    if (seq < prev) out_of_order.fetch_add(1);
    received.fetch_add(1);
  });
  received = 0;
  out_of_order = 0;
  last_seq = -1;

  cv::Machine::Config cfg;
  cfg.npes = 2;
  cfg.chaos = base_config(21);
  cfg.chaos.delivery_delay = 0.6;
  cfg.chaos.max_delay_ticks = 12;
  constexpr int kMsgs = 300;
  cv::Machine::run(cfg, [](int pe) {
    if (pe == 0) {
      for (int i = 0; i < kMsgs; ++i) cv::send_value(1, h, i);
    }
    cv::wait_quiescence();
  });
  EXPECT_EQ(received.load(), kMsgs) << "delay must never drop a message";
  EXPECT_GT(out_of_order.load(), 0)
      << "0.6 delay over 300 messages should reorder at least once";
  auto ps = cv::pool_stats();
  EXPECT_EQ(ps.allocated, ps.freed);
}

// wait_quiescence() promises no runnable work anywhere. With delivery
// delay a message sent before the detection round can sit in PE 1's stash
// while the token visits PE 1 and leave the stash behind it: the counts
// still balance at the verdict, but the message has just readied a worker
// there. Each round's worker holds PE 1 for a millisecond before it marks
// its round done, so a verdict that misses it returns too early.
TEST(ChaosMachine, QuiescenceWaitsForDeliveriesBehindTheToken) {
  constexpr int kRounds = 60;
  static std::atomic<bool> done[kRounds];
  static std::atomic<int> early{0};
  static cv::HandlerId h_work = cv::register_handler([](cv::Message&& m) {
    const int r = m.as<int>();
    mfc::ult::spawn([r] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      done[r].store(true);
    });
  });
  for (auto& d : done) d.store(false);
  early = 0;

  cv::Machine::Config cfg;
  cfg.npes = 2;
  cfg.chaos = base_config(0xD0E);
  cfg.chaos.delivery_delay = 0.5;
  cfg.chaos.max_delay_ticks = 32;
  cv::Machine::run(cfg, [](int pe) {
    if (pe != 0) return;
    for (int r = 0; r < kRounds; ++r) {
      cv::send_value(1, h_work, r);
      cv::wait_quiescence();
      if (!done[r].load()) early.fetch_add(1);
    }
  });
  EXPECT_EQ(early.load(), 0)
      << "quiescence reported while a delivered message's work was pending";
}

TEST(ChaosMachine, PoolInjectionForcesFreshAllocationsAndStaysBalanced) {
  static std::atomic<int> pongs{0};
  static cv::HandlerId h =
      cv::register_handler([](cv::Message&&) { pongs.fetch_add(1); });
  pongs = 0;
  // Install externally so injection counters stay readable after run().
  chaos::Config ccfg = base_config(31);
  ccfg.pool_fail = 0.7;
  ScopedChaos c(ccfg);
  cv::Machine::Config cfg;
  cfg.npes = 2;
  cv::Machine::run(cfg, [](int pe) {
    for (int round = 0; round < 50; ++round) {
      cv::send_value(1 - pe, h, round);
    }
    cv::wait_quiescence();
  });
  EXPECT_EQ(pongs.load(), 100);
  EXPECT_GT(chaos::injections(Point::kPoolAcquire), 0u);
  auto ps = cv::pool_stats();
  EXPECT_EQ(ps.allocated, ps.freed)
      << "bypassed pool envelopes must still be freed";
}

TEST(ChaosMachine, ShutdownDrainsUndeliveredPoolMessages) {
  // Regression for the shutdown leak: PE0 floods PE1 and exits without
  // waiting; whatever is still queued (or parked in the delay stash) at
  // teardown must be drained and returned to the books.
  static cv::HandlerId h = cv::register_handler([](cv::Message&&) {});
  cv::Machine::Config cfg;
  cfg.npes = 2;
  cv::Machine::run(cfg, [](int pe) {
    if (pe == 0) {
      for (int i = 0; i < 2000; ++i) cv::send_value(1, h, i);
    }
    // No barrier, no quiescence: mains exit with traffic in flight.
  });
  auto ps = cv::pool_stats();
  EXPECT_EQ(ps.allocated, ps.freed)
      << "machine shutdown leaked pooled messages";
  EXPECT_GT(ps.allocated, 0u);
}

TEST(ChaosMachine, RecyclingStillWorksWithChaosOff) {
  static cv::HandlerId h = cv::register_handler([](cv::Message&&) {});
  cv::Machine::Config cfg;
  cfg.npes = 2;
  cv::Machine::run(cfg, [](int pe) {
    for (int round = 0; round < 40; ++round) {
      cv::send_value(1 - pe, h, round);
      cv::wait_quiescence();
    }
  });
  auto ps = cv::pool_stats();
  EXPECT_EQ(ps.allocated, ps.freed);
  EXPECT_GT(ps.recycled, 0u) << "sequential sends should hit the pool cache";
}

}  // namespace
