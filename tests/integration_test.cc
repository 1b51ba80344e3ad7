// Cross-module integration and randomized property tests: the full stack
// exercised together (converse + charm + migration, AMPI + LB, swap-global
// + migratable threads).
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "ampi/ampi.h"
#include "charm/array.h"
#include "converse/machine.h"
#include "migrate/iso_thread.h"
#include "pup/pup.h"
#include "swapglobal/global.h"
#include "ult/scheduler.h"
#include "util/rng.h"

namespace {

namespace cv = mfc::converse;
namespace ampi = mfc::ampi;

// ---- charm arrays under randomized migration + traffic ----------------------

struct Accum : mfc::charm::Element {
  long total = 0;
  enum Tags { kAdd = 0, kContribute = 1, kMove = 2 };
  void on_message(int tag, std::vector<char> payload) override {
    mfc::pup::MemUnpacker u(payload.data(), payload.size());
    int v = 0;
    mfc::pup::pup(u, v);
    switch (tag) {
      case kAdd:
        total += v;
        break;
      case kContribute:
        mfc::charm::find_array(array_id())
            ->contribute(v, static_cast<double>(total));
        break;
      case kMove:
        mfc::charm::find_array(array_id())->migrate(index(), v);
        break;
    }
  }
  void pup(mfc::pup::Er& p) override { p | total; }
};

class ChareChaos : public ::testing::TestWithParam<int> {};

TEST_P(ChareChaos, SumsSurviveRandomMigrationStorm) {
  static std::atomic<double> reduced;
  static std::atomic<long> expected;
  reduced = -1;
  expected = 0;
  const auto seed = static_cast<std::uint64_t>(GetParam());
  cv::Machine::Config cfg;
  cfg.npes = 4;
  cv::Machine::run(cfg, [seed](int pe) {
    constexpr int kElems = 12;
    mfc::charm::Array<Accum> arr(42, kElems);
    if (pe == 0) arr.on_reduction([](double r) { reduced.store(r); });
    cv::barrier();
    if (pe == 0) {
      mfc::SplitMix64 rng(seed);
      // Random adds interleaved with random migration commands — sends keep
      // flowing while elements are in flight, exercising the home's
      // transit buffering.
      for (int step = 0; step < 200; ++step) {
        const auto elem = static_cast<int>(rng.next_below(kElems));
        const int v = static_cast<int>(rng.next_below(100));
        expected.fetch_add(v);
        arr.send_value(elem, Accum::kAdd, v);
        if (rng.next_below(3) == 0) {
          int dest = static_cast<int>(rng.next_below(4));
          arr.send_value(elem, Accum::kMove, dest);
          const int chase = static_cast<int>(rng.next_below(100));
          expected.fetch_add(chase);
          arr.send_value(elem, Accum::kAdd, chase);
        }
      }
    }
    // Quiescence, not barriers: adds, moves and their forwards are all
    // delivered before the reduction is asked for, and the reduction (and
    // every late forward) lands before any PE destroys its array.
    cv::wait_quiescence();
    if (pe == 0) {
      int red_id = 7;
      arr.broadcast(Accum::kContribute, mfc::pup::to_bytes(red_id));
    }
    cv::wait_quiescence();
  });
  EXPECT_EQ(static_cast<long>(reduced.load()), expected.load());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChareChaos, ::testing::Range(1, 9));

// ---- AMPI: randomized communication across randomized migrations ------------

class AmpiChaos : public ::testing::TestWithParam<int> {};

TEST_P(AmpiChaos, RingChecksumsSurviveMigrationSchedules) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  static std::atomic<int> failures;
  failures = 0;
  ampi::Options opt;
  opt.nranks = 8;
  opt.npes = 4;
  ampi::run(opt, [seed] {
    const int r = ampi::rank();
    const int n = ampi::size();
    std::uint64_t checksum = 0;
    for (int round = 0; round < 6; ++round) {
      // Deterministic pseudo-random destination for this round, agreed by
      // all ranks (same seed/round), different per rank.
      mfc::SplitMix64 rng(seed * 1000 + static_cast<std::uint64_t>(round));
      std::vector<int> dests(static_cast<std::size_t>(n));
      for (auto& d : dests) {
        d = static_cast<int>(rng.next_below(4));
      }
      ampi::migrate_to(dests[static_cast<std::size_t>(r)]);

      // Ring exchange with payload mixing after every migration storm.
      std::uint64_t token = checksum * 31 + static_cast<std::uint64_t>(r);
      std::uint64_t incoming = 0;
      ampi::sendrecv(&token, 1, ampi::Dtype::kUint64, (r + 1) % n, round,
                     &incoming, 1, (r + n - 1) % n, round);
      checksum = checksum * 17 + incoming;

      // Everybody must agree on the global checksum sum.
      const std::uint64_t total =
          ampi::allreduce_one<std::uint64_t>(checksum, ampi::Op::kSum);
      std::uint64_t expect_total =
          ampi::allreduce_one<std::uint64_t>(checksum, ampi::Op::kSum);
      if (total != expect_total) failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AmpiChaos, ::testing::Range(1, 9));

// ---- AMPI + LB strategies end-to-end ----------------------------------------

TEST(AmpiLb, EveryStrategyKeepsProgramsCorrect) {
  for (const char* name : {"null", "greedy", "refine", "rotate"}) {
    static std::atomic<long> sum;
    sum = 0;
    ampi::Options opt;
    opt.nranks = 8;
    opt.npes = 4;
    opt.lb_strategy = mfc::lb::strategy_by_name(name);
    ampi::run(opt, [] {
      volatile double burn = 0;
      for (int i = 0; i < 50000 * (ampi::rank() + 1); ++i) burn = burn + i;
      ampi::migrate();
      sum.fetch_add(ampi::allreduce_one<long>(1, ampi::Op::kSum));
    });
    EXPECT_EQ(sum.load(), 8 * 8) << name;
  }
}

// ---- swap-global + migratable threads ---------------------------------------

mfc::swapglobal::Global<long> g_counter{5};

TEST(SwapGlobalMigration, PrivatizedGlobalsTravelViaPup) {
  mfc::iso::Region::Config cfg;
  cfg.npes = 2;
  cfg.slot_bytes = 64 * 1024;
  cfg.slots_per_pe = 256;
  mfc::iso::Region::init(cfg);
  {
    mfc::ult::Scheduler sched;
    auto set = std::make_unique<mfc::swapglobal::GlobalSet>();
    auto* t = new mfc::migrate::IsoThread(
        [] {
          g_counter.get() = 111;
          mfc::ult::Scheduler::current().suspend();
          // Resumed post-migration with a *new* GlobalSet rebuilt from pup.
          g_counter.get() += 1;
        },
        0);
    mfc::swapglobal::attach(t, set.get());
    sched.ready(t);
    sched.run_until_idle();

    // Migrate thread and its global-set together.
    const std::vector<char> wire = t->pack();
    mfc::migrate::ImageManifest timage;
    ASSERT_EQ(mfc::migrate::ImageManifest::decode(wire, &timage),
              mfc::migrate::CodecError::kOk);
    auto set_bytes = mfc::pup::to_bytes(*set);
    delete t;
    set.reset();

    auto* t2 = mfc::migrate::MigratableThread::unpack(timage, 1);
    auto set2 = std::make_unique<mfc::swapglobal::GlobalSet>();
    mfc::pup::from_bytes(set_bytes, *set2);
    mfc::swapglobal::attach(t2, set2.get());
    sched.ready(t2);
    sched.run_until_idle();

    mfc::swapglobal::GlobalSet::install(set2.get());
    EXPECT_EQ(g_counter.get(), 112);
    mfc::swapglobal::GlobalSet::install(nullptr);
    delete t2;
  }
  mfc::iso::Region::shutdown();
  EXPECT_EQ(g_counter.get(), 5);  // shared default untouched
}

// ---- machines back to back ---------------------------------------------------

TEST(Machines, AmpiThenConverseThenAmpi) {
  for (int round = 0; round < 2; ++round) {
    static std::atomic<int> count;
    count = 0;
    ampi::Options opt;
    opt.nranks = 4;
    opt.npes = 2;
    ampi::run(opt, [] {
      ampi::barrier();
      count.fetch_add(1);
    });
    EXPECT_EQ(count.load(), 4);

    std::atomic<int> pes{0};
    cv::Machine::Config cfg;
    cfg.npes = 3;
    cv::Machine::run(cfg, [&](int) { pes.fetch_add(1); });
    EXPECT_EQ(pes.load(), 3);
  }
}

}  // namespace
