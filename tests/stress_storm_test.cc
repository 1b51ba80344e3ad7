// Migration-storm stress tests (labeled `stress`; the tsan CI preset runs
// these under ThreadSanitizer with a fixed seed matrix). Multi-process legs
// are compiled out under tsan (MFC_TSAN): tsan does not follow fork.
//
// Reproducing a failed seed: the storm prints `MFC_CHAOS_SEED=<n>` at
// install time; rerun that exact interleaving pressure with
//   MFC_CHAOS_SEED=<n> ctest --preset tsan -R Storm
#include "chaos/storm.h"

#include <gtest/gtest.h>

#include "trace/metrics.h"

#include <cstdint>
#include <string>
#include <vector>

namespace {

namespace chaos = mfc::chaos;
using chaos::StormOptions;
using chaos::StormReport;

StormOptions quiet_options(std::uint64_t seed) {
  StormOptions opt;
  opt.seed = seed;
  opt.npes = 4;
  opt.workers = 6;
  opt.rounds = 6;
  return opt;
}

/// Full-adversary options: every fault point live and deterministic
/// scheduler picks, on a seed-chosen transport (seed % 3 == 0: in-process
/// queues; otherwise the shm rings), so thread images ship over a real
/// wire.
StormOptions hostile_options(std::uint64_t seed) {
  StormOptions opt;
  opt.seed = seed;
  opt.npes = 4;
  opt.workers = 9;  // 3 per migration technique
  opt.rounds = 12;
  opt.transport = seed % 3 == 0 ? 0 : 1;
  opt.chaos.enabled = true;
  opt.chaos.seed = seed;
  opt.chaos.deterministic_sched = true;
  opt.chaos.iso_alloc_fail = 0.05;
  opt.chaos.pool_fail = 0.05;
  opt.chaos.delivery_delay = 0.15;
  opt.chaos.max_delay_ticks = 6;
  opt.chaos.preempt = 0.02;
  return opt;
}

void expect_clean(const StormReport& r, const StormOptions& opt) {
  EXPECT_EQ(r.canary_failures, 0u);
  EXPECT_EQ(r.digest_mismatches, 0u);
  EXPECT_EQ(r.misroutes, 0u);
  EXPECT_EQ(r.counter_failures, 0u);
  EXPECT_TRUE(r.slots_balanced);
  EXPECT_TRUE(r.stack_pool_balanced);
  EXPECT_TRUE(r.pool_balanced);
  EXPECT_TRUE(r.clean());
  EXPECT_EQ(r.rounds, static_cast<std::uint64_t>(opt.rounds));
  EXPECT_EQ(r.thread_migrations,
            static_cast<std::uint64_t>(opt.workers) *
                static_cast<std::uint64_t>(opt.rounds));
  EXPECT_GT(r.pings_delivered, 0u);
  EXPECT_GT(r.wire_bytes, 0u);
}

TEST(Storm, CleanRunWithoutChaos) {
  StormOptions opt = quiet_options(1);
  StormReport r = chaos::run_storm(opt);
  expect_clean(r, opt);
  for (int p = 0; p < chaos::kPointCount; ++p) EXPECT_EQ(r.injections[p], 0u);
}

/// The arrival checks must count damage, not only stay quiet without it.
/// One appended byte leaves the thread intact (the receiver decodes the
/// image as a prefix of what arrived) but fails both checks: the transit
/// CRC no longer matches, and the installed thread's repack is a byte
/// shorter than the arrived bytes. One flipped bit in the sent CRC fails
/// the transit check alone. Across two processes every arrival is counted,
/// whichever process it lands in.
TEST(Storm, ArrivalChecksCountDamagedShipments) {
  std::vector<int> nprocs = {1};
#ifndef MFC_TSAN
  nprocs.push_back(2);
#endif
  for (const int n : nprocs) {
    SCOPED_TRACE("nprocs=" + std::to_string(n));
    StormOptions opt = quiet_options(3);
    opt.nprocs = n;
    opt.transport = n > 1 ? 1 : 0;
    const std::uint64_t migrations = static_cast<std::uint64_t>(opt.workers) *
                                     static_cast<std::uint64_t>(opt.rounds);

    chaos::set_ship_tamper_for_testing(
        [](std::vector<char>& wire, std::uint64_t&) { wire.push_back('\0'); });
    const StormReport grown = chaos::run_storm(opt);
    chaos::set_ship_tamper_for_testing(
        [](std::vector<char>&, std::uint64_t& crc) { crc ^= 1; });
    const StormReport flipped = chaos::run_storm(opt);
    chaos::set_ship_tamper_for_testing(nullptr);

    EXPECT_EQ(grown.thread_migrations, migrations);
    EXPECT_EQ(grown.digest_mismatches, 2 * migrations);
    EXPECT_EQ(flipped.thread_migrations, migrations);
    EXPECT_EQ(flipped.digest_mismatches, migrations);
    for (const StormReport* r : {&grown, &flipped}) {
      EXPECT_FALSE(r->clean());
      EXPECT_EQ(r->canary_failures, 0u);
      EXPECT_EQ(r->misroutes, 0u);
      EXPECT_EQ(r->counter_failures, 0u);
      EXPECT_TRUE(r->slots_balanced);
      EXPECT_TRUE(r->stack_pool_balanced);
    }
  }
}

/// The page-table calls a migration still makes, read from the runtime's
/// own counters on the benchmark storm's shape (4 PEs, 12 workers, a third
/// per technique). An isomalloc migration evacuates and installs one slot
/// run (a call each way, madvise or the remap fallback's mmap), a
/// memory-alias migration maps its pool slot once at the switch-in, and a
/// stack-copy migration makes none: 1.0 per migration. Set-up is each
/// memory-alias worker's first map and at most one pool growth.
TEST(Storm, MigrationsCostOnePageCallEach) {
  namespace metrics = mfc::metrics;
  StormOptions opt;
  opt.seed = 7;
  opt.npes = 4;
  opt.workers = 12;
  opt.rounds = 50;
  const StormReport r = chaos::run_storm(opt);
  expect_clean(r, opt);
  const std::uint64_t iso_calls = metrics::total(metrics::Counter::kIsoMadvise);
  const std::uint64_t maps = metrics::total(metrics::Counter::kMemAliasMaps);
  const std::uint64_t memalias_workers =
      static_cast<std::uint64_t>(opt.workers / 3);
  EXPECT_EQ(iso_calls, 2 * metrics::total(metrics::Counter::kPackIso));
  EXPECT_LE(maps, metrics::total(metrics::Counter::kUnpackMemAlias) +
                      memalias_workers);
  EXPECT_LE(metrics::total(metrics::Counter::kMemAliasPoolGrows), 1u);
  EXPECT_EQ(iso_calls + maps - memalias_workers, r.thread_migrations)
      << "page-table calls per migration, set-up excluded, are not 1.0";
}

/// Every image carries only live bytes: each stack from its saved stack
/// pointer up, each isomalloc heap arena through its free tail's header. On
/// the benchmark storm's shape a shipment then averages well under 1 KiB;
/// a memory-alias image with its whole 16 KiB stack, or an isomalloc image
/// with its whole 16 KiB heap slot, would lift the mean above 5 KiB.
TEST(Storm, ImagesShipOnlyLiveBytes) {
  StormOptions opt;
  opt.seed = 7;
  opt.npes = 4;
  opt.workers = 12;
  opt.rounds = 50;
  const StormReport r = chaos::run_storm(opt);
  expect_clean(r, opt);
  EXPECT_LE(r.wire_bytes / r.thread_migrations, 1024u)
      << r.wire_bytes << " image bytes over " << r.thread_migrations
      << " migrations";
}

TEST(Storm, WorkloadDigestReplaysBitIdentically) {
  StormOptions opt = hostile_options(40);
  opt.trace = true;
  opt.trace_file = "storm_replay_a.json";
  StormReport a = chaos::run_storm(opt);
  opt.trace_file = "storm_replay_b.json";
  StormReport b = chaos::run_storm(opt);
  expect_clean(a, opt);
  expect_clean(b, opt);
  EXPECT_EQ(a.workload_digest, b.workload_digest)
      << "same StormOptions must replay the same workload bit-identically";

  // The traced event stream obeys the same contract on its deterministic
  // classes: two same-seed storms produce identical event-count digests.
  ASSERT_TRUE(a.traced);
  ASSERT_TRUE(b.traced);
  EXPECT_NE(a.trace_digest, 0u);
  EXPECT_EQ(a.trace_digest, b.trace_digest)
      << "same-seed storms must emit identical deterministic event counts";
  EXPECT_GT(a.trace_events, 0u);
  // Every thread migration is exactly one pack, split evenly across the
  // three techniques (workers cycle w % 3 and hostile_options uses 9).
  const std::uint64_t per_technique =
      static_cast<std::uint64_t>(opt.workers / 3) *
      static_cast<std::uint64_t>(opt.rounds);
  for (int t = 0; t < 3; ++t) {
    EXPECT_EQ(a.packs_by_technique[t], per_technique) << "technique " << t;
  }
  EXPECT_EQ(a.packs_by_technique[0] + a.packs_by_technique[1] +
                a.packs_by_technique[2],
            a.thread_migrations);

  StormOptions other = hostile_options(41);
  StormReport c = chaos::run_storm(other);
  expect_clean(c, other);
  EXPECT_NE(a.workload_digest, c.workload_digest)
      << "different seeds must drive different itineraries";
}

/// The acceptance storm: >= 100 randomized migration rounds across all three
/// techniques with every fault point enabled.
TEST(Storm, HundredRoundAcceptanceUnderFullChaos) {
  StormOptions opt = hostile_options(7);
  opt.rounds = 101;
  StormReport r = chaos::run_storm(opt);
  expect_clean(r, opt);
  EXPECT_GE(r.rounds, 100u);
  EXPECT_EQ(r.thread_migrations, 9u * 101u);
  std::uint64_t fired = 0;
  for (int p = 0; p < chaos::kPointCount; ++p) fired += r.injections[p];
  EXPECT_GT(fired, 0u) << "full-chaos storm must actually inject faults";
}

TEST(Storm, WorkloadDigestIsTransportIndependent) {
  // The same seed in every machine shape: in-process queues, the shm wire
  // in loopback mode (every cross-PE message including the scatter-gather
  // thread-image ships riding the rings), and the shm wire across 2 and 4
  // processes. Itineraries and histories are functions of the seed, never
  // of the shape that carried them, and so is every count of the report,
  // whichever process made it. Chaos stays off so the only variable is the
  // machine.
  struct Shape {
    int transport;
    int nprocs;
  };
  std::vector<Shape> shapes = {{0, 1}, {1, 1}};
#ifndef MFC_TSAN
  shapes.push_back({1, 2});
  shapes.push_back({1, 4});
#endif
  StormReport ref;
  for (const Shape& shape : shapes) {
    SCOPED_TRACE("transport=" + std::to_string(shape.transport) +
                 " nprocs=" + std::to_string(shape.nprocs));
    StormOptions opt = quiet_options(9001);
    opt.transport = shape.transport;
    opt.nprocs = shape.nprocs;
    const StormReport r = chaos::run_storm(opt);
    expect_clean(r, opt);
    if (&shape == &shapes.front()) {
      ref = r;
      continue;
    }
    EXPECT_EQ(r.workload_digest, ref.workload_digest)
        << "the machine's shape changed the workload";
    // The wire moves the same logical bytes too: serialized thread-image
    // volume is shape-invariant.
    EXPECT_EQ(r.wire_bytes, ref.wire_bytes);
    EXPECT_EQ(r.thread_migrations, ref.thread_migrations);
    EXPECT_EQ(r.pings_delivered, ref.pings_delivered);
    EXPECT_EQ(r.element_migrations, ref.element_migrations);
    for (int t = 0; t < 3; ++t) {
      EXPECT_EQ(r.packs_by_technique[t], ref.packs_by_technique[t]);
    }
  }
}

#ifndef MFC_TSAN
/// What the storm does not run across processes yet fails a check that
/// names the reason.
TEST(StormDeathTest, UnsupportedMultiProcessOptionsNameTheReason) {
  const auto dies = [](void (*set)(StormOptions&), const char* reason) {
    StormOptions opt = quiet_options(5);
    opt.nprocs = 2;
    opt.transport = 1;
    set(opt);
    EXPECT_DEATH(chaos::run_storm(opt), reason);
  };
  dies([](StormOptions& o) { o.transport = 0; }, "needs the shm wire");
  dies([](StormOptions& o) { o.nprocs = 3; }, "divide evenly");
  dies([](StormOptions& o) { o.ft_checkpoint_every = 2; }, "FT runs on one");
  dies([](StormOptions& o) { o.chaos.enabled = true; }, "chaos runs on one");
  dies([](StormOptions& o) { o.trace = true; }, "trace records one");
}
#endif

/// Fixed three-seed matrix run by the tsan CI preset (-L stress).
class StormSeedMatrix : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StormSeedMatrix, HostileStormStaysClean) {
  StormOptions opt = hostile_options(GetParam());
  StormReport r = chaos::run_storm(opt);
  expect_clean(r, opt);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StormSeedMatrix,
                         ::testing::Values(101u, 202u, 303u));

}  // namespace
