// Fault-tolerance storm tests (labeled `ft`): seeded PE-kill storms over
// the buddy in-memory checkpoint/restart layer (src/ft).
//
// The geometry below (npes=4, 16 rounds, checkpoint every 2, kill every 2nd
// checkpoint) commits epochs at rounds 1,3,5,7,9,11,13 — seven of them —
// and kills a seed-chosen victim PE at the release of rounds 3, 7 and 11.
// Each kill is noticed by the detector (never by the test): PE 0 reads the
// victim's control line and finds its progress standing still. The
// survivors roll back to the last committed epoch, the victim's objects are
// respawned from buddy images, and the storm replays forward. All the usual
// storm invariants (canaries, digests, routed wakeups, counter balance
// under quiescence, slot/pool books) must hold afterwards, and the
// workload digest must match a run that never saw a failure.
#include "chaos/storm.h"

#include <gtest/gtest.h>

#include "chaos/chaos.h"

namespace {

namespace chaos = mfc::chaos;
using chaos::StormOptions;
using chaos::StormReport;

constexpr int kPeKillIdx = static_cast<int>(chaos::Point::kPeKill);

StormOptions ft_options(std::uint64_t seed) {
  StormOptions opt;
  opt.seed = seed;
  opt.npes = 4;
  opt.workers = 12;  // 4 per migration technique
  opt.rounds = 16;
  opt.chaos.seed = seed;
  opt.ft_checkpoint_every = 2;
  opt.ft_kill_every = 2;
  // Tight detector so the three detections cost well under a second of
  // wall clock, but slack enough that a tsan-slowed PE never trips it.
  opt.ft_timeout_us = 200000;
  return opt;
}

/// Storm invariants under FT. Unlike the plain-storm checker this bounds
/// thread_migrations from below: rounds replayed after a rollback migrate
/// every worker again, so kill runs exceed workers × rounds.
void expect_ft_clean(const StormReport& r, const StormOptions& opt) {
  EXPECT_EQ(r.canary_failures, 0u);
  EXPECT_EQ(r.digest_mismatches, 0u);
  EXPECT_EQ(r.misroutes, 0u);
  EXPECT_EQ(r.counter_failures, 0u);
  EXPECT_TRUE(r.slots_balanced);
  EXPECT_TRUE(r.pool_balanced);
  EXPECT_TRUE(r.clean());
  EXPECT_EQ(r.rounds, static_cast<std::uint64_t>(opt.rounds));
  EXPECT_GE(r.thread_migrations,
            static_cast<std::uint64_t>(opt.workers) *
                static_cast<std::uint64_t>(opt.rounds));
  EXPECT_GT(r.pings_delivered, 0u);
  EXPECT_GT(r.wire_bytes, 0u);
}

TEST(FtStorm, KillStormSurvivesAndIsClean) {
  StormOptions opt = ft_options(7);
  StormReport r = chaos::run_storm(opt);
  expect_ft_clean(r, opt);

  // Seven committed epochs, three detector-triggered kills, three
  // completed rollbacks — all driven by the seed, none by the test.
  EXPECT_EQ(r.ft_epochs, 7u);
  EXPECT_EQ(r.ft_kills, 3u);
  EXPECT_EQ(r.ft_detections, 3u);
  EXPECT_EQ(r.ft_recoveries, 3u);
  EXPECT_EQ(r.injections[kPeKillIdx], 3u);
  EXPECT_GT(r.ft_checkpoint_bytes, 0u);
}

TEST(FtStorm, SameSeedKillRunsAreBitIdentical) {
  StormOptions opt = ft_options(21);
  opt.trace = true;
  opt.trace_file = "ft_storm_replay_a.json";
  StormReport a = chaos::run_storm(opt);
  opt.trace_file = "ft_storm_replay_b.json";
  StormReport b = chaos::run_storm(opt);
  expect_ft_clean(a, opt);
  expect_ft_clean(b, opt);

  // Kills, detections, rollbacks and replays are all on the seeded path,
  // so two same-seed kill runs agree bit-for-bit — including the full
  // deterministic-class trace digest, not just the FT subset.
  EXPECT_EQ(a.workload_digest, b.workload_digest);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.ft_trace_digest, b.ft_trace_digest);
  EXPECT_EQ(a.thread_migrations, b.thread_migrations);
  EXPECT_EQ(a.element_migrations, b.element_migrations);
  EXPECT_EQ(a.pings_delivered, b.pings_delivered);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  EXPECT_EQ(a.ft_kills, b.ft_kills);
  EXPECT_EQ(a.ft_recoveries, b.ft_recoveries);
}

TEST(FtStorm, KillRunMatchesFailureFreeRun) {
  StormOptions kill = ft_options(33);
  kill.trace = true;
  kill.trace_file = "ft_storm_kill.json";
  StormReport a = chaos::run_storm(kill);

  StormOptions calm = ft_options(33);
  calm.ft_kill_every = 0;  // same checkpoints, no failures
  calm.trace = true;
  calm.trace_file = "ft_storm_calm.json";
  StormReport b = chaos::run_storm(calm);

  expect_ft_clean(a, kill);
  expect_ft_clean(b, calm);
  EXPECT_EQ(a.ft_kills, 3u);
  EXPECT_EQ(b.ft_kills, 0u);
  EXPECT_EQ(b.ft_recoveries, 0u);

  // Recovery restored every counter and every thread to the epoch image,
  // so the replayed rounds reproduce the failure-free run exactly: same
  // workload digest, same round/checkpoint event counts, same delivered
  // pings. This is the acceptance probe for "recovery is transparent".
  EXPECT_EQ(a.workload_digest, b.workload_digest);
  EXPECT_EQ(a.ft_trace_digest, b.ft_trace_digest);
  EXPECT_EQ(a.ft_epochs, b.ft_epochs);
  EXPECT_EQ(a.pings_delivered, b.pings_delivered);
}

TEST(FtStorm, CheckpointOnlyStormIsTransparent) {
  StormOptions ckpt = ft_options(5);
  ckpt.ft_kill_every = 0;
  StormReport a = chaos::run_storm(ckpt);

  StormOptions off = ft_options(5);
  off.ft_checkpoint_every = 0;
  off.ft_kill_every = 0;
  StormReport b = chaos::run_storm(off);

  expect_ft_clean(a, ckpt);
  expect_ft_clean(b, off);
  EXPECT_EQ(a.ft_epochs, 7u);
  EXPECT_EQ(b.ft_epochs, 0u);

  // Checkpointing brackets rounds with quiescence but never perturbs the
  // seed-derived workload: the digest matches a run with FT off entirely.
  EXPECT_EQ(a.workload_digest, b.workload_digest);
  EXPECT_EQ(a.thread_migrations, b.thread_migrations);
}

TEST(FtStorm, EveryTechniqueSurvivesAKill) {
  for (int technique = 0; technique < 3; ++technique) {
    StormOptions opt = ft_options(11 + static_cast<std::uint64_t>(technique));
    opt.workers = 8;
    opt.rounds = 10;
    opt.ft_checkpoint_every = 3;  // epochs at rounds 2, 5, 8
    opt.ft_kill_every = 2;        // one kill, at the round-5 release
    opt.single_technique = technique;
    StormReport r = chaos::run_storm(opt);
    expect_ft_clean(r, opt);
    EXPECT_EQ(r.ft_epochs, 3u) << "technique " << technique;
    EXPECT_EQ(r.ft_kills, 1u) << "technique " << technique;
    EXPECT_EQ(r.ft_recoveries, 1u) << "technique " << technique;
  }
}

}  // namespace
