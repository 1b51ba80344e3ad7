// Cross-process fault-tolerance tests (labeled `ft`): whole-process kill +
// zygote respawn storms over the procstorm driver (src/chaos/procstorm.h),
// and the rule that no forked process outlives process 0.
//
// The headline probe is digest transparency: a storm whose coordinator
// SIGKILLs entire seed-chosen processes after checkpoint commits must end
// with a workload digest bit-identical to a failure-free run of the same
// options — process loss, respawn, buddy refill and rollback all invisible
// to the workload. Kills always fire right after a commit, so
// recovery rolls back to exactly the committed state and no round replays;
// epoch/kill/detection/recovery/respawn counters are therefore exact, not
// bounds.
//
// Fork-based multi-process legs are compiled out under ThreadSanitizer
// (MFC_TSAN) — tsan does not follow forked children. The loopback legs at
// the bottom (nprocs == 1, shm wire, PE-tier kills) keep the whole FT wire
// path — span-shipped buddy stores included — under the race detector.
#include "chaos/procstorm.h"

#include <gtest/gtest.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <thread>

#include "chaos/chaos.h"
#include "converse/machine.h"

namespace {

namespace chaos = mfc::chaos;
using chaos::ProcStormOptions;
using chaos::ProcStormReport;

/// Committed epochs for a given geometry: one per checkpoint round
/// ((r + 1) % every == 0, final round exempt). Kills never add epochs —
/// the kill-at-commit schedule never replays a checkpoint.
std::uint64_t expected_epochs(const ProcStormOptions& o) {
  std::uint64_t n = 0;
  for (int r = 0; r < o.rounds; ++r) {
    if (o.checkpoint_every > 0 && r != o.rounds - 1 &&
        (r + 1) % o.checkpoint_every == 0) {
      ++n;
    }
  }
  return n;
}

std::uint64_t expected_kills(const ProcStormOptions& o) {
  return o.kill_every > 0 ? expected_epochs(o) / o.kill_every : 0;
}

void expect_exact_ft_books(const ProcStormReport& r,
                           const ProcStormOptions& o) {
  EXPECT_TRUE(r.clean(o.npes));
  EXPECT_EQ(r.rounds, static_cast<std::uint64_t>(o.rounds));
  EXPECT_EQ(r.ft_epochs, expected_epochs(o));
  EXPECT_EQ(r.kills, expected_kills(o));
  EXPECT_EQ(r.detections, expected_kills(o));
  EXPECT_EQ(r.recoveries, expected_kills(o));
  if (o.checkpoint_every > 0) {
    EXPECT_GT(r.ft_ship_bytes, 0u);
  }
}

#ifndef MFC_TSAN

/// The acceptance geometry: 64 PEs across 4 processes over shm rings,
/// two whole-process SIGKILLs mid-run. The digest must match a run that
/// never installed FT at all.
TEST(Ftx, ShmProcKillStormDigestMatchesCalm) {
  ProcStormOptions calm;
  calm.seed = 20260809;
  calm.npes = 64;
  calm.nprocs = 4;
  calm.transport = 1;
  calm.rounds = 12;
  const ProcStormReport base = run_proc_storm(calm);
  ASSERT_TRUE(base.clean(calm.npes));
  ASSERT_NE(base.workload_digest, 0u);
  EXPECT_EQ(base.kills, 0u);
  EXPECT_EQ(base.proc_respawns, 0u);

  ProcStormOptions storm = calm;
  storm.checkpoint_every = 2;  // epochs at rounds 1,3,5,7,9
  storm.kill_every = 2;        // SIGKILL after commits 2 and 4
  const ProcStormReport r = run_proc_storm(storm);
  expect_exact_ft_books(r, storm);
  EXPECT_EQ(r.proc_respawns, expected_kills(storm));
  EXPECT_EQ(r.workload_digest, base.workload_digest);
}

/// Same seed, same options → bit-identical digests: the kill schedule, the
/// victim draws and the recovery are all deterministic.
TEST(Ftx, SameSeedProcKillRunsAreBitIdentical) {
  ProcStormOptions opt;
  opt.seed = 4242;
  opt.npes = 8;
  opt.nprocs = 4;
  opt.transport = 1;
  opt.rounds = 10;
  opt.checkpoint_every = 2;
  opt.kill_every = 2;
  const ProcStormReport a = run_proc_storm(opt);
  const ProcStormReport b = run_proc_storm(opt);
  expect_exact_ft_books(a, opt);
  expect_exact_ft_books(b, opt);
  EXPECT_EQ(a.workload_digest, b.workload_digest);
  EXPECT_EQ(a.ft_ship_bytes, b.ft_ship_bytes);
}

/// nprocs == 2 with a kill at every commit: the only possible victim is
/// process 1, so its *respawned* incarnation is killed again and again —
/// the zygote must keep serving respawns for a process it already
/// resurrected (ctl-channel reuse across generations).
TEST(Ftx, RespawnedProcessSurvivesRepeatedKills) {
  ProcStormOptions calm;
  calm.seed = 99;
  calm.npes = 8;
  calm.nprocs = 2;
  calm.transport = 1;
  calm.rounds = 10;
  const ProcStormReport base = run_proc_storm(calm);
  ASSERT_TRUE(base.clean(calm.npes));

  ProcStormOptions storm = calm;
  storm.checkpoint_every = 2;
  storm.kill_every = 1;  // all four commits followed by a SIGKILL of proc 1
  const ProcStormReport r = run_proc_storm(storm);
  expect_exact_ft_books(r, storm);
  EXPECT_EQ(r.kills, 4u);
  EXPECT_EQ(r.proc_respawns, 4u);
  EXPECT_EQ(r.workload_digest, base.workload_digest);
}

// ---- No process outlives process 0 ------------------------------------------

/// Exit codes of the helper process below.
enum HelperExit : int {
  kAllReaped = 0,
  kMachineNotUp = 10,    ///< the machine never signalled it was up
  kOrphanSurvived = 11,  ///< a forked process outlived process 0 by 5 s
  kWrongKidCount = 12,   ///< process 0 forked other than kMachineKids
};

/// The machine process 0 forks: 3 workers and the respawn zygote.
constexpr int kMachineKids = 4;

/// Runs in a forked helper that is the subreaper of a 4-process FT-armed
/// machine: once every process is up it SIGKILLs process 0, and then every
/// process the machine forked must be reaped here within 5 s. Reaping is
/// the proof — a zombie still answers kill(pid, 0).
[[noreturn]] void orphan_helper() {
  namespace cv = mfc::converse;
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);
  int up[2];
  if (::pipe(up) != 0) std::_Exit(kMachineNotUp);
  const pid_t p0 = ::fork();
  if (p0 < 0) std::_Exit(kMachineNotUp);
  if (p0 == 0) {
    // Process 0, in a process group of its own so the helper can clean up
    // whatever survives it.
    ::setpgid(0, 0);
    ::close(up[0]);
    cv::FtMachineHooks hooks;
    hooks.pe0_tick = [] {};
    hooks.on_revive = [](int) {};
    cv::set_ft_machine_hooks(std::move(hooks));
    cv::Machine::Config mc;
    mc.npes = 8;
    mc.nprocs = 4;
    mc.transport = cv::Machine::Config::Transport::kShm;
    mc.iso_slots_per_pe = 0;
    const int up_fd = up[1];
    cv::Machine::run(mc, [up_fd](int pe) {
      cv::barrier();  // every process's PEs are running
      if (pe != 0) return;
      const char byte = 1;
      if (::write(up_fd, &byte, 1) != 1) std::_Exit(1);
      mfc::ult::suspend();  // never resumed: the machine never stops
    });
    std::_Exit(0);
  }
  ::setpgid(p0, p0);
  ::close(up[1]);
  pollfd pfd{up[0], POLLIN, 0};
  char byte = 0;
  const bool machine_up =
      ::poll(&pfd, 1, 60000) == 1 && ::read(up[0], &byte, 1) == 1;
  ::kill(p0, SIGKILL);
  ::waitpid(p0, nullptr, 0);
  int reaped = 0;
  int verdict = machine_up ? kAllReaped : kMachineNotUp;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    const pid_t r = ::waitpid(-1, nullptr, WNOHANG);
    if (r > 0) {
      ++reaped;
      continue;
    }
    if (r < 0 && errno == ECHILD) break;
    const bool late = std::chrono::steady_clock::now() >= deadline;
    if (verdict == kAllReaped && late) verdict = kOrphanSurvived;
    if (verdict != kAllReaped) {
      ::kill(-p0, SIGKILL);  // clean up, then reap the rest
      while (::waitpid(-1, nullptr, 0) > 0) {
      }
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (verdict == kAllReaped && reaped != kMachineKids) verdict = kWrongKidCount;
  std::_Exit(verdict);
}

TEST(Ftx, KillingProcessZeroLeavesNoOrphans) {
  const pid_t helper = ::fork();
  ASSERT_GE(helper, 0);
  if (helper == 0) orphan_helper();
  int status = 0;
  ASSERT_EQ(::waitpid(helper, &status, 0), helper);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), kAllReaped) << "see HelperExit";
}

#endif  // !MFC_TSAN

/// Checkpoints ship whole blobs over the shm wire only: any other ft_mode
/// or transport aborts before the machine boots.
TEST(FtxDeath, RunProcStormRejectsNonzeroFtMode) {
  // Threadsafe style re-runs this body in a fresh process, clear of the
  // threads earlier machine runs left behind.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ProcStormOptions opt;
  opt.npes = 4;
  opt.nprocs = 1;
  opt.rounds = 2;
  opt.checkpoint_every = 1;
  for (int mode : {1, 2}) {
    opt.ft_mode = mode;
    EXPECT_DEATH(run_proc_storm(opt), "ft_mode must be 0") << "mode " << mode;
  }
  opt.ft_mode = 0;
  opt.transport = 2;  // only 1, the shm wire, is accepted
  EXPECT_DEATH(run_proc_storm(opt), "transport must be 1");
}

/// Loopback leg (always compiled, tsan-clean): single process, all cross-PE
/// traffic over the shm wire, PE-tier kills. Keeps span-shipped buddy
/// stores, the detector and the rollback protocol under ThreadSanitizer.
TEST(Ftx, LoopbackShmWirePeKillStorm) {
  ProcStormOptions calm;
  calm.seed = 555;
  calm.npes = 4;
  calm.nprocs = 1;
  calm.transport = 1;
  calm.rounds = 8;
  const ProcStormReport base = run_proc_storm(calm);
  ASSERT_TRUE(base.clean(calm.npes));

  ProcStormOptions storm = calm;
  storm.checkpoint_every = 2;  // epochs at rounds 1,3,5
  storm.kill_every = 2;        // one PE kill, after commit 2
  const ProcStormReport r = run_proc_storm(storm);
  expect_exact_ft_books(r, storm);
  EXPECT_EQ(r.kills, 1u);
  EXPECT_EQ(r.proc_respawns, 0u);  // PE tier: revive in place, no fork
  EXPECT_EQ(r.workload_digest, base.workload_digest);
}

/// Calm loopback variant: the wire path without failures, on another seed
/// than the kill storm above — this probes books only.
TEST(Ftx, LoopbackShmCheckpointOnlyStorm) {
  ProcStormOptions opt;
  opt.seed = 31337;
  opt.npes = 4;
  opt.nprocs = 1;
  opt.transport = 1;
  opt.rounds = 8;
  opt.checkpoint_every = 2;
  const ProcStormReport r = run_proc_storm(opt);
  expect_exact_ft_books(r, opt);
  EXPECT_EQ(r.kills, 0u);
}

}  // namespace
