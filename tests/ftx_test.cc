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
#include "ft/ft.h"
#include "ult/scheduler.h"

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

// ---- Forked FT machines with a deadline -------------------------------------
//
// The tests below run an FT-armed multi-process machine inside a forked
// helper, so a hang fails the test at its own deadline instead of stalling
// CI. Each process of the machine has its own copy of these globals.

constexpr int kMaxPes = 4;
/// Per PE: its main, parked until a handler or hook wakes it.
mfc::ult::Thread* g_parked[kMaxPes] = {};

/// Parks the calling main until `flag` is set by a handler or hook that
/// calls wake_parked() on the same PE.
void park_until(const bool& flag) {
  namespace cv = mfc::converse;
  while (!flag) {
    g_parked[cv::my_pe()] = cv::pe_scheduler().running();
    mfc::ult::suspend();
  }
}

void wake_parked() {
  namespace cv = mfc::converse;
  if (mfc::ult::Thread* t = g_parked[cv::my_pe()]) {
    g_parked[cv::my_pe()] = nullptr;
    cv::ready_thread(t);
  }
}

/// FT hooks for machines whose state is not the point: every blob is one
/// byte and a rollback restores nothing.
mfc::ft::Hooks trivial_ft_hooks(std::uint64_t timeout_us,
                                void (*on_recovered)()) {
  mfc::ft::Hooks hooks;
  hooks.capture = [](std::uint64_t) { return std::vector<char>(1, 'f'); };
  hooks.wipe = [](int) {};
  hooks.discard = [] {};
  hooks.restore = [](std::uint64_t, const std::vector<char>&) {};
  hooks.on_recovered = [on_recovered](std::uint64_t) { on_recovered(); };
  hooks.timeout_us = timeout_us;
  return hooks;
}

mfc::converse::Machine::Config shm_machine(int npes, int nprocs) {
  mfc::converse::Machine::Config mc;
  mc.npes = npes;
  mc.nprocs = nprocs;
  mc.transport = mfc::converse::Machine::Config::Transport::kShm;
  mc.iso_slots_per_pe = 0;
  return mc;
}

/// Runs `body` (which _Exits 0 on success) in a forked helper with its own
/// process group and fails the test if it does not exit 0 within 60 s.
void expect_helper_passes(void (*body)(), const char* hang,
                          const char* fail) {
  const pid_t helper = ::fork();
  ASSERT_GE(helper, 0);
  if (helper == 0) {
    ::setpgid(0, 0);
    body();
    std::_Exit(2);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  int status = 0;
  pid_t r = 0;
  while ((r = ::waitpid(helper, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (r == 0) {
    ::kill(-helper, SIGKILL);  // the helper's process group: the machine
    ::waitpid(helper, &status, 0);
    FAIL() << hang;
  }
  ASSERT_EQ(r, helper);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << fail;
}

// ---- No sender waits on a dead process --------------------------------------

namespace flood {
constexpr int kFrames = 256;                // 256 KiB: four 64 KiB rings
constexpr std::size_t kFrameBytes = 1024;
mfc::converse::HandlerId h_sink = 0;  ///< process 1's PE drops the bytes
mfc::converse::HandlerId h_done = 0;  ///< wakes PE 1's parked main
bool done = false;                    ///< PE 1: h_done arrived
bool recovered = false;               ///< PE 0: the rollback completed
}  // namespace flood

/// Process 0 of a 2-process FT-armed machine SIGKILLs process 1, then —
/// from its main thread, never returning to its scheduler loop, where the
/// FT tick runs — floods process 1's PE with four rings' worth of frames.
/// Nothing drains that ring until the respawn the tick starts, so a send
/// that waited out the full ring would wait forever. The run must detect
/// the death, respawn, recover and finish. Exits 0 on exactly one
/// detection and recovery.
void flood_dead_process() {
  namespace cv = mfc::converse;
  flood::h_sink = cv::register_handler([](cv::Message&&) {});
  flood::h_done = cv::register_handler([](cv::Message&&) {
    flood::done = true;
    wake_parked();
  });
  // Detection must come from the reaped process, not the detector's
  // timeout.
  mfc::ft::install(2, trivial_ft_hooks(30'000'000, [] {
                     flood::recovered = true;
                     wake_parked();
                   }));
  cv::Machine::run(shm_machine(2, 2), [](int pe) {
    if (cv::respawn_generation() > 0) {
      park_until(flood::done);
      return;
    }
    cv::barrier();
    if (pe != 0) {
      park_until(flood::done);
      return;
    }
    mfc::ft::checkpoint_now();  // the epoch recovery rolls back to
    cv::kill_proc(1);
    for (int i = 0; i < flood::kFrames; ++i) {
      cv::send(1, flood::h_sink, std::vector<char>(flood::kFrameBytes, 'x'));
    }
    park_until(flood::recovered);
    cv::send(1, flood::h_done, {});
  });
  const bool books = mfc::ft::detections() == 1 && mfc::ft::recoveries() == 1;
  mfc::ft::uninstall();
  std::_Exit(books ? 0 : 1);
}

TEST(Ftx, SendsToADeadProcessNeverStallTheDetector) {
  expect_helper_passes(flood_dead_process,
                       "the machine hung: a send waited on the dead process",
                       "not exactly one detection/recovery");
}

// ---- A busy PE in a live process is load, not a failure ---------------------

namespace stall {
constexpr std::uint64_t kTimeoutUs = 100'000;
mfc::converse::HandlerId h_stall = 0;     ///< PE 3 holds its thread
mfc::converse::HandlerId h_stalled = 0;   ///< PE 3 → PE 0: the stall is over
mfc::converse::HandlerId h_sink = 0;      ///< frames that wait for PE 3
mfc::converse::HandlerId h_finish = 0;    ///< PE 0 → the rest: return
bool stalled = false;                     ///< PE 0
bool finished[kMaxPes] = {};              ///< per PE
}  // namespace stall

/// A 4-PE/2-process FT-armed machine commits an epoch; then PE 3's handler
/// holds its thread for twice the detector timeout while PE 2, in the same
/// process, stays idle, and frames for PE 3 wait in the rings toward the
/// process meanwhile. PE 3 is suspect, but its process is alive: the
/// failure unit is the process, so nothing is detected and nothing rolls
/// back. Exits 0 on 0 detections and 0 recoveries.
void stall_one_pe() {
  namespace cv = mfc::converse;
  stall::h_stall = cv::register_handler([](cv::Message&&) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(2 * stall::kTimeoutUs));
    cv::send_value(0, stall::h_stalled, 0);
  });
  stall::h_stalled = cv::register_handler([](cv::Message&&) {
    stall::stalled = true;
    wake_parked();
  });
  stall::h_sink = cv::register_handler([](cv::Message&&) {});
  stall::h_finish = cv::register_handler([](cv::Message&&) {
    stall::finished[cv::my_pe()] = true;
    wake_parked();
  });
  mfc::ft::install(4, trivial_ft_hooks(stall::kTimeoutUs, [] {}));
  cv::Machine::run(shm_machine(4, 2), [](int pe) {
    cv::barrier();
    if (pe != 0) {
      park_until(stall::finished[pe]);
      return;
    }
    mfc::ft::checkpoint_now();
    cv::send_value(3, stall::h_stall, 0);
    // Once PE 3 is inside the stall, nothing drains these from the rings
    // but a sibling: the producer wakes only their destination, PE 3.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    for (int i = 0; i < 4; ++i) cv::send_value(3, stall::h_sink, i);
    park_until(stall::stalled);
    for (int p = 1; p < 4; ++p) cv::send_value(p, stall::h_finish, 0);
  });
  const bool books = mfc::ft::detections() == 0 && mfc::ft::recoveries() == 0;
  mfc::ft::uninstall();
  std::_Exit(books ? 0 : 1);
}

TEST(Ftx, StalledHandlerInALiveProcessIsNotAFailure) {
  expect_helper_passes(stall_one_pe, "the stalled machine never finished",
                       "a stalled PE in a live process was rolled back");
}

// ---- A wedged process with work waiting is found ----------------------------

namespace wedge {
constexpr std::uint64_t kTimeoutUs = 100'000;
mfc::converse::HandlerId h_pid = 0;   ///< process 1 → PE 0: its pid
mfc::converse::HandlerId h_sink = 0;  ///< the frame the stopped process holds
mfc::converse::HandlerId h_done = 0;  ///< wakes PE 1's parked main
pid_t proc1 = 0;                      ///< PE 0
bool got_pid = false;                 ///< PE 0
bool recovered = false;               ///< PE 0: the rollback completed
bool done = false;                    ///< PE 1
}  // namespace wedge

/// A 2-process FT-armed machine learns process 1's pid by message and
/// commits an epoch. It lets process 1 park, SIGSTOPs it, then sends it one
/// frame: a parked PE with input waiting whose progress stands still. The
/// detector must escalate to a SIGKILL of process 1; reap, respawn and
/// recovery follow. Exits 0 on exactly one recovery.
void wedge_process_one() {
  namespace cv = mfc::converse;
  wedge::h_pid = cv::register_handler([](cv::Message&& m) {
    wedge::proc1 = static_cast<pid_t>(m.as<std::int32_t>());
    wedge::got_pid = true;
    wake_parked();
  });
  wedge::h_sink = cv::register_handler([](cv::Message&&) {});
  wedge::h_done = cv::register_handler([](cv::Message&&) {
    wedge::done = true;
    wake_parked();
  });
  mfc::ft::install(2, trivial_ft_hooks(wedge::kTimeoutUs, [] {
                     wedge::recovered = true;
                     wake_parked();
                   }));
  cv::Machine::run(shm_machine(2, 2), [](int pe) {
    if (cv::respawn_generation() > 0) {
      park_until(wedge::done);
      return;
    }
    cv::barrier();
    if (pe != 0) {
      cv::send_value(0, wedge::h_pid, static_cast<std::int32_t>(::getpid()));
      park_until(wedge::done);
      return;
    }
    park_until(wedge::got_pid);
    mfc::ft::checkpoint_now();
    // A parked PE with nothing waiting is never suspect: stop it there.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ::kill(wedge::proc1, SIGSTOP);
    cv::send_value(1, wedge::h_sink, 0);
    park_until(wedge::recovered);
    cv::send_value(1, wedge::h_done, 0);
  });
  const bool books = mfc::ft::recoveries() == 1;
  mfc::ft::uninstall();
  std::_Exit(books ? 0 : 1);
}

TEST(Ftx, WedgedProcessWithInputWaitingIsKilledAndRecovered) {
  expect_helper_passes(wedge_process_one,
                       "the wedged process was never found",
                       "not exactly one recovery");
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
