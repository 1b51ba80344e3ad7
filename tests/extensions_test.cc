// Tests for the extension features: checkpoint/restart ("migration to
// disk"), quiescence detection, priority scheduling, the extra AMPI
// collectives, proactive evacuation — and the flagship: migration across
// real address spaces via fork.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "ampi/ampi.h"
#include "converse/machine.h"
#include "migrate/checkpoint.h"
#include "migrate/iso_thread.h"
#include "pup/pup.h"
#include "ult/scheduler.h"

namespace {

namespace cv = mfc::converse;
namespace ampi = mfc::ampi;
using mfc::migrate::Checkpoint;
using mfc::migrate::IsoThread;
using mfc::migrate::MigratableThread;
using mfc::ult::Scheduler;
using mfc::ult::StandardThread;

class IsoEnv : public ::testing::Test {
 protected:
  void SetUp() override {
    mfc::iso::Region::Config cfg;
    cfg.npes = 2;
    cfg.slot_bytes = 64 * 1024;
    cfg.slots_per_pe = 512;
    mfc::iso::Region::init(cfg);
  }
  void TearDown() override { mfc::iso::Region::shutdown(); }
};

// ---- checkpoint / restart ----------------------------------------------------

TEST_F(IsoEnv, CheckpointRestartViaMemory) {
  Scheduler sched;
  static int after;
  after = 0;
  std::vector<MigratableThread*> threads;
  for (int i = 0; i < 4; ++i) {
    auto* t = new IsoThread(
        [i] {
          long state = 100 + i;
          Scheduler::current().suspend();  // checkpointed here
          after += static_cast<int>(state);
        },
        0);
    threads.push_back(t);
    sched.ready(t);
  }
  sched.run_until_idle();

  Checkpoint ckpt;
  int iteration = 37;
  ckpt.set_user_data(mfc::pup::to_bytes(iteration));
  for (auto* t : threads) {
    ckpt.add(t);
    delete t;
  }
  EXPECT_EQ(ckpt.thread_count(), 4u);

  // Serialize the whole checkpoint (e.g. to a buddy processor's memory).
  const std::vector<char> bytes = ckpt.encode();
  Checkpoint restored;
  ASSERT_EQ(Checkpoint::decode(bytes, &restored),
            mfc::migrate::CodecError::kOk);

  int it2 = 0;
  mfc::pup::from_bytes(restored.user_data(), it2);
  EXPECT_EQ(it2, 37);

  for (auto* t : restored.restore_all()) {
    sched.ready(t);
    sched.run_until_idle();
    delete t;
  }
  EXPECT_EQ(after, 100 + 101 + 102 + 103);
}

TEST_F(IsoEnv, CheckpointRestartViaDisk) {
  Scheduler sched;
  static bool resumed;
  resumed = false;
  auto* t = new IsoThread(
      [] {
        double data[16];
        for (int i = 0; i < 16; ++i) data[i] = i * 1.5;
        Scheduler::current().suspend();
        bool ok = true;
        for (int i = 0; i < 16; ++i) ok = ok && data[i] == i * 1.5;
        resumed = ok;
      },
      0);
  sched.ready(t);
  sched.run_until_idle();

  const std::string path = "/tmp/mfc_ckpt_test.bin";
  Checkpoint ckpt;
  ckpt.add(t);
  delete t;
  ckpt.write_file(path);

  // "Restart": read the file back and resume. (Within one process the
  // region geometry trivially matches; across runs the region must be
  // recreated identically — see checkpoint.h.)
  Checkpoint loaded = Checkpoint::read_file(path);
  std::remove(path.c_str());
  auto threads = loaded.restore_all();
  ASSERT_EQ(threads.size(), 1u);
  sched.ready(threads[0]);
  sched.run_until_idle();
  EXPECT_TRUE(resumed);
  delete threads[0];
}

// ---- migration across real address spaces (fork) -----------------------------

TEST_F(IsoEnv, MigrationCrossesAddressSpaces) {
  // The isomalloc guarantee, demonstrated for real: pack a thread in the
  // parent process, ship the bytes through a pipe to a *forked child* (a
  // genuinely separate address space that inherited the same virtual
  // reservation), resume it there, and check it completes with its stack
  // and heap pointers intact.
  int to_child[2], from_child[2];
  ASSERT_EQ(pipe(to_child), 0);
  ASSERT_EQ(pipe(from_child), 0);

  Scheduler sched;
  auto* t = new IsoThread(
      [] {
        int stack_vals[8] = {1, 2, 3, 4, 5, 6, 7, 8};
        int* p = &stack_vals[2];
        auto* heap = static_cast<long*>(mfc::iso::routed_malloc(64));
        heap[0] = 424242;
        Scheduler::current().suspend();  // ---- crosses processes here ----
        // Now running in the CHILD process.
        if (*p == 3 && heap[0] == 424242) {
          const char ok = 'Y';
          (void)ok;
          stack_vals[0] = 999;  // observable via exit code path below
        }
        mfc::iso::routed_free(heap);
        _exit(*p == 3 && stack_vals[0] == 999 ? 42 : 1);
      },
      0);
  sched.ready(t);
  sched.run_until_idle();
  auto wire = t->pack();
  delete t;

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: separate address space; the PROT_NONE reservation (inherited)
    // guarantees the slot addresses are free here.
    close(to_child[1]);
    close(from_child[0]);
    std::uint64_t n = 0;
    if (read(to_child[0], &n, sizeof n) != sizeof n) _exit(2);
    std::vector<char> buf(n);
    std::size_t got = 0;
    while (got < n) {
      ssize_t r = read(to_child[0], buf.data() + got, n - got);
      if (r <= 0) _exit(3);
      got += static_cast<std::size_t>(r);
    }
    mfc::migrate::ImageManifest arrived;
    if (mfc::migrate::ImageManifest::decode(buf, &arrived) !=
        mfc::migrate::CodecError::kOk) {
      _exit(5);
    }
    auto* t2 = MigratableThread::unpack(arrived, 1);
    Scheduler child_sched;
    child_sched.ready(t2);
    child_sched.run_until_idle();  // thread _exit()s with its verdict
    _exit(4);                      // not reached if the thread finished
  }

  close(to_child[0]);
  close(from_child[1]);
  const std::uint64_t n = wire.size();
  ASSERT_EQ(write(to_child[1], &n, sizeof n), static_cast<ssize_t>(sizeof n));
  ASSERT_EQ(write(to_child[1], wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));
  close(to_child[1]);
  close(from_child[0]);

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 42)
      << "thread did not resume correctly in the child address space";
}

// ---- quiescence detection -----------------------------------------------------

TEST(Quiescence, DetectsEndOfMessageStorm) {
  static std::atomic<long> handled;
  handled = 0;
  // A handler that fans out two more messages until a depth limit — a
  // message storm with an unpredictable end.
  struct Fan {
    int depth;
    void pup(mfc::pup::Er& p) { p | depth; }
  };
  static cv::HandlerId h = cv::register_handler([](cv::Message&& m) {
    auto fan = m.as<Fan>();
    handled.fetch_add(1);
    if (fan.depth > 0) {
      Fan next{fan.depth - 1};
      cv::send_value((cv::my_pe() + 1) % cv::num_pes(), h, next);
      cv::send_value((cv::my_pe() + 2) % cv::num_pes(), h, next);
    }
  });
  cv::Machine::Config cfg;
  cfg.npes = 4;
  cv::Machine::run(cfg, [](int pe) {
    if (pe == 0) {
      Fan seed{6};
      cv::send_value(1, h, seed);
    }
    cv::wait_quiescence();
    // After QD: the storm is fully drained, on every PE.
    EXPECT_EQ(handled.load(), (1 << 7) - 1);  // 2^7 - 1 nodes of the tree
  });
}

TEST(Quiescence, ImmediateWhenNothingIsInFlight) {
  cv::Machine::Config cfg;
  cfg.npes = 2;
  cv::Machine::run(cfg, [](int) {
    cv::wait_quiescence();  // must not hang
    SUCCEED();
  });
}

// ---- priority scheduling -------------------------------------------------------

TEST(Priority, NegativeRunsFirstPositiveLast) {
  Scheduler sched;
  std::vector<int> order;
  StandardThread normal1([&] { order.push_back(1); });
  StandardThread normal2([&] { order.push_back(2); });
  StandardThread urgent([&] { order.push_back(-5); });
  StandardThread lazy([&] { order.push_back(99); });
  sched.ready(&normal1);
  sched.ready_prioritized(&lazy, 10);
  sched.ready(&normal2);
  sched.ready_prioritized(&urgent, -3);
  sched.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{-5, 1, 2, 99}));
}

TEST(Priority, OrderWithinSamePriorityIsFifo) {
  Scheduler sched;
  std::vector<int> order;
  std::vector<std::unique_ptr<StandardThread>> ts;
  for (int i = 0; i < 6; ++i) {
    ts.push_back(std::make_unique<StandardThread>([&order, i] {
      order.push_back(i);
    }));
    sched.ready_prioritized(ts.back().get(), -1);
  }
  sched.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

// ---- AMPI scatter / alltoall / evacuate ----------------------------------------

TEST(AmpiExt, ScatterDistributesRootBlocks) {
  ampi::Options opt;
  opt.nranks = 6;
  opt.npes = 3;
  ampi::run(opt, [] {
    const int r = ampi::rank();
    std::vector<long> all;
    if (r == 2) {
      for (int i = 0; i < 6; ++i) all.push_back(i * 11);
    }
    long mine = -1;
    ampi::scatter(all.data(), 1, ampi::Dtype::kLong, &mine, 2);
    EXPECT_EQ(mine, r * 11);
  });
}

TEST(AmpiExt, AlltoallTransposes) {
  ampi::Options opt;
  opt.nranks = 4;
  opt.npes = 2;
  ampi::run(opt, [] {
    const int r = ampi::rank();
    const int n = ampi::size();
    std::vector<int> out(static_cast<std::size_t>(n)), in(static_cast<std::size_t>(n), -1);
    for (int d = 0; d < n; ++d) out[static_cast<std::size_t>(d)] = r * 100 + d;
    ampi::alltoall(out.data(), 1, ampi::Dtype::kInt, in.data());
    for (int s = 0; s < n; ++s) {
      EXPECT_EQ(in[static_cast<std::size_t>(s)], s * 100 + r);
    }
  });
}

TEST(AmpiExt, EvacuationClearsThePe) {
  static std::atomic<int> on_failing;
  on_failing = -1;
  ampi::Options opt;
  opt.nranks = 8;
  opt.npes = 4;
  ampi::run(opt, [] {
    ampi::evacuate(/*failing_pe=*/2);
    // Nobody may remain on PE 2, and the program must keep working.
    if (ampi::my_pe() == 2) on_failing.store(ampi::rank());
    const long total = ampi::allreduce_one<long>(1, ampi::Op::kSum);
    EXPECT_EQ(total, 8);
  });
  EXPECT_EQ(on_failing.load(), -1) << "a rank was left on the failing PE";
}

TEST(AmpiExt, EvacuationThenRebalanceRecovers) {
  ampi::Options opt;
  opt.nranks = 8;
  opt.npes = 4;
  opt.lb_strategy = mfc::lb::greedy_lb;
  ampi::run(opt, [] {
    ampi::evacuate(0);
    volatile double burn = 0;
    for (int i = 0; i < 200000; ++i) burn = burn + i;
    // A later LB step may repopulate the (recovered) PE — the runtime
    // treats evacuation as ordinary migration, nothing is poisoned.
    ampi::migrate();
    const long total = ampi::allreduce_one<long>(1, ampi::Op::kSum);
    EXPECT_EQ(total, 8);
  });
}

}  // namespace
