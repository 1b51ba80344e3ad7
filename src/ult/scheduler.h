// Per-kernel-thread user-level thread scheduler.
//
// Every switch bounces through the scheduler's own context (the kernel
// thread's system stack). This costs one extra minimal swap per reschedule
// but gives stack-policy hooks a safe vantage point: stack-copy threads
// copy their stacks in and out, and memory-alias threads map their pool
// slot, from here, where nothing is executing on the common stack address
// (paper §3.4.1/§3.4.3 — only one such thread may be active per address
// space).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>

#include "arch/context.h"
#include "ult/thread.h"
#include "util/rng.h"

namespace mfc::ult {

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// The calling kernel thread's scheduler (created on first use).
  static Scheduler& current();
  /// Installs a specific scheduler for this kernel thread (the converse PE
  /// loop does this); pass nullptr to restore the lazily created default.
  static void set_current(Scheduler* sched);

  /// Makes a thread runnable. Called with threads in kCreated, kSuspended,
  /// or (from yield) kRunning state.
  void ready(Thread* t);

  /// Makes a thread runnable with a priority (paper §2.3: a user-level
  /// scheduler can honor "the application's priority structure" directly).
  /// Negative priorities run before all unprioritized (ready()) threads,
  /// positive ones after; ties run FIFO.
  void ready_prioritized(Thread* t, int priority);

  /// Runs the next ready thread until it yields, suspends, or finishes.
  /// Returns false when the ready queue is empty. Must be called from the
  /// scheduler's own context, never from inside a ULT.
  bool run_one();

  /// Drains the ready queue (threads may re-enqueue themselves; runs until
  /// a quiescent moment with nothing ready).
  void run_until_idle();

  // ---- Calls made from inside a running ULT ----

  /// Re-enqueues the running thread and returns to the scheduler context.
  void yield();

  /// Blocks the running thread (no re-enqueue); somebody must ready() it.
  void suspend();

  /// Terminates the running thread (the trampoline's final act).
  void exit_current();

  Thread* running() const { return running_; }
  bool in_thread() const { return running_ != nullptr; }
  std::size_t ready_count() const { return ready_.size() + prioritized_count_; }

  /// Installs a seeded RNG that randomizes which priority-0 ready thread
  /// runs next (chaos deterministic-schedule mode: adversarial interleavings
  /// that replay from one seed). Pass nullptr to restore FIFO order. The
  /// RNG must outlive its installation; priority queues stay ordered —
  /// priorities are an application contract, FIFO among peers is not.
  void set_choice_rng(SplitMix64* rng) { choice_rng_ = rng; }

 private:
  friend class Thread;

  void switch_out_of_running(State next_state);
  Thread* pick_next();

  std::deque<Thread*> ready_;  ///< the priority-0 fast path
  std::map<int, std::deque<Thread*>> prioritized_;
  std::size_t prioritized_count_ = 0;
  Thread* running_ = nullptr;
  SplitMix64* choice_rng_ = nullptr;
  arch::Context main_;
};

/// Convenience: create a detached StandardThread and enqueue it on the
/// current scheduler.
Thread* spawn(Thread::Fn fn, std::size_t stack_bytes =
                                 StandardThread::kDefaultStackBytes);

/// Convenience wrappers matching the paper's Cth vocabulary.
inline void yield() { Scheduler::current().yield(); }
inline void suspend() { Scheduler::current().suspend(); }

}  // namespace mfc::ult
