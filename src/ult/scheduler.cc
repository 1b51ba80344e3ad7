#include "ult/scheduler.h"

#include "trace/trace.h"
#include "util/check.h"
#include "util/timer.h"

namespace mfc::ult {

namespace {
thread_local Scheduler* t_current = nullptr;
thread_local Scheduler* t_default = nullptr;
}  // namespace

Scheduler& Scheduler::current() {
  if (t_current) return *t_current;
  if (!t_default) t_default = new Scheduler();  // per-kernel-thread singleton
  return *t_default;
}

void Scheduler::set_current(Scheduler* sched) { t_current = sched; }

void Scheduler::ready(Thread* t) {
  MFC_CHECK(t != nullptr);
  MFC_CHECK_MSG(t->state_ != State::kDone, "ready() on finished thread");
  MFC_CHECK_MSG(t->state_ != State::kReady, "ready() on already-queued thread");
  t->state_ = State::kReady;
  trace::emit(trace::Ev::kUltResume, t->id());
  ready_.push_back(t);
}

void Scheduler::ready_prioritized(Thread* t, int priority) {
  MFC_CHECK(t != nullptr);
  MFC_CHECK_MSG(t->state_ != State::kDone, "ready() on finished thread");
  MFC_CHECK_MSG(t->state_ != State::kReady, "ready() on already-queued thread");
  t->state_ = State::kReady;
  trace::emit(trace::Ev::kUltResume, t->id());
  if (priority == 0) {
    ready_.push_back(t);
    return;
  }
  prioritized_[priority].push_back(t);
  ++prioritized_count_;
}

Thread* Scheduler::pick_next() {
  // Negative priorities preempt the normal queue; positive ones yield to it.
  if (prioritized_count_ > 0) {
    auto it = prioritized_.begin();
    if (it->first < 0) {
      Thread* t = it->second.front();
      it->second.pop_front();
      if (it->second.empty()) prioritized_.erase(it);
      --prioritized_count_;
      return t;
    }
  }
  if (!ready_.empty()) {
    std::size_t i = 0;
    if (choice_rng_ != nullptr && ready_.size() > 1) {
      i = choice_rng_->next_below(ready_.size());
    }
    Thread* t = ready_[i];
    ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(i));
    return t;
  }
  if (prioritized_count_ > 0) {
    auto it = prioritized_.begin();
    Thread* t = it->second.front();
    it->second.pop_front();
    if (it->second.empty()) prioritized_.erase(it);
    --prioritized_count_;
    return t;
  }
  return nullptr;
}

bool Scheduler::run_one() {
  MFC_CHECK_MSG(running_ == nullptr, "run_one() called from inside a thread");
  Thread* t = pick_next();
  if (t == nullptr) return false;

  // Make this scheduler the kernel thread's current one while the ULT runs,
  // so Scheduler::current() (used by the trampoline and by library code the
  // thread calls) resolves to the scheduler that owns the thread.
  Scheduler* prev = t_current;
  t_current = this;
  running_ = t;
  t->state_ = State::kRunning;
  // The slice spans the stack-policy hooks too — staging a stack in/out is
  // time attributable to this thread. Capture the id now: a migratable
  // thread's husk must not be touched once the slice might have moved it.
  const std::uint64_t tid = t->id();
  trace::emit(trace::Ev::kUltSwitchIn, tid);
  t->on_switch_in();
  if (t->switch_hook_) t->switch_hook_(t->switch_hook_ctx_, true);
  t->slice_start_ = wall_time();
  arch::swap_context(&main_, &t->ctx_);
  // Control is back: the thread yielded, suspended, or finished. Its state
  // was set by switch_out_of_running / exit_current before swapping here.
  t->accumulated_load_ += wall_time() - t->slice_start_;
  running_ = nullptr;
  if (t->switch_hook_) t->switch_hook_(t->switch_hook_ctx_, false);
  t->on_switch_out();
  trace::emit(trace::Ev::kUltSwitchOut, tid);
  t_current = prev;
  if (t->state_ == State::kDone && t->delete_on_exit()) delete t;
  return true;
}

void Scheduler::run_until_idle() {
  while (run_one()) {
  }
}

void Scheduler::switch_out_of_running(State next_state) {
  MFC_CHECK_MSG(running_ != nullptr, "yield/suspend outside a thread");
  Thread* t = running_;
  t->state_ = next_state;
  if (next_state == State::kSuspended) {
    trace::emit(trace::Ev::kUltSuspend, t->id());
  }
  if (next_state == State::kReady) ready_.push_back(t);
  arch::swap_context(&t->ctx_, &main_);
  // Resumed later by run_one; nothing to do (hooks ran in scheduler context).
}

void Scheduler::yield() { switch_out_of_running(State::kReady); }

void Scheduler::suspend() { switch_out_of_running(State::kSuspended); }

void Scheduler::exit_current() {
  MFC_CHECK_MSG(running_ != nullptr, "exit_current outside a thread");
  Thread* t = running_;
  t->state_ = State::kDone;
  arch::swap_context(&t->ctx_, &main_);
  MFC_CHECK_MSG(false, "finished thread was rescheduled");
}

Thread* spawn(Thread::Fn fn, std::size_t stack_bytes) {
  auto* t = new StandardThread(std::move(fn), stack_bytes);
  t->set_delete_on_exit(true);
  Scheduler::current().ready(t);
  return t;
}

}  // namespace mfc::ult
