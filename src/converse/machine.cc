#include "converse/machine.h"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "converse/quiescence.h"
#include "converse/transport.h"
#include "trace/flight.h"
#include "trace/hist.h"
#include "trace/metrics.h"
#include "trace/trace.h"
#include "util/check.h"
#include "util/log.h"
#include "util/queue.h"
#include "util/timer.h"

namespace mfc::converse {

namespace flight = trace::flight;

namespace {

// ---- Handler registry ----
//
// Registration is mutex-guarded (it is cold: module init / first use), but
// the table itself is a fixed-capacity array of atomic slots so dispatch()
// is a bounds check plus one acquire load — no lock, ever. Handler ids only
// reach other PEs through messages, and the queue's release/acquire pair
// makes the slot store visible before any message naming it can arrive.
constexpr std::size_t kMaxHandlers = 1024;

std::mutex g_register_mutex;
std::atomic<HandlerFn*> g_handler_slots[kMaxHandlers];
std::atomic<std::uint32_t> g_handler_count{0};

/// Self-sends from handler context deliver inline (no enqueue); the depth
/// cap bounds stack growth and guarantees handler chains that never go
/// idle still return to the scheduler loop.
constexpr int kMaxInlineDepth = 8;

// Message counters live in the metrics registry (trace/metrics.h): one
// cache-line-isolated slot per PE, written only by that PE's kernel thread
// via single-writer bumps — the same discipline the old private PeCounters
// had, now shared with every other instrumented layer. Readers sum slots.
using metrics::Counter;

/// Per-PE Message freelist, touched only by the owning PE's kernel thread.
/// A consumed message is adopted into the *consuming* PE's pool rather than
/// returned to its allocator, so recycling costs one vector push and no
/// cross-thread traffic; pools stay balanced because symmetric traffic
/// returns as many messages as it takes. Pools recycle envelopes, not
/// payload buffers: a payload's heap part is freed before its envelope
/// enters a pool, so a pool's memory is at most Config::pool_cap envelopes
/// (excess messages are simply freed) whatever sizes its traffic carried.
/// Sends of payloads up to Payload::kInline bytes allocate nothing.
struct MsgPool {
  std::vector<Message*> cache;
};

/// PoolStats::pooled_payload_bytes: summed by ~Pe as it frees the pools,
/// reset at the start of each run.
std::atomic<std::uint64_t> g_pooled_payload_bytes{0};

/// Envelope lifecycle audit (PoolStats): every `new Message` / `delete` in
/// this file goes through create_message/destroy_message so Machine::run
/// can assert allocated == freed after the teardown drain. The books live
/// in the metrics registry (reset at run start, readable after run); the
/// teardown path runs on the joining thread, which the registry routes to
/// its shared slot automatically.
Message* create_message() {
  metrics::bump(Counter::kMsgsAllocated);
  return new Message();
}

void destroy_message(Message* m) {
  metrics::bump(Counter::kMsgsFreed);
  delete m;
}

/// Teardown-drain destruction: a message reclaimed from a queue or the
/// delay stash after the machine stopped.
void drain_message(Message* m) {
  metrics::bump(Counter::kMsgsDrained);
  destroy_message(m);
}

/// A message whose delivery the chaos layer postponed: dispatch when the
/// owning PE's loop tick reaches `due`. Later arrivals with earlier dues
/// overtake it — exactly the cross-PE reorder the fault model wants.
struct Delayed {
  Message* m = nullptr;
  std::uint64_t due = 0;
};

struct Pe {
  int id = -1;
  IntrusiveMpscChannel<Message> queue;
  ult::Scheduler sched;
  ult::Thread* barrier_waiter = nullptr;
  std::uint64_t barrier_gen = 0;
  qd::LineWriter line;  ///< this PE's control line (converse/quiescence.h)
  qd::Waits waits;      ///< quiescence waits registered on this PE
  MsgPool pool;
  int inline_depth = 0;
  std::vector<Delayed> delayed;  // chaos delivery-delay stash
  std::uint64_t tick = 0;        // loop-iteration clock for `delayed`

  /// Everything still held here drains through the counted teardown path;
  /// Machine::run asserts the books balance right after the PEs are gone.
  ~Pe() {
    while (Message* m = queue.try_pop()) drain_message(m);
    for (const Delayed& d : delayed) drain_message(d.m);
    for (Message* m : pool.cache) {
      g_pooled_payload_bytes.fetch_add(m->payload.heap_bytes(),
                                       std::memory_order_relaxed);
      destroy_message(m);
    }
  }
};

struct MachineState {
  int npes = 0;
  /// Chaos delivery-delay active: consumer loops stash injected messages
  /// and the self-send inline bypass is off (inline delivery would let a
  /// self-send overtake a delayed earlier message).
  bool chaos_delay = false;
  /// FT hooks were installed before boot: loops test per-PE death flags
  /// and PE 0 runs the detector tick. Off ⇒ zero additional loads.
  bool ft_on = false;
  std::size_t pool_cap = 4096;
  std::vector<std::unique_ptr<Pe>> pes;
  std::atomic<int> mains_finished{0};
  std::atomic<bool> stop{false};
  /// The control plane (converse/quiescence.h): in the wire's segment, or
  /// in the `own_*` storage below on an in-process machine.
  qd::Plane plane;
  std::unique_ptr<shm::WakeCtrl[]> own_words;
  std::unique_ptr<shm::PeLine[]> own_lines;
  std::unique_ptr<shm::MachineLine> own_machine_line;
  // ---- Multi-process topology (defaults describe a 1-process machine) ----
  // Process my_proc hosts PEs [local_first, local_first + ppn); only those
  // entries of `pes` are populated. `transport` is the shm wire (owned by
  // Machine::run; PE loops drain it themselves); non-null also in loopback
  // mode (nprocs == 1 with the wire selected), where every cross-PE send
  // goes over it.
  int nprocs = 1;
  int my_proc = 0;
  int ppn = 0;
  int local_first = 0;
  int local_npes = 0;
  transport::Transport* transport = nullptr;
  std::atomic<int> procs_done{0};
  // Per-PE FT flags (allocated only when ft_on). `dead`: the PE's loop
  // stops dispatching and parks until revived; messages queue up for the
  // revival drain. `wipe_pending`: revive_pe was called — run the
  // on_revive hook on the PE's own thread before touching the backlog.
  std::unique_ptr<std::atomic<bool>[]> dead;
  std::unique_ptr<std::atomic<bool>[]> wipe_pending;
  // PE0-only barrier bookkeeping (touched exclusively from PE0's loop).
  std::unordered_map<std::uint64_t, int> barrier_counts;
  // ---- Process-tier fault tolerance (see DESIGN.md "Fault tolerance").
  // Armed (ft_respawn) when FT hooks are installed on a multi-process
  // machine; everything below is inert otherwise. ----
  bool ft_respawn = false;
  /// 0 for an original process; the respawn generation in a respawned
  /// incarnation (whose local PEs boot dead until recovery revives them).
  int respawn_gen = 0;
  int ctl_fd = -1;  ///< process 0 only: its end of the zygote channel
  std::vector<pid_t> kids;  ///< process 0 only: the original children
  /// Parallel to `kids`: the pidfd the comm thread waits on (-1 once that
  /// thread reaped the child and closed it).
  std::vector<int> kid_pidfds;
  /// Parallel to `kids`; written by the comm thread's reap, read by the
  /// final reap and by kill_proc (atomic: PE 0's escalation races the comm
  /// thread).
  std::unique_ptr<std::atomic<bool>[]> kids_reaped;
  /// Process 0, PE-0-thread only: which procs now run as respawned
  /// incarnations — kill routing (original children get a direct SIGKILL;
  /// respawns go through the zygote, which holds their pids).
  std::vector<bool> proc_respawned;
  std::uint64_t next_respawn_gen = 0;  ///< PE-0-thread only
  /// Detection mailboxes, comm thread → FT tick on PE 0 (-1 = empty).
  std::atomic<int> dead_proc_event{-1};
  std::atomic<int> respawn_done_event{-1};
};

MachineState* g_machine = nullptr;
thread_local Pe* t_pe = nullptr;

// FT hooks, installed before Machine::run and captured into ft_on at boot.
FtMachineHooks g_ft_hooks;
bool g_ft_hooks_set = false;

// ---- Zygote control protocol (process-tier FT) ----
//
// Fixed 16-byte records over one SOCK_SEQPACKET pair (record boundaries
// preserved) between process 0 and the zygote. No other process holds an
// end, so the zygote sees a hang-up exactly when process 0 is gone.

enum CtlType : std::uint32_t {
  kCtlReqRespawn = 1,   ///< proc 0 → zygote: respawn proc (arg = generation)
  kCtlRespawnDone = 2,  ///< zygote → proc 0: the replacement is forked
  kCtlProcDeath = 3,    ///< zygote → proc 0: a respawned incarnation died
  kCtlShutdown = 4,     ///< proc 0 → zygote: reap grandchildren and exit
  kCtlReqKill = 5,      ///< proc 0 → zygote: SIGKILL a respawned incarnation
};

struct CtlRec {
  std::uint32_t type = 0;
  std::int32_t proc = -1;
  std::uint64_t arg = 0;
};
static_assert(sizeof(CtlRec) == 16, "ctl record layout must be fixed");

void ctl_send(int fd, const CtlRec& rec) {
  for (;;) {
    const ssize_t w = ::send(fd, &rec, sizeof rec, MSG_NOSIGNAL);
    if (w == static_cast<ssize_t>(sizeof rec)) return;
    if (w < 0 && errno == EINTR) continue;
    MFC_CHECK_MSG(false, "machine ctl channel send failed");
  }
}

/// A pollable handle on process `pid`: readable once it has exited. Through
/// syscall(): glibc 2.36's <sys/pidfd.h> declares pidfd_open without C
/// linkage.
int open_pidfd(pid_t pid) {
  return static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
}

enum class CtlRead { kRecord, kEmpty, kClosed };

/// Nonblocking receive of one ctl record: kRecord fills *rec, kEmpty means
/// none is ready, kClosed that the peer end is gone.
CtlRead ctl_recv(int fd, CtlRec* rec) {
  for (;;) {
    const ssize_t r = ::recv(fd, rec, sizeof *rec, MSG_DONTWAIT);
    if (r < 0 && errno == EINTR) continue;
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return CtlRead::kEmpty;
    }
    if (r == 0) return CtlRead::kClosed;
    MFC_CHECK_MSG(r == static_cast<ssize_t>(sizeof *rec),
                  "machine ctl channel: short read");
    return CtlRead::kRecord;
  }
}

/// Child side of every machine fork: die with the parent. The kernel sends
/// PR_SET_PDEATHSIG's signal when the *thread* that forked this process
/// exits, not when its process does. That is the thread we need: Machine::
/// run forks from the thread that later reaps the kids, and the zygote is
/// single-threaded. The getppid() re-check covers a parent that died
/// before prctl() ran. `parent` is the pid saved before the fork.
void die_with_parent(pid_t parent) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != parent) std::_Exit(1);
}

struct BarrierMsg {
  std::uint64_t gen = 0;
  void pup(pup::Er& p) { p | gen; }
};

HandlerId h_barrier_arrive = 0;
HandlerId h_barrier_release = 0;
HandlerId h_iso_release = 0;
HandlerId h_iso_claim = 0;

/// True when `pe` lives in this process (always true on 1-process machines).
bool pe_local(int pe) { return pe / g_machine->ppn == g_machine->my_proc; }

// Registry reads: per-PE slots plus the shared slot.
std::uint64_t total_sent() { return metrics::total(Counter::kMsgsSent); }
std::uint64_t total_delivered() {
  return metrics::total(Counter::kMsgsDelivered);
}

HandlerFn* handler_lookup(HandlerId id) {
  MFC_CHECK_MSG(id < kMaxHandlers, "unknown handler id");
  HandlerFn* fn = g_handler_slots[id].load(std::memory_order_acquire);
  MFC_CHECK_MSG(fn != nullptr, "unknown handler id");
  return fn;
}

void release_message(Message* m) {
  if (m->pool_pe < 0 || t_pe == nullptr ||
      t_pe->pool.cache.size() >= g_machine->pool_cap) {
    destroy_message(m);
    return;
  }
  m->pool_pe = t_pe->id;
  m->payload.release_heap();
  t_pe->pool.cache.push_back(m);
}

Message* pool_acquire(Pe* pe) {
  MsgPool& pool = pe->pool;
  if (!pool.cache.empty()) {
    // Chaos pool-miss injection: skip the freelist and take a one-shot heap
    // envelope (pool_pe = -1 so release frees instead of recycling) —
    // models allocator pressure without actually failing the send.
    if (chaos::should_inject(chaos::Point::kPoolAcquire)) {
      return create_message();
    }
    Message* m = pool.cache.back();
    pool.cache.pop_back();
    metrics::bump(Counter::kMsgsRecycled);
    return m;
  }
  Message* m = create_message();
  m->pool_pe = pe->id;
  return m;
}

/// Fast-path delivery: one acquire load for the handler, no lock. With the
/// latency histograms armed (MFC_STATS) it also settles the message's
/// enqueue stamp into queue-wait and brackets the handler into service
/// time — two extra rdtsc reads per message, behind the same predictable
/// off-by-default branch the trace gate uses.
void dispatch(Message* m) {
  HandlerFn* fn = handler_lookup(m->handler);
  t_pe->line.leave_idle();
  t_pe->line.count_delivered();
  metrics::bump(Counter::kMsgsDelivered);
  const HandlerId h = m->handler;
  trace::emit(trace::Ev::kHandlerBegin, m->trace_flow, h,
              static_cast<std::uint32_t>(m->payload.size()),
              static_cast<std::int16_t>(m->src_pe));
  std::uint64_t t0 = 0;
  if (hist::on()) {
    t0 = rdtsc();
    if (m->stamp != 0 && t0 > m->stamp) {
      hist::record(hist::Hist::kQueueWait, t0 - m->stamp);
    }
  }
  (*fn)(std::move(*m));
  if (t0 != 0) hist::record(hist::Hist::kHandlerService, rdtsc() - t0);
  trace::emit(trace::Ev::kHandlerEnd, 0, h);
  release_message(m);
}

/// Dispatches every stashed message whose due tick has passed, in stash
/// order among equals — the reorder comes from unequal injected delays.
bool release_due_delayed(Pe* pe) {
  bool any = false;
  for (std::size_t i = 0; i < pe->delayed.size();) {
    if (pe->delayed[i].due <= pe->tick) {
      Message* m = pe->delayed[i].m;
      pe->delayed.erase(pe->delayed.begin() +
                        static_cast<std::ptrdiff_t>(i));
      dispatch(m);
      any = true;
    } else {
      ++i;
    }
  }
  return any;
}

/// Local delivery tail shared by send_message and send_spans: the self-send
/// inline bypass (handler/scheduler context, empty consumer queue, bounded
/// depth) or a queue push.
void enqueue_or_inline(int dest_pe, Message* m) {
  Pe& dest = *g_machine->pes[static_cast<std::size_t>(dest_pe)];
  Pe* self = t_pe;
  if (!g_machine->chaos_delay && self != nullptr && dest_pe == self->id &&
      !self->sched.in_thread() && self->inline_depth < kMaxInlineDepth &&
      self->queue.consumer_empty()) {
    ++self->inline_depth;
    dispatch(m);
    --self->inline_depth;
    return;
  }
  dest.queue.push(m);
}

/// A PE queue's feed (util/queue.h NoFeed): the shm rings toward this
/// process, which a waiting PE delivers itself (no relay thread), and the
/// control plane's hook for a PE that goes to sleep.
struct PeFeed {
  transport::Transport* wire = nullptr;  ///< null: in-process machine
  const qd::Plane* plane = nullptr;
  int self = 0;
  void poll() {
    if (wire != nullptr) wire->drain();
  }
  bool ready() { return wire != nullptr && wire->pending(); }
  void on_sleep() { qd::on_sleep(*plane, self); }
};

void pe_loop(Pe* pe, const std::function<void(int)>& entry) {
  t_pe = pe;
  ult::Scheduler::set_current(&pe->sched);
  // Bind this kernel thread to its per-PE metrics slot and trace ring
  // (no-ops when the registry is unsized / no trace session is active),
  // plus the PE's chaos decision streams and — in deterministic-schedule
  // mode — the scheduler's seeded choice RNG.
  metrics::bind_pe(pe->id);
  trace::bind_pe(pe->id);
  hist::bind_pe(pe->id);
  flight::bind_pe(pe->id);
  chaos::bind_stream(pe->id);
  pe->sched.set_choice_rng(chaos::sched_choice_rng());

  auto* main_thread = new ult::StandardThread(
      [pe, &entry] {
        entry(pe->id);
        if (g_machine->mains_finished.fetch_add(1) + 1 ==
            g_machine->local_npes) {
          if (g_machine->nprocs == 1) {
            g_machine->stop.store(true);
            for (auto& other : g_machine->pes) other->queue.wake();
            if (g_machine->transport) g_machine->transport->stop_local();
          } else {
            // Multi-process: every local main is done. Tell process 0; the
            // stop order comes back through the transport once every
            // process has reported (see the on_proc_done hook).
            g_machine->transport->send_proc_done(pe->id);
          }
        }
      },
      512 * 1024);
  main_thread->set_delete_on_exit(true);
  pe->sched.ready(main_thread);

  const bool delay_on = g_machine->chaos_delay;
  const bool ft_on = g_machine->ft_on;
  const std::uint64_t max_ticks =
      delay_on ? chaos::config().max_delay_ticks : 0;
  const qd::Plane& plane = g_machine->plane;
  PeFeed feed{g_machine->transport, &plane, pe->id};
  std::vector<ult::Thread*> released;  // quiescence waits a verdict ended
  while (!g_machine->stop.load(std::memory_order_acquire)) {
    // Every pass delivers what waits in the rings toward this process —
    // dead PEs' passes too: a respawned incarnation boots with every PE
    // dead, and only they can receive its revive frames.
    feed.poll();
    // Dead PE: stop dispatching and running threads; messages keep
    // queueing and drain after revival. Park until the revive wakes the
    // queue (an arrival for the dead PE only re-parks it) or a frame waits
    // in the rings. Its line stays busy and its progress stands still, so
    // the detector finds it.
    if (ft_on && g_machine->dead[pe->id].load(std::memory_order_acquire)) {
      std::atomic<bool>& dead = g_machine->dead[pe->id];
      pe->line.pause_idle();
      pe->queue.park_until([&dead, &feed] {
        return !dead.load(std::memory_order_seq_cst) || feed.ready();
      });
      trace::clock_stale();
      continue;
    }
    pe->line.pass();
    if (ft_on) {
      // Just revived: wipe stale state on this PE's own thread BEFORE
      // the death-window backlog dispatches into it.
      if (g_machine->wipe_pending[pe->id].exchange(
              false, std::memory_order_acq_rel)) {
        if (g_ft_hooks.on_revive) g_ft_hooks.on_revive(pe->id);
      }
      // PE 0 is the failure detector. A tick that finds no work does not
      // count as leaving idle.
      if (pe->id == 0 && g_ft_hooks.pe0_tick) {
        pe->line.pause_idle();
        g_ft_hooks.pe0_tick();
        if (pe->sched.ready_count() == 0) pe->line.resume_idle(plane, 0);
      }
    }
    bool progress = false;
    if (delay_on) {
      ++pe->tick;
      if (release_due_delayed(pe)) progress = true;
    }
    while (Message* m = pe->queue.try_pop()) {
      if (delay_on && chaos::should_inject(chaos::Point::kDelivery)) {
        // Stash instead of dispatching; a later arrival with a shorter
        // injected delay overtakes this one. QD stays honest while the
        // stash is non-empty: the message counts as sent but not yet
        // delivered, so the machine cannot report quiescent around it.
        const std::uint64_t d =
            1 + chaos::draw(chaos::Point::kDelivery, max_ticks);
        pe->delayed.push_back({m, pe->tick + d});
      } else {
        dispatch(m);
      }
      progress = true;
      // A handler may have killed this very PE (self-kill at a chaos
      // injection point): stop mid-batch, leaving the rest queued.
      if (ft_on &&
          g_machine->dead[pe->id].load(std::memory_order_relaxed)) {
        break;
      }
    }
    if (ft_on &&
        g_machine->dead[pe->id].load(std::memory_order_relaxed)) {
      continue;  // no run_one/park for the freshly dead
    }
    if (pe->sched.ready_count() > 0) {
      pe->line.leave_idle();
      pe->sched.run_one();
      progress = true;
    }
    if (progress) continue;
    // Nothing to do: flag idle (waking the PEs that wait for quiescence),
    // then serve this PE's own waits before waiting.
    if (!pe->line.idle()) pe->line.enter_idle(plane, pe->id);
    if (!pe->waits.empty() &&
        pe->waits.serve(plane, pe->id, pe->line, pe->queue, released)) {
      for (ult::Thread* t : released) pe->sched.ready(t);
      released.clear();
      continue;
    }
    // A non-empty stash forbids parking — only loop ticks age it out.
    if (!pe->delayed.empty()) continue;
    // Idle: bounded spin then park until a message arrives or a wake
    // lands; with FT on, PE 0 parks for one detector period at most, so
    // its ticks keep firing on an otherwise idle machine. On delivery,
    // re-enter the drain loop immediately — the batch behind this message
    // is typically non-empty.
    Message* m = ft_on && pe->id == 0
                     ? pe->queue.pop_wait_for(g_ft_hooks.tick_period_us, feed)
                     : pe->queue.pop_wait(feed);
    trace::clock_stale();
    if (m != nullptr) dispatch(m);
  }

  pe->sched.set_choice_rng(nullptr);
  chaos::unbind_stream();
  flight::unbind_pe();
  hist::unbind_pe();
  trace::unbind_pe();
  metrics::unbind_pe();
  ult::Scheduler::set_current(nullptr);
  t_pe = nullptr;
}

void register_builtin_handlers() {
  static std::once_flag once;
  std::call_once(once, [] {
    h_barrier_arrive = register_handler([](Message&& m) {
      // Runs on PE0: count arrivals per generation; release when complete.
      auto msg = m.as<BarrierMsg>();
      int& count = g_machine->barrier_counts[msg.gen];
      if (++count == g_machine->npes) {
        g_machine->barrier_counts.erase(msg.gen);
        std::vector<char> payload = pup::to_bytes(msg);
        broadcast(h_barrier_release, payload);
      }
    });
    h_barrier_release = register_handler([](Message&& m) {
      auto msg = m.as<BarrierMsg>();
      Pe* pe = t_pe;
      MFC_CHECK_MSG(pe->barrier_waiter != nullptr && pe->barrier_gen == msg.gen,
                    "barrier release without waiter");
      ult::Thread* waiter = pe->barrier_waiter;
      pe->barrier_waiter = nullptr;
      pe->sched.ready(waiter);
    });
    // Cross-process isomalloc lease: a slot freed away from its birth
    // process ships its identity home; the birth PE clears the `used` bit
    // (the releasing process already evacuated the pages on its side).
    h_iso_release = register_handler([](Message&& m) {
      auto id = m.as<iso::SlotId>();
      iso::Region::instance().free_remote(id);
    });
    // Lease reassertion after a process respawn: restored threads replay
    // their slot ids to the birth process so its fresh (zygote boot-time)
    // bitmap copy re-learns the allocations.
    h_iso_claim = register_handler([](Message&& m) {
      iso::Region::instance().reassert(m.as<iso::SlotId>());
    });
  });
}

/// Revives local PE `pe`. Order matters: the wipe flag must be visible
/// before the loop leaves its dead park, so the on_revive hook always
/// precedes the backlog drain.
void revive_local(int pe) {
  g_machine->wipe_pending[pe].store(true, std::memory_order_release);
  g_machine->dead[pe].store(false, std::memory_order_release);
  g_machine->pes[static_cast<std::size_t>(pe)]->queue.wake();
}

// ---- Comm-thread control fds ----

/// Records process `proc` as dead for the FT tick on PE 0 (process 0's own
/// PE) and wakes PE 0 in case it is parked between ticks. The wire learns
/// of the death first: a PE 0 send waiting on a full ring toward the dead
/// process must give up, or the tick that takes this event never runs.
void post_dead_proc(MachineState* st, int proc) {
  metrics::bump(Counter::kProcKills);
  trace::emit_flight(trace::Ev::kFtProcDown, 0,
                     static_cast<std::uint32_t>(proc), 0,
                     static_cast<std::int16_t>(proc * st->ppn));
  st->transport->set_proc_dead(proc, true);
  st->dead_proc_event.store(proc, std::memory_order_release);
  st->pes[0]->queue.wake();
}

/// Process 0, comm thread: child k's pidfd fired. Without the process tier
/// a dead child is an immediate crash (it would hang the stop protocol);
/// with it the death becomes a detection event for the FT tick. Returns
/// false (retire the fd) once the child is reaped.
bool reap_kid(std::size_t k) {
  MachineState* st = g_machine;
  int status = 0;
  if (waitpid(st->kids[k], &status, WNOHANG) != st->kids[k]) return true;
  ::close(st->kid_pidfds[k]);
  st->kid_pidfds[k] = -1;
  st->kids_reaped[k].store(true, std::memory_order_release);
  if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return false;
  MFC_CHECK_MSG(st->ft_respawn, "machine child process died");
  post_dead_proc(st, static_cast<int>(k) + 1);
  return false;
}

/// Process 0, comm thread: the zygote channel is readable. Process 0
/// learns of respawns here (waking PE 0, where the recovery ULT waits for
/// them) and of deaths only the zygote can reap. Returns false (retire the
/// fd) if the zygote is gone.
bool serve_ctl_channel() {
  MachineState* st = g_machine;
  CtlRec rec;
  CtlRead r;
  while ((r = ctl_recv(st->ctl_fd, &rec)) == CtlRead::kRecord) {
    switch (rec.type) {
      case kCtlRespawnDone:
        metrics::bump(Counter::kProcRespawns);
        trace::emit_flight(trace::Ev::kFtProcRespawn, rec.arg,
                           static_cast<std::uint32_t>(rec.proc));
        // The replacement drains its rings: senders may wait on them again.
        st->transport->set_proc_dead(rec.proc, false);
        st->respawn_done_event.store(rec.proc, std::memory_order_release);
        st->pes[0]->queue.wake();  // recovery waits parked for this
        break;
      case kCtlProcDeath:
        // A respawned incarnation died (only the zygote, its parent, can
        // waitpid it). Same detection event as a child death.
        post_dead_proc(st, rec.proc);
        break;
      default:
        MFC_CHECK_MSG(false, "unexpected record on the machine ctl channel");
    }
  }
  return r != CtlRead::kClosed;
}

// ---- Per-process machine body ----
//
// Machine::run's post-fork half, split out so the respawn zygote can run
// the identical body for a replacement incarnation. Non-zero processes
// _Exit(0) inside; process 0 returns (with the transport joined and
// g_machine still alive) for the parent-side teardown.

struct ProcRun {
  const Machine::Config* config = nullptr;
  const std::function<void(int)>* entry = nullptr;
  std::unique_ptr<transport::Transport>* transport = nullptr;
  int my_proc = 0;
  int respawn_gen = 0;  ///< > 0 marks a respawned incarnation
  int ctl_fd = -1;      ///< process 0's zygote channel (-1 = none)
  std::vector<pid_t> kids;  ///< process 0 only
  bool owns_chaos = false;
  bool owns_trace = false;
  bool owns_hist = false;
};

void run_machine_process(ProcRun ctx) {
  const Machine::Config& config = *ctx.config;
  const std::function<void(int)>& entry = *ctx.entry;
  std::unique_ptr<transport::Transport>& transport = *ctx.transport;
  const int my_proc = ctx.my_proc;

  // ---- Per-process machine state (post-fork). ----
  const int ppn = config.npes / config.nprocs;
  g_machine = new MachineState();
  g_machine->npes = config.npes;
  g_machine->chaos_delay =
      chaos::enabled() && chaos::config().delivery_delay > 0.0;
  g_machine->ft_on = g_ft_hooks_set;
  g_machine->nprocs = config.nprocs;
  g_machine->my_proc = my_proc;
  g_machine->ppn = ppn;
  g_machine->local_first = my_proc * ppn;
  g_machine->local_npes = ppn;
  g_machine->transport = transport.get();
  g_machine->ft_respawn = g_ft_hooks_set && config.nprocs > 1;
  g_machine->respawn_gen = ctx.respawn_gen;
  g_machine->ctl_fd = ctx.ctl_fd;
  g_machine->kids = std::move(ctx.kids);
  if (!g_machine->kids.empty()) {
    g_machine->kids_reaped =
        std::make_unique<std::atomic<bool>[]>(g_machine->kids.size());
  }
  g_machine->proc_respawned.assign(static_cast<std::size_t>(config.nprocs),
                                   false);
  // Stamp observability provenance with the post-fork identity: metrics
  // snapshots record which process they came from, trace parts record the
  // local PE range they own, the flight recorder names its dump file.
  metrics::set_proc(my_proc, config.nprocs);
  flight::set_proc(my_proc, config.nprocs);
  if (trace::active()) {
    trace::set_proc(my_proc, config.nprocs, g_machine->local_first,
                    g_machine->local_npes);
  }
  // The control plane: at the head of the wire's segment, so every
  // process reads every PE's line; in process memory otherwise.
  qd::Plane& plane = g_machine->plane;
  if (transport) {
    shm::Segment& seg = transport->segment();
    plane = {seg.words(), seg.lines(), seg.machine_line(), config.npes, true};
  } else {
    const auto n = static_cast<std::size_t>(config.npes);
    g_machine->own_words = std::make_unique<shm::WakeCtrl[]>(n);
    g_machine->own_lines = std::make_unique<shm::PeLine[]>(n);
    g_machine->own_machine_line = std::make_unique<shm::MachineLine>();
    plane = {g_machine->own_words.get(), g_machine->own_lines.get(),
             g_machine->own_machine_line.get(), config.npes, false};
  }
  qd::boot(plane, transport.get(), ppn);
  if (g_machine->ft_on) {
    g_machine->dead =
        std::make_unique<std::atomic<bool>[]>(static_cast<std::size_t>(config.npes));
    g_machine->wipe_pending =
        std::make_unique<std::atomic<bool>[]>(static_cast<std::size_t>(config.npes));
    if (g_machine->respawn_gen > 0) {
      // A respawned incarnation boots with every local PE dead: the mains
      // park (the application's rebirth branch) and so do the loops, until
      // recovery revives and refills them from the remote buddies. Its
      // lines outlived the dead incarnation (counts and progress carry
      // on): mark them busy, awake and waitless before anything drains.
      for (int i = g_machine->local_first; i < g_machine->local_first + ppn;
           ++i) {
        g_machine->dead[i].store(true, std::memory_order_relaxed);
        plane.lines[i].idle.store(0, std::memory_order_seq_cst);
        plane.lines[i].waiting.store(0, std::memory_order_seq_cst);
        plane.words[i].word.store(mfc::detail::kWordIdle,
                                  std::memory_order_seq_cst);
      }
    }
  }
  g_machine->pool_cap = config.pool_cap;
  g_machine->pes.resize(static_cast<std::size_t>(config.npes));
  for (int i = g_machine->local_first;
       i < g_machine->local_first + g_machine->local_npes; ++i) {
    auto pe = std::make_unique<Pe>();
    pe->id = i;
    // The queue parks on the PE's word in the plane, through which
    // producers in any process wake it.
    pe->queue.bind_wake_word(&plane.words[i].word, plane.shared);
    pe->line.bind(&plane.lines[i]);
    g_machine->pes[static_cast<std::size_t>(i)] = std::move(pe);
  }

  if (transport) {
    transport::Hooks hooks;
    hooks.alloc = [](const wire::Header& h, std::uint64_t total_len) {
      // A PE draining the shm rings recycles an envelope from its own pool
      // (no chaos pool-miss draw: that would shift the PE's decision
      // stream by how many frames it happened to drain).
      Message* m = nullptr;
      if (t_pe != nullptr && !t_pe->pool.cache.empty()) {
        m = t_pe->pool.cache.back();
        t_pe->pool.cache.pop_back();
        metrics::bump(Counter::kMsgsRecycled);
      } else {
        m = create_message();
      }
      m->handler = h.handler;
      m->src_pe = h.src_pe;
      m->dest_pe = h.dest_pe;
      m->trace_flow = h.trace_flow;
      // Adopted into the destination PE's pool on release (the delivering
      // thread allocates, the destination PE frees).
      m->pool_pe = h.dest_pe;
      m->payload.resize(static_cast<std::size_t>(total_len));
      return m;
    };
    hooks.enqueue = [](Message* m) {
      Pe* dest = g_machine->pes[static_cast<std::size_t>(m->dest_pe)].get();
      MFC_CHECK_MSG(dest != nullptr, "wire delivery to a non-local PE");
      // Queue-wait for wire arrivals measures local-queue residency only
      // (stamps never cross processes; tsc domains may differ).
      m->stamp = hist::on() ? rdtsc() : 0;
      dest->queue.push(m);
    };
    hooks.drop = [](Message* m) { drain_message(m); };
    hooks.on_proc_done = [] {
      if (g_machine->procs_done.fetch_add(1) + 1 == g_machine->nprocs) {
        g_machine->transport->broadcast_stop();
      }
    };
    hooks.on_stop = [] {
      g_machine->stop.store(true);
      for (auto& pe : g_machine->pes) {
        if (pe) pe->queue.wake();
      }
      g_machine->transport->stop_local();
    };
    hooks.tolerate_peer_loss = g_machine->ft_respawn;
    if (g_machine->ft_on) {
      // Machine-level FT control frames (revive a local PE): the
      // delivering thread flips the same flags revive_pe flips locally.
      hooks.ft_ctl = [](const wire::Header& h) {
        const int pe = h.dest_pe;
        MFC_CHECK(pe >= 0 && pe < g_machine->npes && pe_local(pe));
        revive_local(pe);
      };
    }
    // Comm-thread policing, on events: process 0 waits on a pidfd per
    // child and on the zygote channel (see reap_kid and serve_ctl_channel).
    // Other processes have no control fd and so no comm thread.
    for (std::size_t k = 0; k < g_machine->kids.size(); ++k) {
      const int fd = open_pidfd(g_machine->kids[k]);
      MFC_CHECK_MSG(fd >= 0, "pidfd_open on a machine child failed");
      g_machine->kid_pidfds.push_back(fd);
      hooks.control.push_back({fd, [k] { return reap_kid(k); }});
    }
    if (g_machine->ctl_fd >= 0) {
      hooks.control.push_back({g_machine->ctl_fd, serve_ctl_channel});
    }
    transport->start(my_proc, std::move(hooks));
  }

  // Cross-process slot leasing: release() must clear the `used` bit in the
  // slot's birth process (the one whose strip bitmap tracks it), so
  // non-local releases evacuate locally then forward a free order.
  if (config.nprocs > 1) {
    iso::Region::set_lease(
        [](int pe) { return pe_local(pe); },
        [](iso::SlotId id) { send_value(id.pe, h_iso_release, id); });
  }

  // Wedge watchdog (MFC_WEDGE_MS=<n>, off by default): a per-process
  // monitor thread that fires the flight recorder if the local message
  // counters sit still for n ms while the machine is supposedly running.
  // Each process polices itself, so a machine-wide wedge produces one
  // black-box dump per process without any cross-process coordination.
  std::atomic<bool> wedge_stop{false};
  std::thread wedge;
  long wedge_ms = 0;
  if (const char* env = std::getenv("MFC_WEDGE_MS");
      env != nullptr && *env != '\0') {
    wedge_ms = std::strtol(env, nullptr, 10);
  }
  if (wedge_ms > 0) {
    wedge = std::thread([&wedge_stop, wedge_ms] {
      const auto poll = std::chrono::milliseconds(
          wedge_ms / 4 > 50 ? 50 : (wedge_ms / 4 > 0 ? wedge_ms / 4 : 1));
      std::uint64_t last = ~0ull;
      auto last_move = std::chrono::steady_clock::now();
      while (!wedge_stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(poll);
        const std::uint64_t cur = total_sent() + total_delivered();
        const auto now = std::chrono::steady_clock::now();
        if (cur != last) {
          last = cur;
          last_move = now;
        } else if (now - last_move >= std::chrono::milliseconds(wedge_ms)) {
          trace::flight::dump("wedge");
          return;
        }
      }
    });
  }

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(g_machine->local_npes));
  for (int i = g_machine->local_first;
       i < g_machine->local_first + g_machine->local_npes; ++i) {
    threads.emplace_back(pe_loop,
                         g_machine->pes[static_cast<std::size_t>(i)].get(),
                         std::cref(entry));
  }
  for (auto& t : threads) t.join();

  if (wedge.joinable()) {
    wedge_stop.store(true, std::memory_order_release);
    wedge.join();
  }

  if (transport) {
    transport->stop_local();
    transport->join();
  }
  if (config.nprocs > 1) iso::Region::clear_lease();

  qd::boot(qd::Plane{}, nullptr, 1);
  if (my_proc != 0) {
    // Child teardown mirrors the parent's but ends in _Exit: the child must
    // not run atexit handlers or static destructors for state the parent
    // still owns. Books are checked per-process (the pes vector only drains
    // local envelopes).
    delete g_machine;
    g_machine = nullptr;
    if (ctx.owns_chaos) chaos::uninstall();
    if (ctx.owns_trace) {
      // Binary part, not JSON: the parent merges every process's part into
      // one clock-aligned timeline after it reaps the children.
      trace::stop_and_export_part(trace::env_file() + ".part" +
                                  std::to_string(my_proc));
    }
    if (ctx.owns_hist) {
      hist::write_stats_json(hist::env_file() + ".proc" +
                             std::to_string(my_proc));
      hist::enable(false);
    }
    MFC_CHECK_MSG(metrics::total(metrics::Counter::kMsgsAllocated) ==
                      metrics::total(metrics::Counter::kMsgsFreed),
                  "message envelopes leaked at machine shutdown (child)");
    transport.reset();
    std::_Exit(0);
  }
}

// ---- Respawn zygote ----
//
// A process forked from the pristine pre-fork single-threaded image,
// holding copies of every shared resource (shm segment, iso reservation,
// handler table, installed FT hooks, armed trace/flight state). A
// SIGKILLed worker cannot be re-forked from any live process — they all
// carry PE threads and divergent state — so the zygote parks on the clean
// image and forks replacements from it on request. The shm rings are
// crash-consistent, so a replacement inherits them as they are.

void zygote_respawn(const Machine::Config& config,
                    const std::function<void(int)>& entry,
                    std::unique_ptr<transport::Transport>& transport, int ctl,
                    bool owns_chaos, bool owns_trace, bool owns_hist,
                    const CtlRec& req, std::vector<pid_t>& grandkid,
                    std::vector<int>& grandkid_fd) {
  const int k = req.proc;
  MFC_CHECK(k > 0 && k < config.nprocs);
  // Fork the replacement: exponential backoff on transient failure, the
  // waits drawn from keyed chaos when it is installed so they replay.
  const pid_t zygote = ::getpid();
  pid_t pid = -1;
  for (std::uint64_t tries = 0;; ++tries) {
    pid = fork();
    if (pid >= 0) break;
    MFC_CHECK_MSG(tries < 64, "respawn fork failed permanently");
    const std::uint64_t cap = std::min<std::uint64_t>(
        50ULL << (tries < 6 ? tries : 6), 2000);
    std::uint64_t us = cap;
    if (chaos::enabled()) {
      us = 1 + chaos::keyed_draw(chaos::Point::kProcKill, tries ^ req.arg,
                                 cap);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(us));
  }
  if (pid == 0) {
    // The respawned incarnation: shed every zygote-only fd, then run the
    // standard per-process machine body as proc k.
    die_with_parent(zygote);
    ::close(ctl);
    for (const int fd : grandkid_fd) {
      if (fd >= 0) ::close(fd);
    }
    ProcRun ctx;
    ctx.config = &config;
    ctx.entry = &entry;
    ctx.transport = &transport;
    ctx.my_proc = k;
    ctx.respawn_gen = static_cast<int>(req.arg);
    ctx.owns_chaos = owns_chaos;
    ctx.owns_trace = owns_trace;
    ctx.owns_hist = owns_hist;
    run_machine_process(std::move(ctx));
    std::_Exit(0);  // not reached: non-zero procs exit inside
  }
  grandkid[static_cast<std::size_t>(k)] = pid;
  grandkid_fd[static_cast<std::size_t>(k)] = open_pidfd(pid);
  MFC_CHECK_MSG(grandkid_fd[static_cast<std::size_t>(k)] >= 0,
                "pidfd_open on a respawned process failed");
  ctl_send(ctl, CtlRec{kCtlRespawnDone, k, req.arg});
}

/// `ctl` is the zygote's end of process 0's channel.
[[noreturn]] void zygote_main(const Machine::Config& config,
                              const std::function<void(int)>& entry,
                              std::unique_ptr<transport::Transport>& transport,
                              int ctl, bool owns_chaos, bool owns_trace,
                              bool owns_hist) {
  const std::size_t nprocs = static_cast<std::size_t>(config.nprocs);
  std::vector<pid_t> grandkid(nprocs, 0);
  /// pidfd per live respawned incarnation (-1 = none).
  std::vector<int> grandkid_fd(nprocs, -1);
  // Poll set: process 0's channel, then the grandkid pidfds.
  std::vector<pollfd> pfds(1 + nprocs);
  for (;;) {
    pfds[0] = pollfd{ctl, POLLIN, 0};
    for (std::size_t p = 0; p < nprocs; ++p) {
      pfds[1 + p] = pollfd{grandkid_fd[p], POLLIN, 0};
    }
    if (::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), -1) < 0) {
      continue;
    }
    // Reap respawned incarnations as they exit; report abnormal deaths to
    // process 0 — only this process, their parent, can waitpid them.
    for (std::size_t p = 0; p < nprocs; ++p) {
      if (pfds[1 + p].revents == 0) continue;
      int status = 0;
      if (waitpid(grandkid[p], &status, WNOHANG) != grandkid[p]) continue;
      ::close(grandkid_fd[p]);
      grandkid_fd[p] = -1;
      grandkid[p] = 0;
      if (!(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
        ctl_send(ctl, CtlRec{kCtlProcDeath, static_cast<int>(p), 0});
      }
    }
    if (pfds[0].revents == 0) continue;
    CtlRec rec;
    CtlRead r;
    while ((r = ctl_recv(ctl, &rec)) == CtlRead::kRecord) {
      switch (rec.type) {
        case kCtlReqRespawn:
          zygote_respawn(config, entry, transport, ctl, owns_chaos,
                         owns_trace, owns_hist, rec, grandkid, grandkid_fd);
          break;
        case kCtlReqKill:
          if (grandkid[static_cast<std::size_t>(rec.proc)] > 0) {
            ::kill(grandkid[static_cast<std::size_t>(rec.proc)], SIGKILL);
          }
          break;
        case kCtlShutdown:
          for (const pid_t g : grandkid) {
            if (g > 0) waitpid(g, nullptr, 0);
          }
          std::_Exit(0);
        default:
          MFC_CHECK_MSG(false, "unexpected record on the zygote channel");
      }
    }
    // Process 0 closed its end without a shutdown order: the run is gone;
    // don't linger as an orphan.
    if (r == CtlRead::kClosed) std::_Exit(0);
  }
}

}  // namespace

HandlerId register_handler(HandlerFn fn) {
  std::lock_guard<std::mutex> lock(g_register_mutex);
  const std::uint32_t id = g_handler_count.load(std::memory_order_relaxed);
  MFC_CHECK_MSG(id < kMaxHandlers, "handler table full");
  g_handler_slots[id].store(new HandlerFn(std::move(fn)),
                            std::memory_order_release);
  g_handler_count.store(id + 1, std::memory_order_relaxed);
  return id;
}

void Machine::run(const Config& config, std::function<void(int)> entry) {
  MFC_CHECK_MSG(g_machine == nullptr, "Machine::run is not reentrant");
  MFC_CHECK(config.npes >= 1);
  MFC_CHECK(config.nprocs >= 1);
  const bool wire_on = config.transport != Config::Transport::kInProc;
  if (config.nprocs > 1) {
    MFC_CHECK_MSG(wire_on, "nprocs > 1 requires the shm wire");
    MFC_CHECK_MSG(config.npes % config.nprocs == 0,
                  "npes must divide evenly across processes");
  }
  register_builtin_handlers();

  // ---- Shared setup, pre-fork: children inherit all of it. ----

  // Chaos may also be installed by the caller before run (tests do this to
  // inspect injection counters afterwards); then the machine just uses it.
  const bool owns_chaos = config.chaos.enabled && !chaos::enabled();
  if (owns_chaos) chaos::install(config.chaos);

  // Fresh books for this run; pool_stats()/metrics::snapshot() read them
  // after the machine returns. Multi-process: each process's copy-on-write
  // registry holds its local PEs' counts (quiescence reads the control
  // lines instead, which every process shares).
  metrics::reset(config.npes);
  g_pooled_payload_bytes.store(0, std::memory_order_relaxed);

  // Env-gated tracing (MFC_TRACE=1): if no explicit session is active, the
  // machine records this run and exports at shutdown, so any test or bench
  // can be traced without code changes. An explicit session started by the
  // caller (storm driver, trace tests) is left for its owner to export.
  const bool owns_trace = trace::env_enabled() && !trace::active();
  if (owns_trace) trace::start(config.npes);
  // Env-gated latency histograms (MFC_STATS=1): armed for the run, dumped
  // as JSON at shutdown. Same ownership rule as tracing so benches can arm
  // them explicitly.
  const bool owns_hist = hist::env_enabled() && !hist::active();
  if (owns_hist) {
    hist::reset(config.npes);
    hist::enable(true);
  }

  // Flight recorder: always armed (MFC_FLIGHT=0 disables) — it is the
  // black box that survives a failure when MFC_TRACE is off. Children
  // inherit the armed ring and dump independently.
  flight::init(config.npes);

  const bool owns_region =
      config.iso_slots_per_pe > 0 && !iso::Region::initialized();
  if (owns_region) {
    iso::Region::Config iso_cfg;
    iso_cfg.npes = config.npes;
    iso_cfg.slot_bytes = config.iso_slot_bytes;
    iso_cfg.slots_per_pe = config.iso_slots_per_pe;
    iso::Region::init(iso_cfg);
  }

  // The wire's shm segment must exist before the fork so every process
  // maps the same rings.
  std::unique_ptr<transport::Transport> transport;
  if (wire_on) {
    transport = std::make_unique<transport::Transport>(
        config.npes, config.nprocs, config.shm_ring_bytes);
  }

  // ---- Process-tier FT: fork the respawn zygote. ----
  // It must come from this pristine pre-fork image — after the kids fork
  // below, every live process carries threads and divergent state a
  // replacement must not inherit. One SEQPACKET pair between process 0 and
  // the zygote carries the control protocol.
  const bool ft_respawn = g_ft_hooks_set && config.nprocs > 1;
  const pid_t parent = ::getpid();
  int ctl_fd = -1;
  pid_t zygote_pid = 0;
  if (ft_respawn) {
    int sv[2];
    MFC_CHECK_MSG(::socketpair(AF_UNIX, SOCK_SEQPACKET, 0, sv) == 0,
                  "machine ctl socketpair failed");
    zygote_pid = fork();
    MFC_CHECK_MSG(zygote_pid >= 0, "respawn zygote fork failed");
    if (zygote_pid == 0) {
      die_with_parent(parent);
      ::close(sv[0]);
      zygote_main(config, entry, transport, sv[1], owns_chaos, owns_trace,
                  owns_hist);
    }
    ::close(sv[1]);
    ctl_fd = sv[0];
  }

  // ---- Fork: process k hosts PEs [k*ppn, (k+1)*ppn). ----
  // No threads exist yet in this process, so the children are clean
  // single-threaded images of the shared setup above.
  int my_proc = 0;
  std::vector<pid_t> kids;
  for (int p = 1; p < config.nprocs && my_proc == 0; ++p) {
    const pid_t pid = fork();
    MFC_CHECK_MSG(pid >= 0, "fork failed");
    if (pid == 0) {
      die_with_parent(parent);
      // Only process 0 talks to the zygote.
      if (ctl_fd >= 0) ::close(ctl_fd);
      ctl_fd = -1;
      my_proc = p;
      kids.clear();
    } else {
      kids.push_back(pid);
    }
  }

  ProcRun ctx;
  ctx.config = &config;
  ctx.entry = &entry;
  ctx.transport = &transport;
  ctx.my_proc = my_proc;
  ctx.ctl_fd = ctl_fd;
  ctx.kids = std::move(kids);
  ctx.owns_chaos = owns_chaos;
  ctx.owns_trace = owns_trace;
  ctx.owns_hist = owns_hist;
  run_machine_process(std::move(ctx));  // children _Exit(0) inside

  // Parent (process 0): collect any children the comm thread hadn't
  // reaped yet. With the process tier armed an abnormal exit was a
  // recovered (or being-recovered) failure, not a protocol violation.
  for (std::size_t k = 0; k < g_machine->kids.size(); ++k) {
    if (g_machine->kids_reaped != nullptr &&
        g_machine->kids_reaped[k].load(std::memory_order_acquire)) {
      continue;
    }
    ::close(g_machine->kid_pidfds[k]);
    int status = 0;
    const pid_t r = waitpid(g_machine->kids[k], &status, 0);
    if (r == g_machine->kids[k]) {
      MFC_CHECK_MSG((WIFEXITED(status) && WEXITSTATUS(status) == 0) ||
                        ft_respawn,
                    "machine child process exited abnormally");
    }
  }
  if (ft_respawn) {
    // Zygote shutdown handshake: it blocks reaping every respawned
    // incarnation (they exit through the same stop broadcast), then exits.
    ctl_send(ctl_fd, CtlRec{kCtlShutdown, 0, 0});
    int zstatus = 0;
    waitpid(zygote_pid, &zstatus, 0);
    MFC_CHECK_MSG(WIFEXITED(zstatus) && WEXITSTATUS(zstatus) == 0,
                  "respawn zygote exited abnormally");
    ::close(ctl_fd);
  }
  transport.reset();

  delete g_machine;  // ~Pe drains inboxes/stashes/pools via the counted path
  g_machine = nullptr;
  if (owns_region) iso::Region::shutdown();
  if (owns_chaos) chaos::uninstall();
  if (owns_trace) {
    if (config.nprocs > 1) {
      // Children already wrote their parts (reaped above). Write ours, then
      // merge everything onto one timeline.
      const std::string base = trace::env_file();
      trace::stop_and_export_part(base + ".part0");
      std::vector<std::string> parts;
      parts.reserve(static_cast<std::size_t>(config.nprocs));
      for (int p = 0; p < config.nprocs; ++p) {
        parts.push_back(base + ".part" + std::to_string(p));
      }
      std::string err;
      if (!trace::merge_parts(parts, base, &err)) {
        MFC_LOG_WARN("trace merge failed: %s", err.c_str());
      }
    } else {
      trace::stop_and_export(trace::env_file());
    }
  }
  if (owns_hist) {
    hist::write_stats_json(config.nprocs > 1
                               ? hist::env_file() + ".proc0"
                               : hist::env_file());
    hist::enable(false);
  }

  // The shutdown-leak invariant: every envelope this run allocated came
  // back through destroy_message — including messages still queued in peer
  // inboxes or chaos delay stashes when the last main finished.
  MFC_CHECK_MSG(metrics::total(metrics::Counter::kMsgsAllocated) ==
                    metrics::total(metrics::Counter::kMsgsFreed),
                "message envelopes leaked at machine shutdown");
}

int my_pe() {
  MFC_CHECK_MSG(t_pe != nullptr, "not on a PE kernel thread");
  return t_pe->id;
}

int num_pes() {
  MFC_CHECK_MSG(g_machine != nullptr, "machine not running");
  return g_machine->npes;
}

bool in_pe_context() { return t_pe != nullptr; }

int num_procs() { return g_machine != nullptr ? g_machine->nprocs : 1; }

int my_proc() { return g_machine != nullptr ? g_machine->my_proc : 0; }

namespace detail {

Message* acquire_message(std::size_t payload_bytes) {
  MFC_CHECK(g_machine != nullptr);
  Message* m = t_pe != nullptr ? pool_acquire(t_pe) : create_message();
  m->payload.resize(payload_bytes);
  return m;
}

void send_message(int dest_pe, HandlerId handler, Message* m) {
  MFC_CHECK(g_machine != nullptr);
  MFC_CHECK(dest_pe >= 0 && dest_pe < g_machine->npes);
  // Only PEs have control lines, and quiescence counts every message.
  MFC_CHECK_MSG(t_pe != nullptr, "sends must originate on a PE thread");
  // A ULT can lose the processor right at a send boundary — the classic
  // window where a racing handler observes half-updated thread state.
  chaos::preempt_point("converse.send");
  m->handler = handler;
  m->src_pe = t_pe->id;
  m->dest_pe = dest_pe;
  t_pe->line.count_sent();  // before the message can become visible
  metrics::bump(Counter::kMsgsSent);
  // Cross-PE sends get a flow id so the exporter can draw an arrow from
  // this send to the remote dispatch; assigned per send (recycled
  // envelopes carry stale ids otherwise). The inline enabled() test keeps
  // the tracing-off cost to the same predictable branch emit() pays.
  m->trace_flow = 0;
  if (trace::enabled() && m->src_pe != dest_pe) {
    m->trace_flow = trace::next_flow_id();
  }
  // Queue-wait stamp, same per-send-assignment discipline as trace_flow
  // (recycled envelopes carry stale stamps otherwise). Wire sends are
  // re-stamped at the receiving process's enqueue hook.
  m->stamp = hist::on() ? rdtsc() : 0;
  trace::emit(trace::Ev::kMsgSend, m->trace_flow, handler,
              static_cast<std::uint32_t>(m->payload.size()),
              static_cast<std::int16_t>(dest_pe));

  // Wire routing: loopback mode ships every cross-PE send; multi-process
  // ships only cross-process destinations (same-process PEs keep the
  // direct lock-free queues). The transport copies/writes the payload
  // before returning, so the envelope is released immediately.
  if (g_machine->transport != nullptr && dest_pe != m->src_pe &&
      (g_machine->nprocs == 1 || !pe_local(dest_pe))) {
    wire::Header h;
    h.kind = static_cast<std::uint32_t>(wire::Kind::kEager);
    h.handler = handler;
    h.src_pe = m->src_pe;
    h.dest_pe = dest_pe;
    h.payload_len = m->payload.size();
    h.total_len = h.payload_len;
    h.trace_flow = m->trace_flow;
    wire::Span s{m->payload.data(), m->payload.size()};
    g_machine->transport->send(h, &s, 1, nullptr);
    release_message(m);
    return;
  }
  enqueue_or_inline(dest_pe, m);
}

}  // namespace detail

void send(int dest_pe, HandlerId handler, std::vector<char> payload) {
  Message* m = detail::acquire_message(0);
  m->payload.adopt(payload);
  detail::send_message(dest_pe, handler, m);
}

void send_spans(int dest_pe, HandlerId handler, const SendSpan* spans,
                std::size_t nspans, std::function<void()> on_consumed) {
  MFC_CHECK(g_machine != nullptr);
  MFC_CHECK(dest_pe >= 0 && dest_pe < g_machine->npes);
  MFC_CHECK_MSG(t_pe != nullptr, "sends must originate on a PE thread");
  chaos::preempt_point("converse.send");
  const int src = t_pe->id;
  const std::size_t total = wire::spans_total(spans, nspans);
  t_pe->line.count_sent();  // before the message can become visible
  metrics::bump(Counter::kMsgsSent);
  metrics::bump(Counter::kSpanSends);
  std::uint64_t flow = 0;
  if (trace::enabled() && src != dest_pe) {
    flow = trace::next_flow_id();
  }
  trace::emit(trace::Ev::kMsgSend, flow, handler,
              static_cast<std::uint32_t>(total),
              static_cast<std::int16_t>(dest_pe));
  if (g_machine->transport != nullptr && dest_pe != src &&
      (g_machine->nprocs == 1 || !pe_local(dest_pe))) {
    wire::Header h;
    h.kind = static_cast<std::uint32_t>(wire::Kind::kEager);
    h.handler = handler;
    h.src_pe = src;
    h.dest_pe = dest_pe;
    h.payload_len = total;
    h.total_len = total;
    h.trace_flow = flow;
    g_machine->transport->send(h, spans, nspans, std::move(on_consumed));
    return;
  }
  // In-process: the spans gather once, directly into the pooled delivery
  // envelope — the buffer the destination handler will read, not an
  // intermediate wire blob. on_consumed runs before the envelope becomes
  // reachable by the destination.
  Message* m = detail::acquire_message(total);
  wire::spans_gather(m->payload.data(), spans, nspans);
  if (on_consumed) on_consumed();
  m->handler = handler;
  m->src_pe = src;
  m->dest_pe = dest_pe;
  m->trace_flow = flow;
  m->stamp = hist::on() ? rdtsc() : 0;
  enqueue_or_inline(dest_pe, m);
}

void broadcast(HandlerId handler, const std::vector<char>& payload) {
  const int n = num_pes();
  for (int pe = 0; pe < n; ++pe) {
    Message* m = detail::acquire_message(payload.size());
    if (!payload.empty()) {
      std::memcpy(m->payload.data(), payload.data(), payload.size());
    }
    detail::send_message(pe, handler, m);
  }
}

void barrier() {
  Pe* pe = t_pe;
  MFC_CHECK_MSG(pe != nullptr, "barrier() outside PE context");
  MFC_CHECK_MSG(pe->sched.in_thread(), "barrier() must run inside a ULT");
  MFC_CHECK_MSG(pe->barrier_waiter == nullptr,
                "one barrier waiter per PE at a time");
  pe->barrier_gen += 1;
  pe->barrier_waiter = pe->sched.running();
  BarrierMsg msg{pe->barrier_gen};
  send_value(0, h_barrier_arrive, msg);
  pe->sched.suspend();  // resumed by the release handler
}

void ready_thread(ult::Thread* t) {
  MFC_CHECK_MSG(t_pe != nullptr, "ready_thread outside PE context");
  t_pe->sched.ready(t);
}

ult::Scheduler& pe_scheduler() {
  MFC_CHECK_MSG(t_pe != nullptr, "pe_scheduler outside PE context");
  return t_pe->sched;
}

std::uint64_t messages_sent() {
  return g_machine != nullptr ? total_sent() : 0;
}

std::uint64_t messages_delivered() {
  return g_machine != nullptr ? total_delivered() : 0;
}

PoolStats pool_stats() {
  PoolStats s;
  s.allocated = metrics::total(metrics::Counter::kMsgsAllocated);
  s.freed = metrics::total(metrics::Counter::kMsgsFreed);
  s.recycled = metrics::total(metrics::Counter::kMsgsRecycled);
  s.drained_at_shutdown = metrics::total(metrics::Counter::kMsgsDrained);
  s.pooled_payload_bytes =
      g_pooled_payload_bytes.load(std::memory_order_relaxed);
  return s;
}

void wait_quiescence() {
  Pe* pe = t_pe;
  MFC_CHECK_MSG(pe != nullptr && pe->sched.in_thread(),
                "wait_quiescence() must run inside a ULT on a PE");
  // The PE's loop sweeps the control lines once it has nothing else to
  // run (converse/quiescence.h).
  pe->waits.add(g_machine->plane, pe->id, pe->sched.running());
  pe->sched.suspend();
}

void set_ft_machine_hooks(FtMachineHooks hooks) {
  MFC_CHECK_MSG(g_machine == nullptr,
                "install FT hooks before Machine::run");
  g_ft_hooks = std::move(hooks);
  g_ft_hooks_set = true;
}

void clear_ft_machine_hooks() {
  MFC_CHECK_MSG(g_machine == nullptr,
                "remove FT hooks after Machine::run returns");
  g_ft_hooks = FtMachineHooks{};
  g_ft_hooks_set = false;
}

void kill_pe(int pe) {
  MFC_CHECK(g_machine != nullptr && g_machine->ft_on);
  MFC_CHECK_MSG(g_machine->nprocs == 1,
                "kill_pe needs a single-process machine: across processes "
                "the failure unit is a process (kill_proc)");
  MFC_CHECK_MSG(pe > 0 && pe < g_machine->npes,
                "PE 0 is the FT coordinator and cannot be killed");
  g_machine->dead[pe].store(true, std::memory_order_release);
  // If the victim was parked idle, wake it so its loop observes the flag
  // (a wake with no data pops nullptr and re-enters the loop top).
  g_machine->pes[static_cast<std::size_t>(pe)]->queue.wake();
}

void revive_pe(int pe) {
  MFC_CHECK(g_machine != nullptr && g_machine->ft_on);
  MFC_CHECK(pe > 0 && pe < g_machine->npes);
  if (pe_local(pe)) {
    revive_local(pe);
    return;
  }
  // A machine-level control frame to the process hosting `pe`; the thread
  // that delivers it there flips the flags (hooks.ft_ctl). It rides the
  // same ordered ring as ordinary sends from this PE, so the revive (and
  // its wipe) lands before any refill sent afterwards.
  MFC_CHECK_MSG(t_pe != nullptr,
                "cross-process revive requires a PE thread");
  wire::Header h;
  h.src_pe = t_pe->id;
  h.dest_pe = pe;
  g_machine->transport->send_ctl(h);
}

bool pe_dead(int pe) {
  return g_machine != nullptr && g_machine->ft_on && pe >= 0 &&
         pe < g_machine->npes && pe_local(pe) &&
         g_machine->dead[pe].load(std::memory_order_acquire);
}

int respawn_generation() {
  return g_machine != nullptr ? g_machine->respawn_gen : 0;
}

bool ft_proc_respawn_enabled() {
  return g_machine != nullptr && g_machine->ft_respawn;
}

int take_dead_proc() {
  if (g_machine == nullptr || !g_machine->ft_respawn) return -1;
  return g_machine->dead_proc_event.exchange(-1, std::memory_order_acq_rel);
}

void request_respawn(int proc) {
  MachineState* st = g_machine;
  MFC_CHECK(st != nullptr && st->ft_respawn && my_pe() == 0);
  MFC_CHECK(proc > 0 && proc < st->nprocs);
  st->proc_respawned[static_cast<std::size_t>(proc)] = true;
  ctl_send(st->ctl_fd, CtlRec{kCtlReqRespawn, proc, ++st->next_respawn_gen});
}

bool take_respawn_complete(int proc) {
  MachineState* st = g_machine;
  if (st == nullptr || !st->ft_respawn) return false;
  int expect = proc;
  return st->respawn_done_event.compare_exchange_strong(
      expect, -1, std::memory_order_acq_rel);
}

void kill_proc(int proc) {
  MachineState* st = g_machine;
  MFC_CHECK(st != nullptr && st->ft_respawn && st->my_proc == 0);
  MFC_CHECK_MSG(proc > 0 && proc < st->nprocs,
                "process 0 hosts the FT coordinator and cannot be killed");
  // Dead for the wire from the signal on, not only from the reap: a send
  // toward it that finds its ring full must not wait on the corpse.
  st->transport->set_proc_dead(proc, true);
  if (st->proc_respawned[static_cast<std::size_t>(proc)]) {
    // The current incarnation is a zygote grandchild; only the zygote
    // holds its pid.
    ctl_send(st->ctl_fd, CtlRec{kCtlReqKill, proc, 0});
    return;
  }
  const std::size_t k = static_cast<std::size_t>(proc - 1);
  if (!st->kids_reaped[k].load(std::memory_order_acquire)) {
    ::kill(st->kids[k], SIGKILL);
  }
}

void begin_qd_drain() {
  MFC_CHECK(g_machine != nullptr && my_pe() == 0);
  qd::set_drain(true);
}

void end_qd_drain() {
  MFC_CHECK(g_machine != nullptr && my_pe() == 0);
  qd::set_drain(false);
}

void iso_claim(const iso::SlotId& id) {
  MFC_CHECK(g_machine != nullptr && id.valid());
  if (pe_local(id.pe)) {
    iso::Region::instance().reassert(id);
    return;
  }
  send_value(id.pe, h_iso_claim, id);
}

}  // namespace mfc::converse
