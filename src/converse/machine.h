// Converse-style machine layer (paper §2.4): an emulated multi-processor
// parallel machine inside one process.
//
// Each PE (processing element) is a kernel thread running a message-driven
// scheduler loop plus a user-level-thread scheduler. PEs communicate only
// through active messages — byte payloads dispatched to registered handlers
// — never by touching each other's state, so the same code paths work when
// PEs live in different address spaces (Config::nprocs forks the machine,
// and the shm wire of converse/transport.h carries cross-process sends).
//
// Each PE's entry function runs inside a user-level "main" thread, so it can
// block (barrier(), AMPI receives, …) while the PE keeps processing
// messages — exactly the blocking-calls-over-scheduler structure the paper
// describes for AMPI.
//
// The message path is lock-free end to end (see DESIGN.md "Messaging fast
// path"): sends pack into pooled per-PE Message buffers, enqueue onto an
// intrusive batched MPSC channel, and dispatch through an append-only atomic
// handler table — no mutex is acquired anywhere on the hot path once the
// machine is running. Self-sends issued from handler/scheduler context
// deliver inline without touching the queue at all.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "chaos/chaos.h"
#include "converse/wire.h"
#include "iso/region.h"
#include "pup/pup.h"
#include "ult/scheduler.h"

namespace mfc::converse {

using HandlerId = std::uint32_t;

/// Message payload with a small-buffer fast path: payloads up to kInline
/// bytes live inside the Message itself — envelope and data on adjacent
/// cache lines, no separate heap allocation per message. Larger payloads
/// spill to a heap buffer that lives exactly as long as the message: a
/// pooled envelope gives it back (release_heap) before it enters a pool,
/// so a pool never hoards the largest payload it ever carried. The buffer
/// is allocated uninitialized: the pack or the ring copy that follows
/// every resize overwrites it in full, so it is written once. The wire
/// format (size + raw bytes) matches the old std::vector<char> pup, so
/// serialized messages are unchanged.
class Payload {
 public:
  static constexpr std::size_t kInline = 64;

  char* data() { return size_ <= kInline ? inline_ : heap_.get(); }
  const char* data() const {
    return size_ <= kInline ? inline_ : heap_.get();
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Contents are unspecified after growth. Sizes over kInline allocate
  /// the heap buffer (an envelope fresh from a pool has none), without
  /// zero-filling it.
  void resize(std::size_t n) {
    if (n > kInline && n > cap_) {
      heap_ = std::make_unique_for_overwrite<char[]>(n);
      cap_ = n;
    }
    size_ = n;
  }

  /// Bytes of heap buffer this payload owns (0 for inline payloads).
  std::size_t heap_bytes() const { return cap_; }

  /// Empties the payload and frees its heap buffer: what an envelope does
  /// before it enters a pool.
  void release_heap() {
    heap_.reset();
    cap_ = 0;
    size_ = 0;
  }

  void assign(const void* src, std::size_t n) {
    resize(n);
    if (n != 0) std::memcpy(data(), src, n);
  }

  /// Copies a byte vector in (the stale-route forwards and send(vector)).
  void adopt(const std::vector<char>& v) { assign(v.data(), v.size()); }

  /// Copies the bytes out as a vector (forwarding paths); empties this.
  std::vector<char> take() {
    std::vector<char> out(data(), data() + size_);
    size_ = 0;
    return out;
  }

  void pup(pup::Er& p) {
    std::size_t n = size_;
    p.bytes(&n, sizeof n);
    if (p.unpacking()) resize(n);
    if (n != 0) p.bytes(data(), n);
  }

 private:
  std::size_t size_ = 0;
  std::size_t cap_ = 0;  ///< bytes allocated at heap_
  std::unique_ptr<char[]> heap_;
  char inline_[kInline];
};

struct Message {
  HandlerId handler = 0;
  std::int32_t src_pe = -1;
  std::int32_t dest_pe = -1;

  // Runtime-internal plumbing (never serialized), kept in the envelope's
  // first cache line ahead of the payload: the intrusive MPSC queue link —
  // the queue's swap-and-reverse walks it, so it must not share a line with
  // cold payload bytes — and whether a per-PE pool may recycle this
  // allocation (-1 = plain heap; otherwise the id of the PE whose pool last
  // held it — the consuming PE adopts it on release).
  std::int32_t pool_pe = -1;
  Message* next = nullptr;
  /// Trace flow id tying this send to its remote dispatch (0 = untraced or
  /// local; assigned per send, so recycling needs no cleanup).
  std::uint64_t trace_flow = 0;
  /// Enqueue timestamp (rdtsc ticks) for the queue-wait latency histogram
  /// (0 = unstamped; set per send only while hist::on(), so recycling needs
  /// no cleanup). Never serialized — wire messages are re-stamped at the
  /// receiving process's enqueue.
  std::uint64_t stamp = 0;

  Payload payload;

  void pup(pup::Er& p) { p | handler | src_pe | dest_pe | payload; }

  /// Unpacks the payload into a PUP-able value.
  template <typename T>
  T as() const {
    T value{};
    pup::MemUnpacker u(payload.data(), payload.size());
    pup::pup(u, value);
    return value;
  }

};

/// Handlers run on the destination PE's scheduler context (not inside a
/// ULT); they must not block, but may ready() threads and send messages.
using HandlerFn = std::function<void(Message&&)>;

/// Registers a handler. All PEs share the registry; handlers must be
/// registered before Machine::run (or identically on every address space
/// before Machine::run forks) so ids agree machine-wide. Registration
/// while the machine runs is tolerated (the charm array layer registers
/// lazily from entry functions): the table is append-only and dispatch
/// reads it lock-free.
HandlerId register_handler(HandlerFn fn);

class Machine {
 public:
  struct Config {
    /// Whether the shm wire carries cross-process (or, with nprocs == 1,
    /// *all* cross-PE — "loopback" mode) messages. kInProc is the classic
    /// single-process lock-free-queue machine.
    enum class Transport { kInProc, kShm };

    int npes = 2;
    /// Processes the machine runs across. With nprocs > 1 the shm wire is
    /// required; Machine::run forks nprocs-1 children after the shared
    /// resources (chaos, trace rings, iso region, the wire's segment) are
    /// created, so every address space inherits them. npes must divide
    /// evenly; process k hosts PEs [k*ppn, (k+1)*ppn). FT hooks installed
    /// on a multi-process machine additionally arm whole-process fault
    /// tolerance: a respawn zygote is forked from the pristine pre-fork
    /// image, process 0 polices child liveness, and a SIGKILLed process
    /// can be respawned mid-run (see the process-tier API at the bottom of
    /// this header). Every forked process dies with process 0.
    int nprocs = 1;
    Transport transport = Transport::kInProc;
    /// Per-(dest-process, source-PE) SPSC ring capacity for the shm
    /// transport (power of two; messages over half a ring are chunked).
    std::size_t shm_ring_bytes = 64 * 1024;
    /// When set, initializes the isomalloc region for `npes` strips
    /// (skipped if the region already exists or iso_slots_per_pe == 0).
    std::uint32_t iso_slots_per_pe = 2048;
    std::size_t iso_slot_bytes = 256 * 1024;
    /// Per-PE envelope freelist capacity (envelopes kept for recycling;
    /// excess frees on release). Pooled envelopes hold no payload buffer,
    /// so a pool costs at most pool_cap × sizeof(Message) whatever the
    /// traffic. Raise it for workloads whose in-flight message count
    /// exceeds the default, so steady-state sends of payloads up to
    /// Payload::kInline bytes stay allocation-free.
    std::size_t pool_cap = 4096;
    /// Fault injection / deterministic scheduling (chaos.enabled = true
    /// installs the chaos engine for the duration of the run; the seed is
    /// printed as MFC_CHAOS_SEED for replay). With delivery_delay active
    /// the self-send inline bypass is disabled so delayed messages cannot
    /// be overtaken.
    chaos::Config chaos;
  };

  /// Boots the machine: spawns one kernel thread per PE, runs `entry(pe)`
  /// as that PE's main user-level thread, and services messages until every
  /// main thread has finished. Returns after all PEs shut down.
  static void run(const Config& config, std::function<void(int)> entry);
};

// ---- Per-PE API (valid on a PE's kernel thread during Machine::run) ----

int my_pe();
int num_pes();
bool in_pe_context();

/// Multi-process topology (1/0 on a single-process machine).
int num_procs();
int my_proc();

/// Sends an active message (payload is a PUP-able value).
void send(int dest_pe, HandlerId handler, std::vector<char> payload);

namespace detail {
/// Pooled-message internals backing send_value/broadcast: acquires an
/// envelope recycled from the calling PE's pool with its payload sized to
/// `payload_bytes`, and hands a filled message to the router.
Message* acquire_message(std::size_t payload_bytes);
void send_message(int dest_pe, HandlerId handler, Message* m);
}  // namespace detail

/// Packs `value` with one Sizer-measured pass directly into a pooled
/// per-PE buffer — no intermediate std::vector allocation per send.
template <typename T>
void send_value(int dest_pe, HandlerId handler, const T& value) {
  Message* m = detail::acquire_message(pup::packed_size(value));
  pup::MemPacker packer(m->payload.data(), m->payload.size());
  pup::pup(packer, const_cast<T&>(value));
  detail::send_message(dest_pe, handler, m);
}

/// One scatter-gather piece of an outgoing message (converse/wire.h).
using SendSpan = wire::Span;

/// Scatter-gather send: ships the concatenation of `spans` as one message
/// without requiring the caller to gather them first. On the in-process
/// path the spans are copied once, directly into the pooled delivery
/// envelope; over the wire they go straight to the ring copy loop.
///
/// `on_consumed` (optional) runs exactly once, after the span bytes have
/// been consumed and strictly before the message can be delivered anywhere.
/// Migration uses it for the destructive pack epilogue: the spans point
/// into live isomalloc slots, and the epilogue evacuates them — the
/// ordering guarantee is what keeps a same-process destination's install()
/// from colliding with still-resident source pages.
void send_spans(int dest_pe, HandlerId handler, const SendSpan* spans,
                std::size_t nspans, std::function<void()> on_consumed = {});

/// Sends to every PE (including the caller).
void broadcast(HandlerId handler, const std::vector<char>& payload);

/// Blocks the calling user-level thread until every PE has entered the
/// barrier (message-based; callable once per PE per episode, typically from
/// the main thread).
void barrier();

/// Readies a thread on the *calling* PE's scheduler (handlers use this to
/// resume blocked threads). Cross-PE resumption must go through a message.
void ready_thread(ult::Thread* t);

/// The calling PE's user-level scheduler.
ult::Scheduler& pe_scheduler();

/// Statistics for benchmarks (sums of per-PE counters; advisory while the
/// machine is running).
std::uint64_t messages_sent();
std::uint64_t messages_delivered();

/// Message-envelope lifecycle accounting. Every envelope the machine
/// creates is counted at allocation and at destruction through one audited
/// path, and Machine::run asserts allocated == freed after teardown — a
/// PE exiting with a non-empty inbox, a stashed chaos-delayed batch, or a
/// populated recycling pool must all drain through the counted teardown.
/// Counters reset at the start of each Machine::run and remain readable
/// after it returns.
struct PoolStats {
  std::uint64_t allocated = 0;  ///< envelopes newed this run
  std::uint64_t freed = 0;      ///< envelopes deleted this run
  std::uint64_t recycled = 0;   ///< pool hits (no allocation needed)
  /// Envelopes still in flight (peer inboxes, delay stashes) when the
  /// machine stopped, reclaimed by the teardown drain.
  std::uint64_t drained_at_shutdown = 0;
  /// Teardown audit: payload heap bytes still owned by pooled envelopes
  /// when the pools were freed. Pools hold bare envelopes, so this reads 0.
  std::uint64_t pooled_payload_bytes = 0;
};
PoolStats pool_stats();

/// Quiescence detection: blocks the calling user-level thread until every
/// message sent anywhere in the machine has been delivered and no PE has
/// runnable work other than threads parked in wait_quiescence() itself.
/// Multiple PEs may wait concurrently (typically all of them, making it a
/// "whole computation finished" detector for message-driven phases). No
/// message is sent: the waiting PE reads every PE's control line twice
/// once it has nothing else to run (converse/quiescence.h), and a wait on
/// an idle machine wakes no other PE.
void wait_quiescence();

// ---- Fault-tolerance machine hooks (ft layer) ----
//
// The ft layer plugs into the machine at exactly two seams: a periodic tick
// on PE 0's scheduler loop (the failure detector, which reads every PE's
// control line — PE 0 is the detector/coordinator and is never killed),
// and a revival callback that runs on a dead PE's kernel thread after
// revive_pe(), BEFORE the backlog that queued up during death is drained
// (so the ft layer can wipe the PE's stale application state first). Hooks
// must be installed before Machine::run and removed after it returns; the
// machine captures them once at boot, so the FT-off hot path costs one
// plain-bool test per loop.
struct FtMachineHooks {
  /// Called every iteration of PE 0's scheduler loop (PE 0 context). It
  /// may ready threads but must not send messages: on an idle PE 0 it runs
  /// without counting as leaving idle.
  std::function<void()> pe0_tick;
  /// Called on PE `pe`'s kernel thread right after revival, before any
  /// queued message dispatches.
  std::function<void(int pe)> on_revive;
  /// How long an idle PE 0 parks between ticks (the ft layer passes its
  /// detector period). Deaths and respawn completions wake it earlier.
  std::uint64_t tick_period_us = 200;
};
void set_ft_machine_hooks(FtMachineHooks hooks);
void clear_ft_machine_hooks();

/// Marks PE `pe` failed: its loop stops dispatching messages and running
/// threads (they stay queued/parked — this emulation models the *machine's*
/// recovery protocol, not OS-level process death; see DESIGN.md "Fault
/// tolerance"), and its control line stands still until the detector
/// notices. Requires FT hooks installed, a single-process machine (across
/// processes the failure unit is a process: kill_proc) and pe != 0.
/// Callable from any PE thread, including the victim itself.
void kill_pe(int pe);

/// Clears the dead flag and schedules the on_revive hook; the PE's loop
/// resumes, wipes via the hook, then drains its backlog. A non-local `pe`
/// (a respawned process's) is reached via a machine-level control frame
/// (kFtCtl); the thread that delivers it in the PE's process flips the
/// flags.
void revive_pe(int pe);

/// Local-process view only: a remote PE's death flag is not observable
/// here.
bool pe_dead(int pe);

// ---- Process-tier fault tolerance (armed when FT hooks are installed on
// a multi-process machine) ----
//
// Detection: process 0's comm thread reaps dead children (waitpid) and
// parks the observation in a mailbox the FT tick drains via
// take_dead_proc(). Recovery: request_respawn(proc) asks the zygote for a
// fresh incarnation; the zygote forks the replacement from the pristine
// pre-fork image (seeded exponential backoff) and reports completion —
// observable via take_respawn_complete(). The shm rings are crash-
// consistent, so the replacement inherits them as they are and no
// survivor rewires anything. The respawned incarnation boots with all its
// PEs dead; the FT layer revives and refills them through the ordinary
// two-phase rollback.

/// 0 in an original process; the respawn generation (1, 2, …) in a
/// respawned incarnation. Application entry functions branch on this to
/// park reborn mains until recovery completes.
int respawn_generation();

/// True when whole-process kill + respawn is armed (FT hooks + nprocs > 1).
bool ft_proc_respawn_enabled();

/// Drains the dead-process mailbox: returns a process id whose death was
/// detected (comm-thread waitpid or zygote report), -1 if none. PE 0's FT
/// tick polls this.
int take_dead_proc();

/// Asks the zygote to respawn dead process `proc` (PE 0's thread).
void request_respawn(int proc);

/// True once `proc`'s respawn completed (the replacement is forked);
/// consumes the completion event. The event wakes PE 0, so a
/// check from its scheduler loop (the FT tick) sees it without polling.
bool take_respawn_complete(int proc);

/// SIGKILLs process `proc` (whole-process chaos, and the detector's
/// escalation of a wedged process; process 0 only, proc != 0). The process
/// is dead for the wire from the signal on. Original children die by
/// direct signal; respawned incarnations are killed through the zygote,
/// which holds their pids.
void kill_proc(int proc);

/// Quiescence drain mode, bracketing recovery's settle wait: messages died
/// with the killed process, so send/deliver balance is unreachable. In
/// drain mode a verdict instead requires every PE idle and asleep, the
/// wire empty, and counts unchanged across the two sweeps — and records
/// the settled deficit as the baseline later exact verdicts compare
/// against (converse/quiescence.h). PE 0 only.
void begin_qd_drain();
void end_qd_drain();

/// Re-asserts an isomalloc slot lease in the slot's birth process (local
/// call or cross-process message). Recovery replays restored threads' slot
/// ids through this so a respawned process's fresh bitmap copy re-learns
/// the allocations it must not hand out again.
void iso_claim(const iso::SlotId& id);

}  // namespace mfc::converse
