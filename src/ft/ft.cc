#include "ft/ft.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <utility>

#include "converse/machine.h"
#include "converse/quiescence.h"
#include "trace/flight.h"
#include "trace/metrics.h"
#include "trace/trace.h"
#include "ult/scheduler.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/log.h"

namespace mfc::ft {
namespace {

using Clock = std::chrono::steady_clock;

/// One PE's slot in the double in-memory checkpoint store. Touched only by
/// the owning PE's kernel thread (capture/store/refill handlers and the
/// revival wipe all run there), so no lock is needed.
///
/// The committed pair (own/buddy) only ever changes at a commit broadcast
/// or a recovery refill; captures and incoming stores land in the pending/
/// stage slots first. A kill at any instant therefore leaves every
/// surviving PE with an intact last-committed epoch to roll back to.
struct PeStore {
  std::uint64_t own_epoch = 0;     ///< epoch of `own` (0 = empty)
  std::vector<char> own;           ///< this PE's blob (local copy, committed)
  std::int32_t buddy_src = -1;     ///< whose blob `buddy` is
  std::uint64_t buddy_epoch = 0;
  std::vector<char> buddy;         ///< the predecessor's blob (committed)

  // Staged (uncommitted) captures and stores.
  std::uint64_t pending_epoch = 0;  ///< epoch of `pending` (0 = none)
  std::vector<char> pending;        ///< this PE's capture awaiting commit
  std::int32_t stage_src = -1;
  std::uint64_t stage_epoch = 0;
  std::vector<char> stage;          ///< the predecessor's blob, staged
};

struct FtState {
  int npes = 0;
  Hooks hooks;
  std::uint64_t period_us = 0;  ///< detector period: timeout / 8
  std::vector<PeStore> store;

  // ---- PE0-only protocol state (detector tick, checkpoint driver, and
  // recovery coordinator all run on PE0's kernel thread) ----
  std::uint64_t epoch = 0;          ///< last committed checkpoint epoch
  std::uint64_t pending_epoch = 0;  ///< epoch currently being checkpointed
  int capture_acks = 0;             ///< outstanding capture acks (npes)
  int store_acks = 0;               ///< outstanding buddy-store acks (npes)
  std::uint64_t ckpt_bytes = 0;     ///< local-copy bytes this epoch
  ult::Thread* ckpt_waiter = nullptr;

  bool clock_init = false;
  /// Detector bookkeeping, one entry per PE: the progress count of the
  /// last line reading, and since when it has stood still with work (a PE
  /// without work keeps this at the reading time).
  Clock::time_point last_sample;
  std::vector<std::uint64_t> seen_progress;
  std::vector<Clock::time_point> still_since;
  /// Per PE: the current suspicion was already recorded (multi-process).
  std::vector<char> suspect_noted;
  bool recovering = false;
  int victim = -1;
  int rec_acks = 0;
  ult::Thread* rec_waiter = nullptr;

  // ---- Process tier (populated at the first tick, when the machine's
  // process geometry is known) ----
  int nprocs = 1;
  int ppn = 0;             ///< PEs per process
  int victim_proc = -1;    ///< process-tier recovery in flight
  /// The process-tier recovery ULT, suspended until the zygote reports the
  /// respawn complete (the tick readies it).
  ult::Thread* respawn_waiter = nullptr;
  std::vector<char> escalated;  ///< per-proc: wedge already escalated to kill

  std::atomic<std::uint64_t> kills{0};
  std::atomic<std::uint64_t> detections{0};
  std::atomic<std::uint64_t> recoveries{0};
};

FtState* g_state = nullptr;

converse::HandlerId h_capture, h_store, h_ckpt_ack, h_commit, h_refill_own,
    h_refill_buddy, h_take_own, h_take_buddy, h_discard, h_restore,
    h_rec_ack;

// ---- Wire messages ----------------------------------------------------------

struct BlobMsg {
  std::int32_t src = -1;
  std::uint64_t epoch = 0;
  std::vector<char> blob;
  void pup(pup::Er& p) { p | src | epoch | blob; }
};

/// A buddy store: `src`'s whole blob for `epoch`. The receiver checks the
/// length and the CRC-32C before staging it.
struct StoreMsg {
  std::int32_t src = -1;
  std::uint64_t epoch = 0;
  std::uint64_t full_len = 0;     ///< blob length
  std::uint32_t full_crc = 0;     ///< CRC-32C of the blob
  std::vector<char> blob;
  void pup(pup::Er& p) { p | src | epoch | full_len | full_crc | blob; }
};

struct AckMsg {
  std::uint64_t epoch = 0;
  std::uint8_t phase = 0;  ///< 0 = capture ack, 1 = buddy-store ack
  std::uint64_t bytes = 0;
  void pup(pup::Er& p) { p | epoch | phase | bytes; }
};

/// Buddy stride: PEs-per-process under a multi-process machine, 1 single-
/// process. Read from the machine each call (install() runs before
/// Machine::run, when the geometry is not yet known).
int buddy_stride() {
  const int np = converse::num_procs();
  return np > 1 ? g_state->npes / np : 1;
}

/// The PE whose buddy copy `pe` holds: the inverse of buddy_of.
int pred_of(int pe) {
  const int npes = g_state->npes;
  return (pe - buddy_stride() + npes) % npes;
}

// ---- Checkpoint -------------------------------------------------------------

/// Ships `blob` to `pe` as a StoreMsg without copying it into the pup
/// buffer: the fixed fields pack into a small prefix whose trailing
/// vector-length word is patched to the real blob size, and the blob bytes
/// ride as a second scatter span borrowed from the caller — on a wire
/// transport they go straight to the ring copy loop or writev. The
/// receiver's plain pup unpack sees the identical byte stream either way.
void ft_send_store(int pe, std::int32_t src, std::uint64_t epoch,
                   const std::vector<char>& blob) {
  metrics::bump(metrics::Counter::kFtShipBytes, blob.size());
  StoreMsg head;
  head.src = src;
  head.epoch = epoch;
  head.full_len = blob.size();
  head.full_crc = crc32(blob.data(), blob.size());
  std::vector<char> prefix = pup::to_bytes_onepass(head, 64);
  const std::size_t blob_len = blob.size();
  std::memcpy(prefix.data() + prefix.size() - sizeof blob_len, &blob_len,
              sizeof blob_len);
  const converse::SendSpan spans[2] = {{prefix.data(), prefix.size()},
                                       {blob.data(), blob_len}};
  converse::send_spans(pe, h_store, spans, blob_len != 0 ? 2 : 1);
}

void handle_capture(converse::Message&& m) {
  FtState* s = g_state;
  const auto epoch = m.as<std::uint64_t>();
  const int me = converse::my_pe();
  PeStore& st = s->store[static_cast<std::size_t>(me)];
  st.pending = s->hooks.capture(epoch);
  st.pending_epoch = epoch;
  ft_send_store(buddy_of(me), me, epoch, st.pending);
  converse::send_value(0, h_ckpt_ack, AckMsg{epoch, 0, st.pending.size()});
}

/// Stages the predecessor's blob (does NOT touch the committed buddy slot —
/// that happens at commit).
void handle_store(converse::Message&& m) {
  FtState* s = g_state;
  auto sm = m.as<StoreMsg>();
  PeStore& st = s->store[static_cast<std::size_t>(converse::my_pe())];
  MFC_CHECK(sm.blob.size() == sm.full_len);
  MFC_CHECK_MSG(crc32(sm.blob.data(), sm.blob.size()) == sm.full_crc,
                "ft: staged checkpoint failed CRC verification");
  st.stage = std::move(sm.blob);
  st.stage_src = sm.src;
  st.stage_epoch = sm.epoch;
  converse::send_value(0, h_ckpt_ack, AckMsg{sm.epoch, 1, 0});
}

void handle_commit(converse::Message&& m) {
  FtState* s = g_state;
  const auto epoch = m.as<std::uint64_t>();
  PeStore& st = s->store[static_cast<std::size_t>(converse::my_pe())];
  if (st.pending_epoch == epoch) {
    st.own_epoch = epoch;
    st.own = std::move(st.pending);
    st.pending.clear();
    st.pending_epoch = 0;
  }
  if (st.stage_epoch == epoch) {
    st.buddy_src = st.stage_src;
    st.buddy_epoch = epoch;
    st.buddy = std::move(st.stage);
    st.stage.clear();
    st.stage_epoch = 0;
    st.stage_src = -1;
  }
}

/// PE0: all 2·npes acks are in — promote the epoch everywhere. Per-sender
/// FIFO guarantees each PE sees the commit before any later protocol
/// message from PE 0 (next capture, recovery refill, restore, ...).
void commit_epoch() {
  FtState* s = g_state;
  const std::uint64_t e = s->pending_epoch;
  for (int pe = 0; pe < s->npes; ++pe) converse::send_value(pe, h_commit, e);
  s->epoch = e;
  s->pending_epoch = 0;
  metrics::bump(metrics::Counter::kFtCheckpoints);
  metrics::bump(metrics::Counter::kFtCheckpointBytes, s->ckpt_bytes);
  trace::emit_flight(trace::Ev::kFtCheckpointEnd, e, 0,
                     static_cast<std::uint32_t>(s->ckpt_bytes > 0xffffffffu
                                                    ? 0xffffffffu
                                                    : s->ckpt_bytes));
}

/// PE0: counts capture and store acks; wakes checkpoint_now once the full
/// 2·npes barrier drains.
void handle_ckpt_ack(converse::Message&& m) {
  FtState* s = g_state;
  const auto am = m.as<AckMsg>();
  MFC_CHECK_MSG(am.epoch == s->pending_epoch,
                "ft: checkpoint ack for an epoch that is not in flight");
  if (am.phase == 0) {
    s->ckpt_bytes += am.bytes;
    --s->capture_acks;
  } else {
    --s->store_acks;
  }
  if (s->capture_acks == 0 && s->store_acks == 0 &&
      s->ckpt_waiter != nullptr) {
    ult::Thread* t = s->ckpt_waiter;
    s->ckpt_waiter = nullptr;
    converse::ready_thread(t);
  }
}

// ---- Detector ---------------------------------------------------------------

void recovery_main();
void proc_recovery_main();

/// Forgets every PE's stand-still time: at install, and after a recovery,
/// whose rollback would otherwise accuse a healthy PE at once.
void reset_detector(Clock::time_point now) {
  FtState* s = g_state;
  s->seen_progress.assign(static_cast<std::size_t>(s->npes), ~0ull);
  s->still_since.assign(static_cast<std::size_t>(s->npes), now);
  s->suspect_noted.assign(static_cast<std::size_t>(s->npes), 0);
}

/// PE0 scheduler-loop tick: two failure tiers, process before PE.
///
/// Process tier: proc 0's comm thread reaps dead children (and the zygote
/// reports grandchild deaths); the reap lands in the machine's dead-proc
/// mailbox, consumed here. On a multi-process machine the failure unit is
/// a process: a *wedged* process — alive, but every one of its PEs suspect
/// at once — is escalated to a SIGKILL so the same reap path fires
/// (per-proc `escalated` keeps that single-shot); a suspect PE in a live
/// process is only recorded.
///
/// PE tier (single-process machines): once per detector period the tick
/// reads every PE's control line (converse/quiescence.h). A PE whose
/// progress stood still for a whole timeout while it had work is suspect
/// and is recovered. Deliberately ignorant of the machine's dead flags —
/// recovery is *detector*-triggered: a killed PE stops its loop while its
/// line stays busy, and that is all the detector sees.
void tick() {
  FtState* s = g_state;
  const auto now = Clock::now();
  if (!s->clock_init) {
    s->clock_init = true;
    s->last_sample = now;
    reset_detector(now);
    s->nprocs = converse::num_procs();
    s->ppn = s->npes / (s->nprocs > 0 ? s->nprocs : 1);
    s->escalated.assign(static_cast<std::size_t>(s->nprocs), 0);
    return;
  }
  // The machine wakes PE 0 when a respawn completes, so this runs at once.
  if (s->respawn_waiter != nullptr &&
      converse::take_respawn_complete(s->victim_proc)) {
    ult::Thread* t = s->respawn_waiter;
    s->respawn_waiter = nullptr;
    converse::ready_thread(t);
  }
  if (s->recovering) return;
  const bool proc_tier = s->nprocs > 1 && converse::ft_proc_respawn_enabled();
  if (proc_tier) {
    const int dp = converse::take_dead_proc();
    if (dp > 0) {
      s->recovering = true;
      s->victim_proc = dp;
      s->detections.fetch_add(1, std::memory_order_relaxed);
      metrics::bump(metrics::Counter::kFtDetections);
      trace::emit_flight(trace::Ev::kFtDetect, 1,
                         static_cast<std::uint32_t>(dp), 0,
                         static_cast<std::int16_t>(dp * s->ppn));
      trace::flight::dump("ft-proc-down");
      if (s->hooks.on_detect) {
        for (int v = dp * s->ppn; v < (dp + 1) * s->ppn; ++v) {
          s->hooks.on_detect(v);
        }
      }
      ult::spawn([] { proc_recovery_main(); });
      return;  // single-failure model: one recovery at a time
    }
  }
  if (now - s->last_sample < std::chrono::microseconds(s->period_us)) return;
  s->last_sample = now;
  for (int pe = 1; pe < s->npes; ++pe) {
    const converse::qd::Liveness lv = converse::qd::liveness(pe);
    const auto i = static_cast<std::size_t>(pe);
    if (lv.progress != s->seen_progress[i] || !lv.had_work) {
      s->seen_progress[i] = lv.progress;
      s->still_since[i] = now;
      s->suspect_noted[i] = 0;
    }
  }
  const auto deadline = std::chrono::microseconds(s->hooks.timeout_us);
  const auto suspect = [&](int pe) {
    return now - s->still_since[static_cast<std::size_t>(pe)] > deadline;
  };
  for (int pe = 1; pe < s->npes; ++pe) {
    if (!suspect(pe)) continue;
    if (proc_tier) {
      const int proc = pe / s->ppn;
      bool whole_proc = proc != 0;
      for (int q = proc * s->ppn; whole_proc && q < (proc + 1) * s->ppn; ++q) {
        whole_proc = suspect(q);
      }
      if (whole_proc) {
        // Wedged-but-alive process: every PE suspect at once. Escalate to
        // a whole-process kill; the zygote's reap report then drives
        // process-tier recovery above.
        if (!s->escalated[static_cast<std::size_t>(proc)]) {
          s->escalated[static_cast<std::size_t>(proc)] = 1;
          metrics::bump(metrics::Counter::kFtDetections);
          trace::emit_flight(trace::Ev::kFtDetect, 2,
                             static_cast<std::uint32_t>(proc), 0,
                             static_cast<std::int16_t>(pe));
          converse::kill_proc(proc);
        }
      } else if (!s->suspect_noted[static_cast<std::size_t>(pe)]) {
        // A suspect PE in a live process is load, not a failure: record
        // it once per stand-still, count nothing, roll nothing back.
        s->suspect_noted[static_cast<std::size_t>(pe)] = 1;
        trace::emit_flight(trace::Ev::kFtDetect, 3,
                           static_cast<std::uint32_t>(proc), 0,
                           static_cast<std::int16_t>(pe));
      }
      continue;
    }
    s->recovering = true;
    s->victim = pe;
    s->detections.fetch_add(1, std::memory_order_relaxed);
    metrics::bump(metrics::Counter::kFtDetections);
    trace::emit_flight(trace::Ev::kFtDetect, 0, 0, 0,
                       static_cast<std::int16_t>(pe));
    trace::flight::dump("ft-detect");
    if (s->hooks.on_detect) s->hooks.on_detect(pe);
    ult::spawn([] { recovery_main(); });
    break;  // single-failure model: one recovery at a time
  }
}

// ---- Recovery ---------------------------------------------------------------

void handle_refill_own(converse::Message&& m) {
  FtState* s = g_state;
  const auto victim = m.as<std::int32_t>();
  // This PE is the victim's buddy: the copy it holds IS the victim's blob.
  const PeStore& st = s->store[static_cast<std::size_t>(converse::my_pe())];
  MFC_CHECK_MSG(st.buddy_src == victim && !st.buddy.empty(),
                "ft: buddy store does not hold the victim's checkpoint");
  converse::send_value(victim, h_take_own, BlobMsg{victim, st.buddy_epoch, st.buddy});
}

void handle_refill_buddy(converse::Message&& m) {
  FtState* s = g_state;
  const auto victim = m.as<std::int32_t>();
  // This PE is the victim's predecessor: re-send its own blob so the victim
  // again holds the buddy copy it lost.
  const int me = converse::my_pe();
  const PeStore& st = s->store[static_cast<std::size_t>(me)];
  MFC_CHECK_MSG(st.own_epoch != 0, "ft: predecessor has no checkpoint");
  converse::send_value(victim, h_take_buddy, BlobMsg{me, st.own_epoch, st.own});
}

void handle_take_own(converse::Message&& m) {
  FtState* s = g_state;
  auto bm = m.as<BlobMsg>();
  PeStore& st = s->store[static_cast<std::size_t>(converse::my_pe())];
  st.own_epoch = bm.epoch;
  st.own = std::move(bm.blob);
  converse::send_value(0, h_rec_ack, AckMsg{});
}

void handle_take_buddy(converse::Message&& m) {
  FtState* s = g_state;
  auto bm = m.as<BlobMsg>();
  PeStore& st = s->store[static_cast<std::size_t>(converse::my_pe())];
  st.buddy_src = bm.src;
  st.buddy_epoch = bm.epoch;
  st.buddy = std::move(bm.blob);
  converse::send_value(0, h_rec_ack, AckMsg{});
}

void handle_discard(converse::Message&&) {
  FtState* s = g_state;
  if (s->hooks.discard) s->hooks.discard();
  converse::send_value(0, h_rec_ack, AckMsg{});
}

void handle_restore(converse::Message&& m) {
  FtState* s = g_state;
  const auto epoch = m.as<std::uint64_t>();
  const PeStore& st = s->store[static_cast<std::size_t>(converse::my_pe())];
  MFC_CHECK_MSG(st.own_epoch == epoch,
                "ft: restore epoch does not match this PE's checkpoint");
  s->hooks.restore(epoch, st.own);
  converse::send_value(0, h_rec_ack, AckMsg{});
}

void handle_rec_ack(converse::Message&&) {
  FtState* s = g_state;
  if (--s->rec_acks == 0 && s->rec_waiter != nullptr) {
    ult::Thread* t = s->rec_waiter;
    s->rec_waiter = nullptr;
    converse::ready_thread(t);
  }
}

/// Waits (in the recovery ULT) for `n` h_rec_ack messages.
void rec_wait(int n) {
  FtState* s = g_state;
  s->rec_acks = n;
  s->rec_waiter = converse::pe_scheduler().running();
  ult::suspend();
}

/// Recovery coordinator: runs as a ULT on PE0, spawned by the detector.
void recovery_main() {
  FtState* s = g_state;
  const int v = s->victim;
  const int npes = s->npes;
  trace::emit_flight(trace::Ev::kFtRecoveryBegin, 0, 0, 0,
                     static_cast<std::int16_t>(v));
  s->recoveries.fetch_add(1, std::memory_order_relaxed);
  metrics::bump(metrics::Counter::kFtRecoveries);

  // Revive: the machine clears the dead flag; the on_revive hook wipes the
  // victim's application state and checkpoint store (emulated memory loss)
  // on its own thread before the death backlog drains.
  converse::revive_pe(v);

  // Let the backlog (and anything the survivors still had in flight toward
  // the victim) drain to a consistent wedged state. Thread images shipped
  // into the dead window unpack and park here; the rollback below discards
  // them along with everything else.
  converse::wait_quiescence();

  // Refill the victim's checkpoint store from the two surviving copies.
  converse::send_value(buddy_of(v), h_refill_own, std::int32_t{v});
  converse::send_value(pred_of(v), h_refill_buddy, std::int32_t{v});
  rec_wait(2);

  // Rollback phase A: every PE discards its live application state. The
  // barrier before phase B guarantees no PE restores a checkpoint image
  // while another PE's live copy still occupies the same isomalloc slots.
  for (int pe = 0; pe < npes; ++pe) converse::send_value(pe, h_discard, AckMsg{});
  rec_wait(npes);

  // Rollback phase B: every PE rebuilds from its local blob.
  for (int pe = 0; pe < npes; ++pe) converse::send_value(pe, h_restore, s->epoch);
  rec_wait(npes);

  if (s->hooks.on_recovered) s->hooks.on_recovered(s->epoch);

  // Re-arm the detector only now: stand-still times measured across the
  // rollback would instantly re-accuse a healthy PE.
  reset_detector(Clock::now());
  s->victim = -1;
  s->recovering = false;
  trace::emit_flight(trace::Ev::kFtRecoveryEnd, s->epoch);
}

/// Process-tier recovery coordinator: runs as a ULT on PE 0, spawned by the
/// detector when a whole process is reaped. The shape mirrors recovery_main
/// with three differences: the corpse is respawned (not just revived), the
/// quiescence wave runs in drain mode (messages the dead incarnation held
/// are gone forever, so the exact send==delivered ledger is rebased instead
/// of awaited), and all ppn lost PEs refill at once — legal because the
/// process-disjoint buddy stride puts every victim's blob in process p+1
/// and every buddy copy it held in process p-1, both survivors.
void proc_recovery_main() {
  FtState* s = g_state;
  const int p = s->victim_proc;
  const int npes = s->npes;
  const int ppn = s->ppn;
  const int lo = p * ppn;
  trace::emit_flight(trace::Ev::kFtRecoveryBegin, static_cast<std::uint64_t>(p),
                     1, 0, static_cast<std::int16_t>(lo));
  s->recoveries.fetch_add(1, std::memory_order_relaxed);
  metrics::bump(metrics::Counter::kFtRecoveries);

  // Respawn: the zygote forks a fresh incarnation of process p from its
  // pristine pre-fork image and swaps fresh wire streams into every
  // survivor. Wait suspended, not polling: PE 0 keeps serving handlers
  // (app traffic) or parks, and the tick readies this thread once
  // the completion event lands.
  converse::request_respawn(p);
  s->respawn_waiter = converse::pe_scheduler().running();
  ult::suspend();

  // The respawned incarnation boots with all its PEs dead. Revive them:
  // each revive rides the fresh ordered stream, so the machine's wipe runs
  // on the new incarnation before any refill below can land there.
  for (int v = lo; v < lo + ppn; ++v) converse::revive_pe(v);

  // Drain-mode quiescence: messages the dead incarnation had sent or
  // absorbed are lost, so exact send==delivered can never balance again.
  // The drain wave instead waits for transport-idle plus stable counters
  // and rebases the ledger's compensation term for future exact waves.
  converse::begin_qd_drain();
  converse::wait_quiescence();
  converse::end_qd_drain();

  // Refill every lost PE's store: its own blob from its buddy (process
  // p+1) and the buddy copy it held for its predecessor (process p-1).
  for (int v = lo; v < lo + ppn; ++v) {
    converse::send_value(buddy_of(v), h_refill_own, std::int32_t{v});
    converse::send_value(pred_of(v), h_refill_buddy, std::int32_t{v});
  }
  rec_wait(2 * ppn);

  // Rollback phases A and B, exactly as in the PE tier.
  for (int pe = 0; pe < npes; ++pe) converse::send_value(pe, h_discard, AckMsg{});
  rec_wait(npes);
  for (int pe = 0; pe < npes; ++pe) converse::send_value(pe, h_restore, s->epoch);
  rec_wait(npes);

  if (s->hooks.on_recovered) s->hooks.on_recovered(s->epoch);

  reset_detector(Clock::now());
  s->escalated[static_cast<std::size_t>(p)] = 0;
  s->victim_proc = -1;
  s->recovering = false;
  trace::emit_flight(trace::Ev::kFtRecoveryEnd, s->epoch);
}

// ---- Machine hooks ----------------------------------------------------------

void on_revive(int pe) {
  FtState* s = g_state;
  PeStore& st = s->store[static_cast<std::size_t>(pe)];
  st = PeStore{};  // the failure lost both blobs (and any staging) it held
  if (s->hooks.wipe) s->hooks.wipe(pe);
}

void register_ft_handlers() {
  static std::once_flag once;
  std::call_once(once, [] {
    h_capture = converse::register_handler(handle_capture);
    h_store = converse::register_handler(handle_store);
    h_ckpt_ack = converse::register_handler(handle_ckpt_ack);
    h_commit = converse::register_handler(handle_commit);
    h_refill_own = converse::register_handler(handle_refill_own);
    h_refill_buddy = converse::register_handler(handle_refill_buddy);
    h_take_own = converse::register_handler(handle_take_own);
    h_take_buddy = converse::register_handler(handle_take_buddy);
    h_discard = converse::register_handler(handle_discard);
    h_restore = converse::register_handler(handle_restore);
    h_rec_ack = converse::register_handler(handle_rec_ack);
  });
}

/// Reads a millisecond-valued detector override from the environment.
/// Returns `fallback_us` when the variable is unset; otherwise the value in
/// microseconds. Rejects garbage and out-of-range settings outright — a
/// silently-misparsed timeout would turn into false-positive rollbacks.
std::uint64_t detector_env_us(const char* name, std::uint64_t fallback_us) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback_us;
  char* end = nullptr;
  errno = 0;
  const unsigned long long ms = std::strtoull(v, &end, 10);
  MFC_CHECK_MSG(errno == 0 && end != v && *end == '\0',
                "ft: detector override is not a plain integer (milliseconds)");
  MFC_CHECK_MSG(ms >= 1 && ms <= 600000,
                "ft: detector override out of range [1, 600000] ms");
  return ms * 1000;
}

}  // namespace

void install(int npes, Hooks hooks) {
  MFC_CHECK_MSG(g_state == nullptr, "ft::install called twice");
  MFC_CHECK_MSG(npes >= 2, "buddy checkpointing needs at least 2 PEs");
  MFC_CHECK(hooks.capture && hooks.restore);
  register_ft_handlers();
  hooks.timeout_us = detector_env_us("MFC_FT_TIMEOUT_MS", hooks.timeout_us);
  g_state = new FtState;
  g_state->npes = npes;
  // The detector reads the lines eight times per timeout, so a PE that
  // stands still is found within 9/8 of it.
  g_state->period_us = std::max<std::uint64_t>(hooks.timeout_us / 8, 1);
  MFC_LOG_INFO("ft: detector timeout %llu us, period %llu us",
               static_cast<unsigned long long>(hooks.timeout_us),
               static_cast<unsigned long long>(g_state->period_us));
  g_state->hooks = std::move(hooks);
  g_state->store.resize(static_cast<std::size_t>(npes));
  converse::FtMachineHooks mh;
  mh.pe0_tick = [] { tick(); };
  mh.on_revive = [](int pe) { on_revive(pe); };
  mh.tick_period_us = g_state->period_us;
  converse::set_ft_machine_hooks(std::move(mh));
}

void uninstall() {
  MFC_CHECK_MSG(g_state != nullptr, "ft::uninstall without install");
  converse::clear_ft_machine_hooks();
  delete g_state;
  g_state = nullptr;
}

bool active() { return g_state != nullptr; }

std::uint64_t checkpoint_now() {
  FtState* s = g_state;
  MFC_CHECK_MSG(s != nullptr, "ft: checkpoint_now without install");
  MFC_CHECK_MSG(converse::my_pe() == 0 &&
                    converse::pe_scheduler().in_thread(),
                "ft: checkpoint_now must run in a ULT on PE 0");
  MFC_CHECK_MSG(!s->recovering, "ft: checkpoint during recovery");
  converse::wait_quiescence();
  trace::emit_flight(trace::Ev::kFtCheckpointBegin, s->epoch + 1);
  const std::uint64_t e = s->epoch + 1;
  s->pending_epoch = e;
  s->capture_acks = s->npes;
  s->store_acks = s->npes;
  s->ckpt_bytes = 0;
  s->ckpt_waiter = converse::pe_scheduler().running();
  for (int pe = 0; pe < s->npes; ++pe) converse::send_value(pe, h_capture, e);
  ult::suspend();
  // All 2·npes acks are in: commit, still inside the exclusive window.
  commit_epoch();
  return e;
}

void kill_pe(int pe) {
  FtState* s = g_state;
  MFC_CHECK_MSG(s != nullptr, "ft: kill_pe without install");
  s->kills.fetch_add(1, std::memory_order_relaxed);
  metrics::bump(metrics::Counter::kFtKills);
  trace::emit_flight(trace::Ev::kFtKill, 0, 0, 0, static_cast<std::int16_t>(pe));
  // Failure trigger: freeze and dump the flight recorder (first kill wins;
  // the dump covers the run's recent history even with MFC_TRACE off).
  trace::flight::dump("ft-kill");
  converse::kill_pe(pe);
}

int buddy_of(int pe) {
  MFC_CHECK(g_state != nullptr);
  // Process-disjoint placement: a stride of PEs-per-process lands every
  // buddy in the next process over, so losing one whole process never
  // destroys both copies of any blob. Single-process keeps the classic
  // ring neighbor.
  return (pe + buddy_stride()) % g_state->npes;
}

std::uint64_t epochs() { return g_state != nullptr ? g_state->epoch : 0; }
std::uint64_t kills() {
  return g_state != nullptr ? g_state->kills.load() : 0;
}
std::uint64_t detections() {
  return g_state != nullptr ? g_state->detections.load() : 0;
}
std::uint64_t recoveries() {
  return g_state != nullptr ? g_state->recoveries.load() : 0;
}

}  // namespace mfc::ft
