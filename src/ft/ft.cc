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

/// Granularity of the incremental diff. A fixed 4 KiB keeps the delta wire
/// format independent of the host page size (blobs are plain byte vectors,
/// not mapped memory, so there is nothing to align with anyway).
constexpr std::size_t kDeltaPage = 4096;

/// Async stream chunk size: big enough to amortize per-message overhead,
/// small enough that the buddy's handler never stalls its PE loop.
constexpr std::size_t kChunkBytes = 64 * 1024;

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
  std::vector<char> stage;          ///< reconstructed buddy blob, staged

  // Attempt stamp: set at capture, carried by async chunks. A chunk stamped
  // below the receiver's current one is a straggler from an attempt that
  // was aborted (an abort raises the stamp past the aborted attempt) and is
  // dropped. A chunk stamped above it is live: the sender captured first,
  // and its chunks can overtake PE 0's capture order to this receiver.
  std::uint64_t cur_attempt = 0;

  // Async outbound stream (serialized StoreMsg toward the buddy).
  std::vector<char> outbox;
  std::size_t out_off = 0;
  std::uint64_t out_epoch = 0;      ///< 0 = no stream in progress

  // Async inbound reassembly (serialized StoreMsg from the predecessor).
  std::vector<char> inbox;
  std::size_t inbox_got = 0;
  std::int32_t inbox_src = -1;
  std::uint64_t inbox_epoch = 0;
};

struct FtState {
  int npes = 0;
  Hooks hooks;
  std::vector<PeStore> store;

  // ---- PE0-only protocol state (detector tick, checkpoint driver, and
  // recovery coordinator all run on PE0's kernel thread) ----
  std::uint64_t epoch = 0;          ///< last committed checkpoint epoch
  std::uint64_t pending_epoch = 0;  ///< epoch currently being checkpointed
  CkptMode pending_mode = CkptMode::kFull;
  std::uint64_t ckpt_attempt = 0;   ///< bumped per checkpoint_now call
  int capture_acks = 0;             ///< outstanding capture acks (npes)
  int store_acks = 0;               ///< outstanding buddy-store acks (npes)
  std::uint64_t ckpt_bytes = 0;     ///< local-copy bytes this epoch
  bool async_inflight = false;      ///< kAsync epoch awaiting commit
  ult::Thread* ckpt_waiter = nullptr;
  ult::Thread* sync_waiter = nullptr;

  bool clock_init = false;
  Clock::time_point last_ping;
  std::vector<Clock::time_point> last_pong;
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

converse::HandlerId h_ping, h_pong, h_capture, h_store, h_ckpt_ack, h_commit,
    h_chunk, h_pump, h_ckpt_abort, h_refill_own, h_refill_buddy, h_take_own,
    h_take_buddy, h_discard, h_restore, h_rec_ack;

// ---- Wire messages ----------------------------------------------------------

struct BlobMsg {
  std::int32_t src = -1;
  std::uint64_t epoch = 0;
  std::vector<char> blob;
  void pup(pup::Er& p) { p | src | epoch | blob; }
};

struct CaptureMsg {
  std::uint64_t epoch = 0;
  std::uint8_t mode = 0;  ///< CkptMode
  std::uint64_t attempt = 0;
  void pup(pup::Er& p) { p | epoch | mode | attempt; }
};

struct AbortMsg {
  std::uint64_t epoch = 0;
  std::uint64_t attempt = 0;  ///< the aborted attempt
  void pup(pup::Er& p) { p | epoch | attempt; }
};

/// A buddy store: either the full blob (kind 0) or a page-granular delta
/// against the previous committed epoch (kind 1: `offs`/`lens` describe the
/// changed ranges, `blob` is their concatenated bytes). Either way the
/// receiver reconstructs the full blob and checks it against `full_crc`.
struct StoreMsg {
  std::int32_t src = -1;
  std::uint64_t epoch = 0;
  std::uint8_t kind = 0;          ///< 0 full, 1 delta
  std::uint64_t base_epoch = 0;   ///< delta: epoch the ranges patch
  std::uint64_t full_len = 0;     ///< reconstructed blob length
  std::uint32_t full_crc = 0;     ///< CRC-32C of the reconstructed blob
  std::vector<std::uint64_t> offs;
  std::vector<std::uint64_t> lens;
  std::vector<char> blob;
  void pup(pup::Er& p) {
    p | src | epoch | kind | base_epoch | full_len | full_crc | offs | lens |
        blob;
  }
};

struct AckMsg {
  std::uint64_t epoch = 0;
  std::uint8_t phase = 0;  ///< 0 = capture ack, 1 = buddy-store ack
  std::uint64_t bytes = 0;
  void pup(pup::Er& p) { p | epoch | phase | bytes; }
};

struct ChunkMsg {
  std::int32_t src = -1;
  std::uint64_t epoch = 0;
  std::uint64_t attempt = 0;
  std::uint64_t total = 0;  ///< serialized StoreMsg length
  std::uint64_t off = 0;
  std::vector<char> bytes;
  void pup(pup::Er& p) { p | src | epoch | attempt | total | off | bytes; }
};

/// Every FT protocol send goes through here so the send is counted in the
/// quiescence-exempt pair (handlers count the matching delivery first
/// thing); see app_sent()/app_delivered() in machine.cc.
template <typename T>
void ft_send(int pe, converse::HandlerId h, const T& value) {
  metrics::bump(metrics::Counter::kFtSent);
  converse::send_value(pe, h, value);
}

void count_delivery() { metrics::bump(metrics::Counter::kFtDelivered); }

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

/// Ships a StoreMsg without gathering the blob into the pup buffer: the
/// fixed fields and range tables pack into a small prefix whose trailing
/// vector-length word is patched to the real blob size, and the blob bytes
/// ride as a second scatter span — on a wire transport they go straight to
/// the ring copy loop or writev. The receiver's plain pup unpack sees the
/// identical byte stream either way.
void ft_send_store(int pe, const StoreMsg& sm) {
  metrics::bump(metrics::Counter::kFtSent);
  StoreMsg head;
  head.src = sm.src;
  head.epoch = sm.epoch;
  head.kind = sm.kind;
  head.base_epoch = sm.base_epoch;
  head.full_len = sm.full_len;
  head.full_crc = sm.full_crc;
  head.offs = sm.offs;
  head.lens = sm.lens;
  std::vector<char> prefix = pup::to_bytes_onepass(head, 256);
  const std::size_t blob_len = sm.blob.size();
  std::memcpy(prefix.data() + prefix.size() - sizeof blob_len, &blob_len,
              sizeof blob_len);
  const converse::SendSpan spans[2] = {{prefix.data(), prefix.size()},
                                       {sm.blob.data(), blob_len}};
  converse::send_spans(pe, h_store, spans, blob_len != 0 ? 2 : 1);
}

// ---- Checkpoint -------------------------------------------------------------

/// Builds the buddy store for this PE's fresh capture. `allow_delta` diffs
/// the capture against the previous committed local blob in kDeltaPage
/// blocks and ships only the changed ranges — valid iff the committed blob
/// is exactly one epoch old and the same length; otherwise (and whenever
/// the delta would not actually be smaller) it degrades to a full ship.
StoreMsg build_store(int me, std::uint64_t epoch, const std::vector<char>& blob,
                     const PeStore& st, bool allow_delta) {
  StoreMsg sm;
  sm.src = me;
  sm.epoch = epoch;
  sm.full_len = blob.size();
  sm.full_crc = crc32(blob.data(), blob.size());
  const bool have_base = allow_delta && st.own_epoch + 1 == epoch &&
                         st.own.size() == blob.size() && !blob.empty();
  if (have_base) {
    std::size_t off = 0;
    std::size_t delta_bytes = 0;
    while (off < blob.size()) {
      const std::size_t len = std::min(kDeltaPage, blob.size() - off);
      if (std::memcmp(blob.data() + off, st.own.data() + off, len) != 0) {
        if (!sm.offs.empty() && sm.offs.back() + sm.lens.back() == off) {
          sm.lens.back() += len;
        } else {
          sm.offs.push_back(off);
          sm.lens.push_back(len);
        }
        delta_bytes += len;
      }
      off += len;
    }
    // 16 bytes of range metadata per entry: a delta only wins if it beats
    // the full ship including that overhead.
    if (delta_bytes + 16 * sm.offs.size() < blob.size()) {
      sm.kind = 1;
      sm.base_epoch = epoch - 1;
      sm.blob.reserve(delta_bytes);
      for (std::size_t i = 0; i < sm.offs.size(); ++i) {
        const char* p = blob.data() + sm.offs[i];
        sm.blob.insert(sm.blob.end(), p, p + sm.lens[i]);
      }
      metrics::bump(metrics::Counter::kFtDeltaRanges, sm.offs.size());
      metrics::bump(metrics::Counter::kFtShipBytes, sm.blob.size());
      return sm;
    }
    sm.offs.clear();
    sm.lens.clear();
  }
  sm.kind = 0;
  sm.blob = blob;
  metrics::bump(metrics::Counter::kFtShipBytes, sm.blob.size());
  return sm;
}

/// Reconstructs the full blob a StoreMsg describes and stages it (does NOT
/// touch the committed buddy slot — that happens at commit). Delta stores
/// patch a copy of the committed buddy blob, so the base survives an abort.
void apply_store(StoreMsg&& sm) {
  FtState* s = g_state;
  PeStore& st = s->store[static_cast<std::size_t>(converse::my_pe())];
  if (sm.kind == 0) {
    MFC_CHECK(sm.blob.size() == sm.full_len);
    st.stage = std::move(sm.blob);
  } else {
    MFC_CHECK_MSG(st.buddy_src == sm.src && st.buddy_epoch == sm.base_epoch &&
                      st.buddy.size() == sm.full_len,
                  "ft: delta store without a matching committed base");
    st.stage = st.buddy;
    std::size_t pos = 0;
    for (std::size_t i = 0; i < sm.offs.size(); ++i) {
      MFC_CHECK(sm.offs[i] + sm.lens[i] <= st.stage.size());
      std::memcpy(st.stage.data() + sm.offs[i], sm.blob.data() + pos,
                  static_cast<std::size_t>(sm.lens[i]));
      pos += static_cast<std::size_t>(sm.lens[i]);
    }
    MFC_CHECK(pos == sm.blob.size());
  }
  MFC_CHECK_MSG(crc32(st.stage.data(), st.stage.size()) == sm.full_crc,
                "ft: staged checkpoint failed CRC verification");
  st.stage_src = sm.src;
  st.stage_epoch = sm.epoch;
}

void handle_capture(converse::Message&& m) {
  count_delivery();
  FtState* s = g_state;
  const auto cm = m.as<CaptureMsg>();
  const auto mode = static_cast<CkptMode>(cm.mode);
  const int me = converse::my_pe();
  PeStore& st = s->store[static_cast<std::size_t>(me)];
  std::vector<char> blob = s->hooks.capture(cm.epoch);
  const std::uint64_t bytes = blob.size();
  st.cur_attempt = cm.attempt;
  StoreMsg sm =
      build_store(me, cm.epoch, blob, st, mode != CkptMode::kFull);
  st.pending_epoch = cm.epoch;
  st.pending = std::move(blob);
  if (mode != CkptMode::kAsync) {
    ft_send_store(buddy_of(me), sm);
    ft_send(0, h_ckpt_ack, AckMsg{cm.epoch, 0, bytes});
  } else {
    // Capture is done — ack immediately so PE 0 can lift the exclusive
    // window; the buddy ship streams in chunks via self-posted pump
    // messages interleaved with application work.
    st.outbox = pup::to_bytes_onepass(sm, sm.blob.size() + 256);
    st.out_off = 0;
    st.out_epoch = cm.epoch;
    ft_send(0, h_ckpt_ack, AckMsg{cm.epoch, 0, bytes});
    ft_send(me, h_pump, cm.epoch);
  }
}

void handle_store(converse::Message&& m) {
  count_delivery();
  auto sm = m.as<StoreMsg>();
  const std::uint64_t epoch = sm.epoch;
  apply_store(std::move(sm));
  ft_send(0, h_ckpt_ack, AckMsg{epoch, 1, 0});
}

void handle_pump(converse::Message&& m) {
  count_delivery();
  FtState* s = g_state;
  const auto epoch = m.as<std::uint64_t>();
  const int me = converse::my_pe();
  PeStore& st = s->store[static_cast<std::size_t>(me)];
  if (st.out_epoch != epoch) return;  // stream aborted meanwhile
  const std::size_t total = st.outbox.size();
  const std::size_t n = std::min(kChunkBytes, total - st.out_off);
  ChunkMsg cm;
  cm.src = me;
  cm.epoch = epoch;
  cm.attempt = st.cur_attempt;
  cm.total = total;
  cm.off = st.out_off;
  cm.bytes.assign(st.outbox.begin() + static_cast<std::ptrdiff_t>(st.out_off),
                  st.outbox.begin() +
                      static_cast<std::ptrdiff_t>(st.out_off + n));
  ft_send(buddy_of(me), h_chunk, cm);
  metrics::bump(metrics::Counter::kFtAsyncChunks);
  st.out_off += n;
  if (st.out_off < total) {
    ft_send(me, h_pump, epoch);
  } else {
    st.outbox.clear();
    st.out_off = 0;
    st.out_epoch = 0;
  }
}

void handle_chunk(converse::Message&& m) {
  count_delivery();
  FtState* s = g_state;
  auto cm = m.as<ChunkMsg>();
  PeStore& st = s->store[static_cast<std::size_t>(converse::my_pe())];
  if (cm.attempt < st.cur_attempt) return;  // straggler, attempt aborted
  if (st.inbox_src != cm.src || st.inbox_epoch != cm.epoch) {
    st.inbox.assign(static_cast<std::size_t>(cm.total), 0);
    st.inbox_got = 0;
    st.inbox_src = cm.src;
    st.inbox_epoch = cm.epoch;
  }
  MFC_CHECK(cm.off + cm.bytes.size() <= st.inbox.size());
  std::memcpy(st.inbox.data() + cm.off, cm.bytes.data(), cm.bytes.size());
  st.inbox_got += cm.bytes.size();
  if (st.inbox_got < st.inbox.size()) return;
  StoreMsg sm;
  pup::from_bytes(st.inbox, sm);
  st.inbox.clear();
  st.inbox_got = 0;
  st.inbox_src = -1;
  st.inbox_epoch = 0;
  const std::uint64_t epoch = sm.epoch;
  apply_store(std::move(sm));
  ft_send(0, h_ckpt_ack, AckMsg{epoch, 1, 0});
}

void handle_commit(converse::Message&& m) {
  count_delivery();
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
  for (int pe = 0; pe < s->npes; ++pe) ft_send(pe, h_commit, e);
  s->epoch = e;
  s->pending_epoch = 0;
  s->async_inflight = false;
  metrics::bump(metrics::Counter::kFtCheckpoints);
  metrics::bump(metrics::Counter::kFtCheckpointBytes, s->ckpt_bytes);
  trace::emit_flight(trace::Ev::kFtCheckpointEnd, e, 0,
                     static_cast<std::uint32_t>(s->ckpt_bytes > 0xffffffffu
                                                    ? 0xffffffffu
                                                    : s->ckpt_bytes));
  if (s->sync_waiter != nullptr) {
    ult::Thread* t = s->sync_waiter;
    s->sync_waiter = nullptr;
    converse::ready_thread(t);
  }
}

void handle_ckpt_ack(converse::Message&& m) {
  count_delivery();
  FtState* s = g_state;
  const auto am = m.as<AckMsg>();
  if (am.epoch != s->pending_epoch) return;  // ack for an aborted epoch
  if (am.phase == 0) {
    s->ckpt_bytes += am.bytes;
    --s->capture_acks;
  } else {
    --s->store_acks;
  }
  if (s->pending_mode != CkptMode::kAsync) {
    // Synchronous modes: checkpoint_now owns the commit; wake it once the
    // full 2·npes barrier drains.
    if (s->capture_acks == 0 && s->store_acks == 0 &&
        s->ckpt_waiter != nullptr) {
      ult::Thread* t = s->ckpt_waiter;
      s->ckpt_waiter = nullptr;
      converse::ready_thread(t);
    }
    return;
  }
  // Async: the capture barrier releases checkpoint_now; the store barrier
  // completes later in handler context and commits right here.
  if (s->capture_acks == 0 && s->ckpt_waiter != nullptr) {
    ult::Thread* t = s->ckpt_waiter;
    s->ckpt_waiter = nullptr;
    converse::ready_thread(t);
  }
  if (s->capture_acks == 0 && s->store_acks == 0) commit_epoch();
}

void handle_ckpt_abort(converse::Message&& m) {
  count_delivery();
  FtState* s = g_state;
  const auto am = m.as<AbortMsg>();
  const std::uint64_t epoch = am.epoch;
  PeStore& st = s->store[static_cast<std::size_t>(converse::my_pe())];
  st.pending_epoch = 0;
  st.pending.clear();
  if (st.stage_epoch == epoch) {
    st.stage.clear();
    st.stage_epoch = 0;
    st.stage_src = -1;
  }
  st.out_epoch = 0;
  st.out_off = 0;
  st.outbox.clear();
  st.inbox.clear();
  st.inbox_got = 0;
  st.inbox_src = -1;
  st.inbox_epoch = 0;
  // Straggler chunks of the aborted attempt now fall below the stamp; the
  // replayed epoch gets a fresh, higher stamp at its capture.
  st.cur_attempt = am.attempt + 1;
  ft_send(0, h_rec_ack, AckMsg{});
}

// ---- Detector ---------------------------------------------------------------

void handle_ping(converse::Message&&) {
  count_delivery();
  ft_send(0, h_pong, std::int32_t{converse::my_pe()});
}

void handle_pong(converse::Message&& m) {
  count_delivery();
  FtState* s = g_state;
  const auto pe = m.as<std::int32_t>();
  if (pe >= 1 && pe < s->npes) {
    s->last_pong[static_cast<std::size_t>(pe)] = Clock::now();
  }
}

void recovery_main();
void proc_recovery_main();

/// PE0 scheduler-loop tick: two failure tiers, process before PE.
///
/// Process tier: proc 0's comm thread reaps dead children (and the zygote
/// reports grandchild deaths); the reap lands in the machine's dead-proc
/// mailbox, consumed here. A *wedged* process — alive but every one of its
/// PEs overdue at once — is escalated to a SIGKILL so the same reap path
/// fires; per-proc `escalated` keeps the escalation single-shot.
///
/// PE tier: heartbeat pings out, pong deadlines checked. Deliberately
/// ignorant of the machine's dead flags — the acceptance bar is that
/// recovery is *detector*-triggered, so the only death signal used here is
/// a missed pong (or, process tier, a reaped corpse).
void tick() {
  FtState* s = g_state;
  const auto now = Clock::now();
  if (!s->clock_init) {
    s->clock_init = true;
    s->last_ping = now;
    s->last_pong.assign(static_cast<std::size_t>(s->npes), now);
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
  if (now - s->last_ping >=
      std::chrono::microseconds(s->hooks.ping_interval_us)) {
    s->last_ping = now;
    for (int pe = 1; pe < s->npes; ++pe) {
      ft_send(pe, h_ping, std::int32_t{pe});
    }
  }
  const auto deadline = std::chrono::microseconds(s->hooks.timeout_us);
  const auto overdue = [&](int pe) {
    return pe != 0 &&
           now - s->last_pong[static_cast<std::size_t>(pe)] > deadline;
  };
  for (int pe = 1; pe < s->npes; ++pe) {
    if (!overdue(pe)) continue;
    if (proc_tier) {
      const int proc = pe / s->ppn;
      if (proc != 0) {
        bool whole_proc = true;
        for (int q = proc * s->ppn; q < (proc + 1) * s->ppn; ++q) {
          whole_proc = whole_proc && overdue(q);
        }
        if (whole_proc) {
          // Wedged-but-alive process: every PE overdue at once. Escalate
          // to a whole-process kill; the zygote's reap report then drives
          // process-tier recovery above. No PE-tier recovery meanwhile.
          if (!s->escalated[static_cast<std::size_t>(proc)]) {
            s->escalated[static_cast<std::size_t>(proc)] = 1;
            metrics::bump(metrics::Counter::kFtDetections);
            trace::emit_flight(trace::Ev::kFtDetect, 2,
                               static_cast<std::uint32_t>(proc), 0,
                               static_cast<std::int16_t>(pe));
            converse::kill_proc(proc);
          }
          continue;
        }
      }
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
  count_delivery();
  FtState* s = g_state;
  const auto victim = m.as<std::int32_t>();
  // This PE is the victim's buddy: the copy it holds IS the victim's blob.
  const PeStore& st = s->store[static_cast<std::size_t>(converse::my_pe())];
  MFC_CHECK_MSG(st.buddy_src == victim && !st.buddy.empty(),
                "ft: buddy store does not hold the victim's checkpoint");
  ft_send(victim, h_take_own, BlobMsg{victim, st.buddy_epoch, st.buddy});
}

void handle_refill_buddy(converse::Message&& m) {
  count_delivery();
  FtState* s = g_state;
  const auto victim = m.as<std::int32_t>();
  // This PE is the victim's predecessor: re-send its own blob so the victim
  // again holds the buddy copy it lost.
  const int me = converse::my_pe();
  const PeStore& st = s->store[static_cast<std::size_t>(me)];
  MFC_CHECK_MSG(st.own_epoch != 0, "ft: predecessor has no checkpoint");
  ft_send(victim, h_take_buddy, BlobMsg{me, st.own_epoch, st.own});
}

void handle_take_own(converse::Message&& m) {
  count_delivery();
  FtState* s = g_state;
  auto bm = m.as<BlobMsg>();
  PeStore& st = s->store[static_cast<std::size_t>(converse::my_pe())];
  st.own_epoch = bm.epoch;
  st.own = std::move(bm.blob);
  ft_send(0, h_rec_ack, AckMsg{});
}

void handle_take_buddy(converse::Message&& m) {
  count_delivery();
  FtState* s = g_state;
  auto bm = m.as<BlobMsg>();
  PeStore& st = s->store[static_cast<std::size_t>(converse::my_pe())];
  st.buddy_src = bm.src;
  st.buddy_epoch = bm.epoch;
  st.buddy = std::move(bm.blob);
  ft_send(0, h_rec_ack, AckMsg{});
}

void handle_discard(converse::Message&&) {
  count_delivery();
  FtState* s = g_state;
  if (s->hooks.discard) s->hooks.discard();
  ft_send(0, h_rec_ack, AckMsg{});
}

void handle_restore(converse::Message&& m) {
  count_delivery();
  FtState* s = g_state;
  const auto epoch = m.as<std::uint64_t>();
  const PeStore& st = s->store[static_cast<std::size_t>(converse::my_pe())];
  MFC_CHECK_MSG(st.own_epoch == epoch,
                "ft: restore epoch does not match this PE's checkpoint");
  s->hooks.restore(epoch, st.own);
  ft_send(0, h_rec_ack, AckMsg{});
}

void handle_rec_ack(converse::Message&&) {
  count_delivery();
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

/// An async epoch that had not committed when the failure hit is aborted:
/// every PE drops its pending capture, staged store, and stream buffers.
/// The rollback then lands on the previous committed epoch, and the aborted
/// epoch number is simply reused when the replay reaches its checkpoint
/// round again. No End event was emitted and no checkpoint counter bumped,
/// so committed-epoch books match a failure-free run. Recovery-ULT context.
void abort_async_epoch() {
  FtState* s = g_state;
  if (!s->async_inflight) return;
  const std::uint64_t e = s->pending_epoch;
  s->pending_epoch = 0;
  s->async_inflight = false;
  for (int pe = 0; pe < s->npes; ++pe) {
    ft_send(pe, h_ckpt_abort, AbortMsg{e, s->ckpt_attempt});
  }
  rec_wait(s->npes);
  if (s->sync_waiter != nullptr) {
    ult::Thread* t = s->sync_waiter;
    s->sync_waiter = nullptr;
    converse::ready_thread(t);
  }
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

  abort_async_epoch();

  // Refill the victim's checkpoint store from the two surviving copies.
  ft_send(buddy_of(v), h_refill_own, std::int32_t{v});
  ft_send(pred_of(v), h_refill_buddy, std::int32_t{v});
  rec_wait(2);

  // Rollback phase A: every PE discards its live application state. The
  // barrier before phase B guarantees no PE restores a checkpoint image
  // while another PE's live copy still occupies the same isomalloc slots.
  for (int pe = 0; pe < npes; ++pe) ft_send(pe, h_discard, AckMsg{});
  rec_wait(npes);

  // Rollback phase B: every PE rebuilds from its local blob.
  for (int pe = 0; pe < npes; ++pe) ft_send(pe, h_restore, s->epoch);
  rec_wait(npes);

  if (s->hooks.on_recovered) s->hooks.on_recovered(s->epoch);

  // Re-arm the detector only now: pong deadlines measured across the
  // rollback would instantly re-accuse a healthy PE.
  const auto now = Clock::now();
  s->last_pong.assign(static_cast<std::size_t>(npes), now);
  s->last_ping = now;
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
  // (pongs, app traffic) or parks, and the tick readies this thread once
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

  abort_async_epoch();

  // Refill every lost PE's store: its own blob from its buddy (process
  // p+1) and the buddy copy it held for its predecessor (process p-1).
  for (int v = lo; v < lo + ppn; ++v) {
    ft_send(buddy_of(v), h_refill_own, std::int32_t{v});
    ft_send(pred_of(v), h_refill_buddy, std::int32_t{v});
  }
  rec_wait(2 * ppn);

  // Rollback phases A and B, exactly as in the PE tier.
  for (int pe = 0; pe < npes; ++pe) ft_send(pe, h_discard, AckMsg{});
  rec_wait(npes);
  for (int pe = 0; pe < npes; ++pe) ft_send(pe, h_restore, s->epoch);
  rec_wait(npes);

  if (s->hooks.on_recovered) s->hooks.on_recovered(s->epoch);

  const auto now = Clock::now();
  s->last_pong.assign(static_cast<std::size_t>(npes), now);
  s->last_ping = now;
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
    h_ping = converse::register_handler(handle_ping);
    h_pong = converse::register_handler(handle_pong);
    h_capture = converse::register_handler(handle_capture);
    h_store = converse::register_handler(handle_store);
    h_ckpt_ack = converse::register_handler(handle_ckpt_ack);
    h_commit = converse::register_handler(handle_commit);
    h_chunk = converse::register_handler(handle_chunk);
    h_pump = converse::register_handler(handle_pump);
    h_ckpt_abort = converse::register_handler(handle_ckpt_abort);
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
  hooks.ping_interval_us =
      detector_env_us("MFC_FT_PERIOD_MS", hooks.ping_interval_us);
  hooks.timeout_us = detector_env_us("MFC_FT_TIMEOUT_MS", hooks.timeout_us);
  MFC_CHECK_MSG(hooks.ping_interval_us < hooks.timeout_us,
                "ft: heartbeat period must be shorter than the timeout");
  MFC_LOG_INFO("ft: heartbeat period %llu us, timeout %llu us",
               static_cast<unsigned long long>(hooks.ping_interval_us),
               static_cast<unsigned long long>(hooks.timeout_us));
  g_state = new FtState;
  g_state->npes = npes;
  g_state->hooks = std::move(hooks);
  g_state->store.resize(static_cast<std::size_t>(npes));
  converse::FtMachineHooks mh;
  mh.pe0_tick = [] { tick(); };
  mh.on_revive = [](int pe) { on_revive(pe); };
  converse::set_ft_machine_hooks(std::move(mh));
}

void uninstall() {
  MFC_CHECK_MSG(g_state != nullptr, "ft::uninstall without install");
  converse::clear_ft_machine_hooks();
  delete g_state;
  g_state = nullptr;
}

bool active() { return g_state != nullptr; }

std::uint64_t checkpoint_now(CkptMode mode) {
  FtState* s = g_state;
  MFC_CHECK_MSG(s != nullptr, "ft: checkpoint_now without install");
  MFC_CHECK_MSG(converse::my_pe() == 0 &&
                    converse::pe_scheduler().in_thread(),
                "ft: checkpoint_now must run in a ULT on PE 0");
  MFC_CHECK_MSG(!s->recovering, "ft: checkpoint during recovery");
  if (s->async_inflight) checkpoint_sync();  // one epoch in flight at a time
  converse::wait_quiescence();
  trace::emit_flight(trace::Ev::kFtCheckpointBegin, s->epoch + 1);
  const std::uint64_t e = s->epoch + 1;
  s->pending_epoch = e;
  s->pending_mode = mode;
  s->ckpt_attempt += 1;
  s->capture_acks = s->npes;
  s->store_acks = s->npes;
  s->ckpt_bytes = 0;
  s->async_inflight = (mode == CkptMode::kAsync);
  s->ckpt_waiter = converse::pe_scheduler().running();
  for (int pe = 0; pe < s->npes; ++pe) {
    ft_send(pe, h_capture,
            CaptureMsg{e, static_cast<std::uint8_t>(mode), s->ckpt_attempt});
  }
  ult::suspend();
  // kFull/kIncremental resume with all 2·npes acks in: commit now, still
  // inside the exclusive window. kAsync resumes after the npes capture
  // acks; its commit runs from the ack handler once the stores drain.
  if (mode != CkptMode::kAsync) commit_epoch();
  return e;
}

std::uint64_t checkpoint_sync() {
  FtState* s = g_state;
  MFC_CHECK_MSG(s != nullptr, "ft: checkpoint_sync without install");
  if (!s->async_inflight) return s->epoch;
  MFC_CHECK_MSG(converse::my_pe() == 0 &&
                    converse::pe_scheduler().in_thread(),
                "ft: checkpoint_sync must run in a ULT on PE 0");
  MFC_CHECK_MSG(s->sync_waiter == nullptr, "ft: concurrent checkpoint_sync");
  s->sync_waiter = converse::pe_scheduler().running();
  ult::suspend();
  return s->epoch;
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
