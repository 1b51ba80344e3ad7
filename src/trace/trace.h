// Projections-style event tracing with Chrome trace-event (Perfetto) export.
//
// The paper's comparisons are claims about *where time goes* — scheduler
// dispatch, handler execution, pack/transit/unpack phases — so the runtime
// records a typed event stream per PE and exports it as Chrome trace-event
// JSON: one track per PE, nested duration events for handlers and ULT
// slices, flow arrows for cross-PE messages and thread migrations.
//
// Cost model: tracing is always compiled in but env-gated. With tracing off
// the hot path is ONE predictable branch on a plain bool (`detail::g_on`,
// written only while every PE is quiescent) — no atomics, no TLS lookup.
// With tracing on, each event is a 32-byte store into the PE's
// single-writer ring (see ring.h); the clock (rdtsc, ~20 ns virtualized)
// is read fresh only on span-closing events and reused with bounded
// staleness elsewhere, so a send+dispatch pays ~one clock read per message.
//
// Session lifecycle: trace::start(npes) before Machine::run, bind_pe on each
// PE loop, stop_and_export(path) after the PEs have joined. Machine::run
// auto-starts/exports a session when MFC_TRACE=1 and no explicit session is
// active, so `MFC_TRACE=1 ./some_test` just works.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "trace/ring.h"
#include "util/timer.h"

namespace mfc::trace {

namespace detail {
// Tracing-enabled gate. Plain (non-atomic) bool: flipped only by
// start()/stop() while no PE loop is running, read racily-but-benignly by
// emit(). Keeping it a plain bool keeps the off path to one test+branch.
extern bool g_on;

// Session generation; bumped on every start/stop so a stale TLS binding
// from a previous session fails the epoch compare instead of dangling.
extern std::atomic<std::uint64_t> g_epoch;

/// Per-thread emit state, consolidated so one TLS address computation
/// serves the ring pointer, the epoch guard, and the timestamp cache.
struct TlsState {
  Ring* ring = nullptr;
  std::uint64_t epoch = 0;
  std::uint64_t tsc_cache = 0;
  unsigned tsc_age = 1u << 30;  // stale ⇒ first emit reads the clock
};
extern thread_local TlsState t_tls;

// Edge-triggered timestamping. rdtsc costs ~20 ns on virtualized hosts —
// several times the rest of the emit path — so only events that CLOSE a
// duration span read the clock fresh (their edge is what duration math
// needs exact); instants and span-opens reuse the last read, bounded to
// kTscRefreshStride records of staleness for streams with no closing
// edges, and never across a park (clock_stale). Same-thread reuse keeps
// per-ring timestamps monotonic.
constexpr unsigned kTscRefreshStride = 8;

inline bool closes_span(Ev ev) {
  switch (ev) {
    case Ev::kHandlerEnd:
    case Ev::kUltSwitchOut:
    case Ev::kMigratePackEnd:
    case Ev::kMigrateUnpackEnd:
    case Ev::kFtCheckpointEnd:
    case Ev::kFtRecoveryEnd:
    case Ev::kWireSendEnd:
    case Ev::kWireAsmEnd:
      return true;
    default:
      return false;
  }
}
}  // namespace detail

/// Records one event on the calling PE's ring. No-op (one predictable
/// branch) when tracing is off; a ~32-byte single-writer ring store plus,
/// on span-closing events, one rdtsc read when it is on.
inline void emit(Ev ev, std::uint64_t arg = 0, std::uint32_t a = 0,
                 std::uint32_t size = 0, std::int16_t b = -1,
                 std::uint8_t c = 0) {
  if (!detail::g_on) return;
  detail::TlsState& tls = detail::t_tls;
  Ring* ring = tls.ring;
  if (ring == nullptr ||
      tls.epoch != detail::g_epoch.load(std::memory_order_relaxed)) {
    return;
  }
  if (detail::closes_span(ev) ||
      ++tls.tsc_age >= detail::kTscRefreshStride) {
    tls.tsc_cache = rdtsc();
    tls.tsc_age = 0;
  }
  Record r;
  r.tsc = tls.tsc_cache;
  r.arg = arg;
  r.a = a;
  r.size = size;
  r.b = b;
  r.ev = static_cast<std::uint8_t>(ev);
  r.c = c;
  ring->write(r);
}

inline bool enabled() { return detail::g_on; }

/// Drops the calling thread's cached timestamp, so its next event reads the
/// clock. PE loops and comm threads call it when they return from a park:
/// a span opened right after a wake-up must not carry a stamp from before
/// the sleep.
inline void clock_stale() {
  if (detail::g_on) detail::t_tls.tsc_age = detail::kTscRefreshStride;
}

/// True when MFC_TRACE=1 (or any value other than "" / "0") is set.
bool env_enabled();
/// MFC_TRACE_FILE, defaulting to "mfc_trace.json".
std::string env_file();

/// Starts a recording session with one ring per PE plus one "wire" ring for
/// the process's transport comm thread. `ring_capacity` 0 means
/// MFC_TRACE_CAP if set, else 8Ki records per PE. Must be called while no
/// PE loop is running; returns false if a session is already active.
bool start(int npes, std::size_t ring_capacity = 0);
bool active();

/// Binds/unbinds the calling kernel thread to PE `pe`'s ring. The machine's
/// PE loops call this; emit() from an unbound thread is dropped.
void bind_pe(int pe);
void unbind_pe();

/// Binds the calling kernel thread to the session's wire ring (track
/// "wire", tid = npes). The transport comm thread calls this so wire-level
/// deliver/reassembly events land on their own track.
void bind_comm();

/// Declares this process's place in a multi-process machine. Machine::run
/// calls it post-fork; a part export (below) then covers only the rings
/// this process actually wrote (its local PE range plus the wire ring)
/// instead of all npes rings.
void set_proc(int proc, int nprocs, int local_first, int local_npes);

/// Allocates a machine-wide-unique flow id on the bound PE's ring (0 if
/// tracing is off / unbound). Flow ids tie a send to its remote dispatch.
inline std::uint64_t next_flow_id() {
  if (!detail::g_on) return 0;
  detail::TlsState& tls = detail::t_tls;
  if (tls.ring == nullptr ||
      tls.epoch != detail::g_epoch.load(std::memory_order_relaxed)) {
    return 0;
  }
  return tls.ring->next_flow();
}

/// Attaches a key/value pair to the trace (exported under "otherData" and
/// into the summary). Used by the storm driver for chaos seed / technique
/// mix so a replayed seed yields a comparable, labelled timeline.
void set_meta(const std::string& key, const std::string& value);

/// Per-session aggregate filled in by stop()/stop_and_export().
struct Summary {
  std::uint64_t by_type[kEvCount] = {};  ///< emitted counts (wrap-independent)
  std::uint64_t emitted = 0;
  std::uint64_t retained = 0;  ///< records still in rings at stop
  std::uint64_t dropped = 0;   ///< overwritten by drop-oldest
  int npes = 0;

  /// Order-independent digest of emitted counts for the listed event types.
  /// Storm replay determinism is asserted on the deterministic subset
  /// (thread creates, pack/unpack, slot traffic) — see stress_storm_test.
  std::uint64_t digest(std::initializer_list<Ev> evs) const;
};

/// Ends the session, discarding events. Returns the summary.
Summary stop();

/// Ends the session and writes Chrome trace-event JSON to `path`. If `ok`
/// is non-null it is set to false when the file could not be written.
Summary stop_and_export(const std::string& path, bool* ok = nullptr);

/// Ends the session and writes a binary trace *part* to `path`: raw ring
/// records plus this process's rdtsc↔monotonic calibration. Parts from the processes of one machine run are merged into a
/// single clock-aligned Perfetto JSON by merge_parts / tools/trace_merge.
Summary stop_and_export_part(const std::string& path, bool* ok = nullptr);

/// Merges binary trace parts (stop_and_export_part output) into one
/// Chrome trace-event JSON at `out_path`: one track group (pid) per
/// process, tracks (tids) per PE plus the wire track, all timestamps
/// aligned to a common origin via each part's monotonic anchor (the
/// processes of one machine share CLOCK_MONOTONIC). Cross-process flow arrows bind automatically because
/// flow ids are machine-wide unique. Deterministic: merging the same
/// parts twice yields byte-identical output. Returns false (and fills
/// `err` if non-null) on unreadable/corrupt parts or write failure.
bool merge_parts(const std::vector<std::string>& part_paths,
                 const std::string& out_path, std::string* err = nullptr);

/// Summary of the most recently stopped session (zeroed before the first).
const Summary& last_summary();

}  // namespace mfc::trace
