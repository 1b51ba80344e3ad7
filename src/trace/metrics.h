// Machine-wide metrics registry.
//
// One named counter set, stored as per-PE cache-line-isolated slots plus a
// shared slot for threads that never bind (the machine teardown path, test
// main threads). Replaces the ad-hoc counter globals that used to live in
// converse/machine.cc so benches, tests, and the storm driver read one
// snapshot/merge API instead of N private bookkeeping schemes.
//
// Write discipline mirrors the messaging layer: a counter slot is written
// only by its owning PE's kernel thread, so bump() on a bound thread is a
// relaxed load+store — no lock-prefixed RMW on the hot path. Unbound
// threads fall back to fetch_add on the shared slot (cold paths only).
#pragma once

#include <cstdint>

namespace mfc::metrics {

enum class Counter : int {
  // Messaging (converse layer).
  kMsgsSent = 0,
  kMsgsDelivered,
  /// Always 0: quiescence sends no messages (converse/quiescence.h), but
  /// the benchmark runner (mfcbench/run.py) still reads "qd-sent" from
  /// every stats dump. Drop it together with the runner's
  /// `converse.qd_msgs`.
  kQdSent,
  kMsgsAllocated,  ///< envelope lifecycle books (pool audit)
  kMsgsFreed,
  kMsgsRecycled,
  kMsgsDrained,  ///< reclaimed from queues/stashes at shutdown
  // Thread migration packs/unpacks by technique (paper §3.4).
  kPackStackCopy,
  kPackIso,
  kPackMemAlias,
  kUnpackStackCopy,
  kUnpackIso,
  kUnpackMemAlias,
  // The page-table calls migration still makes; the rest of its work is
  // copies. Thread creation and teardown are not counted.
  kIsoMadvise,  ///< isomalloc evacuate/install calls, one per slot run: a
                ///< guard-marker madvise, or the remap fallback's mmap
  kMemAliasMaps,       ///< memory-alias switch-in mmaps (Figure 3)
  kMemAliasPoolGrows,  ///< memory-alias stack pool growths (set-up)
  // Higher layers.
  kElemMigrations,  ///< chare-array element departures
  kLbMigrations,    ///< migrations ordered by the LB strategy
  kChaosInjections,
  // Fault tolerance (ft layer).
  kFtCheckpoints,      ///< committed checkpoint epochs
  kFtCheckpointBytes,  ///< total bytes captured across epochs (local copies)
  kFtKills,
  kFtDetections,
  kFtRecoveries,
  kFtShipBytes,    ///< checkpoint blob bytes shipped to buddies
  /// Always 0: async checkpoint shipping is gone, but the benchmark runner
  /// (mfcbench/run.py) still reads "ft-async-chunks" from every stats dump.
  /// Drop it together with the runner's `ft.async_chunks`.
  kFtAsyncChunks,
  // The cross-process shm wire (converse/transport). Sent-side counters
  // land in the sending PE's slot; delivered lands in the slot of the PE
  // that drained the ring (the shared slot for the joining thread's last
  // sweep).
  kWireSentFrames,  ///< frames pushed onto a ring
  kWireSentBytes,   ///< payload bytes shipped over the wire
  kWireDelivered,   ///< messages enqueued from the wire to a local PE
  kWireChunks,      ///< kChunk frames (messages split to fit the shm ring)
  /// Always 0: the socket rendezvous protocol is gone, but the benchmark
  /// runner (mfcbench/run.py) still reads "wire-rendezvous" from every
  /// stats dump. Drop it together with the runner's `wire.rendezvous`.
  kWireRendezvous,
  kSpanSends,       ///< send_spans() calls (scatter-gather message sends)
  /// Always 0: the socket wire whose send retries it counted is gone, but
  /// the benchmark runner (mfcbench/run.py) still reads "wire-retries" from
  /// every stats dump. Drop it together with the runner's `wire.retries`.
  kWireRetries,
  // Process-unit fault tolerance (cross-process FT).
  kProcKills,       ///< whole processes SIGKILLed / declared dead
  kProcRespawns,    ///< dead processes respawned by the zygote
  // The PE loop's waits (converse/machine.cc pe_loop).
  kPeSleeps,      ///< parks that slept (sealed, then futex-waited)
  kPeEmptyWaits,  ///< waits that returned without a message
  kCount,
};
constexpr int kCounterCount = static_cast<int>(Counter::kCount);

const char* to_string(Counter c);

/// Zeroes every slot and (re)sizes to `npes` per-PE slots + 1 shared slot.
/// Must be called while no PE loop is running (Machine::run start does).
/// Values persist after the machine stops until the next reset, so
/// post-run reads (pool audits, bench reports) see the final books.
void reset(int npes);

/// PE slots currently allocated (0 before the first reset).
int npes();

/// Binds the calling kernel thread to PE `pe`'s slot; out-of-range or
/// pre-reset binds leave the thread on the shared slot.
void bind_pe(int pe);
void unbind_pe();

/// Declares this process's place in a multi-process machine. Machine::run
/// calls it post-fork (and resets to 0/1 for single-process runs); every
/// snapshot taken afterwards carries the proc id as provenance.
void set_proc(int proc, int nprocs);
int proc();
int nprocs();

/// Increments `c` by `n`: single-writer store on the bound PE slot, shared
/// fetch_add otherwise. Drops silently before the first reset.
void bump(Counter c, std::uint64_t n = 1);

/// Sum over all PE slots plus the shared slot.
std::uint64_t total(Counter c);

/// One PE's slot value (shared slot excluded); 0 if out of range.
std::uint64_t pe_value(Counter c, int pe);

/// Point-in-time copy of the merged counters — the one API benches, tests,
/// and the storm driver use instead of scraping layer-private globals.
struct Snapshot {
  std::uint64_t v[kCounterCount] = {};
  // Provenance: which process(es) these values came from. A fresh snapshot
  // covers exactly one process (`proc`; its bit set in `procs`). merge()
  // unions the masks and collapses `proc` to -1 when the sources differ,
  // so a merged multi-process snapshot is an explicit union across procs
  // instead of silently summing into one fake proc-0 view — and merging
  // the same process twice is detectable (`procs` unchanged).
  int proc = 0;
  int nprocs = 1;
  std::uint64_t procs = 1;  ///< bitmask of contributing proc ids (proc ≤ 63)

  std::uint64_t operator[](Counter c) const {
    return v[static_cast<int>(c)];
  }
  /// Counter deltas since `since` (per-counter saturating at 0).
  Snapshot diff(const Snapshot& since) const;
  /// Element-wise accumulate (merging snapshots from separate runs or,
  /// with distinct provenance, from the processes of one machine run).
  void merge(const Snapshot& other);
};

Snapshot snapshot();

}  // namespace mfc::metrics
