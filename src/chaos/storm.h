// Migration-storm stress driver.
//
// Runs the whole stack adversarially: a fleet of worker threads — cycled
// across all three migration techniques (stack-copy, isomalloc, memalias) —
// migrates every round along seed-derived itineraries while a chare array
// delivers ttl-forwarded pings (and storms its own elements between PEs),
// all optionally under chaos fault injection. One driver for every machine
// shape: in-process queues, the shm wire inside one process, or the shm
// wire across 2 or more processes (StormOptions::nprocs), where a thread
// resumes at the same addresses in another address space.
//
// After every round the driver quiesces the machine and runs invariant
// checkers: stack/heap canaries and stack-address stability (verified by
// each worker on arrival), ping send/deliver counter balance under
// quiescence, isomalloc slot-count stability (each PE its own strip, at
// every release), and at the end the return of every isomalloc slot (each
// PE its strip) and memory-alias pool slot (each process its pool). Every
// shipped thread image is checked twice on arrival: its CRC-32C must equal
// the one the sender folded over the gather spans (transit), and the
// thread installed from the in-place decode must repack to exactly the
// arrived bytes (round trip through decode and install, size + memcmp).
// The workload digest folds only seed-derived values, so two runs with the
// same StormOptions are bit-identical — the replay contract behind
// MFC_CHAOS_SEED — and so are runs that differ only in transport or
// nprocs. Counts and verdicts live in a ledger mapped MAP_SHARED before the
// fork, so no round sends a message to gather them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "chaos/chaos.h"

namespace mfc::chaos {

struct StormOptions {
  std::uint64_t seed = 1;
  int npes = 4;
  /// Worker threads; worker w uses technique w % 3 and is born on PE
  /// w % npes. Use a multiple of 3 to exercise every technique equally.
  int workers = 12;
  /// Migration rounds: every worker migrates once per round.
  int rounds = 10;
  std::size_t stack_bytes = 16 * 1024;
  /// Isomalloc sizing for the run (small slots keep image copies cheap).
  std::size_t iso_slot_bytes = 16 * 1024;
  std::uint32_t iso_slots_per_pe = 4096;
  /// Chare-array background traffic: pings seeded per round, each
  /// forwarded ttl hops element-to-element.
  int array_elements = 8;
  int array_pings = 4;
  int ping_ttl = 3;
  bool element_migration = true;  ///< storm the array elements too
  /// Machine transport for the storm: 0 = in-process queues, 1 = shm
  /// rings. With 1 every cross-PE message — including the scatter-gather
  /// thread-image ships — runs the full ring and chunking path. Seed-derived
  /// digests are transport-independent, so same-seed runs must agree across
  /// both.
  int transport = 0;
  /// Processes the machine runs across (Machine::Config::nprocs): npes must
  /// divide evenly, and nprocs > 1 needs transport 1. Every StormReport
  /// count is the same for any nprocs. FT, chaos and `trace` stay on one
  /// process for now; run_storm fails a check naming the reason.
  int nprocs = 1;
  /// Record a trace of the storm and export Chrome trace-event JSON at the
  /// end (MFC_TRACE=1 in the environment has the same effect). The trace is
  /// labelled with the chaos seed / technique mix / round count, so two
  /// same-seed runs yield directly diffable timelines. One process only:
  /// across processes MFC_TRACE=1 has Machine::run write one part per
  /// process and merge them.
  bool trace = false;
  /// Export path when tracing; nullptr falls back to MFC_TRACE_FILE, then
  /// "storm_trace.json".
  const char* trace_file = nullptr;
  /// Installed via Machine::Config for the duration of the storm.
  Config chaos;

  // ---- Fault tolerance (ft layer) ----

  /// Checkpoint every K rounds (0 = FT off). With FT on the storm installs
  /// the ft layer, and the round driver calls ft::checkpoint_now() after
  /// the round-(K·n − 1) invariant sweep.
  int ft_checkpoint_every = 0;
  /// Kill a seed-chosen PE at every Nth checkpoint round (0 = no kills;
  /// requires ft_checkpoint_every > 0). The victim dies *at* the kill
  /// round's release — after the checkpoint committed — and the detector
  /// (not the test) notices and triggers rollback + resume.
  int ft_kill_every = 0;
  /// Detector timeout (microseconds, see ft::Hooks). The default is
  /// deliberately slack; tests that kill PEs pass tighter values to keep
  /// detection latency low.
  std::uint64_t ft_timeout_us = 250000;
  /// Restrict all workers to one technique (0=stackcopy, 1=iso, 2=memalias;
  /// -1 = the default w % 3 mix). The FT bench uses this to price
  /// checkpointing per technique.
  int single_technique = -1;
  /// Per-round application compute: each worker runs this many iterations
  /// of a deterministic integer-mixing loop after every hop (0 = none, the
  /// default for tests). The FT bench uses it to give rounds a realistic
  /// cost so checkpoint overhead is measured against real work, not
  /// against the storm's near-empty round protocol.
  int work_spin = 0;
};

/// Every count and verdict covers every process of the machine.
struct StormReport {
  std::uint64_t rounds = 0;
  std::uint64_t thread_migrations = 0;
  std::uint64_t element_migrations = 0;
  std::uint64_t pings_delivered = 0;
  std::uint64_t wire_bytes = 0;  ///< serialized thread-image bytes shipped
  std::uint64_t injections[kPointCount] = {};  ///< chaos: one process only

  // Invariant-checker verdicts (all must be zero / true for a clean storm).
  std::uint64_t canary_failures = 0;   ///< stack/heap canary or address drift
  /// Shipped images that failed a check: transit CRC-32C or the exact
  /// compare of the installed thread's repack with the arrived bytes.
  std::uint64_t digest_mismatches = 0;
  std::uint64_t misroutes = 0;         ///< worker woke on the wrong PE
  std::uint64_t counter_failures = 0;  ///< ping counters unbalanced under QD
  bool slots_balanced = false;  ///< every PE's iso strip back to pre-storm
  /// Every process's memory-alias stack pool back to its pre-storm slot
  /// count, and its file within its high-water bound (MemAliasPool).
  bool stack_pool_balanced = false;
  /// Envelope books balanced at shutdown (process 0's; any other process's
  /// imbalance aborts the run as its machine shuts down).
  bool pool_balanced = false;

  /// Folds every worker's seed-derived history; bit-identical across runs
  /// with equal options (the determinism probe tests compare this).
  std::uint64_t workload_digest = 0;

  /// Tracing results (zero unless the storm owned a trace session; never
  /// across processes).
  bool traced = false;
  std::uint64_t trace_events = 0;   ///< total events emitted
  std::uint64_t trace_dropped = 0;  ///< overwritten by ring drop-oldest
  /// Event-count digest over the deterministic event classes (thread
  /// creates, pack/unpack by phase, iso slot traffic, round markers) —
  /// equal across two same-seed runs; message/handler counts are excluded
  /// because stale-routing bounces make them timing-dependent.
  std::uint64_t trace_digest = 0;
  /// Thread packs by technique (stack-copy, isomalloc, memalias), counted
  /// at the dock; filled whether or not tracing is on.
  std::uint64_t packs_by_technique[3] = {};

  /// Fault-tolerance protocol counts (zero when FT is off; FT runs on one
  /// process).
  std::uint64_t ft_epochs = 0;            ///< committed checkpoints
  std::uint64_t ft_kills = 0;             ///< injected PE failures
  std::uint64_t ft_detections = 0;        ///< detector firings
  std::uint64_t ft_recoveries = 0;        ///< completed rollbacks
  std::uint64_t ft_checkpoint_bytes = 0;  ///< local-copy bytes, all epochs
  /// Count digest over {round markers, checkpoint begin/end}: the FT-mode
  /// determinism probe — equal between a kill run and a same-seed
  /// failure-free run (rounds replay identically after rollback, and a
  /// replayed round never re-emits its marker).
  std::uint64_t ft_trace_digest = 0;

  bool clean() const {
    return canary_failures == 0 && digest_mismatches == 0 && misroutes == 0 &&
           counter_failures == 0 && slots_balanced && stack_pool_balanced &&
           pool_balanced;
  }
};

/// Boots a machine and runs the storm to completion. Not reentrant.
StormReport run_storm(const StormOptions& options);

/// Test seam: when set, a copy of every arriving thread image's wire bytes
/// and its transit CRC pass through `tamper`, and the arrival checks and
/// the install run on the copy, so a test can damage shipments in flight
/// and watch digest_mismatches count them. Null (the default) leaves
/// shipments untouched and uncopied. Set it before run_storm and clear it
/// after.
using ShipTamper = void (*)(std::vector<char>& wire, std::uint64_t& crc);
void set_ship_tamper_for_testing(ShipTamper tamper);

}  // namespace mfc::chaos
