// Cross-process fault-tolerance storm driver.
//
// A deliberately message-driven workload (no migrating ULTs — the plain
// storm covers those) shaped to make whole-process failures maximally
// observable: every PE keeps seed-derived worker histories resident in an
// isomalloc slot plus a commutative gift accumulator fed by cross-PE
// traffic, so the machine-wide digest is a pure function of (options.seed,
// rounds) no matter how deliveries interleave. A coordinator ULT on PE 0
// drives rounds, brackets them with quiescence, checkpoints through the ft
// layer on a fixed cadence, and — on the kill schedule — SIGKILLs an entire
// seed-chosen process *after* the epoch committed, then parks until the
// detector-driven recovery (zygote respawn, remote buddy refills,
// machine-wide rollback) hands control back via
// on_recovered. A clean storm ends with the same digest as a failure-free
// run: the acceptance probe for "process loss is transparent".
//
// Single-process (nprocs == 1) the same driver runs in wire-loopback mode
// with PE-unit kills instead, which keeps the whole FT wire path — span-
// shipped buddy stores included — under ThreadSanitizer, where fork-based
// legs cannot go.
#pragma once

#include <cstddef>
#include <cstdint>

#include "chaos/chaos.h"

namespace mfc::chaos {

struct ProcStormOptions {
  std::uint64_t seed = 1;
  int npes = 16;
  int nprocs = 4;
  /// Must be 1: the storm always runs on the shm wire (nprocs == 1 runs
  /// it loopback). The field stays only because the benchmark's workload
  /// driver (mfcbench/workload.cc) still assigns it. Drop it with the next
  /// change to the benchmark.
  int transport = 1;
  int rounds = 12;
  /// Workers per PE; worker histories live in one iso slot per PE.
  int workers_per_pe = 2;
  /// uint64 history cells per worker, updated every round.
  int values_per_worker = 16;
  /// Checkpoint after every Kth round (0 = FT off). The final round never
  /// checkpoints — there is nothing left to protect.
  int checkpoint_every = 0;
  /// Must be 0. Checkpoints always ship whole blobs; the field stays only
  /// because the benchmark's workload driver (mfcbench/workload.cc) still
  /// assigns it. Drop it with the next change to the benchmark.
  int ft_mode = 0;
  /// Kill at every Nth checkpoint commit (0 = no kills; requires
  /// checkpoint_every > 0). Multi-process: SIGKILL a seed-chosen victim
  /// process (never process 0); single-process: ft::kill_pe a seed-chosen
  /// victim PE (never PE 0). The kill fires after the epoch committed, so
  /// recovery rolls back to the state the coordinator just observed and no
  /// round replays.
  int kill_every = 0;
  /// Detector timeout, microseconds (see ft::Hooks).
  std::uint64_t timeout_us = 250000;
  std::size_t iso_slot_bytes = 16 * 1024;
  std::uint32_t iso_slots_per_pe = 64;
  /// Installed via Machine::Config for the duration of the storm.
  Config chaos;
};

struct ProcStormReport {
  std::uint64_t rounds = 0;
  /// Per-PE digests folded in PE order; bit-identical across runs with
  /// equal options, kill schedule or not.
  std::uint64_t workload_digest = 0;
  std::uint64_t digest_reports = 0;  ///< PEs that reported (must equal npes)

  std::uint64_t ft_epochs = 0;
  std::uint64_t kills = 0;        ///< injected failures (either unit kind)
  std::uint64_t detections = 0;   ///< detector firings
  std::uint64_t recoveries = 0;   ///< completed rollbacks
  std::uint64_t proc_respawns = 0;  ///< zygote respawns observed by proc 0
  std::uint64_t ft_ship_bytes = 0;  ///< buddy store payload bytes

  bool pool_balanced = false;  ///< envelope books balanced at shutdown

  bool clean(int npes) const {
    return digest_reports == static_cast<std::uint64_t>(npes) &&
           pool_balanced;
  }
};

/// Boots a machine and runs the storm to completion. Not reentrant.
ProcStormReport run_proc_storm(const ProcStormOptions& options);

}  // namespace mfc::chaos
