// Automatic PE-failure recovery (paper §3 checkpoint/restart, extended with
// the double in-memory checkpointing protocol of Zheng, Shi & Kalé, "FTC-
// Charm++: An In-Memory Checkpoint-Based Fault Tolerant Runtime", and its
// ICPPW successor).
//
// The protocol in one paragraph: at a synchronized (quiescent) moment every
// PE packs its migratable threads and chare-array slice into one checkpoint
// blob — "checkpointing is simply migration to the local memory of a remote
// processor" — and stores it twice: locally and on its *buddy* PE. The
// buddy stride is process-disjoint: (pe + ppn) % npes under a multi-process
// machine (ppn = PEs per process), (pe + 1) % npes single-process — so the
// two copies of every blob always live in different OS processes and the
// loss of a whole process never destroys both. When the failure detector
// (PE 0 reading every PE's control line, converse/quiescence.h) declares a
// PE dead, the recovery coordinator revives it with wiped memory, refills
// its checkpoint store from the buddy copies that survived, rolls every PE
// back to the last committed epoch, and resumes. One failure between consecutive checkpoints is survivable by
// construction: the lost PE's blob lives on its buddy, and the lost
// buddy-copy it held for its predecessor is re-sent from the predecessor's
// own local blob.
//
// Failures come in two tiers, one per machine shape:
//   - PE tier (single-process machines): a kill_pe'd (or wedged) PE's
//     progress count stands still while it has work; the detector revives
//     it in place and refills its store — the original FTC-Charm++
//     protocol.
//   - process tier (multi-process machines, where the failure unit is a
//     process): a whole OS process dies (SIGKILL, crash) or wedges (every
//     one of its PEs suspect at once, escalated to a kill). Proc 0 reaps
//     the corpse, the pre-fork zygote forks a replacement from its
//     pristine image, which inherits the crash-consistent rings, and the
//     coordinator revives and refills all ppn lost PEs from their remote
//     buddies before the usual discard/restore rollback. A suspect PE in a
//     live process is load: it is recorded, never rolled back.
//
// Division of labor:
//   - machine layer (converse): kill/revive flags, the PE0 tick seam, the
//     pre-drain revival wipe callback — see FtMachineHooks in machine.h —
//     and the control lines the detector reads.
//   - this layer: checkpoint epochs, blob stores, the detector, recovery
//     coordinator, trace/metrics instrumentation.
//   - application (storm driver): the capture/wipe/discard/restore hooks
//     that know what the PE's state actually *is*.
//
// There is one shipping mode, FTC-Charm++'s: every epoch ships each PE's
// whole blob to its buddy inside the quiescent window (checkpoint_now).
//
// FT protocol messages are ordinary messages to quiescence: the detector
// sends none, so no perpetual traffic needs exempting, and a wait for
// quiescence also waits for checkpoint and recovery traffic in flight.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace mfc::ft {

/// Application seams. All callbacks run on the PE whose state they touch
/// (handler or scheduler context — they must not block).
struct Hooks {
  /// Serialize this PE's full application state for `epoch`. Runs under
  /// quiescence on every PE. The blob must be self-contained: restore()
  /// receives exactly these bytes.
  std::function<std::vector<char>(std::uint64_t epoch)> capture;

  /// Runs on a revived PE before its death-backlog drains: drop every piece
  /// of stale application state (the emulated "memory loss" of the failure).
  std::function<void(int pe)> wipe;

  /// Rollback phase A, every PE: discard current application state (pack-
  /// and-discard live threads, clear slices) WITHOUT restoring yet. The
  /// barrier between discard and restore guarantees no PE installs a
  /// checkpoint image while another PE's live copy still occupies the same
  /// isomalloc addresses.
  std::function<void()> discard;

  /// Rollback phase B, every PE: rebuild application state from the blob
  /// capture() produced for `epoch`.
  std::function<void(std::uint64_t epoch, const std::vector<char>& blob)>
      restore;

  /// PE 0, detector context: a failure was detected (before recovery runs).
  std::function<void(int victim)> on_detect;

  /// PE 0, recovery-thread context: rollback to `epoch` is complete on
  /// every PE; the application may resume driving.
  std::function<void(std::uint64_t epoch)> on_recovered;

  /// Declare a PE suspect once its progress count stood still this long
  /// while it had work; the detector reads every line once per timeout/8.
  /// Generous by default: a busy-but-alive PE (or a tsan-slowed one) must
  /// never be declared dead — on a single-process machine a false positive
  /// rolls back a healthy machine. The MFC_FT_TIMEOUT_MS environment
  /// variable (milliseconds) overrides this at install time; install()
  /// logs the effective value.
  std::uint64_t timeout_us = 250000;
};

/// Installs the FT layer. Must be called before Machine::run (plugs the
/// machine hooks in) and paired with uninstall() after it returns. Requires
/// npes >= 2 (a buddy scheme needs a buddy).
void install(int npes, Hooks hooks);
void uninstall();
bool active();

/// Synchronized checkpoint: brackets quiescence, captures every PE into
/// local + buddy stores, returns the epoch, which has committed by then.
/// Call from a ULT on PE 0 only (typically the application's driver
/// thread).
///
/// Captures and whole-blob buddy stores land in *pending* slots; PE 0
/// collects the 2·npes acks (one capture ack and one buddy-store ack per
/// PE) and only then broadcasts a commit that promotes pending → stored on
/// every PE. Per-sender FIFO makes the commit visible everywhere before any
/// later protocol message from PE 0, so a kill after checkpoint_now
/// returns leaves the machine with a consistent last-committed epoch.
std::uint64_t checkpoint_now();

/// Injected failure: traces/counts the kill, then flips the machine-layer
/// dead flag. The detector — not the caller — notices and recovers.
/// Callable from any PE context, including the victim's own handlers, on a
/// single-process machine (converse::kill_pe).
void kill_pe(int pe);

/// The buddy that holds `pe`'s checkpoint blob: (pe + stride) % npes, where
/// the stride is the machine's PEs-per-process under a multi-process run
/// (process-disjoint placement) and 1 otherwise.
int buddy_of(int pe);

/// Protocol counters (valid during and after a run).
std::uint64_t epochs();
std::uint64_t kills();
std::uint64_t detections();
std::uint64_t recoveries();

}  // namespace mfc::ft
