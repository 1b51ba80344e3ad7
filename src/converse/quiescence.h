// Quiescence and liveness read from per-PE control lines (DESIGN.md
// "Quiescence detection"). An internal seam of the machine layer: the
// public entry points stay wait_quiescence() and begin/end_qd_drain() in
// machine.h.
//
// Every PE owns one 64-byte line (shm::PeLine) next to its wake word: the
// messages it sent and dispatched, a progress count and an idle flag. One
// machine-wide line (shm::MachineLine) holds the quiescence wait tickets,
// the released ticket, the loss baseline and the drain flag. With a wire
// the plane sits at the head of the shared segment, so every process reads
// every line; an in-process machine keeps the same structs in process
// memory. Neither question sends a message.
//
// Write rules (LineWriter; only the owning PE's thread writes its line):
//   - `sent` is bumped before the message becomes visible to its receiver,
//     `delivered` before its handler runs. A thread that is not a PE has no
//     line and may not send while a machine runs.
//   - `progress` is bumped on every pass of a busy PE's loop, when the PE
//     enters idle (before the flag is set), and when it leaves idle (after
//     the flag is cleared, before it dispatches or runs anything).
//   - `idle` is set when the PE finds no message, no due stash entry and no
//     ready thread, before it spins or parks. A dead PE clears it and parks
//     without bumping anything.
//   Every line store and every sweep load is seq_cst.
//
// The sweep rule (sweep()): read every line — idle, counts, progress —
// then read them all again. The machine is quiet when every PE read idle
// in both sweeps with an unchanged progress, and the second sweep's
// Σsent − Σdelivered equals the loss baseline (0 until a drain records
// one). Why this is sound: let b_p and d_p be the two reads of PE p's
// progress. Leaving idle clears the flag and bumps progress before any
// work; entering idle bumps progress after all work and then sets the
// flag. So a PE that read idle between b_p and d_p, with progress equal at
// both, did no work in (b_p, d_p). Every instant between the sweeps lies
// inside every PE's (b_p, d_p): at such an instant nothing ran, and sweep
// 2's counts are the counts at that instant, so the balance means nothing
// was in flight.
//
// Drain mode (process recovery, begin_qd_drain): messages died with the
// killed process, so balance is unreachable. A drain verdict needs every
// PE idle with unchanged progress and counts, every PE but the sweeper
// asleep (its wake word reads kWordSleeping: it found nothing and nothing
// was published to it since), the sweeper's own queue empty, and no frame
// in any ring between the sweeps. It records Σsent − Σdelivered as the new
// baseline. The sleep test is what the balance does in exact mode: it sees
// a message that sits in an idle PE's queue.
//
// Which waits a verdict releases: those whose ticket, taken at
// registration, is no larger than the ticket count read before sweep 1. A
// later registrant may have sent what the sweep never saw. The verdict
// publishes that count as the released ticket; a PE holding a wait it
// covers has a thread to run, so its line's `waiting` (its smallest
// pending ticket) makes it busy to every later sweep until it has left
// idle to run it. Without that, a second wait could end on the strength
// of a machine whose first waiter had not yet woken to send its next
// messages.
//
// Who sweeps: a PE with waits, from its own loop, when it has nothing else
// to run (its waiters are suspended, so it counts itself idle). When the
// machine is not quiet it waits in its queue's pop_wait (util/queue.h); a
// PE that turns idle while a wait is pending sticky-wakes the waiting PEs
// (in drain mode also a PE that goes to sleep). The wake ends a waiter's
// pre-park spin at its next look (after one yield), or keeps its park from
// sleeping, so the waiter sweeps again as soon as the last PE has gone
// idle. On an idle machine a wait wakes no PE but the waiter's.
//
// Liveness (liveness()): PE 0's FT tick reads every line once per detector
// period. A PE had work while its idle flag was clear, or while input was
// published toward it after it parked: its wake word no longer reads
// asleep, or frames wait in the rings toward its process. A PE whose
// progress stands still for a whole timeout while it had work is suspect;
// a parked PE with nothing waiting never is. The read wakes the first PE
// of a process with frames pending, so a live process drains them even
// when their destination is held in a long handler.
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "converse/shmring.h"
#include "util/queue.h"

namespace mfc::ult {
class Thread;
}

namespace mfc::converse {
struct Message;
namespace transport {
class Transport;
}
}  // namespace mfc::converse

namespace mfc::converse::qd {

/// The machine's control plane: every PE's wake word and line, and the
/// machine line — in the wire's segment or in process memory.
struct Plane {
  shm::WakeCtrl* words = nullptr;
  shm::PeLine* lines = nullptr;
  shm::MachineLine* machine = nullptr;
  int npes = 0;
  /// The words live in shared memory and are woken across processes.
  bool shared = false;
};

/// Makes `plane` the running machine's plane (boot; cleared with an empty
/// plane at teardown). `wire` is the machine's transport or null; `ppn` is
/// PEs per process.
void boot(const Plane& plane, transport::Transport* wire, int ppn);

/// Sticky-wakes every PE but `self` that holds quiescence waits.
void wake_waiting(const Plane& plane, int self);

/// The owning PE's writes to its line (see the write rules above).
class LineWriter {
 public:
  void bind(shm::PeLine* line) {
    line_ = line;
    idle_ = line->idle.load(std::memory_order_relaxed) != 0;
  }

  void count_sent() { bump(line_->sent); }
  void count_delivered() { bump(line_->delivered); }

  /// Top of every loop pass but a dead PE's park. An idle PE's pass bumps
  /// nothing: it leaves idle before it does anything.
  void pass() {
    if (idle_) return;
    bump(line_->progress);
    paused_ = false;
  }

  bool idle() const { return idle_; }

  /// Before the PE dispatches or runs anything.
  void leave_idle() {
    if (idle_) {
      line_->idle.store(0, std::memory_order_seq_cst);
      idle_ = false;
    } else if (!paused_) {
      return;
    }
    bump(line_->progress);
    paused_ = false;
  }

  /// The PE found nothing to do and starts to wait: bump, then flag. Wakes
  /// the waiting PEs while any wait is pending.
  void enter_idle(const Plane& plane, int self) {
    bump(line_->progress);
    set_idle(plane, self);
  }

  /// Clears the flag without a bump: a dead PE parks this way, and PE 0's
  /// FT tick runs this way on an idle PE, so a tick that finds no work does
  /// not count as leaving idle. Sound because the PE does nothing until
  /// pass() or leave_idle() bumps, or resume_idle() restores the flag with
  /// nothing done in between.
  void pause_idle() {
    if (!idle_) return;
    line_->idle.store(0, std::memory_order_seq_cst);
    idle_ = false;
    paused_ = true;
  }

  /// Undoes pause_idle() when the PE found nothing to do meanwhile.
  void resume_idle(const Plane& plane, int self) {
    if (paused_) set_idle(plane, self);
  }

 private:
  static void bump(std::atomic<std::uint64_t>& c) {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_seq_cst);
  }

  void set_idle(const Plane& plane, int self) {
    line_->idle.store(1, std::memory_order_seq_cst);
    idle_ = true;
    paused_ = false;
    const shm::MachineLine& m = *plane.machine;
    if (m.tickets.load(std::memory_order_seq_cst) !=
        m.released.load(std::memory_order_seq_cst)) {
      wake_waiting(plane, self);
    }
  }

  shm::PeLine* line_ = nullptr;
  bool idle_ = false;
  bool paused_ = false;
};

struct Verdict {
  bool quiet = false;
  /// Waits with tickets up to this one were registered before sweep 1.
  std::uint64_t upto = 0;
  bool drain = false;
  /// Drain verdicts: Σsent − Σdelivered, the new loss baseline.
  std::int64_t deficit = 0;
};

/// The sweep rule over a view of the lines. The machine reads its plane;
/// a test drives a model through the same loads in the same order. A
/// `Lines` provides:
///
///   int npes();
///   std::uint64_t tickets(), released();
///   bool drain();                std::int64_t baseline();
///   bool idle(int pe);           bool asleep(int pe);   // drain only
///   std::uint64_t delivered(int pe), sent(int pe), waiting(int pe),
///                 progress(int pe);
///   bool wire_quiet();           // drain only, between the sweeps
///
/// `progress` is scratch space for sweep 1's progress readings.
template <typename Lines>
Verdict sweep(Lines& l, std::vector<std::uint64_t>& progress) {
  Verdict v;
  v.upto = l.tickets();
  v.drain = l.drain();
  const std::int64_t baseline = l.baseline();
  const int n = l.npes();
  progress.resize(static_cast<std::size_t>(n));
  const auto still = [&](int p) {
    return l.idle(p) && (!v.drain || l.asleep(p));
  };
  std::uint64_t sent1 = 0, delivered1 = 0;
  for (int p = 0; p < n; ++p) {
    if (!still(p)) return v;
    delivered1 += l.delivered(p);
    sent1 += l.sent(p);
    progress[static_cast<std::size_t>(p)] = l.progress(p);
  }
  if (v.drain && !l.wire_quiet()) return v;
  std::uint64_t sent = 0, delivered = 0;
  std::uint64_t waiting = ~0ull;  // smallest pending ticket anywhere
  for (int p = 0; p < n; ++p) {
    if (!still(p)) return v;
    delivered += l.delivered(p);
    sent += l.sent(p);
    if (const std::uint64_t w = l.waiting(p); w != 0 && w < waiting) {
      waiting = w;
    }
    if (l.progress(p) != progress[static_cast<std::size_t>(p)]) return v;
  }
  // A released wait not yet run is runnable work.
  if (waiting <= l.released()) return v;
  const auto diff =
      static_cast<std::int64_t>(sent) - static_cast<std::int64_t>(delivered);
  if (v.drain) {
    v.quiet = sent == sent1 && delivered == delivered1;
    v.deficit = diff;
  } else {
    v.quiet = diff == baseline;
  }
  return v;
}

/// One PE's quiescence waits: suspended threads with their tickets, in
/// ticket order. Touched only by the owning PE's thread.
class Waits {
 public:
  /// Registers the running thread `t` (which then suspends).
  void add(const Plane& plane, int self, ult::Thread* t);

  bool empty() const { return waits_.empty(); }

  /// The PE is idle and holds waits: leaves idle and releases into `ready`
  /// every wait a verdict covers — one already published in the machine
  /// line, or this PE's own sweep. `queue` is the PE's own queue (drain
  /// mode requires it empty). Returns false, still idle, when nothing was
  /// released.
  bool serve(const Plane& plane, int self, LineWriter& line,
             const IntrusiveMpscChannel<Message>& queue,
             std::vector<ult::Thread*>& ready);

  /// The smallest pending ticket (0: none).
  std::uint64_t first() const {
    return waits_.empty() ? 0 : waits_.front().first;
  }

 private:
  void release_upto(const Plane& plane, int self, std::uint64_t upto,
                    std::vector<ult::Thread*>& ready);

  std::vector<std::pair<std::uint64_t, ult::Thread*>> waits_;
  std::vector<std::uint64_t> scratch_;  ///< sweep 1's progress readings
};

/// A parked PE just went to sleep: in drain mode, wake the waiting PEs
/// (the drain rule waits for every PE to sleep).
void on_sleep(const Plane& plane, int self);

/// Recovery's drain mode (machine.h begin_qd_drain / end_qd_drain).
void set_drain(bool on);

/// One detector reading of PE `pe` (see "Liveness" above).
struct Liveness {
  std::uint64_t progress = 0;
  bool had_work = false;
};
Liveness liveness(int pe);

/// PE `pe`'s line in the running machine (tests read progress counts).
const shm::PeLine& line(int pe);

}  // namespace mfc::converse::qd
