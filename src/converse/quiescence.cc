#include "converse/quiescence.h"

#include <algorithm>

#include "converse/machine.h"
#include "converse/transport.h"
#include "util/check.h"

namespace mfc::converse::qd {

namespace {

constexpr auto kSeq = std::memory_order_seq_cst;

Plane g_plane;  ///< the running machine's plane (empty between runs)
transport::Transport* g_wire = nullptr;
int g_ppn = 1;

/// The sweep's view of a live plane, taken by PE `self`.
struct PlaneLines {
  const Plane& plane;
  int self;
  const IntrusiveMpscChannel<Message>& own_queue;

  int npes() const { return plane.npes; }
  std::uint64_t tickets() { return plane.machine->tickets.load(kSeq); }
  std::uint64_t released() { return plane.machine->released.load(kSeq); }
  bool drain() { return plane.machine->drain.load(kSeq) != 0; }
  std::int64_t baseline() { return plane.machine->baseline.load(kSeq); }
  bool idle(int p) { return plane.lines[p].idle.load(kSeq) != 0; }
  /// The sweeper is awake by definition; it vouches for its own queue.
  bool asleep(int p) {
    if (p == self) return own_queue.consumer_empty();
    return plane.words[p].word.load(kSeq) == mfc::detail::kWordSleeping;
  }
  std::uint64_t delivered(int p) {
    return plane.lines[p].delivered.load(kSeq);
  }
  std::uint64_t sent(int p) { return plane.lines[p].sent.load(kSeq); }
  std::uint64_t waiting(int p) { return plane.lines[p].waiting.load(kSeq); }
  std::uint64_t progress(int p) { return plane.lines[p].progress.load(kSeq); }
  /// Drain mode only. Also wakes the first PE of every process with a
  /// frame pending (any of its PEs drains all its rings): a producer that
  /// died between publishing a frame and waking its receiver left it to
  /// wait for a wake that never comes.
  bool wire_quiet() {
    bool quiet = true;
    for (int p = 0; g_wire != nullptr && p < plane.npes; p += g_ppn) {
      if (g_wire->pending_toward(p / g_ppn)) {
        quiet = false;
        mfc::detail::wake_word(plane.words[p].word, plane.shared);
      }
    }
    return quiet;
  }
};

}  // namespace

void boot(const Plane& plane, transport::Transport* wire, int ppn) {
  g_plane = plane;
  g_wire = wire;
  g_ppn = ppn > 0 ? ppn : 1;
}

void wake_waiting(const Plane& plane, int self) {
  for (int p = 0; p < plane.npes; ++p) {
    if (p != self && plane.lines[p].waiting.load(kSeq) != 0) {
      mfc::detail::wake_word(plane.words[p].word, plane.shared);
    }
  }
}

void Waits::add(const Plane& plane, int self, ult::Thread* t) {
  // The registrant is busy, so no sweep passes before `waiting` is set.
  waits_.emplace_back(plane.machine->tickets.fetch_add(1, kSeq) + 1, t);
  plane.lines[self].waiting.store(first(), kSeq);
}

void Waits::release_upto(const Plane& plane, int self, std::uint64_t upto,
                         std::vector<ult::Thread*>& ready) {
  auto it = waits_.begin();
  for (; it != waits_.end() && it->first <= upto; ++it) {
    ready.push_back(it->second);
  }
  waits_.erase(waits_.begin(), it);
  plane.lines[self].waiting.store(first(), kSeq);
}

bool Waits::serve(const Plane& plane, int self, LineWriter& line,
                  const IntrusiveMpscChannel<Message>& queue,
                  std::vector<ult::Thread*>& ready) {
  shm::MachineLine& m = *plane.machine;
  // A verdict anywhere may already cover these waits. Leave idle before
  // `waiting` changes: released waits are work until they have run.
  std::uint64_t upto = m.released.load(kSeq);
  if (first() > upto) {
    PlaneLines lines{plane, self, queue};
    const Verdict v = sweep(lines, scratch_);
    if (!v.quiet) return false;
    if (v.drain) m.baseline.store(v.deficit, kSeq);
    line.leave_idle();
    upto = v.upto;
    std::uint64_t r = m.released.load(kSeq);
    while (r < upto && !m.released.compare_exchange_weak(r, upto, kSeq)) {
    }
    // Every wait here was registered before this PE went idle to sweep,
    // so the verdict covers them all; other PEs' covered waits end when
    // they see the released ticket.
    wake_waiting(plane, self);
  }
  line.leave_idle();
  release_upto(plane, self, upto, ready);
  return true;
}

void on_sleep(const Plane& plane, int self) {
  const shm::MachineLine& m = *plane.machine;
  if (m.drain.load(kSeq) != 0 &&
      m.tickets.load(kSeq) != m.released.load(kSeq)) {
    wake_waiting(plane, self);
  }
}

void set_drain(bool on) {
  MFC_CHECK(g_plane.machine != nullptr);
  g_plane.machine->drain.store(on ? 1 : 0, kSeq);
}

Liveness liveness(int pe) {
  MFC_CHECK(g_plane.lines != nullptr && pe >= 0 && pe < g_plane.npes);
  Liveness r;
  r.progress = g_plane.lines[pe].progress.load(kSeq);
  const bool pending =
      g_wire != nullptr && g_wire->pending_toward(pe / g_ppn);
  r.had_work = g_plane.lines[pe].idle.load(kSeq) == 0 ||
               g_plane.words[pe].word.load(kSeq) !=
                   mfc::detail::kWordSleeping ||
               pending;
  // Frames wait toward this PE's process: wake its first PE, which drains
  // every ring toward the process. A producer wakes only the frame's
  // destination, so frames for a PE held in a long handler would otherwise
  // keep its sleeping siblings "with work" until the whole live process
  // looked wedged. A wedged process drains nothing and stays suspect.
  if (pending && pe % g_ppn == 0) {
    mfc::detail::wake_word(g_plane.words[pe].word, g_plane.shared);
  }
  return r;
}

const shm::PeLine& line(int pe) {
  MFC_CHECK(g_plane.lines != nullptr && pe >= 0 && pe < g_plane.npes);
  return g_plane.lines[pe];
}

}  // namespace mfc::converse::qd
