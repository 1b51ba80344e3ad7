// Exhaustive interleavings of the quiescence sweep rule
// (converse/quiescence.h qd::sweep), driven over model control lines.
//
// Model PEs send, deliver and go idle as message-driven scripts, each line
// store a step of its own and in the order the write rules fix (leave
// idle: clear the flag, bump progress; deliver: bump delivered; send: bump
// sent, publish, then unpark the receiver; enter idle: bump progress, set
// the flag, then park — announce, and seal unless something arrived;
// register a wait: take a ticket, then publish it as `waiting`). Each PE's
// parking word follows util/queue.h: an unpark flips a parked or sleeping
// word back to awake, and a PE leaves its park only awake. Drain-mode
// scenarios read those words (`asleep`). The production sweep
// reads the model through its Lines interface, and before every one of its
// loads the explorer may run any enabled PE step: a depth-first search over
// every interleaving, with replay and a visited set over (model state,
// sweeper position, values read so far).
//
// Two properties must hold in every interleaving:
//   - when the rule says quiet, the model had nothing in flight and every
//     PE idle at some instant between the two sweeps (a PE is idle once it
//     has bumped progress to enter idle: only its flag store is left), and
//     a drain verdict records no deficit (nothing is lost in the model);
//   - no wait registered after sweep 1 began is released.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "converse/quiescence.h"

namespace {

namespace qd = mfc::converse::qd;

enum class Op : std::uint8_t {
  kClearIdle,      ///< leave idle (enabled only with a message waiting)
  kBumpProgress,
  kDeliver,        ///< bump delivered (the message leaves the inbox)
  kBumpSent,
  kPublish,        ///< the message becomes visible to its receiver
  kUnpark,         ///< wake the receiver if it is parked or asleep
  kTakeTicket,     ///< register a wait: fetch_add on the ticket count
  kStoreWaiting,   ///< ...then publish it on the line
  kSetIdle,
  kAnnounce,       ///< park: the word reads parked
  kSeal,           ///< park: asleep, unless a message or an unpark came
};

/// A parking word's states (util/queue.h ParkWord).
enum Word : std::uint8_t { kAwake, kParked, kAsleep };

/// One scripted action of a busy PE: send to a PE, or register a wait.
struct Action {
  int send_to = -1;  ///< -1: register a wait instead
};

struct PeScript {
  bool starts_busy = false;
  std::vector<Action> initial;                 ///< run when starting busy
  std::vector<std::vector<Action>> on_delivery;  ///< k-th delivery's handler
};

struct Scenario {
  const char* name;
  std::vector<PeScript> pes;
  bool drain = false;  ///< the sweep runs in drain mode
};

/// A PE's fixed op list, with the destination of each publish.
struct Program {
  std::vector<Op> ops;
  std::vector<int> dest;  ///< per op: publish destination (or -1)
};

/// `parking` adds the unpark and park steps, which only drain-mode verdicts
/// read; exact-mode scenarios leave them out to keep the search small.
void append_actions(Program& p, const std::vector<Action>& acts,
                    bool parking) {
  for (const Action& a : acts) {
    if (a.send_to >= 0) {
      p.ops.push_back(Op::kBumpSent);
      p.dest.push_back(-1);
      p.ops.push_back(Op::kPublish);
      p.dest.push_back(a.send_to);
      if (parking) {
        p.ops.push_back(Op::kUnpark);
        p.dest.push_back(a.send_to);
      }
    } else {
      p.ops.push_back(Op::kTakeTicket);
      p.dest.push_back(-1);
      p.ops.push_back(Op::kStoreWaiting);
      p.dest.push_back(-1);
    }
  }
  p.ops.push_back(Op::kBumpProgress);  // enter idle: bump, then flag
  p.dest.push_back(-1);
  p.ops.push_back(Op::kSetIdle);
  p.dest.push_back(-1);
  if (parking) {
    p.ops.push_back(Op::kAnnounce);
    p.dest.push_back(-1);
    p.ops.push_back(Op::kSeal);
    p.dest.push_back(-1);
  }
}

Program compile(const PeScript& s, bool parking) {
  Program p;
  if (s.starts_busy) append_actions(p, s.initial, parking);
  for (const auto& handler : s.on_delivery) {
    for (Op op : {Op::kClearIdle, Op::kBumpProgress, Op::kDeliver}) {
      p.ops.push_back(op);
      p.dest.push_back(-1);
    }
    append_actions(p, handler, parking);
  }
  return p;
}

struct ModelPe {
  std::size_t pc = 0;
  int inbox = 0;
  std::uint64_t sent = 0, delivered = 0, progress = 0, waiting = 0;
  bool idle = false;
  Word word = kAwake;
};

/// Thrown out of the sweep when a run reaches an explored state.
struct Pruned {};

class Explorer {
 public:
  explicit Explorer(const Scenario& sc) : sc_(sc) {
    for (const auto& s : sc.pes) progs_.push_back(compile(s, sc.drain));
  }

  /// Explores every interleaving; returns the first violation found (empty
  /// when none) and counts the runs.
  std::string explore() {
    for (;;) {
      std::string bad;
      try {
        bad = run();
      } catch (const Pruned&) {
      }
      if (!bad.empty()) return bad;
      ++runs_;
      // Backtrack: drop exhausted trailing choices, advance the last one.
      while (!choices_.empty() &&
             choices_.back().taken + 1 >= choices_.back().options) {
        choices_.pop_back();
      }
      if (choices_.empty()) return {};
      ++choices_.back().taken;
    }
  }

  std::uint64_t runs() const { return runs_; }

  // ---- qd::sweep's Lines interface over the model ----
  int npes() const { return static_cast<int>(pes_.size()); }
  std::uint64_t tickets() { return load("tickets", -1); }
  std::uint64_t released() { return load("released", -1); }
  bool drain() { return load("drain", -1) != 0; }
  std::int64_t baseline() {
    return static_cast<std::int64_t>(load("baseline", -1));
  }
  bool idle(int p) { return load("idle", p) != 0; }
  bool asleep(int p) { return load("asleep", p) != 0; }
  std::uint64_t delivered(int p) { return load("delivered", p); }
  std::uint64_t sent(int p) { return load("sent", p); }
  std::uint64_t waiting(int p) { return load("waiting", p); }
  std::uint64_t progress(int p) { return load("progress", p); }
  bool wire_quiet() { return load("wire_quiet", -1) != 0; }

 private:
  struct Choice {
    int taken = 0;
    int options = 1;
  };

  std::string run() {
    pes_.assign(sc_.pes.size(), ModelPe{});
    for (std::size_t p = 0; p < pes_.size(); ++p) {
      pes_[p].idle = !sc_.pes[p].starts_busy;
      pes_[p].word = pes_[p].idle && sc_.drain ? kAsleep : kAwake;
    }
    tickets_ = 1;  // the sweeper's own wait
    late_ticket_ = 0;
    late_after_start_ = false;
    phase_ = 0;
    quiet_in_gap_ = false;
    between_quiet_ = false;
    between_closed_ = false;
    obs_ = 0x9e3779b97f4a7c15ull;
    depth_ = 0;
    trace_.str({});
    note_state();
    std::vector<std::uint64_t> scratch;
    const qd::Verdict v = qd::sweep(*this, scratch);
    close_between();
    if (!v.quiet) return {};
    if (v.drain && v.deficit != 0) {
      return "drain verdict recorded a deficit with nothing lost:\n" +
             trace_.str();
    }
    if (!between_quiet_) {
      return "quiet verdict, but between the sweeps something was in flight "
             "or a PE was busy at every instant:\n" + trace_.str();
    }
    if (late_ticket_ != 0 && late_after_start_ && late_ticket_ <= v.upto) {
      return "a wait registered after sweep 1 began was released:\n" +
             trace_.str();
    }
    return {};
  }

  /// A sweeper load: first any enabled PE steps the schedule picks, then
  /// the read itself. Loads of PE 0's idle flag start the sweeps; loads
  /// that read no PE's line (wire_quiet, released) keep the gap between
  /// the sweeps open.
  std::uint64_t load(const char* what, int pe) {
    for (;;) {
      std::vector<int> enabled;
      for (int p = 0; p < npes(); ++p) {
        if (step_enabled(p)) enabled.push_back(p);
      }
      const int pick = choose(static_cast<int>(enabled.size()) + 1);
      if (pick == 0) break;
      step(enabled[static_cast<std::size_t>(pick - 1)]);
    }
    const bool sweep_load = pe >= 0;
    if (sweep_load && pe == 0 && std::string(what) == "idle") {
      ++phase_;
      if (phase_ == 2) close_between();
    }
    const std::uint64_t value = current(what, pe);
    trace_ << "  sweeper reads " << what;
    if (pe >= 0) trace_ << "(" << pe << ")";
    trace_ << " = " << value << "\n";
    obs_ = (obs_ ^ value) * 0x100000001b3ull + static_cast<std::uint64_t>(pe + 7);
    if (sweep_load && phase_ == 1) quiet_in_gap_ = false;
    note_state();
    return value;
  }

  std::uint64_t current(const char* what, int pe) const {
    const std::string w(what);
    if (w == "tickets") return tickets_;
    if (w == "drain") return sc_.drain ? 1 : 0;
    if (pe < 0) return w == "wire_quiet" ? 1 : 0;
    const ModelPe& m = pes_[static_cast<std::size_t>(pe)];
    if (w == "idle") return m.idle ? 1 : 0;
    if (w == "asleep") return m.word == kAsleep ? 1 : 0;
    if (w == "delivered") return m.delivered;
    if (w == "sent") return m.sent;
    if (w == "waiting") return m.waiting;
    if (w == "progress") return m.progress;
    return 0;
  }

  bool step_enabled(int p) const {
    const ModelPe& m = pes_[static_cast<std::size_t>(p)];
    const Program& prog = progs_[static_cast<std::size_t>(p)];
    if (m.pc >= prog.ops.size()) return false;
    // A parked PE leaves its park only awake, and only for a message.
    return prog.ops[m.pc] != Op::kClearIdle ||
           (m.inbox > 0 && m.word == kAwake);
  }

  void step(int p) {
    ModelPe& m = pes_[static_cast<std::size_t>(p)];
    const Program& prog = progs_[static_cast<std::size_t>(p)];
    const Op op = prog.ops[m.pc];
    const int dest = prog.dest[m.pc];
    ++m.pc;
    trace_ << "  PE " << p << ": ";
    switch (op) {
      case Op::kClearIdle: m.idle = false; trace_ << "idle = 0"; break;
      case Op::kBumpProgress: ++m.progress; trace_ << "progress++"; break;
      case Op::kDeliver:
        --m.inbox;
        ++m.delivered;
        trace_ << "delivered++";
        break;
      case Op::kBumpSent: ++m.sent; trace_ << "sent++"; break;
      case Op::kPublish:
        ++pes_[static_cast<std::size_t>(dest)].inbox;
        trace_ << "publish to PE " << dest;
        break;
      case Op::kUnpark: {
        Word& w = pes_[static_cast<std::size_t>(dest)].word;
        if (w != kAwake) w = kAwake;
        trace_ << "unpark PE " << dest;
        break;
      }
      case Op::kAnnounce: m.word = kParked; trace_ << "word = parked"; break;
      case Op::kSeal:
        // The re-check finds a message, or an unpark already flipped the
        // word: the park ends awake.
        m.word = m.word == kParked && m.inbox == 0 ? kAsleep : kAwake;
        trace_ << (m.word == kAsleep ? "word = asleep" : "park ends awake");
        break;
      case Op::kTakeTicket:
        late_ticket_ = ++tickets_;
        late_after_start_ = phase_ >= 1;
        trace_ << "takes ticket " << late_ticket_;
        break;
      case Op::kStoreWaiting:
        m.waiting = late_ticket_;
        trace_ << "waiting = " << late_ticket_;
        break;
      case Op::kSetIdle: m.idle = true; trace_ << "idle = 1"; break;
    }
    trace_ << "\n";
    note_state();
  }

  /// Ground truth at this instant: nothing in flight, every PE idle. A PE
  /// is idle from its enter-idle progress bump — all its work is done, only
  /// the flag store is left — until it clears the flag.
  void note_state() {
    std::uint64_t sent = 0, delivered = 0;
    bool all_idle = true;
    for (std::size_t p = 0; p < pes_.size(); ++p) {
      const ModelPe& m = pes_[p];
      const Program& prog = progs_[p];
      sent += m.sent;
      delivered += m.delivered;
      all_idle = all_idle && (m.idle || (m.pc < prog.ops.size() &&
                                         prog.ops[m.pc] == Op::kSetIdle));
    }
    if (phase_ >= 1 && sent == delivered && all_idle) quiet_in_gap_ = true;
  }

  /// The gap since sweep 1's last per-PE load ends here.
  void close_between() {
    if (between_closed_ || phase_ < 1) return;
    between_closed_ = true;
    between_quiet_ = quiet_in_gap_;
  }

  int choose(int options) {
    if (depth_ < choices_.size()) {
      return choices_[depth_++].taken;
    }
    // A new choice point: prune if this state was explored before.
    std::uint64_t key = obs_;
    const auto mix = [&key](std::uint64_t x) {
      key = (key ^ x) * 0x100000001b3ull;
    };
    for (const ModelPe& m : pes_) {
      mix(m.pc);
      mix(static_cast<std::uint64_t>(m.inbox));
      mix(m.word);
    }
    mix(tickets_);
    mix(static_cast<std::uint64_t>(phase_));
    mix(quiet_in_gap_ ? 1 : 0);
    mix(between_closed_ ? (between_quiet_ ? 3 : 2) : 0);
    mix(late_after_start_ ? 1 : 0);
    if (!visited_.insert(key).second) throw Pruned{};
    choices_.push_back({0, options});
    ++depth_;
    return 0;
  }

  const Scenario& sc_;
  std::vector<Program> progs_;
  std::vector<ModelPe> pes_;
  std::uint64_t tickets_ = 1;
  std::uint64_t late_ticket_ = 0;
  bool late_after_start_ = false;
  int phase_ = 0;              ///< sweeps begun (counts loads of idle(0))
  bool quiet_in_gap_ = false;  ///< a quiet instant since the last sweep-1 load
  bool between_quiet_ = false;
  bool between_closed_ = false;
  std::uint64_t obs_ = 0;  ///< hash of every value the sweeper read
  std::vector<Choice> choices_;
  std::size_t depth_ = 0;
  std::unordered_set<std::uint64_t> visited_;
  std::ostringstream trace_;
  std::uint64_t runs_ = 0;
};

void expect_sound(const Scenario& sc) {
  Explorer ex(sc);
  const std::string bad = ex.explore();
  EXPECT_TRUE(bad.empty()) << sc.name << ": " << bad;
  EXPECT_GT(ex.runs(), 0u);
  std::printf("%s: %llu interleavings explored\n", sc.name,
              static_cast<unsigned long long>(ex.runs()));
}

/// PE 1 sends to idle PE 0, whose handler answers; the answer's handler
/// does nothing.
TEST(QuiescenceModel, RelayBetweenTwoPes) {
  Scenario sc{"relay", {}};
  sc.pes.resize(2);
  sc.pes[1].starts_busy = true;
  sc.pes[1].initial = {{0}};
  sc.pes[0].on_delivery = {{{1}}};
  sc.pes[1].on_delivery = {{}};
  expect_sound(sc);
}

/// Three PEs: PE 0 sends to PE 1, whose handler sends to PE 2 and back to
/// PE 0.
TEST(QuiescenceModel, FanOutAcrossThreePes) {
  Scenario sc{"fan-out", {}};
  sc.pes.resize(3);
  sc.pes[0].starts_busy = true;
  sc.pes[0].initial = {{1}};
  sc.pes[1].on_delivery = {{{2}, {0}}};
  sc.pes[2].on_delivery = {{}};
  sc.pes[0].on_delivery = {{}};
  expect_sound(sc);
}

/// Drain mode: the relay again, with the verdict reading parking words in
/// place of the balance.
TEST(QuiescenceModel, DrainRelayBetweenTwoPes) {
  Scenario sc{"drain relay", {}, true};
  sc.pes.resize(2);
  sc.pes[1].starts_busy = true;
  sc.pes[1].initial = {{0}};
  sc.pes[0].on_delivery = {{{1}}};
  sc.pes[1].on_delivery = {{}};
  expect_sound(sc);
}

/// A busy PE registers a wait while the sweeper runs, then goes idle; PE 0
/// sends it one message.
TEST(QuiescenceModel, LateRegistrantIsNotReleased) {
  Scenario sc{"late registrant", {}};
  sc.pes.resize(2);
  sc.pes[1].starts_busy = true;
  sc.pes[1].initial = {{-1}};
  sc.pes[0].starts_busy = true;
  sc.pes[0].initial = {{1}};
  sc.pes[1].on_delivery = {{}};
  expect_sound(sc);
}

}  // namespace
