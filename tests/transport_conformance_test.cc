// Transport conformance battery (labeled transport).
//
// One battery, two backends: the in-process lock-free queues and the shm
// SPSC rings — each behind Machine::Config's transport knob, the rings in
// loopback mode (nprocs == 1, every cross-PE send over the wire inside one
// process: the tsan-visible leg) and in true multi-process mode
// (Machine::run forks; only cross-process sends hit the wire). The battery checks what a machine layer must never get wrong:
// per-pair ordering, exactly-once delivery under seeded chaos
// delay/reorder, big-payload integrity through the chunk path, full
// migration storms (all three techniques, canary + address
// stability + bit-identical same-seed replay), and balanced quiescence /
// envelope books at shutdown (Machine::run itself asserts the latter).
//
// Fork-based legs are compiled out under ThreadSanitizer (MFC_TSAN): tsan
// does not follow forked children. Loopback legs keep the full wire path
// under tsan.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "chaos/storm.h"
#include "converse/machine.h"
#include "converse/quiescence.h"
#include "migrate/iso_thread.h"
#include "migrate/memalias_thread.h"
#include "migrate/migratable.h"
#include "migrate/stackcopy_thread.h"
#include "pup/pup.h"
#include "trace/metrics.h"
#include "util/digest.h"
#include "util/rng.h"

namespace {

namespace cv = mfc::converse;
using mfc::fnv1a;
using mfc::fnv1a_mix;
using mfc::kFnvOffset;
using mfc::SplitMix64;
using Transport = cv::Machine::Config::Transport;

constexpr Transport kBackends[] = {Transport::kInProc, Transport::kShm};
const char* backend_name(Transport t) {
  return t == Transport::kShm ? "shm" : "inproc";
}

cv::Machine::Config base_config(Transport t, int npes, int nprocs) {
  cv::Machine::Config mc;
  mc.npes = npes;
  mc.nprocs = nprocs;
  mc.transport = t;
  mc.iso_slot_bytes = 16 * 1024;
  mc.iso_slots_per_pe = 64;
  return mc;
}

std::uint64_t mix2(std::uint64_t a, std::uint64_t b) {
  SplitMix64 r(a ^ (b + 0x9e3779b97f4a7c15ULL));
  return r.next();
}

void fill_pattern(unsigned char* p, std::size_t n, std::uint64_t key) {
  SplitMix64 r(key);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<unsigned char>(r.next());
  }
}

bool check_pattern(const unsigned char* p, std::size_t n, std::uint64_t key) {
  SplitMix64 r(key);
  for (std::size_t i = 0; i < n; ++i) {
    if (p[i] != static_cast<unsigned char>(r.next())) return false;
  }
  return true;
}

// ---- Ordering / exactly-once battery ---------------------------------------
//
// Every PE floods every other PE with sequenced messages. Receivers verify
// per-(src, dest) FIFO (no chaos) or exactly-once completeness (chaos
// delay on: order may legally invert, identity may not). All verdicts
// travel to PE 0 as messages, so the multi-process legs report through the
// parent — per-process globals on child PEs are invisible to the test body.

struct SeqMsg {
  std::int32_t src = 0;
  std::int32_t seq = 0;
  void pup(mfc::pup::Er& p) { p | src | seq; }
};

struct SeqState {
  int npes = 0;
  int per_pair = 0;
  bool expect_fifo = true;
  // Per-process receive books: [dest][src] → next expected seq (FIFO) or
  // received count (chaos). Only this process's PEs' rows are touched.
  std::vector<std::vector<std::int32_t>> next_seq;
  std::vector<std::vector<std::vector<bool>>> seen;  // [dest][src][seq]
  std::atomic<std::uint64_t> local_violations{0};
  // PE0 (parent process) totals.
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> pes_reported{0};
};
SeqState* g_seq = nullptr;

cv::HandlerId h_seq, h_seq_report;

void ensure_seq_handlers() {
  static std::once_flag once;
  std::call_once(once, [] {
    h_seq = cv::register_handler([](cv::Message&& m) {
      SeqState* s = g_seq;
      const auto msg = m.as<SeqMsg>();
      const int dest = cv::my_pe();
      bool bad = false;
      if (s->expect_fifo) {
        bad = s->next_seq[dest][msg.src] != msg.seq;
        s->next_seq[dest][msg.src] = msg.seq + 1;
      } else {
        const std::size_t q = static_cast<std::size_t>(msg.seq);
        bad = s->seen[dest][msg.src][q];  // duplicate delivery
        s->seen[dest][msg.src][q] = true;
        s->next_seq[dest][msg.src] += 1;  // count received
      }
      if (bad) s->local_violations.fetch_add(1, std::memory_order_relaxed);
    });
    h_seq_report = cv::register_handler([](cv::Message&& m) {
      // PE0: one report per PE {violations on that PE's rows}.
      g_seq->violations.fetch_add(m.as<std::uint64_t>(),
                                  std::memory_order_relaxed);
      g_seq->pes_reported.fetch_add(1, std::memory_order_relaxed);
    });
  });
}

void seq_entry(int pe) {
  SeqState* s = g_seq;
  for (int seq = 0; seq < s->per_pair; ++seq) {
    for (int dest = 0; dest < s->npes; ++dest) {
      if (dest == pe) continue;
      cv::send_value(dest, h_seq, SeqMsg{pe, seq});
    }
  }
  cv::wait_quiescence();
  // Everything sent everywhere is delivered: audit this PE's receive rows.
  std::uint64_t bad = 0;
  for (int src = 0; src < s->npes; ++src) {
    if (src == pe) continue;
    if (s->next_seq[pe][src] != s->per_pair) ++bad;
    if (!s->expect_fifo) {
      for (int q = 0; q < s->per_pair; ++q) {
        if (!s->seen[pe][src][static_cast<std::size_t>(q)]) ++bad;
      }
    }
  }
  cv::send_value(0, h_seq_report, bad);
  // The handler-observed violations live in this process; ship them exactly
  // once per process (the PE with id % ppn == 0 reports the whole count).
  cv::barrier();
  if (pe % (s->npes / cv::num_procs()) == 0) {
    cv::send_value(0, h_seq_report,
                   s->local_violations.exchange(0, std::memory_order_relaxed));
  }
  cv::wait_quiescence();
}

void run_seq_battery(Transport t, int nprocs, bool chaos_delay,
                     std::uint64_t seed) {
  const int npes = 4;
  const int per_pair = 200;
  ensure_seq_handlers();
  auto s = std::make_unique<SeqState>();
  s->npes = npes;
  s->per_pair = per_pair;
  s->expect_fifo = !chaos_delay;
  s->next_seq.assign(npes, std::vector<std::int32_t>(npes, 0));
  s->seen.assign(npes, std::vector<std::vector<bool>>(
                           npes, std::vector<bool>(per_pair, false)));
  g_seq = s.get();

  cv::Machine::Config mc = base_config(t, npes, nprocs);
  if (chaos_delay) {
    mc.chaos.enabled = true;
    mc.chaos.seed = seed;
    mc.chaos.delivery_delay = 0.25;
    mc.chaos.max_delay_ticks = 16;
  }
  cv::Machine::run(mc, seq_entry);

  EXPECT_EQ(s->violations.load(), 0u)
      << backend_name(t) << " nprocs=" << nprocs
      << (chaos_delay ? " (chaos)" : "");
  // One audit report per PE plus one violation report per process.
  EXPECT_EQ(s->pes_reported.load(),
            static_cast<std::uint64_t>(npes + nprocs));
  const cv::PoolStats ps = cv::pool_stats();
  EXPECT_EQ(ps.allocated, ps.freed);
  g_seq = nullptr;
}

TEST(TransportConformance, OrderingPerPairLoopback) {
  for (Transport t : kBackends) {
    SCOPED_TRACE(backend_name(t));
    run_seq_battery(t, 1, /*chaos_delay=*/false, 1);
  }
}

TEST(TransportConformance, ExactlyOnceUnderSeededChaosLoopback) {
  for (Transport t : kBackends) {
    SCOPED_TRACE(backend_name(t));
    run_seq_battery(t, 1, /*chaos_delay=*/true, 0xC4A05 + 17);
  }
}

#ifndef MFC_TSAN
TEST(TransportConformance, OrderingPerPairMultiProcess) {
  run_seq_battery(Transport::kShm, 2, /*chaos_delay=*/false, 1);
}
#endif

// ---- Big-payload round trip -------------------------------------------------
//
// PE 0 ships a 1 MiB patterned payload as a multi-span message to the last
// PE, which echoes its FNV digest (and length) back. Exercises the shm
// chunk reassembly (1 MiB through 64 KiB rings) with on_consumed set, so
// the last chunk's publish waits for the callback.

struct BigState {
  std::size_t len = 0;
  std::uint64_t digest = 0;
  std::atomic<std::uint64_t> echoed_digest{0};
  std::atomic<int> done{0};
};
BigState* g_big = nullptr;

cv::HandlerId h_big, h_big_echo;

void ensure_big_handlers() {
  static std::once_flag once;
  std::call_once(once, [] {
    h_big = cv::register_handler([](cv::Message&& m) {
      // Echo digest + length; payload itself stays here (child process).
      std::uint64_t d = fnv1a(m.payload.data(), m.payload.size());
      d = fnv1a_mix(d, m.payload.size());
      cv::send_value(0, h_big_echo, d);
    });
    h_big_echo = cv::register_handler([](cv::Message&& m) {
      g_big->echoed_digest.store(m.as<std::uint64_t>());
      g_big->done.store(1);
    });
  });
}

void big_entry(int pe) {
  BigState* s = g_big;
  const int dest = cv::num_pes() - 1;
  if (pe == 0) {
    // Patterned payload sliced into 7 deliberately uneven spans.
    std::vector<char> buf(s->len);
    fill_pattern(reinterpret_cast<unsigned char*>(buf.data()), buf.size(),
                 0xB16B00B5);
    std::uint64_t expect = fnv1a(buf.data(), buf.size());
    expect = fnv1a_mix(expect, buf.size());
    s->digest = expect;
    std::vector<cv::SendSpan> spans;
    std::size_t off = 0;
    const std::size_t cuts[] = {1,       4095,    4096,   65536,
                                 100000, 333333, s->len};
    for (std::size_t c : cuts) {
      spans.push_back({buf.data() + off, c - off});
      off = c;
    }
    bool consumed = false;
    cv::send_spans(dest, h_big, spans.data(), spans.size(),
                   [&consumed] { consumed = true; });
    // The send contract: spans fully consumed before return — safe to
    // scribble over the buffer now.
    EXPECT_TRUE(consumed);
    std::memset(buf.data(), 0xEE, buf.size());
  }
  cv::wait_quiescence();
}

void run_big_battery(Transport t, int nprocs) {
  const int npes = 4;
  ensure_big_handlers();
  auto s = std::make_unique<BigState>();
  s->len = 1024 * 1024;
  g_big = s.get();

  cv::Machine::Config mc = base_config(t, npes, nprocs);
  cv::Machine::run(mc, big_entry);

  EXPECT_EQ(s->done.load(), 1);
  EXPECT_EQ(s->echoed_digest.load(), s->digest)
      << backend_name(t) << " nprocs=" << nprocs;
  if (t == Transport::kShm) {
    // 1 MiB through 64 KiB rings must have chunked.
    EXPECT_GT(mfc::metrics::total(mfc::metrics::Counter::kWireChunks), 0u);
  }
  g_big = nullptr;
}

TEST(TransportConformance, BigPayloadLoopback) {
  for (Transport t : kBackends) {
    SCOPED_TRACE(backend_name(t));
    run_big_battery(t, 1);
  }
}

#ifndef MFC_TSAN
TEST(TransportConformance, BigPayloadMultiProcess) {
  run_big_battery(Transport::kShm, 2);
}
#endif

// ---- Lost wake-up: strictly alternating ping-pong ---------------------------
//
// PE 0 and PE 1 bounce one 64-byte message back and forth. Only one message
// is ever in flight, so a hop often lands on a receiver that has just gone
// to sleep: a PE parked on its shm wake word. Nothing sleeps with a
// timeout, so a
// lost wake-up shows up as a hang at the test deadline rather than as
// added latency.

constexpr int kPingPongTrips = 20000;

struct Ping64 {
  std::uint64_t seq = 0;
  char pad[56] = {};  // 64 payload bytes on the wire
  void pup(mfc::pup::Er& p) {
    p | seq;
    p.bytes(pad, sizeof pad);
  }
};

struct PingState {
  std::uint64_t trips = kPingPongTrips;
  /// Each side holds its reply this long, so the peer has parked (not just
  /// spun) by the time the reply lands: every hop then needs its wake-up.
  int pause_us = 0;
  std::uint64_t next = 0;  ///< PE 0: the sequence number it expects back
  std::uint64_t out_of_order = 0;
  mfc::ult::Thread* main = nullptr;
};
PingState* g_ping = nullptr;

cv::HandlerId h_serve, h_return;

void hold_reply(int pause_us) {
  if (pause_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(pause_us));
  }
}

void ensure_ping_handlers() {
  static std::once_flag once;
  std::call_once(once, [] {
    h_serve = cv::register_handler([](cv::Message&& m) {
      hold_reply(g_ping->pause_us);
      cv::send_value(0, h_return, m.as<Ping64>());  // PE 1: echo
    });
    h_return = cv::register_handler([](cv::Message&& m) {
      PingState* s = g_ping;
      if (m.as<Ping64>().seq != s->next) ++s->out_of_order;
      hold_reply(s->pause_us);
      if (++s->next < s->trips) {
        Ping64 ping;
        ping.seq = s->next;
        cv::send_value(1, h_serve, ping);
      } else {
        cv::ready_thread(s->main);
      }
    });
  });
}

void run_pingpong(Transport t, int nprocs, int trips = kPingPongTrips,
                  int pause_us = 0) {
  ensure_ping_handlers();
  auto s = std::make_unique<PingState>();
  s->trips = trips;
  s->pause_us = pause_us;
  g_ping = s.get();
  cv::Machine::run(base_config(t, 2, nprocs), [](int pe) {
    if (pe != 0) return;
    g_ping->main = cv::pe_scheduler().running();
    cv::send_value(1, h_serve, Ping64{});
    cv::pe_scheduler().suspend();
  });
  EXPECT_EQ(s->next, static_cast<std::uint64_t>(trips))
      << backend_name(t) << " nprocs=" << nprocs;
  EXPECT_EQ(s->out_of_order, 0u);
  g_ping = nullptr;
}

TEST(TransportConformance, PingPongLosesNoWakeUpLoopback) {
  run_pingpong(Transport::kShm, 1);
}

#ifndef MFC_TSAN
TEST(TransportConformance, PingPongLosesNoWakeUpMultiProcess) {
  run_pingpong(Transport::kShm, 2);
}
#endif

// The same ping-pong with every reply held back past the receiver's
// pre-park spin, so each hop lands on a parked PE and needs its futex
// wake: 2 × 6144 parked hops. A wake path that loses one wake in 4096
// hangs these tests in all but a few runs in a thousand.
constexpr int kParkedTrips = 6144;
constexpr int kParkedPauseUs = 60;

TEST(TransportConformance, ParkedPingPongLosesNoWakeUpLoopback) {
  run_pingpong(Transport::kShm, 1, kParkedTrips, kParkedPauseUs);
}

#ifndef MFC_TSAN
TEST(TransportConformance, ParkedPingPongLosesNoWakeUpMultiProcess) {
  run_pingpong(Transport::kShm, 2, kParkedTrips, kParkedPauseUs);
}
#endif

// ---- Two-way backpressure through full rings ---------------------------------
//
// Both PEs flood each other with 1 KiB messages through 4 KiB shm rings
// before either receives anything, so each soon blocks on a full ring
// toward the other. With one PE per process nobody else can drain: a
// sender waiting out a full ring must deliver its own process's inbound
// rings meanwhile, or the two wait on each other forever.

constexpr int kFloodMsgs = 2000;

struct FloodState {
  std::atomic<int> received{0};      ///< this process's deliveries
  std::atomic<int> pes_reported{0};  ///< PE 0: reports from process 1
  std::atomic<int> total{0};         ///< PE 0: process 1's deliveries
};
FloodState* g_flood = nullptr;

cv::HandlerId h_flood, h_flood_report;

struct Kib {
  char bytes[1024] = {};
  void pup(mfc::pup::Er& p) { p.bytes(bytes, sizeof bytes); }
};

void ensure_flood_handlers() {
  static std::once_flag once;
  std::call_once(once, [] {
    h_flood = cv::register_handler([](cv::Message&&) {
      g_flood->received.fetch_add(1, std::memory_order_relaxed);
    });
    h_flood_report = cv::register_handler([](cv::Message&& m) {
      g_flood->total.fetch_add(m.as<int>(), std::memory_order_relaxed);
      g_flood->pes_reported.fetch_add(1, std::memory_order_relaxed);
    });
  });
}

void run_two_way_flood(int nprocs) {
  ensure_flood_handlers();
  auto s = std::make_unique<FloodState>();
  g_flood = s.get();
  cv::Machine::Config mc = base_config(Transport::kShm, 2, nprocs);
  mc.shm_ring_bytes = 4096;
  cv::Machine::run(mc, [](int pe) {
    const Kib cell;
    for (int i = 0; i < kFloodMsgs; ++i) cv::send_value(1 - pe, h_flood, cell);
    cv::wait_quiescence();
    // PE 1's deliveries were counted in its own process: ship them home.
    if (pe == 1 && cv::num_procs() == 2) {
      cv::send_value(0, h_flood_report, g_flood->received.load());
    }
    cv::wait_quiescence();
  });
  EXPECT_EQ(s->pes_reported.load(), nprocs == 2 ? 1 : 0);
  EXPECT_EQ(s->total.load() + s->received.load(), 2 * kFloodMsgs)
      << "nprocs=" << nprocs;
  g_flood = nullptr;
}

TEST(TransportConformance, TwoWayFullRingsDrainEachOtherLoopback) {
  run_two_way_flood(1);
}

#ifndef MFC_TSAN
TEST(TransportConformance, TwoWayFullRingsDrainEachOtherMultiProcess) {
  run_two_way_flood(2);
}
#endif

// ---- A respawned incarnation boots dead and still hears its revives ---------
//
// Process 1 (PEs 2 and 3) is SIGKILLed and respawned through the machine's
// process tier. The respawn boots with both PEs dead, so nothing there runs
// a handler until a revive frame lands — and on the shm wire no relay thread
// exists to receive it: the dead PEs' own loops must drain it. PE 0 then
// pings both and expects the answers to come from generation 1.

#ifndef MFC_TSAN
struct RebirthState {
  std::atomic<int> answers{0};
  std::atomic<int> reborn{0};  ///< answers sent by a respawned incarnation
  mfc::ult::Thread* coordinator = nullptr;
  std::mutex mu;
  std::unordered_map<int, mfc::ult::Thread*> parked;  ///< local mains
  std::unordered_set<int> finished;
};
RebirthState* g_rb = nullptr;

cv::HandlerId h_rb_ping, h_rb_answer, h_rb_finish;

void ensure_rebirth_handlers() {
  static std::once_flag once;
  std::call_once(once, [] {
    h_rb_ping = cv::register_handler([](cv::Message&&) {
      cv::send_value(0, h_rb_answer, std::int32_t{cv::respawn_generation()});
    });
    h_rb_answer = cv::register_handler([](cv::Message&& m) {
      RebirthState* s = g_rb;
      if (m.as<std::int32_t>() > 0) s->reborn.fetch_add(1);
      if (s->answers.fetch_add(1) + 1 == 2) cv::ready_thread(s->coordinator);
    });
    h_rb_finish = cv::register_handler([](cv::Message&&) {
      RebirthState* s = g_rb;
      mfc::ult::Thread* main = nullptr;
      {
        std::lock_guard<std::mutex> lock(s->mu);
        auto it = s->parked.find(cv::my_pe());
        if (it != s->parked.end()) {
          main = it->second;
          s->parked.erase(it);
        } else {
          s->finished.insert(cv::my_pe());
        }
      }
      if (main != nullptr) cv::ready_thread(main);
    });
  });
}

void rebirth_entry(int pe) {
  RebirthState* s = g_rb;
  if (pe != 0) {
    // Every incarnation's mains wait for the finish order.
    {
      std::lock_guard<std::mutex> lock(s->mu);
      if (s->finished.count(pe) != 0) return;
      s->parked[pe] = cv::pe_scheduler().running();
    }
    mfc::ult::suspend();
    return;
  }
  s->coordinator = cv::pe_scheduler().running();
  cv::kill_proc(1);
  while (cv::take_dead_proc() != 1) mfc::ult::yield();
  cv::request_respawn(1);
  while (!cv::take_respawn_complete(1)) mfc::ult::yield();
  cv::revive_pe(2);
  cv::revive_pe(3);
  cv::send_value(2, h_rb_ping, 0);
  cv::send_value(3, h_rb_ping, 0);
  mfc::ult::suspend();  // until both answers are in
  for (int p = 1; p < cv::num_pes(); ++p) cv::send_value(p, h_rb_finish, 0);
}

TEST(TransportConformance, RespawnedAllDeadProcessReceivesItsRevives) {
  ensure_rebirth_handlers();
  auto s = std::make_unique<RebirthState>();
  g_rb = s.get();
  cv::FtMachineHooks hooks;
  hooks.pe0_tick = [] {};
  hooks.on_revive = [](int) {};
  cv::set_ft_machine_hooks(std::move(hooks));
  cv::Machine::run(base_config(Transport::kShm, 4, 2), rebirth_entry);
  cv::clear_ft_machine_hooks();
  EXPECT_EQ(s->answers.load(), 2);
  EXPECT_EQ(s->reborn.load(), 2);
  g_rb = nullptr;
}
#endif

// ---- Quiescence on an idle machine -----------------------------------------
//
// A quiescence wait sends no message: the waiting PE reads every PE's
// control line twice (converse/quiescence.h). On an idle machine that
// wakes nobody, so a hundred waits on PE 0 leave every other PE's progress
// count — bumped whenever a PE leaves idle or loops while busy — where it
// was, in both processes.

#ifndef MFC_TSAN
constexpr int kIdlePes = 8;
cv::HandlerId h_idle_finish = 0;
bool g_idle_finished[kIdlePes];                ///< per PE: finish arrived
mfc::ult::Thread* g_idle_main[kIdlePes];       ///< per PE: its parked main

TEST(TransportConformance, IdleQuiescenceWaitsWakeNoOtherPe) {
  constexpr int kPes = kIdlePes;
  static std::uint64_t before[kPes], after[kPes];
  if (h_idle_finish == 0) {
    h_idle_finish = cv::register_handler([](cv::Message&&) {
      const int me = cv::my_pe();
      g_idle_finished[me] = true;
      if (g_idle_main[me] != nullptr) cv::ready_thread(g_idle_main[me]);
    });
  }
  cv::Machine::run(base_config(Transport::kShm, kPes, 2), [](int pe) {
    cv::barrier();
    if (pe != 0) {
      while (!g_idle_finished[pe]) {
        g_idle_main[pe] = cv::pe_scheduler().running();
        mfc::ult::suspend();
      }
      return;
    }
    cv::wait_quiescence();  // the barrier's releases are all dispatched
    for (int p = 0; p < kPes; ++p) {
      before[p] = mfc::converse::qd::line(p).progress.load();
    }
    for (int i = 0; i < 100; ++i) cv::wait_quiescence();
    for (int p = 0; p < kPes; ++p) {
      after[p] = mfc::converse::qd::line(p).progress.load();
    }
    for (int p = 1; p < kPes; ++p) cv::send_value(p, h_idle_finish, 0);
  });
  for (int p = 1; p < kPes; ++p) {
    EXPECT_EQ(after[p], before[p]) << "a wait on PE 0 woke PE " << p;
  }
  EXPECT_GT(after[0], before[0]) << "PE 0 ran its waits";
}
#endif

// ---- Migration mini-storm ---------------------------------------------------
//
// A compact cross-process migration storm: workers on all three techniques
// migrate along seed-derived itineraries; every hop ships the thread as a
// scatter-gather manifest (send_spans with the destructive pack epilogue in
// on_consumed). Workers verify stack canaries and address stability after
// every hop and carry a running digest on their own migrating stacks; all
// verdicts funnel to PE 0 as messages. The final digest is a pure function
// of (seed, workers, rounds, npes) — bit-identical across runs and
// backends.

struct MsDock {
  std::int32_t wid = 0;
  std::int32_t round = 0;
  void pup(mfc::pup::Er& p) { p | wid | round; }
};

struct MsShip {
  std::int32_t wid = 0;
  std::int32_t round = 0;
  std::vector<char> wire;
  void pup(mfc::pup::Er& p) { p | wid | round | wire; }
};

struct MsDone {
  std::int32_t wid = 0;
  std::uint64_t digest = 0;
  std::uint64_t failures = 0;
  void pup(mfc::pup::Er& p) { p | wid | digest | failures; }
};

struct MsState {
  std::uint64_t seed = 1;
  int npes = 4;
  int workers = 6;
  int rounds = 3;
  std::size_t stack_bytes = 16 * 1024;

  // Per-process registries (mirrors of the full storm driver's).
  std::mutex mu;
  std::unordered_map<int, mfc::migrate::MigratableThread*> threads;
  struct Arrival {
    mfc::ult::Thread* t;
    std::int32_t round;
  };
  std::unordered_map<int, std::vector<Arrival>> arrived;  // per local PE
  std::unordered_map<int, mfc::ult::Thread*> parked_mains;
  /// PEs whose h_ms_finish arrived before their main parked: a PE thread that
  /// starts late can dispatch it before its main first runs.
  std::unordered_set<int> finished;

  // PE 0 (parent) coordinator state.
  int arrivals = 0;
  int dones = 0;
  mfc::ult::Thread* coordinator = nullptr;
  bool waiting_arrivals = false;
  bool waiting_dones = false;
  std::uint64_t done_digest = kFnvOffset;
  std::uint64_t failures = 0;
};
MsState* g_ms = nullptr;

int ms_dest(const MsState& s, int wid, int round) {
  return static_cast<int>(
      mix2(s.seed ^ 0xD857,
           static_cast<std::uint64_t>(wid) * 1000003ULL +
               static_cast<std::uint64_t>(round)) %
      static_cast<std::uint64_t>(s.npes));
}

std::uint64_t ms_pat_key(const MsState& s, int wid, int r) {
  return mix2(s.seed ^ 0x57AC4, static_cast<std::uint64_t>(wid) * 7919ULL +
                                    static_cast<std::uint64_t>(r));
}

cv::HandlerId h_ms_dock, h_ms_ship, h_ms_arrived, h_ms_release, h_ms_done,
    h_ms_finish;

// wid arrives as a lambda capture and from then on lives in this frame —
// i.e. on the migrating stack. Keying identity off ult thread ids would be
// wrong here: the id counter is forked, so workers born in different
// processes can collide.
void ms_worker_body(int wid) {
  MsState* s = g_ms;
  unsigned char canary[192];
  const auto canary_addr = reinterpret_cast<std::uintptr_t>(&canary[0]);
  fill_pattern(canary, sizeof canary, ms_pat_key(*s, wid, 0));

  std::uint64_t digest = kFnvOffset;
  std::uint64_t failures = 0;
  for (int r = 0; r < s->rounds; ++r) {
    const int dest = ms_dest(*s, wid, r);
    digest = fnv1a_mix(digest, static_cast<std::uint64_t>(wid));
    digest = fnv1a_mix(digest, static_cast<std::uint64_t>(r));
    digest = fnv1a_mix(digest, static_cast<std::uint64_t>(dest));

    cv::send_value(cv::my_pe(), h_ms_dock, MsDock{wid, r});
    mfc::ult::suspend();

    // Awake on the destination — possibly in a different process.
    if (cv::my_pe() != dest) ++failures;
    if (reinterpret_cast<std::uintptr_t>(&canary[0]) != canary_addr) {
      ++failures;  // the paper's core guarantee: same address everywhere
    }
    if (!check_pattern(canary, sizeof canary, ms_pat_key(*s, wid, r))) {
      ++failures;
    }
    fill_pattern(canary, sizeof canary, ms_pat_key(*s, wid, r + 1));
  }
  cv::send_value(0, h_ms_done, MsDone{wid, digest, failures});
}

mfc::migrate::MigratableThread* ms_make_worker(const MsState& s, int wid,
                                               int pe) {
  const auto body = [wid] { ms_worker_body(wid); };
  switch (wid % 3) {
    case 0:
      return new mfc::migrate::StackCopyThread(body, s.stack_bytes);
    case 1:
      return new mfc::migrate::IsoThread(body, pe, s.stack_bytes);
    default:
      return new mfc::migrate::MemAliasThread(body, s.stack_bytes);
  }
}

void ensure_ms_handlers() {
  static std::once_flag once;
  std::call_once(once, [] {
    h_ms_dock = cv::register_handler([](cv::Message&& m) {
      MsState* s = g_ms;
      const auto d = m.as<MsDock>();
      mfc::migrate::MigratableThread* t;
      {
        std::lock_guard<std::mutex> lock(s->mu);
        t = s->threads.at(d.wid);
        s->threads.erase(d.wid);
      }
      // Scatter-gather ship, exactly the storm driver's path: ShipMsg-shaped
      // prefix + manifest spans, destructive epilogue in on_consumed.
      mfc::migrate::ImageManifest man = t->pack_manifest(true);
      std::vector<char> scratch;
      const auto img_spans = man.wire_spans(&scratch);
      std::size_t wire_len = 0;
      for (const auto& r : img_spans) wire_len += r.len;

      std::int32_t wid = d.wid, round = d.round;
      mfc::pup::Sizer sz;
      sz | wid | round;
      std::vector<char> prefix(sz.size() + sizeof(std::size_t));
      mfc::pup::MemPacker p(prefix.data(), prefix.size());
      p | wid | round;
      std::size_t len_word = wire_len;
      p.bytes(&len_word, sizeof len_word);

      std::vector<cv::SendSpan> spans;
      spans.reserve(img_spans.size() + 1);
      spans.push_back({prefix.data(), prefix.size()});
      for (const auto& r : img_spans) spans.push_back({r.data, r.len});

      cv::send_spans(ms_dest(*s, d.wid, d.round), h_ms_ship, spans.data(),
                     spans.size(), [t] {
                       t->complete_pack();
                       delete t;
                     });
    });
    h_ms_ship = cv::register_handler([](cv::Message&& m) {
      MsState* s = g_ms;
      auto ship = m.as<MsShip>();
      mfc::migrate::ImageManifest image;
      MFC_CHECK(mfc::migrate::ImageManifest::decode(ship.wire, &image) ==
                mfc::migrate::CodecError::kOk);
      auto* t = mfc::migrate::MigratableThread::unpack(image, cv::my_pe());
      t->set_delete_on_exit(true);
      {
        std::lock_guard<std::mutex> lock(s->mu);
        s->threads[ship.wid] = t;
        s->arrived[cv::my_pe()].push_back({t, ship.round});
      }
      cv::send_value(0, h_ms_arrived, std::int32_t{ship.round});
    });
    h_ms_arrived = cv::register_handler([](cv::Message&&) {
      MsState* s = g_ms;
      if (++s->arrivals == s->workers && s->waiting_arrivals) {
        s->waiting_arrivals = false;
        cv::ready_thread(s->coordinator);
      }
    });
    h_ms_release = cv::register_handler([](cv::Message&& m) {
      MsState* s = g_ms;
      const auto round = m.as<std::int32_t>();
      std::vector<mfc::ult::Thread*> batch;
      {
        std::lock_guard<std::mutex> lock(s->mu);
        auto& list = s->arrived[cv::my_pe()];
        for (auto it = list.begin(); it != list.end();) {
          if (it->round == round) {
            batch.push_back(it->t);
            it = list.erase(it);
          } else {
            ++it;
          }
        }
      }
      for (auto* t : batch) cv::ready_thread(t);
    });
    h_ms_done = cv::register_handler([](cv::Message&& m) {
      MsState* s = g_ms;
      const auto done = m.as<MsDone>();
      // Order-independent fold: arrival order of done messages varies.
      s->done_digest += mix2(static_cast<std::uint64_t>(done.wid) + 1,
                             done.digest);
      s->failures += done.failures;
      if (++s->dones == s->workers && s->waiting_dones) {
        s->waiting_dones = false;
        cv::ready_thread(s->coordinator);
      }
    });
    h_ms_finish = cv::register_handler([](cv::Message&&) {
      MsState* s = g_ms;
      mfc::ult::Thread* main = nullptr;
      {
        std::lock_guard<std::mutex> lock(s->mu);
        auto it = s->parked_mains.find(cv::my_pe());
        if (it != s->parked_mains.end()) {
          main = it->second;
          s->parked_mains.erase(it);
        } else {
          s->finished.insert(cv::my_pe());
        }
      }
      if (main != nullptr) cv::ready_thread(main);
    });
  });
}

void ms_entry(int pe) {
  MsState* s = g_ms;
  for (int w = 0; w < s->workers; ++w) {
    if (w % s->npes != pe) continue;
    auto* t = ms_make_worker(*s, w, pe);
    t->set_delete_on_exit(true);
    {
      std::lock_guard<std::mutex> lock(s->mu);
      s->threads[w] = t;
    }
    cv::ready_thread(t);
  }
  if (pe != 0) {
    {
      std::lock_guard<std::mutex> lock(s->mu);
      if (s->finished.count(pe) != 0) return;
      s->parked_mains[pe] = cv::pe_scheduler().running();
    }
    mfc::ult::suspend();  // until h_ms_finish
    return;
  }

  // PE 0 coordinates the rounds: wait all arrivals, release the batch.
  s->coordinator = cv::pe_scheduler().running();
  for (int r = 0; r < s->rounds; ++r) {
    if (s->arrivals < s->workers) {
      s->waiting_arrivals = true;
      mfc::ult::suspend();
    }
    s->arrivals = 0;
    cv::broadcast(h_ms_release, mfc::pup::to_bytes(std::int32_t{r}));
  }
  if (s->dones < s->workers) {
    s->waiting_dones = true;
    mfc::ult::suspend();
  }
  cv::broadcast(h_ms_finish, {});
  cv::wait_quiescence();
}

struct MsResult {
  std::uint64_t digest = 0;
  std::uint64_t failures = 0;
};

MsResult run_mini_storm(Transport t, int npes, int nprocs, int workers,
                        int rounds, std::uint64_t seed) {
  ensure_ms_handlers();
  auto s = std::make_unique<MsState>();
  s->seed = seed;
  s->npes = npes;
  s->workers = workers;
  s->rounds = rounds;
  g_ms = s.get();

  cv::Machine::Config mc = base_config(t, npes, nprocs);
  cv::Machine::run(mc, ms_entry);

  MsResult out{s->done_digest, s->failures};
  EXPECT_EQ(s->dones, workers);
  const cv::PoolStats ps = cv::pool_stats();
  EXPECT_EQ(ps.allocated, ps.freed);
  g_ms = nullptr;
  return out;
}

TEST(TransportConformance, MiniStormAllBackendsLoopbackReplayIdentical) {
  // Same seed, both backends, two runs each: zero failures and one digest.
  std::uint64_t expect = 0;
  for (Transport t : kBackends) {
    SCOPED_TRACE(backend_name(t));
    const MsResult a = run_mini_storm(t, 4, 1, 6, 3, 0x5EED1);
    const MsResult b = run_mini_storm(t, 4, 1, 6, 3, 0x5EED1);
    EXPECT_EQ(a.failures, 0u);
    EXPECT_EQ(b.failures, 0u);
    EXPECT_EQ(a.digest, b.digest) << "same-seed replay diverged";
    if (expect == 0) expect = a.digest;
    EXPECT_EQ(a.digest, expect) << "digest differs across backends";
  }
}

#ifndef MFC_TSAN
TEST(TransportConformance, MiniStormMultiProcessBothWires) {
  // Cross-process migration with all three techniques: the isomalloc lease,
  // the inherited common arena, and the rebuilt memalias backing all in
  // play. Digest must match the in-process value for the same (seed,
  // shape).
  const MsResult ref = run_mini_storm(Transport::kInProc, 4, 1, 6, 3, 0xAB1E);
  EXPECT_EQ(ref.failures, 0u);
  const MsResult r = run_mini_storm(Transport::kShm, 4, 2, 6, 3, 0xAB1E);
  EXPECT_EQ(r.failures, 0u);
  EXPECT_EQ(r.digest, ref.digest);
}

TEST(TransportConformance, Acceptance64Pe4ProcStormReplays) {
  // The acceptance shape: 64 PEs across 4 processes, all three techniques,
  // run twice — bit-identical digests. Kept to few rounds/workers because
  // CI hosts may have a single core; the topology, not the volume, is the
  // point.
  const MsResult a = run_mini_storm(Transport::kShm, 64, 4, 24, 3, 0xACC3);
  const MsResult b = run_mini_storm(Transport::kShm, 64, 4, 24, 3, 0xACC3);
  EXPECT_EQ(a.failures, 0u);
  EXPECT_EQ(b.failures, 0u);
  EXPECT_EQ(a.digest, b.digest);
}
#endif

// ---- Full storm driver over the wire ---------------------------------------
//
// The legacy storm driver (chare-array traffic, invariant checkers, FT
// kill/recover) in loopback wire mode: every cross-PE message of the whole
// stack rides the rings. The FT leg keeps chaos kill storms in the battery
// — PE death, detection from its standing line, rollback — on the wire.

TEST(TransportConformance, StormDriverLoopbackWires) {
  mfc::chaos::StormOptions opt;
  opt.seed = 77;
  opt.npes = 4;
  opt.workers = 6;
  opt.rounds = 3;
  opt.transport = 1;
  const mfc::chaos::StormReport rep = mfc::chaos::run_storm(opt);
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.thread_migrations,
            static_cast<std::uint64_t>(opt.workers * opt.rounds));
}

#ifndef MFC_TSAN
TEST(TransportConformance, FtKillStormOverShmLoopback) {
  mfc::chaos::StormOptions opt;
  opt.seed = 31;
  opt.npes = 4;
  opt.workers = 6;
  opt.rounds = 6;
  opt.transport = 1;
  opt.ft_checkpoint_every = 2;
  opt.ft_kill_every = 2;
  opt.ft_timeout_us = 20000;
  const mfc::chaos::StormReport rep = mfc::chaos::run_storm(opt);
  EXPECT_TRUE(rep.clean());
  EXPECT_GT(rep.ft_kills, 0u);
  EXPECT_EQ(rep.ft_recoveries, rep.ft_kills);
}
#endif

}  // namespace
