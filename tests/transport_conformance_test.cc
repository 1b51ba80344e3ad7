// Transport conformance battery (labeled transport).
//
// One battery, two backends: the in-process lock-free queues and the shm
// SPSC rings — each behind Machine::Config's transport knob, the rings in
// loopback mode (nprocs == 1, every cross-PE send over the wire inside one
// process: the tsan-visible leg) and in true multi-process mode
// (Machine::run forks; only cross-process sends hit the wire). The battery
// checks what a machine layer must never get wrong: per-pair ordering,
// exactly-once delivery under seeded chaos delay/reorder, big-payload
// integrity through the chunk path, the migration storm (chaos::run_storm,
// all three techniques) across 2 and 4 processes with the report of its
// in-process run, handler ids that agree in every process, and balanced
// quiescence / envelope books at shutdown (Machine::run itself asserts the
// latter).
//
// Fork-based legs are compiled out under ThreadSanitizer (MFC_TSAN): tsan
// does not follow forked children. Loopback legs keep the full wire path
// under tsan.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "chaos/storm.h"
#include "converse/machine.h"
#include "converse/quiescence.h"
#include "pup/pup.h"
#include "trace/metrics.h"
#include "util/digest.h"
#include "util/rng.h"

namespace {

namespace cv = mfc::converse;
using mfc::fnv1a;
using mfc::fnv1a_mix;
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

void fill_pattern(unsigned char* p, std::size_t n, std::uint64_t key) {
  SplitMix64 r(key);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<unsigned char>(r.next());
  }
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
// respawn path. The respawn boots with both PEs dead, so nothing there runs
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

// ---- The storm across processes --------------------------------------------
//
// chaos::run_storm on the multi-process machine: workers on all three
// techniques migrate between processes (the isomalloc lease, the inherited
// common arena and each process's memory-alias pool all in play) next to
// the chare array's pings and element migrations, and every count and
// verdict of the report covers every process. The machine's shape never
// changes the result, so each run must match the in-process one.

mfc::chaos::StormOptions storm_shape(std::uint64_t seed, int npes,
                                     int workers, int nprocs) {
  mfc::chaos::StormOptions opt;
  opt.seed = seed;
  opt.npes = npes;
  opt.workers = workers;
  opt.rounds = 3;
  opt.nprocs = nprocs;
  opt.transport = nprocs > 1 ? 1 : 0;
  opt.iso_slots_per_pe = 64;
  return opt;
}

/// Runs `opt` and checks it clean and equal to the in-process `ref`.
void expect_storm_matches(const mfc::chaos::StormOptions& opt,
                          const mfc::chaos::StormReport& ref) {
  SCOPED_TRACE("nprocs=" + std::to_string(opt.nprocs));
  const mfc::chaos::StormReport r = mfc::chaos::run_storm(opt);
  EXPECT_TRUE(r.clean());
  EXPECT_EQ(r.thread_migrations,
            static_cast<std::uint64_t>(opt.workers * opt.rounds));
  EXPECT_EQ(r.workload_digest, ref.workload_digest);
  EXPECT_EQ(r.thread_migrations, ref.thread_migrations);
  EXPECT_EQ(r.wire_bytes, ref.wire_bytes);
  EXPECT_EQ(r.pings_delivered, ref.pings_delivered);
  EXPECT_EQ(r.element_migrations, ref.element_migrations);
  for (int t = 0; t < 3; ++t) {
    EXPECT_EQ(r.packs_by_technique[t], ref.packs_by_technique[t]);
  }
}

#ifndef MFC_TSAN
TEST(TransportConformance, MiniStormMultiProcessBothWires) {
  const mfc::chaos::StormReport ref =
      mfc::chaos::run_storm(storm_shape(0xAB1E, 4, 6, 1));
  ASSERT_TRUE(ref.clean());
  expect_storm_matches(storm_shape(0xAB1E, 4, 6, 2), ref);
}

TEST(TransportConformance, Acceptance64Pe4ProcStormReplays) {
  // The acceptance shape: 64 PEs across 4 processes, all three techniques,
  // run twice; both runs equal the 64-PE in-process run. Kept to few
  // rounds and workers because CI hosts may have a single core; the
  // topology, not the volume, is the point.
  const mfc::chaos::StormReport ref =
      mfc::chaos::run_storm(storm_shape(0xACC3, 64, 24, 1));
  ASSERT_TRUE(ref.clean());
  for (int run = 0; run < 2; ++run) {
    expect_storm_matches(storm_shape(0xACC3, 64, 24, 4), ref);
  }
}

/// Handler ids must agree in every process: a registration after a
/// multi-process machine has forked fails rather than hand out an id that
/// exists in one process only.
TEST(TransportConformanceDeathTest, RegistrationAfterTheForkFails) {
  EXPECT_DEATH(
      cv::Machine::run(base_config(Transport::kShm, 2, 2),
                       [](int) { cv::register_handler([](cv::Message&&) {}); }),
      "register_handler after a multi-process machine forked");
}
#endif

// ---- The storm in loopback mode ---------------------------------------------
//
// The storm driver (chare-array traffic, invariant checkers, FT
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
