// Google-benchmark microbenchmarks for the runtime's hot paths. These are
// not paper figures; they guard the constants the figures depend on
// (swap cost, scheduler overhead, allocator, serialization).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <mutex>
#include <vector>

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include "arch/context.h"
#include "bench_common.h"
#include "chaos/procstorm.h"
#include "chaos/storm.h"
#include "converse/machine.h"
#include "iso/heap.h"
#include "iso/region.h"
#include "migrate/checkpoint.h"
#include "migrate/iso_thread.h"
#include "migrate/manifest.h"
#include "migrate/migratable.h"
#include "pup/pup.h"
#include "sdag/retswitch.h"
#include "sdag/sdag.h"
#include "trace/hist.h"
#include "trace/trace.h"
#include "ult/scheduler.h"
#include "util/stats.h"
#include "util/timer.h"

namespace {

// ---- raw context swap (the Figure 10 routine) ----

mfc::arch::Context g_main, g_peer;

void peer(void*) {
  for (;;) mfc::arch::swap_context(&g_peer, &g_main);
}

void BM_RawSwap(benchmark::State& state) {
  static std::vector<char> stack(64 * 1024);
  g_peer = mfc::arch::make_context(stack.data(), stack.size(), peer, nullptr);
  for (auto _ : state) {
    mfc::arch::swap_context(&g_main, &g_peer);
  }
  state.SetItemsProcessed(state.iterations() * 2);  // two swaps per iter
}
BENCHMARK(BM_RawSwap);

// ---- scheduler-mediated yield (what Cth/AMPI pay per switch) ----

void BM_SchedulerYield(benchmark::State& state) {
  mfc::ult::Scheduler sched;
  bool stop = false;
  mfc::ult::StandardThread a([&] {
    while (!stop) sched.yield();
  });
  mfc::ult::StandardThread b([&] {
    while (!stop) sched.yield();
  });
  sched.ready(&a);
  sched.ready(&b);
  for (auto _ : state) {
    sched.run_one();
  }
  stop = true;
  sched.run_until_idle();
}
BENCHMARK(BM_SchedulerYield);

// ---- iso heap malloc/free ----

void BM_IsoHeapMallocFree(benchmark::State& state) {
  if (!mfc::iso::Region::initialized()) {
    mfc::iso::Region::Config cfg;
    cfg.npes = 1;
    cfg.slot_bytes = 64 * 1024;
    cfg.slots_per_pe = 256;
    mfc::iso::Region::init(cfg);
  }
  mfc::iso::ThreadHeap heap(0);
  const auto size = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    void* p = heap.malloc(size);
    benchmark::DoNotOptimize(p);
    heap.free(p);
  }
}
BENCHMARK(BM_IsoHeapMallocFree)->Arg(64)->Arg(1024)->Arg(16384);

// ---- PUP round trip ----

void BM_PupVectorRoundTrip(benchmark::State& state) {
  std::vector<double> v(static_cast<std::size_t>(state.range(0)), 1.5);
  for (auto _ : state) {
    auto bytes = mfc::pup::to_bytes(v);
    std::vector<double> out;
    mfc::pup::from_bytes(bytes, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(v.size() * sizeof(double)));
}
BENCHMARK(BM_PupVectorRoundTrip)->Arg(16)->Arg(1024)->Arg(65536);

// ---- SDAG deliver/when handoff ----

void BM_SdagDeliverWhen(benchmark::State& state) {
  mfc::sdag::Coordinator coord;
  long count = 0;
  mfc::sdag::Task task = [](mfc::sdag::Coordinator& c, long& n) -> mfc::sdag::Task {
    for (;;) {
      n += co_await c.when<int>(1);
    }
  }(coord, count);
  auto payload = mfc::pup::to_bytes(*std::make_unique<int>(1));
  int one = 1;
  payload = mfc::pup::to_bytes(one);
  for (auto _ : state) {
    coord.deliver(1, payload);
  }
  benchmark::DoNotOptimize(count);
}
BENCHMARK(BM_SdagDeliverWhen);

// ---- flow-of-control dispatch ablation (paper §2.3–2.4) ----
// The same "advance one step" operation expressed as: an event-driven
// method call, a return-switch (Duff's device) resumption, an SDAG
// coroutine resumption, and a full user-level thread switch. This is the
// cost ladder behind the paper's §2 taxonomy.

struct EventObj {
  long state = 0;
  void step() { ++state; }
};

void BM_DispatchEventDriven(benchmark::State& state) {
  EventObj obj;
  for (auto _ : state) {
    obj.step();
    benchmark::DoNotOptimize(obj.state);
  }
}
BENCHMARK(BM_DispatchEventDriven);

struct RetSwitchObj {
  mfc::sdag::RetSwitch rs;
  long state = 0;
  void step() {
    MFC_RS_BEGIN(rs);
    for (;;) {
      ++state;
      MFC_RS_YIELD(rs);
    }
    MFC_RS_END(rs);
  }
};

void BM_DispatchReturnSwitch(benchmark::State& state) {
  RetSwitchObj obj;
  for (auto _ : state) {
    obj.step();
    benchmark::DoNotOptimize(obj.state);
  }
}
BENCHMARK(BM_DispatchReturnSwitch);

void BM_DispatchUltYield(benchmark::State& state) {
  mfc::ult::Scheduler sched;
  bool stop = false;
  long counter = 0;
  mfc::ult::StandardThread t([&] {
    while (!stop) {
      ++counter;
      sched.yield();
    }
  });
  sched.ready(&t);
  for (auto _ : state) {
    sched.run_one();
    benchmark::DoNotOptimize(counter);
  }
  stop = true;
  sched.run_until_idle();
}
BENCHMARK(BM_DispatchUltYield);

// ---- converse messaging fast path ----
// Whole-machine throughput/latency of the lock-free send→enqueue→dispatch
// path. The rows are recorded in BENCH_converse.json so the messaging perf
// trajectory is tracked across PRs.

namespace conv_bench {

namespace cv = mfc::converse;

cv::HandlerId h_ball, h_bcast, h_self;
mfc::ult::Thread* g_waiter[64];
std::atomic<int> g_balls_left[64];
double g_t0 = 0.0, g_t1 = 0.0;

void ensure_handlers() {
  static std::once_flag once;
  std::call_once(once, [] {
    // Pingpong: the payload counts remaining messages for one ball; bounce
    // until the ball is spent, then (once every ball of this pair is done)
    // resume the originating (even) PE's main thread.
    h_ball = cv::register_handler([](cv::Message&& m) {
      const int remaining = m.as<int>();
      if (remaining > 1) {
        cv::send_value(static_cast<int>(m.src_pe), h_ball, remaining - 1);
      } else if (g_balls_left[cv::my_pe()].fetch_sub(1) == 1) {
        cv::ready_thread(g_waiter[cv::my_pe()]);
      }
    });
    // Broadcast storm: each PE expects npes*per_pe deliveries; the handler
    // counts down and resumes the PE's main thread at zero, so the timed
    // region is pure message traffic (quiescence detection is benchmarked
    // and stress-tested separately).
    h_bcast = cv::register_handler([](cv::Message&&) {
      const int pe = cv::my_pe();
      // Single writer: handlers only run on the owning PE's thread.
      const int left = g_balls_left[pe].load(std::memory_order_relaxed) - 1;
      g_balls_left[pe].store(left, std::memory_order_relaxed);
      if (left == 0) cv::ready_thread(g_waiter[pe]);
    });
    // Self-send chain: each delivery issues the next self-send from handler
    // context, exercising the inline local-delivery fast path.
    h_self = cv::register_handler([](cv::Message&& m) {
      const int remaining = m.as<int>();
      if (remaining > 0) {
        cv::send_value(cv::my_pe(), h_self, remaining - 1);
      } else {
        cv::ready_thread(g_waiter[cv::my_pe()]);
      }
    });
  });
}

cv::Machine::Config bench_config(int npes) {
  cv::Machine::Config cfg;
  cfg.npes = npes;
  cfg.iso_slots_per_pe = 0;  // no migratable heaps needed; boot faster
  // On one timesliced CPU a PE can burst thousands of sends before another
  // thread runs; size the envelope freelist to the storm's in-flight peak
  // so the steady state allocates no envelopes (payloads over
  // Payload::kInline bytes still allocate per message).
  cfg.pool_cap = 1 << 16;
  return cfg;
}

/// Paired pingpong: PEs (0,1), (2,3), … bounce `window` concurrent balls,
/// each for `msgs_per_ball` messages. window=1 is the classic 1-deep
/// latency pingpong; a deeper window measures per-message cost with the
/// batched drain amortizing wakeups.
mfc::bench::MsgBenchRow run_pingpong(const char* name, int npes, int window,
                                     int msgs_per_ball) {
  ensure_handlers();
  cv::Machine::run(bench_config(npes), [&](int pe) {
    cv::barrier();
    if (pe == 0) g_t0 = mfc::wall_time();
    if (pe % 2 == 0) {
      g_waiter[pe] = cv::pe_scheduler().running();
      g_balls_left[pe].store(window);
      for (int w = 0; w < window; ++w) {
        cv::send_value(pe + 1, h_ball, msgs_per_ball);
      }
      cv::pe_scheduler().suspend();
    }
    cv::barrier();
    if (pe == 0) g_t1 = mfc::wall_time();
  });
  return {name, "lockfree", npes,
          static_cast<std::uint64_t>(window) *
              static_cast<std::uint64_t>(msgs_per_ball) *
              static_cast<std::uint64_t>(npes / 2),
          g_t1 - g_t0};
}

/// All-to-all broadcast storm: every PE broadcasts `per_pe` times and
/// suspends until it has received all npes*per_pe deliveries (its own
/// broadcasts included, so the count cannot hit zero before the main thread
/// has issued them all and suspended); npes*npes*per_pe messages total.
mfc::bench::MsgBenchRow run_broadcast_storm(int npes, int per_pe) {
  ensure_handlers();
  cv::Machine::run(bench_config(npes), [&](int pe) {
    g_waiter[pe] = cv::pe_scheduler().running();
    g_balls_left[pe].store(npes * per_pe);
    cv::barrier();
    if (pe == 0) g_t0 = mfc::wall_time();
    const std::vector<char> payload = mfc::pup::to_bytes(pe);
    // Yield to the scheduler every few broadcasts so delivery interleaves
    // with production (the message-driven steady state) instead of
    // degenerating into one giant produce burst followed by a drain.
    // Two yields per chunk: the ULT yield lets this PE's scheduler drain
    // its own queue between production bursts, and the OS yield hands the
    // core to the other PEs so production and consumption interleave finely
    // (as they would on real parallel hardware) instead of degenerating
    // into quantum-deep bursts whose messages go cold before delivery.
    // (No yield after the final broadcast: the countdown can only complete
    // once this PE's own broadcasts are all out, and the handler must find
    // the main thread suspended, not merely yielded.)
    for (int i = 0; i < per_pe; ++i) {
      cv::broadcast(h_bcast, payload);
      if ((i & 7) == 7 && i + 1 < per_pe) {
        mfc::ult::yield();
        std::this_thread::yield();
      }
    }
    cv::pe_scheduler().suspend();
    cv::barrier();
    if (pe == 0) g_t1 = mfc::wall_time();
  });
  return {"broadcast_storm", "lockfree", npes,
          static_cast<std::uint64_t>(npes) * static_cast<std::uint64_t>(npes) *
              static_cast<std::uint64_t>(per_pe),
          g_t1 - g_t0};
}

/// Self-send throughput: every PE runs a chain of `chain` handler-issued
/// sends to itself (the inline local-delivery path).
mfc::bench::MsgBenchRow run_selfsend(int npes, int chain) {
  ensure_handlers();
  cv::Machine::run(bench_config(npes), [&](int pe) {
    cv::barrier();
    if (pe == 0) g_t0 = mfc::wall_time();
    g_waiter[pe] = cv::pe_scheduler().running();
    cv::send_value(pe, h_self, chain);
    cv::pe_scheduler().suspend();
    cv::barrier();
    if (pe == 0) g_t1 = mfc::wall_time();
  });
  return {"selfsend", "lockfree", npes,
          static_cast<std::uint64_t>(chain + 1) *
              static_cast<std::uint64_t>(npes),
          g_t1 - g_t0};
}

void print_row(const mfc::bench::MsgBenchRow& r) {
  std::printf("%-16s %-15s npes=%d  %9llu msgs  %8.3f s  %12.0f msgs/s  "
              "%8.1f ns/msg\n",
              r.name.c_str(), r.mode.c_str(), r.npes,
              static_cast<unsigned long long>(r.messages), r.seconds,
              r.msgs_per_sec(), r.ns_per_msg());
}

/// Median-of-N to shed scheduler noise (these are whole-machine runs on an
/// oversubscribed host; the median is robust against both a lucky
/// convoy-free run and an unlucky preemption storm).
template <typename Fn>
mfc::bench::MsgBenchRow median_of(int reps, Fn&& fn) {
  std::vector<mfc::bench::MsgBenchRow> runs;
  for (int i = 0; i < reps; ++i) runs.push_back(fn());
  std::sort(runs.begin(), runs.end(),
            [](const mfc::bench::MsgBenchRow& a,
               const mfc::bench::MsgBenchRow& b) {
              return a.seconds < b.seconds;
            });
  return runs[runs.size() / 2];
}

void run_converse_suite() {
  constexpr int kNpes = 4;
  constexpr int kStormNpes = 8;  // deeper oversubscription; criterion is >=4
  constexpr int kReps = 3;
  constexpr int kWindow = 16;
  constexpr int kMsgsPerBall = 1250;  // windowed total: 16*1250 per pair
  constexpr int kOneDeepMsgs = 4000;
  constexpr int kBcastPerPe = 20000;
  constexpr int kSelfChain = 100000;

  std::printf("# converse messaging fast path (npes=%d, median of %d)\n",
              kNpes, kReps);
  std::vector<mfc::bench::MsgBenchRow> rows;
  rows.push_back(median_of(kReps, [&] {
    return run_pingpong("pingpong", kNpes, kWindow, kMsgsPerBall);
  }));
  print_row(rows.back());
  rows.push_back(median_of(kReps, [&] {
    return run_pingpong("pingpong_1deep", kNpes, 1, kOneDeepMsgs);
  }));
  print_row(rows.back());
  rows.push_back(median_of(kReps, [&] {
    return run_broadcast_storm(kStormNpes, kBcastPerPe);
  }));
  print_row(rows.back());
  rows.push_back(median_of(kReps, [&] {
    return run_selfsend(kNpes, kSelfChain);
  }));
  print_row(rows.back());
  if (!mfc::bench::write_msg_bench_json("BENCH_converse.json",
                                        "converse_messaging", rows)) {
    std::fprintf(stderr, "warning: could not write BENCH_converse.json\n");
  }
  std::printf("\n");
}

// ---- tracing overhead (observability acceptance) ----
// The same messaging workloads run tracing-off and tracing-on. With tracing
// off the emit() sites cost one predictable branch each — indistinguishable
// from noise here, which is the point. With tracing on every message adds
// a 32-byte ring store at send, dispatch-begin, and dispatch-end, plus
// ~one rdtsc read (edge-triggered — see trace.h); the acceptance bar is
// <= 10% throughput loss on pingpong.
// Rows land in BENCH_trace.json so the overhead is tracked across PRs.

/// Runs `fn` (a whole-machine workload returning a bench row) with an
/// explicit trace session wrapped around it when `traced`. Events are
/// recorded at full fidelity but discarded at stop — the cost under test
/// is the hot-path emit, not the exporter.
template <typename Fn>
mfc::bench::MsgBenchRow traced_run(bool traced, int npes, Fn&& fn) {
  if (traced) mfc::trace::start(npes);
  // CPU time brackets the workload only — ring allocation in start() and
  // the discard in stop() are session setup, not the hot path under test.
  const double cpu0 = mfc::process_cpu_time();
  mfc::bench::MsgBenchRow row = fn();
  row.cpu_seconds = mfc::process_cpu_time() - cpu0;
  if (traced) mfc::trace::stop();
  row.mode = traced ? "trace_on" : "trace_off";
  return row;
}

/// Measures tracing overhead for one workload with PAIRED reps: each rep
/// runs trace-off then trace-on back-to-back, so slow drift on a
/// shared/virtualized host (frequency steps, co-tenant load) lands on
/// both sides instead of entirely on whichever phase ran last.
///
/// The overhead ratio is computed on process CPU TIME, as the median of
/// the per-rep paired ratios. On a small shared host (1–4 CPUs) the PE
/// threads are oversubscribed, so the wall clock of a latency workload
/// mostly measures kernel scheduling (futex wakes, preemption quanta)
/// the tracing layer never touches. CPU time counts only work our
/// process did, but its cost-per-op still drifts minute to minute
/// (frequency scaling, co-tenant cache contention) — so each rep's
/// off/on pair runs back-to-back within a few milliseconds and is
/// compared only against itself; the median ratio then rejects the reps
/// a preemption landed in. The rows recorded in BENCH_trace.json are
/// the pair whose ratio is the median.
template <typename Fn>
double paired_overhead_pct(int reps, int npes, Fn&& fn,
                           std::vector<mfc::bench::MsgBenchRow>& rows) {
  std::vector<mfc::bench::MsgBenchRow> offs, ons;
  std::vector<std::pair<double, int>> ratios;
  for (int i = 0; i < reps; ++i) {
    offs.push_back(traced_run(false, npes, fn));
    ons.push_back(traced_run(true, npes, fn));
    ratios.emplace_back(ons.back().cpu_seconds / offs.back().cpu_seconds, i);
  }
  std::sort(ratios.begin(), ratios.end());
  const int mid = ratios[ratios.size() / 2].second;
  rows.push_back(offs[static_cast<std::size_t>(mid)]);
  print_row(rows.back());
  rows.push_back(ons[static_cast<std::size_t>(mid)]);
  print_row(rows.back());
  return (ratios[ratios.size() / 2].first - 1.0) * 100.0;
}

void run_trace_suite() {
  constexpr int kNpes = 4;
  // Short reps, many of them: on an oversubscribed host the kernel's
  // preemption quantum is in the same millisecond range as a rep, so a
  // ~1.5 ms rep often lands between preemptions while a long rep always
  // absorbs several — and the median paired ratio then has a majority of
  // clean samples to settle on.
  constexpr int kReps = 21;
  constexpr int kOneDeepMsgs = 2000;
  constexpr int kWindow = 16;
  constexpr int kMsgsPerBall = 1250;
  constexpr int kBcastPerPe = 10000;

  std::printf(
      "# tracing overhead: paired trace off/on reps, median cpu-time ratio "
      "of %d (npes=%d)\n",
      kReps, kNpes);
  std::vector<mfc::bench::MsgBenchRow> rows;
  // The acceptance row: classic 1-deep latency pingpong, where each
  // message pays a real cross-PE round trip. Two PEs (one ball): on a
  // host with few cores, every extra PE thread multiplies kernel-scheduler
  // churn that swamps the ~35 ns/leg under test. The windowed variant
  // below is the worst case — the ~70 ns/msg inline fast path where three
  // timestamped events cost a visible fraction by construction.
  const double pingpong_pct = paired_overhead_pct(kReps, 2, [&] {
    return run_pingpong("pingpong", 2, 1, kOneDeepMsgs);
  }, rows);
  const double windowed_pct = paired_overhead_pct(kReps, kNpes, [&] {
    return run_pingpong("pingpong_windowed", kNpes, kWindow, kMsgsPerBall);
  }, rows);
  const double bcast_pct = paired_overhead_pct(kReps, kNpes, [&] {
    return run_broadcast_storm(kNpes, kBcastPerPe);
  }, rows);
  std::printf("# %-16s tracing-on overhead (cpu): %s%%\n", "pingpong",
              mfc::format_double(pingpong_pct, 1).c_str());
  std::printf("# %-16s tracing-on overhead (cpu): %s%%\n", "pingpong_windowed",
              mfc::format_double(windowed_pct, 1).c_str());
  std::printf("# %-16s tracing-on overhead (cpu): %s%%\n", "broadcast_storm",
              mfc::format_double(bcast_pct, 1).c_str());
  if (!mfc::bench::write_msg_bench_json("BENCH_trace.json", "trace_overhead",
                                        rows)) {
    std::fprintf(stderr, "warning: could not write BENCH_trace.json\n");
  }
  std::printf("\n");
}

// ---- histogram overhead (observability plane acceptance) ----
// The same messaging workloads run with the latency histograms off and
// armed. With histograms off every instrumentation site costs one
// predictable branch on hist::on(). Armed, each message pays a send-side
// rdtsc stamp plus two recorded samples at dispatch (queue-wait and
// handler-service: one rdtsc each and a relaxed single-writer bucket
// bump). The acceptance bar is <= 10% cpu-time loss on pingpong; rows
// land in BENCH_obs.json and ci_obs.sh gates the obs_on/obs_off ratio.

/// Runs `fn` (a whole-machine workload returning a bench row) with the
/// histogram registry armed around it when `armed`. The slots are reset
/// per run so bucket bumps never contend with a stale geometry; the
/// snapshot/dump path is not under test here, only the hot-path record.
template <typename Fn>
mfc::bench::MsgBenchRow hist_run(bool armed, int npes, Fn&& fn) {
  if (armed) {
    mfc::hist::reset(npes);
    mfc::hist::enable(true);
  }
  const double cpu0 = mfc::process_cpu_time();
  mfc::bench::MsgBenchRow row = fn();
  row.cpu_seconds = mfc::process_cpu_time() - cpu0;
  if (armed) mfc::hist::enable(false);
  row.mode = armed ? "obs_on" : "obs_off";
  return row;
}

/// Paired off/on reps with the median-ratio methodology of
/// paired_overhead_pct above (same small-host rationale).
template <typename Fn>
double paired_hist_overhead_pct(int reps, int npes, Fn&& fn,
                                std::vector<mfc::bench::MsgBenchRow>& rows) {
  std::vector<mfc::bench::MsgBenchRow> offs, ons;
  std::vector<std::pair<double, int>> ratios;
  for (int i = 0; i < reps; ++i) {
    offs.push_back(hist_run(false, npes, fn));
    ons.push_back(hist_run(true, npes, fn));
    ratios.emplace_back(ons.back().cpu_seconds / offs.back().cpu_seconds, i);
  }
  std::sort(ratios.begin(), ratios.end());
  const int mid = ratios[ratios.size() / 2].second;
  rows.push_back(offs[static_cast<std::size_t>(mid)]);
  print_row(rows.back());
  rows.push_back(ons[static_cast<std::size_t>(mid)]);
  print_row(rows.back());
  return (ratios[ratios.size() / 2].first - 1.0) * 100.0;
}

void run_obs_suite() {
  constexpr int kNpes = 4;
  constexpr int kReps = 21;
  constexpr int kOneDeepMsgs = 2000;
  constexpr int kWindow = 16;
  constexpr int kMsgsPerBall = 1250;
  constexpr int kBcastPerPe = 10000;

  std::printf(
      "# histogram overhead: paired obs off/on reps, median cpu-time ratio "
      "of %d (npes=%d)\n",
      kReps, kNpes);
  std::vector<mfc::bench::MsgBenchRow> rows;
  const double pingpong_pct = paired_hist_overhead_pct(kReps, 2, [&] {
    return run_pingpong("pingpong", 2, 1, kOneDeepMsgs);
  }, rows);
  const double windowed_pct = paired_hist_overhead_pct(kReps, kNpes, [&] {
    return run_pingpong("pingpong_windowed", kNpes, kWindow, kMsgsPerBall);
  }, rows);
  const double bcast_pct = paired_hist_overhead_pct(kReps, kNpes, [&] {
    return run_broadcast_storm(kNpes, kBcastPerPe);
  }, rows);
  std::printf("# %-16s histograms-on overhead (cpu): %s%%\n", "pingpong",
              mfc::format_double(pingpong_pct, 1).c_str());
  std::printf("# %-16s histograms-on overhead (cpu): %s%%\n",
              "pingpong_windowed", mfc::format_double(windowed_pct, 1).c_str());
  std::printf("# %-16s histograms-on overhead (cpu): %s%%\n",
              "broadcast_storm", mfc::format_double(bcast_pct, 1).c_str());
  if (!mfc::bench::write_msg_bench_json("BENCH_obs.json", "obs_overhead",
                                        rows)) {
    std::fprintf(stderr, "warning: could not write BENCH_obs.json\n");
  }
  std::printf("\n");
}

}  // namespace conv_bench

// ---- in-memory checkpointing overhead (ft acceptance) ----
// The same failure-free storm runs checkpoint-off and checkpoint-every-10
// (two committed epochs over 30 rounds). Each epoch brackets a round with
// quiescence, packs every worker non-destructively into local + buddy
// images, and CRC-frames the blobs — all of which is overhead the
// application never asked for. Workers run a per-round compute spin
// (StormOptions::work_spin) so a round costs what a real iteration does;
// without it the storm's near-empty rounds would measure the emulated
// machine's cross-PE wakeup latency against nothing, which is not the
// ratio an application sees. The acceptance bar is <= 15% CPU-time cost
// versus the no-checkpoint run, measured exactly like the tracing suite:
// paired off/on reps, median of the per-rep CPU ratios (see
// paired_overhead_pct's host-drift rationale above). A mixed-technique
// workload plus one row per technique prices stack-copy / isomalloc /
// memalias checkpointing separately. Rows land in BENCH_ft.json.
namespace ft_bench {

mfc::bench::MsgBenchRow run_ft_storm(const char* name, int technique,
                                     int checkpoint_every) {
  mfc::chaos::StormOptions opt;
  opt.seed = 99;
  opt.npes = 4;
  opt.workers = 9;
  opt.rounds = 30;
  opt.single_technique = technique;
  opt.ft_checkpoint_every = checkpoint_every;
  opt.work_spin = 400000;  // ~0.5 ms of compute per worker per round
  // No kills here. run_storm installs FT, and with it the detector, only
  // when it checkpoints, so only the checkpointing arm pays for PE 0's
  // detector ticks. With the default 250 ms timeout a PE starved by
  // the rest of the bench process (more PE threads than CPUs) can be
  // declared dead mid-measurement; recovery noise would pollute the row,
  // so make detection unreachable.
  opt.ft_timeout_us = 10'000'000;
  mfc::bench::MsgBenchRow row;
  row.name = name;
  row.mode = checkpoint_every > 0 ? "ckpt_every_10" : "ckpt_off";
  row.npes = opt.npes;
  const double cpu0 = mfc::process_cpu_time();
  const double t0 = mfc::wall_time();
  const mfc::chaos::StormReport rep = mfc::chaos::run_storm(opt);
  row.seconds = mfc::wall_time() - t0;
  row.cpu_seconds = mfc::process_cpu_time() - cpu0;
  // "Messages" here are thread migrations — the storm's unit of work.
  row.messages = rep.thread_migrations;
  if (!rep.clean()) std::fprintf(stderr, "warning: %s storm not clean\n", name);
  return row;
}

void run_ft_suite() {
  constexpr int kReps = 5;
  constexpr int kEvery = 10;
  struct Workload {
    const char* name;
    int technique;  // -1 = w % 3 mix
  };
  const Workload workloads[] = {{"ft_storm_mix", -1},
                                {"ft_storm_stackcopy", 0},
                                {"ft_storm_iso", 1},
                                {"ft_storm_memalias", 2}};

  std::printf("# checkpoint overhead: paired ckpt off/on storms, median "
              "cpu-time ratio of %d reps (checkpoint every %d rounds)\n",
              kReps, kEvery);
  std::vector<mfc::bench::MsgBenchRow> rows;
  for (const Workload& w : workloads) {
    std::vector<mfc::bench::MsgBenchRow> offs, ons;
    std::vector<std::pair<double, int>> ratios;
    for (int i = 0; i < kReps; ++i) {
      offs.push_back(run_ft_storm(w.name, w.technique, 0));
      ons.push_back(run_ft_storm(w.name, w.technique, kEvery));
      ratios.emplace_back(ons.back().cpu_seconds / offs.back().cpu_seconds, i);
    }
    std::sort(ratios.begin(), ratios.end());
    const int mid = ratios[ratios.size() / 2].second;
    rows.push_back(offs[static_cast<std::size_t>(mid)]);
    conv_bench::print_row(rows.back());
    rows.push_back(ons[static_cast<std::size_t>(mid)]);
    conv_bench::print_row(rows.back());
    const double pct = (ratios[ratios.size() / 2].first - 1.0) * 100.0;
    std::printf("# %-20s checkpoint overhead (cpu): %s%% (bar: <= 15%%)\n",
                w.name, mfc::format_double(pct, 1).c_str());
  }
  if (!mfc::bench::write_msg_bench_json("BENCH_ft.json", "ft_checkpoint",
                                        rows)) {
    std::fprintf(stderr, "warning: could not write BENCH_ft.json\n");
  }
  std::printf("\n");
}

}  // namespace ft_bench

// ---- cross-process checkpoint overhead ------------------------------------
// The process-tier FT bar: a 16-PE / 4-process shm machine running the
// procstorm workload with checkpoint-every-10 must cost <= 15% more than
// the same storm with FT off. Buddy placement is process-disjoint, so
// every blob shipment crosses a process boundary on the scatter-gather
// wire path — this suite prices exactly that traffic plus the quiescent
// capture windows. The gate is on *wall* time (same methodology as the
// transport suite). cpu_seconds covers every process: this one's CPU clock
// plus the RUSAGE_CHILDREN delta across the storm — process 0 reaps its
// children and the zygote, and the zygote reaps its respawns, so each
// forked process's CPU lands in that delta once it exits. Paired off/on
// reps, median of the per-rep ratios. Rows land in BENCH_ftx.json; ci_ft.sh
// gates the wall ratio via bench_compare.py --max-ratio.
namespace ftx_bench {

/// CPU time (user + system) of every reaped descendant, in seconds.
double children_cpu_time() {
  struct rusage ru {};
  getrusage(RUSAGE_CHILDREN, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

mfc::bench::MsgBenchRow run_ftx_storm(const char* name, int checkpoint_every) {
  mfc::chaos::ProcStormOptions opt;
  opt.seed = 99;
  opt.npes = 16;
  opt.nprocs = 4;
  opt.transport = 1;  // shm rings
  opt.rounds = 30;
  opt.workers_per_pe = 2;
  opt.values_per_worker = 512;  // 8 KiB of history per PE -> real blobs
  opt.checkpoint_every = checkpoint_every;
  // No kills. run_proc_storm installs FT (the zygote, the control
  // channel and the detector) only when it checkpoints, so only
  // the checkpointing arm pays for them. A bench-starved PE must never be
  // declared dead mid-measurement.
  opt.timeout_us = 10'000'000;
  mfc::bench::MsgBenchRow row;
  row.name = name;
  row.mode = checkpoint_every > 0 ? "ckpt_every_10" : "ckpt_off";
  row.npes = opt.npes;
  const double cpu0 = mfc::process_cpu_time() + children_cpu_time();
  const double t0 = mfc::wall_time();
  const mfc::chaos::ProcStormReport rep = mfc::chaos::run_proc_storm(opt);
  row.seconds = mfc::wall_time() - t0;
  row.cpu_seconds = mfc::process_cpu_time() + children_cpu_time() - cpu0;
  // The storm's unit of work: one round handler execution per PE.
  row.messages = rep.rounds * static_cast<std::uint64_t>(opt.npes);
  if (!rep.clean(opt.npes)) {
    std::fprintf(stderr, "warning: %s procstorm not clean\n", name);
  }
  return row;
}

void run_ftx_suite() {
  // Whole-machine wall-time runs on a shared host wobble; 9 paired reps
  // keep the median ratio clear of the 15% gate's noise floor.
  constexpr int kReps = 9;
  constexpr int kEvery = 10;
  std::printf("# cross-process checkpoint overhead: paired ckpt off/on "
              "4-proc shm storms, median wall-time ratio of %d reps "
              "(checkpoint every %d rounds)\n",
              kReps, kEvery);
  std::vector<mfc::bench::MsgBenchRow> offs, ons;
  std::vector<std::pair<double, int>> ratios;
  std::vector<double> cpu_ratios;
  for (int i = 0; i < kReps; ++i) {
    offs.push_back(run_ftx_storm("ftx_storm", 0));
    ons.push_back(run_ftx_storm("ftx_storm", kEvery));
    ratios.emplace_back(ons.back().seconds / offs.back().seconds, i);
    cpu_ratios.push_back(ons.back().cpu_seconds / offs.back().cpu_seconds);
  }
  std::sort(ratios.begin(), ratios.end());
  std::sort(cpu_ratios.begin(), cpu_ratios.end());
  const int mid = ratios[ratios.size() / 2].second;
  std::vector<mfc::bench::MsgBenchRow> rows;
  rows.push_back(offs[static_cast<std::size_t>(mid)]);
  conv_bench::print_row(rows.back());
  rows.push_back(ons[static_cast<std::size_t>(mid)]);
  conv_bench::print_row(rows.back());
  const double pct = (ratios[ratios.size() / 2].first - 1.0) * 100.0;
  const double cpu_pct = (cpu_ratios[cpu_ratios.size() / 2] - 1.0) * 100.0;
  std::printf("# ftx_storm cross-process checkpoint overhead (wall): %s%% "
              "(bar: <= 15%%); (cpu, all processes): %s%%\n",
              mfc::format_double(pct, 1).c_str(),
              mfc::format_double(cpu_pct, 1).c_str());
  if (!mfc::bench::write_msg_bench_json("BENCH_ftx.json", "ftx_checkpoint",
                                        rows)) {
    std::fprintf(stderr, "warning: could not write BENCH_ftx.json\n");
  }
  std::printf("\n");
}

}  // namespace ftx_bench

// ---- zero-copy migration + checkpoint encode ----
// Three sub-suites, all recorded in BENCH_migrate.json:
//
//  1. Thread-image codec byte rate ("iovec" rows). The manifest path
//     gathers a parked thread's live runs straight onto the wire, folding
//     the CRC-32C per run as it copies: one pass over the payload. The
//     rows measure end-to-end "parked thread -> CRC'd wire bytes"
//     throughput for isomalloc images of 64 KiB / 256 KiB / 1 MiB.
//
//  2. Whole-checkpoint encode: a Checkpoint borrowing the manifests of 8
//     parked threads (the ft capture path).
//
//  3. The benchmark's migrate_storm shape end to end: run_storm with 4
//     PEs, 12 workers over all three techniques, 800 rounds and element
//     migration, no chaos, no FT. The row is the median of 5 reps by CPU
//     time; one "message" is one thread migration. The storm runs in this
//     process, so process CPU time sees all of it. ci_migrate.sh gates its
//     cpu_ns_per_msg.
namespace migrate_bench {

namespace mig = mfc::migrate;

/// Parks an IsoThread holding `heap_bytes` of touched heap payload on a
/// scheduler; `park` receives the suspended thread and must leave it
/// suspended; afterwards the thread is resumed to completion and freed.
template <typename Fn>
void with_parked_thread(std::size_t heap_bytes, Fn park) {
  mfc::ult::Scheduler sched;
  auto* t = new mig::IsoThread(
      [&sched, heap_bytes] {
        char* p = static_cast<char*>(mfc::iso::routed_malloc(heap_bytes));
        std::memset(p, 0x6B, heap_bytes);
        sched.suspend();  // ---- benchmarked while parked here ----
        mfc::iso::routed_free(p);
      },
      /*birth_pe=*/0);
  sched.ready(t);
  sched.run_until_idle();
  park(t);
  sched.ready(t);
  sched.run_until_idle();
  delete t;
}

mfc::bench::MsgBenchRow codec_row(const char* name, std::size_t heap_bytes) {
  mfc::bench::MsgBenchRow row;
  row.name = name;
  row.mode = "iovec";
  row.npes = 1;
  with_parked_thread(heap_bytes, [&](mig::MigratableThread* t) {
    const std::size_t wire = t->pack_manifest().wire_size();
    // Scale reps to ~128 MiB of payload so a measurement spans thousands
    // of scheduler quanta on any machine.
    const int reps =
        static_cast<int>(std::max<std::size_t>(8, (128u << 20) / wire));
    // Warm the path once (first-touch, CRC table build).
    (void)t->pack_manifest().to_wire(nullptr);
    const double cpu0 = mfc::process_cpu_time();
    const double t0 = mfc::wall_time();
    std::uint32_t sink = 0;
    for (int i = 0; i < reps; ++i) {
      std::uint32_t crc = 0;
      const std::vector<char> bytes = t->pack_manifest().to_wire(&crc);
      sink ^= crc ^ static_cast<std::uint32_t>(bytes.size());
    }
    row.seconds = mfc::wall_time() - t0;
    row.cpu_seconds = mfc::process_cpu_time() - cpu0;
    // "Messages" are payload bytes, so msgs_per_sec reads as bytes/s.
    row.messages = static_cast<std::uint64_t>(reps) * wire;
    if (sink == 0xDEADBEEF) std::printf("# (sink)\n");  // keep the loop live
  });
  return row;
}

mfc::bench::MsgBenchRow ckpt_encode_row() {
  constexpr int kThreads = 8;
  constexpr std::size_t kHeapBytes = 64 * 1024;
  mfc::bench::MsgBenchRow row;
  row.name = "ckpt_encode_8x64KiB";
  row.mode = "zero_copy_gather";
  row.npes = 1;

  mfc::ult::Scheduler sched;
  std::vector<mig::MigratableThread*> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.push_back(new mig::IsoThread(
        [&sched] {
          char* p = static_cast<char*>(mfc::iso::routed_malloc(kHeapBytes));
          std::memset(p, 0x3C, kHeapBytes);
          sched.suspend();
          mfc::iso::routed_free(p);
        },
        /*birth_pe=*/0));
    sched.ready(threads.back());
  }
  sched.run_until_idle();

  std::size_t frame_bytes = 0;
  constexpr int kReps = 256;
  const double cpu0 = mfc::process_cpu_time();
  const double t0 = mfc::wall_time();
  for (int rep = 0; rep < kReps; ++rep) {
    std::vector<mig::ImageManifest> manifests;
    manifests.reserve(kThreads);
    mig::Checkpoint ckpt;
    for (auto* t : threads) manifests.push_back(t->pack_manifest());
    for (const auto& m : manifests) ckpt.add_manifest(m);
    frame_bytes = ckpt.encode().size();
  }
  row.seconds = mfc::wall_time() - t0;
  row.cpu_seconds = mfc::process_cpu_time() - cpu0;
  row.messages = static_cast<std::uint64_t>(kReps) * frame_bytes;

  for (auto* t : threads) sched.ready(t);
  sched.run_until_idle();
  for (auto* t : threads) delete t;
  return row;
}

/// Times one run_storm in this process; one "message" is one thread
/// migration.
mfc::bench::MsgBenchRow timed_storm(const char* name, std::string mode,
                                    const mfc::chaos::StormOptions& opt) {
  mfc::bench::MsgBenchRow row;
  row.name = name;
  row.mode = std::move(mode);
  row.npes = opt.npes;
  const double cpu0 = mfc::process_cpu_time();
  const double t0 = mfc::wall_time();
  const mfc::chaos::StormReport rep = mfc::chaos::run_storm(opt);
  row.seconds = mfc::wall_time() - t0;
  row.cpu_seconds = mfc::process_cpu_time() - cpu0;
  row.messages = rep.thread_migrations;
  if (!rep.clean()) std::fprintf(stderr, "warning: %s storm not clean\n", name);
  return row;
}

/// The benchmark's migrate_storm options (mfcbench/workload.cc).
mfc::bench::MsgBenchRow run_storm_row() {
  mfc::chaos::StormOptions opt;
  opt.seed = 99;
  opt.npes = 4;
  opt.workers = 12;
  opt.rounds = 800;
  opt.element_migration = true;
  return timed_storm("storm_migrate", "mix_800r", opt);
}

void run_migrate_suite() {
  mfc::bench::print_header(
      "zero-copy migration codec + checkpoint encode + migrate storm",
      "paper SS3.4 (thread image shipping), SS3 checkpoint = migration");

  std::vector<mfc::bench::MsgBenchRow> rows;

  // Sub-suite 1: codec byte rate. Region geometry sized so a 1 MiB heap
  // payload fits one slot.
  {
    mfc::iso::Region::Config cfg;
    cfg.npes = 1;
    cfg.slot_bytes = 2 * 1024 * 1024;
    cfg.slots_per_pe = 64;
    mfc::iso::Region::init(cfg);
    struct Size {
      const char* name;
      std::size_t bytes;
    };
    const Size sizes[] = {{"iso_codec_64KiB", 64u << 10},
                          {"iso_codec_256KiB", 256u << 10},
                          {"iso_codec_1MiB", 1u << 20}};
    for (const Size& s : sizes) {
      rows.push_back(codec_row(s.name, s.bytes));
      conv_bench::print_row(rows.back());
    }
    rows.push_back(ckpt_encode_row());
    conv_bench::print_row(rows.back());
    mfc::iso::Region::shutdown();
  }

  // Sub-suite 3: the migrate_storm shape, median of 5 reps by CPU time.
  {
    std::vector<mfc::bench::MsgBenchRow> reps;
    for (int i = 0; i < 5; ++i) reps.push_back(run_storm_row());
    std::sort(reps.begin(), reps.end(), [](const auto& a, const auto& b) {
      return a.cpu_seconds < b.cpu_seconds;
    });
    rows.push_back(reps[reps.size() / 2]);
    conv_bench::print_row(rows.back());
  }

  if (!mfc::bench::write_msg_bench_json("BENCH_migrate.json", "migrate_codec",
                                        rows)) {
    std::fprintf(stderr, "warning: could not write BENCH_migrate.json\n");
  }
  std::printf("\n");
}

}  // namespace migrate_bench

// ---- the cross-process shm wire (converse/transport) ----
// Prices the machine layer's wire against the in-process queues. stream64
// runs in loopback mode (nprocs == 1, every cross-PE message through the
// rings — same process so the numbers isolate the transport, not
// fork/scheduling noise):
//
//   stream64     64-byte message flood PE0 -> PE1, one row per backend.
//                The acceptance bar (gated by scripts/ci_transport.sh via
//                bench_compare.py --max-ratio) is shm <= 3x the in-process
//                ns/msg: the ring adds a copy into the segment, a copy out,
//                and a drain — but no syscall per message. The flood keeps
//                the receiving PE awake, so it never prices a wake-up.
//   pingpong64   one 64-byte message bouncing between PE 0 and PE 1, ns per
//                hop: the wire rows across 2 processes (parent and forked
//                child), the inproc row between two PEs of one process.
//                Strictly alternating, so a hop that outlasts the
//                receiver's pre-park spin prices the wake-up the
//                cross-process FT and QD protocols pay; shm/inproc (gated
//                by ci_transport.sh) is what crossing a process adds. Each
//                PE is pinned to its own CPU, 500 untimed round trips warm
//                up each rep, and the reps of the two legs interleave.
//   image_*      scatter-gather thread-image-shaped sends (send_spans over
//                an uneven span list) at 64 KiB / 256 KiB / 1 MiB over the
//                shm wire across 2 processes: each image goes as kChunk
//                frames of up to half a ring, spans copied straight in.
//   qd_idle      median ns per wait_quiescence() on PE 0 over 200
//                back-to-back waits (after 20 warm-up waits) while every
//                other main is parked, one row per PEs x processes shape
//                (inproc_4x1, shm_4x2, shm_16x4, shm_64x4). A wait reads
//                every PE's control line twice and wakes no other PE, so
//                the row should stay near flat in the PE count (gated by
//                ci_transport.sh).
//
// Rows land in BENCH_transport.json.

namespace transport_bench {

namespace cv = mfc::converse;

cv::HandlerId h_stream, h_stream_done, h_image, h_image_ack, h_serve64,
    h_return64, h_idle_finish;
mfc::ult::Thread* g_sender = nullptr;
int g_expect = 0;
int g_timed = 0;  ///< ping-pong: round trips left when the clock starts
double g_t0 = 0.0, g_t1 = 0.0;

/// qd_idle: the parked mains of PEs 1.. (per process: each forked process
/// has its own copy) and PE 0's per-wait times.
constexpr int kQdMaxPes = 64;
mfc::ult::Thread* g_qd_parked[kQdMaxPes];
bool g_qd_done[kQdMaxPes];
std::vector<double> g_qd_ns;

void qd_finish() {
  const int pe = cv::my_pe();
  g_qd_done[pe] = true;
  if (g_qd_parked[pe] != nullptr) cv::ready_thread(g_qd_parked[pe]);
}

struct Cell64 {
  char bytes[64] = {};  // exactly 64 payload bytes on the wire
  void pup(mfc::pup::Er& p) { p.bytes(bytes, sizeof bytes); }
};

void ensure_handlers() {
  static std::once_flag once;
  std::call_once(once, [] {
    // Flood sink: counts deliveries, acks the sender once at the end.
    h_stream = cv::register_handler([](cv::Message&&) {
      if (--g_expect == 0) cv::send_value(0, h_stream_done, 0);
    });
    h_stream_done = cv::register_handler(
        [](cv::Message&&) { cv::ready_thread(g_sender); });
    // Image sink: one ack per image so the sender paces itself (a real
    // migration ships one thread per dock, not a pipeline of images).
    h_image = cv::register_handler(
        [](cv::Message&&) { cv::send_value(0, h_image_ack, 0); });
    h_image_ack = cv::register_handler(
        [](cv::Message&&) { cv::ready_thread(g_sender); });
    // Ping-pong: PE 1 echoes, PE 0 serves the next ping until done.
    h_serve64 = cv::register_handler(
        [](cv::Message&&) { cv::send_value(0, h_return64, Cell64{}); });
    h_return64 = cv::register_handler([](cv::Message&&) {
      if (--g_expect == 0) {
        cv::ready_thread(g_sender);
        return;
      }
      if (g_expect == g_timed) g_t0 = mfc::wall_time();  // warm-up over
      cv::send_value(1, h_serve64, Cell64{});
    });
    h_idle_finish = cv::register_handler([](cv::Message&&) { qd_finish(); });
  });
}

cv::Machine::Config wire_config(cv::Machine::Config::Transport t,
                                int nprocs = 1) {
  cv::Machine::Config cfg;
  cfg.npes = 2;
  cfg.nprocs = nprocs;
  cfg.transport = t;
  cfg.iso_slots_per_pe = 0;
  // Envelope freelist sized to a flood's in-flight peak, as bench_config
  // does; the image rows' payloads are still allocated per message.
  cfg.pool_cap = 1 << 16;
  return cfg;
}

const char* backend_mode(cv::Machine::Config::Transport t) {
  return t == cv::Machine::Config::Transport::kShm ? "shm" : "inproc";
}

mfc::bench::MsgBenchRow run_stream64(cv::Machine::Config::Transport t,
                                     int msgs) {
  ensure_handlers();
  cv::Machine::run(wire_config(t), [&](int pe) {
    // Sink state must exist before the first flood message can dispatch,
    // i.e. before this PE enters the barrier, not after it returns.
    if (pe == 0) {
      g_sender = cv::pe_scheduler().running();
    } else {
      g_expect = msgs;
    }
    cv::barrier();
    if (pe == 0) {
      g_t0 = mfc::wall_time();
      const Cell64 cell;
      for (int i = 0; i < msgs; ++i) cv::send_value(1, h_stream, cell);
      cv::pe_scheduler().suspend();
      g_t1 = mfc::wall_time();
    }
    cv::barrier();
  });
  return {"stream64", backend_mode(t), 2, static_cast<std::uint64_t>(msgs),
          g_t1 - g_t0};
}

/// Pins the calling PE thread to the pe-th CPU this process may run on.
/// On an idle host the kernel's wake-affine placement can put a
/// ping-pong's two PE threads on one CPU, and every hop then prices a
/// context switch, not the path under test. No-op with fewer than 2 CPUs.
void pin_pe_thread(int pe) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  const int n = CPU_COUNT(&allowed);
  if (n < 2) return;
  for (int cpu = 0, seen = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || seen++ != pe % n) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pthread_setaffinity_np(pthread_self(), sizeof one, &one);
    return;
  }
}

mfc::bench::MsgBenchRow run_pingpong64(cv::Machine::Config::Transport t,
                                       int trips) {
  ensure_handlers();
  // A wire needs two processes to cross; the in-process machine has one.
  const int nprocs = t == cv::Machine::Config::Transport::kInProc ? 1 : 2;
  cv::Machine::run(wire_config(t, nprocs), [&](int pe) {
    pin_pe_thread(pe);
    cv::barrier();  // both processes up before the clock starts
    if (pe == 0) {
      // Untimed round trips first: a cold start (CPUs just out of idle)
      // would otherwise land in the median.
      constexpr int kWarmupTrips = 500;
      g_sender = cv::pe_scheduler().running();
      g_timed = trips;
      g_expect = trips + kWarmupTrips;
      cv::send_value(1, h_serve64, Cell64{});
      cv::pe_scheduler().suspend();
      g_t1 = mfc::wall_time();
    }
    cv::barrier();
  });
  return {"pingpong64", backend_mode(t), 2,
          2 * static_cast<std::uint64_t>(trips), g_t1 - g_t0};
}

mfc::bench::MsgBenchRow run_qd_idle(const char* mode,
                                    cv::Machine::Config::Transport t,
                                    int npes, int nprocs) {
  constexpr int kWarmupWaits = 20;
  constexpr int kWaits = 200;
  ensure_handlers();
  cv::Machine::Config cfg = wire_config(t, nprocs);
  cfg.npes = npes;
  g_qd_ns.clear();
  cv::Machine::run(cfg, [&](int pe) {
    g_qd_parked[pe] = nullptr;
    g_qd_done[pe] = false;
    cv::barrier();
    if (pe != 0) {
      while (!g_qd_done[pe]) {
        g_qd_parked[pe] = cv::pe_scheduler().running();
        cv::pe_scheduler().suspend();
      }
      return;
    }
    for (int i = 0; i < kWarmupWaits; ++i) cv::wait_quiescence();
    for (int i = 0; i < kWaits; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      cv::wait_quiescence();
      g_qd_ns.push_back(std::chrono::duration<double, std::nano>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
    }
    for (int p = 1; p < npes; ++p) cv::send_value(p, h_idle_finish, 0);
  });
  std::sort(g_qd_ns.begin(), g_qd_ns.end());
  const double median_ns = g_qd_ns[g_qd_ns.size() / 2];
  return {"qd_idle", mode, npes, static_cast<std::uint64_t>(kWaits),
          median_ns * kWaits * 1e-9};
}

mfc::bench::MsgBenchRow run_image_ships(const char* name,
                                        std::size_t image_bytes, int reps) {
  ensure_handlers();
  // A true two-process machine: PE 0 in the parent ships to PE 1 in the
  // child, so every image crosses an address space as it would in a
  // migration; the conformance suite covers correctness, this prices it.
  cv::Machine::run(
      wire_config(cv::Machine::Config::Transport::kShm, 2),
      [&](int pe) {
        cv::barrier();
        if (pe == 0) {
          g_sender = cv::pe_scheduler().running();
          // Manifest-shaped span list: one metadata sliver + uneven runs.
          std::vector<char> buf(image_bytes, 'x');
          std::vector<cv::SendSpan> spans;
          spans.push_back({buf.data(), 48});
          std::size_t off = 48, step = 4096 + 1023;
          while (off < buf.size()) {
            const std::size_t n = std::min(step, buf.size() - off);
            spans.push_back({buf.data() + off, n});
            off += n;
            step = step * 2 + 7;
          }
          g_t0 = mfc::wall_time();
          for (int i = 0; i < reps; ++i) {
            cv::send_spans(1, h_image, spans.data(), spans.size());
            cv::pe_scheduler().suspend();  // until acked
          }
          g_t1 = mfc::wall_time();
        }
        cv::barrier();
      });
  return {name, "shm_chunk", 2, static_cast<std::uint64_t>(reps),
          g_t1 - g_t0};
}

void run_transport_suite() {
  constexpr int kReps = 3;
  constexpr int kStreamMsgs = 20000;
  constexpr int kPingPongTrips = 2000;
  constexpr int kPingPongReps = 5;
  constexpr int kImageReps = 40;

  std::printf("# machine-layer shm wire vs in-process queues (npes=2, "
              "median of %d; stream64 in loopback, shm pingpong64 and image "
              "rows across 2 processes)\n", kReps);
  std::vector<mfc::bench::MsgBenchRow> rows;
  for (const auto t : {cv::Machine::Config::Transport::kInProc,
                       cv::Machine::Config::Transport::kShm}) {
    rows.push_back(conv_bench::median_of(
        kReps, [&] { return run_stream64(t, kStreamMsgs); }));
    conv_bench::print_row(rows.back());
  }
  std::printf("# shm/inproc ns-per-msg ratio: %.2fx (acceptance bar: <= 3x, "
              "gated by ci_transport.sh)\n",
              rows[1].ns_per_msg() / rows[0].ns_per_msg());

  // Ping-pong reps interleave the two legs, so a host that drifts between
  // fast and slow wake-ups mid-suite skews both legs alike and the gated
  // shm/inproc ratio stays comparable.
  const std::size_t pingpong_first = rows.size();
  constexpr cv::Machine::Config::Transport kPingPongLegs[] = {
      cv::Machine::Config::Transport::kInProc,
      cv::Machine::Config::Transport::kShm};
  std::vector<mfc::bench::MsgBenchRow> reps[2];
  for (int r = 0; r < kPingPongReps; ++r) {
    for (int leg = 0; leg < 2; ++leg) {
      reps[leg].push_back(run_pingpong64(kPingPongLegs[leg], kPingPongTrips));
    }
  }
  for (auto& leg : reps) {
    std::sort(leg.begin(), leg.end(),
              [](const auto& a, const auto& b) { return a.seconds < b.seconds; });
    rows.push_back(leg[leg.size() / 2]);
    conv_bench::print_row(rows.back());
  }
  std::printf("# pingpong64 shm/inproc ns-per-hop ratio: %.2fx (gated by "
              "ci_transport.sh)\n",
              rows[pingpong_first + 1].ns_per_msg() /
                  rows[pingpong_first].ns_per_msg());

  struct { const char* name; std::size_t bytes; } sizes[] = {
      {"image_64k", 64 * 1024},
      {"image_256k", 256 * 1024},
      {"image_1m", 1024 * 1024},
  };
  for (const auto& s : sizes) {
    rows.push_back(conv_bench::median_of(kReps, [&] {
      return run_image_ships(s.name, s.bytes, kImageReps);
    }));
    conv_bench::print_row(rows.back());
  }

  struct {
    const char* mode;
    cv::Machine::Config::Transport t;
    int npes, nprocs;
  } qd_shapes[] = {
      {"inproc_4x1", cv::Machine::Config::Transport::kInProc, 4, 1},
      {"shm_4x2", cv::Machine::Config::Transport::kShm, 4, 2},
      {"shm_16x4", cv::Machine::Config::Transport::kShm, 16, 4},
      {"shm_64x4", cv::Machine::Config::Transport::kShm, 64, 4},
  };
  for (const auto& q : qd_shapes) {
    rows.push_back(conv_bench::median_of(kReps, [&] {
      return run_qd_idle(q.mode, q.t, q.npes, q.nprocs);
    }));
    conv_bench::print_row(rows.back());
  }

  if (!mfc::bench::write_msg_bench_json("BENCH_transport.json",
                                        "wire_transports", rows)) {
    std::fprintf(stderr, "warning: could not write BENCH_transport.json\n");
  }
  std::printf("\n");
}

}  // namespace transport_bench

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // MFC_BENCH_SUITE=converse|trace|obs|ft|ftx|migrate|transport runs one
  // suite in isolation (the scripts/ci_*.sh jobs use this); unset runs
  // everything.
  const char* suite = std::getenv("MFC_BENCH_SUITE");
  const auto want = [suite](const char* name) {
    return suite == nullptr || std::strcmp(suite, name) == 0;
  };
  if (want("converse")) conv_bench::run_converse_suite();
  if (want("trace")) conv_bench::run_trace_suite();
  if (want("obs")) conv_bench::run_obs_suite();
  if (want("ft")) ft_bench::run_ft_suite();
  if (want("ftx")) ftx_bench::run_ftx_suite();
  if (want("migrate")) migrate_bench::run_migrate_suite();
  if (want("transport")) transport_bench::run_transport_suite();
  if (suite == nullptr) benchmark::RunSpecifiedBenchmarks();
  return 0;
}
