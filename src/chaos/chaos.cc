#include "chaos/chaos.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <vector>

#include "trace/flight.h"
#include "trace/metrics.h"
#include "trace/trace.h"
#include "ult/scheduler.h"
#include "util/check.h"

namespace mfc::chaos {
namespace {

// Domain-separation constants folded into derived seeds so the per-point
// streams, the scheduler stream, and the keyed decision space never overlap
// even for adjacent master seeds.
constexpr std::uint64_t kStreamSalt = 0x9e6c63d0a5b3f1e7ULL;
constexpr std::uint64_t kSchedSalt = 0x3c79ac492ba7b653ULL;
constexpr std::uint64_t kKeyedSalt = 0xd1342543de82ef95ULL;

std::uint64_t mix64(std::uint64_t x) {
  SplitMix64 r(x);
  return r.next();
}

/// One kernel thread's decision streams: an RNG per injection point plus a
/// dedicated scheduler-choice RNG, all derived from (seed, stream id).
struct Stream {
  explicit Stream(std::uint64_t master, std::uint64_t id)
      : sched(mix64(master ^ kSchedSalt ^ id)) {
    for (int p = 0; p < kPointCount; ++p) {
      point.emplace_back(
          mix64(master ^ kStreamSalt ^ (id * kPointCount + p + 1)));
    }
  }
  std::vector<SplitMix64> point;
  SplitMix64 sched;
};

struct State {
  Config cfg;
  std::uint64_t seed = 0;
  /// Stream for threads that never bind (tests, transport helpers);
  /// mutex-guarded because several may share it.
  Stream external;
  std::mutex external_mu;
  std::atomic<std::uint64_t> fired[kPointCount] = {};

  State(const Config& c, std::uint64_t s)
      : cfg(c), seed(s), external(s, ~0ULL) {}
};

State* g_owner = nullptr;  // the installed State; g_state mirrors it

// Bound per-PE stream. Owned per kernel thread; rebuilt on every
// bind_stream so a reinstalled chaos engine (new seed) starts fresh.
thread_local Stream* t_stream = nullptr;
thread_local std::uint64_t t_stream_epoch = 0;
std::atomic<std::uint64_t> g_epoch{0};

State* state() {
  return const_cast<State*>(static_cast<const State*>(
      detail::g_state.load(std::memory_order_acquire)));
}

/// Every fired injection is traced (tagged with the master seed, so a
/// replayed timeline is self-describing) and counted in the registry.
void record_fired(State& s, Point p) {
  s.fired[static_cast<int>(p)].fetch_add(1, std::memory_order_relaxed);
  metrics::bump(metrics::Counter::kChaosInjections);
  trace::emit_flight(trace::Ev::kChaosInject, s.seed, 0, 0, -1,
                     static_cast<std::uint8_t>(p));
}

double probability(const Config& c, Point p) {
  switch (p) {
    case Point::kIsoAcquire: return c.iso_alloc_fail;
    case Point::kPoolAcquire: return c.pool_fail;
    case Point::kDelivery: return c.delivery_delay;
    case Point::kPreempt: return c.preempt;
    case Point::kPeKill: return c.pe_kill;
    case Point::kProcKill: return c.proc_kill;
  }
  return 0.0;
}

}  // namespace

namespace detail {
std::atomic<const void*> g_state{nullptr};
}

const char* to_string(Point p) {
  switch (p) {
    case Point::kIsoAcquire: return "iso-acquire";
    case Point::kPoolAcquire: return "pool-acquire";
    case Point::kDelivery: return "delivery";
    case Point::kPreempt: return "preempt";
    case Point::kPeKill: return "pe-kill";
    case Point::kProcKill: return "proc-kill";
  }
  return "?";
}

void install(const Config& config) {
  MFC_CHECK_MSG(state() == nullptr, "chaos already installed");
  std::uint64_t seed = config.seed;
  if (const char* env = std::getenv("MFC_CHAOS_SEED");
      env != nullptr && *env != '\0') {
    char* end = nullptr;
    std::uint64_t v = std::strtoull(env, &end, 0);
    if (end != nullptr && *end == '\0') seed = v;
  }
  g_owner = new State(config, seed);
  g_epoch.fetch_add(1, std::memory_order_relaxed);
  detail::g_state.store(g_owner, std::memory_order_release);
  // The replay contract: re-run with this exact value to reproduce.
  std::fprintf(stderr, "MFC_CHAOS_SEED=%llu\n",
               static_cast<unsigned long long>(seed));
}

void uninstall() {
  State* s = state();
  if (s == nullptr) return;
  detail::g_state.store(nullptr, std::memory_order_release);
  g_epoch.fetch_add(1, std::memory_order_relaxed);
  delete s;
  g_owner = nullptr;
}

const Config& config() {
  State* s = state();
  MFC_CHECK_MSG(s != nullptr, "chaos not installed");
  return s->cfg;
}

std::uint64_t seed() {
  State* s = state();
  return s != nullptr ? s->seed : 0;
}

void bind_stream(int pe) {
  State* s = state();
  if (s == nullptr) return;
  delete t_stream;
  t_stream = new Stream(s->seed, static_cast<std::uint64_t>(pe));
  t_stream_epoch = g_epoch.load(std::memory_order_relaxed);
}

void unbind_stream() {
  delete t_stream;
  t_stream = nullptr;
}

namespace {

/// Looks up this thread's bound stream, discarding streams left over from a
/// previous install (stale epoch ⇒ different seed).
Stream* bound_stream() {
  if (t_stream != nullptr &&
      t_stream_epoch == g_epoch.load(std::memory_order_relaxed)) {
    return t_stream;
  }
  return nullptr;
}

}  // namespace

bool should_inject(Point p) {
  State* s = state();
  if (s == nullptr) return false;
  double prob = probability(s->cfg, p);
  if (prob <= 0.0) return false;
  bool fire;
  if (Stream* st = bound_stream()) {
    fire = st->point[static_cast<int>(p)].next_double() < prob;
  } else {
    std::lock_guard<std::mutex> lock(s->external_mu);
    fire = s->external.point[static_cast<int>(p)].next_double() < prob;
  }
  if (fire) record_fired(*s, p);
  return fire;
}

std::uint64_t draw(Point p, std::uint64_t below) {
  State* s = state();
  if (s == nullptr) return 0;
  if (Stream* st = bound_stream()) {
    return st->point[static_cast<int>(p)].next_below(below);
  }
  std::lock_guard<std::mutex> lock(s->external_mu);
  return s->external.point[static_cast<int>(p)].next_below(below);
}

namespace {

/// One fresh draw from the pure (seed, point, key) position — stateless, so
/// the same key always sees the same value within one install.
SplitMix64 keyed_rng(const State& s, Point p, std::uint64_t key) {
  std::uint64_t h = s.seed ^ kKeyedSalt;
  h = mix64(h ^ (static_cast<std::uint64_t>(p) + 1));
  h = mix64(h ^ key);
  return SplitMix64(h);
}

}  // namespace

bool keyed_inject(Point p, std::uint64_t key) {
  State* s = state();
  if (s == nullptr) return false;
  double prob = probability(s->cfg, p);
  if (prob <= 0.0) return false;
  bool fire = keyed_rng(*s, p, key).next_double() < prob;
  if (fire) record_fired(*s, p);
  return fire;
}

std::uint64_t keyed_draw(Point p, std::uint64_t key, std::uint64_t below) {
  State* s = state();
  if (s == nullptr) return 0;
  SplitMix64 r = keyed_rng(*s, p, key);
  r.next();  // decouple draw values from keyed_inject's decision draw
  return r.next_below(below);
}

std::uint64_t injections(Point p) {
  State* s = state();
  if (s == nullptr) return 0;
  return s->fired[static_cast<int>(p)].load(std::memory_order_relaxed);
}

SplitMix64* sched_choice_rng() {
  State* s = state();
  if (s == nullptr || !s->cfg.deterministic_sched) return nullptr;
  Stream* st = bound_stream();
  return st != nullptr ? &st->sched : nullptr;
}

namespace detail {

void preempt_point_slow(const char* where) {
  (void)where;
  ult::Scheduler& sched = ult::Scheduler::current();
  // Only a running ULT can yield; scheduler/handler context falls through.
  if (!sched.in_thread()) return;
  if (should_inject(Point::kPreempt)) sched.yield();
}

}  // namespace detail

}  // namespace mfc::chaos
