// Chaos layer: seed-replayable fault injection and adversarial scheduling
// for the whole runtime stack.
//
// The paper's correctness claim — all four flows of control keep working
// *while threads migrate under them* (§3.4) — is exactly the kind of claim
// that survives demos and dies under adversarial interleavings. This layer
// turns the runtime hostile on demand: seeded failure injection in the
// isomalloc slot allocator and the converse message pool, bounded
// delay/reorder of inter-PE message delivery, forced context-switch yields
// at instrumented preemption points, randomized (but seeded) per-PE
// scheduler decisions, and keyed PE and whole-process kill schedules for
// the fault-tolerance layer.
//
// Determinism model (see DESIGN.md "Chaos & determinism"):
//   * Every decision derives from one 64-bit seed, printed at install time
//     as `MFC_CHAOS_SEED=...` and overridable via that environment variable.
//   * KEYED decisions (`keyed_inject`/`keyed_draw`) are pure functions of
//     (seed, point, key) — they replay bit-identically regardless of thread
//     timing. The storm drivers key their PE and process kill schedules
//     this way.
//   * STREAM decisions (`should_inject`/`draw`) come from per-PE SplitMix64
//     streams derived from (seed, pe). Each PE's draw sequence is
//     deterministic; which runtime event consumes which draw depends on
//     message arrival order, so stream decisions are reproducible pressure,
//     not a replayed schedule.
#pragma once

#include <atomic>
#include <cstdint>

#include "util/rng.h"

namespace mfc::chaos {

/// Injection points threaded through the runtime.
enum class Point : std::uint8_t {
  kIsoAcquire = 0,    ///< iso::Region::try_acquire returns "strip exhausted"
  kPoolAcquire = 1,   ///< converse message pool misses (fresh non-recycled alloc)
  kDelivery = 2,      ///< inter-PE message delivery delayed/reordered
  kPreempt = 3,       ///< forced yield at an instrumented preemption point
  kPeKill = 4,        ///< emulated PE failure (ft layer kill/recover testing)
  kProcKill = 5,      ///< whole-process SIGKILL (cross-process FT testing)
};
constexpr int kPointCount = 6;
const char* to_string(Point p);

/// Chaos knobs, installable standalone or via converse::Machine::Config.
/// All probabilities are per-decision in [0, 1]; 0 disables that point.
struct Config {
  bool enabled = false;
  /// Master seed. Overridden by the MFC_CHAOS_SEED environment variable so
  /// a failing CI interleaving replays from its printed seed.
  std::uint64_t seed = 1;
  /// Randomize each PE scheduler's pick among equally-ready threads from
  /// that PE's seeded stream (adversarial but replayable per PE).
  bool deterministic_sched = false;
  double iso_alloc_fail = 0.0;
  double pool_fail = 0.0;
  double delivery_delay = 0.0;
  /// Delay duration in scheduler-loop ticks, drawn uniform in
  /// [1, max_delay_ticks] per stashed message.
  std::uint32_t max_delay_ticks = 8;
  double preempt = 0.0;
  /// Emulated PE-failure probability; consumed keyed (per kill ordinal) by
  /// the storm driver's deterministic kill schedule, not as a free stream.
  double pe_kill = 0.0;
  /// Whole-process SIGKILL probability; consumed keyed (per checkpoint
  /// round) by the cross-process kill-storm driver's schedule.
  double proc_kill = 0.0;
};

/// Installs the chaos engine process-wide and logs `MFC_CHAOS_SEED=<seed>`.
/// Honors an MFC_CHAOS_SEED environment override. Install/uninstall are not
/// thread-safe against concurrent injection queries: install before the
/// machine (or scheduler work) starts, uninstall after it stops.
void install(const Config& config);
void uninstall();

namespace detail {
extern std::atomic<const void*> g_state;  // non-null while installed
}

inline bool enabled() {
  return detail::g_state.load(std::memory_order_acquire) != nullptr;
}

/// Effective config/seed (env override applied). Valid while installed.
const Config& config();
std::uint64_t seed();

/// Binds the calling kernel thread to PE `pe`'s decision streams (the
/// converse PE loop does this). Unbound threads share a mutex-guarded
/// external stream. Pass-through no-ops when chaos is not installed.
void bind_stream(int pe);
void unbind_stream();

/// Stream decision: true when the fault at `p` should fire now. False
/// whenever chaos is not installed or the point's probability is 0.
bool should_inject(Point p);

/// Stream draw: uniform in [0, below) from the bound stream's RNG for `p`.
std::uint64_t draw(Point p, std::uint64_t below);

/// Keyed decision/draw: pure functions of (seed, p, key); identical across
/// runs and threads for the same seed. Use these when the *consumer* of the
/// decision has a stable identity (worker id, hop number, shipment id).
bool keyed_inject(Point p, std::uint64_t key);
std::uint64_t keyed_draw(Point p, std::uint64_t key, std::uint64_t below);

/// Total injections fired at `p` since install (all streams + keyed).
std::uint64_t injections(Point p);

/// Per-PE scheduler-choice RNG for deterministic_sched mode; null when the
/// mode is off or no stream is bound. The converse loop installs this into
/// its Scheduler; it stays valid until unbind_stream().
SplitMix64* sched_choice_rng();

namespace detail {
void preempt_point_slow(const char* where);
}

/// Instrumented preemption point: when chaos is installed, the calling
/// context is inside a user-level thread, and the kPreempt stream fires,
/// yields that thread. No-op (one relaxed load) when chaos is off.
inline void preempt_point(const char* where) {
  if (!enabled()) return;
  detail::preempt_point_slow(where);
}

}  // namespace mfc::chaos
