#include "trace/metrics.h"

#include <atomic>
#include <memory>

namespace mfc::metrics {

namespace {

struct alignas(64) Slot {
  std::atomic<std::uint64_t> v[kCounterCount] = {};
};

// g_slots[0..g_npes-1] are the per-PE single-writer slots; g_slots[g_npes]
// is the shared slot. Swapped only by reset() under the quiescence
// contract; the epoch guard invalidates thread_local bindings from a
// previous generation (same pattern as the chaos streams / trace rings).
std::unique_ptr<Slot[]> g_slots;
int g_npes = 0;
std::atomic<std::uint64_t> g_epoch{0};
int g_proc = 0;
int g_nprocs = 1;

thread_local Slot* t_slot = nullptr;
thread_local std::uint64_t t_slot_epoch = 0;

Slot* bound_slot() {
  if (t_slot != nullptr &&
      t_slot_epoch == g_epoch.load(std::memory_order_relaxed)) {
    return t_slot;
  }
  return nullptr;
}

}  // namespace

const char* to_string(Counter c) {
  switch (c) {
    case Counter::kMsgsSent: return "msgs-sent";
    case Counter::kMsgsDelivered: return "msgs-delivered";
    case Counter::kQdSent: return "qd-sent";
    case Counter::kMsgsAllocated: return "msgs-allocated";
    case Counter::kMsgsFreed: return "msgs-freed";
    case Counter::kMsgsRecycled: return "msgs-recycled";
    case Counter::kMsgsDrained: return "msgs-drained";
    case Counter::kPackStackCopy: return "pack-stackcopy";
    case Counter::kPackIso: return "pack-iso";
    case Counter::kPackMemAlias: return "pack-memalias";
    case Counter::kUnpackStackCopy: return "unpack-stackcopy";
    case Counter::kUnpackIso: return "unpack-iso";
    case Counter::kUnpackMemAlias: return "unpack-memalias";
    case Counter::kElemMigrations: return "elem-migrations";
    case Counter::kLbMigrations: return "lb-migrations";
    case Counter::kChaosInjections: return "chaos-injections";
    case Counter::kFtCheckpoints: return "ft-checkpoints";
    case Counter::kFtCheckpointBytes: return "ft-checkpoint-bytes";
    case Counter::kFtKills: return "ft-kills";
    case Counter::kFtDetections: return "ft-detections";
    case Counter::kFtRecoveries: return "ft-recoveries";
    case Counter::kFtShipBytes: return "ft-ship-bytes";
    case Counter::kFtAsyncChunks: return "ft-async-chunks";
    case Counter::kWireSentFrames: return "wire-sent-frames";
    case Counter::kWireSentBytes: return "wire-sent-bytes";
    case Counter::kWireDelivered: return "wire-delivered";
    case Counter::kWireChunks: return "wire-chunks";
    case Counter::kWireRendezvous: return "wire-rendezvous";
    case Counter::kSpanSends: return "span-sends";
    case Counter::kWireRetries: return "wire-retries";
    case Counter::kProcKills: return "proc-kills";
    case Counter::kProcRespawns: return "proc-respawns";
    case Counter::kCount: break;
  }
  return "?";
}

void reset(int npes) {
  if (npes < 0) npes = 0;
  g_slots = std::make_unique<Slot[]>(static_cast<std::size_t>(npes) + 1);
  g_npes = npes;
  g_epoch.fetch_add(1, std::memory_order_relaxed);
}

int npes() { return g_npes; }

void bind_pe(int pe) {
  if (g_slots == nullptr || pe < 0 || pe >= g_npes) {
    t_slot = nullptr;
    return;
  }
  t_slot = &g_slots[static_cast<std::size_t>(pe)];
  t_slot_epoch = g_epoch.load(std::memory_order_relaxed);
}

void unbind_pe() { t_slot = nullptr; }

void set_proc(int proc, int nprocs) {
  g_proc = proc < 0 ? 0 : proc;
  g_nprocs = nprocs < 1 ? 1 : nprocs;
}

int proc() { return g_proc; }

int nprocs() { return g_nprocs; }

void bump(Counter c, std::uint64_t n) {
  const int i = static_cast<int>(c);
  if (Slot* s = bound_slot()) {
    // Single-writer: only the owning PE thread stores here, so a relaxed
    // load+store replaces the lock-prefixed RMW on the hot path.
    s->v[i].store(s->v[i].load(std::memory_order_relaxed) + n,
                  std::memory_order_relaxed);
    return;
  }
  if (g_slots == nullptr) return;
  g_slots[static_cast<std::size_t>(g_npes)].v[i].fetch_add(
      n, std::memory_order_relaxed);
}

std::uint64_t total(Counter c) {
  if (g_slots == nullptr) return 0;
  const int i = static_cast<int>(c);
  std::uint64_t sum = 0;
  for (int s = 0; s <= g_npes; ++s) {
    sum += g_slots[static_cast<std::size_t>(s)].v[i].load(
        std::memory_order_relaxed);
  }
  return sum;
}

std::uint64_t pe_value(Counter c, int pe) {
  if (g_slots == nullptr || pe < 0 || pe >= g_npes) return 0;
  return g_slots[static_cast<std::size_t>(pe)]
      .v[static_cast<int>(c)]
      .load(std::memory_order_relaxed);
}

Snapshot Snapshot::diff(const Snapshot& since) const {
  Snapshot out;
  for (int i = 0; i < kCounterCount; ++i) {
    out.v[i] = v[i] >= since.v[i] ? v[i] - since.v[i] : 0;
  }
  out.proc = proc;
  out.nprocs = nprocs;
  out.procs = procs;
  return out;
}

void Snapshot::merge(const Snapshot& other) {
  for (int i = 0; i < kCounterCount; ++i) v[i] += other.v[i];
  procs |= other.procs;
  if (other.nprocs > nprocs) nprocs = other.nprocs;
  if (other.proc != proc) proc = -1;  // mixed provenance: no single owner
}

Snapshot snapshot() {
  Snapshot out;
  for (int i = 0; i < kCounterCount; ++i) {
    out.v[i] = total(static_cast<Counter>(i));
  }
  out.proc = g_proc;
  out.nprocs = g_nprocs;
  out.procs = g_proc < 64 ? (std::uint64_t{1} << g_proc) : 0;
  return out;
}

}  // namespace mfc::metrics
