#include "iso/region.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "chaos/chaos.h"
#include "trace/metrics.h"
#include "trace/trace.h"
#include "util/check.h"
#include "util/log.h"
#include "util/sysinfo.h"

namespace mfc::iso {

namespace {
Region* g_region = nullptr;
// Cross-process lease hooks (see region.h). Installed by the machine layer
// post-fork on multi-process machines; both set or both empty.
std::function<bool(int)> g_lease_owner_local;
std::function<void(SlotId)> g_lease_forward;

/// `ids` coalesced into maximal runs of adjacent slots of one strip, in
/// address order: each run is one SlotId whose count spans it.
std::vector<SlotId> runs_of(std::span<const SlotId> ids) {
  std::vector<SlotId> sorted(ids.begin(), ids.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const SlotId& a, const SlotId& b) {
              return a.pe != b.pe ? a.pe < b.pe : a.index < b.index;
            });
  std::vector<SlotId> runs;
  for (const SlotId& id : sorted) {
    MFC_CHECK(id.valid());
    if (!runs.empty() && runs.back().pe == id.pe &&
        runs.back().index + runs.back().count == id.index) {
      runs.back().count += id.count;
    } else {
      runs.push_back(id);
    }
  }
  return runs;
}
}  // namespace

void Region::init(const Config& config) {
  MFC_CHECK_MSG(g_region == nullptr, "iso::Region::init called twice");
  MFC_CHECK(config.npes >= 1);
  MFC_CHECK(config.slots_per_pe >= 1);
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  MFC_CHECK_MSG(config.slot_bytes % page == 0, "slot_bytes must be page-multiple");
  g_region = new Region(config);
}

void Region::shutdown() {
  delete g_region;
  g_region = nullptr;
}

bool Region::initialized() { return g_region != nullptr; }

Region& Region::instance() {
  MFC_CHECK_MSG(g_region != nullptr, "iso::Region not initialized");
  return *g_region;
}

Region::Region(const Config& config) : config_(config) {
  total_bytes_ = static_cast<std::size_t>(config_.npes) *
                 config_.slots_per_pe * config_.slot_bytes;
  base_ = mmap(nullptr, total_bytes_, PROT_NONE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  MFC_CHECK_MSG(base_ != MAP_FAILED, "isomalloc reservation failed");
  guard_markers_ = probe_guard_pages();
  strips_ = std::vector<Strip>(static_cast<std::size_t>(config_.npes));
  for (auto& strip : strips_) {
    strip.used.assign(config_.slots_per_pe, false);
    strip.resident.assign(config_.slots_per_pe, false);
    strip.mapped.assign(config_.slots_per_pe, false);
  }
  MFC_LOG_INFO("isomalloc region: base=%p bytes=%zu (%d PEs x %u slots x %zu B, "
               "evacuate by %s)",
               base_, total_bytes_, config_.npes, config_.slots_per_pe,
               config_.slot_bytes, guard_markers_ ? "guard markers" : "remap");
}

Region::~Region() { munmap(base_, total_bytes_); }

SlotId Region::try_acquire(int pe, std::uint32_t count) {
  MFC_CHECK(pe >= 0 && pe < config_.npes);
  MFC_CHECK(count >= 1 && count <= config_.slots_per_pe);
  // Chaos: pretend the strip is exhausted. Callers must treat an invalid
  // SlotId as the transient resource failure it models (acquire() retries).
  if (chaos::should_inject(chaos::Point::kIsoAcquire)) return SlotId{};
  Strip& strip = strips_[static_cast<std::size_t>(pe)];
  std::lock_guard<std::mutex> lock(strip.mutex);
  const std::uint32_t n = config_.slots_per_pe;
  // Next-fit scan for `count` consecutive free slots.
  for (std::uint32_t attempt = 0; attempt < n; ++attempt) {
    const std::uint32_t start = (strip.search_hint + attempt) % n;
    if (start + count > n) continue;
    bool all_free = true;
    for (std::uint32_t k = 0; k < count; ++k) {
      if (strip.used[start + k]) {
        all_free = false;
        break;
      }
    }
    if (!all_free) continue;
    for (std::uint32_t k = 0; k < count; ++k) {
      strip.used[start + k] = true;
      strip.resident[start + k] = true;
      strip.mapped[start + k] = true;
    }
    strip.used_count += count;
    strip.search_hint = (start + count) % n;
    SlotId id{pe, start, count};
    map_rw(id);  // residency marked above (install() would re-lock)
    // Only the success path traces: injected strip-exhaustion retries must
    // not perturb the replay-deterministic event counts.
    trace::emit(trace::Ev::kIsoSlotAcquire, 0, start, count,
                static_cast<std::int16_t>(pe));
    return id;
  }
  return SlotId{};
}

SlotId Region::acquire(int pe, std::uint32_t count) {
  SlotId id = try_acquire(pe, count);
  // Injected failures are transient by contract; a bounded retry separates
  // them from real strip exhaustion, which must still abort loudly.
  for (int retry = 0; !id.valid() && chaos::enabled() && retry < 64; ++retry) {
    id = try_acquire(pe, count);
  }
  MFC_CHECK_MSG(id.valid(), "isomalloc strip exhausted (virtual address space "
                            "limit — see paper §3.4.2)");
  return id;
}

void Region::release(SlotId id) {
  MFC_CHECK(id.valid());
  trace::emit(trace::Ev::kIsoSlotRelease, 0, id.index, id.count,
              static_cast<std::int16_t>(id.pe));
  // A freed slot returns to the PROT_NONE reservation; try_acquire maps it
  // afresh.
  drop({&id, 1}, /*keep_mapping=*/false);
  if (g_lease_owner_local && !g_lease_owner_local(id.pe)) {
    // Leased strip owned by another process: this process's bitmap copy
    // never recorded the acquire, so the free order travels to the birth
    // process (free_remote) instead of corrupting the local books.
    g_lease_forward(id);
    return;
  }
  Strip& strip = strips_[static_cast<std::size_t>(id.pe)];
  std::lock_guard<std::mutex> lock(strip.mutex);
  for (std::uint32_t k = 0; k < id.count; ++k) {
    MFC_CHECK_MSG(strip.used[id.index + k], "double release of iso slot");
    strip.used[id.index + k] = false;
  }
  strip.used_count -= id.count;
}

void Region::set_lease(std::function<bool(int)> owner_local,
                       std::function<void(SlotId)> forward) {
  MFC_CHECK(owner_local != nullptr && forward != nullptr);
  g_lease_owner_local = std::move(owner_local);
  g_lease_forward = std::move(forward);
}

void Region::clear_lease() {
  g_lease_owner_local = nullptr;
  g_lease_forward = nullptr;
}

void Region::free_remote(SlotId id) {
  MFC_CHECK(id.valid());
  Strip& strip = strips_[static_cast<std::size_t>(id.pe)];
  std::lock_guard<std::mutex> lock(strip.mutex);
  for (std::uint32_t k = 0; k < id.count; ++k) {
    MFC_CHECK_MSG(strip.used[id.index + k],
                  "remote free of an unused iso slot");
    strip.used[id.index + k] = false;
  }
  strip.used_count -= id.count;
}

void Region::reassert(SlotId id) {
  MFC_CHECK(id.valid());
  Strip& strip = strips_[static_cast<std::size_t>(id.pe)];
  std::lock_guard<std::mutex> lock(strip.mutex);
  for (std::uint32_t k = 0; k < id.count; ++k) {
    if (!strip.used[id.index + k]) {
      strip.used[id.index + k] = true;
      ++strip.used_count;
    }
  }
}

void* Region::slot_base(SlotId id) const {
  MFC_CHECK(id.valid());
  const std::size_t strip_bytes =
      static_cast<std::size_t>(config_.slots_per_pe) * config_.slot_bytes;
  return static_cast<char*>(base_) +
         static_cast<std::size_t>(id.pe) * strip_bytes +
         static_cast<std::size_t>(id.index) * config_.slot_bytes;
}

void Region::map_none(SlotId id) {
  void* addr = slot_base(id);
  // Re-establish the PROT_NONE reservation over the slot, dropping its
  // physical pages — the remote copy is now the only one, mirroring
  // distributed-memory migration even in the in-process emulation.
  void* r = mmap(addr, slot_span(id), PROT_NONE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_FIXED, -1, 0);
  MFC_CHECK_MSG(r == addr, "iso evacuate remap failed");
}

void Region::map_rw(SlotId id) {
  void* addr = slot_base(id);
  void* r = mmap(addr, slot_span(id), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED, -1, 0);
  MFC_CHECK_MSG(r == addr, "iso install remap failed");
}

void Region::advise(SlotId id, int advice) {
  MFC_CHECK_MSG(madvise(slot_base(id), slot_span(id), advice) == 0,
                "iso guard-marker madvise failed");
}

void Region::evacuate(std::span<const SlotId> ids) {
  metrics::bump(metrics::Counter::kIsoMadvise,
                drop(ids, /*keep_mapping=*/guard_markers_));
}

std::size_t Region::drop(std::span<const SlotId> ids, bool keep_mapping) {
  const std::vector<SlotId> runs = runs_of(ids);
  for (const SlotId& run : runs) {
    Strip& strip = strips_[static_cast<std::size_t>(run.pe)];
    {
      std::lock_guard<std::mutex> lock(strip.mutex);
      for (std::uint32_t k = 0; k < run.count; ++k) {
        MFC_CHECK_MSG(strip.resident[run.index + k],
                      "evacuating an iso slot with no resident pages "
                      "(double pack?)");
        strip.resident[run.index + k] = false;
        strip.mapped[run.index + k] = keep_mapping;
      }
    }
    // Guard markers drop the pages as the PROT_NONE remap does, and a touch
    // still faults, but the VMA tree is left alone.
    if (keep_mapping) {
      advise(run, kMadvGuardInstall);
    } else {
      map_none(run);
    }
  }
  return runs.size();
}

void Region::install(std::span<const SlotId> ids) {
  const std::vector<SlotId> runs = runs_of(ids);
  for (const SlotId& run : runs) {
    Strip& strip = strips_[static_cast<std::size_t>(run.pe)];
    bool mapped = true;
    {
      std::lock_guard<std::mutex> lock(strip.mutex);
      for (std::uint32_t k = 0; k < run.count; ++k) {
        MFC_CHECK_MSG(!strip.resident[run.index + k],
                      "iso install over a resident slot — a thread already "
                      "lives at these addresses (restoring a checkpoint over "
                      "a live thread?)");
        strip.resident[run.index + k] = true;
        mapped = mapped && strip.mapped[run.index + k];
        strip.mapped[run.index + k] = true;
      }
    }
    // A run this process evacuated is still mapped: lifting its markers
    // leaves zero-fill pages. A remote arrival (or a respawned process)
    // finds the PROT_NONE reservation, or a mix, and maps the run afresh.
    if (mapped) {
      advise(run, kMadvGuardRemove);
    } else {
      map_rw(run);
    }
  }
  metrics::bump(metrics::Counter::kIsoMadvise, runs.size());
}

bool Region::contains(const void* p) const {
  const char* c = static_cast<const char*>(p);
  const char* b = static_cast<const char*>(base_);
  return c >= b && c < b + total_bytes_;
}

std::uint32_t Region::used_slots(int pe) const {
  MFC_CHECK(pe >= 0 && pe < config_.npes);
  return strips_[static_cast<std::size_t>(pe)].used_count;
}

std::uint32_t Region::free_slots(int pe) const {
  return config_.slots_per_pe - used_slots(pe);
}

}  // namespace mfc::iso
