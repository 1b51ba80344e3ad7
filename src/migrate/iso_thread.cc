#include "migrate/iso_thread.h"

#include <cstring>

#include "trace/flight.h"
#include "trace/hist.h"
#include "util/check.h"
#include "util/timer.h"

namespace mfc::migrate {

IsoThread::IsoThread(Fn fn, int birth_pe, std::size_t stack_bytes)
    : MigratableThread(std::move(fn)), birth_pe_(birth_pe) {
  iso::Region& region = iso::Region::instance();
  const std::size_t slot_bytes = region.config().slot_bytes;
  const auto count =
      static_cast<std::uint32_t>((stack_bytes + slot_bytes - 1) / slot_bytes);
  MFC_CHECK(count >= 1);
  // The stack and the heap's first slot are one run, so a migration's
  // evacuate and install each cost one page-table call.
  const iso::SlotId run = region.acquire(birth_pe_, count + 1);
  stack_slot_ = {run.pe, run.index, count};
  heap_ = new iso::ThreadHeap(birth_pe_,
                              iso::SlotId{run.pe, run.index + count, 1});
  init_context(region.slot_base(stack_slot_), region.slot_span(stack_slot_));
}

IsoThread::IsoThread(int dest_pe, const ImageManifest& image)
    : MigratableThread(Fn{}), birth_pe_(dest_pe), stack_slot_(image.stack_slot) {}

IsoThread::~IsoThread() {
  if (migrated_away_) return;  // slots now live on the destination
  delete heap_;
  iso::Region::instance().release(stack_slot_);
}

void IsoThread::on_switch_in() { iso::set_current_heap(heap_); }
void IsoThread::on_switch_out() { iso::set_current_heap(nullptr); }

ImageManifest IsoThread::pack_manifest(bool count) {
  MFC_CHECK_MSG(state() == ult::State::kSuspended,
                "pack_manifest() requires a suspended thread");
  const std::uint64_t t0 = count && hist::on() ? rdtsc() : 0;
  iso::Region& region = iso::Region::instance();

  ImageManifest m;
  m.technique = Technique::kIsomalloc;
  m.thread_id = id();
  m.accumulated_load = accumulated_load();
  m.saved_sp = reinterpret_cast<std::uint64_t>(saved_sp());
  m.stack_slot = stack_slot_;
  m.heap_slots = heap_->slots();

  // Stack run: only the live portion (from the saved stack pointer up to the
  // slot top) carries state; the System V ABI guarantees nothing below the
  // saved sp is live across the swap_context call. Zero copies here — the
  // manifest references the slot pages directly.
  {
    auto* base = static_cast<char*>(region.slot_base(stack_slot_));
    char* top = base + region.slot_span(stack_slot_);
    auto* sp = reinterpret_cast<char*>(saved_sp());
    MFC_CHECK(sp > base && sp <= top);
    m.runs.push_back({sp, static_cast<std::size_t>(top - sp)});
  }
  // Heap runs: each arena's extent, from its slot base through the header
  // of its free tail block (iso/heap.h). Every block header and the arena's
  // accounting lie inside it; past it is dead payload.
  for (std::size_t i = 0; i < m.heap_slots.size(); ++i) {
    m.runs.push_back({static_cast<char*>(region.slot_base(m.heap_slots[i])),
                      heap_->extent(i)});
  }

  if (count) {
    trace::emit_flight(trace::Ev::kMigratePackBegin, m.thread_id, 0, 0, -1,
                       trace_tag(Technique::kIsomalloc));
    metrics::bump(pack_counter(Technique::kIsomalloc));
    if (t0 != 0) hist::record(hist::Hist::kMigratePack, rdtsc() - t0);
    trace::emit_flight(trace::Ev::kMigratePackEnd, m.thread_id, 0,
                       static_cast<std::uint32_t>(m.payload_bytes()), -1,
                       trace_tag(Technique::kIsomalloc));
  }
  return m;
}

void IsoThread::complete_pack() {
  // Drop the local pages: from now on the shipped bytes are the only copy.
  std::vector<iso::SlotId> slots = heap_->slots();
  slots.push_back(stack_slot_);
  iso::Region::instance().evacuate(slots);
  heap_->abandon();
  delete heap_;
  heap_ = nullptr;
  migrated_away_ = true;
}

IsoThread* IsoThread::from_image(const ImageManifest& image, int dest_pe) {
  MFC_CHECK_MSG(image.runs.size() == 1 + image.heap_slots.size(),
                "corrupt thread image: isomalloc run count");
  iso::Region& region = iso::Region::instance();
  auto* t = new IsoThread(dest_pe, image);

  // Re-establish the stack and heap slots at their original
  // (machine-wide-unique) addresses, then copy their runs in. The install
  // leaves zero-fill pages, which stand in for the bytes no run carries:
  // below the saved stack pointer and past each heap arena's extent.
  std::vector<iso::SlotId> slots = image.heap_slots;
  slots.push_back(image.stack_slot);
  region.install(slots);
  auto* base = static_cast<char*>(region.slot_base(image.stack_slot));
  char* top = base + region.slot_span(image.stack_slot);
  const IoRun& stack_run = image.runs[0];
  auto* sp = reinterpret_cast<char*>(image.saved_sp);
  MFC_CHECK_MSG(sp >= base && top - sp == static_cast<std::ptrdiff_t>(
                                              stack_run.len),
                "corrupt thread image: stack run size mismatch");
  std::memcpy(sp, stack_run.data, stack_run.len);

  // Heap runs next, each at its slot base, then reattach the allocator
  // around them. ImageManifest::decode has checked that each run fits its
  // slot run for images from the wire.
  for (std::size_t i = 0; i < image.heap_slots.size(); ++i) {
    const iso::SlotId& id = image.heap_slots[i];
    const IoRun& run = image.runs[1 + i];
    MFC_CHECK_MSG(run.len <= region.slot_span(id),
                  "corrupt thread image: heap run longer than its slots");
    std::memcpy(region.slot_base(id), run.data, run.len);
  }
  t->heap_ = iso::ThreadHeap::reattach(dest_pe, image.heap_slots);

  t->set_saved_sp(sp);
  t->restore_identity(image.thread_id, image.accumulated_load);
  return t;
}

}  // namespace mfc::migrate
