#include "migrate/migratable.h"

#include "migrate/iso_thread.h"
#include "migrate/memalias_thread.h"
#include "migrate/stackcopy_thread.h"
#include "trace/flight.h"
#include "trace/hist.h"
#include "util/check.h"
#include "util/timer.h"

namespace mfc::migrate {

const char* to_string(Technique t) {
  switch (t) {
    case Technique::kStackCopy: return "stack-copy";
    case Technique::kIsomalloc: return "isomalloc";
    case Technique::kMemAlias: return "memory-alias";
  }
  return "?";
}

std::vector<char> MigratableThread::pack() {
  std::vector<char> wire = pack_manifest(/*count=*/true).to_wire();
  complete_pack();
  return wire;
}

MigratableThread* MigratableThread::unpack(const ImageManifest& image,
                                           int dest_pe) {
  const Technique technique = image.technique;
  const std::uint64_t thread_id = image.thread_id;
  const std::size_t wire = image.payload_bytes();
  // The unpack span closes the migration flow arrow the pack span opened
  // (the exporter keys it on the thread id, which survives the trip).
  trace::emit_flight(trace::Ev::kMigrateUnpackBegin, thread_id, 0, 0, -1,
                     trace_tag(technique));
  metrics::bump(unpack_counter(technique));
  const std::uint64_t t0 = hist::on() ? rdtsc() : 0;

  MigratableThread* t = nullptr;
  switch (technique) {
    case Technique::kIsomalloc:
      t = IsoThread::from_image(image, dest_pe);
      break;
    case Technique::kStackCopy:
      t = StackCopyThread::from_image(image);
      break;
    case Technique::kMemAlias:
      t = MemAliasThread::from_image(image);
      break;
  }
  MFC_CHECK_MSG(t != nullptr, "corrupt thread image: unknown technique");
  if (t0 != 0) hist::record(hist::Hist::kMigrateUnpack, rdtsc() - t0);
  trace::emit_flight(trace::Ev::kMigrateUnpackEnd, thread_id, 0,
                     static_cast<std::uint32_t>(wire), -1,
                     trace_tag(technique));
  return t;
}

}  // namespace mfc::migrate
