#include "migrate/manifest.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "iso/region.h"
#include "migrate/common_arena.h"
#include "migrate/migratable.h"
#include "util/check.h"

namespace mfc::migrate {

const char* to_string(CodecError e) {
  switch (e) {
    case CodecError::kOk: return "ok";
    case CodecError::kTruncated: return "truncated";
    case CodecError::kBadMagic: return "bad-magic";
    case CodecError::kBadVersion: return "bad-version";
    case CodecError::kBadCrc: return "bad-crc";
    case CodecError::kOverrun: return "overrun";
    case CodecError::kTrailingBytes: return "trailing-bytes";
    case CodecError::kBadTechnique: return "bad-technique";
    case CodecError::kBadShape: return "bad-shape";
    case CodecError::kBadSlot: return "bad-slot";
  }
  return "?";
}

namespace {

/// Bounds-checked reads over the bytes being decoded.
struct Cursor {
  const char* p;
  const char* end;

  std::size_t left() const { return static_cast<std::size_t>(end - p); }

  template <typename T>
  bool read(T* out) {
    if (left() < sizeof(T)) return false;
    std::memcpy(out, p, sizeof(T));
    p += sizeof(T);
    return true;
  }

  /// A SlotId as its pup writes it: pe, index, count.
  bool read(iso::SlotId* id) {
    return read(&id->pe) && read(&id->index) && read(&id->count);
  }

  /// A length word and that many bytes, referenced in place.
  CodecError read_run(IoRun* run) {
    std::size_t len = 0;
    if (!read(&len)) return CodecError::kTruncated;
    if (len > left()) return CodecError::kOverrun;
    *run = {p, len};
    p += len;
    return CodecError::kOk;
  }
};

constexpr std::size_t kSlotIdBytes = 12;  // pe, index, count

/// An isomalloc image's slot ids must name slot runs of the running
/// region: a PE below npes, at least one slot, and a run that ends inside
/// the PE's strip. Without a region (a codec-only caller) there is nothing
/// to check against, and no install to protect either.
bool slots_fit(const ImageManifest& m) {
  if (!iso::Region::initialized()) return true;
  const iso::Region::Config& g = iso::Region::instance().config();
  const auto fits = [&g](const iso::SlotId& id) {
    return id.pe >= 0 && id.pe < g.npes && id.count != 0 &&
           std::uint64_t{id.index} + id.count <= g.slots_per_pe;
  };
  return fits(m.stack_slot) &&
         std::all_of(m.heap_slots.begin(), m.heap_slots.end(), fits);
}

/// Each isomalloc run must fit the slot run it lands in: the stack run its
/// stack slots, each heap run its arena's slots. Called once slots_fit()
/// holds, so every count is bounded by the strip.
bool runs_fit(const ImageManifest& m) {
  if (!iso::Region::initialized()) return true;
  const iso::Region& region = iso::Region::instance();
  if (m.runs[0].len > region.slot_span(m.stack_slot)) return false;
  for (std::size_t i = 0; i < m.heap_slots.size(); ++i) {
    if (m.runs[1 + i].len > region.slot_span(m.heap_slots[i])) return false;
  }
  return true;
}

/// A stack-copy or memory-alias stack run is the live stack of its
/// technique's common arena in this process: it ends at the arena top and
/// begins at the saved stack pointer. A memory-alias capacity is also a
/// whole number of pages, since the destination maps that many bytes of a
/// pool slot.
bool stack_fits(const ImageManifest& m) {
  const bool memalias = m.technique == Technique::kMemAlias;
  const CommonStackArena& arena = memalias ? CommonStackArena::mem_alias()
                                           : CommonStackArena::stack_copy();
  const auto top = reinterpret_cast<std::uint64_t>(arena.top());
  return m.arena_base == reinterpret_cast<std::uint64_t>(arena.base()) &&
         m.saved_sp == top - m.stack_run.len &&
         (!memalias || m.stack_capacity % static_cast<std::uint64_t>(
                                              sysconf(_SC_PAGESIZE)) ==
                           0);
}

}  // namespace

CodecError ImageManifest::decode(const char* data, std::size_t size,
                                 ImageManifest* out, std::size_t* consumed) {
  MFC_CHECK(out != nullptr);
  *out = ImageManifest{};
  Cursor c{data, data + size};
  std::uint8_t technique = 0;
  if (!c.read(&technique)) return CodecError::kTruncated;
  switch (static_cast<Technique>(technique)) {
    case Technique::kStackCopy:
    case Technique::kIsomalloc:
    case Technique::kMemAlias:
      out->technique = static_cast<Technique>(technique);
      break;
    default:
      return CodecError::kBadTechnique;
  }
  std::size_t n = 0;
  if (!c.read(&out->thread_id) || !c.read(&out->accumulated_load) ||
      !c.read(&out->saved_sp) || !c.read(&out->stack_slot) || !c.read(&n)) {
    return CodecError::kTruncated;
  }
  if (n > c.left() / kSlotIdBytes) return CodecError::kOverrun;
  for (std::size_t i = 0; i < n; ++i) {
    iso::SlotId id;
    c.read(&id);
    out->heap_slots.push_back(id);
  }
  if (!c.read(&n)) return CodecError::kTruncated;
  if (n > c.left() / sizeof(std::size_t)) return CodecError::kOverrun;
  for (std::size_t i = 0; i < n; ++i) {
    IoRun run;
    if (const CodecError e = c.read_run(&run); e != CodecError::kOk) return e;
    out->runs.push_back(run);
  }
  if (const CodecError e = c.read_run(&out->stack_run);
      e != CodecError::kOk) {
    return e;
  }
  if (!c.read(&out->stack_capacity) || !c.read(&out->arena_base)) {
    return CodecError::kTruncated;
  }
  // Isomalloc images carry one stack run plus one run per heap slot; the
  // others carry their stack bytes alone, at most a common arena's worth.
  const bool iso = out->technique == Technique::kIsomalloc;
  if (iso ? out->runs.size() != 1 + out->heap_slots.size() ||
                out->stack_run.len != 0
          : !out->runs.empty() || !out->heap_slots.empty() ||
                out->stack_capacity > CommonStackArena::kCapacity ||
                out->stack_run.len > out->stack_capacity) {
    return CodecError::kBadShape;
  }
  if (iso && !slots_fit(*out)) return CodecError::kBadSlot;
  if (iso ? !runs_fit(*out) : !stack_fits(*out)) return CodecError::kBadShape;
  if (consumed != nullptr) {
    *consumed = static_cast<std::size_t>(c.p - data);
  } else if (c.left() != 0) {
    return CodecError::kTrailingBytes;
  }
  return CodecError::kOk;
}

CodecError ImageManifest::decode(const std::vector<char>& bytes,
                                 ImageManifest* out) {
  return decode(bytes.data(), bytes.size(), out);
}

void ImageManifest::pup_into(pup::Er& p) const {
  MFC_CHECK(!p.unpacking());  // gather-only; decode() reads the bytes
  auto& self = const_cast<ImageManifest&>(*this);
  p | self.technique | self.thread_id | self.accumulated_load |
      self.saved_sp | self.stack_slot | self.heap_slots;
  // Runs: the encoding of a vector<vector<char>> — count, then each run
  // as length + raw bytes, sourced from the iovec list.
  std::size_t n = runs.size();
  p.bytes(&n, sizeof n);
  for (const IoRun& run : runs) {
    std::size_t len = run.len;
    p.bytes(&len, sizeof len);
    if (len) p.bytes(const_cast<char*>(run.data), len);
  }
  // Stack bytes: a vector<char> encoding of the stack run.
  std::size_t stack_len = stack_run.len;
  p.bytes(&stack_len, sizeof stack_len);
  if (stack_len) p.bytes(const_cast<char*>(stack_run.data), stack_len);
  p | self.stack_capacity | self.arena_base;
}

std::size_t ImageManifest::wire_size() const {
  pup::Sizer s;
  pup_into(s);
  return s.size();
}

std::size_t ImageManifest::payload_bytes() const {
  std::size_t total = stack_run.len;
  for (const IoRun& run : runs) total += run.len;
  return total;
}

std::vector<char> ImageManifest::to_wire(std::uint32_t* crc_out) const {
  std::vector<char> wire(wire_size());
  pup::CrcMemPacker packer(wire.data(), wire.size());
  pup_into(packer);
  MFC_CHECK(packer.written(wire.data()) == wire.size());
  if (crc_out != nullptr) *crc_out = packer.crc();
  return wire;
}

std::vector<IoRun> ImageManifest::wire_spans(std::vector<char>* scratch) const {
  MFC_CHECK(scratch != nullptr);
  auto& self = const_cast<ImageManifest&>(*this);
  // Scratch holds every byte to_wire() would emit that is NOT a run
  // payload: [metadata prefix + run count][one length word per run]
  // [stack length word][stack_capacity + arena_base]. Sized up front so the
  // span pointers survive — no reallocation after the first resize.
  pup::Sizer prefix_sizer;
  prefix_sizer | self.technique | self.thread_id | self.accumulated_load |
      self.saved_sp | self.stack_slot | self.heap_slots;
  const std::size_t prefix = prefix_sizer.size() + sizeof(std::size_t);
  pup::Sizer trailer_sizer;
  trailer_sizer | self.stack_capacity | self.arena_base;
  const std::size_t trailer = trailer_sizer.size();
  scratch->resize(prefix + (runs.size() + 1) * sizeof(std::size_t) + trailer);
  char* s = scratch->data();
  {
    pup::MemPacker p(s, prefix);
    p | self.technique | self.thread_id | self.accumulated_load |
        self.saved_sp | self.stack_slot | self.heap_slots;
    std::size_t n = runs.size();
    p.bytes(&n, sizeof n);
    MFC_CHECK(p.written(s) == prefix);
  }
  std::vector<IoRun> spans;
  spans.reserve(2 * runs.size() + 4);
  spans.push_back({s, prefix});
  std::size_t off = prefix;
  for (const IoRun& run : runs) {
    const std::size_t len = run.len;
    std::memcpy(s + off, &len, sizeof len);
    spans.push_back({s + off, sizeof len});
    off += sizeof len;
    if (run.len) spans.push_back(run);
  }
  const std::size_t stack_len = stack_run.len;
  std::memcpy(s + off, &stack_len, sizeof stack_len);
  spans.push_back({s + off, sizeof stack_len});
  off += sizeof stack_len;
  if (stack_run.len) spans.push_back(stack_run);
  {
    pup::MemPacker p(s + off, trailer);
    p | self.stack_capacity | self.arena_base;
    MFC_CHECK(p.written(s + off) == trailer);
  }
  spans.push_back({s + off, trailer});
  return spans;
}

}  // namespace mfc::migrate
