#include "migrate/manifest.h"

#include <cstring>

#include "migrate/migratable.h"
#include "util/check.h"

namespace mfc::migrate {

void ImageManifest::pup_into(pup::Er& p) const {
  MFC_CHECK(!p.unpacking());  // gather-only codec; unpack goes via ThreadImage
  auto& self = const_cast<ImageManifest&>(*this);
  p | self.technique | self.thread_id | self.accumulated_load |
      self.saved_sp | self.stack_slot | self.heap_slots;
  // slot_data: identical encoding to vector<vector<char>> — count, then
  // each run as length + raw bytes, but sourced from the iovec list.
  std::size_t n = runs.size();
  p.bytes(&n, sizeof n);
  for (const IoRun& run : runs) {
    std::size_t len = run.len;
    p.bytes(&len, sizeof len);
    if (len) p.bytes(const_cast<char*>(run.data), len);
  }
  // stack_bytes: vector<char> encoding from the stack run.
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
