#include "migrate/checkpoint.h"

#include <cstdio>
#include <cstring>

#include "iso/region.h"
#include "util/check.h"
#include "util/crc32.h"

namespace mfc::migrate {

namespace {

// Frame header, stored little-endian via memcpy (this runtime is
// x86-64-only; the static_assert keeps the layout honest).
constexpr std::uint32_t kMagic = 0x4D46434Bu;  // "MFCK"
constexpr std::uint32_t kVersion = 2;          // v1 was the unframed format

struct FrameHeader {
  std::uint32_t magic;
  std::uint32_t version;
  std::uint64_t payload_len;
  std::uint32_t crc;
};
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 4;

}  // namespace

const char* to_string(CodecError e) {
  switch (e) {
    case CodecError::kOk: return "ok";
    case CodecError::kTruncated: return "truncated";
    case CodecError::kBadMagic: return "bad-magic";
    case CodecError::kBadVersion: return "bad-version";
    case CodecError::kBadCrc: return "bad-crc";
  }
  return "?";
}

Checkpoint::RegionStamp Checkpoint::current_stamp() {
  RegionStamp stamp;
  if (iso::Region::initialized()) {
    const iso::Region& region = iso::Region::instance();
    stamp.base = reinterpret_cast<std::uint64_t>(region.base());
    stamp.slot_bytes = region.config().slot_bytes;
    stamp.slots_per_pe = region.config().slots_per_pe;
    stamp.npes = region.config().npes;
  }
  return stamp;
}

void Checkpoint::stamp_once() {
  if (!stamped_) {
    stamp_ = current_stamp();
    stamped_ = true;
  }
}

void Checkpoint::add(MigratableThread* thread) {
  MFC_CHECK(thread != nullptr);
  stamp_once();
  sources_.push_back({nullptr, thread->pack()});
}

void Checkpoint::add_manifest(const ImageManifest& m) {
  stamp_once();
  sources_.push_back({&m, {}});
}

std::vector<MigratableThread*> Checkpoint::restore_all(int dest_pe) {
  MFC_CHECK_MSG(sources_.empty(),
                "checkpoint: restore_all() takes a decoded checkpoint");
  if (stamped_ && stamp_.base != 0) {
    const RegionStamp now = current_stamp();
    MFC_CHECK_MSG(now.base == stamp_.base &&
                      now.slot_bytes == stamp_.slot_bytes &&
                      now.slots_per_pe == stamp_.slots_per_pe &&
                      now.npes == stamp_.npes,
                  "checkpoint restore requires the same isomalloc region "
                  "geometry and base address (see checkpoint.h)");
  }
  std::vector<MigratableThread*> threads;
  threads.reserve(images_.size());
  for (ThreadImage& image : images_) {
    threads.push_back(MigratableThread::unpack(std::move(image), dest_pe));
  }
  images_.clear();
  return threads;
}

namespace {

void write_frame_header(char* frame, std::uint64_t payload_len,
                        std::uint32_t crc) {
  std::memcpy(frame, &kMagic, 4);
  std::memcpy(frame + 4, &kVersion, 4);
  std::memcpy(frame + 8, &payload_len, 8);
  std::memcpy(frame + 16, &crc, 4);
}

}  // namespace

std::vector<char> Checkpoint::encode() const {
  auto& self = const_cast<Checkpoint&>(*this);

  // Size phase: manifests size in O(#runs), packed bytes in O(1).
  pup::Sizer meta;
  meta | self.stamped_ | self.stamp_ | self.user_data_;
  std::size_t payload_len = meta.size() + sizeof(std::size_t);
  for (const Source& s : sources_) {
    payload_len += s.manifest != nullptr ? s.manifest->wire_size()
                                         : s.bytes.size();
  }

  // Pack phase: a single gather pass over the referenced memory, CRC folded
  // per iovec as the bytes land in the frame.
  std::vector<char> frame(kHeaderBytes + payload_len);
  pup::CrcMemPacker p(frame.data() + kHeaderBytes, payload_len);
  p | self.stamped_ | self.stamp_;
  std::size_t n = sources_.size();
  p.bytes(&n, sizeof n);
  for (Source& s : self.sources_) {
    if (s.manifest != nullptr) {
      s.manifest->pup_into(p);
    } else {
      p.bytes(s.bytes.data(), s.bytes.size());
    }
  }
  p | self.user_data_;
  MFC_CHECK(p.written(frame.data() + kHeaderBytes) == payload_len);
  write_frame_header(frame.data(), payload_len, p.crc());
  return frame;
}

CodecError Checkpoint::decode(const char* data, std::size_t size,
                              Checkpoint* out) {
  MFC_CHECK(out != nullptr);
  if (size < kHeaderBytes) return CodecError::kTruncated;
  FrameHeader h;
  std::memcpy(&h.magic, data, 4);
  std::memcpy(&h.version, data + 4, 4);
  std::memcpy(&h.payload_len, data + 8, 8);
  std::memcpy(&h.crc, data + 16, 4);
  if (h.magic != kMagic) return CodecError::kBadMagic;
  if (h.version != kVersion) return CodecError::kBadVersion;
  if (h.payload_len != size - kHeaderBytes) return CodecError::kTruncated;
  const char* payload = data + kHeaderBytes;
  if (crc32(payload, h.payload_len) != h.crc) return CodecError::kBadCrc;
  pup::MemUnpacker p(payload, h.payload_len);
  p | out->stamped_ | out->stamp_ | out->images_ | out->user_data_;
  return CodecError::kOk;
}

CodecError Checkpoint::decode(const std::vector<char>& bytes,
                              Checkpoint* out) {
  return decode(bytes.data(), bytes.size(), out);
}

void Checkpoint::write_file(const std::string& path) const {
  auto bytes = encode();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  MFC_CHECK_MSG(f != nullptr, "checkpoint: cannot open file for writing");
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  MFC_CHECK_MSG(written == bytes.size(), "checkpoint: short write");
}

Checkpoint Checkpoint::read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  MFC_CHECK_MSG(f != nullptr, "checkpoint: cannot open file for reading");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<char> bytes(static_cast<std::size_t>(size));
  const std::size_t got = std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  MFC_CHECK_MSG(got == bytes.size(), "checkpoint: short read");
  Checkpoint ckpt;
  const CodecError err = decode(bytes, &ckpt);
  MFC_CHECK_MSG(err == CodecError::kOk, "checkpoint: corrupt image file");
  return ckpt;
}

}  // namespace mfc::migrate
