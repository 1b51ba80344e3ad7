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
  for (const ImageManifest& image : images_) {
    threads.push_back(MigratableThread::unpack(image, dest_pe));
  }
  images_.clear();
  std::vector<char>().swap(frame_);
  return threads;
}

namespace {

void put_frame_header(char* frame, std::uint64_t payload_len,
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
  put_frame_header(frame.data(), payload_len, p.crc());
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

  // The payload as encode() writes it: stamped, region stamp, image count,
  // the images back to back, user data. Every read is bounds-checked.
  out->frame_.assign(payload, payload + h.payload_len);
  const char* p = out->frame_.data();
  const char* const end = p + out->frame_.size();
  auto take = [&p, end](void* dst, std::size_t n) {
    if (static_cast<std::size_t>(end - p) < n) return false;
    std::memcpy(dst, p, n);
    p += n;
    return true;
  };
  std::uint8_t stamped = 0;
  RegionStamp& st = out->stamp_;
  std::size_t count = 0;
  if (!take(&stamped, 1) || !take(&st.base, 8) || !take(&st.slot_bytes, 8) ||
      !take(&st.slots_per_pe, 4) || !take(&st.npes, 4) ||
      !take(&count, sizeof count)) {
    return CodecError::kTruncated;
  }
  out->stamped_ = stamped != 0;
  out->images_.clear();
  for (std::size_t i = 0; i < count; ++i) {
    ImageManifest image;
    std::size_t used = 0;
    const CodecError err = ImageManifest::decode(
        p, static_cast<std::size_t>(end - p), &image, &used);
    if (err != CodecError::kOk) return err;
    p += used;
    out->images_.push_back(std::move(image));
  }
  std::size_t user_len = 0;
  if (!take(&user_len, sizeof user_len)) return CodecError::kTruncated;
  if (user_len > static_cast<std::size_t>(end - p)) return CodecError::kOverrun;
  out->user_data_.assign(p, p + user_len);
  p += user_len;
  return p == end ? CodecError::kOk : CodecError::kTrailingBytes;
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
