// PUP (Pack/UnPack) framework — the paper's §3.1.1 mechanism for describing
// and shipping user-defined objects during migration and checkpointing.
//
// One traversal function describes an object's data; the same function is
// driven in three modes:
//   Sizer       — measures the packed size,
//   MemPacker   — writes the bytes into a buffer,
//   MemUnpacker — reads them back.
//
// Usage:
//   struct Particle {
//     double x, y, z; std::vector<int> bonds;
//     void pup(mfc::pup::Er& p) { p | x | y | z | bonds; }
//   };
//   auto bytes = mfc::pup::to_bytes(particle);
//   Particle q; mfc::pup::from_bytes(bytes, q);
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/crc32.h"

namespace mfc::pup {

class Er {
 public:
  enum class Mode { kSizing, kPacking, kUnpacking };

  virtual ~Er() = default;

  bool sizing() const { return mode_ == Mode::kSizing; }
  bool packing() const { return mode_ == Mode::kPacking; }
  bool unpacking() const { return mode_ == Mode::kUnpacking; }

  /// Processes `n` raw bytes at `data` (measured, copied out, or copied in
  /// depending on mode).
  virtual void bytes(void* data, std::size_t n) = 0;

  /// Bytes an unpacker has left to read; unbounded in the other modes. A
  /// container checks its length word against it before it allocates, so
  /// a damaged word cannot size an allocation.
  virtual std::size_t remaining() const { return SIZE_MAX; }

 protected:
  explicit Er(Mode mode) : mode_(mode) {}

 private:
  Mode mode_;
};

class Sizer final : public Er {
 public:
  Sizer() : Er(Mode::kSizing) {}
  void bytes(void*, std::size_t n) override { total_ += n; }
  std::size_t size() const { return total_; }

 private:
  std::size_t total_ = 0;
};

class MemPacker final : public Er {
 public:
  /// `buf` must have room for the Sizer-measured size.
  MemPacker(void* buf, std::size_t capacity)
      : Er(Mode::kPacking), cur_(static_cast<char*>(buf)),
        end_(cur_ + capacity) {}

  void bytes(void* data, std::size_t n) override {
    MFC_CHECK_MSG(cur_ + n <= end_, "pup pack overflow");
    std::memcpy(cur_, data, n);
    cur_ += n;
  }

  std::size_t written(const void* buf) const {
    return static_cast<std::size_t>(cur_ - static_cast<const char*>(buf));
  }

 private:
  char* cur_;
  char* end_;
};

class MemUnpacker final : public Er {
 public:
  MemUnpacker(const void* buf, std::size_t size)
      : Er(Mode::kUnpacking), cur_(static_cast<const char*>(buf)),
        end_(cur_ + size) {}

  void bytes(void* data, std::size_t n) override {
    MFC_CHECK_MSG(n <= remaining(), "pup unpack underflow");
    std::memcpy(data, cur_, n);
    cur_ += n;
  }

  std::size_t remaining() const override {
    return static_cast<std::size_t>(end_ - cur_);
  }

  std::size_t consumed(const void* buf) const {
    return static_cast<std::size_t>(cur_ - static_cast<const char*>(buf));
  }

 private:
  const char* cur_;
  const char* end_;
};

/// Single-traversal size+pack: appends into a growing vector, so callers
/// that don't need an exact-size buffer up front skip the Sizer walk
/// entirely — one traversal instead of two. Byte output is identical to
/// Sizer+MemPacker because the traversal and append order are the same.
class VecPacker final : public Er {
 public:
  /// Appends to `out` (existing contents are kept). `reserve_hint` presizes
  /// the vector to avoid growth reallocations when the caller can guess.
  explicit VecPacker(std::vector<char>& out, std::size_t reserve_hint = 0)
      : Er(Mode::kPacking), out_(out) {
    if (reserve_hint) out_.reserve(out_.size() + reserve_hint);
  }

  void bytes(void* data, std::size_t n) override {
    const char* p = static_cast<const char*>(data);
    out_.insert(out_.end(), p, p + n);
  }

 private:
  std::vector<char>& out_;
};

/// MemPacker that folds a streaming CRC-32C over every byte it writes, in
/// the same pass as the copy. This is the "incremental CRC per iovec"
/// primitive: the checkpoint gather path drives one CrcMemPacker over the
/// manifest and gets the frame payload and its checksum from a single walk
/// over the source memory.
class CrcMemPacker final : public Er {
 public:
  /// Folds into `acc` when given (letting one CRC span several packers in a
  /// larger stream, e.g. a checkpoint frame), else into an internal one.
  CrcMemPacker(void* buf, std::size_t capacity, Crc32* acc = nullptr)
      : Er(Mode::kPacking), cur_(static_cast<char*>(buf)),
        end_(cur_ + capacity), crc_(acc != nullptr ? acc : &own_) {}

  void bytes(void* data, std::size_t n) override {
    MFC_CHECK_MSG(cur_ + n <= end_, "pup pack overflow");
    std::memcpy(cur_, data, n);
    crc_->update(cur_, n);
    cur_ += n;
  }

  std::size_t written(const void* buf) const {
    return static_cast<std::size_t>(cur_ - static_cast<const char*>(buf));
  }
  std::uint32_t crc() const { return crc_->value(); }

 private:
  char* cur_;
  char* end_;
  Crc32 own_;
  Crc32* crc_;
};

// ---- pup() overload set ----------------------------------------------------

/// A type with a member `void pup(Er&)`.
template <typename T>
concept HasMemberPup = requires(T t, Er& p) { t.pup(p); };

/// Trivially copyable scalars/aggregates without a member pup() go through
/// raw bytes.
template <typename T>
  requires(std::is_trivially_copyable_v<T> && !HasMemberPup<T>)
void pup(Er& p, T& value) {
  p.bytes(&value, sizeof value);
}

template <HasMemberPup T>
void pup(Er& p, T& value) {
  value.pup(p);
}

namespace detail {
/// Reads or writes a container's length word. Unpacking, a word that
/// counts more `elem_bytes`-byte elements than are left to read fails
/// before anything is allocated (0: elements of no fixed size).
inline std::size_t pup_length(Er& p, std::size_t n, std::size_t elem_bytes) {
  p.bytes(&n, sizeof n);
  MFC_CHECK_MSG(!p.unpacking() || elem_bytes == 0 ||
                    n <= p.remaining() / elem_bytes,
                "pup unpack underflow");
  return n;
}

/// Unpacks `n` elements into a vector or deque, growing it one element at
/// a time as each is read; packs or sizes them in place otherwise.
template <typename Seq>
void pup_elements(Er& p, Seq& c, std::size_t n) {
  if (p.unpacking() && c.size() > n) c.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i == c.size()) c.emplace_back();
    pup(p, c[i]);
  }
}
}  // namespace detail

inline void pup(Er& p, std::string& s) {
  const std::size_t n = detail::pup_length(p, s.size(), 1);
  if (p.unpacking()) s.resize(n);
  if (n) p.bytes(s.data(), n);
}

template <typename T>
Er& operator|(Er& p, T& value) {
  pup(p, value);
  return p;
}

/// Raw buffer of caller-managed size.
inline void pup_bytes(Er& p, void* data, std::size_t n) { p.bytes(data, n); }

template <typename T>
void pup(Er& p, std::vector<T>& v) {
  if constexpr (std::is_trivially_copyable_v<T> && !HasMemberPup<T>) {
    const std::size_t n = detail::pup_length(p, v.size(), sizeof(T));
    if (p.unpacking()) v.resize(n);
    if (n) p.bytes(v.data(), n * sizeof(T));
  } else {
    detail::pup_elements(p, v, detail::pup_length(p, v.size(), 0));
  }
}

template <typename T>
void pup(Er& p, std::deque<T>& d) {
  detail::pup_elements(p, d, detail::pup_length(p, d.size(), 0));
}

template <typename T, std::size_t N>
void pup(Er& p, std::array<T, N>& a) {
  if constexpr (std::is_trivially_copyable_v<T> && !HasMemberPup<T>) {
    p.bytes(a.data(), N * sizeof(T));
  } else {
    for (auto& e : a) pup(p, e);
  }
}

template <typename A, typename B>
void pup(Er& p, std::pair<A, B>& pr) {
  pup(p, pr.first);
  pup(p, pr.second);
}

template <typename T>
void pup(Er& p, std::optional<T>& o) {
  bool has = o.has_value();
  p.bytes(&has, sizeof has);
  if (p.unpacking()) {
    if (has && !o.has_value()) o.emplace();
    if (!has) o.reset();
  }
  if (has) pup(p, *o);
}

namespace detail {
template <typename Map>
void pup_map(Er& p, Map& m) {
  std::size_t n = m.size();
  p.bytes(&n, sizeof n);
  if (p.unpacking()) {
    m.clear();
    for (std::size_t i = 0; i < n; ++i) {
      typename Map::key_type k{};
      typename Map::mapped_type v{};
      pup(p, k);
      pup(p, v);
      m.emplace(std::move(k), std::move(v));
    }
  } else {
    for (auto& [k, v] : m) {
      auto key = k;  // keys are const in-place; pack a copy
      pup(p, key);
      pup(p, v);
    }
  }
}
}  // namespace detail

template <typename K, typename V, typename C, typename A>
void pup(Er& p, std::map<K, V, C, A>& m) {
  detail::pup_map(p, m);
}

template <typename K, typename V, typename H, typename E, typename A>
void pup(Er& p, std::unordered_map<K, V, H, E, A>& m) {
  detail::pup_map(p, m);
}

// ---- Convenience round-trip helpers ----------------------------------------

// Sizing and packing never mutate the value, so these accept const and
// cast internally (the pup() traversal signature must stay non-const
// because the same function also drives unpacking).
template <typename T>
std::size_t packed_size(const T& value) {
  Sizer s;
  pup(s, const_cast<T&>(value));
  return s.size();
}

template <typename T>
std::vector<char> to_bytes(const T& value) {
  std::vector<char> buf(packed_size(value));
  MemPacker packer(buf.data(), buf.size());
  pup(packer, const_cast<T&>(value));
  return buf;
}

/// Single-traversal variant of to_bytes(): no sizing pass, bytes appended
/// as the traversal runs. Identical output; preferable for large or deeply
/// nested objects where walking the structure twice doubles the cost.
template <typename T>
std::vector<char> to_bytes_onepass(const T& value,
                                   std::size_t reserve_hint = 0) {
  std::vector<char> buf;
  VecPacker packer(buf, reserve_hint);
  pup(packer, const_cast<T&>(value));
  return buf;
}

template <typename T>
void from_bytes(const std::vector<char>& buf, T& out) {
  MemUnpacker unpacker(buf.data(), buf.size());
  pup(unpacker, out);
}

}  // namespace mfc::pup
