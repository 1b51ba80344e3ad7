// CRC-32C implementations + runtime dispatch (see crc32.h).
#include "util/crc32.h"

#include <atomic>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MFC_CRC_X86 1
#include <cpuid.h>
#include <nmmintrin.h>
#endif

#if defined(__aarch64__) && defined(__ARM_FEATURE_CRC32)
#define MFC_CRC_ARM 1
#include <arm_acle.h>
#endif

namespace mfc {
namespace detail {
namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli

/// 8 slice tables: t[0] is the classic byte table, t[k][b] advances a byte
/// that sits k positions deeper in the register.
struct SliceTables {
  std::uint32_t t[8][256];
  SliceTables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) ? kPoly ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = t[0][i];
      for (int k = 1; k < 8; ++k) {
        c = t[0][c & 0xFFu] ^ (c >> 8);
        t[k][i] = c;
      }
    }
  }
};

const SliceTables& tables() {
  static const SliceTables s;
  return s;
}

#if defined(MFC_CRC_X86)

__attribute__((target("sse4.2"))) std::uint32_t crc32c_update_sse42(
    std::uint32_t c, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t c64 = c;
  while (n >= 8) {
    std::uint64_t word;
    __builtin_memcpy(&word, p, 8);
    c64 = _mm_crc32_u64(c64, word);
    p += 8;
    n -= 8;
  }
  c = static_cast<std::uint32_t>(c64);
  while (n > 0) {
    c = _mm_crc32_u8(c, *p++);
    --n;
  }
  return c;
}

bool cpu_has_sse42() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ecx & bit_SSE4_2) != 0;
}

#endif  // MFC_CRC_X86

#if defined(MFC_CRC_ARM)

std::uint32_t crc32c_update_armv8(std::uint32_t c, const void* data,
                                  std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  while (n >= 8) {
    std::uint64_t word;
    __builtin_memcpy(&word, p, 8);
    c = __crc32cd(c, word);
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    c = __crc32cb(c, *p++);
    --n;
  }
  return c;
}

#endif  // MFC_CRC_ARM

using UpdateFn = std::uint32_t (*)(std::uint32_t, const void*, std::size_t);

struct Dispatch {
  UpdateFn fn;
  CrcImpl impl;
  Dispatch() {
    fn = &crc32c_update_slice8;
    impl = CrcImpl::kSliceBy8;
#if defined(MFC_CRC_X86)
    if (cpu_has_sse42()) {
      fn = &crc32c_update_sse42;
      impl = CrcImpl::kHardware;
    }
#elif defined(MFC_CRC_ARM)
    fn = &crc32c_update_armv8;
    impl = CrcImpl::kHardware;
#endif
  }
};

const Dispatch& dispatch() {
  static const Dispatch d;
  return d;
}

}  // namespace

std::uint32_t crc32c_update_reference(std::uint32_t c, const void* data,
                                      std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  const std::uint32_t* t0 = tables().t[0];
  for (std::size_t i = 0; i < n; ++i) {
    c = t0[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

std::uint32_t crc32c_update_slice8(std::uint32_t c, const void* data,
                                   std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  const SliceTables& s = tables();
  while (n >= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    __builtin_memcpy(&lo, p, 4);
    __builtin_memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = s.t[7][lo & 0xFFu] ^ s.t[6][(lo >> 8) & 0xFFu] ^
        s.t[5][(lo >> 16) & 0xFFu] ^ s.t[4][lo >> 24] ^ s.t[3][hi & 0xFFu] ^
        s.t[2][(hi >> 8) & 0xFFu] ^ s.t[1][(hi >> 16) & 0xFFu] ^
        s.t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  return crc32c_update_reference(c, p, n);
}

std::uint32_t crc32c_update_dispatch(std::uint32_t c, const void* data,
                                     std::size_t n) {
  return dispatch().fn(c, data, n);
}

CrcImpl crc32c_impl() { return dispatch().impl; }

}  // namespace detail
}  // namespace mfc
