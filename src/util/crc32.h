// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78) over byte buffers.
//
// Used by the checkpoint codec to reject truncated or bit-flipped images
// before the PUP layer ever sees them: a framed checkpoint stores the CRC of
// its payload, and restore verifies it. The polynomial is Castagnoli rather
// than IEEE 802.3 because that is the one x86 SSE4.2 (`crc32q`) and ARMv8
// (`crc32cx`) compute in hardware; the frame format is self-consistent, so
// the choice is invisible outside this header.
//
// Three implementations, selected once at runtime:
//   - hardware (SSE4.2 / ARMv8 CRC extensions) when the CPU has it,
//   - slice-by-8 table walk (8 KiB of tables, ~8 bytes per iteration),
//   - a byte-at-a-time reference loop, kept callable for equivalence tests.
//
// `Crc32` is the streaming form: update() over any chunking of a buffer
// yields the same value as one crc32() call over the whole buffer, which is
// what lets the checkpoint gather path fold the CRC per-iovec as it copies.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mfc {

namespace detail {

/// Implementation picked by the runtime dispatch probe.
enum class CrcImpl { kReference, kSliceBy8, kHardware };

/// One pass over `n` bytes folding into the raw (pre/post-XOR-free)
/// register `c`. Each variant computes the same function.
std::uint32_t crc32c_update_reference(std::uint32_t c, const void* data,
                                      std::size_t n);
std::uint32_t crc32c_update_slice8(std::uint32_t c, const void* data,
                                   std::size_t n);
std::uint32_t crc32c_update_dispatch(std::uint32_t c, const void* data,
                                     std::size_t n);

/// Which implementation the dispatcher resolved to on this machine.
CrcImpl crc32c_impl();

}  // namespace detail

/// One-shot CRC-32C of `n` bytes. `seed` chains: crc32(b, n2, crc32(a, n1))
/// equals crc32 of the concatenation.
inline std::uint32_t crc32(const void* data, std::size_t n,
                           std::uint32_t seed = 0) {
  return detail::crc32c_update_dispatch(seed ^ 0xFFFFFFFFu, data, n) ^
         0xFFFFFFFFu;
}

/// Streaming CRC-32C. update() in any chunking; value() at any point.
class Crc32 {
 public:
  Crc32() = default;
  explicit Crc32(std::uint32_t seed) : c_(seed ^ 0xFFFFFFFFu) {}

  void update(const void* data, std::size_t n) {
    c_ = detail::crc32c_update_dispatch(c_, data, n);
  }
  std::uint32_t value() const { return c_ ^ 0xFFFFFFFFu; }
  void reset(std::uint32_t seed = 0) { c_ = seed ^ 0xFFFFFFFFu; }

 private:
  std::uint32_t c_ = 0xFFFFFFFFu;
};

}  // namespace mfc
