// Wire framing shared by the cross-process transports (shm ring + socket).
//
// A frame is a fixed 56-byte Header followed by `payload_len` payload bytes.
// The writer takes a scatter list (`Span`s) and hands it to the kernel (or
// the ring copy loop) without gathering into an intermediate buffer — this
// is what lets `ImageManifest::wire_spans()` go straight to `writev`. The
// reader is a resumable state machine: feed it a nonblocking byte source and
// it accumulates headers and payloads across arbitrarily small reads, so the
// same code path survives 1-byte reads and partial writev returns (tested in
// wire_test with a fault-injecting Io).
//
// Both sides are templated on an `Io` concept so tests can substitute a
// deterministic in-memory pipe that slices reads/writes at seeded points:
//
//   struct Io {
//     // Returns bytes read (>0), 0 on EOF, -1 on would-block.
//     std::ptrdiff_t read_some(void* dst, std::size_t n);
//     // Returns bytes written (>0, possibly short). Blocks until progress.
//     std::ptrdiff_t write_some(const iovec* iov, int iovcnt);
//   };
//
// The production `FdIo` wraps a socket fd: nonblocking reads, and writes via
// sendmsg(MSG_NOSIGNAL) with a poll(POLLOUT) loop so a slow peer never turns
// into SIGPIPE or a busy spin.
#pragma once

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/check.h"

namespace mfc::converse::wire {

/// Frame kinds. Eager frames carry a whole message; kChunk splits a message
/// too large for one shm-ring pass (offset/total_len sequence the pieces);
/// kProcDone/kStop are the shutdown handshake (child → PE0-process → all).
/// A kind never changes its number, so the retired 3–5 stay unused.
enum class Kind : std::uint32_t {
  kEager = 1,
  kChunk = 2,
  kProcDone = 6,
  kStop = 7,
  /// FT control plane: src_pe = requesting PE, dest_pe = target PE,
  /// msg_id = op (0 kill, 1 revive). No payload. Machine-level — the
  /// delivering thread flips the target's dead/wipe flags, no handler.
  kFtCtl = 8,
};

/// POD frame header; identical layout in every process (all fixed-width
/// fields, no padding surprises: 4+4+4+4 + 8*5 = 56 bytes).
struct Header {
  std::uint32_t kind = 0;
  std::uint32_t handler = 0;
  std::int32_t src_pe = -1;
  std::int32_t dest_pe = -1;
  std::uint64_t payload_len = 0;  ///< bytes following this header
  std::uint64_t total_len = 0;    ///< whole-message bytes (kChunk)
  std::uint64_t offset = 0;       ///< this piece's offset (kChunk)
  std::uint64_t msg_id = 0;       ///< control op (kFtCtl)
  std::uint64_t trace_flow = 0;   ///< cross-process send→dispatch arrow
};
static_assert(sizeof(Header) == 56, "wire header layout must be fixed");

/// One scatter-gather piece of a payload.
struct Span {
  const void* data = nullptr;
  std::size_t len = 0;
};

inline std::size_t spans_total(const Span* spans, std::size_t n) {
  std::size_t t = 0;
  for (std::size_t i = 0; i < n; ++i) t += spans[i].len;
  return t;
}

/// Gathers spans into `dst` (ring copy path and staging buffers).
inline void spans_gather(char* dst, const Span* spans, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (spans[i].len != 0) std::memcpy(dst, spans[i].data, spans[i].len);
    dst += spans[i].len;
  }
}

#ifndef IOV_MAX
constexpr int kIovMax = 1024;
#else
constexpr int kIovMax = IOV_MAX < 1024 ? IOV_MAX : 1024;
#endif

/// Writes one frame (header + spans) through `io`, looping over short
/// writes. `h.payload_len` must equal the span total. Returns false only if
/// `io.write_some` reports a permanent failure by returning 0.
template <typename Io>
bool write_frame(Io& io, Header h, const Span* spans, std::size_t nspans) {
  MFC_CHECK_MSG(h.payload_len == spans_total(spans, nspans),
                "wire: header payload_len does not match span total");
  // Build the full iovec list once: header first, then every span.
  std::vector<iovec> iov;
  iov.reserve(nspans + 1);
  iov.push_back({&h, sizeof h});
  for (std::size_t i = 0; i < nspans; ++i) {
    if (spans[i].len != 0)
      iov.push_back({const_cast<void*>(spans[i].data), spans[i].len});
  }
  std::size_t idx = 0;  // first iovec not yet fully written
  while (idx < iov.size()) {
    int cnt = static_cast<int>(iov.size() - idx);
    if (cnt > kIovMax) cnt = kIovMax;
    std::ptrdiff_t wrote = io.write_some(&iov[idx], cnt);
    if (wrote <= 0) return false;
    // Advance through whatever the kernel took, possibly mid-iovec.
    std::size_t w = static_cast<std::size_t>(wrote);
    while (w != 0) {
      if (w >= iov[idx].iov_len) {
        w -= iov[idx].iov_len;
        ++idx;
      } else {
        iov[idx].iov_base = static_cast<char*>(iov[idx].iov_base) + w;
        iov[idx].iov_len -= w;
        w = 0;
      }
    }
  }
  return true;
}

enum class PumpResult { kOk, kWouldBlock, kEof };

/// Resumable frame reader. `pump(io, sink)` reads as many complete frames
/// as the source will yield without blocking. For each frame the sink is
/// asked where the payload should land *before* the payload is read:
///
///   struct Sink {
///     // Returns the destination buffer for `h.payload_len` bytes, or
///     // nullptr to have the reader use an internal scratch buffer (the
///     // frame still completes; on_frame sees the scratch bytes).
///     char* on_header(const Header& h);
///     void on_frame(const Header& h, char* payload);
///   };
///
/// This lets every frame land directly in the receiver's pre-allocated
/// Payload with no intermediate copy.
class Reader {
 public:
  template <typename Io, typename Sink>
  PumpResult pump(Io& io, Sink& sink) {
    for (;;) {
      if (!have_header_) {
        while (header_fill_ < sizeof(Header)) {
          std::ptrdiff_t r = io.read_some(
              reinterpret_cast<char*>(&header_) + header_fill_,
              sizeof(Header) - header_fill_);
          if (r == 0) {
            MFC_CHECK_MSG(header_fill_ == 0 || tolerate_eof_,
                          "wire: EOF inside a frame header");
            return PumpResult::kEof;
          }
          if (r < 0) return PumpResult::kWouldBlock;
          header_fill_ += static_cast<std::size_t>(r);
        }
        have_header_ = true;
        payload_fill_ = 0;
        dst_ = sink.on_header(header_);
        if (dst_ == nullptr && header_.payload_len != 0) {
          scratch_.resize(header_.payload_len);
          dst_ = scratch_.data();
        }
      }
      while (payload_fill_ < header_.payload_len) {
        std::ptrdiff_t r = io.read_some(dst_ + payload_fill_,
                                        header_.payload_len - payload_fill_);
        if (r == 0) {
          MFC_CHECK_MSG(tolerate_eof_, "wire: EOF inside a frame payload");
          return PumpResult::kEof;
        }
        if (r < 0) return PumpResult::kWouldBlock;
        payload_fill_ += static_cast<std::size_t>(r);
      }
      sink.on_frame(header_, dst_);
      have_header_ = false;
      header_fill_ = 0;
      dst_ = nullptr;
    }
  }

  /// True when no partial frame is buffered (clean shutdown check).
  bool idle() const { return !have_header_ && header_fill_ == 0; }

  /// Peer loss tolerance: EOF mid-frame returns kEof (the caller resets
  /// and discards the partial frame) instead of aborting. Default off — a
  /// truncated stream is a protocol violation unless the machine runs
  /// with cross-process fault tolerance armed.
  void set_tolerate_eof(bool on) { tolerate_eof_ = on; }

  /// Discards any partially-read frame. Used when a peer's stream is
  /// replaced mid-run (process respawn): bytes from the old stream must
  /// not prefix frames from the new one.
  void reset() {
    have_header_ = false;
    header_fill_ = 0;
    payload_fill_ = 0;
    dst_ = nullptr;
  }

 private:
  Header header_{};
  std::size_t header_fill_ = 0;
  std::size_t payload_fill_ = 0;
  bool have_header_ = false;
  bool tolerate_eof_ = false;
  char* dst_ = nullptr;
  std::vector<char> scratch_;
};

/// Production Io over a socket fd. Reads are nonblocking (-1 = EAGAIN);
/// writes block with poll(POLLOUT) until progress and never raise SIGPIPE.
/// A peer that died mid-write surfaces as write_some() == 0; callers treat
/// that as a drop after stop (and a hard failure before it).
class FdIo {
 public:
  FdIo() = default;
  explicit FdIo(int fd) : fd_(fd) {}

  int fd() const { return fd_; }

  std::ptrdiff_t read_some(void* dst, std::size_t n) {
    for (;;) {
      ssize_t r = ::recv(fd_, dst, n, MSG_DONTWAIT);
      if (r > 0) return r;
      if (r == 0) return 0;
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
      return 0;  // hard error: report as EOF, caller checks frame boundary
    }
  }

  std::ptrdiff_t write_some(const iovec* iov, int iovcnt) {
    for (;;) {
      msghdr mh{};
      mh.msg_iov = const_cast<iovec*>(iov);
      mh.msg_iovlen = static_cast<std::size_t>(iovcnt);
      ssize_t w = ::sendmsg(fd_, &mh, MSG_NOSIGNAL);
      if (w > 0) return w;
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        pollfd p{fd_, POLLOUT, 0};
        ::poll(&p, 1, 100);
        continue;
      }
      return 0;  // EPIPE / peer gone
    }
  }

 private:
  int fd_ = -1;
};

}  // namespace mfc::converse::wire
