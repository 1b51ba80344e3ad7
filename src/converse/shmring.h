// SPSC byte rings in a shared-memory segment — the shm transport's wire.
//
// The segment holds a grid of single-producer single-consumer rings:
// rings[dest_proc][producer], where `producer` is either a PE id (that PE's
// kernel thread is the only writer) or the extra per-destination control
// slot (written only by the one thread that decides shutdown). The rings
// toward process k are consumed by k's own PE threads: whichever of them is
// awake drains them, and a per-ring hand-off counter in the transport keeps
// one consumer on a ring at a time. Pinning one writer and one reader per
// ring is what lets the ring reuse the queue discipline of util/queue.h —
// release/acquire head/tail on separate cache lines, no CAS, no locks —
// across address spaces.
//
// A ring carries whole wire frames (Header + payload). The producer only
// publishes `tail` after a complete frame is in place, so the consumer never
// observes a torn frame; messages larger than the ring are chunked by the
// transport into kChunk frames that each fit. `try_push(..., publish=false)`
// writes the frame but delays the tail store until `publish()` — the
// transport uses this to run a sender's on_consumed callback (e.g. the
// destructive migration-pack epilogue) after the bytes are copied out but
// before the frame becomes visible to the consumer.
//
// Each PE also has a wake word in the segment: the futex word its queue
// parks on (util/queue.h Parker, bound there at start). A producer that
// publishes a frame wakes the frame's destination PE through that word —
// one load and no syscall while the PE is awake — and the woken PE drains
// the rings itself, so a cross-process hop costs one wake-up.
//
// The segment is created with shm_open + ftruncate + mmap(MAP_SHARED) before
// the machine forks, and shm_unlink'd immediately — children inherit the
// mapping; nothing persists if a process dies.
#pragma once

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "converse/wire.h"
#include "util/check.h"

namespace mfc::converse::shm {

/// Per-ring control block. head/tail are free-running byte counters
/// (consumer owns head, producer owns tail); they sit on separate cache
/// lines so the producer's tail stores never bounce the consumer's head
/// line, matching the queue.h layout discipline.
struct RingCtrl {
  alignas(64) std::atomic<std::uint64_t> head;
  alignas(64) std::atomic<std::uint64_t> tail;
  alignas(64) std::uint64_t capacity;  ///< power of two, bytes
};
static_assert(sizeof(RingCtrl) == 192);

/// View over one ring inside the segment (ctrl block + data bytes).
class RingView {
 public:
  RingView() = default;
  RingView(RingCtrl* ctrl, char* data)
      : ctrl_(ctrl),
        data_(data),
        pending_tail_(ctrl->tail.load(std::memory_order_relaxed)) {}

  bool valid() const { return ctrl_ != nullptr; }
  std::uint64_t capacity() const { return ctrl_->capacity; }

  /// Largest frame payload this ring can carry in one piece.
  std::uint64_t max_payload() const {
    return ctrl_->capacity - sizeof(wire::Header);
  }

  /// Producer side. Copies header + spans into the ring; returns false if
  /// the frame does not fit right now. With publish=false the tail store is
  /// deferred to publish() — at most one unpublished frame may be pending.
  bool try_push(const wire::Header& h, const wire::Span* spans,
                std::size_t nspans, bool publish = true) {
    const std::uint64_t need = sizeof(wire::Header) + h.payload_len;
    MFC_CHECK_MSG(need <= ctrl_->capacity, "shmring: frame exceeds ring");
    const std::uint64_t head = ctrl_->head.load(std::memory_order_acquire);
    const std::uint64_t tail = pending_tail_;
    if (ctrl_->capacity - (tail - head) < need) return false;
    put(tail, &h, sizeof h);
    std::uint64_t at = tail + sizeof h;
    for (std::size_t i = 0; i < nspans; ++i) {
      put(at, spans[i].data, spans[i].len);
      at += spans[i].len;
    }
    pending_tail_ = tail + need;
    if (publish) this->publish();
    return true;
  }

  /// Makes the pending frame(s) visible to the consumer. seq_cst, not just
  /// release: it is the producer's store half of the parking handshake, so
  /// it must not pass the producer's later load of the destination PE's
  /// wake word (util/queue.h unpark_word).
  void publish() {
    ctrl_->tail.store(pending_tail_, std::memory_order_seq_cst);
  }

  /// Consumer side: pops one frame if available. Sink protocol matches
  /// wire::Reader (on_header returns the payload destination or nullptr
  /// for none-needed; on_frame sees the filled buffer).
  template <typename Sink>
  bool try_pop(Sink& sink) {
    const std::uint64_t head = ctrl_->head.load(std::memory_order_relaxed);
    const std::uint64_t tail = ctrl_->tail.load(std::memory_order_acquire);
    if (tail == head) return false;
    wire::Header h;
    get(head, &h, sizeof h);
    char* dst = sink.on_header(h);
    if (dst != nullptr && h.payload_len != 0)
      get(head + sizeof h, dst, h.payload_len);
    ctrl_->head.store(head + sizeof h + h.payload_len,
                      std::memory_order_release);
    sink.on_frame(h, dst);
    return true;
  }

  /// The seq_cst tail load is the consumer's load half of the parking
  /// handshake: a PE's re-check after it announced its park.
  bool empty() const {
    return ctrl_->tail.load(std::memory_order_seq_cst) ==
           ctrl_->head.load(std::memory_order_relaxed);
  }

  /// Producer-side init after attach (called once, pre-fork).
  void init(std::uint64_t capacity) {
    ctrl_->head.store(0, std::memory_order_relaxed);
    ctrl_->tail.store(0, std::memory_order_relaxed);
    ctrl_->capacity = capacity;
    pending_tail_ = 0;
  }

 private:
  void put(std::uint64_t pos, const void* src, std::size_t n) {
    const std::uint64_t mask = ctrl_->capacity - 1;
    std::uint64_t off = pos & mask;
    std::uint64_t first = ctrl_->capacity - off;
    if (first >= n) {
      std::memcpy(data_ + off, src, n);
    } else {
      std::memcpy(data_ + off, src, first);
      std::memcpy(data_, static_cast<const char*>(src) + first, n - first);
    }
  }
  void get(std::uint64_t pos, void* dst, std::size_t n) {
    const std::uint64_t mask = ctrl_->capacity - 1;
    std::uint64_t off = pos & mask;
    std::uint64_t first = ctrl_->capacity - off;
    if (first >= n) {
      std::memcpy(dst, data_ + off, n);
    } else {
      std::memcpy(dst, data_ + off, first);
      std::memcpy(static_cast<char*>(dst) + first, data_, n - first);
    }
  }

  RingCtrl* ctrl_ = nullptr;
  char* data_ = nullptr;
  /// Producer-local shadow of tail (includes unpublished frames). Only the
  /// single producer reads/writes it, so it lives in the view, not the
  /// shared ctrl block.
  std::uint64_t pending_tail_ = 0;
};

/// One PE's wake word, on its own cache line.
struct WakeCtrl {
  alignas(64) std::atomic<std::uint32_t> word;
};
static_assert(sizeof(WakeCtrl) == 64);

/// The whole segment: npes wake words, then nprocs × (npes + 1) rings.
/// Ring (dest_proc, producer) carries frames from `producer` (a PE, or the
/// control slot producer == npes) to dest_proc's PEs.
class Segment {
 public:
  Segment() = default;
  ~Segment() { unmap(); }
  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

  static std::size_t ring_footprint(std::size_t ring_bytes) {
    return sizeof(RingCtrl) + ring_bytes;
  }

  /// Creates and maps the segment (pre-fork). `ring_bytes` must be a power
  /// of two. The shm name is derived from the pid so concurrent test
  /// binaries do not collide; the name is unlinked before returning.
  void create(int nprocs, int npes, std::size_t ring_bytes) {
    MFC_CHECK_MSG((ring_bytes & (ring_bytes - 1)) == 0,
                  "shm_ring_bytes must be a power of two");
    nprocs_ = nprocs;
    npes_ = npes;
    ring_bytes_ = ring_bytes;
    bytes_ = static_cast<std::size_t>(npes) * sizeof(WakeCtrl) +
             static_cast<std::size_t>(nprocs) * (npes + 1) *
                 ring_footprint(ring_bytes);
    char name[64];
    std::snprintf(name, sizeof name, "/mfc-ring-%d-%p", ::getpid(),
                  static_cast<void*>(this));
    int fd = ::shm_open(name, O_CREAT | O_EXCL | O_RDWR, 0600);
    MFC_CHECK_MSG(fd >= 0, "shm_open failed");
    ::shm_unlink(name);
    MFC_CHECK_MSG(::ftruncate(fd, static_cast<off_t>(bytes_)) == 0,
                  "ftruncate on shm segment failed");
    base_ = static_cast<char*>(::mmap(nullptr, bytes_,
                                      PROT_READ | PROT_WRITE, MAP_SHARED,
                                      fd, 0));
    ::close(fd);
    MFC_CHECK_MSG(base_ != MAP_FAILED, "mmap of shm segment failed");
    for (int pe = 0; pe < npes; ++pe) {
      wake_word(pe).store(0, std::memory_order_relaxed);
    }
    for (int d = 0; d < nprocs; ++d) {
      for (int p = 0; p <= npes; ++p) ring(d, p).init(ring_bytes);
    }
  }

  /// PE `pe`'s futex word (its queue's parking word; util/queue.h).
  std::atomic<std::uint32_t>& wake_word(int pe) {
    return reinterpret_cast<WakeCtrl*>(base_)[pe].word;
  }

  /// Ring carrying frames from `producer` to process `dest_proc`.
  /// `producer` in [0, npes); `npes` selects the control slot.
  RingView ring(int dest_proc, int producer) {
    std::size_t idx =
        static_cast<std::size_t>(dest_proc) * (npes_ + 1) + producer;
    char* at = base_ + static_cast<std::size_t>(npes_) * sizeof(WakeCtrl) +
               idx * ring_footprint(ring_bytes_);
    return RingView(reinterpret_cast<RingCtrl*>(at), at + sizeof(RingCtrl));
  }

  int nprocs() const { return nprocs_; }
  int npes() const { return npes_; }

  void unmap() {
    if (base_ != nullptr && base_ != MAP_FAILED) ::munmap(base_, bytes_);
    base_ = nullptr;
  }

 private:
  char* base_ = nullptr;
  std::size_t bytes_ = 0;
  std::size_t ring_bytes_ = 0;
  int nprocs_ = 0;
  int npes_ = 0;
};

}  // namespace mfc::converse::shm
