#include "converse/transport.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include "converse/machine.h"
#include "trace/metrics.h"
#include "trace/trace.h"
#include "util/check.h"
#include "util/queue.h"

namespace mfc::converse::transport {

namespace {

using metrics::Counter;
using wire::Kind;

// Wire-span trace codes (Record.a of kWireSendBegin): which path carried
// the message. The exporter names the span "wire-send:<code name>".
constexpr std::uint32_t kTraceEager = 0;
constexpr std::uint32_t kTraceChunk = 1;

char* payload_ptr(Message* m) { return m->payload.data(); }

/// Sub-spans covering [off, off+len) of a span list (chunking).
std::vector<wire::Span> slice_spans(const wire::Span* spans, std::size_t n,
                                    std::uint64_t off, std::uint64_t len) {
  std::vector<wire::Span> out;
  std::uint64_t skip = off, want = len;
  for (std::size_t i = 0; i < n && want > 0; ++i) {
    std::uint64_t l = spans[i].len;
    if (skip >= l) {
      skip -= l;
      continue;
    }
    std::uint64_t take = l - skip < want ? l - skip : want;
    out.push_back({static_cast<const char*>(spans[i].data) + skip,
                   static_cast<std::size_t>(take)});
    skip = 0;
    want -= take;
  }
  MFC_CHECK(want == 0);
  return out;
}

}  // namespace

/// Consumer side of one inbound ring (RingView::try_pop's sink).
struct Transport::Sink {
  Transport* t = nullptr;
  std::size_t slot = 0;
  /// Drops a half-assembled message left by a producer that died between
  /// chunks; only legal when peer loss is tolerated. The rings are
  /// crash-consistent (a frame becomes visible only at its tail publish),
  /// so a respawn keeps them: the respawned producer's first frame on the
  /// ring replaces the stale assembly here, and teardown frees one that is
  /// never replaced.
  void drop_stale(Assembly& a) {
    MFC_CHECK_MSG(t->hooks_.tolerate_peer_loss,
                  "new message before the previous chunk sequence ended");
    t->hooks_.drop(a.m);
    a.m = nullptr;
  }

  char* on_header(const wire::Header& h) {
    switch (static_cast<Kind>(h.kind)) {
      case Kind::kEager: {
        Assembly& a = t->assembly_[slot];
        if (a.m != nullptr) drop_stale(a);
        a.m = t->hooks_.alloc(h, h.payload_len);
        return payload_ptr(a.m);
      }
      case Kind::kChunk: {
        Assembly& a = t->assembly_[slot];
        if (h.offset == 0) {
          if (a.m != nullptr) drop_stale(a);
          a.m = t->hooks_.alloc(h, h.total_len);
          trace::emit(trace::Ev::kWireAsmBegin, h.trace_flow, 0,
                      static_cast<std::uint32_t>(h.total_len),
                      static_cast<std::int16_t>(h.src_pe));
        }
        if (a.m == nullptr) {
          // Orphan tail: the dead incarnation consumed this message's
          // head chunks before it was killed. Skip the bytes (the ring
          // stays framed — try_pop advances past unclaimed payloads).
          MFC_CHECK_MSG(t->hooks_.tolerate_peer_loss,
                        "chunk continuation with no assembly in progress");
          return nullptr;
        }
        return payload_ptr(a.m) + h.offset;
      }
      default:
        return nullptr;
    }
  }

  void on_frame(const wire::Header& h, char*) {
    Assembly& a = t->assembly_[slot];
    switch (static_cast<Kind>(h.kind)) {
      case Kind::kEager:
        metrics::bump(Counter::kWireDelivered);
        trace::emit(trace::Ev::kWireDeliver, h.trace_flow, 0,
                    static_cast<std::uint32_t>(h.payload_len),
                    static_cast<std::int16_t>(h.src_pe));
        t->hooks_.enqueue(a.m);
        a.m = nullptr;
        break;
      case Kind::kChunk:
        if (a.m != nullptr && h.offset + h.payload_len == h.total_len) {
          metrics::bump(Counter::kWireDelivered);
          trace::emit(trace::Ev::kWireAsmEnd, 0, 0,
                      static_cast<std::uint32_t>(h.total_len),
                      static_cast<std::int16_t>(h.src_pe));
          trace::emit(trace::Ev::kWireDeliver, h.trace_flow, 0,
                      static_cast<std::uint32_t>(h.total_len),
                      static_cast<std::int16_t>(h.src_pe));
          t->hooks_.enqueue(a.m);
          a.m = nullptr;
        }
        break;
      case Kind::kProcDone:
        t->hooks_.on_proc_done();
        break;
      case Kind::kStop:
        t->hooks_.on_stop();
        break;
      case Kind::kFtCtl:
        if (t->hooks_.ft_ctl) t->hooks_.ft_ctl(h);
        break;
      default:
        MFC_CHECK_MSG(false, "unexpected frame kind on shm ring");
    }
  }
};

Transport::Transport(int npes, int nprocs, std::size_t ring_bytes)
    : npes_(npes),
      nprocs_(nprocs),
      ppn_(npes / nprocs),
      max_chunk_(ring_bytes / 2 - sizeof(wire::Header)) {
  MFC_CHECK(npes >= 1 && nprocs >= 1 && npes % nprocs == 0);
  seg_.create(nprocs, npes, ring_bytes);
  proc_dead_ = std::make_unique<std::atomic<bool>[]>(
      static_cast<std::size_t>(nprocs));
}

Transport::~Transport() {
  if (comm_.joinable()) {
    stop_local();
    comm_.join();
  }
  if (stop_fd_ >= 0) ::close(stop_fd_);
}

void Transport::start(int my_proc, Hooks hooks) {
  my_proc_ = my_proc;
  hooks_ = std::move(hooks);
  views_.resize(static_cast<std::size_t>(ppn_) * nprocs_);
  for (int lp = 0; lp < ppn_; ++lp)
    for (int d = 0; d < nprocs_; ++d)
      views_[static_cast<std::size_t>(lp) * nprocs_ + d] =
          seg_.ring(d, my_proc * ppn_ + lp);
  // Consumer side: one view, hand-off counter and assembly slot per ring
  // toward this process. Process-local, so a process that dies mid-drain
  // leaves nothing for its respawn to untangle.
  const int nslots = npes_ + 1;
  for (int s = 0; s < nslots; ++s) inbound_.push_back(seg_.ring(my_proc, s));
  claims_ = std::make_unique<Claim[]>(static_cast<std::size_t>(nslots));
  assembly_.resize(static_cast<std::size_t>(nslots));
  if (!hooks_.control.empty()) {
    stop_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    MFC_CHECK_MSG(stop_fd_ >= 0, "eventfd for the control thread failed");
    comm_ = std::thread([this] { control_loop(); });
  }
}

void Transport::send(const wire::Header& hdr, const wire::Span* spans,
                     std::size_t n, std::function<void()> on_consumed) {
  wire::Header h = hdr;
  shm::RingView& rv = producer_view(h.src_pe, h.dest_pe / ppn_);
  metrics::bump(Counter::kWireSentBytes, h.payload_len);
  if (h.payload_len <= max_chunk_) {
    h.kind = static_cast<std::uint32_t>(Kind::kEager);
    trace::emit(trace::Ev::kWireSendBegin, h.trace_flow, kTraceEager, 0,
                static_cast<std::int16_t>(h.dest_pe));
    metrics::bump(Counter::kWireSentFrames);
    // Delayed publish: the frame's bytes are in the ring but invisible
    // until after on_consumed — the pack epilogue can evacuate the pages
    // the spans pointed into before the message can be delivered.
    if (!push_wait(rv, h.dest_pe, h, spans, n,
                   /*publish=*/on_consumed == nullptr)) {
      if (on_consumed) on_consumed();
      trace::emit(trace::Ev::kWireSendEnd);
      return;  // dropped: post-stop, or toward a dead process
    }
    if (on_consumed) {
      on_consumed();
      publish(rv, h.dest_pe);
    }
    trace::emit(trace::Ev::kWireSendEnd, 0, 0,
                static_cast<std::uint32_t>(h.payload_len +
                                           sizeof(wire::Header)));
    return;
  }
  // Chunked: every piece fits half the ring; the final chunk's publish is
  // delayed exactly like the single-frame case, so the message cannot
  // complete at the consumer before on_consumed runs.
  h.kind = static_cast<std::uint32_t>(Kind::kChunk);
  h.total_len = hdr.payload_len;
  trace::emit(trace::Ev::kWireSendBegin, h.trace_flow, kTraceChunk, 0,
              static_cast<std::int16_t>(h.dest_pe));
  std::uint64_t off = 0;
  std::uint64_t frames = 0;
  while (off < h.total_len) {
    const std::uint64_t len =
        h.total_len - off < max_chunk_ ? h.total_len - off : max_chunk_;
    const bool last = off + len == h.total_len;
    std::vector<wire::Span> sub = slice_spans(spans, n, off, len);
    h.offset = off;
    h.payload_len = len;
    metrics::bump(Counter::kWireSentFrames);
    metrics::bump(Counter::kWireChunks);
    ++frames;
    if (!push_wait(rv, h.dest_pe, h, sub.data(), sub.size(),
                   /*publish=*/!(last && on_consumed != nullptr))) {
      if (on_consumed) on_consumed();
      trace::emit(trace::Ev::kWireSendEnd);
      return;  // dropped (see push_wait); the consumer frees or replaces
               // the partial assembly
    }
    if (last && on_consumed) {
      on_consumed();
      publish(rv, h.dest_pe);
    }
    off += len;
  }
  trace::emit(trace::Ev::kWireSendEnd, 0, 0,
              static_cast<std::uint32_t>(h.total_len +
                                         frames * sizeof(wire::Header)));
}

void Transport::send_proc_done(int src_pe) {
  if (my_proc_ == 0) {
    hooks_.on_proc_done();
    return;
  }
  wire::Header h;
  h.kind = static_cast<std::uint32_t>(Kind::kProcDone);
  h.src_pe = src_pe;
  h.dest_pe = 0;
  push_wait(producer_view(src_pe, /*dproc=*/0), 0, h, nullptr, 0, true);
}

void Transport::broadcast_stop() {
  // Only the one thread that saw the last ProcDone gets here, so the
  // control slot keeps its single producer. Any PE of a process can serve
  // its stop order; wake its first.
  wire::Header h;
  h.kind = static_cast<std::uint32_t>(Kind::kStop);
  for (int d = 0; d < nprocs_; ++d) {
    if (d == my_proc_) continue;
    shm::RingView rv = seg_.ring(d, npes_);
    while (!rv.try_push(h, nullptr, 0))
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    wake_pe(d * ppn_);
  }
  hooks_.on_stop();
}

void Transport::stop_local() {
  stop_.store(true, std::memory_order_release);
  if (stop_fd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t w = ::write(stop_fd_, &one, sizeof one);
  }
}

void Transport::join() {
  MFC_CHECK(stop_.load(std::memory_order_acquire));
  if (comm_.joinable()) comm_.join();
  // Frames published concurrently with stop: one last sweep, then free
  // anything still half-assembled.
  drain();
  for (Assembly& a : assembly_) {
    if (a.m != nullptr) {
      hooks_.drop(a.m);
      a.m = nullptr;
    }
  }
}

void Transport::send_ctl(const wire::Header& hdr) {
  wire::Header h = hdr;
  h.kind = static_cast<std::uint32_t>(Kind::kFtCtl);
  h.payload_len = 0;
  const int dproc = h.dest_pe / ppn_;
  if (dproc == my_proc_) {
    if (hooks_.ft_ctl) hooks_.ft_ctl(h);
    return;
  }
  push_wait(producer_view(h.src_pe, dproc), h.dest_pe, h, nullptr, 0, true);
}

void Transport::drain() {
  for (std::size_t s = 0; s < inbound_.size(); ++s) drain_ring(s);
}

bool Transport::pending() {
  for (const shm::RingView& rv : inbound_)
    if (!rv.empty()) return true;
  return false;
}

void Transport::set_proc_dead(int proc, bool dead) {
  proc_dead_[static_cast<std::size_t>(proc)].store(dead,
                                                   std::memory_order_release);
}

bool Transport::quiescent() {
  // The rings live in shared memory, so one process can observe the whole
  // machine's in-flight bytes. A frame popped but not yet enqueued is
  // covered by the QD wave's unchanged-counts rule.
  for (int d = 0; d < nprocs_; ++d)
    for (int s = 0; s <= npes_; ++s)
      if (!seg_.ring(d, s).empty()) return false;
  return true;
}

shm::RingView& Transport::producer_view(int src_pe, int dproc) {
  const int lp = src_pe - my_proc_ * ppn_;
  MFC_CHECK_MSG(lp >= 0 && lp < ppn_,
                "wire sends must originate on a local PE thread");
  return views_[static_cast<std::size_t>(lp) * nprocs_ + dproc];
}

/// Wakes PE `pe` if it is parked (any process: its word is in the
/// segment).
void Transport::wake_pe(int pe) {
  mfc::detail::unpark_word(seg_.wake_word(pe), /*shared=*/true);
}

/// Pushes one frame, waiting out a full ring, and wakes the destination PE
/// once the frame is published. Returns false when it dropped the frame
/// instead: after stop, or when the destination process is marked dead.
bool Transport::push_wait(shm::RingView& rv, int dest_pe,
                          const wire::Header& h, const wire::Span* s,
                          std::size_t n, bool publish) {
  std::atomic<bool>& dest_dead = proc_dead_[dest_pe / ppn_];
  int waits = 0;
  while (!rv.try_push(h, s, n, publish)) {
    // The destination's PEs drain the full ring. Ours must keep draining
    // the rings toward this process meanwhile: two processes flooding each
    // other would otherwise each wait on the other. A dead destination
    // drains nothing until its respawn, and after stop the consumer may be
    // gone — give up on both (the drop is benign: recovery's drain-mode
    // quiescence settles the lost sends, and post-stop nothing waits).
    if (dest_dead.load(std::memory_order_acquire)) return false;
    drain();
    ++waits;
    if (stop_.load(std::memory_order_relaxed) && waits > 2500) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(20));
    trace::clock_stale();
  }
  if (publish) wake_pe(dest_pe);
  return true;
}

/// Publishes a frame pushed with publish=false and wakes its consumer.
void Transport::publish(shm::RingView& rv, int dest_pe) {
  rv.publish();
  wake_pe(dest_pe);
}

/// Pops every frame visible in inbound ring `s` unless another local
/// thread is at it. The hand-off counter keeps one consumer per ring: the
/// thread that lifts it from 0 drains; a thread that finds it raised only
/// adds a request and leaves, and the consumer drains again before it lets
/// go, so no frame another thread saw is left behind. The counter's acq_rel
/// RMWs order each consumer's ring-head and assembly accesses before the
/// next consumer's.
void Transport::drain_ring(std::size_t s) {
  shm::RingView& rv = inbound_[s];
  if (rv.empty()) return;
  std::atomic<std::uint32_t>& claim = claims_[s].n;
  if (claim.fetch_add(1, std::memory_order_acq_rel) != 0) return;
  Sink sink{this, s};
  for (std::uint32_t served = 1;;) {
    while (rv.try_pop(sink)) {
    }
    const std::uint32_t seen =
        claim.fetch_sub(served, std::memory_order_acq_rel);
    if (seen == served) return;
    served = seen - served;
  }
}

/// The comm thread, when the machine has control fds: it waits on them and
/// on the stop eventfd, runs the ready callback of every fd that fired and
/// retires the ones it returns false for (poll() skips a negative fd). Wire
/// frames never pass through it.
void Transport::control_loop() {
  trace::bind_comm();
  std::vector<ControlFd>& control = hooks_.control;
  std::vector<pollfd> pfds{{stop_fd_, POLLIN, 0}};
  for (const ControlFd& c : control) pfds.push_back({c.fd, POLLIN, 0});
  while (!stop_.load(std::memory_order_acquire)) {
    if (::poll(pfds.data(), pfds.size(), -1) <= 0) continue;
    trace::clock_stale();
    if (pfds[0].revents != 0) {
      std::uint64_t n;
      [[maybe_unused]] ssize_t r = ::read(stop_fd_, &n, sizeof n);
    }
    for (std::size_t i = 0; i < control.size(); ++i) {
      pollfd& p = pfds[i + 1];
      if (p.fd < 0 || p.revents == 0) continue;
      if (!control[i].ready()) {
        control[i].fd = -1;
        p.fd = -1;
      }
    }
  }
}

}  // namespace mfc::converse::transport
