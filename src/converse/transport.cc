#include "converse/transport.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "converse/machine.h"
#include "converse/shmring.h"
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

/// Runs the ready callback of every control fd whose pollfd fired (pfds[i]
/// watches control[i]) and retires the ones it returns false for; poll()
/// skips a negative fd.
void service_control(std::vector<ControlFd>& control, pollfd* pfds) {
  for (std::size_t i = 0; i < control.size(); ++i) {
    if (pfds[i].fd < 0 || pfds[i].revents == 0) continue;
    if (!control[i].ready()) {
      control[i].fd = -1;
      pfds[i].fd = -1;
    }
  }
}

// ---------------------------------------------------------------------------
// Shared-memory ring transport.
// ---------------------------------------------------------------------------

class ShmTransport final : public Transport {
 public:
  explicit ShmTransport(const Options& o)
      : opt_(o), ppn_(o.npes / o.nprocs) {
    MFC_CHECK(o.npes >= 1 && o.nprocs >= 1 && o.npes % o.nprocs == 0);
    seg_.create(o.nprocs, o.npes, o.shm_ring_bytes);
  }

  ~ShmTransport() override {
    if (comm_.joinable()) {
      stop_local();
      comm_.join();
    }
    if (stop_fd_ >= 0) ::close(stop_fd_);
  }

  void start(int my_proc, Hooks hooks) override {
    my_proc_ = my_proc;
    hooks_ = std::move(hooks);
    // Persistent producer views for this process's PEs (the view carries
    // the producer-local pending-tail shadow): views_[local_pe][dest_proc].
    views_.resize(static_cast<std::size_t>(ppn_) * opt_.nprocs);
    for (int lp = 0; lp < ppn_; ++lp)
      for (int d = 0; d < opt_.nprocs; ++d)
        views_[static_cast<std::size_t>(lp) * opt_.nprocs + d] =
            seg_.ring(d, my_proc * ppn_ + lp);
    // Consumer side: one view, hand-off counter and assembly slot per ring
    // toward this process. Process-local, so a process that dies mid-drain
    // leaves nothing for its respawn to untangle.
    const int nslots = opt_.npes + 1;
    for (int s = 0; s < nslots; ++s) inbound_.push_back(seg_.ring(my_proc, s));
    claims_ = std::make_unique<Claim[]>(static_cast<std::size_t>(nslots));
    assembly_.resize(static_cast<std::size_t>(nslots));
    if (!hooks_.control.empty()) {
      stop_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      MFC_CHECK_MSG(stop_fd_ >= 0, "eventfd for the control thread failed");
      comm_ = std::thread([this] { control_loop(); });
    }
  }

  void send(const wire::Header& hdr, const wire::Span* spans, std::size_t n,
            std::function<void()> on_consumed) override {
    wire::Header h = hdr;
    shm::RingView& rv = producer_view(h.src_pe, h.dest_pe / ppn_);
    const std::uint64_t limit = max_chunk_payload();
    metrics::bump(Counter::kWireSentBytes, h.payload_len);
    if (h.payload_len <= limit) {
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
        return;  // dropped post-stop
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
          h.total_len - off < limit ? h.total_len - off : limit;
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
        return;  // dropped post-stop; partial assembly freed at teardown
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

  void send_proc_done(int src_pe) override {
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

  void broadcast_stop() override {
    // Only the one thread that saw the last ProcDone gets here, so the
    // control slot keeps its single producer. Any PE of a process can
    // serve its stop order; wake its first.
    wire::Header h;
    h.kind = static_cast<std::uint32_t>(Kind::kStop);
    for (int d = 0; d < opt_.nprocs; ++d) {
      if (d == my_proc_) continue;
      shm::RingView rv = seg_.ring(d, opt_.npes);
      while (!rv.try_push(h, nullptr, 0))
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      wake_pe(d * ppn_);
    }
    hooks_.on_stop();
  }

  void stop_local() override {
    stop_.store(true, std::memory_order_release);
    if (stop_fd_ >= 0) {
      const std::uint64_t one = 1;
      [[maybe_unused]] ssize_t w = ::write(stop_fd_, &one, sizeof one);
    }
  }

  void join() override {
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

  void send_ctl(const wire::Header& hdr) override {
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

  void drain() override {
    for (std::size_t s = 0; s < inbound_.size(); ++s) drain_ring(s);
  }

  bool pending() override {
    for (const shm::RingView& rv : inbound_)
      if (!rv.empty()) return true;
    return false;
  }

  std::atomic<std::uint32_t>* wake_word(int pe) override {
    return &seg_.wake_word(pe);
  }

  bool quiescent() override {
    // The rings live in shared memory, so one process can observe the
    // whole machine's in-flight bytes. A frame popped but not yet
    // enqueued is covered by the QD wave's unchanged-counts rule.
    for (int d = 0; d < opt_.nprocs; ++d)
      for (int s = 0; s <= opt_.npes; ++s)
        if (!seg_.ring(d, s).empty()) return false;
    return true;
  }

 private:
  /// One in-progress chunked (or about-to-be-enqueued eager) message per
  /// SPSC ring: the producer finishes one message before starting the next,
  /// so a slot never needs more than one.
  struct Assembly {
    Message* m = nullptr;
  };

  /// Per-ring hand-off counter (see drain_ring), on its own cache line.
  struct Claim {
    alignas(64) std::atomic<std::uint32_t> n{0};
  };

  struct Sink {
    ShmTransport* t = nullptr;
    std::size_t slot = 0;
    /// Drops a half-assembled message left by a producer that died between
    /// chunks; only legal when peer loss is tolerated. The rings are
    /// crash-consistent (a frame becomes visible only at its tail publish),
    /// so a respawn keeps them and needs no attach_peer: the respawned
    /// producer's first frame on the ring replaces the stale assembly here,
    /// and teardown frees one that is never replaced.
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

  shm::RingView& producer_view(int src_pe, int dproc) {
    const int lp = src_pe - my_proc_ * ppn_;
    MFC_CHECK_MSG(lp >= 0 && lp < ppn_,
                  "wire sends must originate on a local PE thread");
    return views_[static_cast<std::size_t>(lp) * opt_.nprocs + dproc];
  }

  std::uint64_t max_chunk_payload() const {
    return opt_.shm_ring_bytes / 2 - sizeof(wire::Header);
  }

  /// Wakes PE `pe` if it is parked (any process: its word is in the
  /// segment).
  void wake_pe(int pe) {
    mfc::detail::unpark_word(seg_.wake_word(pe), /*shared=*/true);
  }

  /// Pushes one frame, waiting out a full ring, and wakes the destination
  /// PE once the frame is published.
  bool push_wait(shm::RingView& rv, int dest_pe, const wire::Header& h,
                 const wire::Span* s, std::size_t n, bool publish) {
    int waits = 0;
    while (!rv.try_push(h, s, n, publish)) {
      // The destination's PEs drain the full ring. Ours must keep draining
      // the rings toward this process meanwhile: two processes flooding
      // each other would otherwise each wait on the other. After stop the
      // consumer may be gone — give up (the drop is benign post-stop).
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
  void publish(shm::RingView& rv, int dest_pe) {
    rv.publish();
    wake_pe(dest_pe);
  }

  /// Pops every frame visible in inbound ring `s` unless another local
  /// thread is at it. The hand-off counter keeps one consumer per ring: the
  /// thread that lifts it from 0 drains; a thread that finds it raised only
  /// adds a request and leaves, and the consumer drains again before it
  /// lets go, so no frame another thread saw is left behind. The counter's
  /// acq_rel RMWs order each consumer's ring-head and assembly accesses
  /// before the next consumer's.
  void drain_ring(std::size_t s) {
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

  /// The comm thread, when the machine has control fds: it waits on them
  /// and on the stop eventfd. Wire frames never pass through it.
  void control_loop() {
    trace::bind_comm();
    std::vector<pollfd> pfds{{stop_fd_, POLLIN, 0}};
    for (const ControlFd& c : hooks_.control) pfds.push_back({c.fd, POLLIN, 0});
    while (!stop_.load(std::memory_order_acquire)) {
      if (::poll(pfds.data(), pfds.size(), -1) <= 0) continue;
      trace::clock_stale();
      if (pfds[0].revents != 0) {
        std::uint64_t n;
        [[maybe_unused]] ssize_t r = ::read(stop_fd_, &n, sizeof n);
      }
      service_control(hooks_.control, pfds.data() + 1);
    }
  }

  Options opt_;
  int ppn_ = 1;
  int my_proc_ = 0;
  shm::Segment seg_;
  Hooks hooks_;
  std::atomic<bool> stop_{false};
  int stop_fd_ = -1;  ///< wakes the control thread on stop
  std::thread comm_;
  std::vector<shm::RingView> views_;
  std::vector<shm::RingView> inbound_;  ///< rings toward this process
  std::unique_ptr<Claim[]> claims_;     ///< parallel to inbound_
  std::vector<Assembly> assembly_;      ///< parallel to inbound_
};

// ---------------------------------------------------------------------------
// Socket/stream transport (AF_UNIX socketpairs; AF_INET-shaped framing).
// ---------------------------------------------------------------------------

/// FdIo variant for peer-loss-tolerant mode. Plain FdIo treats EPIPE as a
/// silent drop and polls a full send buffer forever; with a killable peer
/// both are wrong: a stalled buffer toward a dead process never drains, and
/// a reset mid-frame must surface so the frame can be retried on the
/// replacement stream. Every stall and reset bumps kWireRetries; the
/// POLLOUT patience is bounded so the comm path stays live.
class RobustIo {
 public:
  explicit RobustIo(int fd) : fd_(fd) {}

  std::ptrdiff_t read_some(void* dst, std::size_t n) {
    wire::FdIo io(fd_);
    return io.read_some(dst, n);
  }

  std::ptrdiff_t write_some(const iovec* iov, int iovcnt) {
    int stalls = 0;
    for (;;) {
      msghdr mh{};
      mh.msg_iov = const_cast<iovec*>(iov);
      mh.msg_iovlen = static_cast<std::size_t>(iovcnt);
      ssize_t w = ::sendmsg(fd_, &mh, MSG_NOSIGNAL);
      if (w > 0) return w;
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        metrics::bump(Counter::kWireRetries);
        if (++stalls > kMaxStalls) return 0;
        pollfd p{fd_, POLLOUT, 0};
        ::poll(&p, 1, 100);
        continue;
      }
      metrics::bump(Counter::kWireRetries);  // EPIPE / ECONNRESET
      return 0;
    }
  }

 private:
  static constexpr int kMaxStalls = 50;  ///< ~5 s of POLLOUT patience
  int fd_ = -1;
};

class SocketTransport final : public Transport {
 public:
  explicit SocketTransport(const Options& o)
      : opt_(o), ppn_(o.npes / o.nprocs) {
    MFC_CHECK(o.npes >= 1 && o.nprocs >= 1 && o.npes % o.nprocs == 0);
    if (o.nprocs == 1) {
      // Loopback: one pair; sends write sv[0], the comm thread reads sv[1].
      int sv[2];
      MFC_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0);
      loop_send_ = sv[0];
      loop_recv_ = sv[1];
    } else {
      ends_.assign(static_cast<std::size_t>(o.nprocs),
                   std::vector<int>(static_cast<std::size_t>(o.nprocs), -1));
      for (int i = 0; i < o.nprocs; ++i) {
        for (int j = i + 1; j < o.nprocs; ++j) {
          int sv[2];
          MFC_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0);
          ends_[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
              sv[0];
          ends_[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] =
              sv[1];
        }
      }
    }
  }

  ~SocketTransport() override {
    if (comm_.joinable()) {
      stop_local();
      comm_.join();
    }
    close_all();
  }

  void start(int my_proc, Hooks hooks) override {
    my_proc_ = my_proc;
    hooks_ = std::move(hooks);
    send_fd_.assign(static_cast<std::size_t>(opt_.nprocs), -1);
    send_mu_ = std::make_unique<std::mutex[]>(
        static_cast<std::size_t>(opt_.nprocs));
    peer_gen_ = std::make_unique<std::atomic<std::uint64_t>[]>(
        static_cast<std::size_t>(opt_.nprocs));
    if (opt_.nprocs == 1) {
      send_fd_[0] = loop_send_;
      recv_.push_back({loop_recv_, 0});
    } else {
      for (int q = 0; q < opt_.nprocs; ++q) {
        if (q == my_proc) continue;
        int fd = ends_[static_cast<std::size_t>(my_proc)]
                      [static_cast<std::size_t>(q)];
        send_fd_[static_cast<std::size_t>(q)] = fd;
        recv_.push_back({fd, q});
      }
      // Close every end that belongs to another process.
      for (int i = 0; i < opt_.nprocs; ++i) {
        if (i == my_proc) continue;
        for (int& fd : ends_[static_cast<std::size_t>(i)]) {
          if (fd >= 0) ::close(fd);
          fd = -1;
        }
      }
    }
    MFC_CHECK(::pipe(wake_pipe_) == 0);
    ::fcntl(wake_pipe_[0], F_SETFL, O_NONBLOCK);
    comm_ = std::thread([this] { comm_loop(); });
  }

  void send(const wire::Header& hdr, const wire::Span* spans, std::size_t n,
            std::function<void()> on_consumed) override {
    // One eager frame at every size: the reader is resumable, so a big
    // payload simply streams through the socket buffer.
    wire::Header h = hdr;
    const int dproc = h.dest_pe / ppn_;
    metrics::bump(Counter::kWireSentBytes, h.payload_len);
    h.kind = static_cast<std::uint32_t>(Kind::kEager);
    trace::emit(trace::Ev::kWireSendBegin, h.trace_flow, kTraceEager, 0,
                static_cast<std::int16_t>(h.dest_pe));
    metrics::bump(Counter::kWireSentFrames);
    if (on_consumed) {
      // Stage first so on_consumed runs before any byte can reach the
      // destination (delivery-before-epilogue would race a same-process
      // install against the pack epilogue's evacuate).
      std::vector<char> staged(h.payload_len);
      wire::spans_gather(staged.data(), spans, n);
      on_consumed();
      wire::Span s{staged.data(), staged.size()};
      robust_write(dproc, h, &s, 1);
    } else {
      robust_write(dproc, h, spans, n);
    }
    trace::emit(trace::Ev::kWireSendEnd, 0, 0,
                static_cast<std::uint32_t>(h.payload_len +
                                           sizeof(wire::Header)));
  }

  void send_proc_done(int src_pe) override {
    if (my_proc_ == 0) {
      hooks_.on_proc_done();
      return;
    }
    wire::Header h;
    h.kind = static_cast<std::uint32_t>(Kind::kProcDone);
    h.src_pe = src_pe;
    h.dest_pe = 0;
    robust_write(0, h, nullptr, 0);
  }

  void broadcast_stop() override {
    wire::Header h;
    h.kind = static_cast<std::uint32_t>(Kind::kStop);
    for (int d = 0; d < opt_.nprocs; ++d) {
      if (d == my_proc_) continue;
      robust_write(d, h, nullptr, 0);
    }
    hooks_.on_stop();
  }

  void stop_local() override {
    {
      std::lock_guard<std::mutex> glk(gen_mu_);
      stop_.store(true, std::memory_order_release);
    }
    gen_cv_.notify_all();
    if (wake_pipe_[1] >= 0) {
      char b = 1;
      [[maybe_unused]] ssize_t r = ::write(wake_pipe_[1], &b, 1);
    }
  }

  void join() override {
    MFC_CHECK(stop_.load(std::memory_order_acquire));
    if (comm_.joinable()) comm_.join();
  }

  void send_ctl(const wire::Header& hdr) override {
    wire::Header h = hdr;
    h.kind = static_cast<std::uint32_t>(Kind::kFtCtl);
    h.payload_len = 0;
    const int dproc = h.dest_pe / ppn_;
    if (dproc == my_proc_) {
      if (hooks_.ft_ctl) hooks_.ft_ctl(h);
      return;
    }
    robust_write(dproc, h, nullptr, 0);
  }

  bool quiescent() override {
    // AF_UNIX stream bytes buffer at the receiver, so FIONREAD on the
    // local recv fds sees everything written toward this process. A frame
    // mid-read implies its tail is still unwritten (the writer loops until
    // whole-frame completion), which keeps some PE thread busy and the QD
    // wave unquiet.
    for (const auto& [fd, peer] : recv_) {
      (void)peer;
      if (fd < 0) continue;
      int avail = 0;
      if (::ioctl(fd, FIONREAD, &avail) == 0 && avail > 0) return false;
    }
    return true;
  }

  void respawn_refresh(int proc, std::vector<int>& peer_fds) override {
    // Zygote-side: runs in the pristine pre-start image, where ends_ still
    // holds the full pairwise matrix. Closing the zygote's copies of the
    // dead pairs matters twice over — survivors only see EPIPE/EOF once no
    // live process holds the old write ends, and the respawn must inherit
    // only the fresh pairs. The survivor-side fds of those fresh pairs
    // stay open here (ends_ rows j) so a *later* respawn of a survivor
    // can still be forked with a complete matrix; they are closed when
    // this proc is refreshed again.
    MFC_CHECK(opt_.nprocs > 1 && comm_.joinable() == false);
    peer_fds.assign(static_cast<std::size_t>(opt_.nprocs), -1);
    for (int j = 0; j < opt_.nprocs; ++j) {
      if (j == proc) continue;
      int& a = ends_[static_cast<std::size_t>(proc)][static_cast<std::size_t>(j)];
      int& b = ends_[static_cast<std::size_t>(j)][static_cast<std::size_t>(proc)];
      if (a >= 0) ::close(a);
      if (b >= 0) ::close(b);
      int sv[2];
      MFC_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0);
      a = sv[0];  // inherited by the respawned process at fork
      b = sv[1];  // shipped to survivor j over SCM_RIGHTS
      peer_fds[static_cast<std::size_t>(j)] = b;
    }
  }

  void attach_peer(int proc, int fd, std::uint64_t gen) override {
    MFC_CHECK(fd >= 0 && proc != my_proc_);
    {
      std::lock_guard<std::mutex> lk(send_mu_[proc]);
      int& alias = opt_.nprocs > 1
                       ? ends_[static_cast<std::size_t>(my_proc_)]
                              [static_cast<std::size_t>(proc)]
                       : loop_send_;
      if (send_fd_[static_cast<std::size_t>(proc)] >= 0)
        ::close(send_fd_[static_cast<std::size_t>(proc)]);
      alias = fd;  // keep close_all single-close
      send_fd_[static_cast<std::size_t>(proc)] = fd;
      // Publish last: a sender parked on the dead stream re-reads the fd
      // under send_mu_ once it observes the generation move.
      std::lock_guard<std::mutex> glk(gen_mu_);
      peer_gen_[static_cast<std::size_t>(proc)].store(
          gen, std::memory_order_release);
    }
    gen_cv_.notify_all();
    // Receive-side surgery is comm-thread-local state; attach_peer runs on
    // the comm thread (the zygote channel's control fd), so plain accesses
    // are safe.
    for (std::size_t i = 0; i < recv_.size(); ++i) {
      if (recv_[i].second != proc) continue;
      recv_[i].first = fd;
      if (sinks_[i].cur != nullptr) {
        hooks_.drop(sinks_[i].cur);
        sinks_[i].cur = nullptr;
      }
      readers_[i].reset();
      ios_[i] = wire::FdIo(fd);
    }
  }

 private:
  /// Writes one frame toward `dproc`. Without peer-loss tolerance this is
  /// the plain blocking write (failures drop silently, matching the
  /// pre-FT contract). With tolerance, a failed write — EPIPE, reset, or
  /// a stalled buffer toward a dead process — parks *outside* the send
  /// lock until attach_peer publishes the replacement stream, then
  /// restarts the whole frame on it (partial bytes only ever reached the
  /// dead fd, so no survivor observes a torn frame).
  bool robust_write(int dproc, const wire::Header& h, const wire::Span* spans,
                    std::size_t n) {
    if (!hooks_.tolerate_peer_loss) {
      std::lock_guard<std::mutex> lk(send_mu_[dproc]);
      wire::FdIo io(send_fd_[static_cast<std::size_t>(dproc)]);
      return wire::write_frame(io, h, spans, n);
    }
    for (;;) {
      std::uint64_t seen;
      {
        std::lock_guard<std::mutex> lk(send_mu_[dproc]);
        seen = peer_gen_[static_cast<std::size_t>(dproc)].load(
            std::memory_order_relaxed);
        RobustIo io(send_fd_[static_cast<std::size_t>(dproc)]);
        if (wire::write_frame(io, h, spans, n)) return true;
      }
      metrics::bump(Counter::kWireRetries);
      if (stop_.load(std::memory_order_acquire)) return false;
      std::unique_lock<std::mutex> lk(gen_mu_);
      const bool moved = gen_cv_.wait_for(lk, std::chrono::minutes(2), [&] {
        return stop_.load(std::memory_order_acquire) ||
               peer_gen_[static_cast<std::size_t>(dproc)].load(
                   std::memory_order_acquire) != seen;
      });
      if (stop_.load(std::memory_order_acquire)) return false;
      MFC_CHECK_MSG(moved, "socket: peer stream never replaced after loss");
    }
  }

  struct FdSink {
    SocketTransport* t = nullptr;
    Message* cur = nullptr;

    char* on_header(const wire::Header& h) {
      if (static_cast<Kind>(h.kind) != Kind::kEager) return nullptr;
      cur = t->hooks_.alloc(h, h.payload_len);
      return payload_ptr(cur);
    }

    void on_frame(const wire::Header& h, char*) {
      switch (static_cast<Kind>(h.kind)) {
        case Kind::kEager:
          metrics::bump(Counter::kWireDelivered);
          trace::emit(trace::Ev::kWireDeliver, h.trace_flow, 0,
                      static_cast<std::uint32_t>(h.payload_len),
                      static_cast<std::int16_t>(h.src_pe));
          t->hooks_.enqueue(cur);
          cur = nullptr;
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
          MFC_CHECK_MSG(false, "unexpected frame kind on socket");
      }
    }
  };

  void comm_loop() {
    trace::bind_comm();
    const std::size_t nfd = recv_.size();
    // Receive state lives in members so attach_peer (same thread, via a
    // control fd) can swap a respawned peer's reader/io in place.
    readers_.assign(nfd, wire::Reader());
    sinks_.assign(nfd, FdSink());
    ios_.assign(nfd, wire::FdIo());
    for (std::size_t i = 0; i < nfd; ++i) {
      sinks_[i] = {this, nullptr};
      ios_[i] = wire::FdIo(recv_[i].first);
      if (hooks_.tolerate_peer_loss) readers_[i].set_tolerate_eof(true);
    }
    // Poll set: the peer streams, the stop pipe, then the control fds.
    const std::size_t nctl = hooks_.control.size();
    std::vector<pollfd> pfds(nfd + 1 + nctl);
    for (;;) {
      for (std::size_t i = 0; i < nfd; ++i)
        pfds[i] = {recv_[i].first, POLLIN, 0};
      pfds[nfd] = {wake_pipe_[0], POLLIN, 0};
      for (std::size_t i = 0; i < nctl; ++i)
        pfds[nfd + 1 + i] = {hooks_.control[i].fd, POLLIN, 0};
      if (::poll(pfds.data(), pfds.size(), -1) < 0) continue;
      trace::clock_stale();
      if (pfds[nfd].revents & POLLIN) {
        char buf[64];
        while (::read(wake_pipe_[0], buf, sizeof buf) > 0) {
        }
      }
      bool eof_all = true;
      for (std::size_t i = 0; i < nfd; ++i) {
        if (recv_[i].first < 0) continue;
        wire::PumpResult r = readers_[i].pump(ios_[i], sinks_[i]);
        if (r == wire::PumpResult::kEof) {
          // Peer exited. Under FT a truncated frame is dropped here and
          // attach_peer later installs the respawn's stream; otherwise the
          // parent's child pidfds police abnormal exits.
          if (!readers_[i].idle()) {
            readers_[i].reset();
            if (sinks_[i].cur != nullptr) {
              hooks_.drop(sinks_[i].cur);
              sinks_[i].cur = nullptr;
            }
          }
          recv_[i].first = -1;
        } else {
          eof_all = false;
        }
      }
      if (stop_.load(std::memory_order_acquire)) {
        // Drain whatever arrived alongside the stop order, then leave.
        bool drained = true;
        for (std::size_t i = 0; i < nfd; ++i) {
          if (recv_[i].first >= 0 && !readers_[i].idle()) drained = false;
        }
        if (drained || eof_all) break;
      }
      // After the pumps: a peer swap (attach_peer) replaces a stream the
      // loop above must not be reading mid-iteration.
      service_control(hooks_.control, pfds.data() + nfd + 1);
    }
  }

  void close_all() {
    auto cl = [](int& fd) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    };
    cl(loop_send_);
    cl(loop_recv_);
    for (auto& row : ends_)
      for (int& fd : row) cl(fd);
    for (int& fd : send_fd_) fd = -1;  // aliases of ends_/loop fds
    cl(wake_pipe_[0]);
    cl(wake_pipe_[1]);
  }

  Options opt_;
  int ppn_ = 1;
  int my_proc_ = 0;
  int loop_send_ = -1;
  int loop_recv_ = -1;
  std::vector<std::vector<int>> ends_;
  std::vector<int> send_fd_;
  std::unique_ptr<std::mutex[]> send_mu_;
  /// Per-peer stream generation; bumped by attach_peer when a respawned
  /// peer's fresh socket replaces a dead one. Senders parked on a failed
  /// write resume when they observe it move.
  std::unique_ptr<std::atomic<std::uint64_t>[]> peer_gen_;
  /// Parks senders waiting for a peer_gen_ move (or stop).
  std::mutex gen_mu_;
  std::condition_variable gen_cv_;
  std::vector<std::pair<int, int>> recv_;  ///< (fd, peer proc)
  int wake_pipe_[2] = {-1, -1};
  Hooks hooks_;
  std::atomic<bool> stop_{false};
  std::thread comm_;
  /// Comm-thread receive state (members so attach_peer can reach them).
  std::vector<wire::Reader> readers_;
  std::vector<FdSink> sinks_;
  std::vector<wire::FdIo> ios_;
};

}  // namespace

std::unique_ptr<Transport> make_shm_transport(const Options& options) {
  return std::make_unique<ShmTransport>(options);
}

std::unique_ptr<Transport> make_socket_transport(const Options& options) {
  return std::make_unique<SocketTransport>(options);
}

}  // namespace mfc::converse::transport
