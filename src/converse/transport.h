// The machine layer's cross-process wire: shm SPSC rings (converse/shmring.h).
//
// Two modes use it (see DESIGN.md "Machine layer"):
//
//   - loopback: nprocs == 1 but the shm wire is selected — every cross-PE
//     send is routed over the rings inside one process. This is the
//     conformance mode: the full ring and chunking path runs under tsan and
//     under every legacy storm (including FT kill storms) with no fork.
//   - multi-process: Machine::run forks nprocs-1 children after the shared
//     resources (chaos, trace, iso region, the wire's segment) are set up;
//     process k hosts PEs [k*ppn, (k+1)*ppn). Only cross-process sends hit
//     the wire; same-process PEs keep the direct lock-free queues.
//
// Send contract: send() returns only after the span bytes have been copied
// into the ring and `on_consumed`, if set, has run. The ring delays the
// final tail publish until after on_consumed, so the message cannot be
// *delivered* anywhere before it runs. That is what makes a destructive
// pack epilogue (evacuating the pages the spans point into) safe even when
// source and destination share a process.
//
// Producer discipline: send() may only be called on PE kernel threads (the
// header's src_pe names the calling PE), which gives the rings their single
// producer per (dest_proc, src_pe) pair.
//
// Delivery: no relay thread. A producer wakes the destination PE through
// that PE's wake word in the segment, and whichever local PE is awake
// drains every ring toward its process (drain(), called from the PE loops;
// pending() is their parking re-check). A comm thread exists only while the
// machine has control fds (process 0's child pidfds and zygote channel).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "converse/shmring.h"
#include "converse/wire.h"

namespace mfc::converse {
struct Message;
}

namespace mfc::converse::transport {

/// A machine control fd the comm thread waits on: the zygote channel, or
/// one pidfd per child (both on process 0). `ready` runs on the comm thread
/// as soon as the fd polls readable or hung up; returning false retires the
/// fd (a reaped child's pidfd stays readable forever). The machine owns the
/// fd.
struct ControlFd {
  int fd = -1;
  std::function<bool()> ready;
};

/// Machine-side callbacks, installed post-fork via start(). alloc/enqueue/
/// drop manage receive envelopes and the shutdown hooks implement the
/// ProcDone/Stop handshake. They run on whichever local PE thread drains
/// the rings (or the joining thread's last sweep), so they must be
/// thread-safe.
struct Hooks {
  /// Allocates a delivery envelope for an incoming message of `total_len`
  /// payload bytes (header fields copied in; payload sized, unfilled).
  std::function<Message*(const wire::Header& h, std::uint64_t total_len)>
      alloc;
  /// Hands a filled envelope to its destination PE's queue.
  std::function<void(Message*)> enqueue;
  /// Frees an envelope that will never be delivered (stop-time cleanup).
  std::function<void(Message*)> drop;
  /// A process finished all its mains (invoked on process 0 only).
  std::function<void()> on_proc_done;
  /// Stop order received (every process; fires on the delivering thread).
  std::function<void()> on_stop;
  /// Control fds the comm thread polls, so a child death or a zygote
  /// record is serviced as soon as it happens. Empty: no comm thread.
  std::vector<ControlFd> control;
  /// An FT control frame (kind == kFtCtl) arrived for a local PE: the
  /// machine flips that PE's dead/wipe flags. Delivery-thread context.
  std::function<void(const wire::Header&)> ft_ctl;
  /// Cross-process FT respawn is armed: a producer may die between the
  /// chunks of a message. Its respawn's first frame on the ring then drops
  /// the stale assembly, and a chunk tail whose head the dead incarnation
  /// consumed is skipped, instead of either aborting.
  bool tolerate_peer_loss = false;
};

class Transport {
 public:
  /// Pre-fork: creates the shared segment so children inherit it — one
  /// SPSC ring of `ring_bytes` (a power of two) per (destination process,
  /// source PE) pair. Messages that don't fit half a ring are chunked.
  /// Call before Machine::run forks.
  Transport(int npes, int nprocs, std::size_t ring_bytes);
  ~Transport();
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Post-fork, per process: installs hooks and spawns the comm thread
  /// when hooks.control is non-empty.
  void start(int my_proc, Hooks hooks);

  /// PE-thread context: delivers every frame now waiting toward this
  /// process onto the local PE queues (through hooks.enqueue).
  void drain();

  /// True while a frame toward this process waits for drain(): a PE's
  /// re-check after it announced its park.
  bool pending();

  /// The futex word through which producers in any process wake PE `pe`
  /// (a local PE's queue parks on it).
  std::atomic<std::uint32_t>& wake_word(int pe) { return seg_.wake_word(pe); }

  /// Ships one message; see the send contract above. Messages that fit
  /// half a ring go as one kEager frame, larger ones as kChunk frames;
  /// `h` arrives with kind == kEager and payload_len == total span bytes.
  void send(const wire::Header& h, const wire::Span* spans, std::size_t nspans,
            std::function<void()> on_consumed);

  /// This process finished its mains (PE thread context). On process 0 the
  /// hook fires inline; children ship a kProcDone frame.
  void send_proc_done(int src_pe);

  /// Process 0, from whichever thread saw the last ProcDone: orders every
  /// process (including this one) to stop.
  void broadcast_stop();

  /// Sets the local stop flag and wakes the comm thread, if any
  /// (idempotent).
  void stop_local();

  /// Joins the comm thread and delivers what is still in flight toward
  /// this process. Call stop_local() first, after the PE threads joined.
  void join();

  /// Ships one control frame to the process hosting h.dest_pe (the kind is
  /// forced to kFtCtl, payload_len to 0). PE thread context: h.src_pe must
  /// name the calling PE (producer discipline, like send()).
  void send_ctl(const wire::Header& h);

  /// True when no ring anywhere in the machine holds a frame. Advisory
  /// between observations; exact when sampled under a quiescent machine —
  /// the QD drain wave ANDs one sample per process into its token.
  bool quiescent();

  /// Marks process `proc` dead (or alive again) for this process's
  /// senders. A send that finds its ring toward a marked process full
  /// stops waiting and drops the frame, running on_consumed as a post-stop
  /// drop does: the frames would have died with the process, and nothing
  /// drains that ring until the respawn. Process 0 sets the mark when it
  /// posts a death and clears it when the respawn completes, so the FT
  /// tick on PE 0 never waits on a dead process. Any thread.
  void set_proc_dead(int proc, bool dead);

 private:
  /// One in-progress chunked (or about-to-be-enqueued eager) message per
  /// SPSC ring: the producer finishes one message before starting the
  /// next, so a ring never needs more than one.
  struct Assembly {
    Message* m = nullptr;
  };

  /// Per-ring hand-off counter (see drain_ring), on its own cache line.
  struct Claim {
    alignas(64) std::atomic<std::uint32_t> n{0};
  };

  struct Sink;

  shm::RingView& producer_view(int src_pe, int dproc);
  void wake_pe(int pe);
  bool push_wait(shm::RingView& rv, int dest_pe, const wire::Header& h,
                 const wire::Span* s, std::size_t n, bool publish);
  void publish(shm::RingView& rv, int dest_pe);
  void drain_ring(std::size_t s);
  void control_loop();

  const int npes_;
  const int nprocs_;
  const int ppn_;
  /// Largest payload of one frame: half a ring, less the header.
  const std::uint64_t max_chunk_;
  int my_proc_ = 0;
  shm::Segment seg_;
  Hooks hooks_;
  std::atomic<bool> stop_{false};
  /// Per process: set_proc_dead's mark (process-local, not in the segment).
  std::unique_ptr<std::atomic<bool>[]> proc_dead_;
  int stop_fd_ = -1;  ///< wakes the comm thread on stop
  std::thread comm_;
  /// Persistent producer views for this process's PEs (the view carries
  /// the producer-local pending-tail shadow): views_[local_pe][dest_proc].
  std::vector<shm::RingView> views_;
  std::vector<shm::RingView> inbound_;  ///< rings toward this process
  std::unique_ptr<Claim[]> claims_;     ///< parallel to inbound_
  std::vector<Assembly> assembly_;      ///< parallel to inbound_
};

}  // namespace mfc::converse::transport
