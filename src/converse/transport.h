// Pluggable cross-process message transports for the machine layer.
//
// A Transport ships wire frames between the machine's processes. Two modes
// use it (see DESIGN.md "Machine layer"):
//
//   - loopback: nprocs == 1 but a wire transport is selected — every
//     cross-PE send is routed over the wire inside one process. This is the
//     conformance mode: the full ring/socket/codec path runs under tsan and
//     under every legacy storm (including FT kill storms) with no fork.
//   - multi-process: Machine::run forks nprocs-1 children after the shared
//     resources (chaos, trace, iso region, the transport itself) are set
//     up; process k hosts PEs [k*ppn, (k+1)*ppn). Only cross-process sends
//     hit the wire; same-process PEs keep the direct lock-free queues.
//
// Send contract: send() returns only after the span bytes have been
// consumed (copied into a ring/staging buffer or handed to the kernel) and
// `on_consumed`, if set, has run. Transports additionally guarantee
// on_consumed runs before the message can be *delivered* anywhere — the
// ring delays its final tail publish, the socket path stages a copy —
// which is what makes a destructive pack epilogue (evacuating the pages the
// spans point into) safe even when source and destination share a process.
//
// Producer discipline: send() may only be called on PE kernel threads (the
// header's src_pe names the calling PE), which gives the shm rings their
// single producer per (dest_proc, src_pe) pair.
//
// Delivery: the socket wire has a comm thread that reads its streams and
// hands each message to its destination PE's queue. The shm wire has no
// relay: a producer wakes the destination PE through that PE's wake word
// in the segment, and whichever local PE is awake drains every ring toward
// its process (drain(), called from the PE loops; pending() is their
// parking re-check). Either wire keeps a comm thread for the machine's
// control fds (child pidfds, the zygote channel) when it has any.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "converse/wire.h"

namespace mfc::converse {
struct Message;
}

namespace mfc::converse::transport {

/// A machine control fd the comm thread waits on beside its wire: the
/// zygote channel, or on process 0 one pidfd per child. `ready` runs on the
/// comm thread as soon as the fd polls readable or hung up; returning false
/// retires the fd (a reaped child's pidfd stays readable forever). The
/// machine owns the fd.
struct ControlFd {
  int fd = -1;
  std::function<bool()> ready;
};

/// Machine-side callbacks, installed post-fork via start(). alloc/enqueue/
/// drop manage receive envelopes and the shutdown hooks implement the
/// ProcDone/Stop handshake. They run on whichever thread delivers: the
/// socket comm thread, or a local PE thread draining the shm rings (or the
/// joining thread's last sweep), so they must be thread-safe.
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
  /// record is serviced as soon as it happens.
  std::vector<ControlFd> control;
  /// An FT control frame (kind == kFtCtl) arrived for a local PE: the
  /// machine flips that PE's dead/wipe flags. Delivery-thread context.
  std::function<void(const wire::Header&)> ft_ctl;
  /// Cross-process FT respawn is armed: losing a peer is a recoverable
  /// event, not a protocol violation. EOF mid-frame discards the partial
  /// frame instead of aborting, and failed sends retry until the peer's
  /// stream is replaced (attach_peer) instead of being dropped silently.
  bool tolerate_peer_loss = false;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Post-fork, per process: installs hooks and spawns the comm thread
  /// (the shm wire spawns one only when hooks.control is non-empty).
  virtual void start(int my_proc, Hooks hooks) = 0;

  /// PE-thread context: delivers every frame now waiting toward this
  /// process onto the local PE queues (through hooks.enqueue). No-op where
  /// a comm thread delivers.
  virtual void drain() {}

  /// True while a frame toward this process waits for drain(): a PE's
  /// re-check after it announced its park. Always false where a comm
  /// thread delivers.
  virtual bool pending() { return false; }

  /// The futex word through which producers in any process wake PE `pe`
  /// (a local PE's queue parks on it); nullptr where a comm thread
  /// delivers and PEs park on words of their own.
  virtual std::atomic<std::uint32_t>* wake_word(int pe) {
    (void)pe;
    return nullptr;
  }

  /// Ships one message; see the send contract above. The transport picks
  /// the wire strategy (eager / chunked) from the size; `h`
  /// arrives with kind == kEager and payload_len == total span bytes.
  virtual void send(const wire::Header& h, const wire::Span* spans,
                    std::size_t nspans,
                    std::function<void()> on_consumed) = 0;

  /// This process finished its mains (PE thread context). On process 0 the
  /// hook fires inline; children ship a kProcDone frame.
  virtual void send_proc_done(int src_pe) = 0;

  /// Process 0, from whichever thread saw the last ProcDone: orders every
  /// process (including this one) to stop.
  virtual void broadcast_stop() = 0;

  /// Sets the local stop flag and wakes the comm thread, if any
  /// (idempotent).
  virtual void stop_local() = 0;

  /// Joins the comm thread and delivers what is still in flight toward
  /// this process. Call stop_local() first, after the PE threads joined.
  virtual void join() = 0;

  /// Ships one control frame to the process hosting h.dest_pe (the kind is
  /// forced to kFtCtl, payload_len to 0). PE thread context: h.src_pe must
  /// name the calling PE (producer discipline, like send()).
  virtual void send_ctl(const wire::Header& h) = 0;

  /// True when no wire bytes are in flight toward this process and no
  /// receive is mid-frame here. Advisory between observations; exact when
  /// sampled under a quiescent machine — the QD drain wave ANDs one sample
  /// per process into its token.
  virtual bool quiescent() { return true; }

  /// Zygote-side, pre-start image only: replaces the wire resources of
  /// dead process `proc` before its respawn is forked (the fresh fork then
  /// inherits them). Fills `peer_fds` with one fd per surviving process to
  /// ship over SCM_RIGHTS (-1 = nothing to ship; the shm rings are crash-
  /// consistent and need no replacement). Caller owns the returned fds.
  virtual void respawn_refresh(int proc, std::vector<int>& peer_fds) {
    peer_fds.assign(peer_fds.size(), -1);
    (void)proc;
  }

  /// Survivor-side, comm-thread context: installs respawned peer `proc`'s
  /// fresh stream (`fd` < 0 when there is none to install) and discards
  /// every half-read frame and staged envelope still referring to the old
  /// incarnation (the shm rings do so lazily, when the respawn's first
  /// frame on a ring replaces the stale assembly). `gen` is the respawn
  /// generation; senders blocked on the dead stream resume when they
  /// observe it move.
  virtual void attach_peer(int proc, int fd, std::uint64_t gen) {
    (void)proc;
    (void)fd;
    (void)gen;
  }
};

struct Options {
  int npes = 0;
  int nprocs = 1;
  /// Per-pair SPSC ring capacity (power of two). Messages that don't fit
  /// half a ring are chunked.
  std::size_t shm_ring_bytes = 64 * 1024;
};

/// Pre-fork factories: create the shared segment / socketpairs so children
/// inherit them. Call before Machine::run forks.
std::unique_ptr<Transport> make_shm_transport(const Options& options);
std::unique_ptr<Transport> make_socket_transport(const Options& options);

}  // namespace mfc::converse::transport
