// Inter-PE message queues for the converse machine layer.
//
// MpscQueue: multiple-producer single-consumer queue. Producers are remote
// PEs (kernel threads) delivering messages; the consumer is the owning PE's
// scheduler loop. The implementation is lock-free on the hot path: producers
// CAS onto a LIFO "inbox" list, and the consumer swaps the whole inbox out
// in one exchange and reverses it into a FIFO batch it then serves privately
// (the "swap-the-deque" batched MPSC). An idle consumer parks on a futex
// word after a bounded spin, and producers skip the wake syscall entirely
// unless a consumer is actually parked.
#pragma once

#include <linux/futex.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace mfc {

namespace detail {

inline void cpu_relax() {
#if defined(__x86_64__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Spin iterations before a consumer parks. On a single-CPU host spinning
/// only steals cycles from the producer, so park immediately.
inline int spin_iters_before_park() {
  static const int iters = std::thread::hardware_concurrency() > 1 ? 128 : 0;
  return iters;
}

/// sched_yield rounds between spinning and parking. On an oversubscribed
/// host a yield hands the core straight to a producer, which usually makes
/// data appear without paying the futex sleep/wake round trip.
constexpr int kYieldRoundsBeforePark = 4;

/// A consumer's last look before it parks: a bounded spin, then the yield
/// rounds, polling `ready`. True as soon as `ready()` holds.
template <typename Ready>
bool spin_before_park(Ready&& ready) {
  for (int i = spin_iters_before_park(); i > 0; --i) {
    cpu_relax();
    if (ready()) return true;
  }
  for (int i = 0; i < kYieldRoundsBeforePark; ++i) {
    std::this_thread::yield();
    if (ready()) return true;
  }
  return false;
}

/// States of a parking word (see Parker).
enum ParkWord : std::uint32_t {
  kWordIdle = 0,      ///< consumer awake
  kWordParked = 1,    ///< consumer asleep (or about to re-check and sleep)
  kWordNotified = 2,  ///< sticky wake() not yet consumed by a park
};

static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t) &&
                  std::atomic<std::uint32_t>::is_always_lock_free,
              "a parking word must be a plain 32-bit futex word");

/// The futex call on a parking word. `shared` words live in MAP_SHARED
/// memory that other processes wake through, so they skip
/// FUTEX_PRIVATE_FLAG; every waiter and waker of one word must agree.
inline void futex_call(std::atomic<std::uint32_t>* word, int op, bool shared,
                       std::uint32_t val, const timespec* timeout) {
  ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word),
            shared ? op : (op | FUTEX_PRIVATE_FLAG), val, timeout, nullptr,
            0);
}

/// Producer side of the parking handshake, called after publishing an
/// item: one load and no syscall unless the consumer is parked, and the CAS
/// claims the wake, so a burst of pushes against a parked consumer costs one
/// futex wake in total. Works on any parking word — a local queue's, or a PE
/// word in the shm segment that a producer in another process wakes.
inline void unpark_word(std::atomic<std::uint32_t>& word, bool shared) {
  if (word.load(std::memory_order_seq_cst) != kWordParked) return;
  std::uint32_t expect = kWordParked;
  if (!word.compare_exchange_strong(expect, kWordIdle,
                                    std::memory_order_seq_cst)) {
    return;
  }
  futex_call(&word, FUTEX_WAKE, shared, 1, nullptr);
}

/// Consumer parking shared by the MPSC queues: one futex word. The
/// handshake is Dekker-style: the consumer publishes kWordParked (seq_cst
/// exchange) and then re-checks its sources; a producer publishes its item
/// (a seq_cst RMW or store) and then reads the word. One of the two must
/// observe the other, so an item can never slip between the consumer's last
/// empty-check and its sleep. wake() leaves kWordNotified behind when
/// nobody is parked, so it still satisfies the next park() immediately
/// (shutdown safety).
///
/// The word lives in the Parker by default; bind() moves it elsewhere —
/// the shm wire puts each PE's word in its shared segment, so a producer in
/// another process wakes the destination PE directly (unpark_word).
class Parker {
 public:
  Parker() = default;
  Parker(const Parker&) = delete;
  Parker& operator=(const Parker&) = delete;

  /// Re-homes the word into shared memory. Call before the consumer first
  /// parks; the word's current value is kept.
  void bind(std::atomic<std::uint32_t>* word) {
    word_ = word;
    shared_ = true;
  }

  /// Producer side, called after publishing an item (see unpark_word).
  void unpark_if_parked() { unpark_word(*word_, shared_); }

  /// Forced wake (shutdown / "work appeared locally"). Sticky; the wake
  /// syscall only runs when the consumer is parked.
  void wake() {
    if (word_->exchange(kWordNotified, std::memory_order_seq_cst) ==
        kWordParked) {
      futex_call(word_, FUTEX_WAKE, shared_, 1, nullptr);
    }
  }

  /// Consumer side: blocks until `nonempty()` holds, a producer unparks us,
  /// or a sticky wake is pending. The caller re-checks its queue afterward.
  template <typename NonEmpty>
  void park(NonEmpty&& nonempty) {
    if (announce() && !nonempty()) {
      while (word_->load(std::memory_order_acquire) == kWordParked) {
        futex_call(word_, FUTEX_WAIT, shared_, kWordParked, nullptr);
      }
    }
    settle();
  }

  /// park() with a deadline: returns after `micros` even if nothing
  /// arrived (or earlier, spuriously; callers loop). The failure detector's
  /// heartbeat loop on PE 0 uses this so an idle machine still ticks
  /// pings/timeouts; the same handshake keeps pushes from slipping past the
  /// sleep.
  template <typename NonEmpty>
  void park_for(std::uint64_t micros, NonEmpty&& nonempty) {
    if (announce() && !nonempty()) {
      const timespec ts{static_cast<time_t>(micros / 1000000),
                        static_cast<long>((micros % 1000000) * 1000)};
      futex_call(word_, FUTEX_WAIT, shared_, kWordParked, &ts);
    }
    settle();
  }

 private:
  /// Publishes kWordParked; false when a sticky wake was pending (consumed
  /// here, so the park returns at once).
  bool announce() {
    return word_->exchange(kWordParked, std::memory_order_seq_cst) !=
           kWordNotified;
  }
  /// Back to idle. acq_rel: a wake() that lands while the consumer leaves
  /// is consumed here, and the acquire makes the waker's prior stores (the
  /// condition it woke us for) visible to the caller's re-check.
  void settle() { word_->exchange(kWordIdle, std::memory_order_acq_rel); }

  std::atomic<std::uint32_t> own_{kWordIdle};
  std::atomic<std::uint32_t>* word_ = &own_;
  bool shared_ = false;
};

/// A consumer's extra sources beside its queue, polled while it waits: the
/// shm wire's rings, which PE threads drain themselves. `poll()` moves what
/// it finds onto the queue; `ready()` is the parking re-check (true while
/// something is waiting to be polled). The default has none.
struct NoFeed {
  void poll() {}
  bool ready() { return false; }
};

}  // namespace detail

template <typename T>
class MpscQueue {
 public:
  MpscQueue() = default;
  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  ~MpscQueue() {
    Node* n = inbox_.load(std::memory_order_relaxed);
    while (n != nullptr) {
      Node* next = n->next;
      delete n;
      n = next;
    }
  }

  /// Lock-free; callable from any thread.
  void push(T item) {
    Node* n = new Node{nullptr, std::move(item)};
    Node* head = inbox_.load(std::memory_order_relaxed);
    do {
      n->next = head;
    } while (!inbox_.compare_exchange_weak(head, n, std::memory_order_seq_cst,
                                           std::memory_order_relaxed));
    size_.fetch_add(1, std::memory_order_relaxed);
    parker_.unpark_if_parked();
  }

  /// Non-blocking pop; empty optional when the queue is empty.
  /// Consumer thread only.
  std::optional<T> try_pop() {
    if (batch_pos_ == batch_.size() && !refill()) return std::nullopt;
    T item = std::move(batch_[batch_pos_++]);
    if (batch_pos_ == batch_.size()) {
      batch_.clear();
      batch_pos_ = 0;
    }
    size_.fetch_sub(1, std::memory_order_relaxed);
    return item;
  }

  /// Blocking pop: bounded spin, then parks until an item arrives or wake()
  /// is called. May return an empty optional on a wake() or a spurious
  /// unpark with no data; callers loop. Consumer thread only.
  std::optional<T> pop_wait() {
    std::optional<T> v;
    const auto got = [&] { return (v = try_pop()).has_value(); };
    if (got() || detail::spin_before_park(got)) return v;
    parker_.park([this] {
      return inbox_.load(std::memory_order_seq_cst) != nullptr;
    });
    return try_pop();
  }

  /// Pops and invokes `fn` on every available item (one inbox grab serves
  /// the whole batch). Returns the number drained. Consumer thread only.
  template <typename Fn>
  std::size_t drain(Fn&& fn) {
    std::size_t n = 0;
    while (auto v = try_pop()) {
      fn(std::move(*v));
      ++n;
    }
    return n;
  }

  /// Wakes a blocked pop_wait() without delivering data (used for shutdown
  /// and for "work became available locally" notifications).
  void wake() { parker_.wake(); }

  /// Approximate when racing concurrent producers; exact once they settle.
  bool empty() const { return size_.load(std::memory_order_acquire) == 0; }
  std::size_t size() const { return size_.load(std::memory_order_acquire); }

 private:
  struct Node {
    Node* next;
    T value;
  };

  /// Swaps the inbox out and reverses it into FIFO order in batch_.
  bool refill() {
    Node* chain = inbox_.exchange(nullptr, std::memory_order_acquire);
    if (chain == nullptr) return false;
    Node* prev = nullptr;  // reverse: inbox is newest-first
    while (chain != nullptr) {
      Node* next = chain->next;
      chain->next = prev;
      prev = chain;
      chain = next;
    }
    while (prev != nullptr) {
      batch_.push_back(std::move(prev->value));
      Node* next = prev->next;
      delete prev;
      prev = next;
    }
    return true;
  }

  alignas(64) std::atomic<Node*> inbox_{nullptr};
  alignas(64) std::atomic<std::size_t> size_{0};
  // Consumer-private drained batch, served in FIFO order.
  alignas(64) std::vector<T> batch_;
  std::size_t batch_pos_ = 0;
  // Read by every producer's push: kept off the consumer's batch line.
  alignas(64) detail::Parker parker_;
};

/// Intrusive MPSC channel for pointer items that carry their own link
/// (T must expose a `T* next` member). Zero allocation per push — the links
/// live in the items themselves, which the converse layer recycles through
/// per-PE message pools. Same swap-list batching and parking as MpscQueue.
template <typename T>
class IntrusiveMpscChannel {
 public:
  IntrusiveMpscChannel() = default;
  IntrusiveMpscChannel(const IntrusiveMpscChannel&) = delete;
  IntrusiveMpscChannel& operator=(const IntrusiveMpscChannel&) = delete;

  /// Lock-free; callable from any thread. The channel borrows item->next
  /// until the item is popped.
  void push(T* item) {
    T* head = inbox_.load(std::memory_order_relaxed);
    do {
      item->next = head;
    } while (!inbox_.compare_exchange_weak(head, item,
                                           std::memory_order_seq_cst,
                                           std::memory_order_relaxed));
    parker_.unpark_if_parked();
  }

  /// Consumer thread only; nullptr when empty.
  T* try_pop() {
    if (batch_ == nullptr) {
      T* chain = inbox_.exchange(nullptr, std::memory_order_acquire);
      while (chain != nullptr) {  // reverse newest-first into FIFO order
        T* next = chain->next;
        chain->next = batch_;
        batch_ = chain;
        chain = next;
      }
      if (batch_ == nullptr) return nullptr;
    }
    T* item = batch_;
    batch_ = item->next;
    item->next = nullptr;
    return item;
  }

  /// Blocking pop with bounded spin + parking; nullptr after a wake() or
  /// spurious unpark with no data. `feed` is polled before every look at
  /// the queue and re-checked before sleeping (see NoFeed). Consumer thread
  /// only.
  template <typename Feed = detail::NoFeed>
  T* pop_wait(Feed&& feed = Feed{}) {
    T* item = nullptr;
    const auto got = [&] {
      feed.poll();
      return (item = try_pop()) != nullptr;
    };
    if (got() || detail::spin_before_park(got)) return item;
    parker_.park([&] { return inbox_nonempty() || feed.ready(); });
    return try_pop();
  }

  /// pop_wait() with a parking deadline: returns nullptr once `micros`
  /// elapse with no data (or on a wake/spurious unpark). Lets an otherwise
  /// idle consumer loop run periodic work (heartbeats) without busy-waiting.
  template <typename Feed = detail::NoFeed>
  T* pop_wait_for(std::uint64_t micros, Feed&& feed = Feed{}) {
    feed.poll();
    if (T* item = try_pop()) return item;
    for (int i = detail::spin_iters_before_park(); i > 0; --i) {
      detail::cpu_relax();
      feed.poll();
      if (T* item = try_pop()) return item;
    }
    parker_.park_for(micros,
                     [&] { return inbox_nonempty() || feed.ready(); });
    return try_pop();
  }

  /// Moves the consumer's parking word into shared memory (Parker::bind).
  void bind_wake_word(std::atomic<std::uint32_t>* word) { parker_.bind(word); }

  void wake() { parker_.wake(); }

  /// Parks the consumer without popping until `ready()` holds, a wake()
  /// lands, or a push unparks it (the caller re-checks). A PE marked dead
  /// sleeps here: its backlog must stay queued until it is revived.
  template <typename Ready>
  void park_until(Ready&& ready) {
    parker_.park(std::forward<Ready>(ready));
  }

  /// True when the consumer has nothing pending (private batch and inbox
  /// both empty). Consumer thread only; used to gate the self-send
  /// fast path so local delivery cannot overtake queued messages.
  bool consumer_empty() const {
    return batch_ == nullptr &&
           inbox_.load(std::memory_order_acquire) == nullptr;
  }

 private:
  /// The parking re-check's half of the handshake (seq_cst load).
  bool inbox_nonempty() const {
    return inbox_.load(std::memory_order_seq_cst) != nullptr;
  }

  alignas(64) std::atomic<T*> inbox_{nullptr};
  // Consumer-private drained chain in FIFO order.
  alignas(64) T* batch_ = nullptr;
  // Read by every producer's push: kept off the consumer's batch line.
  alignas(64) detail::Parker parker_;
};

}  // namespace mfc
