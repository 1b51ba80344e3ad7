// Inter-PE message queues for the converse machine layer.
//
// MpscQueue: multiple-producer single-consumer queue. Producers are remote
// PEs (kernel threads) delivering messages; the consumer is the owning PE's
// scheduler loop. The implementation is lock-free on the hot path: producers
// CAS onto a LIFO "inbox" list, and the consumer swaps the whole inbox out
// in one exchange and reverses it into a FIFO batch it then serves privately
// (the "swap-the-deque" batched MPSC). A mutex + condition variable pair
// survives only as an idle/parking backstop: the consumer parks after a
// bounded spin, and producers skip the notify syscall entirely unless a
// consumer is actually parked.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
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

/// Consumer parking shared by the MPSC queues. The handshake is
/// Dekker-style: the consumer publishes `parked_` (seq_cst) and then
/// re-checks the queue; a producer publishes its item (seq_cst RMW) and then
/// reads `parked_`. One of the two must observe the other, so a push can
/// never slip between the consumer's last empty-check and its sleep.
/// `signal_` is sticky so a wake() that arrives while no consumer is parked
/// still satisfies the next park() immediately (shutdown safety).
class Parker {
 public:
  /// Producer side, called after publishing an item. No-op (one atomic
  /// load, no syscall) unless a consumer is parked — and the exchange
  /// claims the notify, so a burst of pushes against a parked consumer
  /// costs one futex wake total instead of one per push.
  void unpark_if_parked() {
    if (!parked_.load(std::memory_order_seq_cst)) return;
    if (!parked_.exchange(false, std::memory_order_seq_cst)) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      signal_ = true;
    }
    cv_.notify_one();
  }

  /// Forced wake (shutdown / "work appeared locally"). Sticky; skips the
  /// notify when nobody is parked.
  void wake() {
    bool was_parked;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      signal_ = true;
      was_parked = parked_.load(std::memory_order_relaxed);
    }
    if (was_parked) cv_.notify_one();
  }

  /// Consumer side: blocks until `nonempty()` holds, a producer unparks us,
  /// or a sticky wake is pending. The caller re-checks its queue afterward.
  template <typename NonEmpty>
  void park(NonEmpty&& nonempty) {
    std::unique_lock<std::mutex> lock(mutex_);
    parked_.store(true, std::memory_order_seq_cst);
    if (!nonempty()) {
      cv_.wait(lock, [&] { return signal_ || nonempty(); });
    }
    parked_.store(false, std::memory_order_relaxed);
    signal_ = false;
  }

  /// park() with a deadline: returns after `micros` even if nothing
  /// arrived. The failure detector's heartbeat loop on PE 0 uses this so an
  /// idle machine still ticks pings/timeouts; the same Dekker handshake
  /// keeps pushes from slipping past the sleep.
  template <typename NonEmpty>
  void park_for(std::uint64_t micros, NonEmpty&& nonempty) {
    std::unique_lock<std::mutex> lock(mutex_);
    parked_.store(true, std::memory_order_seq_cst);
    if (!nonempty()) {
      cv_.wait_for(lock, std::chrono::microseconds(micros),
                   [&] { return signal_ || nonempty(); });
    }
    parked_.store(false, std::memory_order_relaxed);
    signal_ = false;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::atomic<bool> parked_{false};
  bool signal_ = false;
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
  detail::Parker parker_;
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
  /// spurious unpark with no data. Consumer thread only.
  T* pop_wait() {
    T* item = nullptr;
    const auto got = [&] { return (item = try_pop()) != nullptr; };
    if (got() || detail::spin_before_park(got)) return item;
    parker_.park([this] {
      return inbox_.load(std::memory_order_seq_cst) != nullptr;
    });
    return try_pop();
  }

  /// pop_wait() with a parking deadline: returns nullptr once `micros`
  /// elapse with no data (or on a wake/spurious unpark). Lets an otherwise
  /// idle consumer loop run periodic work (heartbeats) without busy-waiting.
  T* pop_wait_for(std::uint64_t micros) {
    if (T* item = try_pop()) return item;
    for (int i = detail::spin_iters_before_park(); i > 0; --i) {
      detail::cpu_relax();
      if (T* item = try_pop()) return item;
    }
    parker_.park_for(micros, [this] {
      return inbox_.load(std::memory_order_seq_cst) != nullptr;
    });
    return try_pop();
  }

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
  alignas(64) std::atomic<T*> inbox_{nullptr};
  // Consumer-private drained chain in FIFO order.
  alignas(64) T* batch_ = nullptr;
  detail::Parker parker_;
};

}  // namespace mfc
