// Inter-PE message channel for the converse machine layer.
//
// IntrusiveMpscChannel: multiple-producer single-consumer channel of items
// that carry their own link. Producers are remote PEs (kernel threads)
// delivering messages; the consumer is the owning PE's scheduler loop. The
// implementation is lock-free on the hot path: producers CAS onto a LIFO
// "inbox" list, and the consumer swaps the whole inbox out in one exchange
// and reverses it into a FIFO batch it then serves privately (the
// "swap-the-deque" batched MPSC).
//
// An idle consumer waits in one place, pop_wait(): a bounded spin and a
// few yields, then a park on a futex word (Parker). Producers skip the
// wake syscall unless the consumer is actually parked. A sticky wake
// (wake_word: shutdown, a quiescence or FT event) ends the wait at the
// spin's next look, after one yield, or makes the park return without
// sleeping.
#pragma once

#include <linux/futex.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>

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

/// States of a parking word (see Parker).
enum ParkWord : std::uint32_t {
  kWordIdle = 0,      ///< consumer awake
  kWordParked = 1,    ///< consumer announced a park and re-checks its sources
  kWordNotified = 2,  ///< sticky wake() not yet consumed by a park
  /// Consumer asleep: its re-check found nothing, and nothing has been
  /// published to it since (a publish flips the word back to kWordIdle).
  kWordSleeping = 3,
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
/// futex wake in total. A consumer still re-checking (kWordParked) needs no
/// syscall: the CAS makes its seal fail, so it never sleeps. Works on any
/// parking word — a local queue's, or a PE word in the shm segment that a
/// producer in another process wakes.
inline void unpark_word(std::atomic<std::uint32_t>& word, bool shared) {
  std::uint32_t w = word.load(std::memory_order_seq_cst);
  while (w == kWordParked || w == kWordSleeping) {
    if (word.compare_exchange_weak(w, kWordIdle, std::memory_order_seq_cst)) {
      if (w == kWordSleeping) futex_call(&word, FUTEX_WAKE, shared, 1, nullptr);
      return;
    }
  }
}

/// Forced, sticky wake of a parking word (shutdown, "work appeared
/// locally", or another PE turning idle under a quiescence wait): the wake
/// syscall only runs when the consumer sleeps, and a consumer that is awake
/// or still re-checking finds kWordNotified — at its spin's next look or in
/// its park — and does not sleep.
inline void wake_word(std::atomic<std::uint32_t>& word, bool shared) {
  if (word.exchange(kWordNotified, std::memory_order_seq_cst) ==
      kWordSleeping) {
    futex_call(&word, FUTEX_WAKE, shared, 1, nullptr);
  }
}

/// A park's hook for the moment the consumer goes to sleep (Parker::park);
/// the default does nothing.
struct NoSleepHook {
  void operator()() const {}
};

/// A consumer's parking: one futex word. The handshake is Dekker-style:
/// the consumer publishes kWordParked (seq_cst exchange), re-checks its
/// sources, and seals the park with a CAS to kWordSleeping; a producer
/// publishes its item (a seq_cst RMW or store) and then reads the word,
/// flipping kWordParked or kWordSleeping back to kWordIdle. One of the two
/// must observe the other, so an item can never slip between the
/// consumer's last empty-check and its sleep. wake() leaves kWordNotified
/// behind when nobody sleeps: a spinning consumer takes it at its next look
/// (take_wake), and otherwise it satisfies the next park() immediately
/// (shutdown safety).
///
/// kWordSleeping is therefore an exact statement another thread can read:
/// the consumer found its sources empty and nothing has been published to
/// it since. Quiescence's drain rule and the FT detector read it
/// (converse/quiescence.h).
///
/// The word lives in the Parker by default; bind() moves it elsewhere —
/// the machine puts each PE's word in its control plane (the shm wire's
/// shared segment, or process memory), so a producer in another process
/// wakes the destination PE directly (unpark_word).
class Parker {
 public:
  Parker() = default;
  Parker(const Parker&) = delete;
  Parker& operator=(const Parker&) = delete;

  /// Re-homes the word; `shared` when it lives in memory other processes
  /// wake it through. Call before the consumer first parks; the word's
  /// current value is kept.
  void bind(std::atomic<std::uint32_t>* word, bool shared) {
    word_ = word;
    shared_ = shared;
  }

  /// Producer side, called after publishing an item (see unpark_word).
  void unpark_if_parked() { unpark_word(*word_, shared_); }

  /// Forced wake (shutdown / "work appeared locally"); see wake_word.
  void wake() { wake_word(*word_, shared_); }

  /// Consumer side: blocks until `nonempty()` holds, a producer unparks us,
  /// a sticky wake is pending, or — with a non-zero `micros` — the deadline
  /// passes (or earlier, spuriously). `on_sleep` runs once the park is
  /// sealed, right before the consumer sleeps. The caller re-checks its
  /// queue afterward.
  template <typename NonEmpty, typename OnSleep = NoSleepHook>
  void park(std::uint64_t micros, NonEmpty&& nonempty,
            OnSleep&& on_sleep = {}) {
    if (announce() && !nonempty() && seal()) {
      on_sleep();
      if (micros != 0) {
        const timespec ts{static_cast<time_t>(micros / 1000000),
                          static_cast<long>((micros % 1000000) * 1000)};
        futex_call(word_, FUTEX_WAIT, shared_, kWordSleeping, &ts);
      } else {
        while (word_->load(std::memory_order_acquire) == kWordSleeping) {
          futex_call(word_, FUTEX_WAIT, shared_, kWordSleeping, nullptr);
        }
      }
    }
    settle();
  }

  /// Consumer side, between the looks of its pre-park spin: consumes a
  /// pending sticky wake (kWordNotified -> kWordIdle) and says whether
  /// there was one, so a wake ends the spin at once instead of at the park
  /// it would otherwise satisfy. The spinning consumer's word is idle or
  /// notified — producers only flip parked or sleeping words — so one
  /// plain load suffices while nothing is pending. acq_rel like settle():
  /// the waker's prior stores are visible to the caller's re-check.
  bool take_wake() {
    std::uint32_t w = kWordNotified;
    return word_->load(std::memory_order_relaxed) == kWordNotified &&
           word_->compare_exchange_strong(w, kWordIdle,
                                          std::memory_order_acq_rel,
                                          std::memory_order_relaxed);
  }

 private:
  /// Publishes kWordParked; false when a sticky wake was pending (consumed
  /// here, so the park returns at once).
  bool announce() {
    return word_->exchange(kWordParked, std::memory_order_seq_cst) !=
           kWordNotified;
  }
  /// kWordParked -> kWordSleeping after an empty re-check; false when a
  /// producer or a wake() changed the word meanwhile (the park ends).
  bool seal() {
    std::uint32_t expect = kWordParked;
    return word_->compare_exchange_strong(expect, kWordSleeping,
                                          std::memory_order_seq_cst);
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
/// something is waiting to be polled); `on_sleep()` runs when a park is
/// sealed (Parker::park). The default has no sources and no hook.
struct NoFeed {
  void poll() {}
  bool ready() { return false; }
  void on_sleep() {}
};

}  // namespace detail

/// Intrusive MPSC channel for pointer items that carry their own link
/// (T must expose a `T* next` member). Zero allocation per push — the links
/// live in the items themselves, which the converse layer recycles through
/// per-PE message pools.
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

  /// The consumer's one wait. Each look polls `feed` (see NoFeed), pops,
  /// and takes a pending sticky wake(); the first look, a bounded spin of
  /// looks and the yield rounds come before a park, which sleeps at most
  /// `park_us` microseconds when that is non-zero. Returns the first item
  /// found, or nullptr when a wake() ended the wait — at the next look, if
  /// it landed during the spin — or the deadline passed, or the park ended
  /// before an item reached the queue; callers loop. A deadline lets an
  /// otherwise idle consumer run periodic work (the FT detector's tick)
  /// without busy-waiting. Consumer thread only.
  ///
  /// A wake that ends the spin early yields the CPU once first. On a host
  /// with more PEs than CPUs the PEs the woken one waits on need that CPU,
  /// and the spin would otherwise skip the yield rounds that hand it over;
  /// with a CPU to spare the yield returns at once.
  template <typename Feed = detail::NoFeed>
  T* pop_wait(Feed&& feed = Feed{}, std::uint64_t park_us = 0) {
    T* item = nullptr;
    const auto look = [&] {
      feed.poll();
      if ((item = try_pop()) != nullptr) return true;
      if (!parker_.take_wake()) return false;
      std::this_thread::yield();
      return true;
    };
    if (look()) return item;
    for (int i = detail::spin_iters_before_park(); i > 0; --i) {
      detail::cpu_relax();
      if (look()) return item;
    }
    for (int i = 0; i < detail::kYieldRoundsBeforePark; ++i) {
      std::this_thread::yield();
      if (look()) return item;
    }
    parker_.park(park_us, [&] { return inbox_nonempty() || feed.ready(); },
                 [&] { feed.on_sleep(); });
    return try_pop();
  }

  /// Moves the consumer's parking word (Parker::bind).
  void bind_wake_word(std::atomic<std::uint32_t>* word, bool shared) {
    parker_.bind(word, shared);
  }

  void wake() { parker_.wake(); }

  /// Parks the consumer without popping until `ready()` holds, a wake()
  /// lands, or a push unparks it (the caller re-checks). A PE marked dead
  /// sleeps here: its backlog must stay queued until it is revived.
  template <typename Ready>
  void park_until(Ready&& ready) {
    parker_.park(0, std::forward<Ready>(ready));
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
