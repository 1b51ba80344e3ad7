#include "chaos/storm.h"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

#include "charm/array.h"
#include "converse/machine.h"
#include "ft/ft.h"
#include "iso/heap.h"
#include "iso/region.h"
#include "lb/strategy.h"
#include "migrate/checkpoint.h"
#include "migrate/iso_thread.h"
#include "migrate/memalias_thread.h"
#include "migrate/stackcopy_thread.h"
#include "pup/pup.h"
#include "trace/flight.h"
#include "trace/hist.h"
#include "trace/metrics.h"
#include "trace/trace.h"
#include "ult/scheduler.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/digest.h"
#include "util/rng.h"
#include "util/timer.h"

namespace mfc::chaos {
namespace {

constexpr int kArrayId = 9100;
constexpr int kTagPing = 1;
constexpr int kTagHop = 2;
constexpr std::size_t kCanaryBytes = 192;

// Seed-derivation salts (domain separation between the independent streams
// a storm draws from one seed).
constexpr std::uint64_t kItinSalt = 0x61f3a2c8d94be071ULL;
constexpr std::uint64_t kStackSalt = 0x8d1a9f30c27e5b44ULL;
constexpr std::uint64_t kHeapSalt = 0x2be4c6d8f0a19375ULL;
constexpr std::uint64_t kTrafficSalt = 0x54e8b16f9d03ca27ULL;

std::uint64_t mix2(std::uint64_t a, std::uint64_t b) {
  SplitMix64 r(a ^ (b + 0x9e3779b97f4a7c15ULL));
  return r.next();
}

void fill_pattern(unsigned char* p, std::size_t n, std::uint64_t key) {
  SplitMix64 r(key);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<unsigned char>(r.next());
  }
}

bool check_pattern(const unsigned char* p, std::size_t n, std::uint64_t key) {
  SplitMix64 r(key);
  for (std::size_t i = 0; i < n; ++i) {
    if (p[i] != static_cast<unsigned char>(r.next())) return false;
  }
  return true;
}

/// Key for the canary pattern worker `wid` writes before its round-`r`
/// migration (verified on arrival; r == 0 is the pre-first-hop pattern).
std::uint64_t pat_key(std::uint64_t seed, int wid, int r, std::uint64_t salt) {
  return mix2(seed ^ salt, static_cast<std::uint64_t>(wid) * 1000003ULL +
                               static_cast<std::uint64_t>(r));
}

struct Ping {
  std::int32_t ttl = 0;
  std::uint64_t value = 0;
  void pup(pup::Er& p) { p | ttl | value; }
};

struct DockMsg {
  std::int32_t wid = 0;
  std::int32_t round = 0;
  void pup(pup::Er& p) { p | wid | round; }
};

/// Head of a thread shipment. The message is this head, the image's
/// length word, then the image's wire bytes (the encoding of a trailing
/// std::vector<char>); handle_ship reads all of it in place.
struct ShipHead {
  std::int32_t wid = 0;
  std::int32_t round = 0;
  std::uint64_t crc = 0;  ///< CRC-32C of the image at pack time, zero-extended
  /// Pack-start rdtsc for the end-to-end migration latency histogram
  /// (0 = histograms off; forked processes share the tsc domain, so the
  /// receiver may subtract it directly). Constant-size, so same-seed
  /// replays stay byte-count identical.
  std::uint64_t stamp = 0;
  void pup(pup::Er& p) { p | wid | round | crc | stamp; }
};

/// The storm's counts and verdicts. run_storm maps the ledger MAP_SHARED
/// before Machine::run forks, so a worker, shipment or element bumps the
/// same count in whichever process it runs; PE 0 reads it after each
/// round's quiescence, and run_storm after Machine::run has returned.
struct Ledger {
  std::atomic<std::uint64_t> array_sent{0};
  std::atomic<std::uint64_t> array_delivered{0};
  std::atomic<std::uint64_t> element_migrations{0};
  std::atomic<std::uint64_t> thread_migrations{0};
  std::atomic<std::uint64_t> wire_bytes{0};
  std::atomic<std::uint64_t> canary_failures{0};
  std::atomic<std::uint64_t> digest_mismatches{0};
  std::atomic<std::uint64_t> misroutes{0};
  std::atomic<std::uint64_t> counter_failures{0};
  std::atomic<std::uint64_t> packs[3] = {};  ///< docked packs by technique
  /// PEs whose isomalloc strip, and processes whose memory-alias pool, came
  /// back to the pre-storm count.
  std::atomic<std::uint32_t> strips_balanced{0};
  std::atomic<std::uint32_t> pools_balanced{0};

  /// Worker `wid`'s digest, published by the worker every round. The words
  /// follow the ledger in its mapping, one per worker.
  std::atomic<std::uint64_t>& digest(int wid) {
    return reinterpret_cast<std::atomic<std::uint64_t>*>(this + 1)[wid];
  }
};
static_assert(std::atomic<std::uint64_t>::is_always_lock_free &&
                  std::atomic<std::uint32_t>::is_always_lock_free,
              "the ledger's atomics must work across processes");

/// Owns the ledger's MAP_SHARED mapping for one run_storm call.
class LedgerMap {
 public:
  explicit LedgerMap(int workers)
      : bytes_(sizeof(Ledger) + static_cast<std::size_t>(workers) *
                                    sizeof(std::atomic<std::uint64_t>)) {
    void* p = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    MFC_CHECK_MSG(p != MAP_FAILED, "storm: cannot map the shared ledger");
    ledger_ = new (p) Ledger;
    for (int w = 0; w < workers; ++w) {
      new (&ledger_->digest(w)) std::atomic<std::uint64_t>(kFnvOffset);
    }
  }
  ~LedgerMap() { ::munmap(ledger_, bytes_); }
  LedgerMap(const LedgerMap&) = delete;
  LedgerMap& operator=(const LedgerMap&) = delete;

  Ledger* get() const { return ledger_; }

 private:
  std::size_t bytes_;
  Ledger* ledger_ = nullptr;
};

/// Per-PE application payload of an ft checkpoint blob: which workers were
/// parked here (in image order), the round they were parked at, and this
/// PE's chare-array slice. PE0 additionally snapshots the checker's traffic
/// RNG and the ping balance counters so the resumed rounds redraw the same
/// stream.
struct StormPeCkpt {
  std::vector<std::int32_t> wids;
  std::int32_t round = 0;
  std::vector<char> array_blob;
  std::uint64_t traffic_state = 0;
  std::uint64_t array_sent = 0;
  std::uint64_t array_delivered = 0;
  void pup(pup::Er& p) {
    p | wids | round | array_blob | traffic_state | array_sent |
        array_delivered;
  }
};

/// The storm's process-local state (each process has its fork's copy). A
/// PE touches only its own entries and its resident workers', so no lock.
struct StormGlobal {
  StormOptions opt;
  std::vector<std::vector<int>> itinerary;  // [worker][round] → dest PE
  Ledger* ledger = nullptr;

  /// Each worker's current Thread object, on the PE it resides on.
  std::vector<migrate::MigratableThread*> workers;
  /// Per-PE arrivals parked until that round's release, with the wid their
  /// shipment named. Tagged with the round because a chaos-delayed release
  /// broadcast from round r can land on a PE after round r+1 workers
  /// already arrived there — an untagged release would ready them a round
  /// early and wreck the arrival counts.
  struct Arrival {
    ult::Thread* thread;
    std::int32_t round;
    std::int32_t wid;
  };
  std::vector<std::vector<Arrival>> arrived;  // per PE
  /// Per PE: its isomalloc strip's slot count at round 0's release.
  std::vector<std::uint32_t> strip_in_flight;

  // PE0-only protocol state (PE0 kernel thread: its handlers + main ULT).
  int arrivals = 0;
  int done_workers = 0;
  enum class Waiting { kNone, kArrivals, kDone } waiting = Waiting::kNone;
  ult::Thread* checker = nullptr;
  /// Background array-traffic stream. Lives here (not on the checker's
  /// stack) so ft checkpoints can snapshot and roll back its state.
  SplitMix64 traffic{0};

  // ---- FT round-protocol state (PE0 kernel thread unless noted) ----
  /// Where the checker stands relative to a failure: kInterrupted between
  /// detection and rollback completion, kResumePending once on_recovered
  /// fired and the checker must rewind to ft_resume_round.
  enum class FtPhase { kNone, kInterrupted, kResumePending };
  FtPhase ft_phase = FtPhase::kNone;
  int ft_resume_round = 0;   ///< round the rollback restored (set by restore)
  int ft_ckpt_round = -1;    ///< round being checkpointed (capture asserts)
  ult::Thread* ft_parked_checker = nullptr;
  /// Kill ordinal fencing: ordinal k fires only when kills_fired == k, so
  /// the re-broadcast release after a rollback cannot re-kill. Written by
  /// victim PEs (hence atomic).
  std::atomic<int> kills_fired{0};
  /// kill_ordinal[r] = ordinal of the kill scheduled at round r's release,
  /// or -1 (empty when FT kills are off).
  std::vector<int> kill_ordinal;

  StormReport report;  // injections, filled in by PE0's checker
};

StormGlobal* g_storm = nullptr;
std::atomic<ShipTamper> g_ship_tamper{nullptr};

converse::HandlerId h_dock, h_ship, h_arrived, h_release, h_worker_done;

int technique_of(int wid, const StormOptions& opt) {
  return opt.single_technique >= 0 ? opt.single_technique : wid % 3;
}

/// Victim of kill ordinal `k`: a keyed draw (never PE0 — the coordinator),
/// pure in (chaos seed, k), so every PE computes the same victim and a
/// replay from the printed MFC_CHAOS_SEED kills the same PEs.
int kill_victim_of(int k, int npes) {
  return 1 + static_cast<int>(chaos::keyed_draw(
                 chaos::Point::kPeKill,
                 0xf7a5c3d1b9e86420ULL ^ static_cast<std::uint64_t>(k),
                 static_cast<std::uint64_t>(npes - 1)));
}

bool is_ckpt_round(int r, const StormOptions& opt) {
  return opt.ft_checkpoint_every > 0 &&
         (r + 1) % opt.ft_checkpoint_every == 0 && r < opt.rounds - 1;
}

// ---- Worker -----------------------------------------------------------------

/// Worker body. Runs as a migratable thread, so: no reliance on the Thread
/// object it started on (packing deletes it), and all cross-round state in
/// stack locals — which is exactly what the migration techniques promise
/// to carry. Its wid too arrives at birth and lives in this frame: thread
/// ids come from a counter every forked process inherits, so two processes
/// can hand out the same id.
void worker_body(int wid) {
  StormGlobal* g = g_storm;
  const StormOptions& opt = g->opt;
  Ledger& ledger = *g->ledger;
  const bool is_iso = technique_of(wid, opt) == 1;

  // Stack canary: a keyed byte pattern rewritten before every hop and
  // verified after — plus the address-stability probe, the paper's central
  // guarantee ("exactly the same address on the new processor").
  unsigned char canary[kCanaryBytes];
  const auto canary_addr = reinterpret_cast<std::uintptr_t>(&canary[0]);
  fill_pattern(canary, sizeof canary, pat_key(opt.seed, wid, 0, kStackSalt));

  // Heap canary (isomalloc workers only: their routed allocations live in
  // slot memory and must migrate byte-exact; the other techniques migrate
  // stacks only).
  unsigned char* heap_canary = nullptr;
  if (is_iso) {
    heap_canary = static_cast<unsigned char*>(iso::routed_malloc(kCanaryBytes));
    fill_pattern(heap_canary, kCanaryBytes,
                 pat_key(opt.seed, wid, 0, kHeapSalt));
  }

  std::uint64_t digest = kFnvOffset;
  for (int r = 0; r < opt.rounds; ++r) {
    const int dest = g->itinerary[static_cast<std::size_t>(wid)]
                                 [static_cast<std::size_t>(r)];
    digest = fnv1a_mix(digest, static_cast<std::uint64_t>(wid));
    digest = fnv1a_mix(digest, static_cast<std::uint64_t>(r));
    digest = fnv1a_mix(digest, static_cast<std::uint64_t>(dest));
    ledger.digest(wid).store(digest, std::memory_order_relaxed);

    // Dock: the handler runs on this PE only after we suspend, so it packs
    // a thread that is guaranteed to be in kSuspended state.
    converse::send_value(converse::my_pe(), h_dock, DockMsg{wid, r});
    ult::suspend();

    // Awake again — on the destination PE, readied by the round release.
    // Simulated application compute first (bench knob; see StormOptions).
    if (opt.work_spin > 0) {
      std::uint64_t scratch = static_cast<std::uint64_t>(wid) + 1;
      for (int i = 0; i < opt.work_spin; ++i) {
        scratch = fnv1a_mix(scratch, static_cast<std::uint64_t>(i));
        asm volatile("" : "+r"(scratch));
      }
    }
    if (converse::my_pe() != dest) {
      ledger.misroutes.fetch_add(1, std::memory_order_relaxed);
    }
    if (reinterpret_cast<std::uintptr_t>(&canary[0]) != canary_addr ||
        !check_pattern(canary, sizeof canary,
                       pat_key(opt.seed, wid, r, kStackSalt))) {
      ledger.canary_failures.fetch_add(1, std::memory_order_relaxed);
    }
    if (heap_canary != nullptr &&
        !check_pattern(heap_canary, kCanaryBytes,
                       pat_key(opt.seed, wid, r, kHeapSalt))) {
      ledger.canary_failures.fetch_add(1, std::memory_order_relaxed);
    }
    fill_pattern(canary, sizeof canary,
                 pat_key(opt.seed, wid, r + 1, kStackSalt));
    if (heap_canary != nullptr) {
      fill_pattern(heap_canary, kCanaryBytes,
                   pat_key(opt.seed, wid, r + 1, kHeapSalt));
    }
  }

  if (heap_canary != nullptr) iso::routed_free(heap_canary);
  converse::send_value(0, h_worker_done, std::int32_t{wid});
}

migrate::MigratableThread* make_worker(int wid, int pe,
                                       const StormOptions& opt) {
  const auto body = [wid] { worker_body(wid); };
  switch (technique_of(wid, opt)) {
    case 0:
      return new migrate::StackCopyThread(body, opt.stack_bytes);
    case 1:
      return new migrate::IsoThread(body, pe, opt.stack_bytes);
    default:
      return new migrate::MemAliasThread(body, opt.stack_bytes);
  }
}

// ---- Array element ----------------------------------------------------------

struct StormElement final : charm::Element {
  std::uint64_t acc = 0;   ///< folded ping values (migrates with the element)
  std::uint64_t hits = 0;

  void on_message(int tag, std::vector<char> payload) override {
    Ledger& ledger = *g_storm->ledger;
    ledger.array_delivered.fetch_add(1, std::memory_order_relaxed);
    charm::ArrayBase* a = charm::find_array(array_id());
    if (tag == kTagPing) {
      Ping p;
      pup::from_bytes(payload, p);
      acc = fnv1a_mix(acc, p.value);
      ++hits;
      if (p.ttl > 0) {
        Ping next{p.ttl - 1, p.value * 0x9e3779b97f4a7c15ULL + 1};
        ledger.array_sent.fetch_add(1, std::memory_order_relaxed);
        a->send((index() + 1) % a->count(), kTagPing, pup::to_bytes(next));
      }
    } else if (tag == kTagHop) {
      std::int32_t dest = 0;
      pup::from_bytes(payload, dest);
      ledger.element_migrations.fetch_add(1, std::memory_order_relaxed);
      a->migrate(index(), dest);  // self-migration mid-storm
    }
  }

  void pup(pup::Er& p) override { p | acc | hits; }
};

// ---- Handlers ---------------------------------------------------------------

/// PE0: wake the parked checker when the count it waits for is complete.
void pe0_maybe_wake() {
  StormGlobal* g = g_storm;
  if (g->checker == nullptr) return;
  const bool complete =
      (g->waiting == StormGlobal::Waiting::kArrivals &&
       g->arrivals >= g->opt.workers) ||
      (g->waiting == StormGlobal::Waiting::kDone &&
       g->done_workers >= g->opt.workers);
  if (!complete) return;
  ult::Thread* t = g->checker;
  g->checker = nullptr;
  g->waiting = StormGlobal::Waiting::kNone;
  converse::ready_thread(t);
}

/// PE0 checker: park until `counter` reaches the worker count — or a
/// failure interrupts the round protocol (the caller's ft_check handles
/// that; returning here instead of re-parking is what keeps the checker
/// reachable for the post-recovery wake-up).
void pe0_wait(StormGlobal::Waiting kind) {
  StormGlobal* g = g_storm;
  const int target = g->opt.workers;
  for (;;) {
    if (g->ft_phase != StormGlobal::FtPhase::kNone) return;
    const int current = kind == StormGlobal::Waiting::kArrivals
                            ? g->arrivals
                            : g->done_workers;
    if (current >= target) return;
    g->waiting = kind;
    g->checker = converse::pe_scheduler().running();
    ult::suspend();
  }
}

void handle_dock(converse::Message&& m) {
  StormGlobal* g = g_storm;
  const auto d = m.as<DockMsg>();
  migrate::MigratableThread* t =
      std::exchange(g->workers[static_cast<std::size_t>(d.wid)], nullptr);
  MFC_CHECK_MSG(t != nullptr && t->state() == ult::State::kSuspended,
                "storm: dock for a worker that is not suspended here");

  const int dest = g->itinerary[static_cast<std::size_t>(d.wid)]
                               [static_cast<std::size_t>(d.round)];

  // Scatter-gather ship: serialize the manifest's span list straight into
  // the wire (in-process: one gather into the delivery envelope; shm: ring
  // frames) — no intermediate contiguous image is ever built. The byte
  // stream is the ShipHead, the image length word and the image, which
  // handle_ship reads in place. The destructive pack epilogue runs in
  // on_consumed, which the send contract orders strictly before the message
  // can be delivered — even a same-process unpack at the same isomalloc
  // addresses cannot race the evacuation.
  const std::uint64_t e2e0 = hist::on() ? rdtsc() : 0;
  migrate::ImageManifest man = t->pack_manifest(/*count=*/true);
  std::vector<char> scratch;
  const std::vector<migrate::IoRun> img_spans = man.wire_spans(&scratch);
  std::uint32_t wire_crc = 0;  // chained span by span: equals crc32(wire)
  std::size_t wire_len = 0;
  for (const migrate::IoRun& r : img_spans) {
    wire_crc = crc32(r.data, r.len, wire_crc);
    wire_len += r.len;
  }
  Ledger& ledger = *g->ledger;
  ledger.wire_bytes.fetch_add(wire_len, std::memory_order_relaxed);

  // Prefix: the ShipHead and the image's length word.
  ShipHead head{d.wid, d.round, wire_crc, e2e0};
  std::vector<char> prefix(pup::packed_size(head) + sizeof(std::size_t));
  pup::MemPacker p(prefix.data(), prefix.size());
  p | head;
  std::size_t len_word = wire_len;
  p.bytes(&len_word, sizeof len_word);
  MFC_CHECK(p.written(prefix.data()) == prefix.size());

  std::vector<converse::SendSpan> spans;
  spans.reserve(img_spans.size() + 1);
  spans.push_back({prefix.data(), prefix.size()});
  for (const migrate::IoRun& r : img_spans) spans.push_back({r.data, r.len});

  ledger.thread_migrations.fetch_add(1, std::memory_order_relaxed);
  ledger.packs[technique_of(d.wid, g->opt)].fetch_add(
      1, std::memory_order_relaxed);
  converse::send_spans(dest, h_ship, spans.data(), spans.size(), [t] {
    t->complete_pack();
    delete t;
  });
}

/// The arrival round trip: true when `t`, just installed, repacks to
/// exactly the `len` arrived bytes at `wire` (size, then memcmp span by
/// span). It covers the decode and the install together: a byte the
/// install dropped or misplaced repacks differently.
bool repacks_to(migrate::MigratableThread* t, const char* wire,
                std::size_t len) {
  const migrate::ImageManifest again = t->pack_manifest(/*count=*/false);
  if (again.wire_size() != len) return false;
  std::vector<char> scratch;
  for (const migrate::IoRun& r : again.wire_spans(&scratch)) {
    if (std::memcmp(wire, r.data, r.len) != 0) return false;
    wire += r.len;
  }
  return true;
}

void handle_ship(converse::Message&& m) {
  StormGlobal* g = g_storm;
  // Everything is read in place from the delivered payload: the head, the
  // image length word, then the image, decoded without a copy.
  ShipHead ship;
  std::size_t len = 0;
  pup::MemUnpacker u(m.payload.data(), m.payload.size());
  u | ship;
  u.bytes(&len, sizeof len);
  const char* wire = m.payload.data() + u.consumed(m.payload.data());
  MFC_CHECK_MSG(len == static_cast<std::size_t>(
                           m.payload.data() + m.payload.size() - wire),
                "storm: shipment length word disagrees with its payload");
  std::vector<char> tampered;
  if (ShipTamper tamper = g_ship_tamper.load(std::memory_order_relaxed)) {
    tampered.assign(wire, wire + len);
    tamper(tampered, ship.crc);
    wire = tampered.data();
    len = tampered.size();
  }
  // Transit integrity: the bytes that left the source arrived unchanged.
  if (crc32(wire, len) != ship.crc) {
    g->ledger->digest_mismatches.fetch_add(1, std::memory_order_relaxed);
    trace::flight::dump("storm-transit-crc-mismatch");
  }
  // Bytes after the image are left to the round trip below, so a damaged
  // shipment still installs and is counted rather than lost.
  migrate::ImageManifest image;
  std::size_t used = 0;
  const migrate::CodecError err =
      migrate::ImageManifest::decode(wire, len, &image, &used);
  if (err != migrate::CodecError::kOk) {
    trace::flight::dump("storm-image-undecodable");
    MFC_CHECK_MSG(false, "storm: undecodable thread image");
  }
  auto* t = migrate::MigratableThread::unpack(image, converse::my_pe());
  if (!repacks_to(t, wire, len)) {
    g->ledger->digest_mismatches.fetch_add(1, std::memory_order_relaxed);
    trace::flight::dump("storm-pup-roundtrip-mismatch");
  }
  if (ship.stamp != 0 && hist::on()) {
    const std::uint64_t now = rdtsc();
    if (now > ship.stamp) {
      hist::record(hist::Hist::kMigrateE2e, now - ship.stamp);
    }
  }
  t->set_delete_on_exit(true);
  g->workers[static_cast<std::size_t>(ship.wid)] = t;
  g->arrived[static_cast<std::size_t>(converse::my_pe())].push_back(
      {t, ship.round, ship.wid});
  // Not readied yet: the round barrier (h_release) wakes all arrivals at
  // once, after the PE0 checker has run the invariant sweep.
  converse::send_value(0, h_arrived, std::int32_t{ship.wid});
}

void handle_arrived(converse::Message&&) {
  ++g_storm->arrivals;
  pe0_maybe_wake();
}

void handle_release(converse::Message&& m) {
  StormGlobal* g = g_storm;
  const auto round = m.as<std::int32_t>();
  // Scheduled PE failure: the victim dies *at* the release of a checkpoint
  // round — after the epoch committed, before its arrivals wake. Not
  // readying the batch is the point: the parked workers are bit-identical
  // to their checkpoint images, and the wipe at revival discards them. The
  // kills_fired fence keeps the post-rollback re-release of this same round
  // from killing twice.
  if (!g->kill_ordinal.empty()) {
    const int k = g->kill_ordinal[static_cast<std::size_t>(round)];
    if (k >= 0 && converse::my_pe() == kill_victim_of(k, g->opt.npes)) {
      int expect = k;
      if (g->kills_fired.compare_exchange_strong(expect, k + 1)) {
        chaos::keyed_inject(chaos::Point::kPeKill,
                            static_cast<std::uint64_t>(k));
        ft::kill_pe(converse::my_pe());
        return;
      }
    }
  }
  // Per-round slot invariant, checked by the PE that owns the strip:
  // isomalloc slot usage is stable across rounds — workers keep their
  // slots for life; migration moves bytes, never identity. Round 0's
  // release sets the baseline. The last round's release reads nothing:
  // the workers it readies on other PEs exit and free their slots
  // meanwhile.
  const int me = converse::my_pe();
  if (round < g->opt.rounds - 1) {
    const std::uint32_t used = iso::Region::instance().used_slots(me);
    std::uint32_t& in_flight = g->strip_in_flight[static_cast<std::size_t>(me)];
    if (round == 0) {
      in_flight = used;
    } else if (used != in_flight) {
      g->ledger->counter_failures.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Ready only this round's arrivals: later-round workers may already be
  // parked here while this (delay-stashed) release was in flight.
  std::vector<ult::Thread*> batch;
  auto& parked = g->arrived[static_cast<std::size_t>(me)];
  for (std::size_t i = 0; i < parked.size();) {
    if (parked[i].round == round) {
      batch.push_back(parked[i].thread);
      parked.erase(parked.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  for (ult::Thread* t : batch) converse::ready_thread(t);
}

void handle_worker_done(converse::Message&&) {
  ++g_storm->done_workers;
  pe0_maybe_wake();
}

void register_storm_handlers() {
  static std::once_flag once;
  std::call_once(once, [] {
    h_dock = converse::register_handler(handle_dock);
    h_ship = converse::register_handler(handle_ship);
    h_arrived = converse::register_handler(handle_arrived);
    h_release = converse::register_handler(handle_release);
    h_worker_done = converse::register_handler(handle_worker_done);
  });
}

/// Labels the trace with the storm's replay coordinates, so a timeline on
/// its own carries everything needed to reproduce the run it came from.
void set_storm_meta(const StormOptions& opt) {
  if (!trace::enabled()) return;
  char buf[64];
  auto put = [&buf](const char* key, unsigned long long v) {
    std::snprintf(buf, sizeof buf, "%llu", v);
    trace::set_meta(key, buf);
  };
  put("chaos_seed", seed());  // post-install: reflects MFC_CHAOS_SEED override
  put("storm_seed", opt.seed);
  put("rounds", static_cast<unsigned long long>(opt.rounds));
  put("workers", static_cast<unsigned long long>(opt.workers));
  put("npes", static_cast<unsigned long long>(opt.npes));
  int mix[3] = {0, 0, 0};
  for (int w = 0; w < opt.workers; ++w) ++mix[w % 3];
  std::snprintf(buf, sizeof buf, "stackcopy:%d,iso:%d,memalias:%d", mix[0],
                mix[1], mix[2]);
  trace::set_meta("technique_mix", buf);
}

// ---- FT hooks ---------------------------------------------------------------

/// Discard every arrival parked on `pe`: drop its local memory as a
/// migration's epilogue would (the checkpoint already holds the
/// authoritative copies) and delete the husk. Never touches
/// workers[]: during a rollback the restore hook is the sole writer of the
/// thread pointers, so each worker is re-installed exactly once.
void discard_parked(int pe) {
  auto& parked = g_storm->arrived[static_cast<std::size_t>(pe)];
  for (auto& a : parked) {
    auto* t = static_cast<migrate::MigratableThread*>(a.thread);
    t->complete_pack();  // evacuates slots / closes the backing file
    delete t;
  }
  parked.clear();
}

/// Shared tail of both capture paths: the chare-array slice and (PE0) the
/// checker's traffic/counter snapshot.
void capture_meta(int pe, StormPeCkpt* meta) {
  StormGlobal* g = g_storm;
  if (charm::ArrayBase* arr = charm::find_array(kArrayId)) {
    meta->array_blob = arr->checkpoint_local();
  }
  if (pe == 0) {
    meta->traffic_state = g->traffic.state();
    meta->array_sent = g->ledger->array_sent.load(std::memory_order_relaxed);
    meta->array_delivered =
        g->ledger->array_delivered.load(std::memory_order_relaxed);
  }
}

/// ft capture hook: serialize this PE's slice of the storm. Arrivals are
/// processed in wid order to make the blob bytes deterministic regardless
/// of arrival timing.
///
/// Zero-copy capture in every mode: pack_manifest() hands back an iovec
/// view of each suspended worker's memory, and the Checkpoint encodes the
/// frame in one pass straight from those addresses — no intermediate
/// images, no slot evacuate/remap churn, and the workers never notice. The
/// manifests only stay valid while the workers stay parked, which the
/// quiescent capture window guarantees.
std::vector<char> ft_capture(std::uint64_t epoch) {
  (void)epoch;
  StormGlobal* g = g_storm;
  const int pe = converse::my_pe();
  StormPeCkpt meta;
  meta.round = g->ft_ckpt_round;

  migrate::Checkpoint ckpt;
  std::vector<migrate::ImageManifest> manifests;
  auto& parked = g->arrived[static_cast<std::size_t>(pe)];
  std::sort(parked.begin(), parked.end(),
            [](const StormGlobal::Arrival& x, const StormGlobal::Arrival& y) {
              return x.wid < y.wid;
            });
  manifests.reserve(parked.size());
  for (auto& a : parked) {
    auto* t = static_cast<migrate::MigratableThread*>(a.thread);
    MFC_CHECK_MSG(a.round == g->ft_ckpt_round,
                  "storm: checkpoint found a worker parked at the wrong "
                  "round (quiescence hole?)");
    manifests.push_back(t->pack_manifest(false));
    meta.wids.push_back(a.wid);
  }
  for (const migrate::ImageManifest& m : manifests) ckpt.add_manifest(m);
  capture_meta(pe, &meta);
  ckpt.set_user_data(pup::to_bytes(meta));
  return ckpt.encode();
}

/// ft wipe hook: runs on a revived PE before its death backlog drains —
/// the emulated memory loss. Everything that was parked here dies with the
/// PE; the chare-array slice is dropped too.
void ft_wipe(int pe) {
  discard_parked(pe);
  if (charm::ArrayBase* arr = charm::find_array(kArrayId)) arr->wipe_local();
}

/// ft discard hook (rollback phase A, every PE): throw away the live
/// post-checkpoint state. Must complete machine-wide before any restore
/// starts, or a restored image could hit iso slots a live worker still
/// occupies on another PE.
void ft_discard() { discard_parked(converse::my_pe()); }

/// ft restore hook (rollback phase B, every PE): rebuild the slice
/// ft_capture serialized — re-park every worker at the checkpoint round,
/// rebuild the array slice, and (PE0) rewind the checker's traffic stream
/// and round-protocol counters.
void ft_restore(std::uint64_t epoch, const std::vector<char>& blob) {
  (void)epoch;
  StormGlobal* g = g_storm;
  const int pe = converse::my_pe();
  migrate::Checkpoint ckpt;
  MFC_CHECK_MSG(
      migrate::Checkpoint::decode(blob, &ckpt) == migrate::CodecError::kOk,
      "storm: corrupt in-memory checkpoint blob");
  StormPeCkpt meta;
  pup::from_bytes(ckpt.user_data(), meta);
  std::vector<migrate::MigratableThread*> threads = ckpt.restore_all(pe);
  MFC_CHECK(threads.size() == meta.wids.size());
  for (std::size_t i = 0; i < threads.size(); ++i) {
    migrate::MigratableThread* t = threads[i];
    const int wid = meta.wids[i];
    t->set_delete_on_exit(true);
    g->workers[static_cast<std::size_t>(wid)] = t;
    g->arrived[static_cast<std::size_t>(pe)].push_back({t, meta.round, wid});
  }
  if (charm::ArrayBase* arr = charm::find_array(kArrayId)) {
    arr->restore_local(meta.array_blob);
  }
  if (pe == 0) {
    g->traffic.set_state(meta.traffic_state);
    g->ledger->array_sent.store(meta.array_sent, std::memory_order_relaxed);
    g->ledger->array_delivered.store(meta.array_delivered,
                                     std::memory_order_relaxed);
    g->arrivals = 0;  // the re-released round re-docks every worker
    g->done_workers = 0;
    g->ft_resume_round = meta.round;
  }
}

/// ft detection hook (PE0 detector context): flag the interruption so the
/// checker parks instead of resuming a torn round when a recovery-era QD
/// completion or arrival count happens to wake it.
void ft_on_detect() {
  g_storm->ft_phase = StormGlobal::FtPhase::kInterrupted;
}

/// ft recovery-complete hook (PE0 recovery thread): run the post-recovery
/// LB pass, then hand control back to the checker.
void ft_on_recovered(std::uint64_t epoch) {
  (void)epoch;
  StormGlobal* g = g_storm;
  // Post-recovery rebalance: hand the restored placement (round-r itinerary
  // stops) to the refinement strategy and record its decision. The storm's
  // itineraries re-scatter workers next round anyway, so the decision is
  // traced rather than applied — a real application would feed it straight
  // to the migration paths. Deterministic: pure function of restored state.
  const auto n = static_cast<std::size_t>(g->opt.workers);
  std::vector<double> loads(n, 1.0);
  lb::Mapping current(n);
  for (std::size_t w = 0; w < n; ++w) {
    current[w] = g->itinerary[w][static_cast<std::size_t>(g->ft_resume_round)];
  }
  const lb::Mapping next = lb::refine_lb(loads, current, g->opt.npes);
  trace::emit_flight(
      trace::Ev::kLbDecision, 0,
      static_cast<std::uint32_t>(lb::migration_count(current, next)));

  g->ft_phase = StormGlobal::FtPhase::kResumePending;
  if (g->ft_parked_checker != nullptr) {
    ult::Thread* t = g->ft_parked_checker;
    g->ft_parked_checker = nullptr;
    converse::ready_thread(t);
  } else if (g->checker != nullptr) {
    // Checker still parked in pe0_wait from before the failure; its loop
    // exits on the phase flag.
    ult::Thread* t = g->checker;
    g->checker = nullptr;
    g->waiting = StormGlobal::Waiting::kNone;
    converse::ready_thread(t);
  }
  // Else: the checker is already ready (woken by a recovery-era QD pass)
  // and will observe kResumePending in its next ft_check.
}

/// Checker-side failure check, called after every blocking call in the
/// round loop. Returns true when the round counter was rewound to the
/// restored round and the caller must `continue` (the for-step advances to
/// the first re-executed round). The restored round's release is re-
/// broadcast WITHOUT re-emitting its kStormRound marker — it was already
/// counted when the killed release first went out, and the digest counts
/// every round exactly once.
bool ft_check(int* r) {
  StormGlobal* g = g_storm;
  if (g->ft_phase == StormGlobal::FtPhase::kNone) return false;
  if (g->ft_phase == StormGlobal::FtPhase::kInterrupted) {
    g->ft_parked_checker = converse::pe_scheduler().running();
    ult::suspend();
  }
  MFC_CHECK(g->ft_phase == StormGlobal::FtPhase::kResumePending);
  g->ft_phase = StormGlobal::FtPhase::kNone;
  *r = g->ft_resume_round;
  converse::broadcast(h_release, pup::to_bytes(std::int32_t{*r}));
  return true;
}

// ---- PE0 checker ------------------------------------------------------------

void checker_main(charm::ArrayBase* array) {
  StormGlobal* g = g_storm;
  const StormOptions& opt = g->opt;
  Ledger& ledger = *g->ledger;
  SplitMix64& traffic = g->traffic;

  for (int r = 0; r < opt.rounds; ++r) {
    pe0_wait(StormGlobal::Waiting::kArrivals);
    if (ft_check(&r)) continue;
    converse::wait_quiescence();
    if (ft_check(&r)) continue;

    // Background chare-array traffic: ttl-forwarded pings plus (optionally)
    // element self-migration, all drawn from the storm's own seeded stream.
    for (int k = 0; k < opt.array_pings; ++k) {
      const int target =
          static_cast<int>(traffic.next_below(
              static_cast<std::uint64_t>(opt.array_elements)));
      Ping p{opt.ping_ttl, traffic.next()};
      ledger.array_sent.fetch_add(1, std::memory_order_relaxed);
      array->send(target, kTagPing, pup::to_bytes(p));
    }
    if (opt.element_migration && opt.array_elements > 0) {
      const int victim =
          static_cast<int>(traffic.next_below(
              static_cast<std::uint64_t>(opt.array_elements)));
      const auto dest = static_cast<std::int32_t>(
          traffic.next_below(static_cast<std::uint64_t>(opt.npes)));
      ledger.array_sent.fetch_add(1, std::memory_order_relaxed);
      array->send(victim, kTagHop, pup::to_bytes(dest));
    }
    converse::wait_quiescence();
    if (ft_check(&r)) continue;

    // Invariant: under quiescence every array message sent was delivered,
    // in whichever process its element lives.
    if (ledger.array_sent.load(std::memory_order_relaxed) !=
        ledger.array_delivered.load(std::memory_order_relaxed)) {
      ledger.counter_failures.fetch_add(1, std::memory_order_relaxed);
    }

    // Synchronized checkpoint: the machine is quiescent (QD2) and every
    // worker is parked awaiting this round's release — the consistent cut
    // the buddy protocol snapshots. A kill scheduled for this round fires
    // later, at the release below, so the epoch always commits first.
    if (is_ckpt_round(r, opt)) {
      g->ft_ckpt_round = r;
      ft::checkpoint_now();
    }

    g->arrivals = 0;
    trace::emit_flight(trace::Ev::kStormRound, 0,
                       static_cast<std::uint32_t>(r));
    converse::broadcast(h_release, pup::to_bytes(std::int32_t{r}));
  }

  pe0_wait(StormGlobal::Waiting::kDone);
  // The kill schedule never reaches the last round, so every recovery has
  // completed before the workers can finish; a failure here is real.
  MFC_CHECK_MSG(g->ft_phase == StormGlobal::FtPhase::kNone,
                "storm: failure interrupted the final done-wait");
  // Workers have sent their done messages; quiescence additionally implies
  // each has finished exiting (an exiting worker still in a ready queue
  // keeps its PE busy), so their slots are released.
  converse::wait_quiescence();

  // Chaos runs on one process (run_storm checks), so these counts are whole.
  for (int p = 0; p < kPointCount; ++p) {
    g->report.injections[p] = injections(static_cast<Point>(p));
  }
}

void storm_entry(int pe) {
  StormGlobal* g = g_storm;
  const StormOptions& opt = g->opt;
  Ledger& ledger = *g->ledger;
  // The first PE of each process checks that process's memory-alias pool.
  const bool pool_checker = pe % (opt.npes / opt.nprocs) == 0;
  migrate::MemAliasPool& pool = migrate::MemAliasPool::instance();
  iso::Region& region = iso::Region::instance();

  charm::Array<StormElement> array(kArrayId, opt.array_elements);
  converse::barrier();
  // Baselines: this PE's isomalloc strip and this process's pool.
  const std::uint32_t strip_prestorm = region.used_slots(pe);
  const std::uint32_t stacks_prestorm = pool.stats().in_use;
  if (pe == 0) set_storm_meta(opt);
  converse::barrier();  // baselines read strictly before any worker spawns

  for (int w = 0; w < opt.workers; ++w) {
    if (w % opt.npes != pe) continue;
    migrate::MigratableThread* t = make_worker(w, pe, opt);
    t->set_delete_on_exit(true);
    g->workers[static_cast<std::size_t>(w)] = t;
    converse::ready_thread(t);
  }

  if (pe == 0) checker_main(&array);
  // Every PE waits here for PE 0's checker, which arrives after the final
  // quiescence: every worker has exited and no array message is in flight.
  // Each strip and each pool is back to its pre-storm count, each checked
  // where it lives.
  converse::barrier();
  if (region.used_slots(pe) == strip_prestorm) {
    ledger.strips_balanced.fetch_add(1, std::memory_order_relaxed);
  }
  if (pool_checker) {
    const migrate::MemAliasPool::Stats stacks = pool.stats();
    if (stacks.in_use == stacks_prestorm && stacks.bounded()) {
      ledger.pools_balanced.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

}  // namespace

StormReport run_storm(const StormOptions& options) {
  MFC_CHECK_MSG(g_storm == nullptr, "run_storm is not reentrant");
  MFC_CHECK(options.npes >= 1 && options.workers >= 1 &&
            options.rounds >= 1 && options.array_elements >= 1);
  const bool ft_on = options.ft_checkpoint_every > 0;
  MFC_CHECK_MSG(!ft_on || options.npes >= 2,
                "storm: buddy checkpointing needs npes >= 2");
  MFC_CHECK_MSG(options.ft_kill_every == 0 || ft_on,
                "storm: ft_kill_every requires ft_checkpoint_every");
  MFC_CHECK_MSG(options.transport == 0 || options.transport == 1,
                "storm: transport must be 0 (in-process) or 1 (shm)");
  MFC_CHECK_MSG(options.nprocs >= 1 && options.npes % options.nprocs == 0,
                "storm: npes must divide evenly across nprocs processes");
  MFC_CHECK_MSG(options.nprocs == 1 || options.transport == 1,
                "storm: nprocs > 1 needs the shm wire (transport = 1)");
  // What stays on one process for now (ROADMAP item 4).
  MFC_CHECK_MSG(options.nprocs == 1 || !ft_on,
                "storm: FT runs on one process for now: the checkpoint "
                "round, the kill schedule and PE 0's traffic snapshot are "
                "process-0 state and ft::kill_pe kills a PE in-process "
                "(ROADMAP item 4: process kills while threads migrate)");
  MFC_CHECK_MSG(options.nprocs == 1 || !options.chaos.enabled,
                "storm: chaos runs on one process for now: injection counts "
                "are kept per process (ROADMAP item 4)");
  MFC_CHECK_MSG(options.nprocs == 1 || !options.trace,
                "storm: StormOptions::trace records one process; with "
                "nprocs > 1 set MFC_TRACE=1 and Machine::run writes and "
                "merges one part per process");
  // Every handler the storm's processes dispatch is registered before the
  // fork, so its id is the same in every process.
  register_storm_handlers();
  charm::register_handlers();

  // Kills draw their victims from keyed chaos, so the kill schedule forces
  // the chaos engine on (pe_kill only ever fires through the keyed ordinal
  // draws in handle_release — it adds no free-running stream).
  StormOptions opt = options;
  if (opt.ft_kill_every > 0) {
    opt.chaos.enabled = true;
    opt.chaos.pe_kill = 1.0;
  }

  const LedgerMap ledger(opt.workers);
  auto g = std::make_unique<StormGlobal>();
  g->opt = opt;
  g->ledger = ledger.get();
  g->workers.assign(static_cast<std::size_t>(opt.workers), nullptr);
  g->arrived.resize(static_cast<std::size_t>(opt.npes));
  g->strip_in_flight.assign(static_cast<std::size_t>(opt.npes), 0);
  g->traffic = SplitMix64(mix2(opt.seed, kTrafficSalt));
  g->itinerary.resize(static_cast<std::size_t>(opt.workers));
  for (int w = 0; w < opt.workers; ++w) {
    SplitMix64 rng(mix2(opt.seed ^ kItinSalt,
                        static_cast<std::uint64_t>(w)));
    auto& route = g->itinerary[static_cast<std::size_t>(w)];
    route.resize(static_cast<std::size_t>(opt.rounds));
    for (int r = 0; r < opt.rounds; ++r) {
      route[static_cast<std::size_t>(r)] = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(opt.npes)));
    }
  }
  // Kill schedule: every ft_kill_every-th checkpoint round hosts one kill,
  // fired at that round's release. Victims come from keyed draws at fire
  // time (after chaos installs, so an MFC_CHAOS_SEED override applies).
  if (opt.ft_kill_every > 0) {
    g->kill_ordinal.assign(static_cast<std::size_t>(opt.rounds), -1);
    int ckpt_ordinal = 0;
    int kill = 0;
    for (int r = 0; r < opt.rounds; ++r) {
      if (!is_ckpt_round(r, opt)) continue;
      if ((ckpt_ordinal + 1) % opt.ft_kill_every == 0) {
        g->kill_ordinal[static_cast<std::size_t>(r)] = kill++;
      }
      ++ckpt_ordinal;
    }
  }
  g_storm = g.get();

  // Own a trace session unless the caller already holds one. Starting it
  // here (not leaving it to Machine::run's env auto-start) lets the storm
  // export to its own path and fold the summary into the report. Across
  // processes MFC_TRACE stays with Machine::run, which writes one part per
  // process and merges them.
  const bool own_trace = (options.trace || trace::env_enabled()) &&
                         !trace::active() && options.nprocs == 1;
  if (own_trace) trace::start(options.npes);

  // Install the ft layer around the machine run (its machine hooks must be
  // in place before boot; PE0's scheduler loop ticks the failure detector).
  if (ft_on) {
    ft::Hooks hooks;
    hooks.capture = ft_capture;
    hooks.wipe = ft_wipe;
    hooks.discard = ft_discard;
    hooks.restore = ft_restore;
    hooks.on_detect = ft_on_detect;
    hooks.on_recovered = ft_on_recovered;
    hooks.timeout_us = opt.ft_timeout_us;
    ft::install(opt.npes, std::move(hooks));
  }

  converse::Machine::Config mc;
  mc.npes = opt.npes;
  mc.nprocs = opt.nprocs;
  mc.iso_slot_bytes = opt.iso_slot_bytes;
  mc.iso_slots_per_pe = opt.iso_slots_per_pe;
  mc.chaos = opt.chaos;
  mc.transport = opt.transport == 1
                     ? converse::Machine::Config::Transport::kShm
                     : converse::Machine::Config::Transport::kInProc;
  converse::Machine::run(mc, storm_entry);

  // Every PE of every process has written the ledger by now.
  Ledger& l = *g->ledger;
  StormReport rep = g->report;
  rep.rounds = static_cast<std::uint64_t>(options.rounds);
  rep.thread_migrations = l.thread_migrations.load();
  rep.element_migrations = l.element_migrations.load();
  rep.pings_delivered = l.array_delivered.load();
  rep.wire_bytes = l.wire_bytes.load();
  rep.canary_failures = l.canary_failures.load();
  rep.digest_mismatches = l.digest_mismatches.load();
  rep.misroutes = l.misroutes.load();
  rep.counter_failures = l.counter_failures.load();
  rep.slots_balanced =
      l.strips_balanced.load() == static_cast<std::uint32_t>(opt.npes);
  rep.stack_pool_balanced =
      l.pools_balanced.load() == static_cast<std::uint32_t>(opt.nprocs);
  // Process 0's envelope books; every other process checks its own when its
  // machine shuts down, and an imbalance there aborts the run.
  const converse::PoolStats ps = converse::pool_stats();
  rep.pool_balanced = ps.allocated == ps.freed;
  for (int t = 0; t < 3; ++t) rep.packs_by_technique[t] = l.packs[t].load();
  std::uint64_t wd = kFnvOffset;
  for (int w = 0; w < opt.workers; ++w) wd = fnv1a_mix(wd, l.digest(w).load());
  rep.workload_digest = wd;
  if (own_trace) {
    const std::string path = options.trace_file != nullptr
                                 ? std::string(options.trace_file)
                             : trace::env_enabled() ? trace::env_file()
                                                    : "storm_trace.json";
    const trace::Summary sum = trace::stop_and_export(path);
    rep.traced = true;
    rep.trace_events = sum.emitted;
    rep.trace_dropped = sum.dropped;
    // Deterministic subset only: message/handler/chaos counts vary with
    // delivery timing, but creates, pack/unpack phases, slot traffic, and
    // round markers replay exactly from (options, chaos seed).
    rep.trace_digest = sum.digest(
        {trace::Ev::kUltCreate, trace::Ev::kMigratePackBegin,
         trace::Ev::kMigratePackEnd, trace::Ev::kMigrateUnpackBegin,
         trace::Ev::kMigrateUnpackEnd, trace::Ev::kIsoSlotAcquire,
         trace::Ev::kIsoSlotRelease, trace::Ev::kStormRound});
    // FT determinism probe: every round and every committed epoch exactly
    // once, whether or not a failure rolled part of the run back.
    rep.ft_trace_digest = sum.digest({trace::Ev::kStormRound,
                                      trace::Ev::kFtCheckpointBegin,
                                      trace::Ev::kFtCheckpointEnd});
  }
  if (ft_on) {
    rep.ft_epochs = ft::epochs();
    rep.ft_kills = ft::kills();
    rep.ft_detections = ft::detections();
    rep.ft_recoveries = ft::recoveries();
    rep.ft_checkpoint_bytes =
        metrics::total(metrics::Counter::kFtCheckpointBytes);
    ft::uninstall();
  }
  g_storm = nullptr;
  return rep;
}

void set_ship_tamper_for_testing(ShipTamper tamper) {
  g_ship_tamper.store(tamper, std::memory_order_relaxed);
}

}  // namespace mfc::chaos
