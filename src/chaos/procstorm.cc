#include "chaos/procstorm.h"

#include <cstring>
#include <mutex>
#include <vector>

#include "converse/machine.h"
#include "ft/ft.h"
#include "iso/region.h"
#include "pup/pup.h"
#include "trace/metrics.h"
#include "ult/scheduler.h"
#include "util/check.h"
#include "util/digest.h"
#include "util/rng.h"

namespace mfc::chaos {
namespace {

namespace converse = mfc::converse;

constexpr std::uint64_t kInitSalt = 0x70726f63696e6974ULL;   // "procinit"
constexpr std::uint64_t kRoundSalt = 0x70726f63726f756eULL;  // "procroun"

std::uint64_t mix2(std::uint64_t a, std::uint64_t b) {
  SplitMix64 r(a ^ (b + 0x9e3779b97f4a7c15ULL));
  return r.next();
}

/// One PE's storm state. Touched only by the owning PE's kernel thread
/// (handlers and the main/coordinator ULT all run there), so no locks.
struct PeSlot {
  iso::SlotId slot;               ///< holds the worker history cells
  std::uint64_t* vals = nullptr;  ///< slot memory, [worker][cell]
  bool have_slot = false;         ///< slot mapped in THIS process
  std::uint64_t acc = 0;          ///< commutative gift accumulator
  std::int32_t round = -1;        ///< last round applied here
  ult::Thread* main = nullptr;    ///< parked non-coordinator main
  bool alldone = false;           ///< shutdown broadcast already seen
};

/// What a PE's checkpoint blob carries. The slot identity rides along so a
/// respawned process — whose strip bitmap and page tables are the zygote's
/// pristine boot copies — can reassert the lease and remap the same
/// addresses before the history bytes land back.
struct PeCkpt {
  std::int32_t round = -1;
  std::uint64_t acc = 0;
  iso::SlotId slot;
  std::vector<std::uint64_t> vals;
  void pup(pup::Er& p) { p | round | acc | slot | vals; }
};

struct GiftMsg {
  std::uint64_t value = 0;
  void pup(pup::Er& p) { p | value; }
};

struct DigestReply {
  std::int32_t pe = -1;
  std::uint64_t digest = 0;
  void pup(pup::Er& p) { p | pe | digest; }
};

struct ProcStormGlobal {
  ProcStormOptions opt;
  std::vector<PeSlot> pes;  ///< indexed by global PE; local entries only

  // ---- PE0 (process 0) only ----
  enum class Phase { kRun, kKilled, kRecovered };
  Phase phase = Phase::kRun;
  ult::Thread* coord = nullptr;  ///< coordinator parked across a recovery
  int digest_replies = 0;
  std::vector<std::uint64_t> pe_digest;
  std::uint64_t digest = 0;
  /// Harvested by the coordinator before shutdown: the machine owns the
  /// chaos install and tears it (and its counters) down with the run.
  std::uint64_t kills_injected = 0;
};

ProcStormGlobal* g_ps = nullptr;

converse::HandlerId h_ps_round, h_ps_gift, h_ps_digest_req, h_ps_digest_reply,
    h_ps_alldone;

int cells_per_pe(const ProcStormOptions& opt) {
  return opt.workers_per_pe * opt.values_per_worker;
}

/// Checkpoint after round `r`? The final round never checkpoints.
bool is_ckpt_round(int r, const ProcStormOptions& opt) {
  return opt.checkpoint_every > 0 && r != opt.rounds - 1 &&
         (r + 1) % opt.checkpoint_every == 0;
}

std::uint64_t pe_state_digest(int pe) {
  ProcStormGlobal* g = g_ps;
  const PeSlot& ps = g->pes[static_cast<std::size_t>(pe)];
  std::uint64_t d = fnv1a_mix(kFnvOffset,
                              static_cast<std::uint64_t>(ps.round));
  d = fnv1a_mix(d, ps.acc);
  const int cells = cells_per_pe(g->opt);
  for (int i = 0; i < cells; ++i) d = fnv1a_mix(d, ps.vals[i]);
  return d;
}

// ---- Handlers ---------------------------------------------------------------

/// One round on one PE: fold a fresh seed-derived draw into every worker
/// history cell, then gift each worker's folded contribution to a
/// seed-chosen peer. Dest and draws depend only on (seed, worker, round),
/// and the gift accumulator is a wrapping sum, so any delivery interleaving
/// produces the same machine-wide state once quiescent.
void handle_round(converse::Message&& m) {
  ProcStormGlobal* g = g_ps;
  const ProcStormOptions& opt = g->opt;
  const auto r = m.as<std::int32_t>();
  const int me = converse::my_pe();
  PeSlot& ps = g->pes[static_cast<std::size_t>(me)];
  for (int w = 0; w < opt.workers_per_pe; ++w) {
    const std::uint64_t wid =
        static_cast<std::uint64_t>(me) *
            static_cast<std::uint64_t>(opt.workers_per_pe) +
        static_cast<std::uint64_t>(w);
    SplitMix64 rng(mix2(opt.seed ^ kRoundSalt,
                        wid * 1000003ULL + static_cast<std::uint64_t>(r)));
    std::uint64_t contrib = kFnvOffset;
    for (int i = 0; i < opt.values_per_worker; ++i) {
      std::uint64_t& cell =
          ps.vals[w * opt.values_per_worker + i];
      cell = mix2(cell, rng.next());
      contrib = fnv1a_mix(contrib, cell);
    }
    const int dest = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(opt.npes)));
    converse::send_value(dest, h_ps_gift, GiftMsg{contrib});
  }
  ps.round = r;
}

void handle_gift(converse::Message&& m) {
  const auto gm = m.as<GiftMsg>();
  g_ps->pes[static_cast<std::size_t>(converse::my_pe())].acc += gm.value;
}

void handle_digest_req(converse::Message&&) {
  const int me = converse::my_pe();
  converse::send_value(0, h_ps_digest_reply,
                       DigestReply{me, pe_state_digest(me)});
}

void handle_digest_reply(converse::Message&& m) {
  ProcStormGlobal* g = g_ps;
  const auto rep = m.as<DigestReply>();
  g->pe_digest[static_cast<std::size_t>(rep.pe)] = rep.digest;
  if (++g->digest_replies != g->opt.npes) return;
  std::uint64_t d = kFnvOffset;
  for (const std::uint64_t pd : g->pe_digest) d = fnv1a_mix(d, pd);
  g->digest = d;
  if (g->coord != nullptr) {
    ult::Thread* t = g->coord;
    g->coord = nullptr;
    converse::ready_thread(t);
  }
}

void handle_alldone(converse::Message&&) {
  PeSlot& ps = g_ps->pes[static_cast<std::size_t>(converse::my_pe())];
  ps.alldone = true;
  if (ps.main != nullptr) {
    ult::Thread* t = ps.main;
    ps.main = nullptr;
    converse::ready_thread(t);
  }
}

void register_ps_handlers() {
  static std::once_flag once;
  std::call_once(once, [] {
    h_ps_round = converse::register_handler(handle_round);
    h_ps_gift = converse::register_handler(handle_gift);
    h_ps_digest_req = converse::register_handler(handle_digest_req);
    h_ps_digest_reply = converse::register_handler(handle_digest_reply);
    h_ps_alldone = converse::register_handler(handle_alldone);
  });
}

// ---- FT hooks ---------------------------------------------------------------

std::vector<char> ps_capture(std::uint64_t epoch) {
  (void)epoch;
  ProcStormGlobal* g = g_ps;
  const int me = converse::my_pe();
  const PeSlot& ps = g->pes[static_cast<std::size_t>(me)];
  MFC_CHECK_MSG(ps.have_slot, "procstorm: capture before init/restore");
  PeCkpt ck;
  ck.round = ps.round;
  ck.acc = ps.acc;
  ck.slot = ps.slot;
  ck.vals.assign(ps.vals, ps.vals + cells_per_pe(g->opt));
  return pup::to_bytes_onepass(ck, ck.vals.size() * 8 + 64);
}

void ps_wipe(int pe) {
  // Emulated memory loss. The slot mapping is per-process bookkeeping, not
  // application state: on a same-process revival it stays (restore just
  // overwrites the bytes); on a respawned process this PeSlot is already
  // the pristine boot image.
  PeSlot& ps = g_ps->pes[static_cast<std::size_t>(pe)];
  ps.acc = 0;
  ps.round = -1;
}

void ps_discard() {
  // Rollback phase A: nothing to evacuate — the workload parks no threads
  // and the history slots keep their identity across rollbacks.
}

void ps_restore(std::uint64_t epoch, const std::vector<char>& blob) {
  (void)epoch;
  ProcStormGlobal* g = g_ps;
  PeCkpt ck;
  pup::from_bytes(blob, ck);
  const int me = converse::my_pe();
  PeSlot& ps = g->pes[static_cast<std::size_t>(me)];
  if (!ps.have_slot) {
    // Respawned process: the boot-image strip bitmap never saw the
    // acquire, and the pages are PROT_NONE. Reassert the lease (so later
    // forwarded frees find the used bits) and remap the same addresses.
    converse::iso_claim(ck.slot);
    iso::Region::instance().install(ck.slot);
    ps.slot = ck.slot;
    ps.vals = static_cast<std::uint64_t*>(
        iso::Region::instance().slot_base(ck.slot));
    ps.have_slot = true;
  }
  MFC_CHECK(ps.slot == ck.slot);
  MFC_CHECK(static_cast<int>(ck.vals.size()) == cells_per_pe(g->opt));
  std::memcpy(ps.vals, ck.vals.data(), ck.vals.size() * sizeof(std::uint64_t));
  ps.acc = ck.acc;
  ps.round = ck.round;
}

void ps_on_detect(int victim) {
  (void)victim;
  g_ps->phase = ProcStormGlobal::Phase::kKilled;
}

void ps_on_recovered(std::uint64_t epoch) {
  (void)epoch;
  ProcStormGlobal* g = g_ps;
  g->phase = ProcStormGlobal::Phase::kRecovered;
  if (g->coord != nullptr) {
    ult::Thread* t = g->coord;
    g->coord = nullptr;
    converse::ready_thread(t);
  }
}

// ---- Coordinator ------------------------------------------------------------

/// Parks the coordinator until the phase leaves `while_phase`.
void coord_park_while(ProcStormGlobal::Phase while_phase) {
  ProcStormGlobal* g = g_ps;
  while (g->phase == while_phase) {
    g->coord = converse::pe_scheduler().running();
    ult::suspend();
  }
}

void coordinator() {
  ProcStormGlobal* g = g_ps;
  const ProcStormOptions& opt = g->opt;
  int commits = 0;
  int kills_fired = 0;
  for (int r = 0; r < opt.rounds; ++r) {
    converse::broadcast(h_ps_round, pup::to_bytes(std::int32_t{r}));
    converse::wait_quiescence();
    if (!is_ckpt_round(r, opt)) continue;
    ft::checkpoint_now();
    ++commits;
    if (opt.kill_every == 0 || commits % opt.kill_every != 0) continue;
    const auto k = static_cast<std::uint64_t>(kills_fired);
    // The kill fires only now — after the epoch committed — so recovery
    // rolls back to exactly the state this coordinator last observed and
    // the round sequence continues without replay.
    if (opt.nprocs > 1) {
      if (!keyed_inject(Point::kProcKill, k)) continue;
      const int victim =
          1 + static_cast<int>(keyed_draw(
                  Point::kProcKill, k,
                  static_cast<std::uint64_t>(opt.nprocs - 1)));
      ++kills_fired;
      converse::kill_proc(victim);
    } else {
      if (!keyed_inject(Point::kPeKill, k)) continue;
      const int victim =
          1 + static_cast<int>(keyed_draw(
                  Point::kPeKill, k,
                  static_cast<std::uint64_t>(opt.npes - 1)));
      ++kills_fired;
      ft::kill_pe(victim);
    }
    // Park until the detector noticed and the rollback completed. The
    // detection itself is never driven from here: proc 0's comm thread
    // reaps the corpse (or, single-process, the killed PE's line stands
    // still) and the ft tick does the rest.
    coord_park_while(ProcStormGlobal::Phase::kRun);
    coord_park_while(ProcStormGlobal::Phase::kKilled);
    MFC_CHECK(g->phase == ProcStormGlobal::Phase::kRecovered);
    g->phase = ProcStormGlobal::Phase::kRun;
  }
  converse::wait_quiescence();
  g->kills_injected =
      injections(Point::kProcKill) + injections(Point::kPeKill);

  converse::broadcast(h_ps_digest_req, {});
  if (g->digest_replies != opt.npes) {
    g->coord = converse::pe_scheduler().running();
    ult::suspend();
  }
  converse::broadcast(h_ps_alldone, {});
}

// ---- Entry ------------------------------------------------------------------

void ps_entry(int pe) {
  ProcStormGlobal* g = g_ps;
  const ProcStormOptions& opt = g->opt;
  PeSlot& ps = g->pes[static_cast<std::size_t>(pe)];
  const bool reborn = converse::respawn_generation() > 0;
  if (reborn) {
    // Respawned incarnation: state arrives via the recovery refill +
    // restore path, and the run is already mid-flight — no barrier to
    // join, nothing to drive. Park for the shutdown broadcast.
    if (!ps.alldone && ps.main == nullptr) {
      ps.main = converse::pe_scheduler().running();
      ult::suspend();
    }
    return;
  }

  // First incarnation: acquire this PE's history slot and seed it.
  const std::size_t bytes =
      static_cast<std::size_t>(cells_per_pe(opt)) * sizeof(std::uint64_t);
  const auto slots =
      static_cast<std::uint32_t>((bytes + opt.iso_slot_bytes - 1) /
                                 opt.iso_slot_bytes);
  ps.slot = iso::Region::instance().acquire(pe, slots);
  ps.vals =
      static_cast<std::uint64_t*>(iso::Region::instance().slot_base(ps.slot));
  ps.have_slot = true;
  for (int w = 0; w < opt.workers_per_pe; ++w) {
    const std::uint64_t wid =
        static_cast<std::uint64_t>(pe) *
            static_cast<std::uint64_t>(opt.workers_per_pe) +
        static_cast<std::uint64_t>(w);
    for (int i = 0; i < opt.values_per_worker; ++i) {
      ps.vals[w * opt.values_per_worker + i] =
          mix2(opt.seed ^ kInitSalt,
               wid * 1000003ULL + static_cast<std::uint64_t>(i));
    }
  }
  converse::barrier();  // every PE initialized before round 0 broadcasts

  if (pe == 0) {
    coordinator();
  } else if (!ps.alldone) {
    ps.main = converse::pe_scheduler().running();
    ult::suspend();  // until h_ps_alldone
  }
}

}  // namespace

ProcStormReport run_proc_storm(const ProcStormOptions& options) {
  MFC_CHECK_MSG(g_ps == nullptr, "run_proc_storm is not reentrant");
  MFC_CHECK(options.npes >= 2 && options.rounds >= 1 &&
            options.workers_per_pe >= 1 && options.values_per_worker >= 1);
  MFC_CHECK_MSG(options.transport == 1,
                "procstorm: transport must be 1 (the shm wire)");
  MFC_CHECK_MSG(options.nprocs == 1 || options.npes % options.nprocs == 0,
                "procstorm: npes must divide evenly across nprocs");
  MFC_CHECK_MSG(options.kill_every == 0 || options.checkpoint_every > 0,
                "procstorm: kill_every requires checkpoint_every");
  MFC_CHECK_MSG(options.ft_mode == 0,
                "procstorm: ft_mode must be 0 (checkpoints ship whole blobs)");
  MFC_CHECK_MSG(options.kill_every == 0 || options.nprocs > 1 ||
                    options.npes >= 2,
                "procstorm: PE-tier kills need a PE to spare");
  register_ps_handlers();

  ProcStormOptions opt = options;
  if (opt.kill_every > 0) {
    opt.chaos.enabled = true;
    opt.chaos.proc_kill = 1.0;
    opt.chaos.pe_kill = 1.0;
  }

  auto g = std::make_unique<ProcStormGlobal>();
  g->opt = opt;
  g->pes.resize(static_cast<std::size_t>(opt.npes));
  g->pe_digest.assign(static_cast<std::size_t>(opt.npes), 0);
  g_ps = g.get();

  const bool ft_on = opt.checkpoint_every > 0;
  if (ft_on) {
    ft::Hooks hooks;
    hooks.capture = ps_capture;
    hooks.wipe = ps_wipe;
    hooks.discard = ps_discard;
    hooks.restore = ps_restore;
    hooks.on_detect = ps_on_detect;
    hooks.on_recovered = ps_on_recovered;
    hooks.timeout_us = opt.timeout_us;
    ft::install(opt.npes, std::move(hooks));
  }

  converse::Machine::Config mc;
  mc.npes = opt.npes;
  mc.nprocs = opt.nprocs;
  mc.transport = converse::Machine::Config::Transport::kShm;
  mc.iso_slot_bytes = opt.iso_slot_bytes;
  mc.iso_slots_per_pe = opt.iso_slots_per_pe;
  mc.chaos = opt.chaos;
  converse::Machine::run(mc, ps_entry);

  ProcStormReport rep;
  rep.rounds = static_cast<std::uint64_t>(opt.rounds);
  rep.workload_digest = g->digest;
  rep.digest_reports = static_cast<std::uint64_t>(g->digest_replies);
  if (ft_on) {
    rep.ft_epochs = ft::epochs();
    rep.kills = g->kills_injected;
    rep.detections = ft::detections();
    rep.recoveries = ft::recoveries();
    rep.ft_ship_bytes = metrics::total(metrics::Counter::kFtShipBytes);
    ft::uninstall();
  }
  rep.proc_respawns = metrics::total(metrics::Counter::kProcRespawns);
  const converse::PoolStats pool = converse::pool_stats();
  rep.pool_balanced = pool.allocated == pool.freed;
  g_ps = nullptr;
  return rep;
}

}  // namespace mfc::chaos
