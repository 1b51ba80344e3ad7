// One benchmark instance: runs one workload once through the runtime's public
// entry points and prints one JSON object of raw measurements on stdout.
//
//   mfcbench_workload --workload <name> --seed <n>
//                     [--part main|setup|reference|ckpt] [--trace]
//
// Workloads (see README.md for why each exists):
//   btmz_lb           BT-MZ analog, class B, 32 AMPI ranks on 4 PEs, greedy LB
//                     after a warm-up iteration. The rank program is the
//                     benchmark's own so it can verify every ghost strip and
//                     time every AMPI call.
//   migrate_storm     chaos::run_storm, 4 PEs, 12 workers over all three
//                     migration techniques, chare-array pings with element
//                     migration; no chaos, no FT.
//   ftx_shm_full      chaos::run_proc_storm, 4 PEs over 2 processes on the shm
//                     wire, full checkpoints, whole-process SIGKILLs.
//
// Parts: `main` is the measured run. `setup` runs the storm drivers for one
// round with the same options (they expose no first-round point, so this is
// their set-up time). For ftx_shm_full, `reference` runs a failure-free, FT-off
// storm of the same seed whose digest a kill run must reproduce, and `ckpt`
// checkpoints like `main` but kills nothing; the three together price an
// epoch and a recovery.
//
// --trace turns on the benchmark's own per-call timers (btmz_lb). The
// runtime's instruments (MFC_STATS, MFC_TRACE) are armed through the
// environment by run.py, which also reads their dumps.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "ampi/ampi.h"
#include "chaos/procstorm.h"
#include "chaos/storm.h"
#include "nasmz/zones.h"

namespace {

namespace ampi = mfc::ampi;
namespace chaos = mfc::chaos;
namespace nasmz = mfc::nasmz;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- Output -----------------------------------------------------------------

/// Flat JSON object writer: numbers, strings and number arrays only.
class JsonOut {
 public:
  void num(const char* key, double v) {
    sep(key);
    std::printf("%.9g", v);
  }
  void u64(const char* key, std::uint64_t v) {
    sep(key);
    std::printf("%" PRIu64, v);
  }
  void str(const char* key, const std::string& v) {
    sep(key);
    std::printf("\"%s\"", v.c_str());
  }
  void boolean(const char* key, bool v) {
    sep(key);
    std::printf("%s", v ? "true" : "false");
  }
  void nums(const char* key, const std::vector<double>& v) {
    sep(key);
    std::printf("[");
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::printf("%s%.9g", i == 0 ? "" : ",", v[i]);
    }
    std::printf("]");
  }
  void end() { std::printf("}\n"); }

 private:
  void sep(const char* key) {
    std::printf("%s\"%s\":", first_ ? "{" : ",", key);
    first_ = false;
  }
  bool first_ = true;
};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// ---- btmz_lb ----------------------------------------------------------------

constexpr char kBtmzClass = 'B';
constexpr int kBtmzRanks = 32;
constexpr int kBtmzPes = 4;
constexpr int kBtmzIterations = 200;
constexpr int kBtmzLbAt = 5;  // warm-up iterations before greedy LB
constexpr double kBtmzWorkPerPoint = 30.0;

enum Dir { kWest = 0, kEast = 1, kSouth = 2, kNorth = 3 };

/// Per-rank call timers and verification books. Indexed by rank, so a rank
/// keeps its entry when it migrates between PEs.
struct RankBooks {
  double send_s = 0, wait_s = 0, coll_s = 0, migrate_s = 0, sweep_s = 0;
  std::uint64_t msgs = 0, bytes = 0;
  std::uint64_t strips = 0, bad_strips = 0;
};

struct PhaseLoads {
  double imbalance = 0;    ///< max/mean PE load
  double max_pe_load = 0;  ///< seconds
};

struct Btmz {
  bool trace = false;
  std::uint64_t iter_base = 0;  ///< seed-derived first iteration number
  nasmz::ZoneGrid grid;
  std::vector<int> owner;  ///< zone -> rank
  std::vector<RankBooks> books;
  // Written by rank 0.
  Clock::time_point first_iter;
  double solve_s = 0;
  PhaseLoads pre, post;
  int moved = 0;
  std::vector<double> iter_s;
};

/// Runs `f`, adding its wall time to `acc` when the timers are on.
template <typename F>
void timed(bool on, double& acc, F&& f) {
  if (!on) {
    f();
    return;
  }
  const auto t = Clock::now();
  f();
  acc += seconds_between(t, Clock::now());
}

/// The SSOR-sweep stand-in: deterministic work proportional to points
/// (the same loop as nasmz/btmz.cc).
void zone_sweep(std::size_t points) {
  volatile double acc = 0;
  const auto n = static_cast<std::size_t>(static_cast<double>(points) *
                                          kBtmzWorkPerPoint);
  for (std::size_t i = 0; i < n; ++i) {
    acc = acc + static_cast<double>(i & 0xff) * 1.0000001;
  }
}

/// Gathers every rank's measured load to rank 0, which sums them per PE;
/// the result is broadcast so every rank returns the same value.
PhaseLoads phase_loads() {
  const double mine = ampi::my_load();
  std::vector<double> loads(kBtmzRanks, 0.0);
  ampi::gather(&mine, 1, ampi::Dtype::kDouble, loads.data(), 0);
  PhaseLoads out;
  if (ampi::rank() == 0) {
    const std::vector<int> placement = ampi::rank_placement();
    std::vector<double> pe(kBtmzPes, 0.0);
    for (int r = 0; r < kBtmzRanks; ++r) {
      pe[static_cast<std::size_t>(placement[static_cast<std::size_t>(r)])] +=
          loads[static_cast<std::size_t>(r)];
    }
    double sum = 0;
    for (const double l : pe) {
      sum += l;
      if (l > out.max_pe_load) out.max_pe_load = l;
    }
    out.imbalance = sum > 0 ? out.max_pe_load / (sum / kBtmzPes) : 0;
  }
  ampi::bcast(&out, sizeof out, ampi::Dtype::kByte, 0);
  return out;
}

int edge_tag(int recv_zone, int recv_dir) { return recv_zone * 4 + recv_dir; }

void btmz_rank(Btmz& b) {
  const int me = ampi::rank();
  RankBooks& bk = b.books[static_cast<std::size_t>(me)];
  const bool on = b.trace;
  std::vector<int> my_zones;
  for (const nasmz::Zone& z : b.grid.zones) {
    if (b.owner[static_cast<std::size_t>(z.id)] == me) my_zones.push_back(z.id);
  }

  ampi::barrier();  // set-up ends here; the accounting window starts
  const auto t0 = Clock::now();
  if (me == 0) b.first_iter = t0;

  for (int it = 0; it < kBtmzIterations; ++it) {
    const auto ti = Clock::now();
    const double stamp_base = static_cast<double>(b.iter_base + it);
    if (it == kBtmzLbAt) {
      timed(on, bk.coll_s, [&] { b.pre = phase_loads(); });
      int moved = 0;
      timed(on, bk.migrate_s, [&] { moved = ampi::migrate(); });
      if (me == 0) b.moved = moved;
    }

    // Ghost exchange: post a receive per remote edge, send every remote
    // edge, wait for all (the deadlock-free pattern of nasmz/btmz.cc).
    struct Inbox {
      int from_zone;
      std::vector<double> data;
    };
    std::vector<Inbox> inboxes;
    std::vector<ampi::Request> recvs;
    timed(on, bk.send_s, [&] {
      for (const int zid : my_zones) {
        const nasmz::Zone& z = b.grid.zones[static_cast<std::size_t>(zid)];
        const int nbr[4] = {z.west, z.east, z.south, z.north};
        const std::size_t ew = static_cast<std::size_t>(z.ny) * z.nz;
        const std::size_t ns = static_cast<std::size_t>(z.nx) * z.nz;
        const std::size_t strip[4] = {ew, ew, ns, ns};
        for (int dir = 0; dir < 4; ++dir) {
          const int n = nbr[dir];
          if (n < 0 || b.owner[static_cast<std::size_t>(n)] == me) continue;
          inboxes.push_back({n, std::vector<double>(strip[dir])});
        }
      }
      recvs.reserve(inboxes.size());
      std::size_t k = 0;
      for (const int zid : my_zones) {
        const nasmz::Zone& z = b.grid.zones[static_cast<std::size_t>(zid)];
        const int nbr[4] = {z.west, z.east, z.south, z.north};
        for (int dir = 0; dir < 4; ++dir) {
          const int n = nbr[dir];
          if (n < 0 || b.owner[static_cast<std::size_t>(n)] == me) continue;
          Inbox& in = inboxes[k++];
          recvs.push_back(ampi::irecv(in.data.data(), in.data.size(),
                                      ampi::Dtype::kDouble,
                                      b.owner[static_cast<std::size_t>(n)],
                                      edge_tag(zid, dir)));
        }
      }
      for (const int zid : my_zones) {
        const nasmz::Zone& z = b.grid.zones[static_cast<std::size_t>(zid)];
        const std::size_t ew = static_cast<std::size_t>(z.ny) * z.nz;
        const std::size_t ns = static_cast<std::size_t>(z.nx) * z.nz;
        // My east face is the east neighbour's west ghost, and so on.
        const struct {
          int nbr, their_dir;
          std::size_t n;
        } edges[4] = {{z.west, kEast, ew},
                      {z.east, kWest, ew},
                      {z.south, kNorth, ns},
                      {z.north, kSouth, ns}};
        for (const auto& e : edges) {
          if (e.nbr < 0 || b.owner[static_cast<std::size_t>(e.nbr)] == me) {
            continue;
          }
          const std::vector<double> strip(e.n, zid + stamp_base);
          ampi::send(strip.data(), strip.size(), ampi::Dtype::kDouble,
                     b.owner[static_cast<std::size_t>(e.nbr)],
                     edge_tag(e.nbr, e.their_dir));
          ++bk.msgs;
          bk.bytes += e.n * sizeof(double);
        }
      }
    });
    timed(on, bk.wait_s, [&] { ampi::wait_all(recvs); });

    // Every ghost value must be the sending zone's id plus the iteration.
    for (const Inbox& in : inboxes) {
      const double want = in.from_zone + stamp_base;
      ++bk.strips;
      for (const double v : in.data) {
        if (v != want) {
          ++bk.bad_strips;
          break;
        }
      }
    }

    timed(on, bk.sweep_s, [&] {
      for (const int zid : my_zones) {
        zone_sweep(b.grid.zones[static_cast<std::size_t>(zid)].points());
      }
    });
    if (on && me == 0) b.iter_s.push_back(seconds_between(ti, Clock::now()));
  }

  timed(on, bk.coll_s, [] { ampi::barrier(); });
  const auto t1 = Clock::now();
  const PhaseLoads post = phase_loads();
  if (me == 0) {
    b.solve_s = seconds_between(t0, t1);
    b.post = post;
  }
}

int run_btmz(std::uint64_t seed, bool trace) {
  const auto t_enter = Clock::now();
  Btmz b;
  b.trace = trace;
  b.iter_base = seed % 1000003;
  b.grid = nasmz::ZoneGrid::make(kBtmzClass);
  b.owner = nasmz::assign_zones_blocked(static_cast<int>(b.grid.zones.size()),
                                        kBtmzRanks);
  b.books.resize(kBtmzRanks);

  ampi::Options opt;
  opt.nranks = kBtmzRanks;
  opt.npes = kBtmzPes;
  ampi::run(opt, [&b] { btmz_rank(b); });

  std::uint64_t strips = 0, bad = 0, msgs = 0, bytes = 0;
  for (const RankBooks& r : b.books) {
    strips += r.strips;
    bad += r.bad_strips;
    msgs += r.msgs;
    bytes += r.bytes;
  }
  const RankBooks& r0 = b.books[0];
  JsonOut j;
  j.str("workload", "btmz_lb");
  j.boolean("ok", strips > 0 && bad == 0);
  j.u64("strips", strips);
  j.u64("bad_strips", bad);
  j.num("setup_s", seconds_between(t_enter, b.first_iter));
  j.num("solve_s", b.solve_s);
  j.u64("rounds", kBtmzIterations);
  j.num("modeled_s", b.pre.max_pe_load + b.post.max_pe_load);
  j.u64("ranks_moved", static_cast<std::uint64_t>(b.moved));
  j.num("imbalance_pre", b.pre.imbalance);
  j.num("imbalance_post", b.post.imbalance);
  j.u64("ampi_msgs", msgs);
  j.u64("ampi_bytes", bytes);
  j.num("rank0_send_s", r0.send_s);
  j.num("rank0_wait_s", r0.wait_s);
  j.num("rank0_coll_s", r0.coll_s);
  j.num("rank0_migrate_s", r0.migrate_s);
  j.num("rank0_sweep_s", r0.sweep_s);
  j.nums("iter_s", b.iter_s);
  j.end();
  return 0;
}

// ---- migrate_storm ----------------------------------------------------------

constexpr int kStormRounds = 800;

int run_migrate_storm(std::uint64_t seed, bool setup) {
  chaos::StormOptions opt;
  opt.seed = seed;
  opt.npes = 4;
  opt.workers = 12;
  opt.rounds = setup ? 1 : kStormRounds;
  opt.element_migration = true;
  const auto t = Clock::now();
  const chaos::StormReport rep = chaos::run_storm(opt);
  const double wall = seconds_between(t, Clock::now());

  JsonOut j;
  j.str("workload", "migrate_storm");
  j.boolean("ok", rep.clean() && rep.rounds == static_cast<std::uint64_t>(opt.rounds));
  j.str("digest", hex(rep.workload_digest));
  j.num("solve_s", wall);
  j.u64("rounds", rep.rounds);
  j.u64("thread_migrations", rep.thread_migrations);
  j.u64("element_migrations", rep.element_migrations);
  j.u64("pings_delivered", rep.pings_delivered);
  j.u64("image_bytes", rep.wire_bytes);
  j.u64("packs_stackcopy", rep.packs_by_technique[0]);
  j.u64("packs_iso", rep.packs_by_technique[1]);
  j.u64("packs_memalias", rep.packs_by_technique[2]);
  j.end();
  return 0;
}

// ---- ftx_shm_full ------------------------------------------------------------------

constexpr int kFtxRounds = 1000;
constexpr int kFtxCheckpointEvery = 50;  // 19 epochs
constexpr int kFtxKillEvery = 6;         // 3 SIGKILLs
// Process deaths are found by reaping, not heartbeats, so a slack detector
// costs no recovery time; a tight one is prone to declaring live PEs dead
// when other programs compete for the cores.
constexpr std::uint64_t kFtxDetectorTimeoutUs = 2'000'000;

int run_ftx(std::uint64_t seed, const std::string& part) {
  chaos::ProcStormOptions opt;
  opt.seed = seed;
  opt.npes = 4;
  opt.nprocs = 2;
  opt.transport = 1;  // shm rings
  opt.ft_mode = 0;    // full checkpoints
  opt.rounds = part == "setup" ? 1 : kFtxRounds;
  opt.timeout_us = kFtxDetectorTimeoutUs;
  if (part != "reference") opt.checkpoint_every = kFtxCheckpointEvery;
  if (part != "reference" && part != "ckpt") opt.kill_every = kFtxKillEvery;
  std::uint64_t epochs = 0;
  for (int r = 0; r + 1 < opt.rounds; ++r) {
    if (opt.checkpoint_every > 0 && (r + 1) % opt.checkpoint_every == 0) {
      ++epochs;
    }
  }
  const std::uint64_t want_kills =
      opt.kill_every > 0 ? epochs / static_cast<std::uint64_t>(opt.kill_every)
                         : 0;

  const auto t = Clock::now();
  const chaos::ProcStormReport rep = chaos::run_proc_storm(opt);
  const double wall = seconds_between(t, Clock::now());

  JsonOut j;
  j.str("workload", "ftx_shm_full");
  j.boolean("ok", rep.clean(opt.npes) && rep.ft_epochs == epochs &&
                      rep.kills == want_kills && rep.recoveries == rep.kills);
  j.str("digest", hex(rep.workload_digest));
  j.num("solve_s", wall);
  j.u64("rounds", rep.rounds);
  j.u64("epochs", rep.ft_epochs);
  j.u64("kills", rep.kills);
  j.u64("want_kills", want_kills);
  j.u64("recoveries", rep.recoveries);
  j.u64("respawns", rep.proc_respawns);
  j.end();
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: mfcbench_workload --workload <btmz_lb|migrate_storm|"
               "ftx_shm_full> --seed <n> "
               "[--part main|setup|reference|ckpt] [--trace]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, part = "main";
  std::uint64_t seed = 0;
  bool have_seed = false, trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (a == "--part" && has_value) {
      part = argv[++i];
    } else if (a == "--trace") {
      trace = true;
    } else {
      return usage();
    }
  }
  if (!have_seed) return usage();
  if (part != "main" && part != "setup" && part != "reference" &&
      part != "ckpt") {
    return usage();
  }
  if (workload == "btmz_lb" && part == "main") return run_btmz(seed, trace);
  if (workload == "migrate_storm" && (part == "main" || part == "setup")) {
    return run_migrate_storm(seed, part == "setup");
  }
  if (workload == "ftx_shm_full") return run_ftx(seed, part);
  return usage();
}
