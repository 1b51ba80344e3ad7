// Observability-plane battery (labeled `obs`): latency histograms, the
// failure flight recorder, trace parts and the clock-aligned multi-process
// merge.
//
// Three layers of coverage:
//  - pure unit: histogram bucket geometry (index/floor/width round-trips,
//    linear-range exactness, clamping), quantiles on known distributions,
//    snapshot merge associativity, metrics snapshot provenance, flight
//    recorder note/freeze/dump semantics, part write→read→merge round
//    trips with byte-identical re-merges;
//  - machine-integrated: a compact cross-process migration driver run with
//    MFC_TRACE=1 — Machine::run's own shutdown path must leave behind one
//    merged Perfetto JSON whose per-track timestamps are monotonic and
//    which contains at least one flow arrow spanning two process track
//    groups (including the migrate pack→unpack arrow on the acceptance
//    64-PE/4-process shape);
//  - failure path: an FT kill storm with tracing OFF must still produce a
//    flight-recorder dump naming "ft-kill".
//
// Fork-based legs are compiled out under ThreadSanitizer (MFC_TSAN): tsan
// does not follow forked children.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "chaos/storm.h"
#include "converse/machine.h"
#include "migrate/iso_thread.h"
#include "migrate/memalias_thread.h"
#include "migrate/migratable.h"
#include "migrate/stackcopy_thread.h"
#include "pup/pup.h"
#include "trace/flight.h"
#include "trace/hist.h"
#include "trace/metrics.h"
#include "trace/trace.h"
#include "util/rng.h"

namespace {

namespace cv = mfc::converse;
namespace hist = mfc::hist;
namespace trace = mfc::trace;
namespace flight = mfc::trace::flight;
using mfc::SplitMix64;
using hist::Hist;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---- Chrome trace-event JSON mini-scanner ----------------------------------
//
// The exporter writes one event object per line (",\n" separated), each
// opening with the fixed field order name/ph/pid/tid/ts, so a line scanner
// is enough to validate structure without a JSON library.

struct EvLine {
  std::string name;
  char ph = 0;
  int pid = -1;
  int tid = -1;
  double ts = -1;
  std::string id;  ///< flow id ("0x..."), empty for non-flow events
};

bool field_str(const std::string& line, const char* key, std::string* out) {
  const std::string pat = std::string("\"") + key + "\":\"";
  const std::size_t at = line.find(pat);
  if (at == std::string::npos) return false;
  const std::size_t beg = at + pat.size();
  const std::size_t end = line.find('"', beg);
  if (end == std::string::npos) return false;
  *out = line.substr(beg, end - beg);
  return true;
}

bool field_num(const std::string& line, const char* key, double* out) {
  const std::string pat = std::string("\"") + key + "\":";
  const std::size_t at = line.find(pat);
  if (at == std::string::npos) return false;
  *out = std::strtod(line.c_str() + at + pat.size(), nullptr);
  return true;
}

std::vector<EvLine> parse_events(const std::string& json) {
  std::vector<EvLine> out;
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    EvLine e;
    std::string ph;
    if (!field_str(line, "ph", &ph) || ph.size() != 1) continue;
    e.ph = ph[0];
    field_str(line, "name", &e.name);
    double pid = -1, tid = -1;
    if (field_num(line, "pid", &pid)) e.pid = static_cast<int>(pid);
    if (field_num(line, "tid", &tid)) e.tid = static_cast<int>(tid);
    field_num(line, "ts", &e.ts);
    field_str(line, "id", &e.id);
    out.push_back(std::move(e));
  }
  return out;
}

/// Flow ids ("s"/"t"/"f" events) that appear under more than one pid —
/// cross-process arrows in a merged timeline. `name_filter` empty accepts
/// every flow category.
int count_cross_pid_flows(const std::vector<EvLine>& evs,
                          const std::string& name_filter) {
  std::map<std::string, std::set<int>> pids_by_id;
  for (const EvLine& e : evs) {
    if (e.ph != 's' && e.ph != 't' && e.ph != 'f') continue;
    if (!name_filter.empty() && e.name != name_filter) continue;
    if (!e.id.empty()) pids_by_id[e.id].insert(e.pid);
  }
  int n = 0;
  for (const auto& [id, pids] : pids_by_id) {
    if (pids.size() >= 2) ++n;
  }
  return n;
}

/// Non-metadata timestamps must be non-decreasing within each (pid, tid)
/// track: every ring is single-writer and the merge preserves ring order.
void expect_tracks_monotonic(const std::vector<EvLine>& evs) {
  std::map<std::pair<int, int>, double> last;
  for (const EvLine& e : evs) {
    if (e.ph == 'M') continue;
    auto [it, fresh] = last.try_emplace({e.pid, e.tid}, e.ts);
    if (!fresh) {
      EXPECT_LE(it->second, e.ts)
          << "timestamps regressed on pid " << e.pid << " tid " << e.tid;
      it->second = e.ts;
    }
  }
}

// ---- Histogram bucket geometry ---------------------------------------------

TEST(HistBuckets, IndexFloorWidthRoundTrip) {
  for (int idx = 0; idx < hist::kBucketCount; ++idx) {
    const std::uint64_t floor = hist::bucket_floor(idx);
    const std::uint64_t width = hist::bucket_width(idx);
    EXPECT_EQ(hist::bucket_index(floor), idx);
    EXPECT_EQ(hist::bucket_index(floor + width - 1), idx);
    if (idx + 1 < hist::kBucketCount) {
      // Buckets tile the value axis with no gaps and no overlaps.
      EXPECT_EQ(hist::bucket_floor(idx + 1), floor + width);
    }
  }
}

TEST(HistBuckets, LinearRangeIsExactAndHugeValuesClamp) {
  for (std::uint64_t v = 0; v < hist::kSubCount; ++v) {
    EXPECT_EQ(hist::bucket_index(v), static_cast<int>(v));
    EXPECT_EQ(hist::bucket_width(static_cast<int>(v)), 1u);
  }
  // Values at/above 2^kMaxBits land in the top octave, never out of range.
  const int top_octave =
      hist::kSubCount +
      (hist::kMaxBits - 1 - hist::kSubBits) * hist::kSubCount;
  for (std::uint64_t v :
       {std::uint64_t{1} << hist::kMaxBits, std::uint64_t{1} << 60,
        ~std::uint64_t{0}}) {
    const int idx = hist::bucket_index(v);
    EXPECT_GE(idx, top_octave);
    EXPECT_LT(idx, hist::kBucketCount);
  }
  EXPECT_EQ(hist::bucket_index(~std::uint64_t{0}), hist::kBucketCount - 1);
}

TEST(HistQuantiles, KnownBimodalDistribution) {
  hist::reset(1);
  hist::enable(true);
  // 1000 samples at ~100 ticks, 10 outliers at ~100000: p50/p99 sit in the
  // main mode, p999 must find the outliers (rank 1009+ of 1010).
  for (int i = 0; i < 1000; ++i) hist::record(Hist::kQueueWait, 100);
  for (int i = 0; i < 10; ++i) hist::record(Hist::kQueueWait, 100000);
  hist::enable(false);
  const hist::Snapshot s = hist::snapshot();
  EXPECT_EQ(s.count(Hist::kQueueWait), 1010u);
  EXPECT_EQ(s.max[static_cast<int>(Hist::kQueueWait)], 100000u);
  // Bucket midpoints: ±3% relative error is the structure's contract.
  EXPECT_GE(s.quantile(Hist::kQueueWait, 0.50), 95u);
  EXPECT_LE(s.quantile(Hist::kQueueWait, 0.50), 110u);
  EXPECT_LE(s.quantile(Hist::kQueueWait, 0.99), 110u);
  EXPECT_GE(s.quantile(Hist::kQueueWait, 0.999), 95000u);
  EXPECT_LE(s.quantile(Hist::kQueueWait, 0.999), 105000u);
  EXPECT_NEAR(s.mean(Hist::kQueueWait), 1100000.0 / 1010.0, 5.0);
  // Untouched histograms stay empty and report zero quantiles.
  EXPECT_EQ(s.count(Hist::kMigrateE2e), 0u);
  EXPECT_EQ(s.quantile(Hist::kMigrateE2e, 0.999), 0u);
}

TEST(HistSnapshot, MergeIsAssociativeAndCommutative) {
  auto fill = [](hist::Snapshot* s, std::uint64_t seed) {
    SplitMix64 r(seed);
    for (int h = 0; h < hist::kHistCount; ++h) {
      for (int i = 0; i < hist::kBucketCount; i += 17) {
        s->b[h][i] = r.next() % 1000;
      }
      s->sum[h] = r.next() % 1000000;
      s->max[h] = r.next() % 1000000;
    }
  };
  hist::Snapshot a, b, c;
  fill(&a, 0xA);
  fill(&b, 0xB);
  fill(&c, 0xC);

  hist::Snapshot ab_c = a;   // (a ⊕ b) ⊕ c
  ab_c.merge(b);
  ab_c.merge(c);
  hist::Snapshot bc = b;     // a ⊕ (b ⊕ c)
  bc.merge(c);
  hist::Snapshot a_bc = a;
  a_bc.merge(bc);
  hist::Snapshot ba = b;     // b ⊕ a
  ba.merge(a);
  hist::Snapshot ab = a;
  ab.merge(b);

  EXPECT_EQ(std::memcmp(ab_c.b, a_bc.b, sizeof ab_c.b), 0);
  EXPECT_EQ(std::memcmp(ab_c.sum, a_bc.sum, sizeof ab_c.sum), 0);
  EXPECT_EQ(std::memcmp(ab_c.max, a_bc.max, sizeof ab_c.max), 0);
  EXPECT_EQ(std::memcmp(ab.b, ba.b, sizeof ab.b), 0);
  EXPECT_EQ(std::memcmp(ab.sum, ba.sum, sizeof ab.sum), 0);
  EXPECT_EQ(std::memcmp(ab.max, ba.max, sizeof ab.max), 0);
}

TEST(HistStats, JsonDumpListsEveryHistogram) {
  hist::reset(1);
  hist::enable(true);
  for (int i = 0; i < 100; ++i) {
    hist::record(Hist::kHandlerService, 50 + i);
  }
  hist::enable(false);
  const std::string path = "obs_stats_unit.json";
  std::remove(path.c_str());
  ASSERT_TRUE(hist::write_stats_json(path));
  const std::string json = read_file(path);
  for (int h = 0; h < hist::kHistCount; ++h) {
    EXPECT_NE(json.find(std::string("\"") +
                        hist::to_string(static_cast<Hist>(h)) + "\""),
              std::string::npos);
  }
  EXPECT_NE(json.find("\"p999_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"proc\""), std::string::npos);
  std::remove(path.c_str());
}

// ---- Stats-dump names the benchmark runner reads ---------------------------
//
// mfcbench/run.py indexes the MFC_STATS dump by name: counters as c["..."],
// histogram quantiles as us("...", "..."), top-level keys as st["..."]. A
// name deleted or renamed here would crash every traced benchmark run, so
// the test reads run.py itself (path from tests/CMakeLists.txt) and
// checks that the dump still carries every name it asks for.

/// The `{...}` value of the first `"key":{` in `json`, braces included;
/// empty when the key is absent.
std::string json_object(const std::string& json, const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\":{");
  if (at == std::string::npos) return "";
  const std::size_t open = at + key.size() + 3;
  int depth = 0;
  for (std::size_t i = open; i < json.size(); ++i) {
    depth += json[i] == '{' ? 1 : json[i] == '}' ? -1 : 0;
    if (depth == 0) return json.substr(open, i + 1 - open);
  }
  return "";
}

/// Distinct capture-group tuples of every match of `re` in `text`.
std::set<std::vector<std::string>> captures(const std::string& text,
                                            const char* re) {
  std::set<std::vector<std::string>> out;
  const std::regex rx(re);
  for (std::sregex_iterator it(text.begin(), text.end(), rx), end;
       it != end; ++it) {
    std::vector<std::string> groups;
    for (std::size_t g = 1; g < it->size(); ++g) groups.push_back((*it)[g]);
    out.insert(groups);
  }
  return out;
}

TEST(HistStats, JsonDumpHasEveryNameTheBenchmarkReads) {
  const std::string runner = read_file(MFC_BENCH_RUN_PY);
  ASSERT_FALSE(runner.empty()) << "cannot read " << MFC_BENCH_RUN_PY;
  const auto counters = captures(runner, R"re(\bc\["([^"]+)"\])re");
  const auto quantiles =
      captures(runner, R"re(\bus\("([^"]+)",\s*"([^"]+)"\))re");
  auto keys = captures(runner, R"re(\bst\["([^"]+)"\])re");
  keys.insert({"nprocs"});
  ASSERT_FALSE(counters.empty()) << "no c[\"...\"] lookups in run.py";
  ASSERT_FALSE(quantiles.empty()) << "no us(...) lookups in run.py";

  hist::reset(1);
  const std::string path = "obs_stats_schema.json";
  std::remove(path.c_str());
  ASSERT_TRUE(hist::write_stats_json(path));
  const std::string json = read_file(path);
  std::remove(path.c_str());

  const std::string counter_obj = json_object(json, "counters");
  for (const auto& c : counters) {
    EXPECT_NE(counter_obj.find("\"" + c[0] + "\":"), std::string::npos)
        << "counter " << c[0];
  }
  const std::string hist_obj = json_object(json, "histograms");
  for (const auto& q : quantiles) {
    const std::string h = json_object(hist_obj, q[0]);
    EXPECT_NE(h.find("\"" + q[1] + "\":"), std::string::npos)
        << "histogram " << q[0] << " key " << q[1];
  }
  for (const auto& k : keys) {
    EXPECT_NE(json.find("\"" + k[0] + "\":"), std::string::npos)
        << "key " << k[0];
  }
}

// ---- Metrics snapshot provenance -------------------------------------------

TEST(MetricsProvenance, MergeUnionsMasksAndCollapsesMixedProc) {
  namespace metrics = mfc::metrics;
  metrics::Snapshot a, b;
  a.proc = 0;
  a.nprocs = 4;
  a.procs = 1u << 0;
  b.proc = 2;
  b.nprocs = 4;
  b.procs = 1u << 2;
  a.merge(b);
  EXPECT_EQ(a.proc, -1);  // mixed sources: no single owning process
  EXPECT_EQ(a.procs, (1u << 0) | (1u << 2));

  // Same-process merge keeps the owner and leaves the mask unchanged, so
  // double-merging one process's snapshot is detectable.
  metrics::Snapshot c, d;
  c.proc = d.proc = 1;
  c.nprocs = d.nprocs = 2;
  c.procs = d.procs = 1u << 1;
  c.merge(d);
  EXPECT_EQ(c.proc, 1);
  EXPECT_EQ(c.procs, 1u << 1);

  // A live snapshot carries whatever set_proc declared.
  metrics::set_proc(3, 4);
  const metrics::Snapshot live = metrics::snapshot();
  EXPECT_EQ(live.proc, 3);
  EXPECT_EQ(live.nprocs, 4);
  EXPECT_EQ(live.procs, std::uint64_t{1} << 3);
  metrics::set_proc(0, 1);
}

// ---- Flight recorder --------------------------------------------------------

TEST(Flight, NoteDumpAndFirstTriggerWins) {
  setenv("MFC_FLIGHT_FILE", "obs_flight_unit", 1);
  std::remove("obs_flight_unit.json");
  flight::init(4);
  ASSERT_TRUE(flight::on());
  flight::bind_pe(2);
  for (int r = 0; r < 3; ++r) {
    flight::note(trace::Ev::kStormRound, static_cast<std::uint64_t>(r));
  }
  flight::unbind_pe();
  flight::note(trace::Ev::kFtKill, 0, 0, 0, 1);  // unbound → "other" track

  EXPECT_FALSE(flight::dumped());
  EXPECT_TRUE(flight::dump("unit-test"));
  EXPECT_TRUE(flight::dumped());
  EXPECT_FALSE(flight::on());                 // frozen
  EXPECT_FALSE(flight::dump("second-trigger"));  // first trigger won
  EXPECT_EQ(flight::last_dump_path(), "obs_flight_unit.json");

  const std::string json = read_file("obs_flight_unit.json");
  EXPECT_NE(json.find("\"reason\":\"unit-test\""), std::string::npos);
  EXPECT_NE(json.find("\"PE 2\""), std::string::npos);
  EXPECT_NE(json.find("\"other\""), std::string::npos);
  EXPECT_NE(json.find("ft-kill"), std::string::npos);
  std::remove("obs_flight_unit.json");
  unsetenv("MFC_FLIGHT_FILE");
}

TEST(Flight, DropOldestBoundsTheBlackBox) {
  setenv("MFC_FLIGHT_FILE", "obs_flight_cap", 1);
  std::remove("obs_flight_cap.json");
  flight::init(1, 8);
  for (int i = 0; i < 100; ++i) {
    flight::note(trace::Ev::kStormRound, static_cast<std::uint64_t>(i));
  }
  ASSERT_TRUE(flight::dump("cap-test"));
  const std::string json = read_file("obs_flight_cap.json");
  EXPECT_NE(json.find("\"records\":\"8\""), std::string::npos);
  std::remove("obs_flight_cap.json");
  unsetenv("MFC_FLIGHT_FILE");
}

TEST(Flight, EnvGateDisablesRecorder) {
  setenv("MFC_FLIGHT", "0", 1);
  flight::init(1);
  EXPECT_FALSE(flight::on());
  EXPECT_FALSE(flight::dump("disabled"));
  unsetenv("MFC_FLIGHT");
  flight::init(1);  // restore the default-on recorder for later tests
  EXPECT_TRUE(flight::on());
}

// ---- Trace parts and the clock-aligned merge -------------------------------

TEST(TraceParts, TwoPartMergeAlignsFlowsAndIsDeterministic) {
  const std::string p0 = "obs_part_unit.part0";
  const std::string p1 = "obs_part_unit.part1";
  const std::string out1 = "obs_part_unit.json";
  const std::string out2 = "obs_part_unit.again.json";
  for (const auto& f : {p0, p1, out1, out2}) std::remove(f.c_str());

  // "Process 0": PEs 0-1 of a 4-PE machine. A send with flow id 0x77
  // starts the cross-process arrow.
  ASSERT_TRUE(trace::start(4));
  trace::set_proc(0, 2, 0, 2);
  trace::set_meta("obs", "part-unit");
  trace::bind_pe(0);
  trace::emit(trace::Ev::kStormRound, 0);
  trace::emit(trace::Ev::kMsgSend, 0x77, 1, 64, 2);
  trace::unbind_pe();
  bool ok = false;
  trace::stop_and_export_part(p0, &ok);
  ASSERT_TRUE(ok);

  // "Process 1": PEs 2-3, dispatching the same flow.
  ASSERT_TRUE(trace::start(4));
  trace::set_proc(1, 2, 2, 2);
  trace::bind_pe(2);
  trace::emit(trace::Ev::kHandlerBegin, 0x77, 1, 64, 0);
  trace::emit(trace::Ev::kHandlerEnd, 0, 1);
  trace::unbind_pe();
  ok = false;
  trace::stop_and_export_part(p1, &ok);
  ASSERT_TRUE(ok);

  std::string err;
  ASSERT_TRUE(trace::merge_parts({p0, p1}, out1, &err)) << err;
  const std::string json = read_file(out1);
  EXPECT_NE(json.find("\"mfc proc 0\""), std::string::npos);
  EXPECT_NE(json.find("\"mfc proc 1\""), std::string::npos);
  EXPECT_NE(json.find("\"parts\":\"2\""), std::string::npos);
  EXPECT_NE(json.find("\"obs\":\"part-unit\""), std::string::npos);

  const std::vector<EvLine> evs = parse_events(json);
  EXPECT_GE(count_cross_pid_flows(evs, "msg"), 1)
      << "flow 0x77 should span both process track groups";
  expect_tracks_monotonic(evs);

  // Deterministic merge: same parts, byte-identical output.
  ASSERT_TRUE(trace::merge_parts({p0, p1}, out2, &err)) << err;
  EXPECT_EQ(read_file(out1), read_file(out2));

  for (const auto& f : {p0, p1, out1, out2}) std::remove(f.c_str());
}

TEST(TraceParts, RejectsCorruptAndMissingParts) {
  const std::string bad = "obs_part_bad.part0";
  {
    // Longer than the fixed 88-byte part header, so the reader gets far
    // enough to check (and reject) the magic rather than hit EOF first.
    std::ofstream out(bad, std::ios::binary);
    for (int i = 0; i < 8; ++i) out << "this is not a trace part ";
  }
  std::string err;
  EXPECT_FALSE(trace::merge_parts({bad}, "obs_part_bad.json", &err));
  EXPECT_NE(err.find("magic"), std::string::npos) << err;
  err.clear();
  EXPECT_FALSE(
      trace::merge_parts({"obs_no_such.part0"}, "obs_part_bad.json", &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(trace::merge_parts({}, "obs_part_bad.json", &err));
  std::remove(bad.c_str());
}

// ---- Machine-integrated legs -----------------------------------------------
//
// A compact cross-process migration driver (a trimmed cousin of the
// transport battery's mini-storm): workers on all three techniques hop
// along seed-derived itineraries, shipping as scatter-gather manifests;
// verdicts funnel to PE 0. Run with MFC_TRACE=1, the machine's own
// shutdown path must merge the per-process parts into one timeline.

struct ObDock {
  std::int32_t wid = 0;
  std::int32_t hop = 0;
  void pup(mfc::pup::Er& p) { p | wid | hop; }
};

struct ObShip {
  std::int32_t wid = 0;
  std::int32_t hop = 0;
  std::vector<char> wire;
  void pup(mfc::pup::Er& p) { p | wid | hop | wire; }
};

struct ObDone {
  std::int32_t wid = 0;
  std::uint64_t failures = 0;
  void pup(mfc::pup::Er& p) { p | wid | failures; }
};

struct ObState {
  std::uint64_t seed = 1;
  int npes = 4;
  int workers = 6;
  int hops = 2;
  std::size_t stack_bytes = 16 * 1024;

  std::mutex mu;
  std::unordered_map<int, mfc::migrate::MigratableThread*> threads;
  std::unordered_map<int, mfc::ult::Thread*> parked_mains;
  /// PEs whose h_ob_finish arrived before their main parked: a PE thread that
  /// starts late can dispatch it before its main first runs.
  std::unordered_set<int> finished;

  // PE 0 (parent process) coordinator state.
  int dones = 0;
  std::uint64_t failures = 0;
  mfc::ult::Thread* coordinator = nullptr;
  bool waiting_dones = false;
};
ObState* g_ob = nullptr;

int ob_dest(const ObState& s, int wid, int hop) {
  SplitMix64 r(s.seed ^ (static_cast<std::uint64_t>(wid) * 1000003ULL +
                         static_cast<std::uint64_t>(hop)));
  return static_cast<int>(r.next() % static_cast<std::uint64_t>(s.npes));
}

cv::HandlerId h_ob_dock, h_ob_ship, h_ob_done, h_ob_finish;

// wid arrives as a lambda capture and from then on lives in this frame —
// i.e. on the migrating stack. Keying identity off ult thread ids would be
// wrong here: the id counter is forked, so workers born in different
// processes can collide.
void ob_worker_body(int wid) {
  ObState* s = g_ob;
  std::uint64_t failures = 0;
  for (int hop = 0; hop < s->hops; ++hop) {
    const int dest = ob_dest(*s, wid, hop);
    cv::send_value(cv::my_pe(), h_ob_dock, ObDock{wid, hop});
    mfc::ult::suspend();
    if (cv::my_pe() != dest) ++failures;  // woke on the wrong PE
  }
  cv::send_value(0, h_ob_done, ObDone{wid, failures});
}

mfc::migrate::MigratableThread* ob_make_worker(const ObState& s, int wid,
                                               int pe) {
  const auto body = [wid] { ob_worker_body(wid); };
  switch (wid % 3) {
    case 0:
      return new mfc::migrate::StackCopyThread(body, s.stack_bytes);
    case 1:
      return new mfc::migrate::IsoThread(body, pe, s.stack_bytes);
    default:
      return new mfc::migrate::MemAliasThread(body, s.stack_bytes);
  }
}

void ensure_ob_handlers() {
  static std::once_flag once;
  std::call_once(once, [] {
    h_ob_dock = cv::register_handler([](cv::Message&& m) {
      ObState* s = g_ob;
      const auto d = m.as<ObDock>();
      mfc::migrate::MigratableThread* t;
      {
        std::lock_guard<std::mutex> lock(s->mu);
        t = s->threads.at(d.wid);
        s->threads.erase(d.wid);
      }
      mfc::migrate::ImageManifest man = t->pack_manifest(true);
      std::vector<char> scratch;
      const auto img_spans = man.wire_spans(&scratch);
      std::size_t wire_len = 0;
      for (const auto& r : img_spans) wire_len += r.len;

      std::int32_t wid = d.wid, hop = d.hop;
      mfc::pup::Sizer sz;
      sz | wid | hop;
      std::vector<char> prefix(sz.size() + sizeof(std::size_t));
      mfc::pup::MemPacker p(prefix.data(), prefix.size());
      p | wid | hop;
      std::size_t len_word = wire_len;
      p.bytes(&len_word, sizeof len_word);

      std::vector<cv::SendSpan> spans;
      spans.reserve(img_spans.size() + 1);
      spans.push_back({prefix.data(), prefix.size()});
      for (const auto& r : img_spans) spans.push_back({r.data, r.len});

      cv::send_spans(ob_dest(*s, d.wid, d.hop), h_ob_ship, spans.data(),
                     spans.size(), [t] {
                       t->complete_pack();
                       delete t;
                     });
    });
    h_ob_ship = cv::register_handler([](cv::Message&& m) {
      ObState* s = g_ob;
      auto ship = m.as<ObShip>();
      mfc::migrate::ImageManifest image;
      MFC_CHECK(mfc::migrate::ImageManifest::decode(ship.wire, &image) ==
                mfc::migrate::CodecError::kOk);
      auto* t = mfc::migrate::MigratableThread::unpack(image, cv::my_pe());
      t->set_delete_on_exit(true);
      {
        std::lock_guard<std::mutex> lock(s->mu);
        s->threads[ship.wid] = t;
      }
      cv::ready_thread(t);
    });
    h_ob_done = cv::register_handler([](cv::Message&& m) {
      ObState* s = g_ob;
      const auto done = m.as<ObDone>();
      s->failures += done.failures;
      if (++s->dones == s->workers && s->waiting_dones) {
        s->waiting_dones = false;
        cv::ready_thread(s->coordinator);
      }
    });
    h_ob_finish = cv::register_handler([](cv::Message&&) {
      ObState* s = g_ob;
      mfc::ult::Thread* main = nullptr;
      {
        std::lock_guard<std::mutex> lock(s->mu);
        auto it = s->parked_mains.find(cv::my_pe());
        if (it != s->parked_mains.end()) {
          main = it->second;
          s->parked_mains.erase(it);
        } else {
          s->finished.insert(cv::my_pe());
        }
      }
      if (main != nullptr) cv::ready_thread(main);
    });
  });
}

void ob_entry(int pe) {
  ObState* s = g_ob;
  for (int w = 0; w < s->workers; ++w) {
    if (w % s->npes != pe) continue;
    auto* t = ob_make_worker(*s, w, pe);
    t->set_delete_on_exit(true);
    {
      std::lock_guard<std::mutex> lock(s->mu);
      s->threads[w] = t;
    }
    cv::ready_thread(t);
  }
  if (pe != 0) {
    {
      std::lock_guard<std::mutex> lock(s->mu);
      if (s->finished.count(pe) != 0) return;
      s->parked_mains[pe] = cv::pe_scheduler().running();
    }
    mfc::ult::suspend();  // until h_ob_finish
    return;
  }
  s->coordinator = cv::pe_scheduler().running();
  if (s->dones < s->workers) {
    s->waiting_dones = true;
    mfc::ult::suspend();
  }
  cv::broadcast(h_ob_finish, {});
  cv::wait_quiescence();
}

[[maybe_unused]] std::uint64_t run_ob_storm(int npes, int nprocs, int workers,
                                            int hops, std::uint64_t seed) {
  ensure_ob_handlers();
  auto s = std::make_unique<ObState>();
  s->seed = seed;
  s->npes = npes;
  s->workers = workers;
  s->hops = hops;
  g_ob = s.get();

  cv::Machine::Config mc;
  mc.npes = npes;
  mc.nprocs = nprocs;
  mc.transport = cv::Machine::Config::Transport::kShm;
  mc.iso_slot_bytes = 16 * 1024;
  mc.iso_slots_per_pe = 64;
  cv::Machine::run(mc, ob_entry);

  EXPECT_EQ(s->dones, workers);
  const std::uint64_t failures = s->failures;
  g_ob = nullptr;
  return failures;
}

#ifndef MFC_TSAN

TEST(ObsMachine, TwoProcTraceMergesToOneAlignedTimeline) {
  const std::string base = "obs_machine_merge.json";
  for (const auto& f : {base, base + ".part0", base + ".part1",
                        base + ".remerge"}) {
    std::remove(f.c_str());
  }
  setenv("MFC_TRACE", "1", 1);
  setenv("MFC_TRACE_FILE", base.c_str(), 1);
  const std::uint64_t failures = run_ob_storm(4, 2, 6, 2, 0x0B51);
  unsetenv("MFC_TRACE");
  unsetenv("MFC_TRACE_FILE");
  EXPECT_EQ(failures, 0u);

  // The parent's shutdown path merged both parts into the base file.
  const std::string json = read_file(base);
  ASSERT_FALSE(json.empty()) << "machine did not write the merged timeline";
  EXPECT_NE(json.find("\"parts\":\"2\""), std::string::npos);
  EXPECT_NE(json.find("\"mfc proc 0\""), std::string::npos);
  EXPECT_NE(json.find("\"mfc proc 1\""), std::string::npos);
  // Shm frames are delivered by the receiving process's PE threads, so the
  // wire's deliveries sit on PE tracks.
  EXPECT_NE(json.find("\"wire-deliver\""), std::string::npos);

  const std::vector<EvLine> evs = parse_events(json);
  expect_tracks_monotonic(evs);
  EXPECT_GE(count_cross_pid_flows(evs, ""), 1)
      << "no flow arrow spans the two process track groups";

  // The parts stay on disk for postmortem re-merging (tools/trace_merge);
  // re-merging them must reproduce the machine's output byte for byte.
  std::string err;
  ASSERT_TRUE(trace::merge_parts({base + ".part0", base + ".part1"},
                                 base + ".remerge", &err))
      << err;
  EXPECT_EQ(read_file(base + ".remerge"), json);

  for (const auto& f : {base, base + ".part0", base + ".part1",
                        base + ".remerge"}) {
    std::remove(f.c_str());
  }
}

TEST(ObsMachine, Acceptance64Pe4ProcStormHasCrossProcessMigrateFlow) {
  const std::string base = "obs_machine_accept.json";
  std::remove(base.c_str());
  setenv("MFC_TRACE", "1", 1);
  setenv("MFC_TRACE_FILE", base.c_str(), 1);
  const std::uint64_t failures = run_ob_storm(64, 4, 12, 2, 0xACC3);
  unsetenv("MFC_TRACE");
  unsetenv("MFC_TRACE_FILE");
  EXPECT_EQ(failures, 0u);

  const std::string json = read_file(base);
  ASSERT_FALSE(json.empty());
  EXPECT_NE(json.find("\"parts\":\"4\""), std::string::npos);
  const std::vector<EvLine> evs = parse_events(json);
  expect_tracks_monotonic(evs);
  // The acceptance arrow: a thread packed in one process and unpacked in
  // another ties its pack→unpack flow across two track groups.
  EXPECT_GE(count_cross_pid_flows(evs, "migrate"), 1)
      << "no pack→unpack flow crosses a process boundary";
  EXPECT_GE(count_cross_pid_flows(evs, "msg"), 1);

  std::remove(base.c_str());
  for (int p = 0; p < 4; ++p) {
    std::remove((base + ".part" + std::to_string(p)).c_str());
  }
}

#endif  // !MFC_TSAN

TEST(ObsMachine, FtKillStormWithTraceOffStillDumpsFlight) {
  // The black-box contract: tracing disabled, histograms disabled — the
  // first PE kill must still freeze and dump the flight recorder.
  unsetenv("MFC_TRACE");
  setenv("MFC_FLIGHT_FILE", "obs_flight_ft", 1);
  std::remove("obs_flight_ft.json");

  mfc::chaos::StormOptions opt;
  opt.seed = 17;
  opt.npes = 4;
  opt.workers = 6;
  opt.rounds = 8;
  opt.chaos.seed = 17;
  opt.ft_checkpoint_every = 2;
  opt.ft_kill_every = 2;
  opt.ft_timeout_us = 200000;
  const mfc::chaos::StormReport r = mfc::chaos::run_storm(opt);
  unsetenv("MFC_FLIGHT_FILE");

  EXPECT_TRUE(r.clean());
  EXPECT_GT(r.ft_kills, 0u);
  EXPECT_FALSE(r.traced);

  const std::string json = read_file("obs_flight_ft.json");
  ASSERT_FALSE(json.empty()) << "kill storm left no flight dump";
  EXPECT_NE(json.find("\"reason\":\"ft-kill\""), std::string::npos);
  EXPECT_NE(json.find("ft-checkpoint"), std::string::npos);
  std::remove("obs_flight_ft.json");
}

TEST(ObsMachine, HistogramsPopulateAcrossTheStormPath) {
  hist::reset(4);
  hist::enable(true);
  mfc::chaos::StormOptions opt;
  opt.seed = 29;
  opt.npes = 4;
  opt.workers = 6;
  opt.rounds = 4;
  opt.chaos.seed = 29;
  opt.transport = 1;  // shm loopback: the wire path feeds the stamps too
  const mfc::chaos::StormReport r = mfc::chaos::run_storm(opt);
  hist::enable(false);
  EXPECT_TRUE(r.clean());

  const hist::Snapshot s = hist::snapshot();
  for (Hist h : {Hist::kQueueWait, Hist::kHandlerService, Hist::kMigratePack,
                 Hist::kMigrateUnpack, Hist::kMigrateE2e}) {
    EXPECT_GT(s.count(h), 0u) << hist::to_string(h);
    EXPECT_LE(s.quantile(h, 0.50), s.quantile(h, 0.99)) << hist::to_string(h);
    EXPECT_LE(s.quantile(h, 0.99), s.quantile(h, 0.999))
        << hist::to_string(h);
  }
  // Every migration packs exactly once and unpacks exactly once.
  EXPECT_EQ(s.count(Hist::kMigratePack), s.count(Hist::kMigrateUnpack));
  EXPECT_EQ(s.count(Hist::kMigrateE2e), s.count(Hist::kMigrateUnpack));
}

}  // namespace
