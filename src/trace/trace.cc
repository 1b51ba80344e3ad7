#include "trace/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "trace/export_internal.h"
#include "util/check.h"
#include "util/digest.h"

namespace mfc::trace {

namespace detail {
bool g_on = false;
}

namespace {

// 8Ki records (256 KB) per PE: ~4x the event volume of a full storm run,
// and small enough to stay cache-resident — a larger default measurably
// slows traced runs by streaming cold lines through the cache (the 64Ki
// default this replaced cost ~3% extra on the pingpong overhead bench).
// Deep triage windows opt in via MFC_TRACE_CAP.
constexpr std::size_t kDefaultRingCap = std::size_t{1} << 13;

struct Session {
  // rings[0..npes-1] are the PE rings; rings[npes] is the wire ring the
  // transport comm thread binds (bind_comm).
  std::vector<std::unique_ptr<Ring>> rings;
  int npes = 0;
  // rdtsc ↔ steady_clock calibration samples. ns_per_tick is computed once
  // at stop from (steady elapsed / tsc elapsed) — one long baseline beats
  // a short warm-up measurement. mono0_ns anchors this process's timeline
  // on the machine-shared monotonic clock so parts from forked processes
  // merge onto one axis.
  std::uint64_t tsc0 = 0;
  std::chrono::steady_clock::time_point wall0;
  std::int64_t mono0_ns = 0;
  // Multi-process placement (set_proc).
  int proc = 0;
  int nprocs = 1;
  int local_first = 0;
  int local_npes = 0;  // 0 ⇒ set_proc never called: all rings are local
  std::map<std::string, std::string> meta;
  std::mutex meta_mu;
};

Session* g_session = nullptr;
Summary g_last;

std::size_t env_ring_cap() {
  if (const char* env = std::getenv("MFC_TRACE_CAP");
      env != nullptr && *env != '\0') {
    char* end = nullptr;
    unsigned long long v = std::strtoull(env, &end, 0);
    if (end != nullptr && *end == '\0' && v > 0) {
      return static_cast<std::size_t>(v);
    }
  }
  return kDefaultRingCap;
}

Summary summarize(const Session& s) {
  Summary out;
  out.npes = s.npes;
  for (const auto& ring : s.rings) {
    for (int e = 0; e < kEvCount; ++e) {
      out.by_type[e] += ring->count(static_cast<Ev>(e));
    }
    out.retained += ring->size();
    out.dropped += ring->dropped();
  }
  for (int e = 0; e < kEvCount; ++e) out.emitted += out.by_type[e];
  return out;
}

void teardown(Session* s) {
  detail::g_epoch.fetch_add(1, std::memory_order_relaxed);
  delete s;
  g_session = nullptr;
}

// ---- Chrome trace-event JSON export --------------------------------------
//
// All numbers are printed with integer math (no %f) so the output is
// byte-identical under any LC_NUMERIC — a trace written under de_DE must
// not contain `1,5`.

/// Appends `s` JSON-escaped (quotes, backslashes, control chars).
void json_escape(std::string& out, const std::string& s) {
  for (char ch : s) {
    unsigned char u = static_cast<unsigned char>(ch);
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", u);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
}

class JsonWriter {
 public:
  explicit JsonWriter(std::FILE* f) : f_(f) {}

  /// Process (track group) for subsequent events. Single-process exports
  /// stay at pid 0; the multi-process merge sets the originating proc id
  /// so each process renders as its own Perfetto track group.
  void set_pid(int pid) { pid_ = pid; }

  /// Starts one trace event object; follow with field() calls + done().
  void event(const char* name, char phase, int tid, std::uint64_t ts_ns) {
    std::string esc;
    json_escape(esc, name);
    std::fprintf(f_, "%s{\"name\":\"%s\",\"ph\":\"%c\",\"pid\":%d,\"tid\":%d,"
                 "\"ts\":%llu.%03llu",
                 first_ ? "" : ",\n", esc.c_str(), phase, pid_, tid,
                 static_cast<unsigned long long>(ts_ns / 1000),
                 static_cast<unsigned long long>(ts_ns % 1000));
    first_ = false;
  }
  void raw(const char* key, const char* value) {
    std::fprintf(f_, ",\"%s\":%s", key, value);
  }
  void num(const char* key, long long value) {
    std::fprintf(f_, ",\"%s\":%lld", key, value);
  }
  /// Flow-event id as a hex string: ids use high bits for namespacing and
  /// would lose precision as JSON doubles.
  void id(std::uint64_t v) {
    std::fprintf(f_, ",\"id\":\"0x%llx\"",
                 static_cast<unsigned long long>(v));
  }
  void args_begin() { std::fprintf(f_, ",\"args\":{"); }
  void arg_num(const char* key, long long value, bool first = false) {
    std::fprintf(f_, "%s\"%s\":%lld", first ? "" : ",", key, value);
  }
  void args_end() { std::fprintf(f_, "}"); }
  void done() { std::fprintf(f_, "}"); }

 private:
  std::FILE* f_;
  int pid_ = 0;
  bool first_ = true;
};

const char* technique_name(std::uint8_t c) {
  switch (c) {
    case 1: return "stackcopy";
    case 2: return "iso";
    case 3: return "memalias";
  }
  return "?";
}

const char* wire_kind_name(std::uint32_t k) {
  switch (k) {
    case 0: return "eager";
    case 1: return "chunk";
  }
  return "?";
}

/// Per-track export pass over one ring's retained records. Records are
/// already chronological (single writer, monotonic per-core rdtsc); a
/// per-track clamp keeps B/E sane if the kernel migrated the PE thread
/// across cores with unsynced TSCs. `base_ns` offsets the whole track —
/// the multi-process merge aligns each part's monotonic anchor there.
void export_records(JsonWriter& w, const Record* recs, std::size_t n,
                    int tid, std::uint64_t tsc0, double ns_per_tick,
                    std::uint64_t base_ns) {
  std::vector<std::string> open;  // names of open B slices, innermost last
  std::uint64_t last_ns = base_ns;
  char name[64];

  auto to_ns = [&](std::uint64_t tsc) {
    double ns = tsc >= tsc0
                    ? static_cast<double>(tsc - tsc0) * ns_per_tick
                    : 0.0;
    auto v = base_ns + static_cast<std::uint64_t>(ns < 0.0 ? 0.0 : ns);
    if (v < last_ns) v = last_ns;  // keep each track monotonic
    last_ns = v;
    return v;
  };

  auto begin = [&](const char* n, std::uint64_t ns) {
    w.event(n, 'B', tid, ns);
    open.emplace_back(n);
  };
  // Drop-oldest truncation can orphan an E whose B wrapped out of the ring;
  // close only when the innermost open slice matches, else skip the E.
  auto end = [&](const char* n, std::uint64_t ns) -> bool {
    if (open.empty() || open.back() != n) return false;
    open.pop_back();
    w.event(n, 'E', tid, ns);
    return true;
  };

  for (std::size_t i = 0; i < n; ++i) {
    const Record& r = recs[i];
    const std::uint64_t ns = to_ns(r.tsc);
    switch (static_cast<Ev>(r.ev)) {
      case Ev::kHandlerBegin:
        std::snprintf(name, sizeof(name), "handler#%u", r.a);
        begin(name, ns);
        w.args_begin();
        w.arg_num("handler", r.a, true);
        w.arg_num("bytes", r.size);
        if (r.b >= 0) w.arg_num("src", r.b);
        w.args_end();
        w.done();
        if (r.arg != 0) {  // cross-PE message: finish the flow arrow here
          w.event("msg", 'f', tid, ns);
          w.raw("cat", "\"flow\"");
          w.raw("bp", "\"e\"");
          w.id(r.arg);
          w.done();
        }
        break;
      case Ev::kHandlerEnd:
        std::snprintf(name, sizeof(name), "handler#%u", r.a);
        if (end(name, ns)) w.done();
        break;
      case Ev::kMsgSend:
        w.event("send", 'i', tid, ns);
        w.raw("s", "\"t\"");
        w.args_begin();
        w.arg_num("dest", r.b, true);
        w.arg_num("bytes", r.size);
        w.arg_num("handler", r.a);
        w.args_end();
        w.done();
        if (r.arg != 0) {  // flow start binds to the enclosing slice
          w.event("msg", 's', tid, ns);
          w.raw("cat", "\"flow\"");
          w.id(r.arg);
          w.done();
        }
        break;
      case Ev::kUltSwitchIn:
        std::snprintf(name, sizeof(name), "ult#%llu",
                      static_cast<unsigned long long>(r.arg));
        begin(name, ns);
        w.done();
        break;
      case Ev::kUltSwitchOut:
        std::snprintf(name, sizeof(name), "ult#%llu",
                      static_cast<unsigned long long>(r.arg));
        if (end(name, ns)) w.done();
        break;
      case Ev::kMigratePackBegin:
      case Ev::kMigrateUnpackBegin: {
        const bool pack = static_cast<Ev>(r.ev) == Ev::kMigratePackBegin;
        std::snprintf(name, sizeof(name), "%s:%s", pack ? "pack" : "unpack",
                      technique_name(r.c));
        begin(name, ns);
        w.args_begin();
        w.arg_num("thread", static_cast<long long>(r.arg), true);
        w.args_end();
        w.done();
        if (!pack) {  // migration flow arrow lands on the unpack slice
          w.event("migrate", 'f', tid, ns);
          w.raw("cat", "\"migrate\"");
          w.raw("bp", "\"e\"");
          w.id((std::uint64_t{1} << 63) | r.arg);
          w.done();
        }
        break;
      }
      case Ev::kMigratePackEnd:
      case Ev::kMigrateUnpackEnd: {
        const bool pack = static_cast<Ev>(r.ev) == Ev::kMigratePackEnd;
        std::snprintf(name, sizeof(name), "%s:%s", pack ? "pack" : "unpack",
                      technique_name(r.c));
        if (end(name, ns)) {
          w.args_begin();
          w.arg_num("bytes", r.size, true);
          w.args_end();
          w.done();
        }
        if (pack) {  // migration flow departs from the pack slice
          w.event("migrate", 's', tid, ns);
          w.raw("cat", "\"migrate\"");
          w.id((std::uint64_t{1} << 63) | r.arg);
          w.done();
        }
        break;
      }
      case Ev::kElemDepart:
      case Ev::kElemArrive: {
        const bool depart = static_cast<Ev>(r.ev) == Ev::kElemDepart;
        w.event(depart ? "elem-depart" : "elem-arrive", 'X', tid, ns);
        w.raw("dur", "0.500");  // sliver wide enough to anchor a flow arrow
        w.args_begin();
        w.arg_num("index", r.a, true);
        if (r.b >= 0) w.arg_num("peer", r.b);
        w.args_end();
        w.done();
        if (r.arg != 0) {
          w.event("elem", depart ? 's' : 'f', tid, ns);
          w.raw("cat", "\"elem\"");
          if (!depart) w.raw("bp", "\"e\"");
          w.id(r.arg);
          w.done();
        }
        break;
      }
      case Ev::kUltCreate:
      case Ev::kUltSuspend:
      case Ev::kUltResume: {
        const char* what =
            static_cast<Ev>(r.ev) == Ev::kUltCreate
                ? "ult-create"
                : static_cast<Ev>(r.ev) == Ev::kUltSuspend ? "ult-suspend"
                                                           : "ult-resume";
        w.event(what, 'i', tid, ns);
        w.raw("s", "\"t\"");
        w.args_begin();
        w.arg_num("thread", static_cast<long long>(r.arg), true);
        w.args_end();
        w.done();
        break;
      }
      case Ev::kIsoSlotAcquire:
      case Ev::kIsoSlotRelease:
        w.event(static_cast<Ev>(r.ev) == Ev::kIsoSlotAcquire ? "iso-acquire"
                                                             : "iso-release",
                'i', tid, ns);
        w.raw("s", "\"t\"");
        w.args_begin();
        w.arg_num("slot", r.a, true);
        w.arg_num("count", r.size);
        w.args_end();
        w.done();
        break;
      case Ev::kLbDecision:
        w.event("lb-decision", 'i', tid, ns);
        w.raw("s", "\"t\"");
        w.args_begin();
        w.arg_num("migrations", r.a, true);
        w.args_end();
        w.done();
        break;
      case Ev::kChaosInject:
        std::snprintf(name, sizeof(name), "chaos#%u", r.c);
        w.event(name, 'i', tid, ns);
        w.raw("s", "\"t\"");
        w.args_begin();
        w.arg_num("point", r.c, true);
        w.arg_num("seed", static_cast<long long>(r.arg));
        w.args_end();
        w.done();
        break;
      case Ev::kStormRound:
        std::snprintf(name, sizeof(name), "round#%u", r.a);
        w.event(name, 'i', tid, ns);
        w.raw("s", "\"t\"");
        w.done();
        break;
      case Ev::kFtCheckpointBegin:
        begin("ft-checkpoint", ns);
        w.args_begin();
        w.arg_num("epoch", static_cast<long long>(r.arg), true);
        w.args_end();
        w.done();
        break;
      case Ev::kFtCheckpointEnd:
        if (end("ft-checkpoint", ns)) {
          w.args_begin();
          w.arg_num("bytes", r.size, true);
          w.args_end();
          w.done();
        }
        break;
      case Ev::kFtRecoveryBegin:
        begin("ft-recovery", ns);
        w.args_begin();
        if (r.b >= 0) w.arg_num("victim", r.b, true);
        w.args_end();
        w.done();
        break;
      case Ev::kFtRecoveryEnd:
        if (end("ft-recovery", ns)) {
          w.args_begin();
          w.arg_num("epoch", static_cast<long long>(r.arg), true);
          w.args_end();
          w.done();
        }
        break;
      case Ev::kFtKill:
      case Ev::kFtDetect:
        w.event(static_cast<Ev>(r.ev) == Ev::kFtKill ? "ft-kill"
                                                     : "ft-detect",
                'i', tid, ns);
        w.raw("s", "\"t\"");
        w.args_begin();
        if (r.b >= 0) w.arg_num("victim", r.b, true);
        w.args_end();
        w.done();
        break;
      case Ev::kFtProcDown:
      case Ev::kFtProcRespawn:
        w.event(static_cast<Ev>(r.ev) == Ev::kFtProcDown ? "ft-proc-down"
                                                         : "ft-proc-respawn",
                'i', tid, ns);
        w.raw("s", "\"g\"");
        w.args_begin();
        w.arg_num("proc", r.a, true);
        if (static_cast<Ev>(r.ev) == Ev::kFtProcRespawn) {
          w.arg_num("generation", static_cast<long long>(r.arg));
        } else if (r.b >= 0) {
          w.arg_num("first_pe", r.b);
        }
        w.args_end();
        w.done();
        break;
      case Ev::kWireSendBegin:
        std::snprintf(name, sizeof(name), "wire-send:%s",
                      wire_kind_name(r.a));
        begin(name, ns);
        w.args_begin();
        w.arg_num("dest", r.b, true);
        w.args_end();
        w.done();
        if (r.arg != 0) {  // the message's flow passes through this span
          w.event("msg", 't', tid, ns);
          w.raw("cat", "\"flow\"");
          w.id(r.arg);
          w.done();
        }
        break;
      case Ev::kWireSendEnd:
        std::snprintf(name, sizeof(name), "wire-send:%s",
                      wire_kind_name(r.a));
        if (end(name, ns)) {
          w.args_begin();
          w.arg_num("bytes", r.size, true);
          w.args_end();
          w.done();
        }
        break;
      case Ev::kWireDeliver:
        w.event("wire-deliver", 'i', tid, ns);
        w.raw("s", "\"t\"");
        w.args_begin();
        w.arg_num("bytes", r.size, true);
        if (r.b >= 0) w.arg_num("src", r.b);
        w.args_end();
        w.done();
        if (r.arg != 0) {  // flow step: send → (wire deliver) → dispatch
          w.event("msg", 't', tid, ns);
          w.raw("cat", "\"flow\"");
          w.id(r.arg);
          w.done();
        }
        break;
      case Ev::kWireAsmBegin:
      case Ev::kWireAsmEnd: {
        // An async slice, not B/E: a PE draining the shm rings can start
        // an assembly inside one span and finish it inside another. One
        // assembly per source PE is open per track at a time, so the
        // source PE names it.
        const bool open_asm = static_cast<Ev>(r.ev) == Ev::kWireAsmBegin;
        w.event("wire-chunk-asm", open_asm ? 'b' : 'e', tid, ns);
        w.raw("cat", "\"wire\"");
        w.id((std::uint64_t{1} << 62) |
             static_cast<std::uint16_t>(r.b < 0 ? 0 : r.b));
        w.args_begin();
        if (open_asm) {
          w.arg_num("msg", static_cast<long long>(r.arg), true);
          w.arg_num("total", r.size);
        } else {
          w.arg_num("bytes", r.size, true);
        }
        w.args_end();
        w.done();
        break;
      }
      case Ev::kCount:
        break;
    }
  }
  // Close slices still open at session stop so Perfetto draws them bounded.
  while (!open.empty()) {
    w.event(open.back().c_str(), 'E', tid, last_ns);
    w.done();
    open.pop_back();
  }
}

/// Copies a ring's retained records into chronological order (the ring's
/// storage wraps; exports and parts want a flat oldest-first run).
std::vector<Record> flatten(const Ring& ring) {
  std::vector<Record> out;
  out.reserve(ring.size());
  for (std::size_t i = 0; i < ring.size(); ++i) out.push_back(ring.at(i));
  return out;
}

/// Track (tid) label: PE rings are "PE n"; the extra comm-thread ring is
/// the process's "wire" track.
void write_thread_name(JsonWriter& w, std::FILE* f, int tid, int npes) {
  char tname[32];
  if (tid == npes) {
    std::snprintf(tname, sizeof(tname), "\"wire\"");
  } else {
    std::snprintf(tname, sizeof(tname), "\"PE %d\"", tid);
  }
  w.event("thread_name", 'M', tid, 0);
  w.args_begin();
  std::fprintf(f, "\"name\":%s", tname);
  w.args_end();
  w.done();
}

bool export_json(Session& s, const std::string& path, double ns_per_tick,
                 const Summary& summary) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  JsonWriter w(f);
  w.event("process_name", 'M', 0, 0);
  w.args_begin();
  std::fprintf(f, "\"name\":\"mfc\"");
  w.args_end();
  w.done();
  for (const auto& ring : s.rings) {
    // The wire track only exists when a wire transport ran (loopback or
    // multi-process); keep single-process traces byte-stable otherwise.
    if (ring->pe() == s.npes && ring->size() == 0) continue;
    write_thread_name(w, f, ring->pe(), s.npes);
  }
  for (const auto& ring : s.rings) {
    const std::vector<Record> recs = flatten(*ring);
    export_records(w, recs.data(), recs.size(), ring->pe(), s.tsc0,
                   ns_per_tick, 0);
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{");
  std::fprintf(f, "\"npes\":\"%d\",\"emitted\":\"%llu\",\"dropped\":\"%llu\"",
               summary.npes,
               static_cast<unsigned long long>(summary.emitted),
               static_cast<unsigned long long>(summary.dropped));
  {
    std::lock_guard<std::mutex> lock(s.meta_mu);
    for (const auto& [key, value] : s.meta) {
      std::string k, v;
      json_escape(k, key);
      json_escape(v, value);
      std::fprintf(f, ",\"%s\":\"%s\"", k.c_str(), v.c_str());
    }
  }
  std::fprintf(f, "}}\n");
  bool ok = std::ferror(f) == 0;
  if (std::fclose(f) != 0) ok = false;
  return ok;
}

// ---- binary trace parts (multi-process merge) ----------------------------
//
// A part is one process's share of a machine run: the raw 32-byte records
// of its local PE rings + wire ring, plus everything needed to place them
// on a machine-global time axis — the rdtsc/monotonic anchor and this
// process's tick-rate calibration. The processes of one machine are forked
// on one host and share CLOCK_MONOTONIC, so the anchors alone align them.
// Same-host binary (written and read on one machine), so the structs are
// fwritten directly; magic+version reject foreign or stale files.

constexpr char kPartMagic[8] = {'M', 'F', 'C', 'P', 'A', 'R', 'T', '1'};

struct PartHead {
  char magic[8];
  std::uint32_t version;
  std::int32_t proc;
  std::int32_t nprocs;
  std::int32_t npes;
  std::int32_t nrings;
  std::int32_t meta_count;
  std::uint32_t pad0;
  std::uint32_t pad1;
  std::uint64_t tsc0;
  std::int64_t mono0_ns;
  std::int64_t reserved;  ///< written 0; keeps the 88-byte layout
  double ns_per_tick;
  std::uint64_t emitted;
  std::uint64_t dropped;
};
static_assert(sizeof(PartHead) == 88, "part header is fixed-layout");

struct PartRingHead {
  std::int32_t pe;
  std::uint32_t nrecords;
};
static_assert(sizeof(PartRingHead) == 8, "ring header is fixed-layout");

bool write_part(Session& s, const std::string& path, double ns_per_tick,
                const Summary& summary) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  // A part carries only the rings this process wrote: its local PE range
  // (everything when set_proc was never called) plus a non-empty wire ring.
  const int lo = s.local_npes > 0 ? s.local_first : 0;
  const int hi = s.local_npes > 0 ? s.local_first + s.local_npes : s.npes;
  std::vector<const Ring*> rings;
  for (const auto& r : s.rings) {
    const int pe = r->pe();
    if (pe == s.npes) {
      if (r->size() > 0) rings.push_back(r.get());
    } else if (pe >= lo && pe < hi) {
      rings.push_back(r.get());
    }
  }
  PartHead h{};
  std::memcpy(h.magic, kPartMagic, sizeof(h.magic));
  h.version = 1;
  h.proc = s.proc;
  h.nprocs = s.nprocs;
  h.npes = s.npes;
  h.nrings = static_cast<std::int32_t>(rings.size());
  h.tsc0 = s.tsc0;
  h.mono0_ns = s.mono0_ns;
  h.ns_per_tick = ns_per_tick;
  h.emitted = summary.emitted;
  h.dropped = summary.dropped;
  std::map<std::string, std::string> meta;
  {
    std::lock_guard<std::mutex> lock(s.meta_mu);
    meta = s.meta;
  }
  h.meta_count = static_cast<std::int32_t>(meta.size());
  bool ok = std::fwrite(&h, sizeof(h), 1, f) == 1;
  for (const auto& [key, value] : meta) {
    const std::uint32_t klen = static_cast<std::uint32_t>(key.size());
    const std::uint32_t vlen = static_cast<std::uint32_t>(value.size());
    ok = ok && std::fwrite(&klen, sizeof(klen), 1, f) == 1;
    ok = ok && std::fwrite(&vlen, sizeof(vlen), 1, f) == 1;
    ok = ok && (klen == 0 || std::fwrite(key.data(), 1, klen, f) == klen);
    ok = ok && (vlen == 0 || std::fwrite(value.data(), 1, vlen, f) == vlen);
  }
  for (const Ring* r : rings) {
    const std::vector<Record> recs = flatten(*r);
    PartRingHead rh{r->pe(), static_cast<std::uint32_t>(recs.size())};
    ok = ok && std::fwrite(&rh, sizeof(rh), 1, f) == 1;
    ok = ok && (recs.empty() ||
                std::fwrite(recs.data(), sizeof(Record), recs.size(), f) ==
                    recs.size());
  }
  if (std::ferror(f) != 0) ok = false;
  if (std::fclose(f) != 0) ok = false;
  return ok;
}

struct LoadedRing {
  int pe = 0;
  std::vector<Record> recs;
};

struct LoadedPart {
  PartHead head{};
  std::map<std::string, std::string> meta;
  std::vector<LoadedRing> rings;
};

bool read_part(const std::string& path, LoadedPart& out, std::string* err) {
  auto fail = [&](const std::string& what) {
    if (err != nullptr) *err = path + ": " + what;
    return false;
  };
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return fail("cannot open");
  auto closer = std::unique_ptr<std::FILE, int (*)(std::FILE*)>(f, &std::fclose);
  if (std::fread(&out.head, sizeof(out.head), 1, f) != 1) {
    return fail("truncated header");
  }
  if (std::memcmp(out.head.magic, kPartMagic, sizeof(kPartMagic)) != 0) {
    return fail("not a trace part (bad magic)");
  }
  if (out.head.version != 1) return fail("unsupported part version");
  if (out.head.npes <= 0 || out.head.nrings < 0 || out.head.meta_count < 0) {
    return fail("corrupt header");
  }
  for (std::int32_t i = 0; i < out.head.meta_count; ++i) {
    std::uint32_t klen = 0, vlen = 0;
    if (std::fread(&klen, sizeof(klen), 1, f) != 1 ||
        std::fread(&vlen, sizeof(vlen), 1, f) != 1 ||
        klen > (1u << 20) || vlen > (1u << 20)) {
      return fail("corrupt meta");
    }
    std::string key(klen, '\0'), value(vlen, '\0');
    if ((klen != 0 && std::fread(key.data(), 1, klen, f) != klen) ||
        (vlen != 0 && std::fread(value.data(), 1, vlen, f) != vlen)) {
      return fail("truncated meta");
    }
    out.meta.emplace(std::move(key), std::move(value));
  }
  for (std::int32_t i = 0; i < out.head.nrings; ++i) {
    PartRingHead rh{};
    if (std::fread(&rh, sizeof(rh), 1, f) != 1) return fail("truncated ring");
    LoadedRing ring;
    ring.pe = rh.pe;
    ring.recs.resize(rh.nrecords);
    if (rh.nrecords != 0 &&
        std::fread(ring.recs.data(), sizeof(Record), rh.nrecords, f) !=
            rh.nrecords) {
      return fail("truncated records");
    }
    out.rings.push_back(std::move(ring));
  }
  return true;
}

/// Ends the recording phase: gate off, calibrate tick rate from the full
/// session baseline. Caller must be quiescent (no PE loop running).
double end_recording(Session& s) {
  detail::g_on = false;
  const std::uint64_t tsc1 = rdtsc();
  const auto wall1 = std::chrono::steady_clock::now();
  const double elapsed_ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              wall1 - s.wall0)
                              .count());
  const std::uint64_t ticks = tsc1 > s.tsc0 ? tsc1 - s.tsc0 : 1;
  double ns_per_tick = elapsed_ns / static_cast<double>(ticks);
  if (!(ns_per_tick > 0.0)) ns_per_tick = 1.0;
  return ns_per_tick;
}

}  // namespace

const char* to_string(Ev ev) {
  switch (ev) {
    case Ev::kHandlerBegin: return "handler-begin";
    case Ev::kHandlerEnd: return "handler-end";
    case Ev::kMsgSend: return "msg-send";
    case Ev::kUltCreate: return "ult-create";
    case Ev::kUltSwitchIn: return "ult-switch-in";
    case Ev::kUltSwitchOut: return "ult-switch-out";
    case Ev::kUltSuspend: return "ult-suspend";
    case Ev::kUltResume: return "ult-resume";
    case Ev::kMigratePackBegin: return "migrate-pack-begin";
    case Ev::kMigratePackEnd: return "migrate-pack-end";
    case Ev::kMigrateUnpackBegin: return "migrate-unpack-begin";
    case Ev::kMigrateUnpackEnd: return "migrate-unpack-end";
    case Ev::kIsoSlotAcquire: return "iso-slot-acquire";
    case Ev::kIsoSlotRelease: return "iso-slot-release";
    case Ev::kElemDepart: return "elem-depart";
    case Ev::kElemArrive: return "elem-arrive";
    case Ev::kLbDecision: return "lb-decision";
    case Ev::kChaosInject: return "chaos-inject";
    case Ev::kStormRound: return "storm-round";
    case Ev::kFtCheckpointBegin: return "ft-checkpoint-begin";
    case Ev::kFtCheckpointEnd: return "ft-checkpoint-end";
    case Ev::kFtKill: return "ft-kill";
    case Ev::kFtDetect: return "ft-detect";
    case Ev::kFtRecoveryBegin: return "ft-recovery-begin";
    case Ev::kFtRecoveryEnd: return "ft-recovery-end";
    case Ev::kWireSendBegin: return "wire-send-begin";
    case Ev::kWireSendEnd: return "wire-send-end";
    case Ev::kWireDeliver: return "wire-deliver";
    case Ev::kWireAsmBegin: return "wire-asm-begin";
    case Ev::kWireAsmEnd: return "wire-asm-end";
    case Ev::kFtProcDown: return "ft-proc-down";
    case Ev::kFtProcRespawn: return "ft-proc-respawn";
    case Ev::kCount: break;
  }
  return "?";
}

namespace detail {

std::atomic<std::uint64_t> g_epoch{0};
thread_local TlsState t_tls;

}  // namespace detail

bool env_enabled() {
  const char* env = std::getenv("MFC_TRACE");
  return env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
}

std::string env_file() {
  const char* env = std::getenv("MFC_TRACE_FILE");
  return (env != nullptr && *env != '\0') ? env : "mfc_trace.json";
}

bool start(int npes, std::size_t ring_capacity) {
  MFC_CHECK(npes > 0);
  if (g_session != nullptr) return false;
  if (ring_capacity == 0) ring_capacity = env_ring_cap();
  auto* s = new Session;
  s->npes = npes;
  // npes PE rings + one wire ring (index npes) for the comm thread.
  s->rings.reserve(static_cast<std::size_t>(npes) + 1);
  for (int pe = 0; pe <= npes; ++pe) {
    s->rings.push_back(std::make_unique<Ring>(pe, ring_capacity));
  }
  s->tsc0 = rdtsc();
  s->wall0 = std::chrono::steady_clock::now();
  s->mono0_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    s->wall0.time_since_epoch())
                    .count();
  g_session = s;
  detail::g_epoch.fetch_add(1, std::memory_order_relaxed);
  detail::g_on = true;
  return true;
}

bool active() { return g_session != nullptr; }

void bind_pe(int pe) {
  Session* s = g_session;
  detail::TlsState& tls = detail::t_tls;
  if (s == nullptr || pe < 0 || pe >= s->npes) {
    tls.ring = nullptr;
    return;
  }
  tls.ring = s->rings[static_cast<std::size_t>(pe)].get();
  tls.epoch = detail::g_epoch.load(std::memory_order_relaxed);
  tls.tsc_age = 1u << 30;  // first emit on this binding reads the clock
}

void unbind_pe() { detail::t_tls.ring = nullptr; }

void bind_comm() {
  Session* s = g_session;
  detail::TlsState& tls = detail::t_tls;
  if (s == nullptr) {
    tls.ring = nullptr;
    return;
  }
  tls.ring = s->rings.back().get();
  tls.epoch = detail::g_epoch.load(std::memory_order_relaxed);
  tls.tsc_age = 1u << 30;
}

void set_proc(int proc, int nprocs, int local_first, int local_npes) {
  Session* s = g_session;
  if (s == nullptr) return;
  s->proc = proc;
  s->nprocs = nprocs;
  s->local_first = local_first;
  s->local_npes = local_npes;
}

void set_meta(const std::string& key, const std::string& value) {
  Session* s = g_session;
  if (s == nullptr) return;
  std::lock_guard<std::mutex> lock(s->meta_mu);
  s->meta[key] = value;
}

std::uint64_t Summary::digest(std::initializer_list<Ev> evs) const {
  std::uint64_t h = kFnvOffset;
  for (Ev ev : evs) {
    h = fnv1a_mix(h, static_cast<std::uint64_t>(ev));
    h = fnv1a_mix(h, by_type[static_cast<std::uint8_t>(ev)]);
  }
  return h;
}

Summary stop() {
  Session* s = g_session;
  if (s == nullptr) return Summary{};
  end_recording(*s);
  g_last = summarize(*s);
  teardown(s);
  return g_last;
}

Summary stop_and_export(const std::string& path, bool* ok) {
  Session* s = g_session;
  if (s == nullptr) {
    if (ok != nullptr) *ok = false;
    return Summary{};
  }
  const double ns_per_tick = end_recording(*s);
  g_last = summarize(*s);
  const bool wrote = export_json(*s, path, ns_per_tick, g_last);
  if (ok != nullptr) *ok = wrote;
  teardown(s);
  return g_last;
}

Summary stop_and_export_part(const std::string& path, bool* ok) {
  Session* s = g_session;
  if (s == nullptr) {
    if (ok != nullptr) *ok = false;
    return Summary{};
  }
  const double ns_per_tick = end_recording(*s);
  g_last = summarize(*s);
  const bool wrote = write_part(*s, path, ns_per_tick, g_last);
  if (ok != nullptr) *ok = wrote;
  teardown(s);
  return g_last;
}

bool merge_parts(const std::vector<std::string>& part_paths,
                 const std::string& out_path, std::string* err) {
  if (part_paths.empty()) {
    if (err != nullptr) *err = "no parts to merge";
    return false;
  }
  std::vector<LoadedPart> parts(part_paths.size());
  for (std::size_t i = 0; i < part_paths.size(); ++i) {
    if (!read_part(part_paths[i], parts[i], err)) return false;
  }
  std::sort(parts.begin(), parts.end(),
            [](const LoadedPart& a, const LoadedPart& b) {
              return a.head.proc < b.head.proc;
            });
  const int npes = parts.front().head.npes;
  for (const LoadedPart& p : parts) {
    if (p.head.npes != npes) {
      if (err != nullptr) *err = "parts disagree on npes (different runs?)";
      return false;
    }
  }
  // Common origin: the earliest monotonic anchor. Every part's track then
  // starts at (its anchor − origin) ≥ 0.
  std::int64_t origin = parts.front().head.mono0_ns;
  for (const LoadedPart& p : parts) {
    origin = std::min(origin, p.head.mono0_ns);
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    if (err != nullptr) *err = out_path + ": cannot open for write";
    return false;
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  JsonWriter w(f);
  std::uint64_t emitted = 0, dropped = 0;
  for (const LoadedPart& p : parts) {
    w.set_pid(p.head.proc);
    w.event("process_name", 'M', 0, 0);
    w.args_begin();
    if (p.head.nprocs > 1) {
      std::fprintf(f, "\"name\":\"mfc proc %d\"", p.head.proc);
    } else {
      std::fprintf(f, "\"name\":\"mfc\"");
    }
    w.args_end();
    w.done();
    w.event("process_sort_index", 'M', 0, 0);
    w.args_begin();
    std::fprintf(f, "\"sort_index\":%d", p.head.proc);
    w.args_end();
    w.done();
    for (const LoadedRing& r : p.rings) {
      write_thread_name(w, f, r.pe, npes);
    }
    emitted += p.head.emitted;
    dropped += p.head.dropped;
  }
  for (const LoadedPart& p : parts) {
    w.set_pid(p.head.proc);
    const std::uint64_t base_ns = static_cast<std::uint64_t>(
        std::max<std::int64_t>(0, p.head.mono0_ns - origin));
    for (const LoadedRing& r : p.rings) {
      export_records(w, r.recs.data(), r.recs.size(), r.pe, p.head.tsc0,
                     p.head.ns_per_tick, base_ns);
    }
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{");
  std::fprintf(f,
               "\"npes\":\"%d\",\"nprocs\":\"%d\",\"parts\":\"%d\","
               "\"emitted\":\"%llu\",\"dropped\":\"%llu\"",
               npes, parts.front().head.nprocs,
               static_cast<int>(parts.size()),
               static_cast<unsigned long long>(emitted),
               static_cast<unsigned long long>(dropped));
  std::map<std::string, std::string> meta;
  for (const LoadedPart& p : parts) {
    for (const auto& [key, value] : p.meta) meta.emplace(key, value);
  }
  for (const auto& [key, value] : meta) {
    std::string k, v;
    json_escape(k, key);
    json_escape(v, value);
    std::fprintf(f, ",\"%s\":\"%s\"", k.c_str(), v.c_str());
  }
  std::fprintf(f, "}}\n");
  bool ok = std::ferror(f) == 0;
  if (std::fclose(f) != 0) ok = false;
  if (!ok && err != nullptr) *err = out_path + ": write failed";
  return ok;
}

const Summary& last_summary() { return g_last; }

namespace internal {

bool write_tracks_json(
    const std::string& path, int pid, const std::string& proc_name,
    const std::vector<Track>& tracks, std::uint64_t tsc0, double ns_per_tick,
    const std::vector<std::pair<std::string, std::string>>& meta) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  JsonWriter w(f);
  w.set_pid(pid);
  w.event("process_name", 'M', 0, 0);
  w.args_begin();
  {
    std::string esc;
    json_escape(esc, proc_name);
    std::fprintf(f, "\"name\":\"%s\"", esc.c_str());
  }
  w.args_end();
  w.done();
  for (const Track& t : tracks) {
    std::string esc;
    json_escape(esc, t.name);
    w.event("thread_name", 'M', t.tid, 0);
    w.args_begin();
    std::fprintf(f, "\"name\":\"%s\"", esc.c_str());
    w.args_end();
    w.done();
  }
  for (const Track& t : tracks) {
    export_records(w, t.recs.data(), t.recs.size(), t.tid, tsc0,
                   ns_per_tick, 0);
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{");
  bool first = true;
  for (const auto& [key, value] : meta) {
    std::string k, v;
    json_escape(k, key);
    json_escape(v, value);
    std::fprintf(f, "%s\"%s\":\"%s\"", first ? "" : ",", k.c_str(),
                 v.c_str());
    first = false;
  }
  std::fprintf(f, "}}\n");
  bool ok = std::ferror(f) == 0;
  if (std::fclose(f) != 0) ok = false;
  return ok;
}

}  // namespace internal

}  // namespace mfc::trace
