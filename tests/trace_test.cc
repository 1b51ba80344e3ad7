// Tracing & metrics subsystem tests: ring semantics, the metrics registry,
// session lifecycle, and — through a real 4-PE machine run — that the
// env-gated Chrome trace-event export is valid JSON with one track per PE,
// nested duration spans, and cross-PE flow arrows.
#include "trace/trace.h"

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "converse/machine.h"
#include "trace/metrics.h"
#include "trace/ring.h"

namespace {

namespace cv = mfc::converse;
namespace trace = mfc::trace;
namespace metrics = mfc::metrics;
using trace::Ev;

// ---- Minimal JSON DOM + recursive-descent parser ----------------------------
// Dependency-free validator for the exporter's output. Strict enough to
// reject anything Perfetto's (spec-conforming) parser would reject:
// unterminated strings, trailing garbage, bare NaN, comma decimal
// separators from a locale-infected printf.

struct Jv {
  enum Kind { kNull, kBool, kNum, kStr, kArr, kObj };
  Kind kind = kNull;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<Jv> arr;
  std::map<std::string, Jv> obj;

  const Jv* get(const std::string& key) const {
    auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& s) : s_(s) {}

  bool parse(Jv* out) {
    skip();
    if (!value(out)) return false;
    skip();
    return pos_ == s_.size();
  }

 private:
  const std::string& s_;
  std::size_t pos_ = 0;

  void skip() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool lit(const char* t) {
    const std::size_t n = std::strlen(t);
    if (s_.compare(pos_, n, t) != 0) return false;
    pos_ += n;
    return true;
  }
  bool string(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        if (pos_ + 1 >= s_.size()) return false;
        const char e = s_[pos_ + 1];
        if (e == 'u') {
          if (pos_ + 5 >= s_.size()) return false;
          for (int i = 0; i < 4; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(s_[pos_ + 2 + i]))) {
              return false;
            }
          }
          out->push_back('?');  // validation only; no codepoint decoding
          pos_ += 6;
          continue;
        }
        if (std::strchr("\"\\/bfnrt", e) == nullptr) return false;
        out->push_back(e);
        pos_ += 2;
        continue;
      }
      out->push_back(s_[pos_++]);
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number(double* out) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start || (s_[start] == '-' && pos_ == start + 1)) return false;
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      const std::size_t frac = pos_;
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
      if (pos_ == frac) return false;
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      const std::size_t exp = pos_;
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
      if (pos_ == exp) return false;
    }
    *out = std::strtod(s_.substr(start, pos_ - start).c_str(), nullptr);
    return true;
  }
  bool value(Jv* v) {
    skip();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') {
      v->kind = Jv::kObj;
      ++pos_;
      skip();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      for (;;) {
        skip();
        std::string key;
        if (!string(&key)) return false;
        skip();
        if (pos_ >= s_.size() || s_[pos_++] != ':') return false;
        Jv child;
        if (!value(&child)) return false;
        v->obj[key] = std::move(child);
        skip();
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (s_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '[') {
      v->kind = Jv::kArr;
      ++pos_;
      skip();
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      for (;;) {
        Jv child;
        if (!value(&child)) return false;
        v->arr.push_back(std::move(child));
        skip();
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (s_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '"') {
      v->kind = Jv::kStr;
      return string(&v->str);
    }
    if (c == 't') {
      v->kind = Jv::kBool;
      v->b = true;
      return lit("true");
    }
    if (c == 'f') {
      v->kind = Jv::kBool;
      v->b = false;
      return lit("false");
    }
    if (c == 'n') {
      v->kind = Jv::kNull;
      return lit("null");
    }
    v->kind = Jv::kNum;
    return number(&v->num);
  }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---- Ring -------------------------------------------------------------------

trace::Record rec(Ev ev, std::uint64_t arg) {
  trace::Record r;
  r.ev = static_cast<std::uint8_t>(ev);
  r.arg = arg;
  return r;
}

TEST(TraceRing, WraparoundKeepsNewestAndCountsDrops) {
  trace::Ring ring(0, 8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    ring.write(rec(Ev::kUltCreate, i));
  }
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.dropped(), 12u);
  EXPECT_EQ(ring.emitted(), 20u);
  // Drop-oldest: the retained window is exactly the last 8 writes, in order.
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring.at(i).arg, 12u + i);
  }
  // Per-type counts are taken at write time, not from the retained window.
  EXPECT_EQ(ring.count(Ev::kUltCreate), 20u);
  EXPECT_EQ(ring.count(Ev::kHandlerBegin), 0u);
}

TEST(TraceRing, CapacityRoundsUpToPowerOfTwoMinEight) {
  trace::Ring tiny(0, 1);
  for (int i = 0; i < 8; ++i) tiny.write(rec(Ev::kMsgSend, 0));
  EXPECT_EQ(tiny.size(), 8u);
  EXPECT_EQ(tiny.dropped(), 0u);

  trace::Ring odd(0, 9);  // rounds to 16
  for (int i = 0; i < 16; ++i) odd.write(rec(Ev::kMsgSend, 0));
  EXPECT_EQ(odd.size(), 16u);
  EXPECT_EQ(odd.dropped(), 0u);
}

TEST(TraceRing, FlowIdsEmbedPeAndNeverCollideWithZero) {
  trace::Ring r0(0, 8);
  trace::Ring r3(3, 8);
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t a = r0.next_flow();
    const std::uint64_t b = r3.next_flow();
    EXPECT_NE(a, 0u);  // 0 means "no flow" in Message::trace_flow
    EXPECT_EQ(a >> 40, 1u);
    EXPECT_EQ(b >> 40, 4u);
    EXPECT_TRUE(ids.insert(a).second);
    EXPECT_TRUE(ids.insert(b).second);
  }
}

// ---- Metrics registry -------------------------------------------------------

TEST(Metrics, BoundAndUnboundBumpsMergeIntoTotals) {
  metrics::reset(2);
  EXPECT_EQ(metrics::npes(), 2);

  metrics::bind_pe(0);
  metrics::bump(metrics::Counter::kMsgsSent, 3);
  metrics::bind_pe(1);
  metrics::bump(metrics::Counter::kMsgsSent, 4);
  metrics::unbind_pe();
  // Unbound writers land on the shared slot: counted in total(), invisible
  // to any pe_value().
  metrics::bump(metrics::Counter::kMsgsSent, 10);

  EXPECT_EQ(metrics::pe_value(metrics::Counter::kMsgsSent, 0), 3u);
  EXPECT_EQ(metrics::pe_value(metrics::Counter::kMsgsSent, 1), 4u);
  EXPECT_EQ(metrics::total(metrics::Counter::kMsgsSent), 17u);
  EXPECT_EQ(metrics::pe_value(metrics::Counter::kMsgsSent, 7), 0u);

  metrics::reset(2);
  EXPECT_EQ(metrics::total(metrics::Counter::kMsgsSent), 0u);
}

TEST(Metrics, SnapshotDiffAndMerge) {
  metrics::reset(1);
  metrics::bind_pe(0);
  metrics::bump(metrics::Counter::kPackIso, 5);
  const metrics::Snapshot before = metrics::snapshot();
  metrics::bump(metrics::Counter::kPackIso, 2);
  metrics::bump(metrics::Counter::kUnpackIso, 1);
  const metrics::Snapshot after = metrics::snapshot();
  metrics::unbind_pe();

  const metrics::Snapshot delta = after.diff(before);
  EXPECT_EQ(delta[metrics::Counter::kPackIso], 2u);
  EXPECT_EQ(delta[metrics::Counter::kUnpackIso], 1u);
  // diff saturates at zero rather than wrapping.
  const metrics::Snapshot inverted = before.diff(after);
  EXPECT_EQ(inverted[metrics::Counter::kPackIso], 0u);

  metrics::Snapshot sum = before;
  sum.merge(delta);
  EXPECT_EQ(sum[metrics::Counter::kPackIso], 7u);
}

// ---- Session lifecycle ------------------------------------------------------

TEST(TraceSession, OffByDefaultAndEmitsAreDropped) {
  EXPECT_FALSE(trace::enabled());
  trace::emit(Ev::kUltCreate, 1);  // must be a no-op, not a crash
  EXPECT_FALSE(trace::active());
}

TEST(TraceSession, StartStopCountsPerTypeAndBinding) {
  ASSERT_TRUE(trace::start(2, 64));
  EXPECT_TRUE(trace::enabled());
  EXPECT_FALSE(trace::start(2)) << "second session must be refused";

  trace::emit(Ev::kUltCreate, 7);  // unbound: dropped silently
  trace::bind_pe(0);
  trace::emit(Ev::kUltCreate, 8);
  trace::emit(Ev::kMsgSend, 0, 3, 64, 1);
  trace::bind_pe(1);
  trace::emit(Ev::kUltCreate, 9);
  trace::unbind_pe();

  const trace::Summary s = trace::stop();
  EXPECT_FALSE(trace::enabled());
  EXPECT_EQ(s.npes, 2);
  EXPECT_EQ(s.by_type[static_cast<int>(Ev::kUltCreate)], 2u);
  EXPECT_EQ(s.by_type[static_cast<int>(Ev::kMsgSend)], 1u);
  EXPECT_EQ(s.emitted, 3u);
  EXPECT_EQ(s.dropped, 0u);
  EXPECT_EQ(trace::last_summary().emitted, 3u);
}

TEST(TraceSession, DigestSelectsEventSubset) {
  ASSERT_TRUE(trace::start(1, 64));
  trace::bind_pe(0);
  trace::emit(Ev::kUltCreate, 1);
  trace::emit(Ev::kUltCreate, 2);
  trace::emit(Ev::kMsgSend, 0, 1, 8, 0);
  trace::unbind_pe();
  const trace::Summary s = trace::stop();

  const std::uint64_t d1 = s.digest({Ev::kUltCreate});
  const std::uint64_t d2 = s.digest({Ev::kUltCreate});
  EXPECT_EQ(d1, d2) << "digest must be a pure function of the counts";
  EXPECT_NE(s.digest({Ev::kUltCreate}), s.digest({Ev::kMsgSend}))
      << "different subsets must hash differently";
  EXPECT_NE(s.digest({Ev::kUltCreate, Ev::kMsgSend}), d1);
}

// ---- End-to-end export through a real machine -------------------------------

struct ExportCheck {
  int npes = 0;
  std::set<int> tids_with_events;
  int max_nesting = 0;
  bool has_cross_pe_flow = false;
  bool meta_ok = false;
};

/// Parses and structurally validates an exported trace. Fatal-asserts on
/// malformed JSON; fills the structural observations for the caller.
void validate_export(const std::string& path, int npes, ExportCheck* out) {
  const std::string text = slurp(path);
  ASSERT_FALSE(text.empty()) << "trace file missing or empty: " << path;
  Jv root;
  ASSERT_TRUE(JsonParser(text).parse(&root)) << "export is not valid JSON";
  ASSERT_EQ(root.kind, Jv::kObj);
  const Jv* events = root.get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, Jv::kArr);
  ASSERT_FALSE(events->arr.empty());

  out->npes = npes;
  std::map<int, int> depth;  // per-tid open B count
  // (s flow id, tid) of every flow start; a finish on a different tid with
  // a matching id is a cross-PE arrow.
  std::map<std::string, int> flow_starts;
  std::set<int> name_tracks;

  for (const Jv& e : events->arr) {
    ASSERT_EQ(e.kind, Jv::kObj);
    const Jv* ph = e.get("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_EQ(ph->kind, Jv::kStr);
    const Jv* tid = e.get("tid");
    ASSERT_NE(tid, nullptr);
    const int t = static_cast<int>(tid->num);
    if (ph->str == "M") {
      const Jv* name = e.get("name");
      if (name != nullptr && name->str == "thread_name") name_tracks.insert(t);
      continue;
    }
    ASSERT_NE(e.get("ts"), nullptr) << "non-metadata event without ts";
    out->tids_with_events.insert(t);
    if (ph->str == "B") {
      ++depth[t];
      if (depth[t] > out->max_nesting) out->max_nesting = depth[t];
    } else if (ph->str == "E") {
      --depth[t];
      ASSERT_GE(depth[t], 0) << "unbalanced E on tid " << t;
    } else if (ph->str == "s" || ph->str == "f") {
      const Jv* id = e.get("id");
      ASSERT_NE(id, nullptr) << "flow event without id";
      if (ph->str == "s") {
        flow_starts[id->str] = t;
      } else {
        auto it = flow_starts.find(id->str);
        if (it != flow_starts.end() && it->second != t) {
          out->has_cross_pe_flow = true;
        }
      }
    }
  }
  for (const auto& [t, d] : depth) {
    EXPECT_EQ(d, 0) << "tid " << t << " ends with " << d << " open spans";
  }
  // One named track per PE.
  for (int pe = 0; pe < npes; ++pe) {
    EXPECT_TRUE(name_tracks.contains(pe)) << "no thread_name for PE " << pe;
  }
  const Jv* other = root.get("otherData");
  out->meta_ok = other != nullptr && other->kind == Jv::kObj;
}

TEST(TraceExport, EnvGatedMachineRunExportsValidJson) {
  const char* path = "trace_export_test.json";
  std::remove(path);
  ::setenv("MFC_TRACE", "1", 1);
  ::setenv("MFC_TRACE_FILE", path, 1);

  static cv::HandlerId h_inner = cv::register_handler([](cv::Message&&) {});
  // Self-send from inside a handler takes the inline-dispatch bypass, which
  // is what puts a nested handler span on the track (depth >= 2).
  static cv::HandlerId h_outer = cv::register_handler([](cv::Message&& m) {
    cv::send(cv::my_pe(), h_inner, m.payload.take());
  });

  cv::Machine::Config cfg;
  cfg.npes = 4;
  cv::Machine::run(cfg, [](int pe) {
    // Cross-PE traffic for flow arrows, self-sends for nesting.
    for (int i = 0; i < 8; ++i) {
      cv::send_value((pe + 1) % 4, h_outer, i);
    }
    cv::barrier();
    cv::wait_quiescence();
  });

  ::unsetenv("MFC_TRACE");
  ::unsetenv("MFC_TRACE_FILE");

  ExportCheck check;
  validate_export(path, 4, &check);
  EXPECT_EQ(check.tids_with_events.size(), 4u)
      << "every PE must contribute events";
  EXPECT_GE(check.max_nesting, 2) << "inline self-send must nest spans";
  EXPECT_TRUE(check.has_cross_pe_flow)
      << "ring traffic must produce at least one cross-PE flow arrow";
  EXPECT_TRUE(check.meta_ok);
  EXPECT_GT(trace::last_summary().emitted, 0u);
}

TEST(TraceExport, ExplicitSessionSuppressesEnvAutoStart) {
  const char* env_path = "trace_should_not_exist.json";
  const char* own_path = "trace_explicit_test.json";
  std::remove(env_path);
  std::remove(own_path);
  ::setenv("MFC_TRACE", "1", 1);
  ::setenv("MFC_TRACE_FILE", env_path, 1);

  ASSERT_TRUE(trace::start(2));
  cv::Machine::Config cfg;
  cfg.npes = 2;
  cv::Machine::run(cfg, [](int) { cv::barrier(); });
  EXPECT_TRUE(trace::active()) << "machine must not stop the caller's session";
  bool ok = false;
  trace::stop_and_export(own_path, &ok);
  EXPECT_TRUE(ok);

  ::unsetenv("MFC_TRACE");
  ::unsetenv("MFC_TRACE_FILE");

  std::ifstream env_file(env_path);
  EXPECT_FALSE(env_file.good())
      << "env auto-export must not fire while an explicit session is active";
  ExportCheck check;
  validate_export(own_path, 2, &check);
  EXPECT_EQ(check.tids_with_events.size(), 2u);
}

// Span-opening events reuse a cached clock read; a PE that parked must not
// open its next span with a stamp from before the sleep. PE 1 parks for
// several milliseconds while PE 0 sleeps, then dispatches one empty
// handler: its exported span must be short.
TEST(TraceExport, HandlerSpanAfterParkStartsAfterTheWakeUp) {
  const char* path = "trace_park_test.json";
  std::remove(path);
  static cv::HandlerId h_probe = cv::register_handler([](cv::Message&&) {});
  static constexpr int kParkMs = 3;

  ASSERT_TRUE(trace::start(2));
  cv::Machine::Config cfg;
  cfg.npes = 2;
  cv::Machine::run(cfg, [](int pe) {
    cv::barrier();
    if (pe != 0) return;  // PE 1 goes idle and parks
    std::this_thread::sleep_for(std::chrono::milliseconds(kParkMs));
    cv::send_value(1, h_probe, 0);
    cv::wait_quiescence();
  });
  bool ok = false;
  trace::stop_and_export(path, &ok);
  ASSERT_TRUE(ok);

  Jv root;
  ASSERT_TRUE(JsonParser(slurp(path)).parse(&root));
  const std::string name = "handler#" + std::to_string(h_probe);
  double begin_us = -1, end_us = -1;
  for (const Jv& e : root.get("traceEvents")->arr) {
    const Jv* n = e.get("name");
    const Jv* tid = e.get("tid");
    if (n == nullptr || n->str != name || tid == nullptr || tid->num != 1) {
      continue;
    }
    const std::string& ph = e.get("ph")->str;
    if (ph == "B") begin_us = e.get("ts")->num;
    if (ph == "E") end_us = e.get("ts")->num;
  }
  ASSERT_GE(begin_us, 0) << "probe handler span missing";
  ASSERT_GE(end_us, begin_us);
  EXPECT_LT(end_us - begin_us, 1000.0 * kParkMs / 2)
      << "the span opened with a timestamp from before the park";
  std::remove(path);
}

}  // namespace
