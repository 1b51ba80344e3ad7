// Shared helpers for the table/figure reproduction binaries.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "util/stats.h"
#include "util/sysinfo.h"

namespace mfc::bench {

inline void print_header(const char* what, const char* paper_ref) {
  const auto info = query_sysinfo();
  std::printf("# %s\n", what);
  std::printf("# reproduces: %s\n", paper_ref);
  std::printf("# platform: %s, %s, %d cpus\n\n", info.os.c_str(),
              info.arch.c_str(), info.ncpus);
}

/// One measured configuration of a messaging benchmark.
struct MsgBenchRow {
  std::string name;  ///< e.g. "pingpong"
  std::string mode;  ///< variant, e.g. "lockfree", "trace_on", "iovec"
  int npes = 0;
  std::uint64_t messages = 0;
  double seconds = 0.0;
  /// Process CPU time (user+sys) consumed by the run; 0 when not measured.
  /// On an oversubscribed host wall time includes kernel-scheduler waits
  /// the workload cannot control, so per-message *cost* comparisons (e.g.
  /// the tracing-overhead suite) are made on CPU time.
  double cpu_seconds = 0.0;
  /// Parks that slept (the runtime's pe-sleeps counter) per message,
  /// summed over every PE; negative when not measured. Rows priced by
  /// wake-ups carry it next to their time.
  double pe_sleeps_per_msg = -1.0;

  double msgs_per_sec() const {
    return seconds > 0 ? static_cast<double>(messages) / seconds : 0.0;
  }
  double ns_per_msg() const {
    return messages > 0 ? seconds * 1e9 / static_cast<double>(messages) : 0.0;
  }
  double cpu_ns_per_msg() const {
    return messages > 0 ? cpu_seconds * 1e9 / static_cast<double>(messages)
                        : 0.0;
  }
};

/// Writes benchmark rows as JSON (staged via `<path>.tmp` then renamed, so
/// a crash never leaves a truncated record). Returns false on I/O failure.
inline bool write_msg_bench_json(const char* path, const char* suite,
                                 const std::vector<MsgBenchRow>& rows) {
  const std::string tmp = std::string(path) + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  const auto info = query_sysinfo();
  std::fprintf(f, "{\n  \"suite\": \"%s\",\n", suite);
  // guard_pages names the isomalloc evacuation branch every row ran on
  // (guard markers, or the PROT_NONE remap fallback).
  std::fprintf(f,
               "  \"platform\": {\"os\": \"%s\", \"arch\": \"%s\", "
               "\"ncpus\": %d, \"guard_pages\": %s},\n",
               info.os.c_str(), info.arch.c_str(), info.ncpus,
               probe_guard_pages() ? "true" : "false");
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const MsgBenchRow& r = rows[i];
    // Floats go through format_double: printf's %f obeys LC_NUMERIC and a
    // comma decimal separator would make the file unparseable as JSON.
    std::string extra;  // optional fields
    if (r.cpu_seconds > 0) {
      extra = ", \"cpu_seconds\": " + format_double(r.cpu_seconds, 6) +
              ", \"cpu_ns_per_msg\": " + format_double(r.cpu_ns_per_msg(), 1);
    }
    if (r.pe_sleeps_per_msg >= 0) {
      extra += ", \"pe_sleeps_per_msg\": " +
               format_double(r.pe_sleeps_per_msg, 2);
    }
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"mode\": \"%s\", \"npes\": %d, "
                 "\"messages\": %llu, \"seconds\": %s, "
                 "\"msgs_per_sec\": %s, \"ns_per_msg\": %s%s}%s\n",
                 r.name.c_str(), r.mode.c_str(), r.npes,
                 static_cast<unsigned long long>(r.messages),
                 format_double(r.seconds, 6).c_str(),
                 format_double(r.msgs_per_sec(), 0).c_str(),
                 format_double(r.ns_per_msg(), 1).c_str(), extra.c_str(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return std::rename(tmp.c_str(), path) == 0;
}

}  // namespace mfc::bench
