//===- bench_common.h - Shared helpers for the paper benchmarks ------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared helpers for the bench binaries: command-line scale parsing,
/// median-of-3 timing with a sequential (T1) mode, and row printing in the
/// shape of the paper's tables. Every binary accepts `--n=<count>` (problem
/// size) and `--reps=<r>`.
///
//===----------------------------------------------------------------------===//

#ifndef CPAM_BENCH_BENCH_COMMON_H
#define CPAM_BENCH_BENCH_COMMON_H

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/allocator.h"
#include "src/parallel/scheduler.h"
#include "src/util/timer.h"

namespace cpam {
namespace bench {

/// Parses --name=value style size_t flags.
inline size_t arg_size(int argc, char **argv, const char *Name, size_t Def) {
  std::string Prefix = std::string("--") + Name + "=";
  for (int I = 1; I < argc; ++I)
    if (std::strncmp(argv[I], Prefix.c_str(), Prefix.size()) == 0)
      return std::strtoull(argv[I] + Prefix.size(), nullptr, 10);
  return Def;
}

inline int g_reps = 3;

/// Median-of-g_reps parallel wall time in seconds.
template <class F> double time_par(const F &f) {
  return median_time(f, g_reps);
}

/// Median single-thread time: runs the same parallel code with forking
/// disabled (honest T1 under the work/span model).
template <class F> double time_seq(const F &f) {
  par::set_sequential(true);
  double T = median_time(f, g_reps);
  par::set_sequential(false);
  return T;
}

inline void print_header(const char *Title) {
  std::printf("\n=== %s ===\n", Title);
  std::printf("(threads=%d)\n", par::num_workers());
}

/// One row in paper Table 2 style: name, T1, Tp, speedup.
inline void print_time_row(const char *Name, double T1, double Tp) {
  std::printf("%-28s T1=%9.4fs  Tp=%9.4fs  speedup=%6.2fx\n", Name, T1, Tp,
              Tp > 0 ? T1 / Tp : 0.0);
}

inline void print_size_row(const char *Name, size_t Bytes, size_t Baseline) {
  std::printf("%-28s %10.3f MB  (%.2fx of smallest)\n", Name,
              Bytes / (1024.0 * 1024.0),
              Baseline ? static_cast<double>(Bytes) / Baseline : 0.0);
}

/// Parses --name=string flags (empty string when absent).
inline std::string arg_str(int argc, char **argv, const char *Name) {
  std::string Prefix = std::string("--") + Name + "=";
  for (int I = 1; I < argc; ++I)
    if (std::strncmp(argv[I], Prefix.c_str(), Prefix.size()) == 0)
      return std::string(argv[I] + Prefix.size());
  return std::string();
}

/// Accumulates benchmark rows and writes them as a machine-readable JSON
/// document (the BENCH_*.json format recorded in the repo: one object with
/// a config block and a flat result array; throughput in million
/// operations per second).
class JsonReport {
public:
  /// \p ExtraConfig, when nonempty, is spliced verbatim into the config
  /// object (e.g. "\"logn\": 13").
  JsonReport(const char *Tool, size_t N, int Reps,
             const std::string &ExtraConfig = std::string()) {
    char Buf[384];
    std::snprintf(Buf, sizeof(Buf),
                  "  \"schema\": \"cpam-perf-v1\",\n"
                  "  \"tool\": \"%s\",\n"
                  "  \"config\": {\"threads\": %d, \"pool_alloc\": %s, "
                  "\"n\": %zu, \"reps\": %d%s%s}",
                  Tool, par::num_workers(), pool_enabled() ? "true" : "false",
                  N, Reps, ExtraConfig.empty() ? "" : ", ",
                  ExtraConfig.c_str());
    Header = Buf;
  }

  /// Records one result row. \p B < 0 omits the block-size field.
  void add(const char *Bench, int B, size_t Ops, double Seconds) {
    char Buf[256];
    if (B >= 0)
      std::snprintf(Buf, sizeof(Buf),
                    "    {\"bench\": \"%s\", \"B\": %d, \"ops\": %zu, "
                    "\"seconds\": %.6f, \"mops\": %.3f}",
                    Bench, B, Ops, Seconds,
                    Seconds > 0 ? Ops / Seconds / 1e6 : 0.0);
    else
      std::snprintf(Buf, sizeof(Buf),
                    "    {\"bench\": \"%s\", \"ops\": %zu, "
                    "\"seconds\": %.6f, \"mops\": %.3f}",
                    Bench, Ops, Seconds,
                    Seconds > 0 ? Ops / Seconds / 1e6 : 0.0);
    Rows.push_back(Buf);
  }

  /// Records one count-valued row (telemetry totals like epoch pins or
  /// reclaim backlog, alongside the timed rows).
  void add_count(const char *Bench, uint64_t Value) {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "    {\"bench\": \"%s\", \"count\": %llu}", Bench,
                  static_cast<unsigned long long>(Value));
    Rows.push_back(Buf);
  }

  /// Adds an extra top-level section: \p JsonValue is spliced verbatim as
  /// the value of key \p Name (e.g. the pool-allocator telemetry array).
  void add_section(const char *Name, const std::string &JsonValue) {
    Sections.push_back(std::string("  \"") + Name + "\": " + JsonValue);
  }

  /// Writes the document to \p Path; no-op when Path is empty.
  void write(const std::string &Path) const {
    if (Path.empty())
      return;
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "cannot write %s\n", Path.c_str());
      return;
    }
    std::fprintf(F, "{\n%s,\n", Header.c_str());
    for (const std::string &S : Sections)
      std::fprintf(F, "%s,\n", S.c_str());
    std::fprintf(F, "  \"results\": [\n");
    for (size_t I = 0; I < Rows.size(); ++I)
      std::fprintf(F, "%s%s\n", Rows[I].c_str(),
                   I + 1 < Rows.size() ? "," : "");
    std::fprintf(F, "  ]\n}\n");
    std::fclose(F);
    std::printf("wrote %s\n", Path.c_str());
  }

private:
  std::string Header;
  std::vector<std::string> Sections;
  std::vector<std::string> Rows;
};

} // namespace bench
} // namespace cpam

#endif // CPAM_BENCH_BENCH_COMMON_H
