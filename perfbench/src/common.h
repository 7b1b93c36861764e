//===- common.h - Shared plumbing of the perfbench workloads ---------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Options, clocks, order statistics, the resident-set reader and the raw
/// result document every workload fills in. run.py turns that document
/// into the benchmark's one-line verdict; see perfbench/README.md.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/parallel/random.h"

namespace perfbench {

/// Command-line options shared by every workload.
struct options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Out;      ///< Raw result document path.
  std::string TraceOut; ///< Perfetto trace path (traced runs only).
};

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Quantile \p Q in [0, 1] of \p V by linear interpolation between order
/// statistics (0 for an empty sample). Reorders \p V.
inline double quantile(std::vector<double> &V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

inline double median(std::vector<double> V) { return quantile(V, 0.5); }

/// Current resident set of this process in bytes (0 if unavailable).
size_t rss_bytes();

/// Last-level cache size in bytes as the C library reports it.
size_t l3_bytes();

/// Order-independent fingerprint term for one (key, value) pair.
inline uint64_t entry_print(uint64_t Key, uint64_t Val) {
  return cpam::hash64(Key ^ cpam::hash64(Val));
}

/// The raw result document of one run: configuration, correctness
/// counts, named metrics and registry snapshots. Written as JSON for
/// run.py, which derives the registry deltas and prints the verdict.
class result {
public:
  void config(const std::string &Key, double V) { Num[Key] = V; }
  void config_str(const std::string &Key, const std::string &V) {
    Str[Key] = V;
  }
  /// End-to-end metric (untraced rounds).
  void e2e(const std::string &Name, double V) { E2E[Name] = V; }
  /// Per-layer metric (traced rounds).
  void layer(const std::string &Name, double V) { Layer[Name] = V; }
  /// Per-round samples behind an end-to-end metric, kept for diagnosis.
  void series(const std::string &Name, std::vector<double> V) {
    Series[Name] = std::move(V);
  }
  /// obs::export_json() snapshots bracketing one traced round.
  void obs_round(std::string Before, std::string After) {
    ObsRounds.emplace_back(std::move(Before), std::move(After));
  }
  /// obs::export_json() at the end of the timed phase.
  void obs_final(std::string Json) { ObsFinal = std::move(Json); }

  void attempt(uint64_t N = 1) { Attempted += N; }
  void fail(uint64_t N = 1) { Failed += N; }

  /// Writes the document; false if \p Path cannot be opened.
  bool write(const std::string &Path) const;

private:
  std::map<std::string, double> Num, E2E, Layer;
  std::map<std::string, std::string> Str;
  std::map<std::string, std::vector<double>> Series;
  std::vector<std::pair<std::string, std::string>> ObsRounds;
  std::string ObsFinal = "{}";
  uint64_t Attempted = 0, Failed = 0;
};

/// Builds a workload's state kSetupReps times with \p Build, keeping the
/// last, and appends each build's seconds to \p Secs. The first build also
/// gives \p RssPerByte: resident-set growth, less the state's own retained
/// vectors, per byte its structures report (the allocator's overhead).
template <class Make>
auto set_up(const Make &Build, std::vector<double> &Secs, double &RssPerByte) {
  decltype(Build()) St;
  for (int I = 0; I < kSetupReps; ++I) {
    St.reset();
    size_t Rss0 = rss_bytes();
    uint64_t T0 = now_ns();
    St = Build();
    Secs.push_back(static_cast<double>(now_ns() - T0) * 1e-9);
    if (I == 0)
      RssPerByte = (static_cast<double>(rss_bytes()) -
                    static_cast<double>(Rss0) -
                    static_cast<double>(St->retained_bytes())) /
                   static_cast<double>(St->reported_bytes());
  }
  return St;
}

/// Runs \p Body rounds until \p Opt.Seconds have passed, at least \p
/// MinRounds times and at most twice the budget. Body(Round) reports
/// whether the round is traced by its index: in a traced run odd rounds
/// trace and even rounds do not, so the two interleave.
template <class F>
size_t run_rounds(const options &Opt, size_t MinRounds, const F &Body) {
  uint64_t Start = now_ns();
  auto Elapsed = [&] { return static_cast<double>(now_ns() - Start) * 1e-9; };
  size_t R = 0;
  while ((Elapsed() < Opt.Seconds || R < MinRounds) &&
         Elapsed() < 2 * Opt.Seconds + 1) {
    Body(R);
    ++R;
  }
  return R;
}

inline bool traced_round(const options &Opt, size_t Round) {
  return Opt.Trace && Round % 2 == 1;
}

int run_set_algebra(const options &Opt, result &Res);
int run_range_query(const options &Opt, result &Res);
int run_graph_stream(const options &Opt, result &Res);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
