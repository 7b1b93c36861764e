//===- bench_merge.cpp - Dense flat-merge benchmarks ----------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// dense_* rows: many independent leaf-sized unions of the dense
// 50%-interleaved shape (winner runs of length ~1, half the keys
// colliding), one row per (B, encoding). Each pair of flat blocks is
// flattened (one batch decode per block) and merged through the one merge
// loop (map_ops::merge), so the row prices decode, compare and encode on
// the worst-case shape.
// The unions run one after another, each a single base case, so the rows
// do not depend on the worker count.
//
// Emits machine-readable JSON with --json=<path> (cpam-perf-v1 schema).
// Deterministic inputs, median of --reps runs after one warmup.
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <vector>

#include "bench/bench_common.h"
#include "src/api/pam_set.h"
#include "src/encoding/diff_encoder.h"
#include "src/encoding/gamma_encoder.h"
#include "src/obs/metrics.h"

using namespace cpam;
using namespace cpam::bench;

namespace {

/// Median of \p Reps timed runs with an untimed prepare step before each
/// (result teardown must not dilute the measured merge). One warmup run.
template <class Prep, class Body>
double medianPrepared(int Reps, const Prep &Prepare, const Body &Run) {
  Prepare();
  Run();
  std::vector<double> Ts(static_cast<size_t>(Reps));
  for (int I = 0; I < Reps; ++I) {
    Prepare();
    Timer T;
    Run();
    Ts[static_cast<size_t>(I)] = T.elapsed();
  }
  std::sort(Ts.begin(), Ts.end());
  return Ts[Ts.size() / 2];
}

/// Dense 50%-interleaved flat unions over many independent leaf-sized
/// pairs: KA = Base+2I, KB = Base+2I+(I%2?0:1), so half the keys collide
/// and the other half alternate sides — average winner-run length ~1.
template <int B, template <class> class Enc = raw_encoder>
void runDense(size_t NPairs, JsonReport &Report, const char *Tag = "") {
  using Set = pam_set<uint64_t, B, Enc>;
  constexpr size_t kLeaf = 2 * B; // Entries per operand.

  std::printf("-- dense interleaved B=%d%s (pairs=%zu, %zu entries/operand) "
              "--\n",
              B, Tag, NPairs, kLeaf);

  std::vector<Set> As(NPairs), Bs(NPairs);
  for (size_t P = 0; P < NPairs; ++P) {
    uint64_t Base = P * 8 * kLeaf;
    std::vector<uint64_t> KA(kLeaf), KB(kLeaf);
    for (size_t I = 0; I < kLeaf; ++I) {
      KA[I] = Base + 2 * I;
      KB[I] = Base + 2 * I + (I % 2 ? 0 : 1);
    }
    As[P] = Set::from_sorted(KA);
    std::sort(KB.begin(), KB.end());
    Bs[P] = Set(KB);
  }

  size_t Ops = NPairs * 2 * kLeaf;
  std::vector<Set> Outs(NPairs);
  uint64_t Sink = 0;
  double Time = medianPrepared(
      g_reps, [&] { std::fill(Outs.begin(), Outs.end(), Set()); },
      [&] {
        for (size_t P = 0; P < NPairs; ++P) {
          Outs[P] = Set::map_union(As[P], Bs[P]);
          Sink ^= Outs[P].size();
        }
      });
  char Name[64];
  std::snprintf(Name, sizeof(Name), "dense_union%s", Tag);
  Report.add(Name, B, Ops, Time);
  print_time_row(Name, Time, Time);
  if (Sink == 0xdeadbeef)
    std::printf("(sink)\n");
}

} // namespace

int main(int argc, char **argv) {
  size_t N = arg_size(argc, argv, "n", 1000000);
  g_reps = std::max(1, static_cast<int>(arg_size(argc, argv, "reps", 3)));
  std::string JsonPath = arg_str(argc, argv, "json");

  print_header("merge: dense-interleaved unions");
  std::printf("n=%zu reps=%d pool_alloc=%s\n", N, g_reps,
              pool_enabled() ? "on" : "off");

  JsonReport Report("bench_merge", N, g_reps);
  // Clean telemetry window: the metrics section at the bottom then covers
  // exactly the rows above it (input builds included).
  obs::reset_all();

  // Dense-interleaved rows: the same pair volume as perf_smoke's flat rows,
  // at a small and the default block size for each encoding.
  size_t Pairs = std::max<size_t>(1, N / 512);
  runDense<8>(Pairs * 16, Report);
  runDense<8, diff_encoder>(Pairs * 16, Report, "_diff");
  runDense<8, gamma_encoder>(Pairs * 16, Report, "_gamma");
  runDense<128>(Pairs, Report);
  runDense<128, diff_encoder>(Pairs, Report, "_diff");
  runDense<128, gamma_encoder>(Pairs, Report, "_gamma");

  Report.add_section("metrics", obs::export_json());
  Report.write(JsonPath);
  return 0;
}
