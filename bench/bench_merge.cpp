//===- bench_merge.cpp - Dense and parallel flat-merge benchmarks ---------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Two families of flat-merge rows:
//
//  dense_*: many independent leaf-sized unions of the dense 50%-interleaved
//  shape (winner runs of length ~1, half the keys colliding), one row per
//  (B, encoding). Each pair of flat blocks merges block to block through
//  the one merge loop (map_ops::merge), so the row prices its per-entry
//  decode/compare/encode chain on the worst-case shape.
//
//  scale_*: one large flat-by-flat union driven through tree_ops::
//  parallel_flat_merge (kappa raised so the whole operands reach the flat
//  base case), with the quantile split disabled (parallel_merge_grain=0 ->
//  one sequential merge over the whole arrays) vs enabled (default grain
//  -> up to kMaxMergeChunks chunk merges under parDo forks). Run under
//  CPAM_NUM_THREADS=1/2/4 to record the scaling profile; chunk boundaries
//  depend only on operand sizes, so the output tree is identical across
//  all of them.
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

/// RAII save/restore for the runtime tuning knobs this binary flips.
template <class T> class Restore {
public:
  explicit Restore(T &Ref) : Ref(Ref), Saved(Ref) {}
  ~Restore() { Ref = Saved; }
  const T &saved() const { return Saved; }
  Restore(const Restore &) = delete;
  Restore &operator=(const Restore &) = delete;

private:
  T &Ref;
  T Saved;
};

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

/// One large flat-by-flat union through the quantile-split parallel merge:
/// kappa is raised past 2N so map_union flattens both whole trees and runs
/// a single set_arrays call, measured with the chunk split disabled
/// (grain=0: one sequential merge) and at the default grain (up
/// to kMaxMergeChunks chunk merges forked via parDo).
template <int B, template <class> class Enc = raw_encoder>
void runScale(size_t N, JsonReport &Report, const char *Tag = "",
              bool Runs = false) {
  using Set = pam_set<uint64_t, B, Enc>;

  std::printf("-- merge scaling B=%d%s%s (n=%zu per side, threads=%d) --\n",
              B, Tag, Runs ? " [runs]" : "", N, par::num_workers());

  // Entry-interleaved (winner runs of length 1) or block-interleaved in
  // 512-entry runs (long runs from one side).
  std::vector<uint64_t> KA(N), KB(N);
  constexpr size_t kBlk = 512;
  for (size_t I = 0; I < N; ++I) {
    if (Runs) {
      size_t Bl = I / kBlk, Off = I % kBlk;
      KA[I] = (2 * Bl) * kBlk + Off;
      KB[I] = (2 * Bl + 1) * kBlk + Off;
    } else {
      KA[I] = 2 * I;
      KB[I] = 2 * I + 1;
    }
  }
  Set A = Set::from_sorted(KA), Bb = Set::from_sorted(KB);

  Restore<size_t> GKappa(Set::ops::kappa());
  Restore<size_t> GGrain(Set::ops::parallel_merge_grain());
  Set::ops::kappa() = size_t(1) << 40;
  size_t Chunks = Set::ops::merge_chunk_count(2 * N, N);

  Set Out;
  uint64_t Sink = 0;
  char Name[64];
  double Times[2];
  struct Mode {
    const char *Name;
    size_t Grain; // ~0 = keep default.
  } Modes[] = {{"seq", 0}, {"par", size_t(-1)}};
  for (int M = 0; M < 2; ++M) {
    Set::ops::parallel_merge_grain() =
        Modes[M].Grain == size_t(-1) ? GGrain.saved() : Modes[M].Grain;
    Times[M] = medianPrepared(
        g_reps, [&] { Out = Set(); },
        [&] {
          Out = Set::map_union(A, Bb);
          Sink ^= Out.size();
        });
    std::snprintf(Name, sizeof(Name), "scale_union%s%s_%s", Tag,
                  Runs ? "_runs" : "", Modes[M].Name);
    Report.add(Name, B, 2 * N, Times[M]);
    print_time_row(Name, Times[M], Times[M]);
  }
  if (Sink == 0xdeadbeef)
    std::printf("(sink)\n");
  std::printf("   chunks=%zu  par vs seq %.2fx\n", Chunks,
              Times[1] > 0 ? Times[0] / Times[1] : 0.0);
  Out = Set();
}

} // namespace

int main(int argc, char **argv) {
  size_t N = arg_size(argc, argv, "n", 1000000);
  g_reps = std::max(1, static_cast<int>(arg_size(argc, argv, "reps", 3)));
  std::string JsonPath = arg_str(argc, argv, "json");

  print_header("merge: dense-interleaved unions + parallel scaling");
  std::printf("n=%zu reps=%d pool_alloc=%s\n", N, g_reps,
              pool_enabled() ? "on" : "off");

  JsonReport Report("bench_merge", N, g_reps);
  // Clean telemetry window: the metrics section at the bottom then covers
  // exactly the rows above it (graph build included).
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

  // Parallel quantile-split scaling rows (thread count comes from the
  // environment; CI runs this binary at CPAM_NUM_THREADS=1/2/4).
  runScale<128>(N, Report);
  runScale<128, diff_encoder>(N, Report, "_diff");
  runScale<128>(N, Report, "", /*Runs=*/true);
  runScale<128, diff_encoder>(N, Report, "_diff", /*Runs=*/true);

  Report.add_section("metrics", obs::export_json());
  Report.write(JsonPath);
  return 0;
}
