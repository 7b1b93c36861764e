//===- ablation_basecase.cpp - Sec. 8 ablations ------------------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Ablations for the design choices of Sec. 8:
//  1. Base-case granularity kappa of the set operations and multi_insert,
//     kappa in {0, 8B, 16B, 32B, 64B, 128B} at B = 128 (default 32B). A
//     dense pair of at most kappa entries merges whole; a pair whose larger
//     side is one block always does, so kappa = 0 is the expose-only
//     algorithm down to the blocks. Two shapes, each with the median time
//     and the pool allocations of one call: dense (two n-entry maps:
//     union, intersect, multi_insert of n entries) and sparse (an n-entry
//     map against n/1000 scattered keys: union in both argument orders and
//     difference). The paper reports kappa = 4B 4.4x and kappa = 8B 6.7x
//     faster than expose-only.
//  2. Copy-on-write reuse: in-place updates (refcount-1 reuse) vs forced
//     path copying (shared snapshot held).
//
//===----------------------------------------------------------------------===//

#include "bench/bench_common.h"
#include "src/api/pam_map.h"
#include "src/core/pool_allocator.h"
#include "src/parallel/random.h"

using namespace cpam;
using namespace cpam::bench;

namespace {

using M = pam_map<uint64_t, uint64_t, 128>;
using Entry = std::pair<uint64_t, uint64_t>;

std::vector<Entry> makeEntries(size_t N, uint64_t Seed) {
  std::vector<Entry> E(N);
  Rng R(Seed);
  par::parallel_for(0, N, [&](size_t I) { E[I] = {R.ith(I) >> 1, I}; });
  return E;
}

/// Pool allocations (every size class, every thread) made by one call.
template <class F> uint64_t poolAllocs(const F &Fn) {
  auto Total = [] {
    uint64_t N = 0;
    for (const auto &C : pool_allocator::stats())
      N += C.Allocs;
    return N;
  };
  uint64_t Before = Total();
  Fn();
  return Total() - Before;
}

/// Median time of \p F and the pool allocations of one more call, printed
/// as one "ms allocs" cell.
template <class F> void cell(const F &Fn) {
  double T = time_par(Fn);
  if (pool_enabled())
    std::printf("  %9.2f %9llu", T * 1e3,
                static_cast<unsigned long long>(poolAllocs(Fn)));
  else
    std::printf("  %9.2f %9s", T * 1e3, "-");
}

} // namespace

int main(int argc, char **argv) {
  size_t N = arg_size(argc, argv, "n", 1000000);
  g_reps = static_cast<int>(arg_size(argc, argv, "reps", 3));
  print_header("Sec. 8 ablation: base-case granularity kappa (B=128)");
  std::printf("dense: two %zu-entry maps; sparse: A of %zu entries, S of "
              "%zu scattered keys\n",
              N, N, std::max<size_t>(1, N / 1000));
  std::printf("each cell: median ms, pool allocations of one call\n");
  std::printf("%-13s %19s  %19s  %19s  %19s  %19s  %19s\n", "", "union",
              "intersect", "multi_insert", "union(A,S)", "union(S,A)",
              "difference(A,S)");

  auto E1 = makeEntries(N, 1);
  auto E2 = makeEntries(N, 2);
  M M1(E1), M2(E2), Small(makeEntries(std::max<size_t>(1, N / 1000), 3));

  const size_t Default = M::ops::kappa();
  for (size_t Mult : {0, 8, 16, 32, 64, 128}) {
    M::ops::kappa() = Mult * 128;
    std::printf("kappa=%3zuB%s", Mult, Mult * 128 == Default ? "*" : " ");
    cell([&] { M U = M::map_union(M1, M2); });
    cell([&] { M X = M::map_intersect(M1, M2); });
    cell([&] { M X = M1.multi_insert(E2); });
    cell([&] { M U = M::map_union(M1, Small); });
    cell([&] { M U = M::map_union(Small, M1); });
    cell([&] { M D = M::map_difference(M1, Small); });
    std::printf("\n");
  }
  M::ops::kappa() = Default;
  std::printf("(* the default)\n");

  print_header("Copy-on-write reuse ablation (sequential point inserts)");
  size_t Ins = std::max<size_t>(1, N / 20);
  double InPlace = median_time(
      [&] {
        M X = M1; // Unique after first path copy: nodes reused in place.
        for (size_t I = 0; I < Ins; ++I)
          X.insert_inplace(hash64(I) | 1, I);
      },
      g_reps);
  double PathCopy = median_time(
      [&] {
        M X = M1;
        for (size_t I = 0; I < Ins; ++I) {
          M Snapshot = X; // Forces the path to be copied every time.
          X.insert_inplace(hash64(I) | 1, I);
        }
      },
      g_reps);
  std::printf("in-place (reuse) %8.4fs   forced path-copy %8.4fs   "
              "(copy/reuse %.2fx)\n",
              InPlace, PathCopy, PathCopy / InPlace);
  return 0;
}
