//===- table2_micro.cpp - Table 2: map/aug-map microbenchmarks -------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Regenerates Table 2: size, build, union (balanced + imbalanced),
// intersect, difference, map, reduce, filter, find, insert, multi-insert and
// range for PaC-trees (B=128), difference-encoded PaC-trees, and P-trees
// (PAM); plus the augmented-map rows (size, build, union, aug-range,
// aug-filter). Reports T1 (sequential), Tp (all workers) and speedup.
// Paper scale is n = 1e8; default here is n = 2e6 (use --n= to change).
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <vector>

#include "bench/bench_common.h"
#include "src/api/aug_map.h"
#include "src/api/pam_map.h"
#include "src/encoding/diff_encoder.h"
#include "src/parallel/random.h"

using namespace cpam;
using namespace cpam::bench;

namespace {

using Entry = std::pair<uint64_t, uint64_t>;

/// Fewest repetitions of the Insert row.
constexpr int kInsertReps = 9;

std::vector<Entry> makeEntries(size_t N, uint64_t Seed) {
  std::vector<Entry> E(N);
  Rng R(Seed);
  par::parallel_for(0, N, [&](size_t I) {
    E[I] = {R.ith(I) >> 1, I}; // Distinct whp; >>1 keeps keys positive-ish.
  });
  return E;
}

template <class MapT>
void runPlainRows(const char *Label, size_t N) {
  std::printf("--- %s (no augmentation, n=%zu) ---\n", Label, N);
  auto E1 = makeEntries(N, 1);
  auto E2 = makeEntries(N, 2);
  auto ESmall = makeEntries(std::max<size_t>(1, N / 1000), 3);

  MapT M1(E1), M2(E2), MSmall(ESmall);
  std::printf("%-28s %10.3f MB\n", "Size", M1.size_in_bytes() / 1048576.0);

  print_time_row("Build", time_seq([&] { MapT M(E1); }),
                 time_par([&] { MapT M(E1); }));
  print_time_row(
      "Union (n,n)",
      time_seq([&] { auto U = MapT::map_union(M1, M2); }),
      time_par([&] { auto U = MapT::map_union(M1, M2); }));
  print_time_row(
      "Union (n,n/1000)",
      time_seq([&] { auto U = MapT::map_union(M1, MSmall); }),
      time_par([&] { auto U = MapT::map_union(M1, MSmall); }));
  print_time_row(
      "Intersect (n,n)",
      time_seq([&] { auto X = MapT::map_intersect(M1, M2); }),
      time_par([&] { auto X = MapT::map_intersect(M1, M2); }));
  print_time_row(
      "Difference (n,n)",
      time_seq([&] { auto D = MapT::map_difference(M1, M2); }),
      time_par([&] { auto D = MapT::map_difference(M1, M2); }));
  print_time_row(
      "Map",
      time_seq([&] {
        auto M = M1.map_values([](const Entry &X) { return X.second + 1; });
      }),
      time_par([&] {
        auto M = M1.map_values([](const Entry &X) { return X.second + 1; });
      }));
  print_time_row(
      "Reduce",
      time_seq([&] {
        volatile uint64_t S = M1.map_reduce(
            [](const Entry &X) { return X.second; }, uint64_t(0),
            std::plus<uint64_t>());
        (void)S;
      }),
      time_par([&] {
        volatile uint64_t S = M1.map_reduce(
            [](const Entry &X) { return X.second; }, uint64_t(0),
            std::plus<uint64_t>());
        (void)S;
      }));
  print_time_row(
      "Filter",
      time_seq([&] {
        auto F = M1.filter([](const Entry &X) { return X.second % 3 == 0; });
      }),
      time_par([&] {
        auto F = M1.filter([](const Entry &X) { return X.second % 3 == 0; });
      }));

  // Find: n/4 random lookups.
  size_t Q = N / 4;
  auto DoFinds = [&] {
    std::atomic<uint64_t> Hits{0};
    par::parallel_for(0, Q, [&](size_t I) {
      if (M1.contains(E1[(I * 37) % N].first))
        Hits.fetch_add(1, std::memory_order_relaxed);
    });
  };
  print_time_row("Find (m=n/4)", time_seq(DoFinds), time_par(DoFinds));

  // Insert: sequential point inserts (paper reports T1 only). One loop
  // takes a few tens of milliseconds, so a median of 3 moves with every
  // host hiccup; this row takes at least kInsertReps repetitions (and at
  // most the 16 that median_time keeps).
  size_t Ins = std::max<size_t>(1, N / 100);
  int InsReps = std::min(std::max(kInsertReps, g_reps), 16);
  double InsT = median_time(
      [&] {
        MapT M = M1;
        for (size_t I = 0; I < Ins; ++I)
          M.insert_inplace(hash64(I) | 1, I);
      },
      InsReps);
  std::printf("%-28s T1=%9.4fs  (%zu sequential inserts, median of %d)\n",
              "Insert", InsT, Ins, InsReps);

  print_time_row(
      "Multi-Insert (m=n)",
      time_seq([&] { auto M = M1.multi_insert(E2); }),
      time_par([&] { auto M = M1.multi_insert(E2); }));

  // Range: n/100 random width-limited submap extractions.
  size_t RQ = std::max<size_t>(1, N / 100);
  auto DoRanges = [&] {
    std::atomic<uint64_t> Total{0};
    par::parallel_for(
        0, RQ,
        [&](size_t I) {
          uint64_t Lo = hash64(I) >> 1;
          auto R = M1.range(Lo, Lo + (UINT64_MAX >> 12));
          Total.fetch_add(R.size(), std::memory_order_relaxed);
        },
        1);
  };
  print_time_row("Range (m=n/100)", time_seq(DoRanges), time_par(DoRanges));
}

template <class AugT>
void runAugRows(const char *Label, size_t N) {
  std::printf("--- %s (with augmentation, n=%zu) ---\n", Label, N);
  auto E1 = makeEntries(N, 1);
  auto E2 = makeEntries(N, 2);
  AugT M1(E1), M2(E2);
  std::printf("%-28s %10.3f MB\n", "Size", M1.size_in_bytes() / 1048576.0);
  print_time_row("Build", time_seq([&] { AugT M(E1); }),
                 time_par([&] { AugT M(E1); }));
  print_time_row(
      "Union (n,n)",
      time_seq([&] { auto U = AugT::map_union(M1, M2); }),
      time_par([&] { auto U = AugT::map_union(M1, M2); }));
  size_t Q = N / 10;
  auto DoAugRange = [&] {
    std::atomic<uint64_t> Acc{0};
    par::parallel_for(0, Q, [&](size_t I) {
      uint64_t Lo = hash64(I) >> 1;
      Acc.fetch_add(M1.aug_range(Lo, Lo + (UINT64_MAX >> 8)),
                    std::memory_order_relaxed);
    });
  };
  print_time_row("AugRange (m=n/10)", time_seq(DoAugRange),
                 time_par(DoAugRange));
  uint64_t Tau = UINT64_MAX / 2;
  print_time_row(
      "AugFilter",
      time_seq([&] {
        auto F = M1.aug_filter([&](uint64_t A) { return A >= Tau; });
      }),
      time_par([&] {
        auto F = M1.aug_filter([&](uint64_t A) { return A >= Tau; });
      }));
}

} // namespace

int main(int argc, char **argv) {
  size_t N = arg_size(argc, argv, "n", 2000000);
  g_reps = static_cast<int>(arg_size(argc, argv, "reps", 3));
  print_header("Table 2: map microbenchmarks (paper n=1e8)");

  runPlainRows<pam_map<uint64_t, uint64_t, 128>>("PaC-tree (B=128)", N);
  runPlainRows<pam_map<uint64_t, uint64_t, 128, diff_encoder>>(
      "PaC-tree Diff (B=128)", N);
  runPlainRows<pam_map<uint64_t, uint64_t, 0>>("P-tree (PAM)", N);

  using AugE = aug_sum_entry<uint64_t, uint64_t>;
  runAugRows<aug_map<AugE, 128>>("PaC-tree (B=128)", N);
  runAugRows<aug_map<AugE, 128, diff_encoder>>("PaC-tree Diff (B=128)", N);
  runAugRows<aug_map<AugE, 0>>("P-tree (PAM)", N);
  return 0;
}
