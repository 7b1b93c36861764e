//===- test_parallel.cpp - Scheduler and primitive tests -------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include <atomic>
#include <numeric>
#include <set>
#include <thread>

#include "gtest/gtest.h"

#include "src/parallel/primitives.h"
#include "src/parallel/random.h"
#include "src/parallel/scheduler.h"
#include "src/util/datagen.h"

using namespace cpam;

TEST(Scheduler, HasWorkers) {
  EXPECT_GE(par::num_workers(), 1);
  EXPECT_EQ(par::worker_id(), 0) << "main thread should be worker 0";
}

TEST(Scheduler, ParDoRunsBoth) {
  int A = 0, B = 0;
  par::par_do([&] { A = 1; }, [&] { B = 2; });
  EXPECT_EQ(A, 1);
  EXPECT_EQ(B, 2);
}

TEST(Scheduler, NestedForkJoin) {
  std::atomic<long> Sum{0};
  std::function<void(long, long)> Rec = [&](long Lo, long Hi) {
    if (Hi - Lo <= 16) {
      long Local = 0;
      for (long I = Lo; I < Hi; ++I)
        Local += I;
      Sum.fetch_add(Local, std::memory_order_relaxed);
      return;
    }
    long Mid = Lo + (Hi - Lo) / 2;
    par::par_do([&] { Rec(Lo, Mid); }, [&] { Rec(Mid, Hi); });
  };
  Rec(0, 100000);
  EXPECT_EQ(Sum.load(), 100000L * 99999 / 2);
}

TEST(Scheduler, ParallelForCoversRangeExactlyOnce) {
  const size_t N = 1 << 18;
  std::vector<std::atomic<int>> Hits(N);
  par::parallel_for(0, N, [&](size_t I) {
    Hits[I].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t I = 0; I < N; ++I)
    ASSERT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(Scheduler, EmptyAndSingletonRanges) {
  int Count = 0;
  par::parallel_for(5, 5, [&](size_t) { ++Count; });
  EXPECT_EQ(Count, 0);
  par::parallel_for(7, 8, [&](size_t I) {
    EXPECT_EQ(I, 7u);
    ++Count;
  });
  EXPECT_EQ(Count, 1);
}

TEST(Scheduler, OffPoolThreadDegradesToSequential) {
  std::atomic<long> Sum{0};
  std::thread T([&] {
    EXPECT_EQ(par::worker_id(), -1);
    par::parallel_for(0, 1000,
                      [&](size_t I) { Sum.fetch_add(static_cast<long>(I)); });
  });
  T.join();
  EXPECT_EQ(Sum.load(), 999L * 1000 / 2);
}

TEST(Primitives, Tabulate) {
  auto V = par::tabulate(1000, [](size_t I) { return I * I; });
  ASSERT_EQ(V.size(), 1000u);
  for (size_t I = 0; I < V.size(); ++I)
    ASSERT_EQ(V[I], I * I);
}

TEST(Primitives, ReduceSum) {
  auto V = par::tabulate(1 << 20, [](size_t I) { return (long)I; });
  long S = par::reduce(V.data(), V.size(), 0L,
                       [](long A, long B) { return A + B; });
  EXPECT_EQ(S, (long)(V.size() - 1) * (long)V.size() / 2);
}

TEST(Primitives, ReduceMaxSmall) {
  std::vector<int> V = {3, 1, 4, 1, 5, 9, 2, 6};
  int M = par::reduce(V.data(), V.size(), 0,
                      [](int A, int B) { return std::max(A, B); });
  EXPECT_EQ(M, 9);
}

TEST(Primitives, ReduceEmpty) {
  std::vector<int> V;
  EXPECT_EQ(par::reduce(V.data(), 0, -7, [](int A, int B) { return A + B; }),
            -7);
}

TEST(Primitives, ScanExclusive) {
  for (size_t N : {0u, 1u, 5u, 2048u, 100000u}) {
    auto V = par::tabulate(N, [](size_t I) { return (long)(I % 10); });
    std::vector<long> Expect(N);
    long Acc = 0;
    for (size_t I = 0; I < N; ++I) {
      Expect[I] = Acc;
      Acc += V[I];
    }
    std::vector<long> Out(N);
    long Total = par::scan_exclusive(V.data(), N, Out.data());
    EXPECT_EQ(Total, Acc);
    EXPECT_EQ(Out, Expect);
  }
}

TEST(Primitives, ScanInPlace) {
  auto V = par::tabulate(50000, [](size_t) { return 1L; });
  long Total = par::scan_exclusive(V.data(), V.size(), V.data());
  EXPECT_EQ(Total, 50000);
  for (size_t I = 0; I < V.size(); ++I)
    ASSERT_EQ(V[I], (long)I);
}

TEST(Primitives, PackAndFilter) {
  for (size_t N : {0u, 10u, 4096u, 1u << 17}) {
    auto V = par::tabulate(N, [](size_t I) { return (int)I; });
    std::vector<int> Out(N);
    size_t K = par::filter(V.data(), N, Out.data(),
                           [](int X) { return X % 3 == 0; });
    std::vector<int> Expect;
    for (size_t I = 0; I < N; ++I)
      if (V[I] % 3 == 0)
        Expect.push_back(V[I]);
    ASSERT_EQ(K, Expect.size());
    for (size_t I = 0; I < K; ++I)
      ASSERT_EQ(Out[I], Expect[I]);
  }
}

TEST(Primitives, MergeRandom) {
  Rng R(11);
  for (size_t Na : {0u, 1u, 1000u, 50000u}) {
    size_t Nb = Na == 0 ? 17 : Na / 2 + 3;
    auto A = par::tabulate(Na, [&](size_t I) { return R.ith(I) % 1000; });
    auto B =
        par::tabulate(Nb, [&](size_t I) { return R.ith(I + Na) % 1000; });
    std::sort(A.begin(), A.end());
    std::sort(B.begin(), B.end());
    std::vector<uint64_t> Out(Na + Nb), Expect(Na + Nb);
    par::merge(A.data(), Na, B.data(), Nb, Out.data());
    std::merge(A.begin(), A.end(), B.begin(), B.end(), Expect.begin());
    EXPECT_EQ(Out, Expect);
  }
}

TEST(Primitives, SortRandom) {
  Rng R(13);
  for (size_t N : {0u, 1u, 2u, 1000u, 4096u, 1u << 18}) {
    auto V = par::tabulate(N, [&](size_t I) { return R.ith(I); });
    auto Expect = V;
    std::sort(Expect.begin(), Expect.end());
    par::sort(V);
    EXPECT_EQ(V, Expect) << "N=" << N;
  }
}

// par::sort takes the radix sort exactly for unsigned integers, and pairs
// of unsigned integers of at most 32 bits, under std::less.
static_assert(par::detail::radix_ordered<uint8_t>::value);
static_assert(par::detail::radix_ordered<uint64_t>::value);
static_assert(par::detail::radix_ordered<edge_pair>::value);
static_assert(!par::detail::radix_ordered<bool>::value);
static_assert(!par::detail::radix_ordered<int>::value);
static_assert(
    !par::detail::radix_ordered<std::pair<uint64_t, uint32_t>>::value);
static_assert(!par::detail::radix_ordered<std::pair<int, uint32_t>>::value);

// Sizes around the comparison-sort cutoff (256) and the block size (2048),
// and one input that splits by its top digit before its LSD passes.
const size_t kSortSizes[] = {0,    1,    255,  256,  257,
                             2047, 2048, 2049, 100003};

// The radix sort against std::sort, for each element type it serves. It
// runs one pass per 8-bit digit of the bits that differ between keys: full
// 64-bit keys take all eight, packed (source, target) pairs below 2^16
// take four (the digit mask has holes), keys with one used digit take one
// (an odd count, which ends in the scratch array and is copied back), and
// constant non-zero high bytes take none. Skewed keys put 15/16 of them in
// one top bucket, which splits again.
TEST(Primitives, IntegerSortMatchesStdSort) {
  Rng R(17);
  auto Check = [](auto V, const char *What, size_t N) {
    auto Expect = V;
    std::sort(Expect.begin(), Expect.end());
    par::sort(V);
    ASSERT_EQ(V, Expect) << What << " N=" << N;
  };
  for (size_t N : kSortSizes) {
    std::vector<uint64_t> Full(N), Packed(N), OneDigit(N), HighBytes(N),
        Skewed(N);
    std::vector<uint32_t> U32(N);
    std::vector<edge_pair> Edges(N);
    for (size_t I = 0; I < N; ++I) {
      uint64_t X = R.ith(I);
      Full[I] = X;
      Packed[I] = (X >> 48) << 32 | (X & 0xffff);
      OneDigit[I] = (X & 0xff) << 24;
      HighBytes[I] = 0x5a3c000000000000ull | (X & 0xffffffffffull);
      Skewed[I] = I % 16 == 0 ? X : X & 0xffffff;
      U32[I] = static_cast<uint32_t>(X);
      Edges[I] = {static_cast<vertex_id>(X >> 48),
                  static_cast<vertex_id>(X % 70000)};
    }
    Check(Full, "full", N);
    Check(Packed, "packed", N);
    Check(OneDigit, "one digit", N);
    Check(HighBytes, "high bytes", N);
    Check(Skewed, "skewed", N);
    Check(U32, "uint32", N);
    Check(Edges, "edge_pair", N);
  }
}

// Both sort paths are stable: (key, index) pairs with at most 8 distinct
// keys keep ascending indices within each run of equal keys. One key set
// differs in every byte (eight radix digits), one in three bits under
// constant non-zero bytes (one digit), and in one seven keys share the top
// digit, so at 100003 items their bucket splits again.
TEST(Primitives, SortsAreStable) {
  using item = std::pair<uint64_t, uint32_t>;
  auto KeyOf = [](int Set, uint64_t J) -> uint64_t {
    if (Set == 0)
      return hash64(J);
    if (Set == 1)
      return 0xab00cd0000000011ull | J << 20;
    return J == 7 ? uint64_t(1) << 60 : J;
  };
  Rng R(19);
  for (size_t N : kSortSizes) {
    for (int Set = 0; Set < 3; ++Set) {
      std::vector<item> V(N);
      for (size_t I = 0; I < N; ++I)
        V[I] = {KeyOf(Set, R.ith(I) % 8), static_cast<uint32_t>(I)};
      auto Check = [&](const std::vector<item> &S, const char *Path) {
        ASSERT_EQ(S.size(), N);
        for (size_t I = 1; I < N; ++I) {
          ASSERT_LE(S[I - 1].first, S[I].first)
              << Path << " N=" << N << " I=" << I;
          if (S[I - 1].first == S[I].first) {
            ASSERT_LT(S[I - 1].second, S[I].second)
                << Path << " N=" << N << " I=" << I;
          }
        }
      };
      auto ByRadix = V;
      par::radix_sort(ByRadix.data(), N,
                      [](const item &X) { return X.first; });
      Check(ByRadix, "radix");
      auto ByMerge = V;
      par::sort(ByMerge, [](const item &X, const item &Y) {
        return X.first < Y.first;
      });
      Check(ByMerge, "merge");
      EXPECT_EQ(ByRadix, ByMerge) << "N=" << N;
    }
  }
}

TEST(Primitives, SortCustomComparator) {
  auto V = par::tabulate(100000, [](size_t I) { return (int)hash64(I); });
  par::sort(V, std::greater<int>());
  for (size_t I = 1; I < V.size(); ++I)
    ASSERT_GE(V[I - 1], V[I]);
}

TEST(Primitives, UniqueSorted) {
  auto V = par::tabulate(100000, [](size_t I) { return I / 7; });
  size_t K = par::unique(V.data(), V.size());
  ASSERT_EQ(K, (100000 + 6) / 7);
  for (size_t I = 0; I < K; ++I)
    ASSERT_EQ(V[I], I);
}

TEST(Primitives, ReduceIndex) {
  long S = par::reduce_index(
      0, 1 << 20, [](size_t I) { return (long)I; }, 0L,
      [](long A, long B) { return A + B; });
  long N = 1 << 20;
  EXPECT_EQ(S, (N - 1) * N / 2);
}

TEST(Random, Determinism) {
  Rng A(5), B(5);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
  Rng C(6);
  EXPECT_NE(Rng(5).ith(0), C.ith(0));
}

TEST(Random, DoubleInUnitInterval) {
  Rng R(9);
  for (int I = 0; I < 1000; ++I) {
    double D = R.next_double();
    ASSERT_GE(D, 0.0);
    ASSERT_LT(D, 1.0);
  }
}
