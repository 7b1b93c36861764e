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

// integer_sort runs one pass per 8-bit digit that some key uses: full
// 64-bit keys take all eight, packed (source, target) pairs below 2^16 take
// four (the digit mask has holes), and keys with one used digit take one,
// an odd count that ends in the scratch array and is copied back. Sizes
// cover the comparison-sort cutoff, one block and many blocks.
TEST(Primitives, IntegerSortMatchesStdSort) {
  Rng R(17);
  auto Full = [&](size_t I) { return R.ith(I); };
  auto Packed = [&](size_t I) {
    uint64_t X = R.ith(I);
    return (X >> 48) << 32 | (X & 0xffff);
  };
  auto OneDigit = [&](size_t I) { return (R.ith(I) & 0xff) << 24; };
  for (size_t N : {0u, 1u, 256u, 257u, 2048u, 8192u, 100003u}) {
    for (int Shape = 0; Shape < 3; ++Shape) {
      std::vector<uint64_t> V(N);
      for (size_t I = 0; I < N; ++I)
        V[I] = Shape == 0 ? Full(I) : Shape == 1 ? Packed(I) : OneDigit(I);
      auto Expect = V;
      std::sort(Expect.begin(), Expect.end());
      par::integer_sort(V);
      ASSERT_EQ(V, Expect) << "N=" << N << " shape=" << Shape;
    }
  }
  std::vector<uint32_t> Small(5000);
  for (size_t I = 0; I < Small.size(); ++I)
    Small[I] = static_cast<uint32_t>(R.ith(I) % 1000);
  auto Expect = Small;
  std::sort(Expect.begin(), Expect.end());
  par::integer_sort(Small);
  EXPECT_EQ(Small, Expect);
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
