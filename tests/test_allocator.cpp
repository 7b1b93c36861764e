//===- test_allocator.cpp - Pooled node allocator tests --------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Exercises the node allocation layer (allocator.h + pool_allocator.h):
// size-class mapping, every pooled class plus beyond-pool direct sizes,
// local-list drain/refill boundaries, cross-thread alloc/free (worker A
// allocates, worker B frees — the pattern parallel `dec` produces), and
// exactness of the live-object/live-byte counters when quiescent. The suite
// passes in both allocator modes: with CPAM_POOL_ALLOC=0 the pool-telemetry
// assertions are skipped but every alloc/free pattern still runs against
// the direct path (this is the configuration the sanitized CI job runs).
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

#include "src/api/pam_map.h"
#include "src/api/pam_set.h"
#include "src/core/pool_allocator.h"
#include "tests/test_common.h"

namespace {

using namespace cpam;

using AllocatorTest = test::LeakCheckTest;

//===----------------------------------------------------------------------===
// Size-class mapping.
//===----------------------------------------------------------------------===

TEST(PoolClassTest, SizeClassRoundTrip) {
  // Every pooled size maps to a class at least as large, within one
  // granule/doubling, and class indices are monotone in the request size.
  int PrevClass = -1;
  for (size_t Bytes = 1; Bytes <= pool_allocator::kLargeMax; ++Bytes) {
    int C = pool_allocator::size_class(Bytes);
    ASSERT_GE(C, 0) << Bytes;
    ASSERT_LT(static_cast<size_t>(C), pool_allocator::kNumClasses);
    size_t CB = pool_allocator::class_bytes(C);
    ASSERT_GE(CB, Bytes) << "class too small for request";
    if (C > 0) {
      ASSERT_LT(pool_allocator::class_bytes(C - 1), Bytes)
          << "request fits a smaller class";
    }
    ASSERT_GE(C, PrevClass) << "class index not monotone";
    PrevClass = C;
    // Skip ahead; exhaustively checking 64K sizes one by one is slow in
    // debug builds and adds nothing past the class boundaries.
    if (Bytes > 2 * pool_allocator::kSmallMax && Bytes % 997 != 0 &&
        pool_allocator::size_class(Bytes + 1) == C)
      Bytes += 96;
  }
  EXPECT_EQ(pool_allocator::size_class(0), -1);
  EXPECT_EQ(pool_allocator::size_class(pool_allocator::kLargeMax + 1), -1);
}

TEST(PoolClassTest, BatchBlocksBounded) {
  for (size_t C = 0; C < pool_allocator::kNumClasses; ++C) {
    size_t N = pool_allocator::batch_blocks(static_cast<int>(C));
    EXPECT_GE(N, 4u);
    EXPECT_LE(N, pool_allocator::kBatchBytes / pool_allocator::kGranularity);
  }
  // The dominant node classes exchange in batches of ~256.
  EXPECT_EQ(pool_allocator::batch_blocks(0), 256u);
}

//===----------------------------------------------------------------------===
// Raw tree_alloc / tree_free.
//===----------------------------------------------------------------------===

TEST_F(AllocatorTest, AllSizeClassesAndDirectSizes) {
  // One size below, at, and above every class boundary, plus beyond-pool
  // sizes served directly (large flat payloads and merge buffers).
  std::vector<size_t> Sizes;
  for (size_t C = 0; C < pool_allocator::kNumClasses; ++C) {
    size_t CB = pool_allocator::class_bytes(static_cast<int>(C));
    Sizes.push_back(CB - 1);
    Sizes.push_back(CB);
    Sizes.push_back(CB + 1);
  }
  Sizes.push_back(pool_allocator::kLargeMax + 1);
  Sizes.push_back(128 * 1024);
  Sizes.push_back(8 * 1024 * 1024);

  int64_t Objs0 = alloc_stats::live_object_count();
  int64_t Bytes0 = alloc_stats::live_byte_count();
  struct Alloc {
    void *P;
    size_t Bytes;
  };
  std::vector<Alloc> Live;
  int64_t Total = 0;
  for (size_t Bytes : Sizes) {
    void *P = tree_alloc(Bytes);
    ASSERT_NE(P, nullptr);
    ASSERT_EQ(reinterpret_cast<uintptr_t>(P) % 16, 0u)
        << "tree_alloc must return 16-byte aligned storage";
    // Touch the whole block; overlapping blocks would corrupt the pattern.
    std::memset(P, static_cast<int>(Bytes % 251), Bytes);
    Live.push_back({P, Bytes});
    Total += static_cast<int64_t>(Bytes);
  }
  EXPECT_EQ(alloc_stats::live_object_count() - Objs0,
            static_cast<int64_t>(Sizes.size()));
  EXPECT_EQ(alloc_stats::live_byte_count() - Bytes0, Total);
  for (const Alloc &A : Live) {
    const auto *B = static_cast<const unsigned char *>(A.P);
    for (size_t I = 0; I < A.Bytes; I += 61)
      ASSERT_EQ(B[I], static_cast<unsigned char>(A.Bytes % 251))
          << "block contents clobbered (overlapping allocations?)";
    tree_free(A.P, A.Bytes);
  }
  EXPECT_EQ(alloc_stats::live_object_count(), Objs0);
  EXPECT_EQ(alloc_stats::live_byte_count(), Bytes0);
}

TEST_F(AllocatorTest, BlocksOfOneClassDoNotOverlap) {
  constexpr size_t Bytes = 192; // An odd class: 3 granules.
  constexpr size_t N = 700;     // Spans several refill batches.
  std::vector<char *> Ps(N);
  for (size_t I = 0; I < N; ++I) {
    Ps[I] = static_cast<char *>(tree_alloc(Bytes));
    std::memset(Ps[I], static_cast<int>(I % 251), Bytes);
  }
  std::vector<char *> Sorted = Ps;
  std::sort(Sorted.begin(), Sorted.end());
  for (size_t I = 1; I < N; ++I)
    ASSERT_GE(Sorted[I] - Sorted[I - 1], static_cast<ptrdiff_t>(Bytes))
        << "live blocks overlap";
  for (size_t I = 0; I < N; ++I) {
    ASSERT_EQ(static_cast<unsigned char>(Ps[I][Bytes - 1]),
              static_cast<unsigned char>(I % 251));
    tree_free(Ps[I], Bytes);
  }
}

TEST_F(AllocatorTest, DrainRefillBoundaries) {
  constexpr size_t Bytes = 320; // Class of 5 granules; batch ~51 blocks.
  const int C = pool_allocator::size_class(Bytes);
  ASSERT_GE(C, 0);
  const size_t Batch = pool_allocator::batch_blocks(C);
  const size_t N = 3 * Batch + 7; // Crosses the drain threshold repeatedly.

  std::vector<void *> Ps(N);
  for (size_t I = 0; I < N; ++I)
    Ps[I] = tree_alloc(Bytes);
  if constexpr (pool_enabled()) {
    int64_t Reserved = pool_allocator::reserved_bytes();
    size_t LocalBefore = pool_allocator::local_free_blocks(C);
    size_t GlobalBefore = pool_allocator::global_free_blocks(C);
    for (size_t I = 0; I < N; ++I)
      tree_free(Ps[I], Bytes);
    // Every freed block is parked on a free list (nothing unmapped), and
    // the local list was capped by the drain threshold, pushing batches to
    // the global pool.
    size_t LocalAfter = pool_allocator::local_free_blocks(C);
    size_t GlobalAfter = pool_allocator::global_free_blocks(C);
    EXPECT_EQ(LocalAfter + GlobalAfter, LocalBefore + GlobalBefore + N);
    EXPECT_LT(LocalAfter, 2 * Batch) << "drain threshold never applied";
    EXPECT_GT(GlobalAfter, GlobalBefore) << "no batch reached the pool";
    // Re-allocating the same count must be served entirely from the free
    // lists (local first, then global batches) without growing the heap.
    for (size_t I = 0; I < N; ++I)
      Ps[I] = tree_alloc(Bytes);
    EXPECT_EQ(pool_allocator::reserved_bytes(), Reserved)
        << "re-allocation carved fresh slabs instead of recycling";
    // Some allocations may be served from a leftover bump-slab tail rather
    // than the free lists, so up to one batch of list blocks can stay
    // parked; the lists never shrink below their pre-churn level.
    size_t FinalFree = pool_allocator::local_free_blocks(C) +
                       pool_allocator::global_free_blocks(C);
    EXPECT_GE(FinalFree, LocalBefore + GlobalBefore);
    EXPECT_LE(FinalFree, LocalBefore + GlobalBefore + Batch);
    for (size_t I = 0; I < N; ++I)
      tree_free(Ps[I], Bytes);
  } else {
    for (size_t I = 0; I < N; ++I)
      tree_free(Ps[I], Bytes);
  }
}

TEST_F(AllocatorTest, ThreadChurnDoesNotStrandSlabs) {
  // A thread's exit drain must return *everything* — free lists and the
  // unconsumed bump-slab tail — or short-lived allocating threads would
  // grow reserved slab memory without bound.
  if constexpr (!pool_enabled())
    GTEST_SKIP() << "pool telemetry only exists in pooled mode";
  constexpr size_t Bytes = 448; // A class the main thread rarely touches.
  auto OneThreadCycle = [&] {
    std::thread T([&] {
      void *P = tree_alloc(Bytes);
      std::memset(P, 1, Bytes);
      tree_free(P, Bytes);
    });
    T.join();
  };
  OneThreadCycle(); // First cycle may carve this class's first slab.
  int64_t Reserved = pool_allocator::reserved_bytes();
  for (int I = 0; I < 30; ++I)
    OneThreadCycle();
  EXPECT_EQ(pool_allocator::reserved_bytes(), Reserved)
      << "thread exits stranded slab memory";
}

//===----------------------------------------------------------------------===
// Cross-thread traffic.
//===----------------------------------------------------------------------===

TEST_F(AllocatorTest, CrossThreadAllocFree) {
  // Worker A allocates, worker B frees — the traffic pattern a parallel
  // `dec` produces. Several rounds so B's local list repeatedly crosses the
  // drain threshold with blocks it never allocated.
  constexpr size_t Bytes = 64;
  constexpr size_t PerRound = 2000;
  constexpr int Rounds = 5;
  for (int R = 0; R < Rounds; ++R) {
    std::vector<void *> Ps(PerRound);
    std::thread A([&] {
      for (size_t I = 0; I < PerRound; ++I) {
        Ps[I] = tree_alloc(Bytes);
        std::memset(Ps[I], 0xAB, Bytes);
      }
    });
    A.join();
    std::thread B([&] {
      for (size_t I = 0; I < PerRound; ++I)
        tree_free(Ps[I], Bytes);
    });
    B.join();
  }
  // LeakCheckTest::TearDown proves the counters returned to baseline.
}

TEST_F(AllocatorTest, ExitedThreadsKeepLiveCountsExact) {
  // Each thread counts its allocations in its own block and folds it into
  // the dead-thread total when it exits. Threads that build trees and exit
  // before anyone frees them must leave the live counts exact — the sum
  // of their trees — and freeing the trees here, on a thread whose own
  // block then goes negative, must bring the counts back to the baseline.
  // Runs in both pool modes: nothing here reads pool telemetry.
  using Set = pam_set<uint64_t, 8>;
  constexpr int NumThreads = 6;
  const int64_t Objects0 = alloc_stats::live_object_count();
  const int64_t Bytes0 = alloc_stats::live_byte_count();
  std::vector<Set> Sets(NumThreads);
  std::vector<void *> Raw(NumThreads);
  std::vector<std::thread> Ts;
  for (int T = 0; T < NumThreads; ++T)
    Ts.emplace_back([&, T] {
      std::vector<uint64_t> Keys(500 + 300 * T);
      for (size_t I = 0; I < Keys.size(); ++I)
        Keys[I] = 7 * I + T;
      Sets[T] = Set(Keys);
      Raw[T] = tree_alloc(100 + 40 * T);
    });
  for (std::thread &T : Ts)
    T.join();
  int64_t WantObjects = NumThreads, WantBytes = 0;
  for (int T = 0; T < NumThreads; ++T) {
    WantObjects += static_cast<int64_t>(Sets[T].node_count());
    WantBytes += static_cast<int64_t>(Sets[T].size_in_bytes()) + 100 + 40 * T;
  }
  EXPECT_EQ(alloc_stats::live_object_count() - Objects0, WantObjects);
  EXPECT_EQ(alloc_stats::live_byte_count() - Bytes0, WantBytes);
  Sets.clear();
  for (int T = 0; T < NumThreads; ++T)
    tree_free(Raw[T], 100 + 40 * T);
  EXPECT_EQ(alloc_stats::live_object_count(), Objects0);
  EXPECT_EQ(alloc_stats::live_byte_count(), Bytes0);
}

TEST_F(AllocatorTest, SixteenThreadOversubscribedChurn) {
  // 16 threads (more than this machine's cores) hammer the same classes
  // concurrently: allocate a burst, hand it to a neighbor via a shared
  // mailbox, free what the previous round's neighbor left. Quiescent
  // counters must come back exact.
  constexpr int NumThreads = 16;
  constexpr int Rounds = 8;
  constexpr size_t PerBurst = 400;
  const size_t SizeOf[4] = {64, 192, 1024, 4096};

  std::vector<std::vector<void *>> Mailbox(NumThreads);
  for (int R = 0; R < Rounds; ++R) {
    std::vector<std::thread> Ts;
    Ts.reserve(NumThreads);
    for (int T = 0; T < NumThreads; ++T) {
      Ts.emplace_back([&, T] {
        // Free the burst a different thread allocated last round.
        for (void *P : Mailbox[T])
          tree_free(P, SizeOf[T % 4]);
        Mailbox[T].clear();
        // Allocate a burst destined for a neighbor (freed next round with
        // the neighbor's size index — so compute the size the *freer* will
        // use).
        int Dest = (T + 1) % NumThreads;
        size_t Bytes = SizeOf[Dest % 4];
        Mailbox[T].reserve(PerBurst);
        for (size_t I = 0; I < PerBurst; ++I) {
          void *P = tree_alloc(Bytes);
          std::memset(P, T, Bytes < 64 ? Bytes : 64);
          Mailbox[T].push_back(P);
        }
      });
    }
    for (std::thread &T : Ts)
      T.join();
    // Rotate mailboxes so each burst is freed by a different thread.
    std::vector<void *> Last = std::move(Mailbox[NumThreads - 1]);
    for (int T = NumThreads - 1; T > 0; --T)
      Mailbox[T] = std::move(Mailbox[T - 1]);
    Mailbox[0] = std::move(Last);
  }
  for (int T = 0; T < NumThreads; ++T)
    for (void *P : Mailbox[T])
      tree_free(P, SizeOf[T % 4]);
}

//===----------------------------------------------------------------------===
// Tree-level churn through the pool.
//===----------------------------------------------------------------------===

TEST_F(AllocatorTest, TreeBuiltHereFreedThere) {
  // Build trees on one thread, release the last reference on another —
  // every node crosses threads between allocation and free.
  auto Rng = test::seeded_rng();
  for (int Round = 0; Round < 3; ++Round) {
    pam_map<uint64_t, uint64_t, 128> Blocked;
    pam_map<uint64_t, uint64_t, 0> Plain;
    std::thread Builder([&] {
      std::vector<std::pair<uint64_t, uint64_t>> Es(20000);
      for (size_t I = 0; I < Es.size(); ++I)
        Es[I] = {Rng.next() % 1000000, I};
      Blocked = pam_map<uint64_t, uint64_t, 128>(Es);
      Plain = pam_map<uint64_t, uint64_t, 0>(Es);
    });
    Builder.join();
    EXPECT_EQ(Blocked.size(), Plain.size());
    std::thread Destroyer([&] {
      Blocked = {};
      Plain = {};
    });
    Destroyer.join();
  }
}

// A value type large enough that a full flat block (2B entries) overflows
// the pooled range and takes the direct beyond-pool path in make_flat.
struct BigVal {
  unsigned char Payload[512];
  bool operator==(const BigVal &O) const {
    return std::memcmp(Payload, O.Payload, sizeof(Payload)) == 0;
  }
};

TEST_F(AllocatorTest, BeyondPoolFlatPayloads) {
  constexpr int B = 128; // 2B entries * ~520B > 64 KiB pooled maximum.
  using Map = pam_map<uint64_t, BigVal, B>;
  std::vector<std::pair<uint64_t, BigVal>> Es(4 * B);
  for (size_t I = 0; I < Es.size(); ++I) {
    Es[I].first = I * 3;
    std::memset(Es[I].second.Payload, static_cast<int>(I % 256),
                sizeof(BigVal::Payload));
  }
  Map M = Map::from_sorted(Es);
  ASSERT_EQ(M.size(), Es.size());
  ASSERT_TRUE(M.check_invariants().empty()) << M.check_invariants();
  for (size_t I = 0; I < Es.size(); I += 37) {
    auto V = M.find(Es[I].first);
    ASSERT_TRUE(V.has_value());
    EXPECT_TRUE(*V == Es[I].second);
  }
  // Batch-update churn over the oversized payloads.
  std::vector<std::pair<uint64_t, BigVal>> Batch(B);
  for (size_t I = 0; I < Batch.size(); ++I) {
    Batch[I].first = I * 3 + 1;
    std::memset(Batch[I].second.Payload, 7, sizeof(BigVal::Payload));
  }
  Map M2 = M.multi_insert(Batch);
  EXPECT_EQ(M2.size(), Es.size() + Batch.size());
}

TEST_F(AllocatorTest, SetOpChurnQuiescentExact) {
  // union/intersect/difference drive the flatten-and-merge base cases,
  // the heaviest temp_buf users. Quiescent counters must be exact.
  auto Rng = test::seeded_rng();
  std::vector<uint64_t> Ka(30000), Kb(30000);
  for (size_t I = 0; I < Ka.size(); ++I) {
    Ka[I] = Rng.next() % 100000;
    Kb[I] = Rng.next() % 100000;
  }
  pam_set<uint64_t, 128> A(Ka), B(Kb);
  auto U = pam_set<uint64_t, 128>::map_union(A, B);
  auto I = pam_set<uint64_t, 128>::map_intersect(A, B);
  auto D = pam_set<uint64_t, 128>::map_difference(A, B);
  EXPECT_EQ(U.size(), A.size() + B.size() - I.size());
  EXPECT_EQ(D.size(), A.size() - I.size());
}

TEST_F(AllocatorTest, PerClassTelemetryBalancesWhenQuiescent) {
  if constexpr (!pool_enabled())
    GTEST_SKIP() << "pool telemetry only exists in pooled mode";
  else {
    auto Before = pool_allocator::stats();
    {
      // A build/destroy cycle heavy enough to cross the drain threshold of
      // the regular-node class and force global-pool round trips.
      using Map = pam_map<uint64_t, uint64_t, 0>; // B=0: one node per entry.
      std::vector<Map::entry_t> E(50000);
      for (size_t I = 0; I < E.size(); ++I)
        E[I] = {I, I};
      for (int Round = 0; Round < 3; ++Round) {
        Map M = Map::from_sorted(E);
        EXPECT_EQ(M.size(), E.size());
      }
    }
    auto After = pool_allocator::stats();
    uint64_t TotalAllocs = 0;
    for (size_t C = 0; C < pool_allocator::kNumClasses; ++C) {
      uint64_t DA = After[C].Allocs - Before[C].Allocs;
      uint64_t DF = After[C].Frees - Before[C].Frees;
      // Everything built in this test was destroyed: per class, allocation
      // and free *events* must balance exactly (residency in the free
      // lists does not affect the counters).
      EXPECT_EQ(DA, DF) << "class " << C << " (" << After[C].BlockBytes
                        << " B)";
      TotalAllocs += DA;
      // Exchange traffic only makes sense where traffic happened.
      if (DA == 0) {
        EXPECT_EQ(After[C].RefillBatches, Before[C].RefillBatches);
        EXPECT_EQ(After[C].DrainBatches, Before[C].DrainBatches);
      }
    }
    // 3 rounds x 50000 single-entry nodes dominate everything else here.
    EXPECT_GE(TotalAllocs, 150000u);
    // The build/teardown cycles must have recycled through the pool, not
    // carved fresh slabs every round: round 2+ should be served mostly by
    // refills of round 1's drained batches.
    uint64_t Carves = 0, Refills = 0;
    for (size_t C = 0; C < pool_allocator::kNumClasses; ++C) {
      Carves += After[C].SlabCarves - Before[C].SlabCarves;
      Refills += After[C].RefillBatches - Before[C].RefillBatches;
    }
    EXPECT_GT(Refills, 0u);
    EXPECT_GT(Carves, 0u);
  }
}

} // namespace
