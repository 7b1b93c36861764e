//===- test_set_ops.cpp - union/intersect/difference/multi_insert ----------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <atomic>
#include <set>

#include "gtest/gtest.h"

#include "src/api/pam_map.h"
#include "src/api/pam_set.h"
#include "src/encoding/diff_encoder.h"
#include "src/parallel/random.h"
#include "src/parallel/scheduler.h"
#include "tests/test_common.h"

using namespace cpam;

namespace {

/// Leak-checked: the fixture fails any test that does not return every tree
/// node to the allocator.
template <class SetT> class SetOpsTest : public test::TypedLeakCheckTest<SetT> {};

using SetTypes = ::testing::Types<
    pam_set<uint64_t, 0>,                 // P-tree baseline
    pam_set<uint64_t, 2>, pam_set<uint64_t, 4>, pam_set<uint64_t, 16>,
    pam_set<uint64_t, 128>,               // Paper default
    pam_set<uint64_t, 32, diff_encoder>>; // Compressed
TYPED_TEST_SUITE(SetOpsTest, SetTypes);

std::vector<uint64_t> randomKeys(size_t N, uint64_t Universe, uint64_t Seed) {
  std::vector<uint64_t> V(N);
  Rng R(Seed);
  for (size_t I = 0; I < N; ++I)
    V[I] = R.ith(I, Universe);
  return V;
}

int64_t liveObjects() { return alloc_stats::live_object_count(); }

TYPED_TEST(SetOpsTest, UnionMatchesStdSet) {
  int64_t Before = liveObjects();
  {
    for (auto [Na, Nb] : {std::pair<size_t, size_t>{0, 100},
                          {100, 0},
                          {1000, 1000},
                          {5000, 50},
                          {37, 4211}}) {
      auto A = randomKeys(Na, 3000, 1);
      auto B = randomKeys(Nb, 3000, 2);
      TypeParam SA(A), SB(B);
      TypeParam U = TypeParam::map_union(SA, SB);
      ASSERT_EQ(U.check_invariants(), "") << Na << "+" << Nb;
      std::set<uint64_t> Ref(A.begin(), A.end());
      Ref.insert(B.begin(), B.end());
      ASSERT_EQ(U.size(), Ref.size());
      for (uint64_t K : Ref)
        ASSERT_TRUE(U.contains(K)) << K;
      // Inputs unchanged (purely functional).
      ASSERT_EQ(SA.size(), std::set<uint64_t>(A.begin(), A.end()).size());
      ASSERT_EQ(SB.size(), std::set<uint64_t>(B.begin(), B.end()).size());
    }
  }
  EXPECT_EQ(liveObjects(), Before) << "set union leaked nodes";
}

TYPED_TEST(SetOpsTest, IntersectMatchesStdSet) {
  int64_t Before = liveObjects();
  {
    for (auto [Na, Nb] : {std::pair<size_t, size_t>{500, 500},
                          {2000, 100},
                          {100, 2000},
                          {0, 10},
                          {1000, 1000}}) {
      auto A = randomKeys(Na, 1500, 3);
      auto B = randomKeys(Nb, 1500, 4);
      TypeParam SA(A), SB(B);
      TypeParam X = TypeParam::map_intersect(SA, SB);
      ASSERT_EQ(X.check_invariants(), "");
      std::set<uint64_t> RA(A.begin(), A.end()), RB(B.begin(), B.end()), Ref;
      for (uint64_t K : RA)
        if (RB.count(K))
          Ref.insert(K);
      ASSERT_EQ(X.size(), Ref.size());
      for (uint64_t K : Ref)
        ASSERT_TRUE(X.contains(K));
    }
  }
  EXPECT_EQ(liveObjects(), Before);
}

TYPED_TEST(SetOpsTest, DifferenceMatchesStdSet) {
  int64_t Before = liveObjects();
  {
    for (auto [Na, Nb] : {std::pair<size_t, size_t>{1000, 1000},
                          {2000, 10},
                          {10, 2000}}) {
      auto A = randomKeys(Na, 1500, 5);
      auto B = randomKeys(Nb, 1500, 6);
      TypeParam SA(A), SB(B);
      TypeParam D = TypeParam::map_difference(SA, SB);
      ASSERT_EQ(D.check_invariants(), "");
      std::set<uint64_t> RA(A.begin(), A.end()), RB(B.begin(), B.end());
      size_t Expect = 0;
      for (uint64_t K : RA) {
        if (RB.count(K)) {
          ASSERT_FALSE(D.contains(K));
        } else {
          ASSERT_TRUE(D.contains(K));
          ++Expect;
        }
      }
      ASSERT_EQ(D.size(), Expect);
    }
  }
  EXPECT_EQ(liveObjects(), Before);
}

TYPED_TEST(SetOpsTest, UnionIsCommutativeAndAssociative) {
  auto A = randomKeys(800, 2000, 7);
  auto B = randomKeys(900, 2000, 8);
  auto C = randomKeys(700, 2000, 9);
  TypeParam SA(A), SB(B), SC(C);
  auto AB_C = TypeParam::map_union(TypeParam::map_union(SA, SB), SC);
  auto A_BC = TypeParam::map_union(SA, TypeParam::map_union(SB, SC));
  auto BA = TypeParam::map_union(SB, SA);
  auto AB = TypeParam::map_union(SA, SB);
  EXPECT_EQ(AB_C.to_vector(), A_BC.to_vector());
  EXPECT_EQ(AB.to_vector(), BA.to_vector());
}

TYPED_TEST(SetOpsTest, SelfOperations) {
  auto A = randomKeys(1000, 5000, 10);
  TypeParam SA(A);
  EXPECT_EQ(TypeParam::map_union(SA, SA).size(), SA.size());
  EXPECT_EQ(TypeParam::map_intersect(SA, SA).size(), SA.size());
  EXPECT_EQ(TypeParam::map_difference(SA, SA).size(), 0u);
}

TYPED_TEST(SetOpsTest, MultiInsertMatchesUnion) {
  int64_t Before = liveObjects();
  {
    auto A = randomKeys(3000, 10000, 11);
    TypeParam SA(A);
    for (size_t BatchSize : {1u, 10u, 1000u, 5000u}) {
      auto B = randomKeys(BatchSize, 10000, 12 + BatchSize);
      TypeParam ViaMulti = SA.multi_insert(B);
      TypeParam ViaUnion = TypeParam::map_union(SA, TypeParam(B));
      ASSERT_EQ(ViaMulti.check_invariants(), "");
      ASSERT_EQ(ViaMulti.to_vector(), ViaUnion.to_vector());
    }
  }
  EXPECT_EQ(liveObjects(), Before);
}

TYPED_TEST(SetOpsTest, MultiDeleteMatchesDifference) {
  auto A = randomKeys(3000, 10000, 13);
  TypeParam SA(A);
  for (size_t BatchSize : {1u, 100u, 2500u}) {
    auto B = randomKeys(BatchSize, 10000, 14 + BatchSize);
    TypeParam ViaMulti = SA.multi_delete(B);
    TypeParam ViaDiff = TypeParam::map_difference(SA, TypeParam(B));
    ASSERT_EQ(ViaMulti.check_invariants(), "");
    ASSERT_EQ(ViaMulti.to_vector(), ViaDiff.to_vector());
  }
}

TYPED_TEST(SetOpsTest, LargeImbalancedUnion) {
  // Exercises the O(m log(n/m)) path plus base cases.
  auto A = randomKeys(100000, 1u << 30, 15);
  auto B = randomKeys(100, 1u << 30, 16);
  TypeParam SA(A), SB(B);
  TypeParam U = TypeParam::map_union(SA, SB);
  ASSERT_EQ(U.check_invariants(), "");
  std::set<uint64_t> Ref(A.begin(), A.end());
  Ref.insert(B.begin(), B.end());
  EXPECT_EQ(U.size(), Ref.size());
  for (uint64_t K : B)
    EXPECT_TRUE(U.contains(K));
}

// Map-specific: value combination on key collisions.
class MapSetOps : public test::LeakCheckTest {};

TEST_F(MapSetOps, UnionCombinesValues) {
  using M = pam_map<uint64_t, uint64_t, 16>;
  std::vector<std::pair<uint64_t, uint64_t>> A, B;
  for (uint64_t I = 0; I < 100; ++I)
    A.push_back({I, 1});
  for (uint64_t I = 50; I < 150; ++I)
    B.push_back({I, 2});
  M MA(A), MB(B);
  // Default: right (second map) wins.
  M U = M::map_union(MA, MB);
  EXPECT_EQ(*U.find(10), 1u);
  EXPECT_EQ(*U.find(70), 2u);
  EXPECT_EQ(*U.find(120), 2u);
  // Custom combine: sum.
  M S = M::map_union(MA, MB, std::plus<uint64_t>());
  EXPECT_EQ(*S.find(10), 1u);
  EXPECT_EQ(*S.find(70), 3u);
  EXPECT_EQ(*S.find(120), 2u);
  // Intersection keeps combined values too.
  M X = M::map_intersect(MA, MB, std::plus<uint64_t>());
  EXPECT_EQ(X.size(), 50u);
  EXPECT_EQ(*X.find(70), 3u);
}

TEST_F(MapSetOps, MultiInsertCombineWithinBatch) {
  using M = pam_map<uint64_t, uint64_t, 16>;
  M Empty;
  std::vector<std::pair<uint64_t, uint64_t>> Batch;
  for (uint64_t I = 0; I < 30; ++I)
    Batch.push_back({I % 10, 1});
  M Out = Empty.multi_insert(Batch, std::plus<uint64_t>());
  EXPECT_EQ(Out.size(), 10u);
  for (uint64_t K = 0; K < 10; ++K)
    EXPECT_EQ(*Out.find(K), 3u);
  // And combination with pre-existing values.
  M Out2 = Out.multi_insert(Batch, std::plus<uint64_t>());
  for (uint64_t K = 0; K < 10; ++K)
    EXPECT_EQ(*Out2.find(K), 6u);
}

// Point and batch updates rebuild only the side of a node that gets batch
// entries and reuse the other, so updates whose keys all land in one block
// walk one path and never fork, however large the tree. The sorted entry
// points are used because multi_insert's sort forks on its own.
TEST_F(MapSetOps, UpdatesInsideOneBlockDoNotFork) {
  if (par::num_workers() == 1)
    GTEST_SKIP() << "a one-worker pool runs every fork inline";
  using M = pam_map<uint64_t, uint64_t, 128, diff_encoder>;
  const size_t N = size_t{1} << 16;
  std::vector<M::entry_t> E(N);
  for (uint64_t I = 0; I < N; ++I)
    E[I] = {3 * I, I};
  M A = M::from_sorted(std::move(E));
  // The first block holds the 128 smallest keys, 0..381.
  std::vector<M::entry_t> New;
  std::vector<uint64_t> Old;
  for (uint64_t I = 0; I < 8; ++I) {
    New.push_back({3 * I + 1, I});
    Old.push_back(3 * I);
  }
  auto Forks = [] { return par::scheduler_stats().Forks; };
  // Each result stays alive until the count is read: releasing a large
  // tree forks.
  uint64_t Before = Forks();
  M Ins = A.insert(New[0]);
  EXPECT_EQ(Forks(), Before) << "point insert";
  Before = Forks();
  M Rem = A.remove(Old[1]);
  EXPECT_EQ(Forks(), Before) << "point remove";
  Before = Forks();
  M MultiIns = A.multi_insert_sorted(New);
  EXPECT_EQ(Forks(), Before) << "8-key multi_insert_sorted";
  Before = Forks();
  M MultiDel = A.multi_delete_sorted(Old);
  EXPECT_EQ(Forks(), Before) << "8-key multi_delete_sorted";
  EXPECT_EQ(Ins.size(), N + 1);
  EXPECT_EQ(Rem.size(), N - 1);
  EXPECT_EQ(MultiIns.size(), N + 8);
  EXPECT_EQ(MultiDel.size(), N - 8);
  for (const M *Out : {&Ins, &Rem, &MultiIns, &MultiDel})
    EXPECT_EQ(Out->check_invariants(), "");
}

//===----------------------------------------------------------------------===//
// Flat-block regressions: the base cases that flatten blocks and merge
// them into the leaf writer must keep the set semantics and the block
// invariants exactly.
//===----------------------------------------------------------------------===//

class FlatFastPath : public test::LeakCheckTest {};

// Oversized-leaf folding: splicing a batch into a full 2B leaf (and joining
// two full leaves) must fold the result back into legal [B,2B] leaves.
TEST_F(FlatFastPath, OversizedLeafFolding) {
  auto FoldCase = [](auto SetTag, size_t TwoB) {
    using Set = decltype(SetTag);
    std::vector<uint64_t> Evens(TwoB), Odds(TwoB);
    for (size_t I = 0; I < TwoB; ++I) {
      Evens[I] = 2 * I;
      Odds[I] = 2 * I + 1;
    }
    Set A = Set::from_sorted(Evens);
    ASSERT_EQ(A.node_count(), 1u) << "a 2B-entry tree must be one leaf";
    // multi_insert splice: 2B + 2B entries can no longer be one leaf.
    Set Spliced = A.multi_insert(Odds);
    ASSERT_EQ(Spliced.check_invariants(), "");
    ASSERT_EQ(Spliced.size(), 2 * TwoB);
    ASSERT_GT(Spliced.node_count(), 1u);
    // union of two full leaves folds the same way.
    Set U = Set::map_union(A, Set::from_sorted(Odds));
    ASSERT_EQ(U.check_invariants(), "");
    ASSERT_EQ(U.to_vector(), Spliced.to_vector());
    // Shrinking splice: deleting most of a leaf must leave one small root
    // block, not an undersized interior leaf.
    std::vector<uint64_t> Most(Evens.begin(), Evens.end() - 3);
    Set Small = A.multi_delete(Most);
    ASSERT_EQ(Small.check_invariants(), "");
    ASSERT_EQ(Small.size(), 3u);
    // Near-2B splice: total stays within one leaf, so byte-coded encoders
    // take the single-leaf streaming splice (batches past 2B instead run
    // the chunked multi-leaf merge).
    size_t B2 = TwoB / 2; // == block-size B.
    Set Partial = Set::from_sorted(
        std::vector<uint64_t>(Evens.begin(), Evens.begin() + B2 + 2));
    std::vector<uint64_t> SmallBatch(Odds.begin(), Odds.begin() + B2 - 4);
    Set NearFull = Partial.multi_insert(SmallBatch);
    ASSERT_EQ(NearFull.check_invariants(), "");
    ASSERT_EQ(NearFull.size(), TwoB - 2);
    ASSERT_EQ(NearFull.node_count(), 1u)
        << "a result of 2B-2 entries must still be a single leaf";
  };
  FoldCase(pam_set<uint64_t, 8>(), 16);
  FoldCase(pam_set<uint64_t, 128>(), 256);
  FoldCase(pam_set<uint64_t, 32, diff_encoder>(), 64);
}

// The combine op must run exactly once per duplicate key in every base-case
// shape.
TEST_F(FlatFastPath, CombineOpInvokedOncePerDuplicateKey) {
  using M = pam_map<uint64_t, uint64_t, 16>;
  for (auto [Na, Nb, Overlap] : {std::tuple<size_t, size_t, size_t>{32, 32, 16},
                                 {300, 200, 100},
                                 {2000, 2000, 777}}) {
    std::vector<std::pair<uint64_t, uint64_t>> A, B;
    for (size_t I = 0; I < Na; ++I)
      A.push_back({I, 1});
    for (size_t I = Na - Overlap; I < Na - Overlap + Nb; ++I)
      B.push_back({I, 2});
    M MA(A), MB(B);
    // Atomic: parallel union branches invoke the combine op concurrently.
    std::atomic<int64_t> Calls = 0;
    auto CountingPlus = [&Calls](uint64_t X, uint64_t Y) {
      Calls.fetch_add(1, std::memory_order_relaxed);
      return X + Y;
    };
    M U = M::map_union(MA, MB, CountingPlus);
    ASSERT_EQ(Calls.load(), static_cast<int64_t>(Overlap)) << "union";
    ASSERT_EQ(U.size(), Na + Nb - Overlap);
    ASSERT_EQ(*U.find(Na - Overlap), 3u);
    Calls = 0;
    M X = M::map_intersect(MA, MB, CountingPlus);
    ASSERT_EQ(Calls.load(), static_cast<int64_t>(Overlap)) << "intersect";
    ASSERT_EQ(X.size(), Overlap);
    Calls = 0;
    M MI = MA.multi_insert(B, CountingPlus);
    ASSERT_EQ(Calls.load(), static_cast<int64_t>(Overlap)) << "multi_insert";
    ASSERT_EQ(MI.to_vector(), U.to_vector());
  }
}

/// Entry type proving the ownership discipline of flatten: entries leave
/// consumed (uniquely owned) blocks by move, never by copy, and shared
/// blocks are copied exactly once per entry.
struct Tracked {
  uint64_t K = 0;
  static int64_t Copies;
  Tracked() = default;
  explicit Tracked(uint64_t K) : K(K) {}
  Tracked(const Tracked &O) : K(O.K) { ++Copies; }
  Tracked(Tracked &&O) noexcept = default;
  Tracked &operator=(const Tracked &O) {
    K = O.K;
    ++Copies;
    return *this;
  }
  Tracked &operator=(Tracked &&O) noexcept = default;
};
int64_t Tracked::Copies = 0;

struct TrackedEntry {
  using key_t = uint64_t;
  using val_t = no_aug;
  using entry_t = Tracked;
  using aug_t = no_aug;
  static constexpr bool has_val = false;
  static const key_t &get_key(const entry_t &E) { return E.K; }
  static bool comp(const key_t &A, const key_t &B) { return A < B; }
};

TEST_F(FlatFastPath, ConsumedBlocksAreMovedNotCopied) {
  using Ops = map_ops<TrackedEntry, raw_encoder, 8>;
  constexpr size_t N = 16; // One full leaf per side (B=8, 2B=16).
  auto MakeLeaf = [](uint64_t First) {
    std::vector<Tracked> A(N);
    for (size_t I = 0; I < N; ++I)
      A[I] = Tracked(First + 2 * I);
    return Ops::from_array_move(A.data(), N);
  };
  {
    // Unique operands: the whole union must happen by moves alone.
    Ops::node_t *T1 = MakeLeaf(0), *T2 = MakeLeaf(1);
    Tracked::Copies = 0;
    Ops::node_t *U = Ops::union_(T1, T2, take_right());
    EXPECT_EQ(Tracked::Copies, 0)
        << "uniquely owned blocks must be consumed by move";
    EXPECT_EQ(Ops::size(U), 2 * N);
    Ops::dec(U);
  }
  {
    // Shared operands: exactly one copy per entry (the decode), never two.
    Ops::node_t *T1 = MakeLeaf(0), *T2 = MakeLeaf(1);
    Ops::inc(T1);
    Ops::inc(T2);
    Tracked::Copies = 0;
    Ops::node_t *U = Ops::union_(T1, T2, take_right());
    EXPECT_EQ(Tracked::Copies, static_cast<int64_t>(2 * N))
        << "shared blocks must be copied exactly once per entry";
    EXPECT_EQ(Ops::size(U), 2 * N);
    Ops::dec(U);
    Ops::dec(T1);
    Ops::dec(T2);
  }
}

// Every flat-block result must satisfy the Def. 4.1 invariants, across a
// randomized mix of shapes.
TEST_F(FlatFastPath, InvariantsHoldOnEveryFastPathResult) {
  auto RunMix = [](auto SetTag, uint64_t Salt) {
    using Set = decltype(SetTag);
    auto R = test::seeded_rng(Salt);
    for (int Round = 0; Round < 50; ++Round) {
      size_t Na = 1 + R.next(600), Nb = 1 + R.next(600);
      std::vector<uint64_t> A(Na), B(Nb);
      for (auto &K : A)
        K = R.next(2000);
      for (auto &K : B)
        K = R.next(2000);
      Set SA(A), SB(B);
      for (Set Out : {Set::map_union(SA, SB), Set::map_intersect(SA, SB),
                      Set::map_difference(SA, SB), SA.multi_insert(B),
                      SA.multi_delete(B)}) {
        ASSERT_EQ(Out.check_invariants(), "")
            << "Na=" << Na << " Nb=" << Nb;
      }
    }
  };
  RunMix(pam_set<uint64_t, 4>(), 1);
  RunMix(pam_set<uint64_t, 16>(), 2);
  RunMix(pam_set<uint64_t, 128>(), 3);
  RunMix(pam_set<uint64_t, 16, diff_encoder>(), 4);
}

// Cross-block-size agreement: all representations are views of the same
// abstract set, so every operation must agree elementwise.
TEST(CrossRepresentation, AllBlockSizesAgree) {
  auto A = randomKeys(5000, 40000, 17);
  auto B = randomKeys(3000, 40000, 18);
  pam_set<uint64_t, 0> A0(A), B0(B);
  pam_set<uint64_t, 8> A8(A), B8(B);
  pam_set<uint64_t, 128> A128(A), B128(B);
  pam_set<uint64_t, 64, diff_encoder> AD(A), BD(B);
  auto U0 = decltype(A0)::map_union(A0, B0).to_vector();
  auto U8 = decltype(A8)::map_union(A8, B8).to_vector();
  auto U128 = decltype(A128)::map_union(A128, B128).to_vector();
  auto UD = decltype(AD)::map_union(AD, BD).to_vector();
  EXPECT_EQ(U0, U8);
  EXPECT_EQ(U0, U128);
  EXPECT_EQ(U0, UD);
}

} // namespace
