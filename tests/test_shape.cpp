//===- test_shape.cpp - Small-subtree shape and allocation budgets ---------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// In a blocked tree every subtree of at most 2B entries is one flat block.
// These tests check that shape on every kind of API result small enough to
// be one block (node_count() == 1) for raw, diff and gamma sets, a diff
// map, an augmented map and sequences; that the invariant checker rejects
// the all-regular small shape; and that small merges, split, range, sparse
// set operations, one-block splices and a graph batch update stay within a
// fixed allocation budget (pool telemetry, so pooled builds only).
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "src/api/aug_map.h"
#include "src/api/pam_map.h"
#include "src/api/pam_seq.h"
#include "src/api/pam_set.h"
#include "src/core/pool_allocator.h"
#include "src/encoding/diff_encoder.h"
#include "src/encoding/gamma_encoder.h"
#include "src/graph/graph.h"
#include "tests/test_common.h"

using namespace cpam;

namespace {

/// The entry with key \p K (maps get a key-derived value).
template <class Coll> typename Coll::entry_t entry_of(uint64_t K) {
  if constexpr (Coll::entry_traits::has_val)
    return {K, 3 * K + 1};
  else
    return K;
}

/// Entries with keys 0, 2, ..., 2(N-1): odd keys are absent.
template <class Coll> std::vector<typename Coll::entry_t> evens(size_t N) {
  std::vector<typename Coll::entry_t> V;
  for (uint64_t I = 0; I < N; ++I)
    V.push_back(entry_of<Coll>(2 * I));
  return V;
}

/// Empty if \p C (an ordered collection or a sequence) passes its invariant
/// check and, holding at most 2B entries, is exactly one block; else a
/// description.
template <class Coll> std::string shape_error(const Coll &C) {
  std::string Err = C.check_invariants();
  if (!Err.empty())
    return Err;
  if (C.size() > 0 && C.size() <= 2 * Coll::ops::kB && C.node_count() != 1)
    return std::to_string(C.size()) + " entries in " +
           std::to_string(C.node_count()) + " nodes";
  return "";
}

/// Runs every ordered-collection result shape over \p Coll.
template <class Coll> void run_ordered_shapes() {
  using Ops = typename Coll::ops;
  constexpr size_t B = Ops::kB;
  auto R = test::seeded_rng(B);

  for (size_t N = 1; N <= 4 * B + 2; ++N)
    ASSERT_EQ(shape_error(Coll::from_sorted(evens<Coll>(N))), "")
        << "from_sorted N=" << N;

  // Point updates in shuffled order: up to 3B entries, then back to empty,
  // so every size up to 2B is reached by both insert and remove.
  std::vector<uint64_t> Keys(3 * B);
  for (size_t I = 0; I < Keys.size(); ++I)
    Keys[I] = 2 * I;
  for (size_t I = Keys.size(); I > 1; --I)
    std::swap(Keys[I - 1], Keys[R.next(I)]);
  Coll C;
  for (uint64_t K : Keys) {
    C = C.insert(entry_of<Coll>(K));
    ASSERT_EQ(shape_error(C), "") << "insert " << K;
  }
  for (uint64_t K : Keys) {
    C = C.remove(K);
    ASSERT_EQ(shape_error(C), "") << "remove " << K;
  }

  // Both split pieces, at every present (even) and absent (odd) key.
  for (size_t N : {2 * B, 2 * B + 1, 3 * B, 4 * B + 1, 8 * B}) {
    Coll T = Coll::from_sorted(evens<Coll>(N));
    for (uint64_t K = 0; K <= 2 * N; ++K) {
      auto S = Ops::split(Ops::inc(T.root()), K);
      Coll L = Coll::take_root(S.L), Rt = Coll::take_root(S.R);
      ASSERT_EQ(shape_error(L), "") << "split left N=" << N << " K=" << K;
      ASSERT_EQ(shape_error(Rt), "") << "split right N=" << N << " K=" << K;
    }
  }

  const size_t Big = 8 * B;
  Coll T = Coll::from_sorted(evens<Coll>(Big));
  for (size_t W = 1; W <= 2 * B + 1; ++W) {
    for (uint64_t Lo : {uint64_t{0}, uint64_t{2 * B + 1}, 2 * (Big - W)}) {
      Coll Rg = T.range(Lo, Lo + 2 * W - 1);
      ASSERT_EQ(shape_error(Rg), "") << "range [" << Lo << "," << W << ")";
    }
    Coll F = T.filter([&](const auto &E) {
      return Coll::entry_traits::get_key(E) / 2 % (Big / W) == 0;
    });
    ASSERT_EQ(shape_error(F), "") << "filter W=" << W;
  }

  // Intersect, difference and multi_delete leaving S scattered entries.
  for (size_t S = 1; S <= 2 * B; ++S) {
    std::vector<uint64_t> Kept, Rest;
    for (uint64_t I = 0; I < Big; ++I)
      (I % (Big / S) == 0 && Kept.size() < S ? Kept : Rest).push_back(2 * I);
    std::vector<typename Coll::entry_t> KeptE, RestE;
    for (uint64_t K : Kept)
      KeptE.push_back(entry_of<Coll>(K));
    for (uint64_t K : Rest)
      RestE.push_back(entry_of<Coll>(K));
    Coll KeptT = Coll::from_sorted(KeptE), RestT = Coll::from_sorted(RestE);
    Coll X = Coll::map_intersect(T, KeptT);
    ASSERT_EQ(X.size(), S);
    ASSERT_EQ(shape_error(X), "") << "intersect S=" << S;
    Coll D = Coll::map_difference(T, RestT);
    ASSERT_EQ(D.size(), S);
    ASSERT_EQ(shape_error(D), "") << "difference S=" << S;
    Coll MD = T.multi_delete(Rest);
    ASSERT_EQ(MD.size(), S);
    ASSERT_EQ(shape_error(MD), "") << "multi_delete S=" << S;
    // Small unions and batch inserts stay one block up to 2B.
    Coll U = Coll::map_union(X, Coll::from_sorted(evens<Coll>(2 * B - S)));
    ASSERT_EQ(shape_error(U), "") << "union S=" << S;
    Coll MI = Coll().multi_insert(KeptE);
    ASSERT_EQ(shape_error(MI), "") << "multi_insert S=" << S;
  }
}

class TreeShape : public test::LeakCheckTest {};

TEST_F(TreeShape, RawSetResultsUpTo2BAreOneBlock) {
  run_ordered_shapes<pam_set<uint64_t, 8>>();
}
TEST_F(TreeShape, DiffSetResultsUpTo2BAreOneBlock) {
  run_ordered_shapes<pam_set<uint64_t, 8, diff_encoder>>();
  run_ordered_shapes<pam_set<uint64_t, 32, diff_encoder>>();
}
TEST_F(TreeShape, GammaSetResultsUpTo2BAreOneBlock) {
  run_ordered_shapes<pam_set<uint64_t, 8, gamma_encoder>>();
}
TEST_F(TreeShape, DiffMapResultsUpTo2BAreOneBlock) {
  run_ordered_shapes<pam_map<uint64_t, uint64_t, 8, diff_encoder>>();
}
TEST_F(TreeShape, AugMapResultsUpTo2BAreOneBlock) {
  run_ordered_shapes<aug_map<aug_sum_entry<uint64_t, uint64_t>, 8>>();
}

TEST_F(TreeShape, SeqResultsUpTo2BAreOneBlock) {
  using Seq = pam_seq<uint64_t, 8>;
  constexpr size_t B = Seq::ops::kB;
  for (size_t N = 1; N <= 4 * B + 2; ++N) {
    std::vector<uint64_t> V(N);
    for (size_t I = 0; I < N; ++I)
      V[I] = 1000 - I;
    Seq S(V);
    ASSERT_EQ(shape_error(S), "") << "build N=" << N;
    // take and drop are the two pieces of split_at.
    for (size_t I = 0; I <= N; ++I) {
      ASSERT_EQ(shape_error(S.take(I)), "") << "take N=" << N << " I=" << I;
      ASSERT_EQ(shape_error(S.drop(I)), "") << "drop N=" << N << " I=" << I;
    }
  }
}

// The tightened checker rejects the shape Fig. 5's node() builds for small
// trees: regular nodes over at most 2B entries.
TEST_F(TreeShape, CheckerRejectsRegularNodesOverSmallSubtrees) {
  using Ops = pam_set<uint64_t, 8>::ops;
  uint64_t A = 1, C = 3;
  Ops::node_t *T =
      Ops::make_regular(Ops::make_flat(&A, 1), 2, Ops::make_flat(&C, 1));
  EXPECT_NE(invariant_checker<Ops>::check(T).find("one flat block"),
            std::string::npos)
      << invariant_checker<Ops>::check(T);
  Ops::dec(T);
  Ops::node_t *One = Ops::make_regular(nullptr, 7, nullptr);
  EXPECT_NE(invariant_checker<Ops>::check(One), "");
  Ops::dec(One);
}

/// Pool allocations (every size class, every thread) made by \p F.
template <class F> uint64_t pool_allocs(const F &Fn) {
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

class AllocBudget : public test::LeakCheckTest {};

// A one-entry union or difference against a one-block set allocates only
// its result block, however full the block is (an all-regular small result
// would cost one per entry): both flatten their operands into scratch
// arrays and merge them, and the writer's pending array and the scratch
// arrays of a block this small live inside their objects.
TEST_F(AllocBudget, SmallMergeCostIsIndependentOfBlockFill) {
  if (!pool_enabled())
    GTEST_SKIP() << "pool telemetry only exists in pooled mode";
  using Set = pam_set<uint32_t, 64, diff_encoder>;
  std::vector<uint64_t> Unions, Diffs;
  for (uint32_t D : {5u, 20u, 50u, 63u}) {
    std::vector<uint32_t> Keys(D);
    for (uint32_t I = 0; I < D; ++I)
      Keys[I] = 2 * I;
    Set A = Set::from_sorted(Keys), One = Set::from_sorted({D | 1u});
    ASSERT_EQ(A.node_count(), 1u);
    ASSERT_EQ(One.node_count(), 1u);
    Unions.push_back(pool_allocs([&] {
      Set U = Set::map_union(A, One);
      ASSERT_EQ(U.size(), D + 1u);
    }));
    Diffs.push_back(pool_allocs([&] {
      Set Df = Set::map_difference(A, One);
      ASSERT_EQ(Df.size(), D);
    }));
  }
  for (size_t I = 1; I < Unions.size(); ++I) {
    EXPECT_EQ(Unions[I], Unions[0]) << "union allocations grow with d";
    EXPECT_EQ(Diffs[I], Diffs[0]) << "difference allocations grow with d";
  }
  EXPECT_EQ(Unions[0], 1u);
  EXPECT_EQ(Diffs[0], 1u);
}

// split of a snapshot copies one root-to-leaf path: O(log n) allocations,
// not one per entry of the small pieces at the leaf. Measured worst case:
// 28 = LogN + 8.
TEST_F(AllocBudget, SplitAllocatesLogarithmically) {
  if (!pool_enabled())
    GTEST_SKIP() << "pool telemetry only exists in pooled mode";
  using Map = pam_map<uint64_t, uint64_t, 128, diff_encoder>;
  using Ops = Map::ops;
  constexpr size_t LogN = 20, N = size_t{1} << LogN;
  std::vector<Map::entry_t> E(N);
  for (uint64_t I = 0; I < N; ++I)
    E[I] = {3 * I, I};
  Map M = Map::from_sorted(std::move(E));
  auto R = test::seeded_rng();
  uint64_t Worst = 0;
  for (int I = 0; I < 64; ++I) {
    uint64_t K = R.next(3 * N);
    Worst = std::max(Worst, pool_allocs([&] {
                       auto S = Ops::split(Ops::inc(M.root()), K);
                       EXPECT_EQ(Ops::size(S.L) + Ops::size(S.R) +
                                     (S.E ? 1 : 0),
                                 N);
                       Ops::dec(S.L);
                       Ops::dec(S.R);
                     }));
  }
  EXPECT_LE(Worst, LogN + 8);
}

// A splice of one block flattens it once into a temp_buf and builds each
// result block with one make_flat. 256 16-byte entries fill the buffer's
// 4 KiB of in-object scratch exactly, so on a one-block 256-entry map a
// split at an interior key allocates only its two pieces; filter,
// map_values and range one block each; and a split joined back with join2
// four blocks: the two pieces, then join2's split_last cuts the left piece
// and node_join folds the rest into one block.
TEST_F(AllocBudget, OneBlockSplicesAllocateOnlyTheirResultBlocks) {
  if (!pool_enabled())
    GTEST_SKIP() << "pool telemetry only exists in pooled mode";
  using Map = pam_map<uint64_t, uint64_t, 128, diff_encoder>;
  using Ops = Map::ops;
  constexpr size_t N = 256;
  Map M = Map::from_sorted(evens<Map>(N)); // Keys 0, 2, ..., 510.
  ASSERT_EQ(M.node_count(), 1u);
  // Absent (odd) and present (even) keys with at least two entries on
  // each side.
  for (uint64_t K : {5, 100, 255, 256, 505}) {
    SCOPED_TRACE("K=" + std::to_string(K));
    EXPECT_EQ(pool_allocs([&] {
                auto S = Ops::split(Ops::inc(M.root()), K);
                ASSERT_EQ(Ops::size(S.L), (K + 1) / 2);
                Ops::dec(S.L);
                Ops::dec(S.R);
              }),
              2u);
    EXPECT_EQ(pool_allocs([&] {
                auto S = Ops::split(Ops::inc(M.root()), K);
                Map J = Map::take_root(Ops::join2(S.L, S.R));
                ASSERT_EQ(J.size(), N - (K % 2 == 0));
              }),
              4u);
  }
  EXPECT_EQ(pool_allocs([&] {
              Map F = M.filter([](const auto &E) { return E.first % 4 == 0; });
              ASSERT_EQ(F.size(), N / 2);
            }),
            1u);
  EXPECT_EQ(pool_allocs([&] {
              Map V = M.map_values([](const auto &E) { return E.second + 1; });
              ASSERT_EQ(V.size(), N);
            }),
            1u);
  EXPECT_EQ(pool_allocs([&] {
              Map Rg = M.range(100, 300);
              ASSERT_EQ(Rg.size(), 101u);
            }),
            1u);
}

// range copies at most two partial blocks and shares every whole subtree
// inside the range with one inc, so its allocations depend on the width W,
// not on n. Random widths in [512, 1536] also reach the rotations inside
// join that expose a block: it splits at its median into two blocks, so a
// rotation costs a few allocations, not one regular node per entry.
// Measured worst cases with these seeds: 3, 11 and 15 at both sizes (271
// for the random widths when expose rebuilt a block as up to 2B regular
// nodes).
TEST_F(AllocBudget, RangeAllocationsDependOnWidthNotSize) {
  if (!pool_enabled())
    GTEST_SKIP() << "pool telemetry only exists in pooled mode";
  using Map = pam_map<uint64_t, uint64_t, 128, diff_encoder>;
  constexpr size_t LogN[] = {16, 20};
  // Widths 128 and 1024 at 64 positions each, then random widths in
  // [512, 1536] at 500 positions.
  constexpr size_t Widths[] = {128, 1024, 0}, Positions[] = {64, 64, 500};
  constexpr size_t Budget[] = {3, 11, 15};
  uint64_t Worst[2][3] = {};
  for (size_t S = 0; S < 2; ++S) {
    const size_t N = size_t{1} << LogN[S];
    std::vector<Map::entry_t> E(N);
    for (uint64_t I = 0; I < N; ++I)
      E[I] = {3 * I, I};
    Map M = Map::from_sorted(std::move(E));
    auto R = test::seeded_rng(LogN[S]);
    for (size_t Wi = 0; Wi < 3; ++Wi) {
      for (size_t I = 0; I < Positions[Wi]; ++I) {
        const size_t W = Widths[Wi] ? Widths[Wi] : 512 + R.next(1025);
        uint64_t First = R.next(N - W);
        uint64_t Allocs = pool_allocs([&] {
          Map Rg = M.range(3 * First, 3 * (First + W - 1));
          ASSERT_EQ(Rg.size(), W);
          ASSERT_EQ(Rg.first()->first, 3 * First);
        });
        Worst[S][Wi] = std::max(Worst[S][Wi], Allocs);
      }
    }
  }
  for (size_t Wi = 0; Wi < 3; ++Wi) {
    SCOPED_TRACE("W=" + (Widths[Wi] ? std::to_string(Widths[Wi])
                                      : std::string("512..1536")));
    EXPECT_LE(Worst[1][Wi], Worst[0][Wi] + 1) << "allocations grow with n";
    EXPECT_LE(Worst[1][Wi], Budget[Wi]);
  }
}

// A set operation exposes its larger operand and splits only the smaller
// one, so merging k scattered keys into an n-entry map rewrites the blocks
// the keys land in plus the regular nodes above them: O(k log n)
// allocations, whichever argument comes first. The keys are new, so the
// intersection is empty and the difference removes nothing. A point insert
// is a one-entry multi_insert and allocates exactly what it does; a point
// remove and a one-key multi_delete_sorted of an existing key walk the same
// path. Measured worst cases: one key 9 at 2^16 and 13 at 2^20 for every
// one-key call (intersect 0: the empty result allocates nothing); 8 keys
// at 2^20 99; 64 keys at 2^20 598 (intersect 126). A split or merge
// flattens a block into a temp_buf whose 4 KiB of in-object scratch holds
// a whole 16-byte-entry B=128 block, so a cut allocates only its pieces.
TEST_F(AllocBudget, SparseSetOpsRewriteOnlyTheBlocksTheyTouch) {
  if (!pool_enabled())
    GTEST_SKIP() << "pool telemetry only exists in pooled mode";
  using Map = pam_map<uint64_t, uint64_t, 128, diff_encoder>;
  // One key (union, difference, multi_insert, insert, remove,
  // multi_delete_sorted), one key (intersect), 8 keys at 2^20 (union,
  // difference), 64 keys at 2^20 (union, difference), 64 keys at 2^20
  // (intersect).
  const uint64_t OneKey = 13, OneKeyIntersect = 0, Keys8 = 99;
  const uint64_t Keys64 = 598, Keys64Intersect = 126;
  for (size_t LogN : {16, 20}) {
    const size_t N = size_t{1} << LogN;
    std::vector<Map::entry_t> E(N);
    for (uint64_t I = 0; I < N; ++I)
      E[I] = {3 * I, I};
    Map A = Map::from_sorted(std::move(E));
    auto R = test::seeded_rng(LogN);
    for (size_t K : {1, 8, 64}) {
      SCOPED_TRACE("n=2^" + std::to_string(LogN) +
                   " k=" + std::to_string(K));
      for (int Trial = 0; Trial < 16; ++Trial) {
        std::vector<Map::entry_t> New;
        for (size_t I = 0; I < K; ++I) {
          uint64_t Key = 3 * R.next(N) + 1;
          New.push_back({Key, Key});
        }
        std::sort(New.begin(), New.end());
        New.erase(std::unique(New.begin(), New.end()), New.end());
        Map S = Map::from_sorted(New);
        const size_t NU = N + New.size();
        uint64_t UnionAS = pool_allocs(
            [&] { ASSERT_EQ(Map::map_union(A, S).size(), NU); });
        uint64_t UnionSA = pool_allocs(
            [&] { ASSERT_EQ(Map::map_union(S, A).size(), NU); });
        uint64_t Diff = pool_allocs(
            [&] { ASSERT_EQ(Map::map_difference(A, S).size(), N); });
        uint64_t Multi = pool_allocs(
            [&] { ASSERT_EQ(A.multi_insert(New).size(), NU); });
        uint64_t Inter = pool_allocs(
            [&] { ASSERT_EQ(Map::map_intersect(A, S).size(), 0u); });
        EXPECT_EQ(UnionAS, UnionSA) << "the argument order changes the work";
        if (K == 1) {
          const uint64_t Old = New[0].first - 1; // 3r: a key of A.
          uint64_t Insert = pool_allocs(
              [&] { ASSERT_EQ(A.insert(New[0]).size(), NU); });
          uint64_t Remove =
              pool_allocs([&] { ASSERT_EQ(A.remove(Old).size(), N - 1); });
          uint64_t DelSorted = pool_allocs([&] {
            ASSERT_EQ(A.multi_delete_sorted({Old}).size(), N - 1);
          });
          EXPECT_EQ(Insert, Multi) << "a point insert is a one-entry batch";
          EXPECT_LE(UnionAS, OneKey);
          EXPECT_LE(Diff, OneKey);
          EXPECT_LE(Multi, OneKey);
          EXPECT_LE(Insert, OneKey);
          EXPECT_LE(Remove, OneKey);
          EXPECT_LE(DelSorted, OneKey);
          EXPECT_LE(Inter, OneKeyIntersect);
        }
        if (K == 8 && LogN == 20) {
          EXPECT_LE(UnionAS, Keys8);
          EXPECT_LE(Diff, Keys8);
        }
        if (K == 64 && LogN == 20) {
          EXPECT_LE(UnionAS, Keys64);
          EXPECT_LE(Diff, Keys64);
          EXPECT_LE(Inter, Keys64Intersect);
        }
      }
    }
  }
}

// One batch update of the graph layer: a symmetrized 512-edge rMAT batch
// inserted into and then deleted from a 4096-vertex rMAT graph. Each source
// the batch touches costs its new edge block (the one-block edge-set union
// or difference allocates only its result) plus its share of the vertex
// tree's rewritten blocks and paths, and the delete applies its delta in
// one keep-left pass with no lookup per source. Measured: 1,794 and 1,792
// (4,343 and 2,653 before the in-object scratch and the keep-left delete).
TEST_F(AllocBudget, GraphBatchUpdate) {
  if (!pool_enabled())
    GTEST_SKIP() << "pool telemetry only exists in pooled mode";
  sym_graph G = sym_graph::from_edges(rmat_graph(12, 40000), 1 << 12);
  std::vector<edge_pair> Batch;
  for (auto [U, V] : rmat_edges(12, 512)) {
    Batch.push_back({U, V});
    Batch.push_back({V, U});
  }
  sym_graph Ins, Del;
  uint64_t InsertAllocs = pool_allocs([&] { Ins = G.insert_edges(Batch); });
  uint64_t DeleteAllocs = pool_allocs([&] { Del = Ins.delete_edges(Batch); });
  ASSERT_EQ(Ins.check_invariants(), "");
  ASSERT_EQ(Del.check_invariants(), "");
  ASSERT_GT(Ins.num_edges(), G.num_edges());
  ASSERT_LT(Del.num_edges(), Ins.num_edges());
  EXPECT_LE(InsertAllocs, 1794u);
  EXPECT_LE(DeleteAllocs, 1792u);
}

} // namespace
