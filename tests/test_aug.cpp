//===- test_aug.cpp - Augmented map queries vs brute force -----------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
#include <vector>

#include "gtest/gtest.h"

#include "src/api/aug_map.h"
#include "src/api/pam_set.h"
#include "src/encoding/diff_encoder.h"
#include "src/parallel/random.h"

using namespace cpam;

namespace {

template <class MapT> class AugSumTest : public ::testing::Test {};

using SumEntry = aug_sum_entry<uint64_t, uint64_t>;
using AugSumTypes =
    ::testing::Types<aug_map<SumEntry, 0>, aug_map<SumEntry, 2>,
                     aug_map<SumEntry, 16>, aug_map<SumEntry, 128>,
                     aug_map<SumEntry, 8, diff_encoder>,
                     aug_map<SumEntry, 64, diff_encoder>>;
TYPED_TEST_SUITE(AugSumTest, AugSumTypes);

TYPED_TEST(AugSumTest, AugValIsTotalSum) {
  std::vector<std::pair<uint64_t, uint64_t>> E;
  uint64_t Total = 0;
  for (uint64_t I = 0; I < 4000; ++I) {
    E.push_back({2 * I, I});
    Total += I;
  }
  TypeParam M(E);
  EXPECT_EQ(M.aug_val(), Total);
  EXPECT_EQ(M.check_invariants(), "");
}

// check_invariants recomputes every aggregate: one stale stored value, in
// a regular node or in a block, is a violation.
TYPED_TEST(AugSumTest, CheckerRejectsAStaleAggregate) {
  using NL = typename TypeParam::ops::NL;
  std::vector<std::pair<uint64_t, uint64_t>> E;
  for (uint64_t I = 0; I < 4000; ++I)
    E.push_back({2 * I, I});
  TypeParam M(E);
  ASSERT_EQ(M.check_invariants(), "");
  // The root, then the leftmost leaf: a block unless B = 0.
  auto *Leaf = M.root();
  while (!NL::is_flat(Leaf) && NL::as_regular(Leaf)->Left)
    Leaf = NL::as_regular(Leaf)->Left;
  for (auto *T : {M.root(), Leaf}) {
    uint64_t &Aug =
        NL::is_flat(T) ? NL::as_flat(T)->Aug : NL::as_regular(T)->Aug;
    const uint64_t Saved = Aug;
    Aug += 1;
    EXPECT_NE(M.check_invariants(), "")
        << (NL::is_flat(T) ? "block" : "regular node") << " of size "
        << T->Size;
    Aug = Saved;
  }
  EXPECT_EQ(M.check_invariants(), "");
}

TYPED_TEST(AugSumTest, AugRangeMatchesBruteForce) {
  std::vector<std::pair<uint64_t, uint64_t>> E;
  Rng R(3);
  for (uint64_t I = 0; I < 2000; ++I)
    E.push_back({3 * I, R.ith(I, 100)});
  TypeParam M(E);
  Rng Q(4);
  for (int T = 0; T < 200; ++T) {
    uint64_t Lo = Q.ith(2 * T, 6500);
    uint64_t Hi = Lo + Q.ith(2 * T + 1, 6500 - Lo);
    uint64_t Expect = 0;
    for (auto &[K, V] : E)
      if (K >= Lo && K <= Hi)
        Expect += V;
    ASSERT_EQ(M.aug_range(Lo, Hi), Expect) << "[" << Lo << "," << Hi << "]";
    TypeParam Rg = M.range(Lo, Hi);
    ASSERT_EQ(Rg.aug_val(), M.aug_range(Lo, Hi))
        << "[" << Lo << "," << Hi << "]";
    ASSERT_EQ(Rg.check_invariants(), "") << "[" << Lo << "," << Hi << "]";
  }
  // Prefix and suffix aggregates.
  for (uint64_t K : {0ul, 1ul, 2999ul, 3000ul, 9999ul}) {
    uint64_t L = 0, Rr = 0;
    for (auto &[Key, V] : E) {
      if (Key <= K)
        L += V;
      if (Key >= K)
        Rr += V;
    }
    ASSERT_EQ(M.aug_left(K), L);
    ASSERT_EQ(M.aug_right(K), Rr);
  }
}

// An order-sensitive augmentation: (count, first key, last key) combines
// associatively but not commutatively, so an aggregate that folds a block
// or a subtree out of key order shows in its first or last key.
struct KeySpan {
  uint64_t Count = 0, First = 0, Last = 0;
  bool operator==(const KeySpan &) const = default;
};

std::ostream &operator<<(std::ostream &OS, const KeySpan &S) {
  return OS << "{" << S.Count << ", " << S.First << ", " << S.Last << "}";
}

struct KeySpanEntry : map_entry<uint64_t, uint64_t> {
  using aug_t = KeySpan;
  static aug_t aug_empty() { return {}; }
  static aug_t aug_from_entry(const entry_t &E) {
    return {1, E.first, E.first};
  }
  static aug_t aug_combine(const aug_t &A, const aug_t &B) {
    if (!A.Count)
      return B;
    if (!B.Count)
      return A;
    return {A.Count + B.Count, A.First, B.Last};
  }
};

/// \p MapT's block size and encoder over KeySpanEntry.
template <class MapT> struct key_span_map;
template <class E, int B, template <class> class Enc>
struct key_span_map<aug_map<E, B, Enc>> {
  using type = aug_map<KeySpanEntry, B, Enc>;
};

// aug_left, aug_right, aug_range and range(...).aug_val() against a left
// fold over the sorted entries. Bounds fall inside one block, across
// blocks and outside the key range; a combine out of key order anywhere
// on a boundary path (or in a boundary block) changes the answer.
TYPED_TEST(AugSumTest, AugQueriesCombineLeftToRight) {
  using M = typename key_span_map<TypeParam>::type;
  constexpr uint64_t kN = 3000, kGap = 3;
  std::vector<std::pair<uint64_t, uint64_t>> E;
  for (uint64_t I = 0; I < kN; ++I)
    E.push_back({kGap * I + 1, I});
  M Map = M::from_sorted(E);
  auto Fold = [&](uint64_t Lo, uint64_t Hi) {
    KeySpan Acc;
    for (const auto &Ent : E)
      if (Ent.first >= Lo && Ent.first <= Hi)
        Acc = KeySpanEntry::aug_combine(Acc,
                                        KeySpanEntry::aug_from_entry(Ent));
    return Acc;
  };
  constexpr uint64_t kMaxKey = kGap * (kN - 1) + 1;
  const uint64_t Near = kGap * std::max<uint64_t>(M::ops::kB, 2);
  Rng Q(12);
  uint64_t Draws = 0;
  auto Next = [&](uint64_t Bound) { return Q.ith(Draws++, Bound); };
  for (int T = 0; T < 2000; ++T) {
    uint64_t Lo = Next(kMaxKey + 8), Hi;
    switch (T % 4) {
    case 0: // Within a block's width of Lo.
      Hi = Lo + Next(Near);
      break;
    case 1: // Anywhere above Lo, usually blocks away.
      Hi = Lo + Next(kMaxKey + 8 - Lo);
      break;
    case 2: // Open below or above the key range.
      if (Next(2)) {
        Hi = Lo;
        Lo = 0;
      } else {
        Hi = kMaxKey + 5;
      }
      break;
    default: // Near either end.
      Lo = Next(2) ? Next(Near) : kMaxKey - Next(Near);
      Hi = Lo + Next(Near);
    }
    ASSERT_EQ(Map.aug_left(Hi), Fold(0, Hi)) << "aug_left " << Hi;
    ASSERT_EQ(Map.aug_right(Lo), Fold(Lo, UINT64_MAX)) << "aug_right " << Lo;
    KeySpan Want = Fold(Lo, Hi);
    ASSERT_EQ(Map.aug_range(Lo, Hi), Want) << "[" << Lo << "," << Hi << "]";
    ASSERT_EQ(Map.range(Lo, Hi).aug_val(), Want)
        << "range [" << Lo << "," << Hi << "]";
  }
}

TYPED_TEST(AugSumTest, AugMaintainedThroughUpdates) {
  TypeParam M;
  uint64_t Total = 0;
  Rng R(5);
  for (int I = 0; I < 800; ++I) {
    uint64_t K = R.ith(I, 500), V = R.ith(I + 10000, 50);
    auto Old = M.find_entry(K);
    if (Old)
      Total -= Old->second;
    Total += V;
    M.insert_inplace(K, V);
    if (I % 97 == 0) {
      ASSERT_EQ(M.aug_val(), Total);
      ASSERT_EQ(M.check_invariants(), "");
    }
  }
  // Deletions keep the aggregate in sync as well.
  for (int I = 0; I < 400; ++I) {
    uint64_t K = R.ith(I + 50000, 500);
    auto Old = M.find_entry(K);
    if (Old)
      Total -= Old->second;
    M.remove_inplace(K);
    if (I % 83 == 0) {
      ASSERT_EQ(M.aug_val(), Total);
    }
  }
}

TYPED_TEST(AugSumTest, AugMaintainedThroughSetOps) {
  std::vector<std::pair<uint64_t, uint64_t>> A, B;
  for (uint64_t I = 0; I < 1000; ++I)
    A.push_back({I, 1});
  for (uint64_t I = 500; I < 1500; ++I)
    B.push_back({I, 10});
  TypeParam MA(A), MB(B);
  TypeParam U = TypeParam::map_union(MA, MB, std::plus<uint64_t>());
  // 500 keys with value 1, 500 with 11, 500 with 10.
  EXPECT_EQ(U.aug_val(), 500u * 1 + 500u * 11 + 500u * 10);
  TypeParam X = TypeParam::map_intersect(MA, MB, std::plus<uint64_t>());
  EXPECT_EQ(X.aug_val(), 500u * 11);
  TypeParam D = TypeParam::map_difference(MA, MB);
  EXPECT_EQ(D.aug_val(), 500u * 1);
}

// Random operand pairs at three scales: one block per operand, several
// blocks, and more than kappa entries in total (the pair recurses before
// it reaches a base case). Every set operation, batch update and point
// update must match std::map in its entries, its aggregate and its
// invariants, and leave its operands intact.
TYPED_TEST(AugSumTest, AugMaintainedThroughRandomSetOps) {
  using Entries = std::vector<std::pair<uint64_t, uint64_t>>;
  using Oracle = std::map<uint64_t, uint64_t>;
  using ops = typename TypeParam::ops;
  auto Check = [](const TypeParam &Got, const Oracle &Want, const char *What,
                  size_t Size, int Round) {
    uint64_t Sum = 0;
    for (const auto &KV : Want)
      Sum += KV.second;
    ASSERT_EQ(Got.check_invariants(), "")
        << What << " size " << Size << " round " << Round;
    ASSERT_EQ(Got.to_vector(), Entries(Want.begin(), Want.end()))
        << What << " size " << Size << " round " << Round;
    ASSERT_EQ(Got.aug_val(), Sum)
        << What << " size " << Size << " round " << Round;
  };
  auto Build = [](const Oracle &O) {
    return TypeParam::from_sorted(Entries(O.begin(), O.end()));
  };
  constexpr size_t kB = ops::kB;
  const size_t Sizes[] = {std::max<size_t>(2 * kB, 4),
                          8 * std::max<size_t>(kB, 8),
                          ops::kappa() + 16 * std::max<size_t>(kB, 8)};
  Rng R(11);
  uint64_t Draws = 0;
  auto Next = [&](uint64_t Bound) { return R.ith(Draws++, Bound); };
  for (size_t Size : Sizes) {
    // Each side holds Size/2..Size distinct keys out of 2 * Size, so about
    // half of the keys collide.
    auto Draw = [&] {
      Oracle O;
      size_t N = Size / 2 + Next(Size / 2 + 1);
      while (O.size() < N)
        O[Next(2 * Size)] = Next(100);
      return O;
    };
    for (int Round = 0; Round < 4; ++Round) {
      Oracle OA = Draw(), OB = Draw();
      TypeParam MA = Build(OA), MB = Build(OB);
      Oracle U = OA, X, D = OA, Up = OA;
      for (const auto &[K, V] : OB) {
        U[K] += V;
        D.erase(K);
        if (OA.count(K)) {
          X[K] = OA.at(K) + V;
          Up[K] = OA.at(K) + V;
        }
      }
      std::plus<uint64_t> Plus;
      Check(TypeParam::map_union(MA, MB, Plus), U, "union", Size, Round);
      Check(TypeParam::map_intersect(MA, MB, Plus), X, "intersect", Size,
            Round);
      Check(TypeParam::map_difference(MA, MB), D, "difference", Size, Round);
      // Unshared operands: the merge moves entries out of their blocks.
      Check(TypeParam::map_update(Build(OA), Build(OB), Plus), Up, "update",
            Size, Round);
      Check(MA.multi_insert(Entries(OB.begin(), OB.end()), Plus), U,
            "multi_insert", Size, Round);
      std::vector<uint64_t> Dels;
      for (const auto &KV : OB)
        Dels.push_back(KV.first);
      Check(MA.multi_delete(Dels), D, "multi_delete", Size, Round);
      uint64_t K = Next(2 * Size), V = Next(100);
      Oracle OI = OA;
      OI[K] = V;
      Check(MA.insert(K, V), OI, "insert", Size, Round);
      // Odd rounds remove a present key, even rounds an absent one.
      uint64_t KR = Round % 2 ? std::next(OA.begin(), Next(OA.size()))->first
                              : 2 * Size + 1;
      Oracle OR = OA;
      OR.erase(KR);
      Check(MA.remove(KR), OR, "remove", Size, Round);
      Check(MA, OA, "left operand", Size, Round);
      Check(MB, OB, "right operand", Size, Round);
      if (this->HasFatalFailure())
        return;
    }
  }
}

// filter, multi_insert and multi_delete splice single blocks; every block
// the writer seals recomputes its aggregate from the entries (make_flat).
// Every result must match brute force in its entries, its aggregate and
// its invariants, and leave its operand intact.
TYPED_TEST(AugSumTest, AugMaintainedThroughFilterAndBatches) {
  using Entries = std::vector<std::pair<uint64_t, uint64_t>>;
  using Oracle = std::map<uint64_t, uint64_t>;
  auto Check = [](const TypeParam &Got, const Oracle &Want, const char *What,
                  int Round) {
    uint64_t Sum = 0;
    for (const auto &KV : Want)
      Sum += KV.second;
    ASSERT_EQ(Got.check_invariants(), "") << What << " round " << Round;
    ASSERT_EQ(Got.to_vector(), Entries(Want.begin(), Want.end()))
        << What << " round " << Round;
    ASSERT_EQ(Got.aug_val(), Sum) << What << " round " << Round;
  };
  Rng R(8);
  Entries E;
  for (uint64_t I = 0; I < 3000; ++I)
    E.push_back({3 * I, R.ith(I, 100)});
  TypeParam M = TypeParam::from_sorted(E);
  Oracle O(E.begin(), E.end());
  for (int Round = 0; Round < 24; ++Round) {
    uint64_t Mod = 2 + Round % 5;
    auto Keep = [Mod](const auto &Ent) { return Ent.second % Mod != 0; };
    TypeParam F = M.filter(Keep);
    Oracle OF;
    for (const auto &KV : O)
      if (Keep(KV))
        OF.insert(KV);
    Check(F, OF, "filter", Round);
    // Batches from one key up to a few hundred, old and new keys mixed;
    // duplicate keys combine with the stored value by addition.
    size_t N = 1 + R.ith(1000 + Round, Round % 2 ? 400 : 12);
    Entries Batch;
    std::vector<uint64_t> Dels;
    for (size_t I = 0; I < N; ++I) {
      uint64_t K = R.ith(2000 * Round + 2 * I, 12000);
      Batch.push_back({K, R.ith(2000 * Round + 2 * I + 1, 100)});
      Dels.push_back(R.ith(50000 + 2000 * Round + I, 12000));
    }
    TypeParam MI = M.multi_insert(Batch, std::plus<uint64_t>());
    Oracle OI = O;
    for (const auto &[K, V] : Batch)
      OI[K] += V;
    Check(MI, OI, "multi_insert", Round);
    TypeParam MD = MI.multi_delete(Dels);
    Oracle OD = OI;
    for (uint64_t K : Dels)
      OD.erase(K);
    Check(MD, OD, "multi_delete", Round);
    Check(M, O, "operand", Round);
    Check(MI, OI, "multi_delete operand", Round);
    if (this->HasFatalFailure())
      return;
    M = MD;
    O = OD;
  }
}

using MaxEntry = aug_max_entry<uint64_t, uint64_t>;

TEST(AugMax, AugFilterPrunes) {
  using M = aug_map<MaxEntry, 16>;
  std::vector<std::pair<uint64_t, uint64_t>> E;
  for (uint64_t I = 0; I < 3000; ++I)
    E.push_back({I, I % 100});
  M Map(E);
  M Big = Map.aug_filter([](uint64_t A) { return A >= 90; });
  EXPECT_EQ(Big.size(), 300u);
  EXPECT_EQ(Big.check_invariants(), "");
  Big.foreach_seq([](const auto &Ent) { EXPECT_GE(Ent.second, 90u); });
}

TEST(AugMax, AugFindFirst) {
  using M = aug_map<MaxEntry, 8>;
  std::vector<std::pair<uint64_t, uint64_t>> E;
  for (uint64_t I = 0; I < 1000; ++I)
    E.push_back({I, I == 637 ? 999u : I % 10});
  M Map(E);
  auto Hit = Map.aug_find_first([](uint64_t A) { return A >= 500; });
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->first, 637u);
  EXPECT_FALSE(
      Map.aug_find_first([](uint64_t A) { return A >= 5000; }).has_value());
}

TEST(AugMax, RangeQueriesUseMax) {
  using M = aug_map<MaxEntry, 32>;
  std::vector<std::pair<uint64_t, uint64_t>> E;
  Rng R(6);
  for (uint64_t I = 0; I < 5000; ++I)
    E.push_back({I, R.ith(I, 1000000)});
  M Map(E);
  Rng Q(7);
  for (int T = 0; T < 100; ++T) {
    uint64_t Lo = Q.ith(2 * T, 5000);
    uint64_t Hi = std::min<uint64_t>(4999, Lo + Q.ith(2 * T + 1, 400));
    uint64_t Expect = std::numeric_limits<uint64_t>::lowest();
    for (uint64_t K = Lo; K <= Hi; ++K)
      Expect = std::max(Expect, E[K].second);
    ASSERT_EQ(Map.aug_range(Lo, Hi), Expect);
  }
}

// Nested structure: an augmented map whose values are themselves PaC-trees
// (the pattern used by the range tree and the graph representation). The
// augmented value is the total size of all inner sets.
struct NestedEntry {
  using inner_set = pam_set<uint32_t, 8>;
  using key_t = uint32_t;
  using val_t = inner_set;
  using entry_t = std::pair<uint32_t, inner_set>;
  using aug_t = size_t;
  static constexpr bool has_val = true;
  static const key_t &get_key(const entry_t &E) { return E.first; }
  static const val_t &get_val(const entry_t &E) { return E.second; }
  static val_t &get_val(entry_t &E) { return E.second; }
  static bool comp(key_t A, key_t B) { return A < B; }
  static aug_t aug_empty() { return 0; }
  static aug_t aug_from_entry(const entry_t &E) { return E.second.size(); }
  static aug_t aug_combine(aug_t A, aug_t B) { return A + B; }
};

TEST(NestedTrees, TreesAsValues) {
  using Outer = aug_map<NestedEntry, 4>;
  int64_t Before = alloc_stats::live_object_count();
  {
    std::vector<typename Outer::entry_t> E;
    size_t Total = 0;
    for (uint32_t I = 0; I < 200; ++I) {
      std::vector<uint32_t> Inner;
      for (uint32_t J = 0; J <= I % 17; ++J)
        Inner.push_back(J);
      Total += Inner.size();
      E.push_back({I, NestedEntry::inner_set(Inner)});
    }
    Outer M(E);
    EXPECT_EQ(M.size(), 200u);
    EXPECT_EQ(M.aug_val(), Total);
    auto Found = M.find_entry(16);
    ASSERT_TRUE(Found.has_value());
    EXPECT_EQ(Found->second.size(), 17u);
    EXPECT_TRUE(Found->second.contains(16));
    // Functional update of one inner set: snapshot the outer map first.
    Outer Snapshot = M;
    auto Entry16 = *M.find_entry(16);
    M.insert_inplace({16, Entry16.second.insert(999)});
    EXPECT_EQ(M.find_entry(16)->second.size(), 18u);
    EXPECT_EQ(Snapshot.find_entry(16)->second.size(), 17u)
        << "snapshot must not observe the new inner tree";
    EXPECT_EQ(M.aug_val(), Total + 1);
  }
  EXPECT_EQ(alloc_stats::live_object_count(), Before)
      << "nested trees leaked";
}

} // namespace
