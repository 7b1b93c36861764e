//===- test_seq.cpp - pam_seq sequence interface ---------------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include <numeric>

#include "gtest/gtest.h"

#include "src/api/pam_seq.h"
#include "src/parallel/random.h"
#include "tests/test_common.h"

using namespace cpam;

namespace {

/// Leak-checked: the fixture fails any test that does not return every tree
/// node to the allocator.
template <class SeqT> class SeqTest : public test::TypedLeakCheckTest<SeqT> {};

using SeqTypes =
    ::testing::Types<pam_seq<uint64_t, 0>, pam_seq<uint64_t, 2>,
                     pam_seq<uint64_t, 16>, pam_seq<uint64_t, 128>>;
TYPED_TEST_SUITE(SeqTest, SeqTypes);

int64_t liveObjects() { return alloc_stats::live_object_count(); }

TYPED_TEST(SeqTest, BuildPreservesOrder) {
  // Sequences keep arbitrary (unsorted) element order.
  std::vector<uint64_t> V(5000);
  Rng R(1);
  for (size_t I = 0; I < V.size(); ++I)
    V[I] = R.ith(I, 100);
  TypeParam S(V);
  EXPECT_EQ(S.size(), V.size());
  EXPECT_EQ(S.check_invariants(), "");
  EXPECT_EQ(S.to_vector(), V);
}

TYPED_TEST(SeqTest, NthMatchesVector) {
  std::vector<uint64_t> V(3000);
  std::iota(V.begin(), V.end(), 17);
  TypeParam S(V);
  for (size_t I = 0; I < V.size(); I += 13)
    ASSERT_EQ(S.nth(I), V[I]);
  ASSERT_EQ(S.nth(V.size() - 1), V.back());
}

TYPED_TEST(SeqTest, TakeDropSubseq) {
  int64_t Before = liveObjects();
  {
    std::vector<uint64_t> V(2500);
    std::iota(V.begin(), V.end(), 0);
    TypeParam S(V);
    for (size_t Cut : {0u, 1u, 100u, 1234u, 2500u}) {
      TypeParam T = S.take(Cut), D = S.drop(Cut);
      ASSERT_EQ(T.size(), Cut);
      ASSERT_EQ(D.size(), V.size() - Cut);
      ASSERT_EQ(T.check_invariants(), "");
      ASSERT_EQ(D.check_invariants(), "");
      auto TV = T.to_vector(), DV = D.to_vector();
      for (size_t I = 0; I < Cut; ++I)
        ASSERT_EQ(TV[I], V[I]);
      for (size_t I = 0; I < DV.size(); ++I)
        ASSERT_EQ(DV[I], V[Cut + I]);
    }
    TypeParam Sub = S.subseq(100, 200);
    ASSERT_EQ(Sub.size(), 100u);
    ASSERT_EQ(Sub.nth(0), 100u);
    ASSERT_EQ(Sub.nth(99), 199u);
  }
  EXPECT_EQ(liveObjects(), Before);
}

TYPED_TEST(SeqTest, AppendMatchesConcatenation) {
  int64_t Before = liveObjects();
  {
    for (auto [Na, Nb] : {std::pair<size_t, size_t>{0, 50},
                          {50, 0},
                          {1, 1},
                          {1000, 3},
                          {3, 1000},
                          {2000, 2000}}) {
      std::vector<uint64_t> A(Na), B(Nb);
      std::iota(A.begin(), A.end(), 0);
      std::iota(B.begin(), B.end(), 1000000);
      TypeParam SA(A), SB(B);
      TypeParam C = TypeParam::append(SA, SB);
      ASSERT_EQ(C.check_invariants(), "") << Na << "+" << Nb;
      std::vector<uint64_t> Expect = A;
      Expect.insert(Expect.end(), B.begin(), B.end());
      ASSERT_EQ(C.to_vector(), Expect);
      // Sources survive.
      ASSERT_EQ(SA.size(), Na);
      ASSERT_EQ(SB.size(), Nb);
    }
  }
  EXPECT_EQ(liveObjects(), Before);
}

TYPED_TEST(SeqTest, AppendAndSplitAtChunkBoundaries) {
  // append's flat x flat concat (both blocks flattened into one buffer)
  // and split_at's block cut must agree with the vector concatenation for
  // sizes around the block boundaries (flat + flat results of up to 4B
  // entries span two leaves, cut at the median).
  constexpr size_t B = TypeParam::ops::kB > 0 ? TypeParam::ops::kB : 16;
  auto R = test::seeded_rng();
  for (int Round = 0; Round < 2; ++Round) {
    for (size_t Na : {size_t(1), B, 2 * B - 1, 2 * B}) {
      for (size_t Nb : {size_t(1), B - 1, 2 * B}) {
        std::vector<uint64_t> A(Na), Bv(Nb);
        for (auto &X : A)
          X = R.next(1u << 20);
        for (auto &X : Bv)
          X = R.next(1u << 20);
        TypeParam SA(A), SB(Bv);
        TypeParam C = TypeParam::append(SA, SB);
        ASSERT_EQ(C.check_invariants(), "") << Na << "+" << Nb;
        std::vector<uint64_t> Expect = A;
        Expect.insert(Expect.end(), Bv.begin(), Bv.end());
        ASSERT_EQ(C.to_vector(), Expect);
        // Split the concatenation back apart at the seam and off-seam.
        for (size_t Cut : {size_t(0), Na, Na + Nb / 2, Na + Nb}) {
          TypeParam L = C.take(Cut), Rt = C.drop(Cut);
          ASSERT_EQ(L.check_invariants(), "");
          ASSERT_EQ(Rt.check_invariants(), "");
          ASSERT_EQ(L.size() + Rt.size(), Expect.size());
          auto LV = L.to_vector(), RV = Rt.to_vector();
          LV.insert(LV.end(), RV.begin(), RV.end());
          ASSERT_EQ(LV, Expect) << Na << "+" << Nb << " cut=" << Cut;
        }
      }
    }
  }
}

TYPED_TEST(SeqTest, Reverse) {
  std::vector<uint64_t> V(4321);
  std::iota(V.begin(), V.end(), 5);
  TypeParam S(V);
  TypeParam R = S.reverse();
  EXPECT_EQ(R.check_invariants(), "");
  std::vector<uint64_t> Expect(V.rbegin(), V.rend());
  EXPECT_EQ(R.to_vector(), Expect);
  EXPECT_EQ(R.reverse().to_vector(), V);
}

TYPED_TEST(SeqTest, MapFilterReduce) {
  std::vector<uint64_t> V(5000);
  std::iota(V.begin(), V.end(), 0);
  TypeParam S(V);
  TypeParam M = S.map([](uint64_t X) { return 3 * X; });
  EXPECT_EQ(M.nth(10), 30u);
  EXPECT_EQ(M.size(), V.size());
  TypeParam F = S.filter([](uint64_t X) { return X % 5 == 0; });
  EXPECT_EQ(F.size(), 1000u);
  EXPECT_EQ(F.nth(3), 15u);
  uint64_t Sum = S.reduce(uint64_t(0), std::plus<uint64_t>());
  EXPECT_EQ(Sum, uint64_t(4999) * 5000 / 2);
  uint64_t Max = S.map_reduce([](uint64_t X) { return X; }, uint64_t(0),
                              [](uint64_t A, uint64_t B) {
                                return std::max(A, B);
                              });
  EXPECT_EQ(Max, 4999u);
}

TYPED_TEST(SeqTest, MapMatchesVector) {
  // seq map's flat base case rewrites the flattened block in place; it
  // must agree with the plain vector transform, element for element.
  auto R = test::seeded_rng();
  std::vector<uint64_t> V(3000);
  for (auto &X : V)
    X = R.next(1u << 20);
  std::vector<uint64_t> Want(V.size());
  for (size_t I = 0; I < V.size(); ++I)
    Want[I] = V[I] * 7 + 3;
  TypeParam S(V);
  TypeParam M = S.map([](uint64_t X) { return X * 7 + 3; });
  ASSERT_EQ(M.size(), V.size());
  ASSERT_EQ(M.to_vector(), Want);
  ASSERT_EQ(S.to_vector(), V) << "operand changed";
}

TYPED_TEST(SeqTest, FindFirst) {
  std::vector<uint64_t> V(10000, 1);
  V[7777] = 42;
  TypeParam S(V);
  EXPECT_EQ(S.find_first([](uint64_t X) { return X == 42; }), 7777u);
  EXPECT_EQ(S.find_first([](uint64_t X) { return X == 43; }), V.size());
  EXPECT_EQ(S.find_first([](uint64_t X) { return X == 1; }), 0u);
}

TYPED_TEST(SeqTest, IsSorted) {
  std::vector<uint64_t> V(3000);
  std::iota(V.begin(), V.end(), 0);
  TypeParam S(V);
  EXPECT_TRUE(S.is_sorted());
  std::swap(V[1500], V[1501]);
  TypeParam S2(V);
  EXPECT_FALSE(S2.is_sorted());
  EXPECT_TRUE(TypeParam(std::vector<uint64_t>{}).is_sorted());
  EXPECT_TRUE(TypeParam(std::vector<uint64_t>{9}).is_sorted());
  // Equal elements count as sorted.
  EXPECT_TRUE(TypeParam(std::vector<uint64_t>(100, 7)).is_sorted());
}

TYPED_TEST(SeqTest, Tabulate) {
  TypeParam S = TypeParam::tabulate(1000, [](size_t I) { return I * I; });
  EXPECT_EQ(S.size(), 1000u);
  EXPECT_EQ(S.nth(31), 961u);
}

TYPED_TEST(SeqTest, SnapshotSemantics) {
  std::vector<uint64_t> V(100);
  std::iota(V.begin(), V.end(), 0);
  TypeParam A(V);
  TypeParam B = A; // O(1) snapshot.
  TypeParam C = TypeParam::append(A, B);
  EXPECT_EQ(A.size(), 100u);
  EXPECT_EQ(C.size(), 200u);
  EXPECT_EQ(A.to_vector(), V) << "append must not disturb sources";
}

class SeqMemory : public test::LeakCheckTest {};

TEST_F(SeqMemory, BlockedSequenceNearArraySize) {
  std::vector<uint64_t> V(200000);
  std::iota(V.begin(), V.end(), 0);
  pam_seq<uint64_t, 128> S(V);
  pam_seq<uint64_t, 0> P(V);
  size_t ArrayBytes = V.size() * sizeof(uint64_t);
  EXPECT_LT(S.size_in_bytes(), ArrayBytes * 12 / 10);
  EXPECT_GT(P.size_in_bytes(), ArrayBytes * 3); // P-trees pay per-node.
}

} // namespace
