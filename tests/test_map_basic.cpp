//===- test_map_basic.cpp - pam_map point operations vs std::map -----------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include <map>
#include <string>

#include "gtest/gtest.h"

#include "src/api/pam_map.h"
#include "src/encoding/diff_encoder.h"
#include "src/parallel/random.h"
#include "tests/test_common.h"

using namespace cpam;

namespace {

/// Typed across block sizes, including the P-tree baseline (B = 0) and the
/// difference-encoded variant. Every test is leak-checked: the fixture
/// snapshots the live node count and fails on unreclaimed nodes.
template <class MapT>
class MapBasicTest : public test::TypedLeakCheckTest<MapT> {};

using MapTypes = ::testing::Types<
    pam_map<uint64_t, uint64_t, 0>,   // P-tree (PAM baseline)
    pam_map<uint64_t, uint64_t, 2>,   // Tiny blocks stress folding
    pam_map<uint64_t, uint64_t, 8>,
    pam_map<uint64_t, uint64_t, 128>, // Paper default
    pam_map<uint64_t, uint64_t, 16, diff_encoder>,
    pam_map<uint64_t, uint64_t, 128, diff_val_encoder>>;
TYPED_TEST_SUITE(MapBasicTest, MapTypes);

int64_t liveObjects() { return alloc_stats::live_object_count(); }

TYPED_TEST(MapBasicTest, EmptyMap) {
  TypeParam M;
  EXPECT_EQ(M.size(), 0u);
  EXPECT_TRUE(M.empty());
  EXPECT_FALSE(M.find(42).has_value());
  EXPECT_EQ(M.check_invariants(), "");
}

TYPED_TEST(MapBasicTest, BuildAndFind) {
  int64_t Before = liveObjects();
  {
    std::vector<std::pair<uint64_t, uint64_t>> Entries;
    for (uint64_t I = 0; I < 1000; ++I)
      Entries.push_back({3 * I, I});
    TypeParam M(Entries);
    EXPECT_EQ(M.size(), 1000u);
    EXPECT_EQ(M.check_invariants(), "");
    for (uint64_t I = 0; I < 1000; ++I) {
      auto V = M.find(3 * I);
      ASSERT_TRUE(V.has_value()) << "key " << 3 * I;
      EXPECT_EQ(*V, I);
      EXPECT_FALSE(M.find(3 * I + 1).has_value());
    }
  }
  EXPECT_EQ(liveObjects(), Before) << "leak: nodes not reclaimed";
}

TYPED_TEST(MapBasicTest, BuildCombinesDuplicates) {
  std::vector<std::pair<uint64_t, uint64_t>> Entries;
  for (uint64_t I = 0; I < 300; ++I)
    Entries.push_back({I % 100, I});
  TypeParam M(Entries, [](uint64_t A, uint64_t B) { return A + B; });
  EXPECT_EQ(M.size(), 100u);
  for (uint64_t K = 0; K < 100; ++K) {
    auto V = M.find(K);
    ASSERT_TRUE(V.has_value());
    EXPECT_EQ(*V, K + (K + 100) + (K + 200));
  }
}

/// Duplicate keys in a build or a batch combine left to right: with the
/// default combine the last writer wins, and a non-commutative combine
/// folds the values in input order. Keys I % 7 with values I; the sizes
/// take the radix path's comparison sort (up to 256 entries), one
/// sequential radix leaf, and a parallel split by the top digit.
template <class MapT> void expectLastWriterWins() {
  constexpr uint64_t kKeys = 7;
  auto Fold = [](uint64_t A, uint64_t B) { return A * 1000003 + B; };
  for (size_t N : {20u, 1000u, 100000u}) {
    std::vector<std::pair<uint64_t, uint64_t>> Entries(N);
    for (uint64_t I = 0; I < N; ++I)
      Entries[I] = {I % kKeys, I};
    std::map<uint64_t, uint64_t> Last, Folded;
    for (auto [K, V] : Entries) {
      Last[K] = V;
      auto [It, Fresh] = Folded.emplace(K, V);
      if (!Fresh)
        It->second = Fold(It->second, V);
    }
    auto Expect = [&](const MapT &M, const std::map<uint64_t, uint64_t> &Want,
                      const char *How) {
      ASSERT_EQ(M.size(), kKeys) << How << " N=" << N;
      EXPECT_EQ(M.check_invariants(), "") << How << " N=" << N;
      for (auto [K, V] : Want)
        EXPECT_EQ(M.find(K), std::optional<uint64_t>(V))
            << How << " N=" << N << " key " << K;
    };
    Expect(MapT(Entries), Last, "build(const&)");
    Expect(MapT(std::vector(Entries)), Last, "build(&&)");
    Expect(MapT().multi_insert(Entries), Last, "multi_insert");
    Expect(MapT(Entries, Fold), Folded, "build(const&, fold)");
    Expect(MapT(std::vector(Entries), Fold), Folded, "build(&&, fold)");
    Expect(MapT().multi_insert(Entries, Fold), Folded, "multi_insert(fold)");
  }
}

TYPED_TEST(MapBasicTest, BuildKeepsLastWriter) {
  expectLastWriterWins<TypeParam>();
}

/// A descending map sorts through the comparison path.
class MapOrder : public test::LeakCheckTest {};

TEST_F(MapOrder, BuildKeepsLastWriter) {
  using Desc =
      pam_map<uint64_t, uint64_t, 128, raw_encoder, std::greater<uint64_t>>;
  static_assert(!Desc::ops::radix_keyed());
  static_assert(pam_map<uint64_t, uint64_t>::ops::radix_keyed());
  expectLastWriterWins<Desc>();
}

/// The radix path moves values it cannot copy as bytes (here strings)
/// through default-constructed scratch.
TEST_F(MapOrder, StringValuesKeepLastWriter) {
  using Map = pam_map<uint64_t, std::string, 16>;
  static_assert(Map::ops::radix_keyed());
  for (size_t N : {1000u, 100000u}) {
    std::vector<std::pair<uint64_t, std::string>> Entries(N);
    for (uint64_t I = 0; I < N; ++I)
      Entries[I] = {I % 7, std::to_string(I)};
    Map M(std::move(Entries));
    ASSERT_EQ(M.size(), 7u);
    for (uint64_t K = 0; K < 7; ++K)
      EXPECT_EQ(M.find(K), std::to_string((N - 1 - K) / 7 * 7 + K))
          << "N=" << N << " key " << K;
  }
}

TYPED_TEST(MapBasicTest, InsertMatchesStdMap) {
  int64_t Before = liveObjects();
  {
    TypeParam M;
    std::map<uint64_t, uint64_t> Ref;
    Rng R = test::seeded_rng();
    for (int I = 0; I < 3000; ++I) {
      uint64_t K = R.ith(I, 1000);
      M.insert_inplace(K, I);
      Ref[K] = I;
      if (I % 500 == 0) {
        ASSERT_EQ(M.check_invariants(), "") << "after insert " << I;
      }
    }
    ASSERT_EQ(M.size(), Ref.size());
    ASSERT_EQ(M.check_invariants(), "");
    for (auto &[K, V] : Ref) {
      auto Found = M.find(K);
      ASSERT_TRUE(Found.has_value());
      EXPECT_EQ(*Found, V);
    }
  }
  EXPECT_EQ(liveObjects(), Before);
}

TYPED_TEST(MapBasicTest, InsertWithCombine) {
  TypeParam M;
  for (int Round = 0; Round < 5; ++Round)
    for (uint64_t K = 0; K < 200; ++K)
      M.insert_inplace({K, 1}, [](uint64_t A, uint64_t B) { return A + B; });
  EXPECT_EQ(M.size(), 200u);
  for (uint64_t K = 0; K < 200; ++K)
    EXPECT_EQ(*M.find(K), 5u);
}

TYPED_TEST(MapBasicTest, RemoveMatchesStdMap) {
  int64_t Before = liveObjects();
  {
    std::vector<std::pair<uint64_t, uint64_t>> Entries;
    std::map<uint64_t, uint64_t> Ref;
    for (uint64_t I = 0; I < 2000; ++I) {
      Entries.push_back({I, I * I});
      Ref[I] = I * I;
    }
    TypeParam M(Entries);
    Rng R(23);
    for (int I = 0; I < 1500; ++I) {
      uint64_t K = R.ith(I, 2200); // Some keys missing on purpose.
      M.remove_inplace(K);
      Ref.erase(K);
      if (I % 250 == 0) {
        ASSERT_EQ(M.check_invariants(), "") << "after remove " << I;
      }
    }
    ASSERT_EQ(M.size(), Ref.size());
    for (auto &[K, V] : Ref)
      ASSERT_EQ(*M.find(K), V);
    for (uint64_t K = 0; K < 2200; ++K)
      ASSERT_EQ(M.contains(K), Ref.count(K) == 1) << "key " << K;
  }
  EXPECT_EQ(liveObjects(), Before);
}

TYPED_TEST(MapBasicTest, FunctionalInsertPreservesSnapshot) {
  std::vector<std::pair<uint64_t, uint64_t>> Entries;
  for (uint64_t I = 0; I < 500; ++I)
    Entries.push_back({2 * I, I});
  TypeParam Old(Entries);
  TypeParam New = Old.insert(1001, 77);
  // The old snapshot is untouched.
  EXPECT_EQ(Old.size(), 500u);
  EXPECT_FALSE(Old.find(1001).has_value());
  EXPECT_EQ(New.size(), 501u);
  EXPECT_EQ(*New.find(1001), 77u);
  EXPECT_EQ(Old.check_invariants(), "");
  EXPECT_EQ(New.check_invariants(), "");
  // Removal from the new snapshot does not affect the old one either.
  TypeParam Gone = New.remove(0);
  EXPECT_TRUE(Old.contains(0));
  EXPECT_TRUE(New.contains(0));
  EXPECT_FALSE(Gone.contains(0));
}

TYPED_TEST(MapBasicTest, RankSelectNextPrevious) {
  std::vector<std::pair<uint64_t, uint64_t>> Entries;
  for (uint64_t I = 0; I < 1000; ++I)
    Entries.push_back({10 * I, I});
  TypeParam M(Entries);
  for (uint64_t I = 0; I < 1000; I += 7) {
    EXPECT_EQ(M.rank(10 * I), I);
    EXPECT_EQ(M.rank(10 * I + 1), I + 1);
    auto E = M.select(I);
    EXPECT_EQ(E.first, 10 * I);
    auto Nx = M.next(10 * I + 1);
    if (I + 1 < 1000) {
      ASSERT_TRUE(Nx.has_value());
      EXPECT_EQ(Nx->first, 10 * (I + 1));
    } else {
      EXPECT_FALSE(Nx.has_value());
    }
    auto Pv = M.previous(10 * I + 5);
    ASSERT_TRUE(Pv.has_value());
    EXPECT_EQ(Pv->first, 10 * I);
  }
  EXPECT_EQ(M.first()->first, 0u);
  EXPECT_EQ(M.last()->first, 9990u);
}

TYPED_TEST(MapBasicTest, RangeExtraction) {
  std::vector<std::pair<uint64_t, uint64_t>> Entries;
  for (uint64_t I = 0; I < 1000; ++I)
    Entries.push_back({I, I});
  TypeParam M(Entries);
  TypeParam R = M.range(100, 199);
  EXPECT_EQ(R.size(), 100u);
  EXPECT_EQ(R.check_invariants(), "");
  EXPECT_TRUE(R.contains(100));
  EXPECT_TRUE(R.contains(199));
  EXPECT_FALSE(R.contains(99));
  EXPECT_FALSE(R.contains(200));
  // Empty and total ranges.
  EXPECT_EQ(M.range(2000, 3000).size(), 0u);
  EXPECT_EQ(M.range(0, 999).size(), 1000u);
}

TYPED_TEST(MapBasicTest, FilterAndMapValues) {
  std::vector<std::pair<uint64_t, uint64_t>> Entries;
  for (uint64_t I = 0; I < 1000; ++I)
    Entries.push_back({I, I});
  TypeParam M(Entries);
  TypeParam Even = M.filter([](const auto &E) { return E.first % 2 == 0; });
  EXPECT_EQ(Even.size(), 500u);
  EXPECT_EQ(Even.check_invariants(), "");
  TypeParam Doubled = M.map_values([](const auto &E) { return 2 * E.second; });
  EXPECT_EQ(Doubled.size(), 1000u);
  EXPECT_EQ(*Doubled.find(7), 14u);
  EXPECT_EQ(*M.find(7), 7u) << "map_values must not mutate the source";
}

TYPED_TEST(MapBasicTest, MapReduceAndForeach) {
  std::vector<std::pair<uint64_t, uint64_t>> Entries;
  uint64_t Expect = 0;
  for (uint64_t I = 0; I < 5000; ++I) {
    Entries.push_back({I, I});
    Expect += I;
  }
  TypeParam M(Entries);
  uint64_t Sum = M.map_reduce([](const auto &E) { return E.second; },
                              uint64_t(0), std::plus<uint64_t>());
  EXPECT_EQ(Sum, Expect);
  // foreach_seq visits in key order.
  uint64_t Prev = 0;
  bool First = true, Ordered = true;
  M.foreach_seq([&](const auto &E) {
    if (!First && E.first <= Prev)
      Ordered = false;
    Prev = E.first;
    First = false;
  });
  EXPECT_TRUE(Ordered);
  // foreach_index agrees with to_vector.
  auto V = M.to_vector();
  std::vector<uint64_t> ByIndex(M.size());
  M.foreach_index([&](size_t I, const auto &E) { ByIndex[I] = E.first; });
  for (size_t I = 0; I < V.size(); ++I)
    ASSERT_EQ(ByIndex[I], V[I].first);
}

TYPED_TEST(MapBasicTest, LargeBuildParallel) {
  const size_t N = 200000;
  std::vector<std::pair<uint64_t, uint64_t>> Entries(N);
  par::parallel_for(0, N, [&](size_t I) {
    Entries[I] = {hash64(I), I};
  });
  TypeParam M(Entries);
  EXPECT_EQ(M.check_invariants(), "");
  EXPECT_EQ(M.size(), N); // hash64 is a bijection: no duplicate keys.
  EXPECT_TRUE(M.contains(hash64(12345)));
}

class MapMemory : public test::LeakCheckTest {};

TEST_F(MapMemory, SnapshotSharingIsCheap) {
  using M128 = pam_map<uint64_t, uint64_t, 128>;
  std::vector<std::pair<uint64_t, uint64_t>> Entries;
  for (uint64_t I = 0; I < 100000; ++I)
    Entries.push_back({I, I});
  M128 A(Entries);
  int64_t BytesBefore = alloc_stats::live_byte_count();
  M128 B = A;       // O(1) snapshot.
  M128 C = B.insert(7, 9); // Path copy only.
  int64_t BytesAfter = alloc_stats::live_byte_count();
  EXPECT_LT(BytesAfter - BytesBefore,
            (int64_t)(64 * 1024)) // A path, not a copy of 100k entries.
      << "functional update copied far too much";
  EXPECT_EQ(*A.find(7), 7u);
  EXPECT_EQ(*C.find(7), 9u);
}

TEST_F(MapMemory, PacTreeSmallerThanPTree) {
  std::vector<std::pair<uint64_t, uint64_t>> Entries;
  for (uint64_t I = 0; I < 100000; ++I)
    Entries.push_back({I, I});
  pam_map<uint64_t, uint64_t, 0> PTree(Entries);
  pam_map<uint64_t, uint64_t, 128> PaC(Entries);
  pam_map<uint64_t, uint64_t, 128, diff_encoder> PaCDiff(Entries);
  // Paper: ~2.5x smaller unencoded, further ~1.7x with difference encoding
  // (Sec. 10.1). Check the ordering and a conservative factor.
  EXPECT_LT(PaC.size_in_bytes() * 2, PTree.size_in_bytes());
  EXPECT_LT(PaCDiff.size_in_bytes(), PaC.size_in_bytes());
  // PaC with B=128 should be within ~10% of the flat-array lower bound.
  size_t ArrayBytes = 100000 * 16;
  EXPECT_LT(PaC.size_in_bytes(), ArrayBytes * 11 / 10);
}

/// A map value that counts how often it is copied.
struct copy_counted {
  static inline int Copies = 0;
  uint64_t V = 0;
  copy_counted() = default;
  explicit copy_counted(uint64_t V) : V(V) {}
  copy_counted(const copy_counted &O) : V(O.V) { ++Copies; }
  copy_counted(copy_counted &&) = default;
  copy_counted &operator=(const copy_counted &O) {
    V = O.V;
    ++Copies;
    return *this;
  }
  copy_counted &operator=(copy_counted &&) = default;
};

/// contains() compares keys in place: for a tree-valued map (the graph's
/// vertex tree) a copied entry would be a refcount round trip per lookup.
template <int B> void expectContainsCopiesNothing() {
  using Map = pam_map<uint64_t, copy_counted, B>;
  std::vector<std::pair<uint64_t, copy_counted>> Entries;
  for (uint64_t I = 0; I < 1000; ++I)
    Entries.push_back({3 * I, copy_counted(I)});
  Map M = Map::from_sorted(std::move(Entries));
  copy_counted::Copies = 0;
  for (uint64_t K = 0; K < 3000; ++K)
    ASSERT_EQ(M.contains(K), K % 3 == 0) << "key " << K;
  EXPECT_EQ(copy_counted::Copies, 0) << "B=" << B;
  ASSERT_TRUE(M.find_entry(3).has_value()); // The counter does count.
  EXPECT_GT(copy_counted::Copies, 0);
}

TEST(MapContains, ReadsKeysWithoutCopyingEntries) {
  expectContainsCopiesNothing<0>();
  expectContainsCopiesNothing<8>();
  expectContainsCopiesNothing<128>();
}

} // namespace
