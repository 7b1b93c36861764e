//===- test_differential.cpp - Differential oracle testing -----------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential testing layer: random interleaved sequences of insert /
/// remove / union / intersect / difference / update / multi_insert /
/// multi_delete / range driven simultaneously against a PaC-tree and a
/// std::map / std::set oracle, at block sizes B in {0, 8, 128} (PAM
/// baseline, small blocks, the paper default), two seeded episodes per
/// test. After every step the tree
/// must satisfy the Def. 4.1 invariants and agree elementwise (keys *and*
/// combined values) with the oracle; a map must also answer find,
/// contains, rank, select, previous and next like it at about 64 present
/// and absent keys, which reads raw and diff blocks through the one block
/// scan. PAM (Sun et al.) defines the
/// uncompressed semantics the compressed block paths must preserve
/// exactly; this suite is what licenses the flatten-and-merge rewrite of
/// the Sec. 8 base cases.
///
/// Asymmetric steps pit the collection against an operand 50-1000x smaller
/// in both argument orders, the shape where the set-operation skeleton
/// exposes the other side: maps combine with the non-commutative 3a + b,
/// so a swapped combine order shows in the values, and both inputs are
/// re-checked afterwards, since the results share subtrees with them.
///
/// The same sequences also run over difference- and gamma-encoded sets so
/// the compressed block decode and encode see every operation mix. Allocator
/// modes are covered by the build matrix (the sanitize CI leg runs this
/// suite with the pool off); within a run, the leak fixture checks that no
/// step drops nodes.
///
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <iterator>
#include <map>
#include <new>
#include <optional>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

#include "src/api/pam_map.h"
#include "src/api/pam_set.h"
#include "src/encoding/diff_encoder.h"
#include "src/encoding/gamma_encoder.h"
#include "src/util/failpoint.h"
#include "tests/test_common.h"

using namespace cpam;

namespace {

constexpr uint64_t kUniverse = 2500; // Small: forces duplicate-key traffic.
constexpr int kSteps = 160;

//===----------------------------------------------------------------------===//
// Map differential (value combination checked through std::map).
//===----------------------------------------------------------------------===//

template <class MapT> class DifferentialMapTest : public test::LeakCheckTest {};

using MapTypes =
    ::testing::Types<pam_map<uint64_t, uint64_t, 0>,   // PAM baseline
                     pam_map<uint64_t, uint64_t, 8>,   // Small blocks
                     pam_map<uint64_t, uint64_t, 128>, // Paper default
                     pam_map<uint64_t, uint64_t, 8, diff_encoder>,
                     pam_map<uint64_t, uint64_t, 128, diff_encoder>>;
TYPED_TEST_SUITE(DifferentialMapTest, MapTypes);

using Oracle = std::map<uint64_t, uint64_t>;
using EntryVec = std::vector<std::pair<uint64_t, uint64_t>>;

EntryVec randomEntries(Rng &R, size_t N, uint64_t Universe) {
  EntryVec Out(N);
  for (auto &E : Out)
    E = {R.next(Universe), R.next(1u << 16)};
  return Out;
}

Oracle toOracle(const EntryVec &Entries) {
  // Duplicate keys combine left-to-right with +, matching sort_and_combine.
  Oracle O;
  for (const auto &[K, V] : Entries) {
    auto [It, New] = O.emplace(K, V);
    if (!New)
      It->second += V;
  }
  return O;
}

/// Point queries against the sorted oracle entries \p Want at about 64
/// keys: every (n/24)-th present key and its successor (often absent),
/// 16 keys spread over the universe, and 0, the first key, the last key
/// and one past it.
template <class MapT>
void checkPointQueries(const MapT &M, const EntryVec &Want, const char *What) {
  std::vector<uint64_t> Probes = {0};
  size_t Stride = std::max<size_t>(1, Want.size() / 24);
  for (size_t I = 0; I < Want.size(); I += Stride)
    Probes.insert(Probes.end(), {Want[I].first, Want[I].first + 1});
  for (uint64_t J = 0; J < 16; ++J)
    Probes.push_back(J * (kUniverse + 2) / 16);
  if (!Want.empty())
    Probes.insert(Probes.end(), {Want.front().first, Want.back().first,
                                 Want.back().first + 1});
  for (uint64_t K : Probes) {
    auto It = std::lower_bound(
        Want.begin(), Want.end(), K,
        [](const auto &E, uint64_t Key) { return E.first < Key; });
    size_t Rank = static_cast<size_t>(It - Want.begin());
    bool Has = It != Want.end() && It->first == K;
    ASSERT_EQ(M.contains(K), Has) << What << ": contains " << K;
    ASSERT_EQ(M.find(K), Has ? std::optional(It->second) : std::nullopt)
        << What << ": find " << K;
    ASSERT_EQ(M.rank(K), Rank) << What << ": rank " << K;
    if (Rank < Want.size()) {
      ASSERT_EQ(M.select(Rank), Want[Rank]) << What << ": select " << Rank;
    }
    auto Next = It == Want.end() ? std::nullopt : std::optional(*It);
    ASSERT_EQ(M.next(K), Next) << What << ": next " << K;
    size_t AtMost = Rank + Has; // Entries with key <= K.
    auto Prev = AtMost ? std::optional(Want[AtMost - 1]) : std::nullopt;
    ASSERT_EQ(M.previous(K), Prev) << What << ": previous " << K;
  }
}

template <class MapT>
void checkAgainstOracle(const MapT &M, const Oracle &O, const char *What) {
  ASSERT_EQ(M.check_invariants(), "") << What;
  ASSERT_EQ(M.size(), O.size()) << What;
  EntryVec Got = M.to_vector();
  EntryVec Want(O.begin(), O.end());
  ASSERT_EQ(Got, Want) << What;
  checkPointQueries(M, Want, What);
}

/// Bounds for a range step: present keys, absent keys, an inverted pair
/// (Lo > Hi) or the whole key space.
template <class OracleT>
std::pair<uint64_t, uint64_t> rangeBounds(Rng &R, const OracleT &O) {
  auto Pick = [&] {
    if (O.empty() || R.next(2))
      return R.next(kUniverse + 2); // Any key, often absent.
    auto It = O.begin();
    std::advance(It, R.next(O.size()));
    if constexpr (std::is_same_v<OracleT, std::set<uint64_t>>)
      return *It;
    else
      return It->first;
  };
  uint64_t A = Pick(), B = Pick();
  switch (R.next(6)) {
  case 0:
    return {0, UINT64_MAX};
  case 1: // Inverted (Lo > Hi): empty by definition.
    return {std::max(A, B) + (A == B), std::min(A, B)};
  default:
    return {std::min(A, B), std::max(A, B)};
  }
}

/// The oracle entries with Lo <= key <= Hi. For Lo > Hi,
/// lower_bound(Lo)..upper_bound(Hi) is not an iterator range.
template <class OracleT>
OracleT oracleSlice(const OracleT &O, uint64_t Lo, uint64_t Hi) {
  if (Lo > Hi)
    return {};
  return OracleT(O.lower_bound(Lo), O.upper_bound(Hi));
}

/// Non-commutative value combine of the asymmetric steps: Op(a, b) != Op(b,
/// a), so a result that combined Op(value in T2, value in T1) differs.
constexpr auto kLopsided = [](uint64_t A, uint64_t B) { return 3 * A + B; };

/// Oracles of the three set operations over maps; duplicate keys keep
/// Op(value in A, value in B).
template <class F> Oracle oracleUnion(const Oracle &A, const Oracle &B, F Op) {
  Oracle Out = A;
  for (const auto &[K, V] : B) {
    auto [It, New] = Out.emplace(K, V);
    if (!New)
      It->second = Op(It->second, V);
  }
  return Out;
}
template <class F>
Oracle oracleIntersect(const Oracle &A, const Oracle &B, F Op) {
  Oracle Out;
  for (const auto &[K, V] : A)
    if (auto It = B.find(K); It != B.end())
      Out.emplace(K, Op(V, It->second));
  return Out;
}
/// Keep-left update: every entry of A, its value Op(value in A, value in
/// B) where B has the key.
template <class F> Oracle oracleUpdate(const Oracle &A, const Oracle &B, F Op) {
  Oracle Out = A;
  for (auto &[K, V] : Out)
    if (auto It = B.find(K); It != B.end())
      V = Op(V, It->second);
  return Out;
}
template <class OracleT>
OracleT oracleDifference(const OracleT &A, const OracleT &B) {
  OracleT Out = A;
  for (const auto &KV : B) {
    if constexpr (std::is_same_v<OracleT, std::set<uint64_t>>)
      Out.erase(KV);
    else
      Out.erase(KV.first);
  }
  return Out;
}

/// Size of the small operand of an asymmetric step: 50-1000x below \p N
/// (at least one entry, so below 50 entries the ratio is N).
size_t smallSide(Rng &R, size_t N) {
  return std::max<size_t>(1, N / (50 + R.next(951)));
}

/// \p N random keys, about half of them drawn from the oracle \p O (so the
/// small operand both hits and misses the large one).
template <class OracleT>
std::vector<uint64_t> smallKeys(Rng &R, const OracleT &O, size_t N) {
  std::vector<uint64_t> Keys(N);
  for (auto &K : Keys) {
    K = R.next(kUniverse);
    if (!O.empty() && R.next(2)) {
      auto It = O.begin();
      std::advance(It, R.next(O.size()));
      if constexpr (std::is_same_v<OracleT, std::set<uint64_t>>)
        K = *It;
      else
        K = It->first;
    }
  }
  return Keys;
}

/// One random differential episode. All set algebra combines values with +
/// so a dropped or double-invoked combine is visible in the value, not just
/// the key set.
template <class MapT> void runMapEpisode(Rng R) {
  auto Plus = std::plus<uint64_t>();
  MapT M;
  Oracle O;
  for (int Step = 0; Step < kSteps; ++Step) {
    switch (R.next(12)) {
    case 0: { // Point insert (combine +).
      uint64_t K = R.next(kUniverse), V = R.next(1u << 16);
      M.insert_inplace(typename MapT::entry_t(K, V), Plus);
      auto [It, New] = O.emplace(K, V);
      if (!New)
        It->second += V;
      checkAgainstOracle(M, O, "insert");
      break;
    }
    case 1: { // Point remove (key may be absent).
      uint64_t K = R.next(kUniverse);
      M = M.remove(K);
      O.erase(K);
      checkAgainstOracle(M, O, "remove");
      break;
    }
    case 2: { // Union with a random map.
      EntryVec B = randomEntries(R, R.next(400), kUniverse);
      MapT MB(B, Plus);
      Oracle OB = toOracle(B);
      M = MapT::map_union(M, MB, Plus);
      for (const auto &[K, V] : OB) {
        auto [It, New] = O.emplace(K, V);
        if (!New)
          It->second += V;
      }
      checkAgainstOracle(M, O, "union");
      break;
    }
    case 3: { // Intersect with a map overlapping half our keys.
      EntryVec B = randomEntries(R, R.next(400), kUniverse);
      for (const auto &[K, V] : O)
        if (R.next(2))
          B.push_back({K, R.next(1u << 16)});
      MapT MB(B, Plus);
      Oracle OB = toOracle(B);
      M = MapT::map_intersect(M, MB, Plus);
      Oracle Kept;
      for (const auto &[K, V] : O) {
        auto It = OB.find(K);
        if (It != OB.end())
          Kept.emplace(K, V + It->second);
      }
      O = std::move(Kept);
      checkAgainstOracle(M, O, "intersect");
      break;
    }
    case 4: { // Difference.
      EntryVec B = randomEntries(R, R.next(400), kUniverse);
      MapT MB(B, Plus);
      M = MapT::map_difference(M, MB);
      for (const auto &KV : toOracle(B))
        O.erase(KV.first);
      checkAgainstOracle(M, O, "difference");
      break;
    }
    case 5: { // multi_insert with in-batch duplicate keys.
      EntryVec B = randomEntries(R, R.next(500), kUniverse);
      M = M.multi_insert(B, Plus);
      for (const auto &[K, V] : toOracle(B)) {
        auto [It, New] = O.emplace(K, V);
        if (!New)
          It->second += V;
      }
      checkAgainstOracle(M, O, "multi_insert");
      break;
    }
    case 6: { // multi_delete with duplicate keys in the batch.
      std::vector<uint64_t> Keys(R.next(500));
      for (auto &K : Keys)
        K = R.next(kUniverse);
      M = M.multi_delete(Keys);
      for (uint64_t K : Keys)
        O.erase(K);
      checkAgainstOracle(M, O, "multi_delete");
      break;
    }
    case 7: { // filter on a key+value predicate (flatten-compact block case).
      uint64_t Mod = 2 + R.next(5);
      M = M.filter(
          [Mod](const auto &E) { return (E.first + E.second) % Mod != 0; });
      Oracle Kept;
      for (const auto &[K, V] : O)
        if ((K + V) % Mod != 0)
          Kept.emplace(K, V);
      O = std::move(Kept);
      checkAgainstOracle(M, O, "filter");
      break;
    }
    case 8: { // map_values (flatten-rewrite block case; keys pass through).
      uint64_t Add = R.next(1u << 10);
      M = M.map_values(
          [Add](const auto &E) { return E.second * 2 + Add; });
      for (auto &KV : O)
        KV.second = KV.second * 2 + Add;
      checkAgainstOracle(M, O, "map_values");
      break;
    }
    case 9: { // range reads M, which must stay unchanged.
      auto [Lo, Hi] = rangeBounds(R, O);
      Oracle Slice = oracleSlice(O, Lo, Hi);
      MapT Rg = M.range(Lo, Hi);
      checkAgainstOracle(Rg, Slice, "range");
      checkAgainstOracle(M, O, "range source");
      // Rg shares whole subtrees with M: updating it in place must copy
      // them, never write through to M.
      if (!Slice.empty()) {
        auto Mid = std::next(Slice.begin(), Slice.size() / 2);
        Rg.remove_inplace(Mid->first);
        Slice.erase(Mid);
        checkAgainstOracle(Rg, Slice, "range result updated in place");
        checkAgainstOracle(M, O, "range source after result update");
      }
      break;
    }
    case 10: { // Set algebra against a 50-1000x smaller map, both orders.
      EntryVec B;
      for (uint64_t K : smallKeys(R, O, smallSide(R, O.size())))
        B.push_back({K, R.next(1u << 16)});
      MapT MS(B, Plus);
      Oracle OS = toOracle(B);
      checkAgainstOracle(MapT::map_union(M, MS, kLopsided),
                         oracleUnion(O, OS, kLopsided), "lopsided union");
      checkAgainstOracle(MapT::map_union(MS, M, kLopsided),
                         oracleUnion(OS, O, kLopsided),
                         "lopsided union, small first");
      checkAgainstOracle(MapT::map_intersect(M, MS, kLopsided),
                         oracleIntersect(O, OS, kLopsided),
                         "lopsided intersect");
      checkAgainstOracle(MapT::map_intersect(MS, M, kLopsided),
                         oracleIntersect(OS, O, kLopsided),
                         "lopsided intersect, small first");
      checkAgainstOracle(MapT::map_difference(M, MS), oracleDifference(O, OS),
                         "lopsided difference");
      checkAgainstOracle(MapT::map_difference(MS, M), oracleDifference(OS, O),
                         "lopsided difference, small first");
      checkAgainstOracle(MapT::map_update(M, MS, kLopsided),
                         oracleUpdate(O, OS, kLopsided), "lopsided update");
      checkAgainstOracle(MapT::map_update(MS, M, kLopsided),
                         oracleUpdate(OS, O, kLopsided),
                         "lopsided update, small first");
      checkAgainstOracle(M, O, "lopsided: large input unchanged");
      checkAgainstOracle(MS, OS, "lopsided: small input unchanged");
      M = MapT::map_union(M, MS, kLopsided);
      O = oracleUnion(O, OS, kLopsided);
      checkAgainstOracle(M, O, "lopsided union kept");
      break;
    }
    default: { // Rebuild from scratch occasionally (fresh tree shapes).
      EntryVec B = randomEntries(R, R.next(800), kUniverse);
      M = MapT(B, Plus);
      O = toOracle(B);
      checkAgainstOracle(M, O, "rebuild");
      break;
    }
    }
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

TYPED_TEST(DifferentialMapTest, RandomOpsMatchStdMap) {
  for (uint64_t Salt : {0, 1}) {
    runMapEpisode<TypeParam>(test::seeded_rng(Salt));
    if (this->HasFatalFailure())
      break;
  }
}

// map_update keeps every key of its first operand and combines the values
// of the keys both hold. The skeleton exposes the larger operand and splits
// the smaller, so the two size orders take different branches of its
// middle-entry rule; sizes reach the recursion's parallel forks and its
// kappa-sized base cases.
TYPED_TEST(DifferentialMapTest, MapUpdateMatchesStdMap) {
  using MapT = TypeParam;
  auto Plus = std::plus<uint64_t>();
  auto R = test::seeded_rng();
  const size_t Sizes[] = {0, 1, 40, 700, 6000, 40000};
  for (size_t NA : Sizes)
    for (size_t NB : Sizes) {
      SCOPED_TRACE("|A|=" + std::to_string(NA) + " |B|=" + std::to_string(NB));
      // A shared key space twice the larger side: the operands overlap on
      // about a quarter to a half of their keys.
      uint64_t Universe = 2 * std::max<uint64_t>({NA, NB, 1});
      EntryVec A = randomEntries(R, NA, Universe);
      EntryVec B = randomEntries(R, NB, Universe);
      MapT MA(A, Plus), MB(B, Plus);
      Oracle OA = toOracle(A), OB = toOracle(B);
      checkAgainstOracle(MapT::map_update(MA, MB, kLopsided),
                         oracleUpdate(OA, OB, kLopsided), "update");
      checkAgainstOracle(MA, OA, "update: first input unchanged");
      checkAgainstOracle(MB, OB, "update: second input unchanged");
      if (::testing::Test::HasFatalFailure())
        return;
    }
}

//===----------------------------------------------------------------------===//
// Allocation-chaos episodes (map): every op may die mid-flight.
//===----------------------------------------------------------------------===//

/// Random op sequence with the "alloc.node" failpoint armed at 1-in-N per
/// node allocation: each step either survives (and must then agree with
/// the oracle exactly) or throws bad_alloc (and must then leave the
/// operand untouched — strong guarantee on the functional API — and leak
/// nothing, which the enclosing LeakCheckTest fixture verifies). Only
/// functional ops are used: *_inplace documents the weaker
/// collection-empties-on-throw contract.
template <class MapT> void runMapChaosEpisode(Rng R, uint64_t Salt) {
  fail::scoped_arm Arm("alloc.node",
                       "p=200/seed=" + std::to_string(Salt));
  auto Plus = std::plus<uint64_t>();
  MapT M;
  Oracle O;
  uint64_t Survived = 0, Died = 0;
  for (int Step = 0; Step < kSteps; ++Step) {
    try {
      switch (R.next(8)) {
      case 0: { // Point insert.
        uint64_t K = R.next(kUniverse), V = R.next(1u << 16);
        MapT Next = M.insert(typename MapT::entry_t(K, V));
        M = std::move(Next);
        O[K] = V; // Functional insert overwrites (take_right).
        break;
      }
      case 1: { // Point remove.
        uint64_t K = R.next(kUniverse);
        MapT Next = M.remove(K);
        M = std::move(Next);
        O.erase(K);
        break;
      }
      case 2: { // Union.
        EntryVec B = randomEntries(R, R.next(300), kUniverse);
        MapT MB(B, Plus);
        Oracle OB = toOracle(B);
        MapT Next = MapT::map_union(M, MB, Plus);
        M = std::move(Next);
        for (const auto &[K, V] : OB) {
          auto [It, New] = O.emplace(K, V);
          if (!New)
            It->second += V;
        }
        break;
      }
      case 3: { // Difference.
        EntryVec B = randomEntries(R, R.next(300), kUniverse);
        MapT MB(B, Plus);
        MapT Next = MapT::map_difference(M, MB);
        M = std::move(Next);
        for (const auto &KV : toOracle(B))
          O.erase(KV.first);
        break;
      }
      case 4: { // multi_insert.
        EntryVec B = randomEntries(R, R.next(400), kUniverse);
        MapT Next = M.multi_insert(B, Plus);
        M = std::move(Next);
        for (const auto &[K, V] : toOracle(B)) {
          auto [It, New] = O.emplace(K, V);
          if (!New)
            It->second += V;
        }
        break;
      }
      case 5: { // Eight ranges: one alone rarely meets a failure.
        for (int I = 0; I < 8; ++I) {
          auto [Lo, Hi] = rangeBounds(R, O);
          MapT Rg = M.range(Lo, Hi);
          checkAgainstOracle(Rg, oracleSlice(O, Lo, Hi), "chaos range");
        }
        break;
      }
      case 6: { // Lopsided set algebra, both orders; union result kept.
        EntryVec B;
        for (uint64_t K : smallKeys(R, O, smallSide(R, O.size())))
          B.push_back({K, R.next(1u << 16)});
        MapT MS(B, Plus);
        Oracle OS = toOracle(B);
        checkAgainstOracle(MapT::map_union(MS, M, kLopsided),
                           oracleUnion(OS, O, kLopsided),
                           "chaos lopsided union, small first");
        checkAgainstOracle(MapT::map_intersect(M, MS, kLopsided),
                           oracleIntersect(O, OS, kLopsided),
                           "chaos lopsided intersect");
        checkAgainstOracle(MapT::map_intersect(MS, M, kLopsided),
                           oracleIntersect(OS, O, kLopsided),
                           "chaos lopsided intersect, small first");
        checkAgainstOracle(MapT::map_difference(M, MS),
                           oracleDifference(O, OS),
                           "chaos lopsided difference");
        checkAgainstOracle(MapT::map_difference(MS, M),
                           oracleDifference(OS, O),
                           "chaos lopsided difference, small first");
        checkAgainstOracle(MapT::map_update(M, MS, kLopsided),
                           oracleUpdate(O, OS, kLopsided),
                           "chaos lopsided update");
        checkAgainstOracle(MapT::map_update(MS, M, kLopsided),
                           oracleUpdate(OS, O, kLopsided),
                           "chaos lopsided update, small first");
        MapT Next = MapT::map_union(M, MS, kLopsided);
        M = std::move(Next);
        O = oracleUnion(O, OS, kLopsided);
        break;
      }
      default: { // filter.
        uint64_t Mod = 2 + R.next(5);
        MapT Next = M.filter(
            [Mod](const auto &E) { return (E.first + E.second) % Mod != 0; });
        M = std::move(Next);
        Oracle Kept;
        for (const auto &[K, V] : O)
          if ((K + V) % Mod != 0)
            Kept.emplace(K, V);
        O = std::move(Kept);
        break;
      }
      }
      ++Survived;
      checkAgainstOracle(M, O, "chaos survivor");
    } catch (const std::bad_alloc &) {
      // The batch temporaries (MB/Next) unwound; the operand must be
      // byte-for-byte what it was before the failed op.
      ++Died;
      checkAgainstOracle(M, O, "operand after injected failure");
    }
    if (::testing::Test::HasFatalFailure())
      return;
  }
  EXPECT_GT(Survived, 0u) << "injection rate so high nothing completed";
  EXPECT_GT(fail::fires("alloc.node"), 0u)
      << "chaos episode never actually injected a failure";
  EXPECT_GT(Died, 0u) << "no op observed an injected allocation failure";
}

TYPED_TEST(DifferentialMapTest, AllocChaosLeavesOperandsIntact) {
  // (RNG salt, failpoint seed) per episode.
  const std::pair<uint64_t, uint64_t> Seeds[] = {{66, 29}, {55, 17}};
  for (auto [Salt, FailSeed] : Seeds) {
    runMapChaosEpisode<TypeParam>(test::seeded_rng(Salt), FailSeed);
    if (this->HasFatalFailure())
      break;
  }
}

//===----------------------------------------------------------------------===//
// Set differential (compressed encodings included).
//===----------------------------------------------------------------------===//

template <class SetT> class DifferentialSetTest : public test::LeakCheckTest {};

using SetTypes =
    ::testing::Types<pam_set<uint64_t, 0>, pam_set<uint64_t, 8>,
                     pam_set<uint64_t, 128>,
                     pam_set<uint64_t, 8, diff_encoder>,
                     pam_set<uint64_t, 128, diff_encoder>,
                     pam_set<uint64_t, 8, gamma_encoder>,
                     pam_set<uint64_t, 128, gamma_encoder>>;
TYPED_TEST_SUITE(DifferentialSetTest, SetTypes);

template <class SetT>
void checkSetAgainstOracle(const SetT &S, const std::set<uint64_t> &O,
                           const char *What) {
  ASSERT_EQ(S.check_invariants(), "") << What;
  ASSERT_EQ(S.size(), O.size()) << What;
  std::vector<uint64_t> Want(O.begin(), O.end());
  ASSERT_EQ(S.to_vector(), Want) << What;
}

template <class SetT> void runSetEpisode(Rng R) {
  SetT S;
  std::set<uint64_t> O;
  auto RandomKeys = [&](size_t N) {
    std::vector<uint64_t> Keys(N);
    for (auto &K : Keys)
      K = R.next(kUniverse);
    return Keys;
  };
  for (int Step = 0; Step < kSteps; ++Step) {
    switch (R.next(9)) {
    case 0: {
      uint64_t K = R.next(kUniverse);
      S = S.insert(K);
      O.insert(K);
      checkSetAgainstOracle(S, O, "insert");
      break;
    }
    case 1: {
      uint64_t K = R.next(kUniverse);
      S = S.remove(K);
      O.erase(K);
      checkSetAgainstOracle(S, O, "remove");
      break;
    }
    case 2: {
      auto Keys = RandomKeys(R.next(400));
      S = SetT::map_union(S, SetT(Keys));
      O.insert(Keys.begin(), Keys.end());
      checkSetAgainstOracle(S, O, "union");
      break;
    }
    case 3: {
      auto Keys = RandomKeys(R.next(400));
      for (uint64_t K : O)
        if (R.next(2))
          Keys.push_back(K);
      std::set<uint64_t> OB(Keys.begin(), Keys.end());
      S = SetT::map_intersect(S, SetT(Keys));
      std::set<uint64_t> Kept;
      for (uint64_t K : O)
        if (OB.count(K))
          Kept.insert(K);
      O = std::move(Kept);
      checkSetAgainstOracle(S, O, "intersect");
      break;
    }
    case 4: {
      auto Keys = RandomKeys(R.next(400));
      S = SetT::map_difference(S, SetT(Keys));
      for (uint64_t K : Keys)
        O.erase(K);
      checkSetAgainstOracle(S, O, "difference");
      break;
    }
    case 5: {
      auto Keys = RandomKeys(R.next(500));
      S = S.multi_insert(Keys);
      O.insert(Keys.begin(), Keys.end());
      checkSetAgainstOracle(S, O, "multi_insert");
      break;
    }
    case 6: { // range reads S, which must stay unchanged.
      auto [Lo, Hi] = rangeBounds(R, O);
      checkSetAgainstOracle(S.range(Lo, Hi), oracleSlice(O, Lo, Hi),
                            "range");
      checkSetAgainstOracle(S, O, "range source");
      break;
    }
    case 7: { // Set algebra against a 50-1000x smaller set, both orders.
      auto Keys = smallKeys(R, O, smallSide(R, O.size()));
      SetT SS(Keys);
      std::set<uint64_t> OS(Keys.begin(), Keys.end()), U = O, X;
      U.insert(OS.begin(), OS.end());
      for (uint64_t K : OS)
        if (O.count(K))
          X.insert(K);
      checkSetAgainstOracle(SetT::map_union(S, SS), U, "lopsided union");
      checkSetAgainstOracle(SetT::map_union(SS, S), U,
                            "lopsided union, small first");
      checkSetAgainstOracle(SetT::map_intersect(S, SS), X,
                            "lopsided intersect");
      checkSetAgainstOracle(SetT::map_intersect(SS, S), X,
                            "lopsided intersect, small first");
      checkSetAgainstOracle(SetT::map_difference(S, SS),
                            oracleDifference(O, OS), "lopsided difference");
      checkSetAgainstOracle(SetT::map_difference(SS, S),
                            oracleDifference(OS, O),
                            "lopsided difference, small first");
      checkSetAgainstOracle(S, O, "lopsided: large input unchanged");
      checkSetAgainstOracle(SS, OS, "lopsided: small input unchanged");
      S = SetT::map_difference(S, SS);
      O = oracleDifference(O, OS);
      checkSetAgainstOracle(S, O, "lopsided difference kept");
      break;
    }
    default: {
      auto Keys = RandomKeys(R.next(500));
      S = S.multi_delete(Keys);
      for (uint64_t K : Keys)
        O.erase(K);
      checkSetAgainstOracle(S, O, "multi_delete");
      break;
    }
    }
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

TYPED_TEST(DifferentialSetTest, RandomOpsMatchStdSet) {
  for (uint64_t Salt : {0, 1}) {
    runSetEpisode<TypeParam>(test::seeded_rng(Salt));
    if (this->HasFatalFailure())
      break;
  }
}

/// Set-typed allocation chaos: same contract as the map episode, typed
/// over every block size and encoder (the gamma block decode included).
template <class SetT> void runSetChaosEpisode(Rng R, uint64_t Salt) {
  fail::scoped_arm Arm("alloc.node",
                       "p=200/seed=" + std::to_string(Salt));
  SetT S;
  std::set<uint64_t> O;
  auto RandomKeys = [&](size_t N) {
    std::vector<uint64_t> Keys(N);
    for (auto &K : Keys)
      K = R.next(kUniverse);
    return Keys;
  };
  uint64_t Survived = 0, Died = 0;
  for (int Step = 0; Step < kSteps; ++Step) {
    try {
      switch (R.next(8)) {
      case 0: {
        uint64_t K = R.next(kUniverse);
        SetT Next = S.insert(K);
        S = std::move(Next);
        O.insert(K);
        break;
      }
      case 1: {
        uint64_t K = R.next(kUniverse);
        SetT Next = S.remove(K);
        S = std::move(Next);
        O.erase(K);
        break;
      }
      case 2: {
        auto Keys = RandomKeys(R.next(300));
        SetT Next = SetT::map_union(S, SetT(Keys));
        S = std::move(Next);
        O.insert(Keys.begin(), Keys.end());
        break;
      }
      case 3: {
        auto Keys = RandomKeys(R.next(300));
        SetT Next = SetT::map_difference(S, SetT(Keys));
        S = std::move(Next);
        for (uint64_t K : Keys)
          O.erase(K);
        break;
      }
      case 4: {
        auto Keys = RandomKeys(R.next(400));
        SetT Next = S.multi_insert(Keys);
        S = std::move(Next);
        O.insert(Keys.begin(), Keys.end());
        break;
      }
      case 5: { // Eight ranges: one alone rarely meets a failure.
        for (int I = 0; I < 8; ++I) {
          auto [Lo, Hi] = rangeBounds(R, O);
          checkSetAgainstOracle(S.range(Lo, Hi), oracleSlice(O, Lo, Hi),
                                "chaos range");
        }
        break;
      }
      case 6: { // Lopsided set algebra, both orders; difference kept.
        auto Keys = smallKeys(R, O, smallSide(R, O.size()));
        SetT SS(Keys);
        std::set<uint64_t> OS(Keys.begin(), Keys.end()), U = O, X;
        U.insert(OS.begin(), OS.end());
        for (uint64_t K : OS)
          if (O.count(K))
            X.insert(K);
        checkSetAgainstOracle(SetT::map_union(S, SS), U,
                              "chaos lopsided union");
        checkSetAgainstOracle(SetT::map_union(SS, S), U,
                              "chaos lopsided union, small first");
        checkSetAgainstOracle(SetT::map_intersect(S, SS), X,
                              "chaos lopsided intersect");
        checkSetAgainstOracle(SetT::map_intersect(SS, S), X,
                              "chaos lopsided intersect, small first");
        checkSetAgainstOracle(SetT::map_difference(SS, S),
                              oracleDifference(OS, O),
                              "chaos lopsided difference, small first");
        SetT Next = SetT::map_difference(S, SS);
        S = std::move(Next);
        O = oracleDifference(O, OS);
        break;
      }
      default: {
        auto Keys = RandomKeys(R.next(400));
        SetT Next = S.multi_delete(Keys);
        S = std::move(Next);
        for (uint64_t K : Keys)
          O.erase(K);
        break;
      }
      }
      ++Survived;
      checkSetAgainstOracle(S, O, "chaos survivor");
    } catch (const std::bad_alloc &) {
      ++Died;
      checkSetAgainstOracle(S, O, "operand after injected failure");
    }
    if (::testing::Test::HasFatalFailure())
      return;
  }
  EXPECT_GT(Survived, 0u) << "injection rate so high nothing completed";
  EXPECT_GT(fail::fires("alloc.node"), 0u)
      << "chaos episode never actually injected a failure";
  EXPECT_GT(Died, 0u) << "no op observed an injected allocation failure";
}

TYPED_TEST(DifferentialSetTest, AllocChaosLeavesOperandsIntact) {
  // (RNG salt, failpoint seed) per episode.
  const std::pair<uint64_t, uint64_t> Seeds[] = {{88, 53}, {77, 41}};
  for (auto [Salt, FailSeed] : Seeds) {
    runSetChaosEpisode<TypeParam>(test::seeded_rng(Salt), FailSeed);
    if (this->HasFatalFailure())
      break;
  }
}

//===----------------------------------------------------------------------===//
// Multi-leaf chunked outputs (small B included, diff and gamma included).
//===----------------------------------------------------------------------===//

/// Episodes sized so the flat x flat base cases routinely emit results
/// spanning many leaves through the chunked write path: a
/// large, mostly-disjoint key universe keeps union outputs near |A|+|B|
/// (at B = 8 a single base case then covers several chunks), and the
/// rebuild-then-multi_insert step streams batches of thousands of entries
/// against one flat root — dozens of sealed leaves from one merge stream.
template <class SetT> void runMultiLeafEpisode(Rng R) {
  constexpr uint64_t Universe = 200000;
  SetT S;
  std::set<uint64_t> O;
  auto RandomKeys = [&R](size_t N, uint64_t Span) {
    std::vector<uint64_t> Keys(N);
    for (auto &K : Keys)
      K = R.next(Span);
    return Keys;
  };
  for (int Step = 0; Step < 16; ++Step) {
    switch (R.next(5)) {
    case 0: { // Union with a large, mostly-disjoint set.
      auto Keys = RandomKeys(500 + R.next(2000), Universe);
      S = SetT::map_union(S, SetT(Keys));
      O.insert(Keys.begin(), Keys.end());
      checkSetAgainstOracle(S, O, "multi-leaf union");
      break;
    }
    case 1: { // Rebuild tiny (one flat root), then splice a huge batch.
      auto Seed = RandomKeys(1 + R.next(10), Universe);
      auto Batch = RandomKeys(1500 + R.next(1500), Universe);
      S = SetT(Seed).multi_insert(Batch);
      O.clear();
      O.insert(Seed.begin(), Seed.end());
      O.insert(Batch.begin(), Batch.end());
      checkSetAgainstOracle(S, O, "multi-leaf multi_insert");
      break;
    }
    case 2: { // Difference against a random subset.
      auto Keys = RandomKeys(R.next(1000), Universe);
      S = SetT::map_difference(S, SetT(Keys));
      for (uint64_t K : Keys)
        O.erase(K);
      checkSetAgainstOracle(S, O, "multi-leaf difference");
      break;
    }
    case 3: { // multi_delete of a random half of the live keys.
      std::vector<uint64_t> Keys;
      for (uint64_t K : O)
        if (R.next(2))
          Keys.push_back(K);
      S = S.multi_delete(Keys);
      for (uint64_t K : Keys)
        O.erase(K);
      checkSetAgainstOracle(S, O, "multi-leaf multi_delete");
      break;
    }
    default: { // Intersect with a supersample of the live keys.
      auto Keys = RandomKeys(R.next(800), Universe);
      for (uint64_t K : O)
        if (R.next(4) != 0)
          Keys.push_back(K);
      std::set<uint64_t> OB(Keys.begin(), Keys.end());
      S = SetT::map_intersect(S, SetT(Keys));
      std::set<uint64_t> Kept;
      for (uint64_t K : O)
        if (OB.count(K))
          Kept.insert(K);
      O = std::move(Kept);
      checkSetAgainstOracle(S, O, "multi-leaf intersect");
      break;
    }
    }
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

TYPED_TEST(DifferentialSetTest, MultiLeafChunkedResults) {
  for (uint64_t Salt : {22, 11}) {
    runMultiLeafEpisode<TypeParam>(test::seeded_rng(Salt));
    if (this->HasFatalFailure())
      break;
  }
}

//===----------------------------------------------------------------------===//
// Parallel set operations.
//===----------------------------------------------------------------------===//

/// Structural fingerprint of the whole tree: node kinds, sizes, child
/// shapes and (for flat nodes) exact encoded payload byte counts. Two
/// trees with equal fingerprints, sizes-in-bytes and node counts are
/// structurally identical down to the encoded blocks — the property the
/// determinism checks below compare across scheduling modes.
template <class SetT> uint64_t treeFingerprint(const SetT &S) {
  using ops = typename SetT::ops;
  using node_t = typename ops::node_t;
  struct Walk {
    uint64_t operator()(const node_t *T) const {
      if (!T)
        return 0x9e3779b97f4a7c15ULL;
      uint64_t H;
      if (ops::is_flat(T)) {
        const auto *F = static_cast<const typename ops::NL::flat_t *>(T);
        H = 0xff51afd7ed558ccdULL * (2 * T->Size + 1) + F->Bytes;
      } else {
        const auto *R = static_cast<const typename ops::NL::regular_t *>(T);
        H = (*this)(R->Left);
        H = H * 0xc4ceb9fe1a85ec53ULL + (*this)(R->Right);
        H = H * 0xff51afd7ed558ccdULL + 2 * T->Size;
      }
      return hash64(H);
    }
  };
  return Walk{}(S.root());
}

/// Drives every set operation and batch update at sizes (6,000 and 5,000
/// entries) where the join-based recursion forks its halves in parallel,
/// at the default kappa. Each op is checked three ways: contents against
/// the std::set oracle, the Def. 4.1 invariants, and structural identity
/// between a run under the real scheduler and the same run with every fork
/// inlined (par::set_sequential). The recursion's split points are a pure
/// function of the operands — never the worker count — so this last check,
/// run by the x1/x4/x16 ctest variants of this suite, pins byte-identical
/// output trees at every thread count.
template <class SetT> void runParallelSetOpsEpisode(Rng R) {
  constexpr uint64_t Universe = 300000;

  auto RandomKeys = [&R](size_t N) {
    std::vector<uint64_t> Keys(N);
    for (auto &K : Keys)
      K = R.next(Universe);
    return Keys;
  };
  // Runs the builder once under the real scheduler and once fork-inlined,
  // checks structural identity, and returns the scheduled build.
  auto CheckDeterminism = [](const char *What, auto &&Mk) {
    SetT Par = Mk();
    par::set_sequential(true);
    SetT Seq = Mk();
    par::set_sequential(false);
    EXPECT_EQ(treeFingerprint(Par), treeFingerprint(Seq))
        << What << ": parallel output depends on scheduling";
    EXPECT_EQ(Par.size_in_bytes(), Seq.size_in_bytes()) << What;
    EXPECT_EQ(Par.node_count(), Seq.node_count()) << What;
    return Par;
  };

  std::vector<uint64_t> KA = RandomKeys(6000), KB = RandomKeys(5000);
  SetT SA(KA), SB(KB);
  std::set<uint64_t> OA(KA.begin(), KA.end()), OB(KB.begin(), KB.end());

  {
    SetT U = CheckDeterminism(
        "union", [&] { return SetT::map_union(SA, SB); });
    std::set<uint64_t> O = OA;
    O.insert(OB.begin(), OB.end());
    checkSetAgainstOracle(U, O, "parallel union");
  }
  {
    // Overlap half of SA's keys so the intersection is nonempty in every
    // base case.
    std::vector<uint64_t> KC = KB;
    for (uint64_t K : KA)
      if (R.next(2))
        KC.push_back(K);
    SetT SC(KC);
    SetT I = CheckDeterminism(
        "intersect", [&] { return SetT::map_intersect(SA, SC); });
    std::set<uint64_t> OC(KC.begin(), KC.end()), O;
    for (uint64_t K : OA)
      if (OC.count(K))
        O.insert(K);
    checkSetAgainstOracle(I, O, "parallel intersect");
  }
  {
    SetT D = CheckDeterminism(
        "difference", [&] { return SetT::map_difference(SA, SB); });
    std::set<uint64_t> O;
    for (uint64_t K : OA)
      if (!OB.count(K))
        O.insert(K);
    checkSetAgainstOracle(D, O, "parallel difference");
  }
  // A tiny flat root against a batch that dwarfs it: the root block is
  // exposed (split at its median) and the batch recursion forks.
  auto Seed = RandomKeys(5);
  SetT Root(Seed);
  {
    SetT M = CheckDeterminism(
        "multi_insert", [&] { return Root.multi_insert(KA); });
    std::set<uint64_t> O(Seed.begin(), Seed.end());
    O.insert(KA.begin(), KA.end());
    checkSetAgainstOracle(M, O, "parallel multi_insert");
  }
  {
    // The key-batch side of the same recursion: 6,000 keys, among them
    // every other key of the root.
    std::vector<uint64_t> Del = RandomKeys(6000);
    for (size_t I = 0; I < Seed.size(); I += 2)
      Del.push_back(Seed[I]);
    SetT M = CheckDeterminism(
        "multi_delete from a block", [&] { return Root.multi_delete(Del); });
    std::set<uint64_t> O(Seed.begin(), Seed.end());
    for (uint64_t K : Del)
      O.erase(K);
    checkSetAgainstOracle(M, O, "parallel multi_delete from a block");
  }
  {
    std::vector<uint64_t> Del;
    for (uint64_t K : OA)
      if (R.next(2))
        Del.push_back(K); // Sorted: OA iterates in key order.
    SetT M = CheckDeterminism(
        "multi_delete", [&] { return SA.multi_delete(Del); });
    std::set<uint64_t> O = OA;
    for (uint64_t K : Del)
      O.erase(K);
    checkSetAgainstOracle(M, O, "parallel multi_delete");
  }
}

TYPED_TEST(DifferentialSetTest, ParallelSetOpsMatchInlineRunAndOracle) {
  for (uint64_t Salt : {44, 33}) {
    runParallelSetOpsEpisode<TypeParam>(test::seeded_rng(Salt));
    if (this->HasFatalFailure())
      break;
  }
  par::set_sequential(false);
}

/// The dense 50%-interleaved shape: even keys against odd-shifted keys, so
/// the winner alternates every entry and half the pairs collide. With
/// kappa raised past the operand sizes the pair reaches the base case
/// whole and runs as one merge over two flattened arrays; every set
/// operation must still match the oracle exactly.
TYPED_TEST(DifferentialSetTest, DenseInterleavedMergeMatchesOracle) {
  using ops = typename TypeParam::ops;
  test::ValueGuard<size_t> GKappa(ops::kappa());
  ops::kappa() = size_t{1} << 20;

  std::vector<uint64_t> A, B;
  for (uint64_t I = 0; I < 4000; ++I) {
    A.push_back(2 * I);
    B.push_back(2 * I + (I % 2 ? 0 : 1)); // 50% dups, 50% interleave.
  }
  TypeParam SA(A), SB(B);
  std::set<uint64_t> OA(A.begin(), A.end()), OB(B.begin(), B.end());
  std::set<uint64_t> U = OA, X, D;
  U.insert(B.begin(), B.end());
  std::set_intersection(OA.begin(), OA.end(), OB.begin(), OB.end(),
                        std::inserter(X, X.end()));
  std::set_difference(OA.begin(), OA.end(), OB.begin(), OB.end(),
                      std::inserter(D, D.end()));
  checkSetAgainstOracle(TypeParam::map_union(SA, SB), U,
                        "dense-interleaved union");
  checkSetAgainstOracle(TypeParam::map_intersect(SA, SB), X,
                        "dense-interleaved intersect");
  checkSetAgainstOracle(TypeParam::map_difference(SA, SB), D,
                        "dense-interleaved difference");
  checkSetAgainstOracle(SA, OA, "dense-interleaved: left input unchanged");
  checkSetAgainstOracle(SB, OB, "dense-interleaved: right input unchanged");
}

} // namespace
