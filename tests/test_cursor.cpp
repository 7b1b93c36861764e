//===- test_cursor.cpp - Block encoder contract tests ----------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-encoder block contract tests (a block is encoded and decoded as a
/// whole): max_bytes bounds on worst-case blocks and encode's end pointer;
/// round trips over empty, single-entry, dense and max-width-delta blocks,
/// checking the batch decode against the for_each_while scan; the
/// ownership contract of decode and decode_move, checked with a
/// construction-counting entry type and move-only entries; and, at the tree
/// level, tree_ops::leaf_writer and the set operations under the allocator
/// leak fixture over sets, an augmented map and a string-valued map (no
/// leaked or double-destroyed entries). ASan (the sanitize CI leg)
/// additionally checks the max_bytes bound.
///
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "src/api/aug_map.h"
#include "src/api/pam_map.h"
#include "src/api/pam_set.h"
#include "src/core/entry.h"
#include "src/core/invariants.h"
#include "src/encoding/diff_encoder.h"
#include "src/encoding/gamma_encoder.h"
#include "src/encoding/raw_encoder.h"
#include "src/parallel/random.h"
#include "tests/test_common.h"

using namespace cpam;

namespace {

//===----------------------------------------------------------------------===//
// Shared round-trip machinery.
//===----------------------------------------------------------------------===//

/// Encodes \p Entries into a buffer of exactly max_bytes(N) bytes, so ASan
/// flags a write past the bound; checks that encoded_size respects the
/// bound and that encode returns its end there, and returns the block.
template <class Enc, class EntryT>
std::vector<uint8_t> encodeBlock(std::vector<EntryT> Entries) {
  size_t N = Entries.size();
  size_t Size = Enc::encoded_size(Entries.data(), N);
  EXPECT_LE(Size, Enc::max_bytes(N)) << "max_bytes is not a bound";
  std::vector<uint8_t> Block(Enc::max_bytes(N));
  uint8_t *End = Enc::encode(Entries.data(), N, Block.data());
  EXPECT_EQ(End, Block.data() + Size)
      << "encode must return one past the encoded_size bytes it wrote";
  Block.resize(Size);
  return Block;
}

/// Uninitialized storage for \p N entries: decode and decode_move construct
/// into it, and the test destroys what they built.
template <class T> struct RawSlots {
  explicit RawSlots(size_t N) : P(std::allocator<T>().allocate(N)), N(N) {}
  RawSlots(const RawSlots &) = delete;
  RawSlots &operator=(const RawSlots &) = delete;
  ~RawSlots() { std::allocator<T>().deallocate(P, N); }
  T *P;
  size_t N;
};

/// Reads a whole block back through the encoder's batch decode.
template <class Enc, class EntryT>
std::vector<EntryT> decodeBlock(const std::vector<uint8_t> &Block, size_t N) {
  RawSlots<EntryT> Slots(N);
  Enc::decode(Block.data(), N, Slots.P);
  std::vector<EntryT> Out(Slots.P, Slots.P + N);
  std::destroy_n(Slots.P, N);
  return Out;
}

template <class Enc, class EntryT>
void roundTrip(const std::vector<EntryT> &Entries) {
  size_t N = Entries.size();
  std::vector<uint8_t> Block = encodeBlock<Enc>(Entries);
  // The whole-block scan and the batch decode read the same entries.
  std::vector<EntryT> ViaForEach;
  Enc::for_each_while(Block.data(), N, [&](const EntryT &E) {
    ViaForEach.push_back(E);
    return true;
  });
  EXPECT_EQ(ViaForEach, Entries);
  EXPECT_EQ((decodeBlock<Enc, EntryT>(Block, N)), Entries);
}

using U64Set = set_entry<uint64_t>;
using U64Map = map_entry<uint64_t, uint64_t>;

using RawSetEnc = raw_encoder<U64Set>;
using DiffSetEnc = diff_encoder<U64Set>;
using GammaSetEnc = gamma_encoder<U64Set>;
using RawMapEnc = raw_encoder<U64Map>;
using DiffMapEnc = diff_encoder<U64Map>;
using DiffValMapEnc = diff_val_encoder<U64Map>;

std::vector<uint64_t> sortedUniqueKeys(size_t N, uint64_t MaxDelta, Rng &R) {
  std::vector<uint64_t> Keys(N);
  uint64_t K = R.next(1000);
  for (size_t I = 0; I < N; ++I) {
    Keys[I] = K;
    K += 1 + R.next(MaxDelta);
  }
  return Keys;
}

std::vector<std::pair<uint64_t, uint64_t>>
toMapEntries(const std::vector<uint64_t> &Keys, Rng &R) {
  std::vector<std::pair<uint64_t, uint64_t>> Out(Keys.size());
  for (size_t I = 0; I < Keys.size(); ++I)
    Out[I] = {Keys[I], R.next(1u << 20)};
  return Out;
}

//===----------------------------------------------------------------------===//
// Round trips: empty, single, dense, sparse, max-width.
//===----------------------------------------------------------------------===//

TEST(CursorRoundTrip, EmptyBlock) {
  roundTrip<RawSetEnc, uint64_t>({});
  roundTrip<DiffSetEnc, uint64_t>({});
  roundTrip<GammaSetEnc, uint64_t>({});
  roundTrip<DiffValMapEnc, std::pair<uint64_t, uint64_t>>({});
}

TEST(CursorRoundTrip, SingleEntry) {
  for (uint64_t K : {uint64_t(0), uint64_t(1), uint64_t(127), uint64_t(128),
                     uint64_t(1) << 40, ~uint64_t(0)}) {
    roundTrip<RawSetEnc, uint64_t>({K});
    roundTrip<DiffSetEnc, uint64_t>({K});
    roundTrip<GammaSetEnc, uint64_t>({K});
    roundTrip<RawMapEnc, std::pair<uint64_t, uint64_t>>({{K, 7}});
    roundTrip<DiffMapEnc, std::pair<uint64_t, uint64_t>>({{K, 7}});
    roundTrip<DiffValMapEnc, std::pair<uint64_t, uint64_t>>({{K, 7}});
  }
}

TEST(CursorRoundTrip, MaxWidthDeltas) {
  // First key 0 then a full-width jump: the largest delta each scheme can
  // carry (10-byte varints; 127-bit gamma codes).
  std::vector<uint64_t> Extremes = {0, ~uint64_t(0) - 1, ~uint64_t(0)};
  roundTrip<RawSetEnc, uint64_t>(Extremes);
  roundTrip<DiffSetEnc, uint64_t>(Extremes);
  roundTrip<GammaSetEnc, uint64_t>(Extremes);
  std::vector<uint64_t> HighFirst = {~uint64_t(0) - 7, ~uint64_t(0)};
  roundTrip<DiffSetEnc, uint64_t>(HighFirst);
  roundTrip<GammaSetEnc, uint64_t>(HighFirst);
  // Byte-coded values at max width too.
  roundTrip<DiffValMapEnc, std::pair<uint64_t, uint64_t>>(
      {{0, ~uint64_t(0)}, {~uint64_t(0), 0}});
}

TEST(CursorRoundTrip, FuzzAllWidths) {
  auto R = test::seeded_rng();
  for (uint64_t MaxDelta : {uint64_t(1), uint64_t(100), uint64_t(1) << 30,
                            uint64_t(1) << 52}) {
    for (size_t N : {size_t(2), size_t(17), size_t(256), size_t(300)}) {
      auto Keys = sortedUniqueKeys(N, MaxDelta, R);
      roundTrip<RawSetEnc, uint64_t>(Keys);
      roundTrip<DiffSetEnc, uint64_t>(Keys);
      roundTrip<GammaSetEnc, uint64_t>(Keys);
      auto Entries = toMapEntries(Keys, R);
      roundTrip<RawMapEnc, std::pair<uint64_t, uint64_t>>(Entries);
      roundTrip<DiffMapEnc, std::pair<uint64_t, uint64_t>>(Entries);
      roundTrip<DiffValMapEnc, std::pair<uint64_t, uint64_t>>(Entries);
    }
  }
}

//===----------------------------------------------------------------------===//
// max_bytes: a true bound on worst-case blocks of 2B entries.
//===----------------------------------------------------------------------===//

/// Worst-case key sequences of N keys of the unsigned type \p K: a
/// full-width first key (the top N keys), maximal deltas (spread evenly
/// from 0 to the top), and both at once (spread over the upper half).
template <class K> std::vector<std::vector<K>> worstKeys(size_t N) {
  const uint64_t Max = std::numeric_limits<K>::max();
  const uint64_t Half = Max / 2 + 1; // Top bit set: a full-width code.
  const uint64_t Step = N > 1 ? Max / (N - 1) : 0;
  const uint64_t HalfStep = N > 1 ? (Max - Half) / (N - 1) : 0;
  std::vector<std::vector<K>> Out(3, std::vector<K>(N));
  for (size_t I = 0; I < N; ++I) {
    Out[0][I] = static_cast<K>(Max - (N - 1) + I);
    Out[1][I] = static_cast<K>(I * Step);
    Out[2][I] = static_cast<K>(Half + I * HalfStep);
  }
  return Out;
}

/// Encodes each worst-case block of N entries, \p Make turning a key into
/// an entry; encodeBlock checks the bound and the end pointer.
template <class Enc, class K, class MakeEntry>
void checkWorstCases(size_t N, const MakeEntry &Make) {
  for (const std::vector<K> &Keys : worstKeys<K>(N)) {
    std::vector<typename Enc::entry_t> Entries;
    for (K Key : Keys)
      Entries.push_back(Make(Key));
    encodeBlock<Enc>(Entries);
  }
}

TEST(EncoderBound, MaxBytesHoldsOnWorstCaseBlocks) {
  auto Key = [](uint64_t K) { return K; };
  auto Key32 = [](uint32_t K) { return K; };
  // Maximal byte-coded values for diff_val_encoder.
  auto MaxVal = [](uint64_t K) {
    return std::pair<uint64_t, uint64_t>(K, ~uint64_t(0));
  };
  for (size_t B : {size_t(1), size_t(8), size_t(64), size_t(128),
                   size_t(2048)}) {
    SCOPED_TRACE("B=" + std::to_string(B));
    const size_t N = 2 * B;
    checkWorstCases<RawSetEnc, uint64_t>(N, Key);
    checkWorstCases<DiffSetEnc, uint64_t>(N, Key);
    checkWorstCases<GammaSetEnc, uint64_t>(N, Key);
    checkWorstCases<RawMapEnc, uint64_t>(N, MaxVal);
    checkWorstCases<DiffMapEnc, uint64_t>(N, MaxVal);
    checkWorstCases<DiffValMapEnc, uint64_t>(N, MaxVal);
    // 32-bit keys narrow the bound to 5-byte codes (graph edge sets).
    checkWorstCases<diff_encoder<set_entry<uint32_t>>, uint32_t>(N, Key32);
    checkWorstCases<gamma_encoder<set_entry<uint32_t>>, uint32_t>(N, Key32);
  }
  // The per-entry bound is tight: one full-width entry meets it exactly.
  std::vector<uint64_t> Top = {~uint64_t(0)};
  EXPECT_EQ(DiffSetEnc::encoded_size(Top.data(), 1), DiffSetEnc::max_bytes(1));
  EXPECT_EQ(GammaSetEnc::encoded_size(Top.data(), 1),
            GammaSetEnc::max_bytes(1));
  std::vector<std::pair<uint64_t, uint64_t>> TopVal = {
      {~uint64_t(0), ~uint64_t(0)}};
  EXPECT_EQ(DiffValMapEnc::encoded_size(TopVal.data(), 1),
            DiffValMapEnc::max_bytes(1));
}

//===----------------------------------------------------------------------===//
// Ownership: counting entries through decode and decode_move.
//===----------------------------------------------------------------------===//

/// An entry type that counts live instances and copy/move constructions.
struct Counted {
  uint64_t K = 0;
  static int64_t Live, Copies, Moves;

  Counted() { ++Live; }
  explicit Counted(uint64_t K) : K(K) { ++Live; }
  Counted(const Counted &O) : K(O.K) {
    ++Live;
    ++Copies;
  }
  Counted(Counted &&O) noexcept : K(O.K) {
    ++Live;
    ++Moves;
  }
  Counted &operator=(const Counted &O) {
    K = O.K;
    ++Copies;
    return *this;
  }
  Counted &operator=(Counted &&O) noexcept {
    K = O.K;
    ++Moves;
    return *this;
  }
  ~Counted() { --Live; }
  bool operator==(const Counted &O) const { return K == O.K; }

  static void reset() { Copies = Moves = 0; }
};
int64_t Counted::Live = 0;
int64_t Counted::Copies = 0;
int64_t Counted::Moves = 0;

struct CountedEntry {
  using key_t = uint64_t;
  using val_t = no_aug;
  using entry_t = Counted;
  using aug_t = no_aug;
  static constexpr bool has_val = false;
  static const key_t &get_key(const entry_t &E) { return E.K; }
  static bool comp(const key_t &A, const key_t &B) { return A < B; }
};
using CountedEnc = raw_encoder<CountedEntry>;

/// Encodes N counted entries with keys 0, Step, 2 * Step, ... into a block
/// (moved in: the block then owns N live entries).
std::vector<uint8_t> countedBlock(size_t N, uint64_t Step) {
  std::vector<uint8_t> Block(CountedEnc::max_bytes(N));
  std::vector<Counted> A;
  A.reserve(N);
  for (size_t I = 0; I < N; ++I)
    A.emplace_back(I * Step);
  CountedEnc::encode(A.data(), N, Block.data());
  return Block;
}

TEST(CursorOwnership, DecodeMoveNeverCopiesAndDestroysTheBlock) {
  ASSERT_EQ(Counted::Live, 0);
  constexpr size_t N = 8;
  std::vector<uint8_t> Block = countedBlock(N, 10);
  ASSERT_EQ(Counted::Live, static_cast<int64_t>(N)); // Block owns them.
  Counted::reset();
  RawSlots<Counted> Out(N);
  CountedEnc::decode_move(Block.data(), N, Out.P);
  EXPECT_EQ(Counted::Copies, 0) << "decode_move must move, not copy";
  EXPECT_EQ(Counted::Moves, static_cast<int64_t>(N));
  EXPECT_EQ(Counted::Live, static_cast<int64_t>(N))
      << "decode_move must leave the block's entries destroyed";
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Out.P[I].K, 10 * I);
  std::destroy_n(Out.P, N);
  EXPECT_EQ(Counted::Live, 0);
}

TEST(CursorOwnership, DecodeCopiesEachEntryOnceAndLeavesBlockAlive) {
  constexpr size_t N = 4;
  std::vector<uint8_t> Block = countedBlock(N, 1);
  Counted::reset();
  for (int Round = 0; Round < 2; ++Round) {
    RawSlots<Counted> Out(N);
    CountedEnc::decode(Block.data(), N, Out.P);
    for (size_t I = 0; I < N; ++I)
      EXPECT_EQ(Out.P[I].K, I);
    std::destroy_n(Out.P, N);
  }
  EXPECT_EQ(Counted::Copies, 2 * N) << "decode copies each entry once";
  EXPECT_EQ(Counted::Live, static_cast<int64_t>(N)) << "block must stay alive";
  CountedEnc::destroy(Block.data(), N);
  EXPECT_EQ(Counted::Live, 0);
}

TEST(CursorOwnership, WriteReadPipelineNeverCopies) {
  constexpr size_t N = 10;
  Counted::reset();
  std::vector<uint8_t> Block = countedBlock(N, 3); // Moves into the block.
  RawSlots<Counted> Out(N);
  CountedEnc::decode_move(Block.data(), N, Out.P);
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Out.P[I].K, 3 * I);
  std::destroy_n(Out.P, N);
  EXPECT_EQ(Counted::Copies, 0)
      << "a full encode->decode_move pipeline must never copy an entry";
  EXPECT_EQ(Counted::Live, 0);
}

//===----------------------------------------------------------------------===//
// Move-only entries.
//===----------------------------------------------------------------------===//

struct MoveOnlyEntry {
  using key_t = uint64_t;
  using val_t = no_aug;
  using entry_t = std::unique_ptr<uint64_t>;
  using aug_t = no_aug;
  static constexpr bool has_val = false;
  static const key_t &get_key(const entry_t &E) { return *E; }
  static bool comp(const key_t &A, const key_t &B) { return A < B; }
};
using MoveOnlyEnc = raw_encoder<MoveOnlyEntry>;

/// Encodes N move-only entries holding 0, Step, 2 * Step, ... into a block.
std::vector<uint8_t> moveOnlyBlock(size_t N, uint64_t Step) {
  std::vector<std::unique_ptr<uint64_t>> A;
  for (size_t I = 0; I < N; ++I)
    A.push_back(std::make_unique<uint64_t>(I * Step));
  std::vector<uint8_t> Block(MoveOnlyEnc::max_bytes(N));
  MoveOnlyEnc::encode(A.data(), N, Block.data());
  return Block;
}

TEST(CursorMoveOnly, DecodeMoveHandlesMoveOnlyEntries) {
  constexpr size_t N = 5;
  std::vector<uint8_t> Block = moveOnlyBlock(N, 2);
  RawSlots<std::unique_ptr<uint64_t>> Out(N);
  MoveOnlyEnc::decode_move(Block.data(), N, Out.P);
  // The block's entries are destroyed; LeakSanitizer flags any pointer
  // that neither they nor the destroy_n below release.
  for (size_t I = 0; I < N; ++I) {
    ASSERT_NE(Out.P[I], nullptr);
    EXPECT_EQ(*Out.P[I], 2 * I);
  }
  std::destroy_n(Out.P, N);
}

//===----------------------------------------------------------------------===//
// Tree level: the leaf writer and the set-operation base cases, under the
// allocator leak fixture.
//===----------------------------------------------------------------------===//

/// The entry of key \p K in a tree of type \p TreeT: the key itself in a
/// set; in a map, a value derived from the key, so equal keys always carry
/// equal values. String values are longer than the small-string buffer, so
/// a leaked or double-destroyed entry shows up under ASan.
template <class TreeT> typename TreeT::entry_t entryOf(uint64_t K) {
  using EntryT = typename TreeT::entry_t;
  if constexpr (std::is_same_v<EntryT, uint64_t>)
    return K;
  else if constexpr (std::is_same_v<typename EntryT::second_type,
                                    std::string>)
    return {K, "value-" + std::to_string(K) + std::string(24, '.')};
  else
    return {K, 7 * K + 1};
}

template <class TreeT>
std::vector<typename TreeT::entry_t>
entriesOf(const std::vector<uint64_t> &Keys) {
  std::vector<typename TreeT::entry_t> Out;
  for (uint64_t K : Keys)
    Out.push_back(entryOf<TreeT>(K));
  return Out;
}

template <class TreeT>
class CursorTreeTest : public test::TypedLeakCheckTest<TreeT> {};

/// Sets of every encoder, an augmented diff-encoded map (the writer
/// aggregates each sealed leaf) and a map of non-trivial std::string
/// values (moved into leaves, destroyed on abandonment).
using CursorTreeTypes =
    ::testing::Types<pam_set<uint64_t, 8>, pam_set<uint64_t, 128>,
                     pam_set<uint64_t, 32, diff_encoder>,
                     pam_set<uint64_t, 32, gamma_encoder>,
                     aug_map<aug_sum_entry<uint64_t, uint64_t>, 32,
                             diff_encoder>,
                     pam_map<uint64_t, std::string, 8>>;
TYPED_TEST_SUITE(CursorTreeTest, CursorTreeTypes);

TYPED_TEST(CursorTreeTest, LeafWriterChunksArbitraryLengthStreams) {
  // The chunked leaf pipeline end to end: one ordered stream of N entries
  // must come out as an invariant-clean tree of finished leaves for every
  // N around the chunk boundaries (1, B, 2B, 2B+1, many chunks, partial
  // and empty tails).
  using ops = typename TypeParam::ops;
  using entry_t = typename TypeParam::entry_t;
  constexpr size_t B = ops::kB;
  auto R = test::seeded_rng();
  const size_t Ns[] = {1,         2,         B - 1,     B,        2 * B - 1,
                       2 * B,     2 * B + 1, 3 * B,     4 * B,    4 * B + 1,
                       6 * B + 5, 11 * B + 3};
  for (size_t N : Ns) {
    auto Want = entriesOf<TypeParam>(sortedUniqueKeys(N, 1 + R.next(1000), R));
    typename ops::leaf_writer W(N);
    for (const entry_t &E : Want)
      W.push(E);
    auto *T = W.finish();
    ASSERT_EQ(ops::size(T), N);
    ASSERT_EQ((invariant_checker<ops>::check(T)), "") << "N=" << N;
    std::vector<entry_t> Got;
    ops::foreach_seq(T, [&](const entry_t &E) {
      Got.push_back(E);
      return true;
    });
    ASSERT_EQ(Got, Want) << "N=" << N;
    ops::dec(T);
  }
}

TYPED_TEST(CursorTreeTest, LeafWriterAbandonmentMidStreamLeaksNothing) {
  // Abandon a writer holding several sealed leaves, pending separators
  // and a partial chunk; the leak fixture verifies every node is
  // reclaimed, and ASan that every pending entry is destroyed.
  using ops = typename TypeParam::ops;
  constexpr size_t B = ops::kB;
  auto R = test::seeded_rng();
  auto Es = entriesOf<TypeParam>(sortedUniqueKeys(5 * B + 3, 64, R));
  {
    typename ops::leaf_writer W(Es.size());
    for (size_t I = 0; I + 2 < Es.size(); ++I)
      W.push(Es[I]);
  }
}

TYPED_TEST(CursorTreeTest, SetOpsMatchStdSetAlgorithms) {
  auto R = test::seeded_rng();
  for (int Round = 0; Round < 30; ++Round) {
    size_t Na = R.next(300), Nb = R.next(300);
    std::vector<uint64_t> A(Na), B(Nb);
    for (auto &K : A)
      K = R.next(1000);
    for (auto &K : B)
      K = R.next(1000);
    TypeParam SA(entriesOf<TypeParam>(A)), SB(entriesOf<TypeParam>(B));
    std::sort(A.begin(), A.end());
    A.erase(std::unique(A.begin(), A.end()), A.end());
    std::sort(B.begin(), B.end());
    B.erase(std::unique(B.begin(), B.end()), B.end());
    std::vector<uint64_t> Want[3];
    std::set_union(A.begin(), A.end(), B.begin(), B.end(),
                   std::back_inserter(Want[0]));
    std::set_intersection(A.begin(), A.end(), B.begin(), B.end(),
                          std::back_inserter(Want[1]));
    std::set_difference(A.begin(), A.end(), B.begin(), B.end(),
                        std::back_inserter(Want[2]));
    TypeParam Got[3] = {TypeParam::map_union(SA, SB),
                        TypeParam::map_intersect(SA, SB),
                        TypeParam::map_difference(SA, SB)};
    for (int OpI = 0; OpI < 3; ++OpI) {
      ASSERT_EQ(Got[OpI].to_vector(), entriesOf<TypeParam>(Want[OpI]))
          << "op " << OpI;
      ASSERT_EQ(Got[OpI].check_invariants(), "");
    }
    ASSERT_EQ(SA.to_vector(), entriesOf<TypeParam>(A))
        << "left operand changed";
    ASSERT_EQ(SB.to_vector(), entriesOf<TypeParam>(B))
        << "right operand changed";
  }
}

} // namespace
