//===- test_cursor.cpp - Streaming encoder cursor tests --------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-encoder read_cursor / write_cursor contract tests: round trips over
/// empty, single-entry, dense and max-width-delta blocks; fuzzed
/// skip/take/peek interleavings against the for_each_while reference;
/// bytes() agreement with encoded_size; move-only entries; and early
/// abandonment (no leaked or double-destroyed entries, checked with a
/// construction-counting entry type and with the allocator leak fixture at
/// the tree level). ASan (the sanitize CI leg) additionally checks the
/// max_bytes staging bound and shell-free ordering.
///
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <cstring>
#include <iterator>
#include <memory>
#include <vector>

#include "gtest/gtest.h"

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

/// Encodes \p Entries through a write_cursor into a tight block, asserting
/// bytes() agrees with encoded_size, and returns the block.
template <class Enc, class EntryT>
std::vector<uint8_t> encodeViaCursor(std::vector<EntryT> Entries) {
  size_t N = Entries.size();
  // +1 keeps the staging vector non-empty for the N == 0 case.
  std::vector<uint8_t> Staging(Enc::write_cursor::max_bytes(N) + 1);
  typename Enc::write_cursor W(Staging.data(), N);
  std::vector<EntryT> Reference = Entries; // For encoded_size cross-check.
  for (size_t I = 0; I < N; ++I) {
    W.push(std::move(Entries[I]));
    EXPECT_EQ(W.count(), I + 1);
  }
  EXPECT_EQ(W.bytes(), Enc::encoded_size(Reference.data(), N))
      << "write_cursor bytes() must equal encoded_size for the same entries";
  std::vector<uint8_t> Block(W.bytes());
  W.cut(Block.data());
  EXPECT_EQ(W.count(), 0u) << "cut() must reset the cursor";
  return Block;
}

/// Reads a whole block back through a borrowing read_cursor.
template <class Enc, class EntryT>
std::vector<EntryT> decodeViaCursor(const std::vector<uint8_t> &Block,
                                    size_t N) {
  std::vector<EntryT> Out;
  typename Enc::read_cursor R(Block.data(), N);
  while (!R.done()) {
    EXPECT_EQ(R.peek(), R.peek()) << "peek must be stable";
    Out.push_back(R.take());
  }
  return Out;
}

template <class Enc, class EntryT>
void roundTrip(const std::vector<EntryT> &Entries) {
  size_t N = Entries.size();
  std::vector<uint8_t> Block = encodeViaCursor<Enc>(Entries);
  // Cursor-written bytes decode identically through the non-cursor path.
  std::vector<EntryT> ViaForEach;
  Enc::for_each_while(Block.data(), N, [&](const EntryT &E) {
    ViaForEach.push_back(E);
    return true;
  });
  EXPECT_EQ(ViaForEach, Entries);
  EXPECT_EQ((decodeViaCursor<Enc, EntryT>(Block, N)), Entries);
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
// skip/take/peek interleavings.
//===----------------------------------------------------------------------===//

template <class Enc> void fuzzSkipTake(uint64_t Salt) {
  auto R = test::seeded_rng(Salt);
  for (int Round = 0; Round < 20; ++Round) {
    size_t N = 1 + R.next(200);
    auto Keys = sortedUniqueKeys(N, 1 + R.next(1000), R);
    std::vector<uint8_t> Block = encodeViaCursor<Enc>(Keys);
    std::vector<uint64_t> Taken, Expect;
    typename Enc::read_cursor C(Block.data(), N);
    for (size_t I = 0; I < N; ++I) {
      ASSERT_FALSE(C.done());
      ASSERT_EQ(C.remaining(), N - I);
      ASSERT_EQ(C.peek(), Keys[I]);
      if (R.next(2)) {
        Taken.push_back(C.take());
        Expect.push_back(Keys[I]);
      } else {
        C.skip();
      }
    }
    ASSERT_TRUE(C.done());
    ASSERT_EQ(Taken, Expect);
  }
}

TEST(CursorSkipTake, Raw) { fuzzSkipTake<RawSetEnc>(1); }
TEST(CursorSkipTake, Diff) { fuzzSkipTake<DiffSetEnc>(2); }
TEST(CursorSkipTake, Gamma) { fuzzSkipTake<GammaSetEnc>(3); }

//===----------------------------------------------------------------------===//
// Chunked cut()/restart: one staging buffer, many sealed blocks.
//===----------------------------------------------------------------------===//

/// Pushes \p Entries through one write_cursor, sealing a block after each
/// prescribed chunk length. Every sealed block must carry exactly
/// encoded_size(slice) bytes — i.e. the chunk after a cut restarts with a
/// full-width leading key — and decode independently of its neighbours.
template <class Enc, class EntryT>
void cutRoundTrip(const std::vector<EntryT> &Entries,
                  const std::vector<size_t> &ChunkLens) {
  size_t MaxLen = 1;
  for (size_t L : ChunkLens)
    MaxLen = std::max(MaxLen, L);
  std::vector<uint8_t> Staging(Enc::write_cursor::max_bytes(MaxLen) + 1);
  typename Enc::write_cursor W(Staging.data(), MaxLen);
  size_t Pos = 0;
  for (size_t Len : ChunkLens) {
    std::vector<EntryT> Slice(Entries.begin() + Pos,
                              Entries.begin() + Pos + Len);
    for (EntryT E : Slice)
      W.push(std::move(E));
    ASSERT_EQ(W.count(), Len);
    ASSERT_EQ(W.bytes(), Enc::encoded_size(Slice.data(), Len))
        << "a cut chunk must restart with a full-width key";
    std::vector<uint8_t> Block(W.bytes());
    W.cut(Block.data());
    ASSERT_EQ(W.count(), 0u) << "cut() must restart the cursor";
    ASSERT_EQ((decodeViaCursor<Enc, EntryT>(Block, Len)), Slice);
    Pos += Len;
  }
  ASSERT_EQ(Pos, Entries.size());
}

/// Chunk lengths straddling the block-size boundaries the tree layer cuts
/// at: 1, 2B-1, 2B and 2B+1 entries, for a few B.
template <class Enc> void chunkBoundarySweep(uint64_t Salt) {
  auto R = test::seeded_rng(Salt);
  for (size_t B : {size_t(1), size_t(8), size_t(128)}) {
    std::vector<size_t> Lens = {1, 2 * B - 1, 2 * B, 2 * B + 1, 1, 2 * B};
    size_t Total = 0;
    for (size_t L : Lens)
      Total += L;
    for (uint64_t MaxDelta : {uint64_t(1), uint64_t(1) << 40})
      cutRoundTrip<Enc>(sortedUniqueKeys(Total, MaxDelta, R), Lens);
  }
}

TEST(CursorChunked, CutBoundariesRaw) { chunkBoundarySweep<RawSetEnc>(1); }
TEST(CursorChunked, CutBoundariesDiff) { chunkBoundarySweep<DiffSetEnc>(2); }
TEST(CursorChunked, CutBoundariesGamma) { chunkBoundarySweep<GammaSetEnc>(3); }

TEST(CursorChunked, CutFuzzAllEncoders) {
  auto R = test::seeded_rng();
  for (int Round = 0; Round < 15; ++Round) {
    std::vector<size_t> Lens(1 + R.next(8));
    size_t Total = 0;
    for (auto &L : Lens) {
      L = 1 + R.next(300);
      Total += L;
    }
    auto Keys = sortedUniqueKeys(Total, 1 + R.next(1u << 20), R);
    cutRoundTrip<RawSetEnc>(Keys, Lens);
    cutRoundTrip<DiffSetEnc>(Keys, Lens);
    cutRoundTrip<GammaSetEnc>(Keys, Lens);
    auto Entries = toMapEntries(Keys, R);
    cutRoundTrip<DiffMapEnc>(Entries, Lens);
    cutRoundTrip<DiffValMapEnc>(Entries, Lens);
  }
}

//===----------------------------------------------------------------------===//
// Ownership: counting entries, consuming cursors, early abandonment.
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

TEST(CursorOwnership, ConsumingTakeMovesAndAbandonmentDestroys) {
  ASSERT_EQ(Counted::Live, 0);
  {
    constexpr size_t N = 8;
    std::vector<uint8_t> Block(CountedEnc::encoded_size(nullptr, N));
    {
      std::vector<Counted> A;
      for (size_t I = 0; I < N; ++I)
        A.emplace_back(I * 10);
      CountedEnc::encode(A.data(), N, Block.data()); // Moves into the block.
    }
    ASSERT_EQ(Counted::Live, static_cast<int64_t>(N)); // Block owns them.
    Counted::reset();
    {
      CountedEnc::read_cursor C(Block.data(), N, /*Consume=*/true);
      Counted E0 = C.take();
      EXPECT_EQ(E0.K, 0u);
      C.skip();
      Counted E2 = C.take();
      EXPECT_EQ(E2.K, 20u);
      // Abandon with five entries unconsumed: the cursor destroys them.
    }
    EXPECT_EQ(Counted::Copies, 0) << "consuming take() must move, not copy";
    EXPECT_EQ(Counted::Live, 0) << "abandoned cursor leaked block entries";
  }
}

TEST(CursorOwnership, BorrowingTakeCopiesAndLeavesBlockAlive) {
  constexpr size_t N = 4;
  std::vector<uint8_t> Block(CountedEnc::encoded_size(nullptr, N));
  {
    std::vector<Counted> A;
    for (size_t I = 0; I < N; ++I)
      A.emplace_back(I);
    CountedEnc::encode(A.data(), N, Block.data());
  }
  Counted::reset();
  for (int Round = 0; Round < 2; ++Round) {
    CountedEnc::read_cursor C(Block.data(), N, /*Consume=*/false);
    while (!C.done())
      (void)C.take();
  }
  EXPECT_EQ(Counted::Copies, 2 * N) << "borrowing take() copies each entry";
  EXPECT_EQ(Counted::Live, static_cast<int64_t>(N)) << "block must stay alive";
  CountedEnc::destroy(Block.data(), N);
  EXPECT_EQ(Counted::Live, 0);
}

TEST(CursorOwnership, WriteCursorAbandonmentDestroysStagedEntries) {
  ASSERT_EQ(Counted::Live, 0);
  constexpr size_t N = 6;
  std::vector<uint8_t> Staging(CountedEnc::write_cursor::max_bytes(N));
  Counted::reset();
  {
    CountedEnc::write_cursor W(Staging.data(), N);
    for (size_t I = 0; I < N / 2; ++I)
      W.push(Counted(I));
    EXPECT_EQ(W.count(), N / 2);
    // Abandon without cut(): staged entries must be destroyed.
  }
  EXPECT_EQ(Counted::Live, 0) << "abandoned write_cursor leaked entries";
  EXPECT_EQ(Counted::Copies, 0) << "push must move, not copy";
}

TEST(CursorOwnership, WriteReadPipelineNeverCopies) {
  constexpr size_t N = 10;
  std::vector<uint8_t> Staging(CountedEnc::write_cursor::max_bytes(N));
  std::vector<uint8_t> Block;
  Counted::reset();
  {
    CountedEnc::write_cursor W(Staging.data(), N);
    for (size_t I = 0; I < N; ++I)
      W.push(Counted(I * 3));
    Block.resize(W.bytes());
    W.cut(Block.data());
  }
  {
    CountedEnc::read_cursor C(Block.data(), N, /*Consume=*/true);
    uint64_t I = 0;
    while (!C.done())
      EXPECT_EQ(C.take().K, 3 * I++);
  }
  EXPECT_EQ(Counted::Copies, 0)
      << "a full write->cut->consume pipeline must never copy an entry";
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

TEST(CursorMoveOnly, RawCursorsHandleMoveOnlyEntries) {
  constexpr size_t N = 5;
  std::vector<uint8_t> Staging(MoveOnlyEnc::write_cursor::max_bytes(N));
  std::vector<uint8_t> Block;
  {
    MoveOnlyEnc::write_cursor W(Staging.data(), N);
    for (size_t I = 0; I < N; ++I)
      W.push(std::make_unique<uint64_t>(I * 2));
    Block.resize(W.bytes());
    W.cut(Block.data());
  }
  {
    MoveOnlyEnc::read_cursor C(Block.data(), N, /*Consume=*/true);
    uint64_t I = 0;
    while (!C.done()) {
      ASSERT_NE(C.peek(), nullptr);
      auto P = C.take();
      EXPECT_EQ(*P, 2 * I++);
    }
    EXPECT_EQ(I, N);
  }
}

TEST(CursorChunked, MoveOnlyEntriesSurviveAcrossCuts) {
  // Chunked writing of move-only entries: each cut seals a self-contained
  // block (entries moved, never copied); the stream continues after it.
  const std::vector<size_t> Lens = {4, 4, 1};
  std::vector<uint8_t> Staging(MoveOnlyEnc::write_cursor::max_bytes(4));
  MoveOnlyEnc::write_cursor W(Staging.data(), 4);
  std::vector<std::vector<uint8_t>> Blocks;
  uint64_t K = 0;
  for (size_t Len : Lens) {
    for (size_t I = 0; I < Len; ++I)
      W.push(std::make_unique<uint64_t>(K++));
    std::vector<uint8_t> Block(W.bytes());
    W.cut(Block.data());
    Blocks.push_back(std::move(Block));
  }
  uint64_t Expect = 0;
  for (size_t C = 0; C < Lens.size(); ++C) {
    MoveOnlyEnc::read_cursor R(Blocks[C].data(), Lens[C], /*Consume=*/true);
    while (!R.done())
      EXPECT_EQ(*R.take(), Expect++);
  }
  EXPECT_EQ(Expect, K);
}

TEST(CursorChunked, AbandonmentMidChunkAfterCutsLeaksNothing) {
  ASSERT_EQ(Counted::Live, 0);
  Counted::reset();
  constexpr size_t Chunk = 5;
  std::vector<uint8_t> Staging(CountedEnc::write_cursor::max_bytes(Chunk));
  std::vector<uint8_t> Block;
  {
    CountedEnc::write_cursor W(Staging.data(), Chunk);
    for (size_t I = 0; I < Chunk; ++I)
      W.push(Counted(I));
    Block.resize(W.bytes());
    W.cut(Block.data());
    for (size_t I = 0; I < 3; ++I)
      W.push(Counted(100 + I));
    // Abandon mid-chunk: the staged tail must be destroyed while the
    // sealed block keeps its entries.
  }
  EXPECT_EQ(Counted::Live, static_cast<int64_t>(Chunk))
      << "abandonment must only drop the unsealed tail";
  EXPECT_EQ(Counted::Copies, 0) << "cut() must move, not copy";
  CountedEnc::destroy(Block.data(), Chunk);
  EXPECT_EQ(Counted::Live, 0);
}

TEST(CursorMoveOnly, EarlyAbandonmentReleasesMoveOnlyTail) {
  constexpr size_t N = 7;
  std::vector<uint8_t> Staging(MoveOnlyEnc::write_cursor::max_bytes(N));
  std::vector<uint8_t> Block;
  {
    MoveOnlyEnc::write_cursor W(Staging.data(), N);
    for (size_t I = 0; I < N; ++I)
      W.push(std::make_unique<uint64_t>(I));
    Block.resize(W.bytes());
    W.cut(Block.data());
  }
  {
    MoveOnlyEnc::read_cursor C(Block.data(), N, /*Consume=*/true);
    (void)C.take();
    C.skip();
    // Abandon: the remaining unique_ptrs are destroyed by the cursor (ASan
    // and LeakSanitizer catch it in the sanitize leg if they are not).
  }
}

//===----------------------------------------------------------------------===//
// Tree level: leaf_reader/leaf_writer through the set-operation fast paths,
// under the allocator leak fixture.
//===----------------------------------------------------------------------===//

template <class SetT> class CursorTreeTest : public test::TypedLeakCheckTest<SetT> {};

using CursorSetTypes =
    ::testing::Types<pam_set<uint64_t, 8>, pam_set<uint64_t, 128>,
                     pam_set<uint64_t, 32, diff_encoder>,
                     pam_set<uint64_t, 32, gamma_encoder>>;
TYPED_TEST_SUITE(CursorTreeTest, CursorSetTypes);

TYPED_TEST(CursorTreeTest, LeafWriterChunksArbitraryLengthStreams) {
  // The chunked leaf pipeline end to end: one ordered stream of N entries
  // must come out as an invariant-clean tree of finished leaves for every
  // N around the chunk boundaries (1, B, 2B, 2B+1, many chunks, partial
  // and empty tails).
  using ops = typename TypeParam::ops;
  constexpr size_t B = ops::kB;
  auto R = test::seeded_rng();
  const size_t Ns[] = {1,         2,         B - 1,     B,        2 * B - 1,
                       2 * B,     2 * B + 1, 3 * B,     4 * B,    4 * B + 1,
                       6 * B + 5, 11 * B + 3};
  for (size_t N : Ns) {
    auto Keys = sortedUniqueKeys(N, 1 + R.next(1000), R);
    typename ops::leaf_writer W(N);
    for (uint64_t K : Keys)
      W.push(K);
    auto *T = W.finish();
    ASSERT_EQ(ops::size(T), N);
    ASSERT_EQ((invariant_checker<ops>::check(T)), "") << "N=" << N;
    std::vector<uint64_t> Got;
    ops::foreach_seq(T, [&](const uint64_t &K) {
      Got.push_back(K);
      return true;
    });
    ASSERT_EQ(Got, Keys) << "N=" << N;
    ops::dec(T);
  }
}

TYPED_TEST(CursorTreeTest, LeafReaderRemainingCountsDown) {
  using ops = typename TypeParam::ops;
  auto R = test::seeded_rng();
  auto Keys = sortedUniqueKeys(ops::kB + 3, 8, R);
  auto *T = ops::from_array_move(Keys.data(), Keys.size());
  ASSERT_TRUE(ops::is_flat(T));
  typename ops::leaf_reader C(T); // Consumes the (unique) reference.
  size_t Want = Keys.size();
  while (!C.done()) {
    ASSERT_EQ(C.remaining(), Want--);
    C.skip();
  }
  ASSERT_EQ(Want, 0u);
}

TYPED_TEST(CursorTreeTest, LeafWriterAbandonmentMidStreamLeaksNothing) {
  // Abandon a writer holding several sealed leaves, a pending separator
  // and a partial chunk; the leak fixture verifies every node and staged
  // entry is reclaimed.
  using ops = typename TypeParam::ops;
  constexpr size_t B = ops::kB;
  auto R = test::seeded_rng();
  auto Keys = sortedUniqueKeys(5 * B + 3, 64, R);
  {
    typename ops::leaf_writer W(Keys.size());
    for (size_t I = 0; I + 2 < Keys.size(); ++I)
      W.push(Keys[I]);
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
    TypeParam SA(A), SB(B);
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
      ASSERT_EQ(Got[OpI].to_vector(), Want[OpI]) << "op " << OpI;
      ASSERT_EQ(Got[OpI].check_invariants(), "");
    }
    ASSERT_EQ(SA.to_vector(), A) << "left operand changed";
    ASSERT_EQ(SB.to_vector(), B) << "right operand changed";
  }
}

} // namespace
