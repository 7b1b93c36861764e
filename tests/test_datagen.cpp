//===- test_datagen.cpp - Synthetic dataset generators ----------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include <map>
#include <set>

#include "gtest/gtest.h"

#include "src/parallel/random.h"
#include "src/util/datagen.h"
#include "src/util/textgen.h"

using namespace cpam;

namespace {

TEST(Rmat, DirectedEdgesInRange) {
  auto E = rmat_edges(10, 5000);
  ASSERT_EQ(E.size(), 5000u);
  for (auto &[U, V] : E) {
    ASSERT_LT(U, 1u << 10);
    ASSERT_LT(V, 1u << 10);
  }
  // Deterministic in the seed.
  auto E2 = rmat_edges(10, 5000);
  EXPECT_EQ(E, E2);
  RmatParams P;
  P.Seed = 77;
  EXPECT_NE(rmat_edges(10, 5000, P), E);
}

/// Order-sensitive fingerprint of an edge list.
uint64_t fingerprint(const std::vector<edge_pair> &E) {
  uint64_t F = 0;
  for (auto [U, V] : E)
    F = hash64(F ^ (uint64_t(U) << 32 | V));
  return F;
}

// The generators' output is part of every graph benchmark's input: a faster
// generator must draw the same edges in the same order.
TEST(Rmat, OutputIsPinned) {
  EXPECT_EQ(fingerprint(rmat_edges(16, 100000)), 0x861d78b779d22202ull);
  RmatParams P;
  P.A = .57;
  P.B = .19;
  P.C = .19;
  P.Seed = 77;
  EXPECT_EQ(fingerprint(rmat_edges(20, 100000, P)), 0x8d5d5b5bf2a9c905ull);
  auto G = rmat_graph(12, 40000);
  EXPECT_EQ(G.size(), 68668u);
  EXPECT_EQ(fingerprint(G), 0xfe40fe8a3ce84a29ull);
}

TEST(Rmat, SymmetricGraphProperties) {
  auto E = rmat_graph(10, 4000);
  std::set<edge_pair> S(E.begin(), E.end());
  EXPECT_EQ(S.size(), E.size()) << "duplicates survived";
  for (auto &[U, V] : E) {
    EXPECT_NE(U, V) << "self loop survived";
    EXPECT_TRUE(S.count({V, U})) << "not symmetric";
  }
  EXPECT_TRUE(std::is_sorted(E.begin(), E.end()));
}

TEST(Rmat, PowerLawSkew) {
  // rMAT with a=0.5 concentrates edges: the max degree should far exceed
  // the average.
  auto E = rmat_graph(12, 40000);
  std::map<vertex_id, size_t> Deg;
  for (auto &[U, V] : E)
    Deg[U]++;
  size_t MaxDeg = 0;
  for (auto &[U, D] : Deg)
    MaxDeg = std::max(MaxDeg, D);
  double Avg = double(E.size()) / Deg.size();
  // After symmetrization + dedup the tail flattens somewhat; a uniform
  // graph at this density would have max/avg < 2.
  EXPECT_GT(MaxDeg, Avg * 4);
}

TEST(Mesh, GridStructure) {
  auto E = mesh_graph(10);
  // 10x10 grid: 2 * (2 * 10 * 9) directed edges.
  EXPECT_EQ(E.size(), 360u);
  std::set<edge_pair> S(E.begin(), E.end());
  for (auto &[U, V] : E)
    EXPECT_TRUE(S.count({V, U}));
  // Corner vertex 0 has exactly 2 neighbors.
  EXPECT_EQ(std::count_if(E.begin(), E.end(),
                          [](const edge_pair &P) { return P.first == 0; }),
            2);
}

TEST(Intervals, WithinBounds) {
  auto Ivs = random_intervals(1000, 100000, 50, 3);
  for (auto &Iv : Ivs) {
    EXPECT_LE(Iv.Left, Iv.Right);
    EXPECT_LE(Iv.Right - Iv.Left, 50u);
    EXPECT_LT(Iv.Right, 100000u);
  }
}

TEST(Corpus, ZipfSkewAndCoverage) {
  Corpus C = generate_corpus(100000, 1000, 100, 1.0, 5);
  EXPECT_EQ(C.Tokens.size(), 100000u);
  EXPECT_EQ(C.num_docs(), 100u);
  EXPECT_EQ(C.DocOffsets.front(), 0u);
  EXPECT_EQ(C.DocOffsets.back(), C.Tokens.size());
  std::map<uint32_t, size_t> Freq;
  for (uint32_t W : C.Tokens) {
    ASSERT_LT(W, 1000u);
    Freq[W]++;
  }
  // Zipf: the most frequent word appears far more than average.
  size_t MaxF = 0;
  for (auto &[W, F] : Freq)
    MaxF = std::max(MaxF, F);
  EXPECT_GT(MaxF, 100000u / 1000 * 20);
}

TEST(Corpus, WordStringsAreUniqueAndStable) {
  std::set<std::string> Seen;
  for (uint32_t I = 0; I < 10000; ++I)
    ASSERT_TRUE(Seen.insert(word_string(I)).second) << I;
  EXPECT_EQ(word_string(0), "a");
  EXPECT_EQ(word_string(25), "z");
  EXPECT_EQ(word_string(26), "aa");
}

} // namespace
