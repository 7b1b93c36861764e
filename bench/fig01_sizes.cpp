//===- fig01_sizes.cpp - Fig. 1: relative sizes across applications ---------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Regenerates Fig. 1: memory of the interval tree, range tree, inverted
// index and two large graphs ("Twitter"/"Friendster" rMAT stand-ins; see
// README's "Datasets" section) under PaC-trees (CPAM), difference-encoded
// PaC-trees, P-trees (PAM), Aspen (C-trees) and the static GBBS
// representation.
// Expected shape: PaC-diff smallest (graphs within ~1.3-2.6x of Aspen's
// inverse: Aspen is 1.3-2.6x LARGER), P-trees up to ~10x larger.
//
//===----------------------------------------------------------------------===//

#include "bench/bench_common.h"
#include "src/apps/interval_tree.h"
#include "src/apps/inverted_index.h"
#include "src/apps/range_tree.h"
#include "src/baselines/aspen_graph.h"
#include "src/baselines/csr_graph.h"
#include "src/graph/graph.h"

using namespace cpam;
using namespace cpam::bench;

int main(int argc, char **argv) {
  size_t N = arg_size(argc, argv, "n", 1000000);
  print_header("Fig. 1: structure sizes relative to smallest");

  {
    auto Ivs = random_intervals(N, 1u << 30, 10000, 1);
    interval_tree<32> Pac(Ivs);
    interval_tree<0> PTree(Ivs);
    size_t Small = std::min(Pac.size_in_bytes(), PTree.size_in_bytes());
    std::printf("[interval tree, n=%zu]\n", N);
    print_size_row("PaC-tree (CPAM)", Pac.size_in_bytes(), Small);
    print_size_row("P-tree (PAM)", PTree.size_in_bytes(), Small);
  }
  {
    size_t Np = N / 5;
    auto Raw = random_points(Np, 1u << 30, 2);
    std::vector<point2d> Pts(Raw.size());
    for (size_t I = 0; I < Raw.size(); ++I)
      Pts[I] = {static_cast<uint32_t>(Raw[I].first),
                static_cast<uint32_t>(Raw[I].second)};
    range_tree<128, 16> Pac(Pts);
    range_tree<0, 0> PTree(Pts);
    size_t Small = std::min(Pac.size_in_bytes(), PTree.size_in_bytes());
    std::printf("[range tree, n=%zu]\n", Np);
    print_size_row("PaC-tree (CPAM)", Pac.size_in_bytes(), Small);
    print_size_row("P-tree (PAM)", PTree.size_in_bytes(), Small);
  }
  {
    Corpus C = generate_corpus(2 * N, 50000, N / 250 + 10, 1.0, 3);
    inverted_index<128, 128> Pac(C);
    inverted_index<0, 0> PTree(C);
    size_t Small = std::min(Pac.size_in_bytes(), PTree.size_in_bytes());
    std::printf("[inverted index (Wikipedia stand-in), %zu tokens]\n",
                C.Tokens.size());
    print_size_row("PaC-tree-diff (CPAM)", Pac.size_in_bytes(), Small);
    print_size_row("P-tree (PAM)", PTree.size_in_bytes(), Small);
  }
  for (auto [Name, LogN, Deg] :
       {std::tuple<const char *, int, size_t>{"Twitter stand-in", 17, 29},
        {"Friendster stand-in", 18, 27}}) {
    size_t NumV = size_t(1) << LogN;
    auto Edges = rmat_graph(LogN, NumV * Deg / 2);
    std::printf("[%s: %zu vertices, %zu directed edges]\n", Name, NumV,
                Edges.size());
    csr_graph Gbbs = csr_graph::from_edges(Edges, NumV);
    sym_graph Diff = sym_graph::from_edges(Edges, NumV);
    sym_graph_nodiff NoDiff = sym_graph_nodiff::from_edges(Edges, NumV);
    aspen_graph Aspen = aspen_graph::from_edges(Edges, NumV);
    sym_graph_ptree PTree = sym_graph_ptree::from_edges(Edges, NumV);
    size_t Small = std::min({Gbbs.size_in_bytes(), Diff.size_in_bytes()});
    print_size_row("GBBS (static, diff)", Gbbs.size_in_bytes(), Small);
    print_size_row("PaC-tree-diff (CPAM)", Diff.size_in_bytes(), Small);
    print_size_row("PaC-tree (CPAM)", NoDiff.size_in_bytes(), Small);
    print_size_row("Aspen (C-tree)", Aspen.size_in_bytes(), Small);
    print_size_row("P-tree (PAM)", PTree.size_in_bytes(), Small);
  }
  return 0;
}
