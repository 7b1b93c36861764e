//===- fig11_graph_sizes.cpp - Fig. 11 + Table 4: graph memory --------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Regenerates Fig. 11 / Table 4: memory of seven graphs (synthetic
// stand-ins matching the originals' average degree and locality character;
// see README's "Datasets" section) under GBBS (static diff-encoded CSR),
// PaC-tree (Diff), PaC-tree, Aspen (C-trees) and P-trees (PAM). Expected ordering per
// graph: GBBS <= PaC-diff < PaC, Aspen; P-tree largest (4-9.7x over
// PaC-diff); Aspen/PaC-diff between 1.2x and 2.7x, largest on the sparse
// road-like graph.
//
//===----------------------------------------------------------------------===//

#include "bench/bench_common.h"
#include "src/baselines/aspen_graph.h"
#include "src/baselines/csr_graph.h"
#include "src/graph/graph.h"

using namespace cpam;
using namespace cpam::bench;

namespace {

void runGraph(const char *Name, const std::vector<edge_pair> &Edges,
              size_t NumV) {
  csr_graph Gbbs = csr_graph::from_edges(Edges, NumV);
  sym_graph Diff = sym_graph::from_edges(Edges, NumV);
  sym_graph_nodiff NoDiff = sym_graph_nodiff::from_edges(Edges, NumV);
  aspen_graph Aspen = aspen_graph::from_edges(Edges, NumV);
  sym_graph_ptree PTree = sym_graph_ptree::from_edges(Edges, NumV);
  size_t Small =
      std::min({Gbbs.size_in_bytes(), Diff.size_in_bytes(),
                NoDiff.size_in_bytes(), Aspen.size_in_bytes()});
  std::printf("[%s] n=%zu m=%zu (directed)\n", Name, NumV, Edges.size());
  print_size_row("  GBBS (Diff)", Gbbs.size_in_bytes(), Small);
  print_size_row("  PaC-tree (Diff)", Diff.size_in_bytes(), Small);
  print_size_row("  PaC-tree", NoDiff.size_in_bytes(), Small);
  print_size_row("  Aspen (C-tree)", Aspen.size_in_bytes(), Small);
  print_size_row("  P-tree (PAM)", PTree.size_in_bytes(), Small);
  std::printf("  Aspen / PaC-diff = %.2fx\n",
              static_cast<double>(Aspen.size_in_bytes()) /
                  Diff.size_in_bytes());
}

} // namespace

int main(int argc, char **argv) {
  size_t Scale = arg_size(argc, argv, "scale", 1);
  print_header("Fig. 11 / Table 4: graph representation sizes");

  // Stand-ins: (name, log2 vertices, average directed degree). Degrees
  // mirror the originals (DBLP 4.9, YouTube 5.3, USA-Road 2.4 via mesh,
  // LiveJournal 17.7, com-Orkut 76, Twitter 57.7, Friendster 55).
  struct Spec {
    const char *Name;
    int LogN;
    size_t Deg;
  };
  for (const Spec &S :
       {Spec{"DBLP (DB) stand-in", 15, 5}, Spec{"YouTube (YT) stand-in", 16, 5},
        Spec{"LiveJournal (LJ) stand-in", 16, 18},
        Spec{"com-Orkut (OK) stand-in", 15, 64},
        Spec{"Twitter (TW) stand-in", 17, 40},
        Spec{"Friendster (FS) stand-in", 18, 30}}) {
    size_t NumV = (size_t(1) << S.LogN) * Scale;
    int LogN = S.LogN + (Scale > 1 ? 1 : 0);
    auto Edges = rmat_graph(LogN, NumV * S.Deg / 2);
    runGraph(S.Name, Edges, size_t(1) << LogN);
  }
  {
    // USA-Road stand-in: sparse mesh with high index locality.
    size_t Side = 350 * Scale;
    auto Edges = mesh_graph(Side);
    runGraph("USA-Road (RU) stand-in (mesh)", Edges, Side * Side);
  }
  return 0;
}
