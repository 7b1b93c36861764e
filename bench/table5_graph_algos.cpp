//===- table5_graph_algos.cpp - Table 5: BFS / MIS / BC ---------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Regenerates Table 5: parallel running times of BFS, MIS and single-source
// BC over CPAM graphs with and without flat snapshots, and over the Aspen
// (C-tree) baseline, plus flat-snapshot construction times. Expected
// shape: flat snapshots help all algorithms; CPAM builds snapshots faster
// than Aspen (fewer cache misses in the chunked vertex tree) and is
// competitive or faster on the algorithms (~1.1x in the paper).
//
//===----------------------------------------------------------------------===//

#include "bench/bench_common.h"
#include "src/baselines/aspen_graph.h"
#include "src/graph/bc.h"
#include "src/graph/bfs.h"
#include "src/graph/graph.h"
#include "src/graph/mis.h"

using namespace cpam;
using namespace cpam::bench;

namespace {

void runGraph(const char *Name, int LogN, size_t Deg) {
  size_t NumV = size_t(1) << LogN;
  auto Edges = rmat_graph(LogN, NumV * Deg / 2);
  std::printf("[%s] n=%zu m=%zu\n", Name, NumV, Edges.size());

  sym_graph G = sym_graph::from_edges(Edges, NumV);
  aspen_graph A = aspen_graph::from_edges(Edges, NumV);
  vertex_id Src = Edges[0].first;

  // Flat snapshot construction (the FS Time column).
  double FsCpam = time_par([&] { auto S = G.flat_snapshot(); });
  double FsAspen = time_par([&] { auto S = A.flat_snapshot(); });
  std::printf("  %-24s cpam=%8.4fs  aspen=%8.4fs  (aspen/cpam %.2fx)\n",
              "FS build", FsCpam, FsAspen, FsAspen / FsCpam);

  auto Snap = G.flat_snapshot();
  auto NFs = make_neighbors(Snap);
  // Without a flat snapshot, every frontier vertex walks the vertex tree.
  auto NTree = [&](vertex_id U, auto f) {
    auto E = G.vertices().find_entry(U);
    if (E)
      E->second.foreach_seq(f);
  };
  auto SnapA = A.flat_snapshot();
  auto NAspen = [&](vertex_id U, auto f) {
    if (U < SnapA.size())
      SnapA[U].foreach_seq(f);
  };

  double BfsNoFs = time_par([&] { auto P = bfs(NTree, NumV, Src); });
  double BfsFs = time_par([&] { auto P = bfs(NFs, NumV, Src); });
  double BfsAspen = time_par([&] { auto P = bfs(NAspen, NumV, Src); });
  std::printf("  %-24s no-fs=%8.4fs  fs=%8.4fs  aspen-fs=%8.4fs  "
              "(aspen/ours %.2fx)\n",
              "BFS", BfsNoFs, BfsFs, BfsAspen, BfsAspen / BfsFs);

  double MisNoFs = time_par([&] { auto M = mis(NTree, NumV); });
  double MisFs = time_par([&] { auto M = mis(NFs, NumV); });
  double MisAspen = time_par([&] { auto M = mis(NAspen, NumV); });
  std::printf("  %-24s no-fs=%8.4fs  fs=%8.4fs  aspen-fs=%8.4fs  "
              "(aspen/ours %.2fx)\n",
              "MIS", MisNoFs, MisFs, MisAspen, MisAspen / MisFs);

  double BcNoFs =
      time_par([&] { auto D = bc_from_source(NTree, NumV, Src); });
  double BcFs = time_par([&] { auto D = bc_from_source(NFs, NumV, Src); });
  double BcAspen =
      time_par([&] { auto D = bc_from_source(NAspen, NumV, Src); });
  std::printf("  %-24s no-fs=%8.4fs  fs=%8.4fs  aspen-fs=%8.4fs  "
              "(aspen/ours %.2fx)\n",
              "BC", BcNoFs, BcFs, BcAspen, BcAspen / BcFs);
}

} // namespace

int main(int argc, char **argv) {
  g_reps = static_cast<int>(arg_size(argc, argv, "reps", 3));
  int LogN = static_cast<int>(arg_size(argc, argv, "logn", 16));
  print_header("Table 5: graph algorithms, CPAM vs Aspen");
  runGraph("LiveJournal stand-in", LogN, 18);
  runGraph("com-Orkut stand-in", LogN - 1, 64);
  runGraph("Twitter stand-in", LogN + 1, 40);
  return 0;
}
