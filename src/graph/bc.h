//===- bc.h - Single-source betweenness centrality ---------------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#ifndef CPAM_GRAPH_BC_H
#define CPAM_GRAPH_BC_H

#include <atomic>
#include <limits>

#include "src/graph/ligra.h"

namespace cpam {

/// Single-source betweenness centrality contributions (Brandes) from \p
/// Src: forward level-synchronous BFS computing shortest-path counts sigma,
/// then a backward sweep accumulating dependencies. Races are avoided by
/// having each vertex pull from its own neighbor list (one scan per
/// direction). Returns delta[v] for all v.
template <class NeighborFn>
std::vector<double> bc_from_source(const NeighborFn &Neighbors,
                                   size_t NumVertices, vertex_id Src) {
  constexpr uint32_t kUnset = std::numeric_limits<uint32_t>::max();
  std::vector<std::atomic<uint32_t>> Dist(NumVertices);
  par::parallel_for(0, NumVertices, [&](size_t I) { Dist[I].store(kUnset); });
  Dist[Src].store(0);

  // Forward: discover levels.
  std::vector<std::vector<vertex_id>> Levels;
  vertex_subset Frontier;
  Frontier.Vs = {Src};
  uint32_t D = 0;
  while (!Frontier.empty()) {
    Levels.push_back(Frontier.Vs);
    ++D;
    Frontier = edge_map(
        Neighbors, NumVertices, Frontier,
        [&](vertex_id, vertex_id V) {
          uint32_t Expect = kUnset;
          return Dist[V].compare_exchange_strong(Expect, D);
        },
        [&](vertex_id V) { return Dist[V].load() == kUnset; });
  }

  // Sigma: each vertex pulls counts from the previous level.
  std::vector<double> Sigma(NumVertices, 0.0);
  Sigma[Src] = 1.0;
  for (uint32_t L = 1; L < Levels.size(); ++L) {
    par::parallel_for(
        0, Levels[L].size(),
        [&](size_t I) {
          vertex_id V = Levels[L][I];
          double S = 0;
          Neighbors(V, [&](vertex_id U) {
            if (Dist[U].load() == L - 1)
              S += Sigma[U];
          });
          Sigma[V] = S;
        },
        /*Gran=*/1);
  }

  // Backward: each vertex pulls dependencies from the next level.
  std::vector<double> Delta(NumVertices, 0.0);
  for (size_t L = Levels.size(); L-- > 1;) {
    par::parallel_for(
        0, Levels[L - 1].size(),
        [&](size_t I) {
          vertex_id U = Levels[L - 1][I];
          double Acc = 0;
          Neighbors(U, [&](vertex_id V) {
            if (Dist[V].load() == L)
              Acc += Sigma[U] / Sigma[V] * (1.0 + Delta[V]);
          });
          Delta[U] += Acc;
        },
        /*Gran=*/1);
  }
  return Delta;
}

} // namespace cpam

#endif // CPAM_GRAPH_BC_H
