//===- bfs.h - Parallel breadth-first search --------------------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#ifndef CPAM_GRAPH_BFS_H
#define CPAM_GRAPH_BFS_H

#include <atomic>
#include <limits>

#include "src/graph/ligra.h"

namespace cpam {

inline constexpr vertex_id kBfsUnvisited =
    std::numeric_limits<vertex_id>::max();

/// Frontier-based parallel BFS over any NeighborFn (flat snapshot or
/// baseline graph). Returns the parent array (kBfsUnvisited = unreached;
/// Parents[Src] == Src).
template <class NeighborFn>
std::vector<vertex_id> bfs(const NeighborFn &Neighbors, size_t NumVertices,
                           vertex_id Src) {
  std::vector<std::atomic<vertex_id>> Parents(NumVertices);
  par::parallel_for(0, NumVertices, [&](size_t I) {
    Parents[I].store(kBfsUnvisited, std::memory_order_relaxed);
  });
  Parents[Src].store(Src, std::memory_order_relaxed);
  vertex_subset Frontier;
  Frontier.Vs = {Src};
  while (!Frontier.empty()) {
    Frontier = edge_map(
        Neighbors, NumVertices, Frontier,
        [&](vertex_id U, vertex_id V) {
          vertex_id Expect = kBfsUnvisited;
          return Parents[V].compare_exchange_strong(Expect, U);
        },
        [&](vertex_id V) {
          return Parents[V].load(std::memory_order_relaxed) == kBfsUnvisited;
        });
  }
  std::vector<vertex_id> Out(NumVertices);
  par::parallel_for(0, NumVertices, [&](size_t I) {
    Out[I] = Parents[I].load(std::memory_order_relaxed);
  });
  return Out;
}

} // namespace cpam

#endif // CPAM_GRAPH_BFS_H
