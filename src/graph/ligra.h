//===- ligra.h - Frontier-based graph traversal primitives -----------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact Ligra-style interface (Shun-Blelloch) over flat snapshots:
/// vertex subsets plus edge_map. The paper's graph algorithms (Sec. 9) are
/// written against this interface, identically for CPAM graphs and the
/// C-tree (Aspen) baseline — both only need "iterate my neighbors".
///
/// A NeighborFn is any callable Neighbors(U, Visit) that calls Visit(V) for
/// the neighbours V of U in order and stops once Visit returns false. An
/// adapter that ignores the result (or a Visit returning void) only loses
/// the early stop. Graphs must be symmetric: a pull round reads V's own
/// list to find the edges into V. An adapter may also expose
/// prefetch(U), a hint that U's list is read soon: edge_map calls it a
/// fixed distance ahead of the vertex it reads, so the first miss of the
/// next lists overlaps the work on this one.
///
//===----------------------------------------------------------------------===//

#ifndef CPAM_GRAPH_LIGRA_H
#define CPAM_GRAPH_LIGRA_H

#include <cstdint>
#include <vector>

#include "src/parallel/primitives.h"
#include "src/util/datagen.h"

namespace cpam {

/// A sparse set of active vertices.
struct vertex_subset {
  std::vector<vertex_id> Vs;
  size_t size() const { return Vs.size(); }
  bool empty() const { return Vs.empty(); }
};

/// edge_map pulls when the frontier holds more than 1/kPullFrontierDivisor
/// of the vertices, and pushes otherwise. Ligra compares the frontier's
/// out-degree sum with m/20; the frontier's size against n/20 needs no
/// degrees from the neighbour adapters.
inline constexpr size_t kPullFrontierDivisor = 20;

/// Look-ahead of the prefetch(U) hint: a pull round hints the vertex this
/// many ids ahead, a push round the frontier entry this many places ahead
/// in its chunk (the whole frontier when forks run inline).
inline constexpr size_t kPullPrefetchDistance = 16;
inline constexpr size_t kPushPrefetchDistance = 8;

namespace detail {

/// Calls Neighbors.prefetch(U) if the adapter has that hook.
template <class NeighborFn>
void prefetch_neighbors(const NeighborFn &Neighbors, vertex_id U) {
  if constexpr (requires { Neighbors.prefetch(U); })
    Neighbors.prefetch(U);
}

/// Push round: each frontier vertex U offers every neighbour V with cond(V)
/// to f(U, V), and V joins the output when f returns true. Discoveries
/// gather in one buffer per parallel chunk, or in the output itself when
/// forks run inline.
template <class NeighborFn, class F, class Cond>
vertex_subset edge_map_push(const NeighborFn &Neighbors,
                            const vertex_subset &Frontier, const F &f,
                            const Cond &cond) {
  // Visits frontier entries [Lo, Hi), hinting the one kPushPrefetchDistance
  // places ahead.
  auto Visit = [&](size_t Lo, size_t Hi, std::vector<vertex_id> &Out) {
    for (size_t I = Lo; I < Hi; ++I) {
      if (I + kPushPrefetchDistance < Hi)
        prefetch_neighbors(Neighbors, Frontier.Vs[I + kPushPrefetchDistance]);
      vertex_id U = Frontier.Vs[I];
      Neighbors(U, [&](vertex_id V) {
        if (cond(V) && f(U, V))
          Out.push_back(V);
      });
    }
  };
  size_t N = Frontier.size();
  size_t NumChunks =
      par::forks_inline()
          ? 1
          : std::min(N, par::kParallelForOversub *
                            static_cast<size_t>(par::num_workers()));
  vertex_subset Next;
  if (NumChunks <= 1) {
    Visit(0, N, Next.Vs);
    return Next;
  }
  std::vector<std::vector<vertex_id>> Bufs(NumChunks);
  par::parallel_for(
      0, NumChunks,
      [&](size_t C) {
        Visit(N * C / NumChunks, N * (C + 1) / NumChunks, Bufs[C]);
      },
      /*Gran=*/1);
  std::vector<size_t> Offsets(NumChunks + 1, 0);
  for (size_t C = 0; C < NumChunks; ++C)
    Offsets[C + 1] = Offsets[C] + Bufs[C].size();
  Next.Vs.resize(Offsets[NumChunks]);
  par::parallel_for(
      0, NumChunks,
      [&](size_t C) {
        std::copy(Bufs[C].begin(), Bufs[C].end(),
                  Next.Vs.begin() + Offsets[C]);
      },
      /*Gran=*/1);
  return Next;
}

/// Pull round: every vertex V with cond(V) scans its neighbours for
/// frontier members U, calling f(U, V) on each until cond(V) fails, and
/// joins the output (sorted) if any call returned true. Only V's own task
/// calls f(·, V).
template <class NeighborFn, class F, class Cond>
vertex_subset edge_map_pull(const NeighborFn &Neighbors, size_t NumVertices,
                            const vertex_subset &Frontier, const F &f,
                            const Cond &cond) {
  // Bytes, not std::vector<bool>: workers write neighbouring flags.
  std::vector<uint8_t> InFrontier(NumVertices), Hit(NumVertices);
  par::parallel_for(0, Frontier.size(),
                    [&](size_t I) { InFrontier[Frontier.Vs[I]] = 1; });
  par::parallel_for(0, NumVertices, [&](size_t I) {
    if (I + kPullPrefetchDistance < NumVertices)
      prefetch_neighbors(Neighbors,
                         static_cast<vertex_id>(I + kPullPrefetchDistance));
    vertex_id V = static_cast<vertex_id>(I);
    if (!cond(V))
      return;
    bool Done = false;
    Neighbors(V, [&](vertex_id U) {
      if (Done || !InFrontier[U])
        return !Done;
      if (f(U, V))
        Hit[I] = 1;
      Done = !cond(V);
      return !Done;
    });
  });
  vertex_subset Next;
  Next.Vs.resize(NumVertices);
  Next.Vs.resize(par::pack_index(
      NumVertices, [&](size_t I) { return Hit[I] != 0; }, Next.Vs.data()));
  return Next;
}

} // namespace detail

/// Applies f(U, V) over the edges (U, V) with U in \p Frontier and cond(V)
/// over a graph of \p NumVertices vertices; V joins the result when f
/// returns true. Each round pushes from the frontier or pulls into the
/// vertices that pass cond, by kPullFrontierDivisor. In a push round
/// several frontier vertices may call f(·, V) at once, so f must admit V
/// at most once (BFS claims V with a CAS); in a pull round only V's own
/// task calls f(·, V), for one frontier neighbour after another until
/// cond(V) fails.
template <class NeighborFn, class F, class Cond>
vertex_subset edge_map(const NeighborFn &Neighbors, size_t NumVertices,
                       const vertex_subset &Frontier, const F &f,
                       const Cond &cond) {
  if (Frontier.empty())
    return {};
  if (Frontier.size() > NumVertices / kPullFrontierDivisor)
    return detail::edge_map_pull(Neighbors, NumVertices, Frontier, f, cond);
  return detail::edge_map_push(Neighbors, Frontier, f, cond);
}

/// Adapts a flat snapshot (vector of edge trees) to the NeighborFn shape.
/// For edge sets that expose their root node, prefetch(U) starts loading
/// the root of U's set.
template <class EdgeSet> struct snapshot_neighbors {
  const std::vector<EdgeSet> &Snap;
  template <class F> void operator()(vertex_id U, const F &f) const {
    if (U < Snap.size())
      Snap[U].foreach_seq(f);
  }
  void prefetch(vertex_id U) const
    requires requires(const EdgeSet &S) { S.root(); }
  {
    if (U < Snap.size())
      __builtin_prefetch(Snap[U].root());
  }
};

template <class EdgeSet>
snapshot_neighbors<EdgeSet> make_neighbors(const std::vector<EdgeSet> &S) {
  return snapshot_neighbors<EdgeSet>{S};
}

} // namespace cpam

#endif // CPAM_GRAPH_LIGRA_H
