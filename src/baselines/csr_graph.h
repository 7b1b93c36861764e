//===- csr_graph.h - Static difference-encoded CSR (GBBS baseline) ---------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The GBBS-style static compressed graph baseline of Figs. 1/11: a CSR
/// layout whose sorted adjacency lists are difference/byte encoded. This is
/// the space lower-bound comparator for the tree-based representations (no
/// updates, no snapshots).
///
//===----------------------------------------------------------------------===//

#ifndef CPAM_BASELINES_CSR_GRAPH_H
#define CPAM_BASELINES_CSR_GRAPH_H

#include <vector>

#include "src/encoding/varint.h"
#include "src/parallel/primitives.h"
#include "src/util/datagen.h"
#include "src/util/visit.h"

namespace cpam {

class csr_graph {
public:
  csr_graph() = default;

  /// Builds from a symmetric, sorted, deduplicated edge list.
  static csr_graph from_edges(const std::vector<edge_pair> &Edges,
                              size_t NumVertices) {
    csr_graph G;
    G.NumVertices = NumVertices;
    G.NumEdges = Edges.size();
    // Per-vertex degree and encoded size.
    std::vector<size_t> Deg(NumVertices, 0), Bytes(NumVertices, 0);
    std::vector<size_t> Starts(NumVertices, 0);
    for (size_t I = 0; I < Edges.size(); ++I) { // Edges sorted by src.
      vertex_id U = Edges[I].first;
      if (Deg[U]++ == 0)
        Starts[U] = I;
    }
    par::parallel_for(0, NumVertices, [&](size_t V) {
      size_t B = 0;
      for (size_t I = 0; I < Deg[V]; ++I) {
        vertex_id Ngh = Edges[Starts[V] + I].second;
        uint64_t Delta =
            I == 0 ? Ngh : Ngh - Edges[Starts[V] + I - 1].second;
        B += varint_size(Delta);
      }
      Bytes[V] = B;
    });
    G.Offsets.resize(NumVertices + 1);
    size_t Total =
        par::scan_exclusive(Bytes.data(), NumVertices, G.Offsets.data());
    G.Offsets[NumVertices] = Total;
    G.Degrees.assign(Deg.begin(), Deg.end());
    G.Data.resize(Total);
    par::parallel_for(0, NumVertices, [&](size_t V) {
      uint8_t *Out = G.Data.data() + G.Offsets[V];
      for (size_t I = 0; I < Deg[V]; ++I) {
        vertex_id Ngh = Edges[Starts[V] + I].second;
        uint64_t Delta =
            I == 0 ? Ngh : Ngh - Edges[Starts[V] + I - 1].second;
        Out = varint_encode(Delta, Out);
      }
    });
    return G;
  }

  size_t num_vertices() const { return NumVertices; }
  size_t num_edges() const { return NumEdges; }
  size_t degree(vertex_id V) const { return Degrees[V]; }

  /// Sequential visit of V's sorted neighbors; \p f returns false to stop
  /// early.
  template <class F> void foreach_neighbor(vertex_id V, const F &f) const {
    const uint8_t *In = Data.data() + Offsets[V];
    uint64_t Prev = 0;
    for (size_t I = 0; I < Degrees[V]; ++I) {
      uint64_t Delta;
      In = varint_decode(In, Delta);
      Prev = I == 0 ? Delta : Prev + Delta;
      if (!visit_continue(f, static_cast<vertex_id>(Prev)))
        return;
    }
  }

  /// NeighborFn adapter for the Ligra layer.
  template <class F> void operator()(vertex_id U, const F &f) const {
    foreach_neighbor(U, f);
  }

  size_t size_in_bytes() const {
    return Data.capacity() + Offsets.capacity() * sizeof(uint64_t) +
           Degrees.capacity() * sizeof(uint32_t);
  }

private:
  size_t NumVertices = 0;
  size_t NumEdges = 0;
  std::vector<uint64_t> Offsets;
  std::vector<uint32_t> Degrees;
  std::vector<uint8_t> Data;
};

} // namespace cpam

#endif // CPAM_BASELINES_CSR_GRAPH_H
