//===- graph.h - Purely-functional graph on PaC-trees ----------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The graph representation of Sec. 9: a two-level structure with a
/// top-level *vertex tree* (an augmented PaC-tree from vertex id to edge
/// list, augmented with the total edge count) whose values are *edge trees*
/// (difference-encoded PaC-trees of neighbor ids). Both levels use B = 64
/// as in the paper. Snapshots are O(1); batch updates are parallel unions /
/// differences over both levels; a *flat snapshot* (Sec. 10.5) caches one
/// edge-tree reference per vertex in an array so algorithms skip the vertex
/// tree traversal.
///
//===----------------------------------------------------------------------===//

#ifndef CPAM_GRAPH_GRAPH_H
#define CPAM_GRAPH_GRAPH_H

#include <vector>

#include "src/api/aug_map.h"
#include "src/api/pam_set.h"
#include "src/encoding/diff_encoder.h"
#include "src/util/datagen.h"

namespace cpam {

/// The graph's compile-time configuration: block sizes of the two levels
/// and the edge-tree encoder. Defaults follow the paper (B = 64, difference
/// encoding on edge trees; "PaC-tree (Diff)" also chunks the vertex tree).
template <int VertexB = 64, int EdgeB = 64,
          template <class> class EdgeEnc = diff_encoder>
struct graph_config {
  using edge_set = pam_set<vertex_id, EdgeB, EdgeEnc>;

  struct vertex_entry {
    using key_t = vertex_id;
    using val_t = edge_set;
    using entry_t = std::pair<vertex_id, edge_set>;
    using aug_t = size_t; // Total number of edges below.
    static constexpr bool has_val = true;
    static const key_t &get_key(const entry_t &E) { return E.first; }
    static const val_t &get_val(const entry_t &E) { return E.second; }
    static val_t &get_val(entry_t &E) { return E.second; }
    static bool comp(key_t A, key_t B) { return A < B; }
    static aug_t aug_empty() { return 0; }
    static aug_t aug_from_entry(const entry_t &E) { return E.second.size(); }
    static aug_t aug_combine(aug_t A, aug_t B) { return A + B; }
  };

  using vertex_tree = aug_map<vertex_entry, VertexB>;
};

/// An unweighted symmetric graph as a purely-functional value: copying a
/// sym_graph is an O(1) snapshot that can be read while newer versions are
/// updated (the multiversioning use case of Fig. 14).
template <class Config = graph_config<>> class sym_graph_t {
public:
  using config = Config;
  using edge_set = typename Config::edge_set;
  using vertex_tree = typename Config::vertex_tree;
  using vertex_entry_t = typename vertex_tree::entry_t;

  sym_graph_t() = default;

  /// Builds from a symmetric, sorted, deduplicated (src, dst) edge list.
  /// Every endpoint in [0, NumVertices) gets a (possibly empty) slot in
  /// flat snapshots.
  static sym_graph_t from_edges(const std::vector<edge_pair> &Edges,
                                size_t NumVertices) {
    sym_graph_t G;
    G.NumVertices = NumVertices;
    if (Edges.empty())
      return G;
    // Find per-source ranges.
    std::vector<size_t> Starts(Edges.size());
    size_t NumSrc = par::pack_index(
        Edges.size(),
        [&](size_t I) {
          return I == 0 || Edges[I].first != Edges[I - 1].first;
        },
        Starts.data());
    Starts.resize(NumSrc);
    std::vector<vertex_entry_t> Entries(NumSrc);
    par::parallel_for(
        0, NumSrc,
        [&](size_t S) {
          size_t Lo = Starts[S];
          size_t Hi = S + 1 < NumSrc ? Starts[S + 1] : Edges.size();
          std::vector<vertex_id> Ngh(Hi - Lo);
          for (size_t I = Lo; I < Hi; ++I)
            Ngh[I - Lo] = Edges[I].second;
          Entries[S] = {Edges[Lo].first,
                        edge_set::from_sorted(std::move(Ngh))};
        },
        /*Gran=*/1);
    G.VT = vertex_tree::from_sorted(std::move(Entries));
    return G;
  }

  size_t num_vertices() const { return NumVertices; }
  /// Number of directed edges (each undirected edge counts twice), from the
  /// vertex tree's augmentation — O(1).
  size_t num_edges() const { return VT.aug_val(); }
  /// Structure bytes: vertex tree plus every edge tree.
  size_t size_in_bytes() const {
    size_t Inner = VT.map_reduce(
        [](const vertex_entry_t &E) { return E.second.size_in_bytes(); },
        size_t(0), std::plus<size_t>());
    return VT.size_in_bytes() + Inner;
  }

  size_t degree(vertex_id V) const {
    auto E = VT.find_entry(V);
    return E ? E->second.size() : 0;
  }

  edge_set neighbors(vertex_id V) const {
    auto E = VT.find_entry(V);
    return E ? E->second : edge_set();
  }

  /// A flat snapshot (Sec. 10.5): one O(1) edge-tree snapshot per vertex,
  /// built in parallel by a single traversal of the vertex tree.
  std::vector<edge_set> flat_snapshot() const {
    std::vector<edge_set> Snap(NumVertices);
    VT.foreach_index([&](size_t, const vertex_entry_t &E) {
      Snap[E.first] = E.second;
    });
    return Snap;
  }

  /// Inserts a batch of *directed* edges (duplicates and existing edges are
  /// fine). For undirected updates include both directions in the batch.
  /// Work O(m log(n/m + 1)) for a sorted batch (Thm. 7.1's bound shape).
  sym_graph_t insert_edges(const std::vector<edge_pair> &Batch) const {
    return applyBatch(Batch, /*IsDelete=*/false);
  }

  /// Deletes a batch of directed edges (absent edges are ignored).
  sym_graph_t delete_edges(const std::vector<edge_pair> &Batch) const {
    return applyBatch(Batch, /*IsDelete=*/true);
  }

  std::string check_invariants() const {
    std::string S = VT.check_invariants();
    if (!S.empty())
      return S;
    bool Ok = true;
    VT.foreach_seq([&](const vertex_entry_t &E) {
      if (!E.second.check_invariants().empty())
        Ok = false;
    });
    return Ok ? "" : "edge tree invariant violation";
  }

  const vertex_tree &vertices() const { return VT; }

private:
  /// Shared batch path. The edges are packed as src << 32 | dst keys,
  /// radix-sorted and deduplicated; each source's delta is a slice of one
  /// neighbour array. An insert unions the delta into the vertex tree (new
  /// sources join it); a delete applies it with the keep-left update, so
  /// sources the graph lacks drop out of the same pass and cost no lookup.
  sym_graph_t applyBatch(const std::vector<edge_pair> &Batch,
                         bool IsDelete) const {
    sym_graph_t Out;
    Out.NumVertices = NumVertices;
    if (Batch.empty()) {
      Out.VT = VT;
      return Out;
    }
    std::vector<uint64_t> Keys(Batch.size());
    par::parallel_for(0, Batch.size(), [&](size_t I) {
      Keys[I] = uint64_t(Batch[I].first) << 32 | Batch[I].second;
    });
    par::sort(Keys);
    size_t M = par::unique(Keys.data(), Keys.size());
    auto Src = [&](size_t I) { return static_cast<vertex_id>(Keys[I] >> 32); };
    std::vector<size_t> Starts(M);
    size_t NumSrc = par::pack_index(
        M, [&](size_t I) { return I == 0 || Src(I) != Src(I - 1); },
        Starts.data());
    std::vector<vertex_id> Ngh(M);
    par::parallel_for(0, M, [&](size_t I) {
      Ngh[I] = static_cast<vertex_id>(Keys[I]);
    });
    std::vector<vertex_entry_t> Delta(NumSrc);
    par::parallel_for(
        0, NumSrc,
        [&](size_t S) {
          size_t Lo = Starts[S];
          size_t Hi = S + 1 < NumSrc ? Starts[S + 1] : M;
          auto *E = edge_set::ops::from_array_move(Ngh.data() + Lo, Hi - Lo);
          Delta[S] = {Src(Lo), edge_set::take_root(E)};
        },
        /*Gran=*/1);
    vertex_tree DeltaT = vertex_tree::from_sorted(std::move(Delta));
    // The merges consume the delta: its blocks and edge sets are freed
    // while they are hot instead of in a second pass afterwards.
    if (IsDelete) {
      Out.VT = vertex_tree::map_update(
          VT, std::move(DeltaT), [](const edge_set &Old, const edge_set &Del) {
            return edge_set::map_difference(Old, Del);
          });
      return Out;
    }
    Out.VT = vertex_tree::map_union(
        vertex_tree(VT), std::move(DeltaT),
        [](const edge_set &Old, const edge_set &New) {
          return edge_set::map_union(Old, New);
        });
    // Batches may reference vertices beyond the current bound.
    size_t MaxV = static_cast<size_t>(Src(M - 1)) + 1;
    if (MaxV > Out.NumVertices)
      Out.NumVertices = MaxV;
    return Out;
  }

  vertex_tree VT;
  size_t NumVertices = 0;
};

/// The paper's default graph configuration.
using sym_graph = sym_graph_t<graph_config<>>;
/// P-tree (PAM) baseline: no blocking, no compression at either level.
using sym_graph_ptree = sym_graph_t<graph_config<0, 0, raw_encoder>>;
/// PaC-tree without difference encoding (Fig. 11's "PaC-tree" bar).
using sym_graph_nodiff = sym_graph_t<graph_config<64, 64, raw_encoder>>;

} // namespace cpam

#endif // CPAM_GRAPH_GRAPH_H
