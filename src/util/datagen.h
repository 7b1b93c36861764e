//===- datagen.h - Deterministic synthetic dataset generators -------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Synthetic workload generators standing in for the paper's proprietary or
/// oversized datasets (SNAP graphs, the Wikipedia corpus): rMAT power-law
/// graphs (Sec. 10.5 uses a=0.5, b=c=0.1, d=0.3), 2D mesh ("road-like")
/// graphs, uniform random intervals and points. All are deterministic in
/// the seed. README's "Datasets" section lists what each one replaces.
///
//===----------------------------------------------------------------------===//

#ifndef CPAM_UTIL_DATAGEN_H
#define CPAM_UTIL_DATAGEN_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace cpam {

using vertex_id = uint32_t;
using edge_pair = std::pair<vertex_id, vertex_id>;

/// Parameters of the recursive matrix (rMAT) generator [Chakrabarti et al.].
struct RmatParams {
  double A = 0.5, B = 0.1, C = 0.1; // D = 1 - A - B - C.
  uint64_t Seed = 42;
};

/// Generates \p NumEdges directed rMAT edges over 2^LogN vertices. May
/// contain duplicates and self loops, as in the paper's update streams.
std::vector<edge_pair> rmat_edges(int LogN, size_t NumEdges,
                                  RmatParams P = RmatParams());

/// Generates a symmetrized, deduplicated rMAT edge list (both directions
/// present, no self loops), sorted by (src, dst).
std::vector<edge_pair> rmat_graph(int LogN, size_t NumDirectedEdges,
                                  RmatParams P = RmatParams());

/// Generates a 2D grid/mesh graph with Side*Side vertices (sorted symmetric
/// edge list). Sparse with high index locality — the USA-Road stand-in.
std::vector<edge_pair> mesh_graph(size_t Side);

/// An interval [Left, Right] on the integer line with Left <= Right.
struct Interval {
  uint64_t Left;
  uint64_t Right;
};

/// N random intervals with endpoints in [0, Universe) and length at most
/// MaxLen.
std::vector<Interval> random_intervals(size_t N, uint64_t Universe,
                                       uint64_t MaxLen, uint64_t Seed = 1);

/// N uniformly random 2D points in [0, Universe)^2 with distinct
/// x-coordinates (x-coordinates are a random permutation-like sample).
std::vector<std::pair<uint64_t, uint64_t>>
random_points(size_t N, uint64_t Universe, uint64_t Seed = 2);

/// N distinct uniformly random 64-bit keys in [0, Universe), sorted.
std::vector<uint64_t> random_keys_sorted(size_t N, uint64_t Universe,
                                         uint64_t Seed = 3);

/// N uniformly random 64-bit keys in [0, Universe), unsorted, possibly
/// duplicated.
std::vector<uint64_t> random_keys(size_t N, uint64_t Universe,
                                  uint64_t Seed = 4);

} // namespace cpam

#endif // CPAM_UTIL_DATAGEN_H
