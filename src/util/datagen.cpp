//===- datagen.cpp - Deterministic synthetic dataset generators -----------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "src/util/datagen.h"

#include <algorithm>
#include <cassert>

#include "src/parallel/primitives.h"
#include "src/parallel/random.h"
#include "src/parallel/scheduler.h"

using namespace cpam;

std::vector<edge_pair> cpam::rmat_edges(int LogN, size_t NumEdges,
                                        RmatParams P) {
  // Edge I descends LogN levels of the recursive matrix; level L draws
  // X = Rng(hash64(Seed ^ hash64(I))).ith_double(L). hash64(L) is the same
  // for every edge, so it is tabulated once.
  std::vector<uint64_t> LevelHash(LogN);
  for (int L = 0; L < LogN; ++L)
    LevelHash[L] = hash64(static_cast<uint64_t>(L));
  const double AB = P.A + P.B, ABC = P.A + P.B + P.C;
  std::vector<edge_pair> E(NumEdges);
  par::parallel_for(0, NumEdges, [&](size_t I) {
    uint64_t Stream = hash64(P.Seed ^ hash64(I));
    vertex_id Src = 0, Dst = 0;
    for (int L = 0; L < LogN; ++L) {
      double X = static_cast<double>(hash64(Stream ^ LevelHash[L]) >> 11) *
                 0x1.0p-53;
      // Quadrants A, B, C, D in order set no bit, dst, src, both.
      bool PastA = X >= P.A, PastB = X >= AB, PastC = X >= ABC;
      Src = Src << 1 | vertex_id(PastB);
      Dst = Dst << 1 | vertex_id(PastA ^ PastB ^ PastC);
    }
    E[I] = {Src, Dst};
  });
  return E;
}

std::vector<edge_pair> cpam::rmat_graph(int LogN, size_t NumDirectedEdges,
                                        RmatParams P) {
  std::vector<edge_pair> Raw = rmat_edges(LogN, NumDirectedEdges, P);
  std::vector<edge_pair> Sym(2 * Raw.size());
  par::parallel_for(0, Raw.size(), [&](size_t I) {
    Sym[2 * I] = Raw[I];
    Sym[2 * I + 1] = {Raw[I].second, Raw[I].first};
  });
  par::sort(Sym);
  // Drop self loops and duplicates.
  std::vector<edge_pair> Out(Sym.size());
  size_t K = par::pack(
      Sym.data(),
      [&](size_t I) {
        if (Sym[I].first == Sym[I].second)
          return false;
        return I == 0 || Sym[I] != Sym[I - 1];
      },
      Sym.size(), Out.data());
  Out.resize(K);
  return Out;
}

std::vector<edge_pair> cpam::mesh_graph(size_t Side) {
  assert(Side >= 2 && "mesh graphs need at least a 2x2 grid");
  // Each interior vertex connects to its right and down neighbours; the
  // symmetric closure is emitted directly so the list is already sorted.
  std::vector<edge_pair> Out;
  Out.reserve(4 * Side * Side);
  for (size_t R = 0; R < Side; ++R) {
    for (size_t C = 0; C < Side; ++C) {
      vertex_id V = static_cast<vertex_id>(R * Side + C);
      if (C + 1 < Side) {
        Out.push_back({V, V + 1});
      }
      if (C > 0)
        Out.push_back({V, V - 1});
      if (R > 0)
        Out.push_back({V, static_cast<vertex_id>(V - Side)});
      if (R + 1 < Side)
        Out.push_back({V, static_cast<vertex_id>(V + Side)});
    }
  }
  // Neighbour lists per vertex are emitted out of order; sort to normalize.
  par::sort(Out);
  return Out;
}

std::vector<Interval> cpam::random_intervals(size_t N, uint64_t Universe,
                                             uint64_t MaxLen, uint64_t Seed) {
  assert(MaxLen >= 1 && Universe > MaxLen && "degenerate interval universe");
  std::vector<Interval> Out(N);
  Rng R(Seed);
  par::parallel_for(0, N, [&](size_t I) {
    uint64_t L = R.ith(2 * I, Universe - MaxLen);
    uint64_t Len = 1 + R.ith(2 * I + 1, MaxLen);
    Out[I] = {L, L + Len};
  });
  return Out;
}

std::vector<std::pair<uint64_t, uint64_t>>
cpam::random_points(size_t N, uint64_t Universe, uint64_t Seed) {
  std::vector<std::pair<uint64_t, uint64_t>> Out(N);
  Rng R(Seed);
  par::parallel_for(0, N, [&](size_t I) {
    Out[I] = {R.ith(2 * I, Universe), R.ith(2 * I + 1, Universe)};
  });
  return Out;
}

std::vector<uint64_t> cpam::random_keys_sorted(size_t N, uint64_t Universe,
                                               uint64_t Seed) {
  std::vector<uint64_t> Keys = random_keys(N + N / 8 + 16, Universe, Seed);
  par::sort(Keys);
  size_t K = par::unique(Keys.data(), Keys.size());
  Keys.resize(std::min(K, N));
  return Keys;
}

std::vector<uint64_t> cpam::random_keys(size_t N, uint64_t Universe,
                                        uint64_t Seed) {
  std::vector<uint64_t> Out(N);
  Rng R(Seed);
  par::parallel_for(0, N, [&](size_t I) { Out[I] = R.ith(I, Universe); });
  return Out;
}
