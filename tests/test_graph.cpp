//===- test_graph.cpp - Graph layer and algorithms vs references -----------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <atomic>
#include <deque>
#include <map>
#include <set>
#include <thread>

#include "gtest/gtest.h"

#include "src/api/pam_map.h"
#include "src/baselines/aspen_graph.h"
#include "src/baselines/csr_graph.h"
#include "src/graph/bc.h"
#include "src/graph/bfs.h"
#include "src/graph/graph.h"
#include "src/graph/mis.h"
#include "src/parallel/random.h"

using namespace cpam;

namespace {

using AdjRef = std::map<vertex_id, std::set<vertex_id>>;

AdjRef toRef(const std::vector<edge_pair> &Edges) {
  AdjRef Ref;
  for (auto &[U, V] : Edges)
    Ref[U].insert(V);
  return Ref;
}

/// Sequential reference BFS returning distances.
std::vector<int64_t> refBfs(const AdjRef &Ref, size_t N, vertex_id Src) {
  std::vector<int64_t> Dist(N, -1);
  std::deque<vertex_id> Q{Src};
  Dist[Src] = 0;
  while (!Q.empty()) {
    vertex_id U = Q.front();
    Q.pop_front();
    auto It = Ref.find(U);
    if (It == Ref.end())
      continue;
    for (vertex_id V : It->second)
      if (Dist[V] < 0) {
        Dist[V] = Dist[U] + 1;
        Q.push_back(V);
      }
  }
  return Dist;
}

TEST(SymGraph, BuildMatchesReference) {
  auto Edges = rmat_graph(10, 4000);
  size_t N = 1 << 10;
  sym_graph G = sym_graph::from_edges(Edges, N);
  EXPECT_EQ(G.check_invariants(), "");
  EXPECT_EQ(G.num_edges(), Edges.size());
  AdjRef Ref = toRef(Edges);
  for (auto &[U, Ns] : Ref) {
    ASSERT_EQ(G.degree(U), Ns.size());
    auto ES = G.neighbors(U);
    for (vertex_id V : Ns)
      ASSERT_TRUE(ES.contains(V)) << U << "->" << V;
  }
  // Flat snapshot agrees.
  auto Snap = G.flat_snapshot();
  ASSERT_EQ(Snap.size(), N);
  for (auto &[U, Ns] : Ref)
    ASSERT_EQ(Snap[U].size(), Ns.size());
}

/// Asserts that \p G holds exactly the adjacency \p Ref: the same sorted
/// neighbour list at every vertex of Ref, and (through the edge count) no
/// edges anywhere else.
void expectAdjacency(const sym_graph &G, const AdjRef &Ref, const char *What) {
  ASSERT_EQ(G.check_invariants(), "") << What;
  size_t Edges = 0;
  for (auto &[U, Ns] : Ref) {
    Edges += Ns.size();
    std::vector<vertex_id> Want(Ns.begin(), Ns.end());
    ASSERT_EQ(G.neighbors(U).to_vector(), Want) << What << ": vertex " << U;
  }
  ASSERT_EQ(G.num_edges(), Edges) << What;
}

/// Both directions of every edge in \p Edges.
std::vector<edge_pair> symmetrize(const std::vector<edge_pair> &Edges) {
  std::vector<edge_pair> Out;
  for (auto &[U, V] : Edges) {
    Out.push_back({U, V});
    Out.push_back({V, U});
  }
  return Out;
}

TEST(SymGraph, InsertAndDeleteEdges) {
  auto Edges = rmat_graph(9, 2000);
  size_t N = 1 << 9;
  sym_graph G = sym_graph::from_edges(Edges, N);
  AdjRef Ref = toRef(Edges);
  expectAdjacency(G, Ref, "build");

  // Insert a random batch (symmetrized).
  auto Raw = rmat_edges(9, 500, {0.5, 0.1, 0.1, 99});
  std::vector<edge_pair> Batch;
  for (auto &[U, V] : Raw)
    if (U != V)
      Batch.push_back({U, V});
  Batch = symmetrize(Batch);
  for (auto &[U, V] : Batch)
    Ref[U].insert(V);
  sym_graph G2 = G.insert_edges(Batch);
  expectAdjacency(G2, Ref, "insert");
  // The old snapshot is untouched (multiversioning).
  expectAdjacency(G, toRef(Edges), "snapshot after insert");

  // Delete the same batch.
  sym_graph G3 = G2.delete_edges(Batch);
  AdjRef Ref3 = toRef(Edges);
  for (auto &[U, V] : Batch)
    Ref3[U].erase(V);
  expectAdjacency(G3, Ref3, "delete");
  expectAdjacency(G2, Ref, "snapshot after delete");

  // A batch that empties a vertex: every edge at the highest-degree one.
  vertex_id Hub = 0;
  size_t HubDegree = 0;
  for (auto &[U, Ns] : Ref3)
    if (Ns.size() > HubDegree) {
      Hub = U;
      HubDegree = Ns.size();
    }
  ASSERT_GT(HubDegree, 0u);
  std::vector<edge_pair> HubEdges;
  for (vertex_id V : Ref3[Hub])
    HubEdges.push_back({Hub, V});
  HubEdges = symmetrize(HubEdges);
  for (auto &[U, V] : HubEdges)
    Ref3[U].erase(V);
  sym_graph G4 = G3.delete_edges(HubEdges);
  expectAdjacency(G4, Ref3, "delete every edge of a vertex");
  EXPECT_EQ(G4.degree(Hub), 0u);
  EXPECT_EQ(G4.num_vertices(), N);

  // Duplicate edges in a batch count once, on insert and on delete; the
  // delete also names sources the graph has never had.
  std::vector<edge_pair> Dups;
  for (size_t I = 0; I < 40; ++I) {
    vertex_id U = static_cast<vertex_id>(7 * I % N);
    vertex_id V = static_cast<vertex_id>((13 * I + 5) % N);
    if (U == V)
      continue;
    for (int Copy = 0; Copy < 3; ++Copy)
      Dups.push_back({U, V});
  }
  Dups = symmetrize(Dups);
  for (auto &[U, V] : Dups)
    Ref3[U].insert(V);
  sym_graph G5 = G4.insert_edges(Dups);
  expectAdjacency(G5, Ref3, "insert with duplicate edges");
  std::vector<edge_pair> DelDups(Dups.begin(), Dups.begin() + Dups.size() / 2);
  DelDups.push_back({static_cast<vertex_id>(N + 3), 1});
  DelDups.push_back({static_cast<vertex_id>(N + 3), 1});
  for (auto &[U, V] : DelDups)
    if (auto It = Ref3.find(U); It != Ref3.end())
      It->second.erase(V);
  sym_graph G6 = G5.delete_edges(DelDups);
  expectAdjacency(G6, Ref3, "delete with duplicate and foreign edges");
  EXPECT_EQ(G6.num_vertices(), N);
  EXPECT_EQ(G6.vertices().size(), G5.vertices().size());
}

TEST(SymGraph, DeleteForeignVerticesIsNoop) {
  auto Edges = rmat_graph(8, 500);
  sym_graph G = sym_graph::from_edges(Edges, 1 << 8);
  sym_graph G2 = G.delete_edges({{100000, 5}, {100001, 7}});
  EXPECT_EQ(G2.check_invariants(), "");
  EXPECT_EQ(G2.num_edges(), G.num_edges());
  EXPECT_EQ(G2.num_vertices(), G.num_vertices());
  EXPECT_EQ(G2.vertices().size(), G.vertices().size());
}

/// Both directions of every pair in \p Pairs, sorted and deduplicated: the
/// edge list of an undirected graph.
std::vector<edge_pair> undirected(const std::vector<edge_pair> &Pairs) {
  std::vector<edge_pair> Out = symmetrize(Pairs);
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

/// Asserts that \p Parents is a BFS tree from \p Src: the reached set and
/// every level match refBfs, and every parent edge is in \p Ref.
void expectBfsTree(const AdjRef &Ref, size_t N, vertex_id Src,
                   const std::vector<vertex_id> &Parents) {
  ASSERT_EQ(Parents.size(), N);
  ASSERT_EQ(Parents[Src], Src);
  std::vector<int64_t> Level = refBfs(Ref, N, Src);
  for (size_t V = 0; V < N; ++V) {
    ASSERT_EQ(Parents[V] != kBfsUnvisited, Level[V] >= 0) << "vertex " << V;
    if (Parents[V] == kBfsUnvisited || V == Src)
      continue;
    vertex_id P = Parents[V];
    ASSERT_LT(P, N) << "vertex " << V;
    auto It = Ref.find(P);
    ASSERT_TRUE(It != Ref.end() &&
                It->second.count(static_cast<vertex_id>(V)))
        << "parent edge " << P << "->" << V;
    ASSERT_EQ(Level[V], Level[P] + 1) << "vertex " << V;
  }
}

/// BFS over the flat snapshot of the graph on \p Edges from each source,
/// checked against the reference.
void checkBfs(const std::vector<edge_pair> &Edges, size_t N,
              std::initializer_list<vertex_id> Sources) {
  sym_graph G = sym_graph::from_edges(Edges, N);
  auto Snap = G.flat_snapshot();
  AdjRef Ref = toRef(Edges);
  for (vertex_id Src : Sources) {
    SCOPED_TRACE(testing::Message() << "source " << Src);
    expectBfsTree(Ref, N, Src, bfs(make_neighbors(Snap), N, Src));
  }
}

TEST(Bfs, MatchesReferenceOnRmat) {
  checkBfs(rmat_graph(11, 8000), 1 << 11, {0u, 1u, 37u});
}

TEST(Bfs, StarPullsFromItsLeaves) {
  // From the hub the second frontier holds every leaf, from a leaf the
  // third holds all other leaves: both far above N / kPullFrontierDivisor.
  constexpr size_t N = 200;
  static_assert(N - 2 > N / kPullFrontierDivisor);
  std::vector<edge_pair> Star;
  for (vertex_id V = 1; V < N; ++V)
    Star.push_back({0, V});
  checkBfs(undirected(Star), N, {0u, 17u, 199u});
}

TEST(Bfs, SpiderSwitchesBetweenPushAndPull) {
  // A hub with 40 legs of 3 vertices and one tail of 30. Frontiers along
  // the legs hold 41 vertices (pull); along the tail, one (push). From the
  // hub the rounds go push, pull, pull, pull, push...; from the tail's end,
  // push along the tail and then pull.
  constexpr vertex_id Legs = 40, LegLen = 3, Tail = 30;
  constexpr size_t N = 1 + Legs * LegLen + Tail;
  static_assert(Legs > N / kPullFrontierDivisor &&
                1 <= N / kPullFrontierDivisor);
  std::vector<edge_pair> E;
  vertex_id Next = 1;
  auto Chain = [&](vertex_id Len) { // A path of Len new vertices off 0.
    for (vertex_id I = 0, Prev = 0; I < Len; ++I, Prev = Next++)
      E.push_back({Prev, Next});
  };
  for (vertex_id L = 0; L < Legs; ++L)
    Chain(LegLen);
  Chain(Tail);
  ASSERT_EQ(Next, N);
  checkBfs(undirected(E), N, {0u, 1u, static_cast<vertex_id>(N - 1)});
}

TEST(Bfs, PathPushesOnly) {
  // No frontier on a path holds more than two vertices.
  constexpr size_t N = 100;
  static_assert(2 <= N / kPullFrontierDivisor);
  std::vector<edge_pair> Path;
  for (vertex_id V = 0; V + 1 < N; ++V)
    Path.push_back({V, V + 1});
  checkBfs(undirected(Path), N, {0u, 50u, 99u});
}

TEST(Bfs, ComponentsAndIsolatedVertices) {
  // A star on 0..49 (its leaves pull), a cycle on 50..89, and vertices
  // 90..119 in no edge. Pull rounds scan the other component's vertices
  // too; they must stay unvisited.
  constexpr size_t N = 120;
  std::vector<edge_pair> E;
  for (vertex_id V = 1; V < 50; ++V)
    E.push_back({0, V});
  for (vertex_id V = 50; V < 90; ++V)
    E.push_back({V, V + 1 < 90 ? V + 1 : 50});
  auto Edges = undirected(E);
  AdjRef Ref = toRef(Edges);
  sym_graph G = sym_graph::from_edges(Edges, N);
  auto Snap = G.flat_snapshot();
  for (vertex_id Src : {0u, 7u, 60u, 95u, 119u}) {
    SCOPED_TRACE(testing::Message() << "source " << Src);
    auto Parents = bfs(make_neighbors(Snap), N, Src);
    expectBfsTree(Ref, N, Src, Parents);
    size_t Reached = N - std::count(Parents.begin(), Parents.end(),
                                     kBfsUnvisited);
    EXPECT_EQ(Reached, Src < 50 ? 50u : Src < 90 ? 40u : 1u);
  }
}

TEST(Bfs, SourceAtHighestVertexId) {
  constexpr size_t N = 1 << 10;
  auto E = rmat_graph(10, 6000);
  constexpr vertex_id Last = N - 1;
  for (vertex_id V : {0u, 1u, 2u})
    E.push_back({Last, V});
  checkBfs(undirected(E), N, {Last});
}

TEST(Bfs, RunsOnNonPoolThread) {
  // graph_stream's readers are std::threads outside the pool, where every
  // round runs inline: push into one vector, pull in one loop.
  auto Edges = rmat_graph(12, 30000);
  size_t N = 1 << 12;
  sym_graph G = sym_graph::from_edges(Edges, N);
  auto Snap = G.flat_snapshot();
  vertex_id Src = Edges[0].first;
  std::vector<vertex_id> Parents;
  bool OffPool = false;
  std::thread Reader([&] {
    OffPool = par::forks_inline();
    Parents = bfs(make_neighbors(Snap), N, Src);
  });
  Reader.join();
  EXPECT_TRUE(OffPool);
  expectBfsTree(toRef(Edges), N, Src, Parents);
}

TEST(Bfs, AdapterThatIgnoresFalse) {
  // A NeighborFn that drops the visitor's result scans whole lists; a pull
  // round must still admit each vertex once, through one parent.
  auto Edges = rmat_graph(11, 12000);
  size_t N = 1 << 11;
  sym_graph G = sym_graph::from_edges(Edges, N);
  auto Snap = G.flat_snapshot();
  auto NoStop = [&](vertex_id U, const auto &f) {
    Snap[U].foreach_seq([&](vertex_id V) { f(V); });
  };
  vertex_id Src = Edges[0].first;
  expectBfsTree(toRef(Edges), N, Src, bfs(NoStop, N, Src));
}

TEST(EdgeMap, PushAndPullAdmitTheSameVertices) {
  // One round from frontiers on both sides of N / kPullFrontierDivisor.
  // The output must be every neighbour of the frontier that f admits,
  // exactly once; f admits V through any frontier neighbour, or only
  // through even ones (so a pull scan must go past refused neighbours).
  auto Edges = rmat_graph(11, 16000);
  constexpr size_t N = 1 << 11;
  sym_graph G = sym_graph::from_edges(Edges, N);
  auto Snap = G.flat_snapshot();
  AdjRef Ref = toRef(Edges);
  Rng R(3);
  for (size_t Size : {size_t(1), N / kPullFrontierDivisor,
                      N / kPullFrontierDivisor + 1, N / 2})
    for (bool EvenOnly : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "frontier " << Size << (EvenOnly ? " even-only" : ""));
      std::vector<uint8_t> InFrontier(N, 0);
      vertex_subset Frontier;
      while (Frontier.size() < Size) {
        vertex_id V = static_cast<vertex_id>(R.next(N));
        if (!InFrontier[V]) {
          InFrontier[V] = 1;
          Frontier.Vs.push_back(V);
        }
      }
      std::vector<std::atomic<uint8_t>> Claimed(N);
      for (size_t V = 0; V < N; ++V)
        Claimed[V].store(InFrontier[V]);
      vertex_subset Out = edge_map(
          make_neighbors(Snap), N, Frontier,
          [&](vertex_id U, vertex_id V) {
            uint8_t Expect = 0;
            return (!EvenOnly || U % 2 == 0) &&
                   Claimed[V].compare_exchange_strong(Expect, 1);
          },
          [&](vertex_id V) { return Claimed[V].load() == 0; });
      std::set<vertex_id> Want;
      for (vertex_id U : Frontier.Vs)
        if (auto It = Ref.find(U);
            It != Ref.end() && (!EvenOnly || U % 2 == 0))
          for (vertex_id V : It->second)
            if (!InFrontier[V])
              Want.insert(V);
      std::vector<vertex_id> Got = Out.Vs;
      if (Size > N / kPullFrontierDivisor) {
        EXPECT_TRUE(std::is_sorted(Got.begin(), Got.end()))
            << "a pull round lists its output in vertex order";
      }
      std::sort(Got.begin(), Got.end());
      EXPECT_EQ(Got, std::vector<vertex_id>(Want.begin(), Want.end()));
    }
}

TEST(SnapshotNeighbors, FalseStopsTheScan) {
  // Vertex 0 has 300 neighbours, more than one 2B-entry block.
  std::vector<edge_pair> Star;
  for (vertex_id V = 1; V <= 300; ++V)
    Star.push_back({0, V});
  sym_graph G = sym_graph::from_edges(undirected(Star), 301);
  auto Snap = G.flat_snapshot();
  auto Neighbors = make_neighbors(Snap);
  for (size_t StopAt : {1, 5, 64, 65, 128, 129, 200, 300}) {
    std::vector<vertex_id> Seen;
    Neighbors(0, [&](vertex_id V) {
      Seen.push_back(V);
      return Seen.size() < StopAt;
    });
    ASSERT_EQ(Seen.size(), StopAt);
    for (size_t I = 0; I < StopAt; ++I)
      ASSERT_EQ(Seen[I], I + 1);
  }
  size_t Visited = 0;
  Neighbors(0, [&](vertex_id) { ++Visited; });
  EXPECT_EQ(Visited, 300u);
}

TEST(Bfs, MeshDiameter) {
  auto Edges = mesh_graph(20);
  size_t N = 400;
  sym_graph G = sym_graph::from_edges(Edges, N);
  auto Snap = G.flat_snapshot();
  auto Parents = bfs(make_neighbors(Snap), N, 0);
  AdjRef Ref = toRef(Edges);
  auto Expect = refBfs(Ref, N, 0);
  // Corner-to-corner distance on a 20x20 grid is 38.
  EXPECT_EQ(Expect[399], 38);
  for (size_t V = 0; V < N; ++V)
    ASSERT_NE(Parents[V], kBfsUnvisited);
}

TEST(Mis, IndependentAndMaximal) {
  auto Edges = rmat_graph(10, 6000);
  size_t N = 1 << 10;
  sym_graph G = sym_graph::from_edges(Edges, N);
  auto Snap = G.flat_snapshot();
  auto InMis = mis(make_neighbors(Snap), N);
  AdjRef Ref = toRef(Edges);
  // Independence.
  for (auto &[U, Ns] : Ref) {
    if (InMis[U]) {
      for (vertex_id V : Ns) {
        ASSERT_FALSE(U != V && InMis[V]) << U << " and " << V;
      }
    }
  }
  // Maximality: every non-member has a member neighbor.
  for (size_t V = 0; V < N; ++V) {
    if (InMis[V])
      continue;
    bool HasMemberNeighbor = false;
    if (auto It = Ref.find(static_cast<vertex_id>(V)); It != Ref.end())
      for (vertex_id U : It->second)
        if (U != V && InMis[U])
          HasMemberNeighbor = true;
    ASSERT_TRUE(HasMemberNeighbor) << "vertex " << V << " could join";
  }
}

/// Sequential reference Brandes from one source.
std::vector<double> refBc(const AdjRef &Ref, size_t N, vertex_id Src) {
  std::vector<int64_t> Dist = refBfs(Ref, N, Src);
  std::vector<double> Sigma(N, 0), Delta(N, 0);
  Sigma[Src] = 1;
  std::vector<vertex_id> Order;
  for (size_t V = 0; V < N; ++V)
    if (Dist[V] >= 0)
      Order.push_back(static_cast<vertex_id>(V));
  std::sort(Order.begin(), Order.end(), [&](vertex_id A, vertex_id B) {
    return Dist[A] < Dist[B];
  });
  for (vertex_id V : Order) {
    if (V == Src)
      continue;
    auto It = Ref.find(V);
    if (It == Ref.end())
      continue;
    for (vertex_id U : It->second)
      if (Dist[U] == Dist[V] - 1)
        Sigma[V] += Sigma[U];
  }
  for (auto It = Order.rbegin(); It != Order.rend(); ++It) {
    vertex_id V = *It;
    auto AdjIt = Ref.find(V);
    if (AdjIt == Ref.end())
      continue;
    for (vertex_id U : AdjIt->second)
      if (Dist[U] == Dist[V] - 1)
        Delta[U] += Sigma[U] / Sigma[V] * (1.0 + Delta[V]);
  }
  return Delta;
}

/// bc_from_source over the flat snapshot of the graph on \p Edges from
/// each source, against refBc (relative tolerance: the sums run in a
/// different order).
void checkBc(const std::vector<edge_pair> &Edges, size_t N,
             std::initializer_list<vertex_id> Sources) {
  sym_graph G = sym_graph::from_edges(Edges, N);
  auto Snap = G.flat_snapshot();
  AdjRef Ref = toRef(Edges);
  for (vertex_id Src : Sources) {
    auto Got = bc_from_source(make_neighbors(Snap), N, Src);
    auto Expect = refBc(Ref, N, Src);
    for (size_t V = 0; V < N; ++V)
      ASSERT_NEAR(Got[V], Expect[V], 1e-9 * std::max(1.0, Expect[V]))
          << "src " << Src << " v " << V;
  }
}

TEST(Bc, StarAndRmatPullLevels) {
  // Levels of more than N / kPullFrontierDivisor vertices come from pull
  // rounds: every leaf of the star, the middle levels of the rMAT graph.
  constexpr size_t N = 200;
  std::vector<edge_pair> Star;
  for (vertex_id V = 1; V < N; ++V)
    Star.push_back({0, V});
  checkBc(undirected(Star), N, {0u, 5u});
  checkBc(rmat_graph(11, 12000), 1 << 11, {0u, 1u, 100u});
}

TEST(Bc, MatchesReferenceBrandes) {
  auto Edges = rmat_graph(8, 1500);
  size_t N = 1 << 8;
  sym_graph G = sym_graph::from_edges(Edges, N);
  auto Snap = G.flat_snapshot();
  AdjRef Ref = toRef(Edges);
  for (vertex_id Src : {0u, 3u, 200u}) {
    if (!Ref.count(Src))
      continue;
    auto Got = bc_from_source(make_neighbors(Snap), N, Src);
    auto Expect = refBc(Ref, N, Src);
    for (size_t V = 0; V < N; ++V)
      ASSERT_NEAR(Got[V], Expect[V], 1e-9) << "src " << Src << " v " << V;
  }
}

//===----------------------------------------------------------------------===
// Baselines.
//===----------------------------------------------------------------------===

TEST(CsrGraph, MatchesReference) {
  auto Edges = rmat_graph(10, 5000);
  size_t N = 1 << 10;
  csr_graph G = csr_graph::from_edges(Edges, N);
  EXPECT_EQ(G.num_edges(), Edges.size());
  AdjRef Ref = toRef(Edges);
  for (auto &[U, Ns] : Ref) {
    std::vector<vertex_id> Got;
    G.foreach_neighbor(U, [&](vertex_id V) { Got.push_back(V); });
    std::vector<vertex_id> Expect(Ns.begin(), Ns.end());
    ASSERT_EQ(Got, Expect);
  }
  // BFS over CSR through the shared Ligra layer.
  expectBfsTree(Ref, N, Edges[0].first, bfs(G, N, Edges[0].first));
  // Space: smaller than raw 8-byte edge pairs.
  EXPECT_LT(G.size_in_bytes(), Edges.size() * 8);
}

TEST(CsrGraph, FalseStopsTheScan) {
  auto Edges = rmat_graph(10, 5000);
  csr_graph G = csr_graph::from_edges(Edges, 1 << 10);
  AdjRef Ref = toRef(Edges);
  auto Hub = std::max_element(Ref.begin(), Ref.end(), [](auto &A, auto &B) {
    return A.second.size() < B.second.size();
  });
  std::vector<vertex_id> All(Hub->second.begin(), Hub->second.end());
  for (size_t StopAt : {size_t(1), size_t(3), All.size() / 2, All.size()}) {
    std::vector<vertex_id> Seen;
    G.foreach_neighbor(Hub->first, [&](vertex_id V) {
      Seen.push_back(V);
      return Seen.size() < StopAt;
    });
    ASSERT_EQ(Seen, std::vector<vertex_id>(All.begin(), All.begin() + StopAt));
  }
}

TEST(CTree, BuildForeachContains) {
  auto Keys = random_keys_sorted(5000, 100000, 41);
  std::vector<uint32_t> K32(Keys.begin(), Keys.end());
  ctree_set<16> C = ctree_set<16>::from_sorted(K32);
  EXPECT_EQ(C.size(), K32.size());
  std::vector<uint32_t> Got;
  C.foreach_seq([&](uint32_t K) { Got.push_back(K); });
  EXPECT_EQ(Got, K32);
  std::set<uint32_t> Ref(K32.begin(), K32.end());
  for (uint32_t K = 0; K < 2000; ++K)
    ASSERT_EQ(C.contains(K), Ref.count(K) == 1) << K;
}

TEST(CTree, FalseStopsTheScan) {
  // Every stop point in the first 40 keys (the prefix, heads and the
  // blocks after them) and a few later ones.
  auto Keys = random_keys_sorted(5000, 100000, 41);
  std::vector<uint32_t> K32(Keys.begin(), Keys.end());
  ctree_set<16> C = ctree_set<16>::from_sorted(K32);
  std::vector<size_t> Stops = {2500, 4999, 5000};
  for (size_t S = 1; S <= 40; ++S)
    Stops.push_back(S);
  for (size_t StopAt : Stops) {
    std::vector<uint32_t> Seen;
    C.foreach_seq([&](uint32_t K) {
      Seen.push_back(K);
      return Seen.size() < StopAt;
    });
    ASSERT_EQ(Seen, std::vector<uint32_t>(K32.begin(), K32.begin() + StopAt));
  }
}

TEST(CTree, UnionMatchesStdSet) {
  for (int Trial = 0; Trial < 5; ++Trial) {
    auto A = random_keys_sorted(2000, 50000, 42 + Trial);
    auto B = random_keys_sorted(100 + Trial * 211, 50000, 52 + Trial);
    std::vector<uint32_t> A32(A.begin(), A.end()), B32(B.begin(), B.end());
    ctree_set<8> C = ctree_set<8>::from_sorted(A32);
    ctree_set<8> U = C.union_sorted(B32);
    std::set<uint32_t> Ref(A32.begin(), A32.end());
    Ref.insert(B32.begin(), B32.end());
    ASSERT_EQ(U.size(), Ref.size()) << "trial " << Trial;
    std::vector<uint32_t> Got;
    U.foreach_seq([&](uint32_t K) { Got.push_back(K); });
    std::vector<uint32_t> Expect(Ref.begin(), Ref.end());
    ASSERT_EQ(Got, Expect);
    // Original unchanged (functional).
    ASSERT_EQ(C.size(), A32.size());
  }
}

TEST(AspenGraph, BuildAndInsertMatchesSymGraph) {
  auto Edges = rmat_graph(9, 3000);
  size_t N = 1 << 9;
  aspen_graph A = aspen_graph::from_edges(Edges, N);
  sym_graph G = sym_graph::from_edges(Edges, N);
  EXPECT_EQ(A.num_edges(), G.num_edges());
  auto Raw = rmat_edges(9, 300, {0.5, 0.1, 0.1, 7});
  std::vector<edge_pair> Batch;
  for (auto &[U, V] : Raw)
    if (U != V) {
      Batch.push_back({U, V});
      Batch.push_back({V, U});
    }
  aspen_graph A2 = A.insert_edges(Batch);
  sym_graph G2 = G.insert_edges(Batch);
  EXPECT_EQ(A2.num_edges(), G2.num_edges());
  // BFS over the Aspen snapshot agrees with CPAM's on reachability.
  auto SnapA = A2.flat_snapshot();
  auto SnapG = G2.flat_snapshot();
  auto NA = [&](vertex_id U, auto f) {
    if (U < SnapA.size())
      SnapA[U].foreach_seq(f);
  };
  auto PA = bfs(NA, N, 0);
  auto PG = bfs(make_neighbors(SnapG), N, 0);
  for (size_t V = 0; V < N; ++V)
    ASSERT_EQ(PA[V] == kBfsUnvisited, PG[V] == kBfsUnvisited) << V;
}

TEST(GraphSpace, OrderingAcrossRepresentations) {
  auto Edges = rmat_graph(13, 60000);
  size_t N = 1 << 13;
  csr_graph Csr = csr_graph::from_edges(Edges, N);
  sym_graph Diff = sym_graph::from_edges(Edges, N);
  sym_graph_nodiff NoDiff = sym_graph_nodiff::from_edges(Edges, N);
  aspen_graph Aspen = aspen_graph::from_edges(Edges, N);
  sym_graph_ptree PTree = sym_graph_ptree::from_edges(Edges, N);
  // Fig. 11's ordering: GBBS <= PaC-diff < PaC < Aspen < P-tree.
  EXPECT_LE(Csr.size_in_bytes(), Diff.size_in_bytes());
  EXPECT_LT(Diff.size_in_bytes(), NoDiff.size_in_bytes());
  EXPECT_LT(Diff.size_in_bytes(), Aspen.size_in_bytes());
  EXPECT_LT(Aspen.size_in_bytes(), PTree.size_in_bytes());
}

} // namespace

// The paper notes the representation "also supports weights": edge trees
// become maps from neighbor id to weight (diff-encoded keys, raw weights).
// This exercises the same two-level composition with weighted values.
using wedge_tree = pam_map<vertex_id, float, 64, diff_encoder>;
struct WVertexEntry {
  using key_t = vertex_id;
  using val_t = wedge_tree;
  using entry_t = std::pair<vertex_id, wedge_tree>;
  using aug_t = size_t;
  static constexpr bool has_val = true;
  static const key_t &get_key(const entry_t &E) { return E.first; }
  static const val_t &get_val(const entry_t &E) { return E.second; }
  static val_t &get_val(entry_t &E) { return E.second; }
  static bool comp(key_t A, key_t B) { return A < B; }
  static aug_t aug_empty() { return 0; }
  static aug_t aug_from_entry(const entry_t &E) { return E.second.size(); }
  static aug_t aug_combine(aug_t A, aug_t B) { return A + B; }
};

TEST(WeightedGraph, EdgeTreesAsWeightMaps) {
  using wvertex_tree = aug_map<WVertexEntry, 64>;

  auto Edges = rmat_graph(8, 1000);
  std::map<vertex_id, std::map<vertex_id, float>> Ref;
  std::vector<typename wvertex_tree::entry_t> Entries;
  vertex_id Cur = UINT32_MAX;
  std::vector<std::pair<vertex_id, float>> Ngh;
  auto Flush = [&] {
    if (Cur != UINT32_MAX)
      Entries.push_back({Cur, wedge_tree::from_sorted(std::move(Ngh))});
    Ngh.clear();
  };
  for (auto &[U, V] : Edges) {
    if (U != Cur) {
      Flush();
      Cur = U;
    }
    float W = float(hash64(uint64_t(U) << 32 | V) % 1000) / 10.0f;
    Ngh.push_back({V, W});
    Ref[U][V] = W;
  }
  Flush();
  wvertex_tree G = wvertex_tree::from_sorted(std::move(Entries));
  ASSERT_EQ(G.aug_val(), Edges.size());
  ASSERT_EQ(G.check_invariants(), "");
  for (auto &[U, Ns] : Ref) {
    auto E = G.find_entry(U);
    ASSERT_TRUE(E.has_value());
    ASSERT_EQ(E->second.size(), Ns.size());
    for (auto &[V, W] : Ns)
      ASSERT_EQ(*E->second.find(V), W);
  }
  // Weighted batch update: halve one vertex's weights functionally.
  vertex_id U0 = Ref.begin()->first;
  auto E0 = *G.find_entry(U0);
  wedge_tree Halved =
      E0.second.map_values([](const auto &E) { return E.second / 2; });
  wvertex_tree G2 = G.insert({U0, Halved});
  auto Old = G.find_entry(U0), New = G2.find_entry(U0);
  vertex_id V0 = Ref[U0].begin()->first;
  ASSERT_EQ(*Old->second.find(V0), Ref[U0][V0]);
  ASSERT_EQ(*New->second.find(V0), Ref[U0][V0] / 2);
}
