//===- fig14_concurrent.cpp - Fig. 14: concurrent updates and queries -------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Regenerates Fig. 14: BFS queries running concurrently with small-batch
// edge insertions (batch = 5 undirected rMAT edges, i.e. up to 10 directed
// edges after self-loop filtering), exploiting snapshots: the updater
// publishes new graph versions through serving::version_chain (atomic root
// swap + epoch-reclaimed retirement — see src/serving/version_chain.h)
// while readers query an O(1) snapshot. Expected shape: concurrent queries
// are moderately slower than solo (paper: 1.85x); updates barely change
// (paper: 1.07x).
//
// Methodology (fixed in PR 8): the solo and concurrent phases run the SAME
// query count from the SAME starting version — each phase gets a fresh
// chain seeded with the initial graph, and the concurrent updater runs
// open-ended until the readers finish, so the ratios compare identical
// work on identical inputs. Update throughput is computed from the edges
// actually inserted (self-loops are filtered from the rMAT draws), not a
// nominal batch size. Both phases run the updater on its own std::thread,
// outside the scheduler pool, so the update ratio compares one execution
// mode.
//
//===----------------------------------------------------------------------===//

#include <atomic>
#include <thread>

#include "bench/bench_common.h"
#include "src/graph/bfs.h"
#include "src/graph/graph.h"
#include "src/parallel/random.h"
#include "src/serving/version_chain.h"

using namespace cpam;
using namespace cpam::bench;

namespace {

using graph_chain = serving::version_chain<sym_graph>;

double runQueries(const graph_chain &Chain, size_t NumQueries, size_t NumV) {
  Timer T;
  for (size_t Q = 0; Q < NumQueries; ++Q) {
    sym_graph Snap = Chain.acquire();
    auto S = Snap.flat_snapshot();
    auto Parents = bfs(make_neighbors(S), NumV, 0);
    volatile size_t Sink = Parents.size();
    (void)Sink;
  }
  return T.elapsed() / NumQueries;
}

struct UpdateStats {
  size_t Batches = 0;
  size_t DirectedEdges = 0; // Edges actually inserted (self-loops dropped).
  double Seconds = 0;
  double perBatch() const { return Batches ? Seconds / Batches : 0; }
  double edgesPerSec() const {
    return Seconds > 0 ? DirectedEdges / Seconds : 0;
  }
};

/// Draws 5 undirected rMAT edges per batch, filters self-loops, inserts
/// both directions, publishes one version per batch. Runs until \p
/// NumBatches batches are done or \p StopFlag (when non-null) is set.
/// (Both phases run it on a plain thread — a foreign thread to the
/// scheduler pool, exercising its sequential degradation path — matching
/// the paper's tiny 5-edge batches.)
UpdateStats runUpdates(graph_chain &Chain, size_t NumBatches, int LogN,
                       const std::atomic<bool> *StopFlag) {
  RmatParams P;
  P.Seed = 1234;
  UpdateStats Stats;
  sym_graph Tip = Chain.acquire();
  Timer T;
  for (size_t I = 0; I < NumBatches; ++I) {
    if (StopFlag && StopFlag->load(std::memory_order_relaxed))
      break;
    auto Upd = rmat_edges(LogN, 5, P);
    std::vector<edge_pair> Batch;
    for (auto &[U, V] : Upd)
      if (U != V) {
        Batch.push_back({U, V});
        Batch.push_back({V, U});
      }
    P.Seed = hash64(P.Seed);
    Stats.DirectedEdges += Batch.size();
    Tip = Tip.insert_edges(std::move(Batch));
    Chain.publish(Tip);
    ++Stats.Batches;
  }
  Stats.Seconds = T.elapsed();
  return Stats;
}

} // namespace

int main(int argc, char **argv) {
  int LogN = static_cast<int>(arg_size(argc, argv, "logn", 16));
  size_t NumQueries = arg_size(argc, argv, "queries", 20);
  size_t NumBatches = arg_size(argc, argv, "batches", 2000);
  print_header("Fig. 14: concurrent updates and BFS queries");

  size_t NumV = size_t(1) << LogN;
  auto Edges = rmat_graph(LogN, NumV * 18 / 2);
  sym_graph G0 = sym_graph::from_edges(Edges, NumV);
  std::printf("graph: n=%zu m=%zu\n", NumV, Edges.size());

  // Solo phases, each on a fresh chain seeded with G0.
  double QuerySolo;
  {
    graph_chain Chain(G0);
    QuerySolo = runQueries(Chain, NumQueries, NumV);
  }
  // The solo updater runs on a std::thread too, as the concurrent one
  // does, so the update ratio compares one execution mode.
  UpdateStats UpdSolo;
  {
    graph_chain Chain(G0);
    std::thread Updater(
        [&] { UpdSolo = runUpdates(Chain, NumBatches, LogN, nullptr); });
    Updater.join();
  }

  // Concurrent phase: same starting version G0, same query count as the
  // solo phase; the updater publishes continuously until the readers
  // finish (so every query contends with live ingest end to end).
  double QueryConc;
  UpdateStats UpdConc;
  {
    graph_chain Chain(G0);
    std::atomic<bool> Stop{false};
    std::thread Updater([&] {
      UpdConc = runUpdates(Chain, ~size_t(0), LogN, &Stop);
    });
    QueryConc = runQueries(Chain, NumQueries, NumV);
    Stop.store(true, std::memory_order_relaxed);
    Updater.join();
    Chain.reclaim();
  }

  double UpdateSolo = UpdSolo.perBatch();
  double UpdateConc = UpdConc.perBatch();
  std::printf("BFS query   solo=%8.4fs  concurrent=%8.4fs  (%.2fx)  "
              "[%zu queries each, same start version]\n",
              QuerySolo, QueryConc, QueryConc / QuerySolo, NumQueries);
  std::printf("update      solo=%8.6fs  concurrent=%8.6fs  (%.2fx) per "
              "batch (avg %.1f directed edges/batch)\n",
              UpdateSolo, UpdateConc,
              UpdateSolo > 0 ? UpdateConc / UpdateSolo : 0.0,
              UpdConc.Batches
                  ? double(UpdConc.DirectedEdges) / UpdConc.Batches
                  : 0.0);
  std::printf("update throughput (concurrent): %.0f directed edges/s over "
              "%zu batches, latency %.0f us/batch\n",
              UpdConc.edgesPerSec(), UpdConc.Batches, UpdateConc * 1e6);
  return 0;
}
