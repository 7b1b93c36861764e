//===- graph_stream.cpp - Sliding-window edge stream with BFS readers ------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// A sym_graph on rMAT (logn = 16) holding a sliding window of 320k
// distinct undirected edges. The main thread submits updates from a
// pre-generated stream of distinct edges into an ingest_pipeline (Block
// policy, BatchWindow 4096); update k inserts edge k + W and deletes edge
// k, both directions, and the stream wraps around its end. Each round
// submits a fixed number of updates and flushes. Two reader threads loop
// acquire -> flat_snapshot -> BFS throughout. The window keeps the graph,
// and so each BFS, the same size however fast ingest runs. The writer and
// readers are not scheduler workers, so the fork-join pool stays idle.
//
// Checks: after every round the published graph's edge count and edge
// fingerprint must equal the window's, computed in set-up; every eighth
// read's BFS parent tree is checked against its snapshot.
//
//===----------------------------------------------------------------------===//

#include <atomic>
#include <functional>
#include <memory>
#include <thread>

#include "perfbench/src/common.h"
#include "perfbench/src/probes.h"
#include "perfbench/src/trace.h"
#include "src/graph/bfs.h"
#include "src/graph/graph.h"
#include "src/obs/metrics.h"
#include "src/parallel/primitives.h"
#include "src/parallel/random.h"
#include "src/serving/version_chain.h"

namespace perfbench {
namespace {

using cpam::edge_pair;
using cpam::sym_graph;
using cpam::vertex_id;
using edge_set = sym_graph::edge_set;
using VOps = sym_graph::vertex_tree::ops;

constexpr int kLogN = 16;
constexpr size_t kNumV = size_t(1) << kLogN;
constexpr size_t kWindow = 320000;      ///< Undirected edges in the graph.
constexpr size_t kStream = 3 * kWindow; ///< Distinct edges the stream cycles.
constexpr size_t kBatchWindow = 4096;
constexpr size_t kRoundUpdates = 4 * kBatchWindow;
constexpr size_t kReaders = 2;
constexpr size_t kMinReads = 200;
constexpr size_t kCheckEvery = 8; ///< Reads per structural BFS check.
constexpr size_t kEdgeB = 64;     ///< Edge-tree block size.
constexpr size_t kSplitKeys = 64;

struct update {
  edge_pair Ins, Del;
};

uint64_t edge_print(vertex_id U, vertex_id V) { return entry_print(U, V); }

/// Both directions of an undirected edge.
uint64_t undirected_print(const edge_pair &E) {
  return edge_print(E.first, E.second) + edge_print(E.second, E.first);
}

uint64_t fingerprint(const sym_graph &G) {
  return G.vertices().map_reduce(
      [](const sym_graph::vertex_entry_t &E) {
        vertex_id U = E.first;
        return E.second.map_reduce(
            [U](vertex_id V) { return edge_print(U, V); }, uint64_t(0),
            std::plus<uint64_t>());
      },
      uint64_t(0), std::plus<uint64_t>());
}

/// True if \p Parents is a BFS tree of \p Snap rooted at \p Src: parent
/// edges exist, parent chains reach the root, and every edge joins two
/// vertices that are both unreached or whose levels differ by at most 1.
bool check_bfs(const std::vector<edge_set> &Snap,
               const std::vector<vertex_id> &Parents, vertex_id Src) {
  constexpr uint32_t kUnset = ~uint32_t(0);
  if (Parents[Src] != Src)
    return false;
  std::vector<uint32_t> Level(kNumV, kUnset);
  Level[Src] = 0;
  std::vector<vertex_id> Chain;
  for (vertex_id V = 0; V < kNumV; ++V) {
    if (Parents[V] == cpam::kBfsUnvisited || Level[V] != kUnset)
      continue;
    Chain.clear();
    vertex_id X = V;
    while (Level[X] == kUnset) {
      vertex_id P = Parents[X];
      if (P == cpam::kBfsUnvisited || P >= kNumV || Chain.size() > kNumV ||
          !Snap[P].contains(X))
        return false;
      Chain.push_back(X);
      X = P;
    }
    for (size_t I = Chain.size(); I-- > 0;)
      Level[Chain[I]] = Level[I + 1 < Chain.size() ? Chain[I + 1] : X] + 1;
  }
  for (vertex_id U = 0; U < kNumV; ++U) {
    bool Ok = true;
    Snap[U].foreach_seq([&](vertex_id W) {
      uint32_t A = Level[U], B = Level[W];
      if ((A == kUnset) != (B == kUnset) ||
          (A != kUnset && (A > B + 1 || B > A + 1)))
        Ok = false;
      return Ok;
    });
    if (!Ok)
      return false;
  }
  return true;
}

struct state {
  sym_graph G0;
  std::vector<edge_pair> Stream; ///< Distinct undirected edges, U < V.
  std::vector<uint64_t> Prefix;  ///< Prefix sums of undirected_print.
  std::vector<vertex_id> EncodeSample;
  std::vector<vertex_id> SplitKeys;

  /// Fingerprint of the window that starts at stream position \p S.
  uint64_t window_print(size_t S) const {
    size_t E = S + kWindow;
    if (E <= kStream)
      return Prefix[E] - Prefix[S];
    return Prefix[kStream] - Prefix[S] + Prefix[E - kStream];
  }
  update update_at(uint64_t K) const {
    const edge_pair &D = Stream[K % kStream];
    const edge_pair &I = Stream[(K + kWindow) % kStream];
    return {I, D};
  }
  size_t retained_bytes() const {
    return Stream.capacity() * sizeof(edge_pair) + Prefix.capacity() * 8 +
           (EncodeSample.capacity() + SplitKeys.capacity()) * 4;
  }
  size_t reported_bytes() const { return G0.size_in_bytes(); }
};

std::vector<edge_pair> symmetric(const edge_pair *E, size_t N) {
  std::vector<edge_pair> Out;
  Out.reserve(2 * N);
  for (size_t I = 0; I < N; ++I) {
    Out.push_back(E[I]);
    Out.push_back({E[I].second, E[I].first});
  }
  return Out;
}

std::unique_ptr<state> make_state(uint64_t Seed) {
  auto St = std::make_unique<state>();
  cpam::Rng Root(cpam::hash64(Seed ^ 0x9a4));
  std::vector<edge_pair> All;
  cpam::RmatParams P;
  for (uint64_t Draw = 0; All.size() < kStream; ++Draw) {
    P.Seed = Root.ith(Draw);
    for (auto [U, V] : cpam::rmat_edges(kLogN, kStream, P))
      if (U != V)
        All.push_back({std::min(U, V), std::max(U, V)});
    cpam::par::sort(All);
    All.resize(cpam::par::unique(All.data(), All.size()));
  }
  cpam::Rng RS = Root.fork(1);
  for (size_t I = All.size(); I > 1; --I)
    std::swap(All[I - 1], All[RS.next(I)]);
  All.resize(kStream);
  St->Stream = std::move(All);
  St->Prefix.assign(kStream + 1, 0);
  for (size_t I = 0; I < kStream; ++I)
    St->Prefix[I + 1] = St->Prefix[I] + undirected_print(St->Stream[I]);

  std::vector<edge_pair> Sym = symmetric(St->Stream.data(), kWindow);
  cpam::par::sort(Sym);
  // Encoder sample: full B-entry runs of one source's sorted neighbours.
  for (size_t I = 0; I + kEdgeB <= Sym.size();) {
    size_t J = I;
    while (J < Sym.size() && Sym[J].first == Sym[I].first)
      ++J;
    for (; I + kEdgeB <= J; I += kEdgeB)
      for (size_t K = I; K < I + kEdgeB; ++K)
        St->EncodeSample.push_back(Sym[K].second);
    I = J;
  }
  St->G0 = sym_graph::from_edges(Sym, kNumV);
  cpam::Rng RP = Root.fork(2);
  for (size_t I = 0; I < kSplitKeys; ++I)
    St->SplitKeys.push_back(Sym[RP.next(Sym.size())].first);
  return St;
}

/// Per-reader outputs, merged after the readers are joined.
struct reader_log {
  std::vector<double> LatMs;     ///< Reads begun while tracing was off.
  std::vector<double> TracedMs;  ///< Reads begun while tracing was on.
  std::vector<double> AcquireNs, FlatMs, BfsMs;
  uint64_t Checks = 0, BadChecks = 0;
};

} // namespace

int run_graph_stream(const options &Opt, result &Res) {
  std::vector<double> SetupS;
  double RssPerByte = 0;
  std::unique_ptr<state> St =
      set_up([&] { return make_state(Opt.Seed); }, SetupS, RssPerByte);
  Res.config("input.vertices", static_cast<double>(kNumV));
  Res.config("input.window_edges", static_cast<double>(kWindow));
  Res.config("input.stream_edges", static_cast<double>(kStream));
  Res.config("input.bytes", static_cast<double>(St->G0.size_in_bytes()));

  cpam::obs::reset_all();
  // Writer-side time per round, written by the pipeline's writer inside
  // Apply and read by the main thread after flush(), which orders the two.
  uint64_t ApplyNs = 0, InsertNs = 0, DeleteNs = 0;
  std::atomic<uint64_t> RoundSpan{0}; // Parent of the writer's spans.
  using pipeline_t = cpam::serving::ingest_pipeline<sym_graph, update>;
  cpam::serving::version_chain<sym_graph> Chain(St->G0);
  pipeline_t::options PO;
  PO.BatchWindow = kBatchWindow;
  PO.Policy = cpam::serving::overload_policy::Block;
  pipeline_t Pipe(
      Chain,
      [&](const sym_graph &G, std::vector<update> Batch) {
        bool Tr = trace::enabled();
        uint64_t T0 = Tr ? now_ns() : 0;
        span A(layer::bench, "apply", RoundSpan.load());
        std::vector<edge_pair> Ins, Del;
        Ins.reserve(2 * Batch.size());
        Del.reserve(2 * Batch.size());
        for (const update &U : Batch) {
          Ins.push_back(U.Ins);
          Ins.push_back({U.Ins.second, U.Ins.first});
          Del.push_back(U.Del);
          Del.push_back({U.Del.second, U.Del.first});
        }
        uint64_t T1 = Tr ? now_ns() : 0;
        sym_graph Mid;
        {
          span S(layer::graph, "insert_edges");
          Mid = G.insert_edges(std::move(Ins));
        }
        uint64_t T2 = Tr ? now_ns() : 0;
        sym_graph Next;
        {
          span S(layer::graph, "delete_edges");
          Next = Mid.delete_edges(std::move(Del));
        }
        if (Tr) {
          uint64_t T3 = now_ns();
          InsertNs += T2 - T1;
          DeleteNs += T3 - T2;
          ApplyNs += T3 - T0;
        }
        return Next;
      },
      PO);

  std::atomic<bool> Stop{false};
  std::atomic<size_t> ReadsDone{0};
  std::vector<reader_log> Logs(kReaders);
  std::vector<std::thread> Readers;
  for (size_t R = 0; R < kReaders; ++R)
    Readers.emplace_back([&, R] {
      reader_log &L = Logs[R];
      cpam::Rng Src(cpam::hash64(Opt.Seed ^ (R + 11)));
      for (uint64_t N = 0; !Stop.load(std::memory_order_relaxed); ++N) {
        bool Tr = trace::enabled();
        uint64_t T0 = now_ns();
        std::vector<edge_set> Flat;
        std::vector<vertex_id> Parents;
        vertex_id S;
        uint64_t T1, T2;
        {
          span Read(layer::bench, "read");
          sym_graph Snap;
          {
            span A(layer::serving, "acquire");
            Snap = Chain.acquire();
          }
          T1 = now_ns();
          {
            span F(layer::graph, "flat_snapshot");
            Flat = Snap.flat_snapshot();
          }
          T2 = now_ns();
          // Sources off the giant component make trivial searches; fall
          // back to the rMAT hub so every read does comparable work.
          S = static_cast<vertex_id>(Src.next(kNumV));
          if (Flat[S].empty())
            S = 0;
          span B(layer::graph, "bfs");
          Parents = cpam::bfs(cpam::make_neighbors(Flat), kNumV, S);
        }
        uint64_t T3 = now_ns();
        (Tr ? L.TracedMs : L.LatMs)
            .push_back(static_cast<double>(T3 - T0) * 1e-6);
        ReadsDone.fetch_add(1, std::memory_order_relaxed);
        if (Tr) {
          L.AcquireNs.push_back(static_cast<double>(T1 - T0));
          L.FlatMs.push_back(static_cast<double>(T2 - T1) * 1e-6);
          L.BfsMs.push_back(static_cast<double>(T3 - T2) * 1e-6);
          // Acquire-only probe burst, outside the timed read.
          for (int I = 0; I < 16; ++I) {
            uint64_t A0 = now_ns();
            sym_graph Snap = Chain.acquire();
            L.AcquireNs.push_back(static_cast<double>(now_ns() - A0));
          }
        }
        if (N % kCheckEvery == 0) {
          ++L.Checks;
          if (!check_bfs(Flat, Parents, S))
            ++L.BadChecks;
        }
      }
    });

  std::vector<double> Rates, TracedRates;
  samples Layer;
  size_t Traced = 0;
  uint64_t Next = 0; // Stream position of the next update.
  size_t Rounds = run_rounds(Opt, Opt.Trace ? 4 : 3, [&](size_t R) {
    bool IsTraced = traced_round(Opt, R);
    std::string Before = IsTraced ? cpam::obs::export_json() : "";
    pipeline_t::stats_t S0 = Pipe.stats();
    ApplyNs = InsertNs = DeleteNs = 0;
    trace::set_enabled(IsTraced);
    uint64_t T0 = now_ns();
    {
      span Round(layer::bench, "round");
      RoundSpan.store(Round.id());
      {
        span S(layer::serving, "submit");
        for (size_t I = 0; I < kRoundUpdates; ++I) {
          Res.attempt();
          if (!Pipe.submit(St->update_at(Next++)))
            Res.fail();
        }
      }
      span F(layer::serving, "flush");
      Pipe.flush();
    }
    double Secs = static_cast<double>(now_ns() - T0) * 1e-9;
    pipeline_t::stats_t S1 = Pipe.stats();
    std::string After = IsTraced ? cpam::obs::export_json() : "";
    double Rate = 4.0 * static_cast<double>(kRoundUpdates) / Secs;

    // Checked on this thread alone, so the idle pool stays parked while
    // the readers and the writer run.
    sym_graph G = Chain.acquire();
    cpam::par::set_sequential(true);
    bool Ok = G.num_edges() == 2 * kWindow &&
              fingerprint(G) == St->window_print(Next % kStream);
    cpam::par::set_sequential(false);
    Res.attempt();
    if (!Ok)
      Res.fail();
    if (!IsTraced) {
      Rates.push_back(Rate);
      return;
    }
    Res.obs_round(std::move(Before), std::move(After));
    ++Traced;
    TracedRates.push_back(Rate);
    double Batches = static_cast<double>(S1.Batches - S0.Batches);
    Layer.add("serving.batches", Batches);
    Layer.add("serving.batch_mean",
              static_cast<double>(S1.Applied - S0.Applied) / Batches);
    Layer.add("serving.full_waits",
              static_cast<double>(S1.FullWaits - S0.FullWaits));
    Layer.add("serving.writer_busy_frac",
              static_cast<double>(ApplyNs) * 1e-9 / Secs);
    Layer.add("graph.insert_edges_ms", static_cast<double>(InsertNs) * 1e-6);
    Layer.add("graph.delete_edges_ms", static_cast<double>(DeleteNs) * 1e-6);

    std::vector<edge_pair> Batch;
    for (size_t I = 0; I < kBatchWindow; ++I) {
      update U = St->update_at(Next + I);
      Batch.push_back(U.Ins);
      Batch.push_back({U.Ins.second, U.Ins.first});
    }
    uint64_t P0 = now_ns();
    {
      span S(layer::parallel, "sort");
      cpam::par::sort(Batch);
    }
    Layer.add("parallel.sort_ms", static_cast<double>(now_ns() - P0) * 1e-6);
    split_join_probe<VOps>(G.vertices().root(), St->SplitKeys, Layer);
    Res.attempt();
    if (!encoding_probe<edge_set::ops::encoder>(St->EncodeSample, kEdgeB,
                                                Layer))
      Res.fail();
    fork_probe(Layer);
    alloc_probe(G.size_in_bytes() / std::max<size_t>(1, G.num_edges() / kEdgeB),
                Layer);
    trace::set_enabled(false);
  });
  // Keep reading until the read sample is large enough.
  for (uint64_t T0 = now_ns();
       ReadsDone.load() < kMinReads && now_ns() - T0 < 30'000'000'000ull;)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  double RssMb = static_cast<double>(rss_bytes()) / (1 << 20);
  Stop.store(true);
  for (std::thread &T : Readers)
    T.join();
  Pipe.stop();
  Res.obs_final(cpam::obs::export_json());

  reader_log All;
  for (reader_log &L : Logs) {
    auto Append = [](std::vector<double> &To, const std::vector<double> &V) {
      To.insert(To.end(), V.begin(), V.end());
    };
    Append(All.LatMs, L.LatMs);
    Append(All.TracedMs, L.TracedMs);
    Append(All.AcquireNs, L.AcquireNs);
    Append(All.FlatMs, L.FlatMs);
    Append(All.BfsMs, L.BfsMs);
    All.Checks += L.Checks;
    All.BadChecks += L.BadChecks;
  }
  Res.attempt(All.Checks);
  Res.fail(All.BadChecks);
  size_t NumReads = All.LatMs.size() + All.TracedMs.size();
  Res.attempt();
  if (NumReads < kMinReads)
    Res.fail();
  Res.config("rounds", static_cast<double>(Rounds));
  Res.config("rounds_traced", static_cast<double>(Traced));
  Res.config("reads", static_cast<double>(NumReads));
  Res.config("reads_checked", static_cast<double>(All.Checks));
  Res.config("threads.readers", kReaders);

  const sym_graph Final = Chain.acquire();
  double Rate = median(Rates);
  Res.series("setup_s", SetupS);
  Res.series("rate", Rates);
  Res.series("read_ms", All.LatMs);
  Res.e2e("setup_s", median(SetupS));
  Res.e2e("throughput_kps", Rate * 1e-3);
  Res.e2e("latency_p50_ms", quantile(All.LatMs, 0.50));
  Res.e2e("latency_p95_ms", quantile(All.LatMs, 0.95));
  Res.e2e("bytes_per_entry", static_cast<double>(Final.size_in_bytes()) /
                                 static_cast<double>(Final.num_edges()));
  Res.e2e("rss_mb", RssMb);
  if (Opt.Trace) {
    Layer.add("serving.acquire_p50_ns", quantile(All.AcquireNs, 0.50));
    Layer.add("serving.acquire_p99_ns", quantile(All.AcquireNs, 0.99));
    Layer.add("graph.flat_snapshot_ms", median(All.FlatMs));
    Layer.add("graph.bfs_ms", median(All.BfsMs));
    Layer.add("core.nodes_per_kentry",
              1000.0 * static_cast<double>(Final.vertices().node_count()) /
                  static_cast<double>(Final.vertices().size()));
    finish_traced(Res, Layer, Traced, RssPerByte, median(TracedRates), Rate);
  }
  return 0;
}

} // namespace perfbench
