//===- bench_serving.cpp - Read-while-ingest serving benchmark -------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The repo's end-to-end serving number: an open-loop read-while-ingest
// driver over serving::versioned_graph. A producer thread streams rMAT
// edges into the bounded ingest queue as fast as backpressure allows; the
// pipeline's single writer applies them in batches (one multi-level graph
// union per publish) and publishes versions through the version chain;
// R reader threads continuously (a) acquire an O(1) snapshot — measuring
// snapshot-acquire latency — and (b) run a full BFS on the snapshot —
// measuring query latency under live ingest.
//
// Reported per reader count (default sweep 1/4/16): acquire p50/p99, BFS
// p50/p99, sustained ingest throughput (directed edges/s), versions
// published/reclaimed. Readers are foreign threads to the scheduler pool,
// so their BFS runs on the scheduler's sequential degradation path. The
// pipeline's writer thread hands each batch (union, publish, reclaim) to a
// pool worker through par::run_on_pool, so the batch unions fork.
// Emits cpam-perf-v1 JSON (--json=...); BENCH_PR8.json records the
// reference run.
//
// Flags: --logn=14 --secs=2 --readers=R (0 = sweep 1/4/16) --batch=4096
//        --queue=65536 --aspen=1 (also run the aspen_graph baseline row)
//        --json=path
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/baselines/aspen_graph.h"
#include "src/graph/bfs.h"
#include "src/graph/graph.h"
#include "src/obs/metrics.h"
#include "src/parallel/random.h"
#include "src/serving/version_chain.h"
#include "src/util/failpoint.h"

using namespace cpam;
using namespace cpam::bench;

namespace {

double percentile(std::vector<double> &V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t I = static_cast<size_t>(P * (V.size() - 1) + 0.5);
  return V[std::min(I, V.size() - 1)];
}

struct EpisodeResult {
  size_t Readers = 0;
  size_t AcquireSamples = 0, BfsSamples = 0;
  double AcquireP50 = 0, AcquireP99 = 0; // Seconds.
  double BfsP50 = 0, BfsP99 = 0;         // Seconds.
  double IngestEdgesPerSec = 0;
  uint64_t IngestEdges = 0, Versions = 0, Reclaimed = 0, Pins = 0;
  // Epoch-manager and pipeline telemetry for the JSON count rows.
  uint64_t Conflicts = 0, Advances = 0, RetiredBacklog = 0;
  uint64_t Submitted = 0, Batches = 0, FullWaits = 0;
};

/// One read-while-ingest episode over graph type G at \p Readers reader
/// threads for \p Secs seconds.
template <class G>
EpisodeResult runEpisode(const G &G0, size_t NumV, int LogN, size_t Readers,
                         double Secs, size_t BatchWindow, size_t QueueCap) {
  // Fresh telemetry window per episode (quiescent here: no pipeline or
  // readers yet), so the exported metrics describe the last episode alone.
  obs::reset_all();
  typename serving::versioned_graph<G>::options O;
  O.BatchWindow = BatchWindow;
  O.QueueCapacity = QueueCap;
  serving::versioned_graph<G> VG(G0, O);

  std::atomic<bool> Stop{false};

  // Open-loop producer: streams rMAT edges; the bounded queue's
  // backpressure is the only throttle, so applied/sec is the sustained
  // ingest capacity under this read load.
  std::thread Producer([&] {
    RmatParams P;
    P.Seed = 99;
    while (!Stop.load(std::memory_order_relaxed)) {
      auto Upd = rmat_edges(LogN, 256, P);
      P.Seed = hash64(P.Seed);
      for (auto &[U, V] : Upd) {
        if (U == V)
          continue;
        if (!VG.submit_edge(U, V) || !VG.submit_edge(V, U))
          return; // Pipeline stopping.
      }
    }
  });

  std::vector<std::vector<double>> AcqSamples(Readers), BfsSamples(Readers);
  std::vector<std::thread> ReaderThreads;
  ReaderThreads.reserve(Readers);
  for (size_t R = 0; R < Readers; ++R) {
    ReaderThreads.emplace_back([&, R] {
      Rng Rnd(hash64(R + 1));
      uint64_t Draw = 0;
      while (!Stop.load(std::memory_order_relaxed)) {
        // A burst of acquire-only snapshots samples the pointer-swap +
        // epoch-pin path densely; then one full BFS on the newest
        // snapshot samples end-to-end query latency.
        for (int I = 0; I < 16; ++I) {
          Timer T;
          G Snap = VG.snapshot();
          AcqSamples[R].push_back(T.elapsed());
          volatile size_t Sink = Snap.num_vertices();
          (void)Sink;
        }
        Timer T;
        G Snap = VG.snapshot();
        auto S = Snap.flat_snapshot();
        auto Parents =
            bfs(make_neighbors(S), NumV, Rnd.ith(Draw++) % NumV);
        BfsSamples[R].push_back(T.elapsed());
        volatile size_t Sink = Parents.size();
        (void)Sink;
      }
    });
  }

  Timer Phase;
  while (Phase.elapsed() < Secs)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  Stop.store(true, std::memory_order_relaxed);
  for (auto &T : ReaderThreads)
    T.join();
  double Elapsed = Phase.elapsed();
  auto Ingest = VG.ingest_stats();
  VG.stop(); // Unblocks the producer if it is parked on a full queue.
  Producer.join();

  EpisodeResult Res;
  Res.Readers = Readers;
  std::vector<double> AllAcq, AllBfs;
  for (size_t R = 0; R < Readers; ++R) {
    AllAcq.insert(AllAcq.end(), AcqSamples[R].begin(), AcqSamples[R].end());
    AllBfs.insert(AllBfs.end(), BfsSamples[R].begin(), BfsSamples[R].end());
  }
  Res.AcquireSamples = AllAcq.size();
  Res.BfsSamples = AllBfs.size();
  Res.AcquireP50 = percentile(AllAcq, 0.50);
  Res.AcquireP99 = percentile(AllAcq, 0.99);
  Res.BfsP50 = percentile(AllBfs, 0.50);
  Res.BfsP99 = percentile(AllBfs, 0.99);
  Res.IngestEdges = Ingest.Applied;
  Res.IngestEdgesPerSec = Elapsed > 0 ? Ingest.Applied / Elapsed : 0;
  Res.Versions = VG.chain().seq();
  Res.Reclaimed = VG.chain().reclaimed_total();
  auto Epochs = VG.chain().epochs().stats();
  Res.Pins = Epochs.Pins;
  Res.Conflicts = Epochs.SlotConflicts;
  // current() starts at 1; everything above is writer advances (publishes).
  Res.Advances = VG.chain().epochs().current() - 1;
  // Writer joined by stop(), so the writer-private backlog is readable:
  // versions retired but still pinned down when the episode ended.
  Res.RetiredBacklog = VG.chain().retired_count();
  Res.Submitted = Ingest.Submitted;
  Res.Batches = Ingest.Batches;
  Res.FullWaits = Ingest.FullWaits;
  return Res;
}

void printResult(const char *Tag, const EpisodeResult &R) {
  std::printf("%-6s r=%-3zu acquire p50=%7.2fus p99=%7.2fus (%zu samples)  "
              "bfs p50=%7.2fms p99=%7.2fms (%zu)  ingest=%9.0f edges/s  "
              "versions=%llu reclaimed=%llu\n",
              Tag, R.Readers, R.AcquireP50 * 1e6, R.AcquireP99 * 1e6,
              R.AcquireSamples, R.BfsP50 * 1e3, R.BfsP99 * 1e3, R.BfsSamples,
              R.IngestEdgesPerSec,
              static_cast<unsigned long long>(R.Versions),
              static_cast<unsigned long long>(R.Reclaimed));
  std::printf("       epochs: pins=%llu conflicts=%llu advances=%llu "
              "backlog=%llu  queue: submitted=%llu batches=%llu "
              "full_waits=%llu\n",
              static_cast<unsigned long long>(R.Pins),
              static_cast<unsigned long long>(R.Conflicts),
              static_cast<unsigned long long>(R.Advances),
              static_cast<unsigned long long>(R.RetiredBacklog),
              static_cast<unsigned long long>(R.Submitted),
              static_cast<unsigned long long>(R.Batches),
              static_cast<unsigned long long>(R.FullWaits));
}

void addRows(JsonReport &Json, const char *Tag, const EpisodeResult &R) {
  char Name[128];
  auto Row = [&](const char *Metric, size_t Ops, double Seconds) {
    std::snprintf(Name, sizeof(Name), "%s_%s_r%zu", Tag, Metric, R.Readers);
    Json.add(Name, -1, Ops, Seconds);
  };
  Row("acquire_p50", R.AcquireSamples, R.AcquireP50);
  Row("acquire_p99", R.AcquireSamples, R.AcquireP99);
  Row("bfs_p50", R.BfsSamples, R.BfsP50);
  Row("bfs_p99", R.BfsSamples, R.BfsP99);
  // ops/seconds here make mops the ingest rate in million edges/s.
  Row("ingest", R.IngestEdges,
      R.IngestEdgesPerSec > 0 ? R.IngestEdges / R.IngestEdgesPerSec : 0);
  auto Count = [&](const char *Metric, uint64_t V) {
    std::snprintf(Name, sizeof(Name), "%s_%s_r%zu", Tag, Metric, R.Readers);
    Json.add_count(Name, V);
  };
  Count("versions", R.Versions);
  Count("reclaimed", R.Reclaimed);
  Count("epoch_pins", R.Pins);
  Count("epoch_conflicts", R.Conflicts);
  Count("epoch_advances", R.Advances);
  Count("retired_backlog", R.RetiredBacklog);
  Count("ingest_submitted", R.Submitted);
  Count("ingest_batches", R.Batches);
  Count("ingest_full_waits", R.FullWaits);
}

//===----------------------------------------------------------------------===//
// Overload episodes: open-loop ingest past queue capacity per shed policy.
//===----------------------------------------------------------------------===//

struct OverloadResult {
  const char *Tag = "";
  uint64_t Submitted = 0, Applied = 0, Rejected = 0, Shed = 0;
  uint64_t DeadlineTimeouts = 0, FullWaits = 0;
  size_t AcquireSamples = 0;
  double AcquireP50 = 0, AcquireP99 = 0; // Seconds.
  uint64_t RetiredBacklogHw = 0;
};

/// One overload episode: the "serving.slow_apply" failpoint wedges every
/// batch (2ms dwell) so an open-loop producer outruns the writer and the
/// queue saturates; the episode then measures what each overload policy
/// does to producers (reject/shed/deadline counters) and to readers
/// (snapshot-acquire latency while the queue is pinned at capacity).
/// Unlike the parity rows above, this row is *meant* to run armed — it is
/// the robustness benchmark, and it arms/disarms its own failpoint.
OverloadResult runOverloadEpisode(const sym_graph &G0, const char *Tag,
                                  serving::overload_policy Policy,
                                  bool UseDeadline, double Secs) {
  obs::reset_all();
  fail::arm("serving.slow_apply", "always/arg=2");
  serving::versioned_graph<sym_graph>::options O;
  O.QueueCapacity = 4096;
  O.BatchWindow = 1024;
  O.Policy = Policy;
  serving::versioned_graph<sym_graph> VG(G0, O);

  std::atomic<bool> Stop{false};
  std::thread Producer([&] {
    RmatParams P;
    P.Seed = 7;
    while (!Stop.load(std::memory_order_relaxed)) {
      auto Upd = rmat_edges(14, 256, P);
      P.Seed = hash64(P.Seed);
      for (auto &[U, V] : Upd) {
        if (U == V)
          continue;
        bool Ok = UseDeadline
                      ? VG.pipeline().submit_for(
                            edge_pair{U, V}, std::chrono::milliseconds(1))
                      : VG.pipeline().submit(edge_pair{U, V});
        // Refusals are the point of this episode; only a stopping
        // pipeline ends the loop early.
        (void)Ok;
        if (Stop.load(std::memory_order_relaxed))
          return;
      }
    }
  });

  std::vector<double> Acq;
  std::thread Reader([&] {
    while (!Stop.load(std::memory_order_relaxed)) {
      Timer T;
      sym_graph Snap = VG.snapshot();
      Acq.push_back(T.elapsed());
      volatile size_t Sink = Snap.num_vertices();
      (void)Sink;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  Timer Phase;
  while (Phase.elapsed() < Secs)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  Stop.store(true, std::memory_order_relaxed);
  Reader.join();
  VG.stop(); // Wakes a producer parked on a full queue (Block policy).
  Producer.join();
  auto St = VG.ingest_stats();
  fail::disarm("serving.slow_apply");

  OverloadResult R;
  R.Tag = Tag;
  R.Submitted = St.Submitted;
  R.Applied = St.Applied;
  R.Rejected = St.Rejected;
  R.Shed = St.Shed;
  R.DeadlineTimeouts = St.DeadlineTimeouts;
  R.FullWaits = St.FullWaits;
  R.AcquireSamples = Acq.size();
  R.AcquireP50 = percentile(Acq, 0.50);
  R.AcquireP99 = percentile(Acq, 0.99);
  R.RetiredBacklogHw = VG.chain().retired_high_water();
  return R;
}

void printOverload(const OverloadResult &R) {
  std::printf("overload %-8s submitted=%8llu applied=%8llu rejected=%8llu "
              "shed=%8llu deadline_to=%6llu full_waits=%6llu  "
              "acquire p50=%7.2fus p99=%7.2fus (%zu)\n",
              R.Tag, static_cast<unsigned long long>(R.Submitted),
              static_cast<unsigned long long>(R.Applied),
              static_cast<unsigned long long>(R.Rejected),
              static_cast<unsigned long long>(R.Shed),
              static_cast<unsigned long long>(R.DeadlineTimeouts),
              static_cast<unsigned long long>(R.FullWaits),
              R.AcquireP50 * 1e6, R.AcquireP99 * 1e6, R.AcquireSamples);
}

void addOverloadRows(JsonReport &Json, const OverloadResult &R) {
  char Name[128];
  auto Count = [&](const char *Metric, uint64_t V) {
    std::snprintf(Name, sizeof(Name), "overload_%s_%s", R.Tag, Metric);
    Json.add_count(Name, V);
  };
  Count("submitted", R.Submitted);
  Count("applied", R.Applied);
  Count("rejected", R.Rejected);
  Count("shed", R.Shed);
  Count("deadline_timeouts", R.DeadlineTimeouts);
  Count("full_waits", R.FullWaits);
  Count("retired_backlog_hw", R.RetiredBacklogHw);
  std::snprintf(Name, sizeof(Name), "overload_%s_acquire_p99", R.Tag);
  Json.add(Name, -1, R.AcquireSamples, R.AcquireP99);
  std::snprintf(Name, sizeof(Name), "overload_%s_acquire_p50", R.Tag);
  Json.add(Name, -1, R.AcquireSamples, R.AcquireP50);
}

} // namespace

int main(int argc, char **argv) {
  int LogN = static_cast<int>(arg_size(argc, argv, "logn", 14));
  double Secs = arg_size(argc, argv, "secs", 2);
  size_t ReadersArg = arg_size(argc, argv, "readers", 0);
  size_t BatchWindow = arg_size(argc, argv, "batch", 4096);
  size_t QueueCap = arg_size(argc, argv, "queue", 65536);
  bool RunAspen = arg_size(argc, argv, "aspen", 1) != 0;
  std::string JsonPath = arg_str(argc, argv, "json");
  print_header("Serving: open-loop BFS readers vs live batch ingest");

  size_t NumV = size_t(1) << LogN;
  auto Edges = rmat_graph(LogN, NumV * 10 / 2);
  sym_graph G0 = sym_graph::from_edges(Edges, NumV);
  std::printf("graph: n=%zu m=%zu  batch_window=%zu queue=%zu secs=%.1f\n",
              NumV, Edges.size(), BatchWindow, QueueCap, Secs);

  char Extra[160];
  std::snprintf(Extra, sizeof(Extra),
                "\"logn\": %d, \"secs\": %.2f, \"batch_window\": %zu, "
                "\"queue\": %zu",
                LogN, Secs, BatchWindow, QueueCap);
  JsonReport Json("bench_serving", NumV, /*Reps=*/1, Extra);

  std::vector<size_t> ReaderCounts =
      ReadersArg ? std::vector<size_t>{ReadersArg}
                 : std::vector<size_t>{1, 4, 16};
  for (size_t R : ReaderCounts) {
    EpisodeResult Res =
        runEpisode(G0, NumV, LogN, R, Secs, BatchWindow, QueueCap);
    printResult("cpam", Res);
    addRows(Json, "cpam", Res);
  }

  if (RunAspen) {
    aspen_graph A0 = aspen_graph::from_edges(Edges, NumV);
    size_t R = ReadersArg ? ReadersArg : 4;
    EpisodeResult Res =
        runEpisode(A0, NumV, LogN, R, Secs, BatchWindow, QueueCap);
    printResult("aspen", Res);
    addRows(Json, "aspen", Res);
  }

  // Overload rows: queue saturated on purpose (writer wedged by the
  // slow-apply failpoint) — one row per producer-side overload strategy.
  if (arg_size(argc, argv, "overload", 1) != 0) {
    double OSecs = std::min(Secs, 1.0);
    struct {
      const char *Tag;
      serving::overload_policy Policy;
      bool Deadline;
    } Rows[] = {
        {"block", serving::overload_policy::Block, false},
        {"deadline", serving::overload_policy::Block, true},
        {"reject", serving::overload_policy::RejectNewest, false},
        {"shed", serving::overload_policy::ShedOldest, false},
    };
    for (const auto &Row : Rows) {
      OverloadResult R =
          runOverloadEpisode(G0, Row.Tag, Row.Policy, Row.Deadline, OSecs);
      printOverload(R);
      addOverloadRows(Json, R);
    }
  }

  // Registry snapshot (serving histograms/gauge, scheduler + pool sources)
  // for the last episode — each episode starts with obs::reset_all().
  Json.add_section("metrics", obs::export_json());
  Json.write(JsonPath);
  return 0;
}
