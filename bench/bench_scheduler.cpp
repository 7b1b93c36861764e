//===- bench_scheduler.cpp - Scheduler microbenchmarks ---------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The parallel runtime's recorded trajectory (BENCH_PR4.json):
//
//  - fork_overhead: a tight loop of parDo(nop, nop) — the push + reclaim
//    cycle that every fork in the tree algorithms pays. fork_baseline_seq
//    is the same loop with forking disabled, so (fork_overhead -
//    fork_baseline_seq) / n is the net cost of one fork-join.
//  - parallel_for_gran1 / parallel_for_default: fork saturation (one fork
//    per element) and the default-grain loop; with >1 workers gran1 doubles
//    as the steal-throughput row (see the sched_* counter rows).
//  - build/union/flatten at the tree layer's fork grain (par_gran, 2048),
//    B=128: the tree operations end to end on the scheduler.
//  - sched_* rows: scheduler telemetry counters accumulated over the run
//    (ops = count, seconds = 0), recorded so steal/park behavior lands in
//    the artifact next to the timings.
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <vector>

#include "bench/bench_common.h"
#include "src/api/pam_map.h"
#include "src/util/timer.h"

using namespace cpam;
using namespace cpam::bench;

namespace {

/// Median of \p Reps timed runs with an untimed prepare step and one
/// untimed warmup (same discipline as perf_smoke).
template <class Prep, class Body>
double medianPrepared(int Reps, const Prep &Prepare, const Body &Run) {
  Prepare();
  Run();
  std::vector<double> Ts(static_cast<size_t>(Reps));
  for (int I = 0; I < Reps; ++I) {
    Prepare();
    Timer T;
    Run();
    Ts[static_cast<size_t>(I)] = T.elapsed();
  }
  std::sort(Ts.begin(), Ts.end());
  return Ts[Ts.size() / 2];
}

void runForkOverhead(size_t N, JsonReport &Report) {
  // Volatile sinks keep the compiler from collapsing the loop bodies; the
  // scheduler calls are opaque (separate TU) anyway.
  volatile uint64_t SinkA = 0, SinkB = 0;
  auto Loop = [&] {
    for (size_t I = 0; I < N; ++I)
      par::par_do([&] { SinkA = SinkA + 1; }, [&] { SinkB = SinkB + 1; });
  };

  double TPar = medianPrepared(g_reps, [] {}, Loop);
  Report.add("fork_overhead", -1, N, TPar);
  print_time_row("fork_overhead", TPar, TPar);

  par::set_sequential(true);
  double TSeq = medianPrepared(g_reps, [] {}, Loop);
  par::set_sequential(false);
  Report.add("fork_baseline_seq", -1, N, TSeq);
  print_time_row("fork_baseline_seq", TSeq, TSeq);

  std::printf("   net fork-join cost: %.1f ns/fork\n",
              (TPar - TSeq) / N * 1e9);
}

void runParallelFor(size_t N, JsonReport &Report) {
  std::vector<uint8_t> Out(N);
  double TGran1 = medianPrepared(
      g_reps, [] {},
      [&] {
        par::parallel_for(
            0, N, [&](size_t I) { Out[I] = static_cast<uint8_t>(I); },
            /*Gran=*/1);
      });
  Report.add("parallel_for_gran1", -1, N, TGran1);
  print_time_row("parallel_for_gran1", TGran1, TGran1);

  double TDef = medianPrepared(
      g_reps, [] {},
      [&] {
        par::parallel_for(
            0, N, [&](size_t I) { Out[I] = static_cast<uint8_t>(I + 1); });
      });
  Report.add("parallel_for_default", -1, N, TDef);
  print_time_row("parallel_for_default", TDef, TDef);
}

/// Tree operations at the fork grain, B=128, raw encoding. Row names carry
/// the grain (_g2048) so they line up with the recorded trajectory.
void runTreeOps(size_t N, JsonReport &Report) {
  using Map = pam_map<uint64_t, uint64_t, 128>;
  using Entry = typename Map::entry_t;
  using ops = typename Map::ops;
  constexpr size_t Grain = ops::par_gran();

  std::vector<Entry> Sorted(N), SortedOdd(N);
  for (size_t I = 0; I < N; ++I) {
    Sorted[I] = {2 * I, I};
    SortedOdd[I] = {2 * I + 1, I};
  }
  // Warm the pool with a full build/destroy cycle first so the timed runs
  // measure against recycled (address-sorted) storage, not fresh-slab
  // carving.
  { Map Warm = Map::from_sorted(Sorted); }
  Map Evens = Map::from_sorted(Sorted);
  Map Odds = Map::from_sorted(SortedOdd);

  char Name[64];
  Map Out;
  std::vector<Entry> Scratch;

  double TBuild = medianPrepared(
      g_reps,
      [&] {
        Out = Map();
        Scratch = Sorted;
      },
      [&] { Out = Map::from_sorted(std::move(Scratch)); });
  std::snprintf(Name, sizeof(Name), "build_sorted_g%zu", Grain);
  Report.add(Name, 128, N, TBuild);
  print_time_row(Name, TBuild, TBuild);

  double TUnion = medianPrepared(
      g_reps, [&] { Out = Map(); },
      [&] { Out = Map::map_union(Evens, Odds); });
  std::snprintf(Name, sizeof(Name), "union_equal_g%zu", Grain);
  Report.add(Name, 128, 2 * N, TUnion);
  print_time_row(Name, TUnion, TUnion);
  Out = Map();

  // Flatten at the ops layer into a preallocated buffer: the timed region
  // is the parallel tree walk alone, no vector allocation / page faults.
  {
    std::vector<Entry> Stage = Sorted;
    typename ops::node_t *T = ops::from_array_move(Stage.data(), N);
    std::vector<Entry> Buf(N);
    double TFlatten = medianPrepared(
        g_reps, [] {}, [&] { ops::to_array(T, Buf.data()); });
    ops::dec(T);
    std::snprintf(Name, sizeof(Name), "flatten_g%zu", Grain);
    Report.add(Name, 128, N, TFlatten);
    print_time_row(Name, TFlatten, TFlatten);
  }
}

void dumpTelemetry(JsonReport &Report) {
  par::SchedulerStats S = par::scheduler_stats();
  std::printf("\n-- scheduler telemetry (whole run) --\n");
  std::printf("forks=%llu inline_reclaims=%llu steals=%llu "
              "failed_steals=%llu parks=%llu wakes=%llu\n",
              (unsigned long long)S.Forks, (unsigned long long)S.InlineReclaims,
              (unsigned long long)S.Steals, (unsigned long long)S.FailedSteals,
              (unsigned long long)S.Parks, (unsigned long long)S.Wakes);
  Report.add("sched_forks", -1, S.Forks, 0.0);
  Report.add("sched_steals", -1, S.Steals, 0.0);
  Report.add("sched_failed_steals", -1, S.FailedSteals, 0.0);
  Report.add("sched_parks", -1, S.Parks, 0.0);

#if CPAM_POOL_ALLOC
  std::printf("\n-- pool allocator per-class telemetry (nonzero classes) --\n");
  auto P = pool_allocator::stats();
  for (size_t C = 0; C < pool_allocator::kNumClasses; ++C) {
    if (P[C].Allocs == 0)
      continue;
    std::printf("  class %2zu (%6zu B): allocs=%llu frees=%llu live=%lld "
                "refills=%llu drains=%llu carves=%llu\n",
                C, P[C].BlockBytes, (unsigned long long)P[C].Allocs,
                (unsigned long long)P[C].Frees,
                (long long)(P[C].Allocs - P[C].Frees),
                (unsigned long long)P[C].RefillBatches,
                (unsigned long long)P[C].DrainBatches,
                (unsigned long long)P[C].SlabCarves);
  }
#endif
}

} // namespace

int main(int argc, char **argv) {
  size_t N = arg_size(argc, argv, "n", 1000000);
  g_reps = std::max(1, static_cast<int>(arg_size(argc, argv, "reps", 3)));
  std::string JsonPath = arg_str(argc, argv, "json");

  print_header("scheduler: fork-join overhead, stealing, tree ops");
  std::printf("n=%zu reps=%d\n", N, g_reps);

  JsonReport Report("bench_scheduler", N, g_reps);
  par::scheduler_stats_reset();

  // Fork machinery in isolation.
  runForkOverhead(std::max<size_t>(N, 100000), Report);
  runParallelFor(4 * N, Report);

  runTreeOps(N, Report);

  dumpTelemetry(Report);
  Report.write(JsonPath);
  return 0;
}
