//===- perf_smoke.cpp - JSON-emitting performance smoke runner -------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The repo's recorded performance trajectory: a small, fixed workload over
// the four node-churn-heavy core operations — build from sorted input,
// union of two equal-size maps, multi_insert of a 10% batch, and point
// lookups — each at B=0 (the PAM baseline) and B=128 (the paper's default
// block size), plus flat-by-flat union/intersect/difference over leaf-sized
// operands (flat_<op> rows). The flat rows run at B in {8, 128} for the
// raw, difference and gamma encodings; the union rows produce multi-leaf
// (~3B-entry) results, exercising the chunked leaf pipeline. One more read
// row, find_cold, looks up random keys in a 2^23-entry difference-encoded
// aug_map of fixed size (not --n), so its blocks come from memory rather
// than cache, as range_query's do.
// The JSON additionally carries a pool_stats section with per-size-class
// occupancy columns from pool_allocator::stats(). Emits machine-readable
// JSON with --json=<path>; CI runs this on every push and uploads the file,
// and before/after snapshots are checked in as BENCH_<PR>.json.
// Deterministic inputs (fixed seed), median of --reps runs after one warmup.
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <cinttypes>
#include <vector>

#include "bench/bench_common.h"
#include "src/api/aug_map.h"
#include "src/api/pam_map.h"
#include "src/api/pam_set.h"
#include "src/encoding/diff_encoder.h"
#include "src/encoding/gamma_encoder.h"
#include "src/obs/metrics.h"
#include "src/parallel/random.h"

using namespace cpam;
using namespace cpam::bench;

namespace {

/// Median of \p Reps timed runs, with an untimed prepare step before each
/// (refilling moved-from inputs must not dilute the measured operation).
/// One untimed warmup run first.
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
    if (std::getenv("CPAM_TRACE_REPS"))
      std::printf("      rep %d: %.4fs\n", I, Ts[static_cast<size_t>(I)]);
  }
  std::sort(Ts.begin(), Ts.end());
  return Ts[Ts.size() / 2];
}

template <int B> void runSuite(size_t N, JsonReport &Report) {
  using Map = pam_map<uint64_t, uint64_t, B>;
  using Entry = typename Map::entry_t;

  // Fixed-seed inputs: two interleaved sorted universes so the union has
  // genuine merge work, plus a random 10% batch.
  std::vector<Entry> Sorted(N);
  for (size_t I = 0; I < N; ++I)
    Sorted[I] = {2 * I, I};
  std::vector<Entry> SortedOdd(N);
  for (size_t I = 0; I < N; ++I)
    SortedOdd[I] = {2 * I + 1, I};
  Rng R(20260731);
  std::vector<Entry> Batch(N / 10);
  for (size_t I = 0; I < Batch.size(); ++I)
    Batch[I] = {R.next(4 * N), I};

  std::printf("-- B=%d --\n", B);

  // Long-lived operands are built first, on the cleanest heap the process
  // will ever have, so read benchmarks measure the representation rather
  // than whatever layout earlier churn left behind.
  Map Evens = Map::from_sorted(Sorted);
  Map Odds = Map::from_sorted(SortedOdd);

  // find: allocation-free reads (pool-insensitive by design).
  size_t Finds = N / 2;
  uint64_t Sink = 0;
  double TFind = medianPrepared(
      g_reps, [] {},
      [&] {
        Rng Q(7);
        uint64_t S = 0;
        for (size_t I = 0; I < Finds; ++I)
          if (auto V = Evens.find(2 * Q.next(N)))
            S += *V;
        Sink ^= S;
      });
  Report.add("find_random", B, Finds, TFind);
  print_time_row("find_random", TFind, TFind);
  if (Sink == 0xdeadbeef)
    std::printf("(sink)\n"); // Defeats dead-code elimination of the finds.

  // As in the paper's tables, timed regions cover the operation itself;
  // input refill and teardown of the previous result happen in the
  // untimed prepare step (teardown cost is measured by bench_alloc's
  // churn rows, which alloc *and* free).
  Map Out;
  std::vector<Entry> Scratch;

  // build_sorted: from_array_move node churn, nothing else.
  double TBuild = medianPrepared(
      g_reps,
      [&] {
        Out = Map();
        Scratch = Sorted;
      },
      [&] { Out = Map::from_sorted(std::move(Scratch)); });
  Report.add("build_sorted", B, N, TBuild);
  print_time_row("build_sorted", TBuild, TBuild);

  // union_equal: expose/split/join churn across the whole output, down to
  // kappa-sized base cases.
  double TUnion = medianPrepared(
      g_reps, [&] { Out = Map(); },
      [&] { Out = Map::map_union(Evens, Odds); });
  Report.add("union_equal", B, 2 * N, TUnion);
  print_time_row("union_equal", TUnion, TUnion);

  // multi_insert: batch sort + merge paths (includes sort, as in Fig. 15).
  double TMulti = medianPrepared(
      g_reps,
      [&] {
        Out = Map();
        Scratch = Batch;
      },
      [&] { Out = Evens.multi_insert(std::move(Scratch)); });
  Report.add("multi_insert", B, Batch.size(), TMulti);
  print_time_row("multi_insert", TMulti, TMulti);
  Out = Map();
}

/// Random finds (two in three miss) on a map too large for the cache: a
/// 2^23-entry B=128 difference-encoded sum aug_map, whatever --n is. Each
/// find pays a miss per tree level and then scans one cold block.
void runColdFinds(JsonReport &Report) {
  using Map = aug_map<aug_sum_entry<uint64_t, uint64_t>, 128, diff_encoder>;
  constexpr size_t kN = size_t(1) << 23, kFinds = size_t(1) << 17;
  Map M;
  {
    std::vector<Map::entry_t> Sorted(kN);
    for (size_t I = 0; I < kN; ++I)
      Sorted[I] = {3 * I, I & 0xfffff};
    M = Map::from_sorted(std::move(Sorted));
  }
  std::printf("-- cold finds (%zu entries, %.1f MiB) --\n", kN,
              static_cast<double>(M.size_in_bytes()) / (1 << 20));
  uint64_t Sink = 0;
  double T = medianPrepared(
      g_reps, [] {},
      [&] {
        Rng Q(11);
        uint64_t S = 0;
        for (size_t I = 0; I < kFinds; ++I)
          if (auto V = M.find(Q.next(3 * kN)))
            S += *V;
        Sink ^= S;
      });
  if (Sink == 0xdeadbeef)
    std::printf("(sink)\n");
  Report.add("find_cold", 128, kFinds, T);
  print_time_row("find_cold", T, T);
}

/// Flat-by-flat set operations: many independent leaf-sized operand pairs,
/// one flat_<op> row per operation. At B=0 there are no flat nodes, so the
/// rows measure the expose path as a control. Two key shapes: interleaved
/// (50% overlap, so union, intersect and difference all have real merge
/// work and combine traffic) and — when \p Runs is set — range-disjoint
/// operands, the sorted-run/batch-append pattern of long winner runs
/// (union only; intersections of disjoint ranges are empty). Union
/// results (~3B-4B entries per pair) span multiple leaves, driving the
/// chunked streaming writer.
template <int B, template <class> class Enc = cpam::raw_encoder>
void runFlatOps(size_t NPairs, JsonReport &Report, const char *Tag = "",
                bool Runs = false) {
  using Set = pam_set<uint64_t, B, Enc>;
  constexpr size_t kLeaf = B > 0 ? 2 * B : 256; // Entries per operand.

  std::printf("-- flat ops B=%d%s%s (pairs=%zu, %zu entries/operand) --\n", B,
              Tag, Runs ? " [runs]" : "", NPairs, kLeaf);

  // Each pair lives in its own key window; within a window the sides share
  // every other key (interleaved shape) or occupy disjoint ranges (runs).
  std::vector<Set> As(NPairs), Bs(NPairs);
  for (size_t P = 0; P < NPairs; ++P) {
    uint64_t Base = P * 8 * kLeaf;
    std::vector<uint64_t> KA(kLeaf), KB(kLeaf);
    for (size_t I = 0; I < kLeaf; ++I) {
      KA[I] = Runs ? Base + I : Base + 2 * I;
      KB[I] = Runs ? Base + 3 * kLeaf + I
                   : Base + 2 * I + (I % 2 ? 0 : 1);
    }
    As[P] = Set::from_sorted(KA);
    std::sort(KB.begin(), KB.end());
    Bs[P] = Set(KB);
  }

  size_t Ops = NPairs * 2 * kLeaf; // Entries touched per run.
  char Name[64];
  std::vector<Set> Outs(NPairs);
  std::vector<const char *> Kinds = {"union", "intersect", "difference"};
  if (Runs)
    Kinds = {"union_runs"};
  for (const char *Kind : Kinds) {
    uint64_t Sink = 0;
    // Result teardown happens in the untimed prepare step, matching the
    // runSuite discipline (the timed region covers the operation only).
    double T = medianPrepared(
        g_reps, [&] { std::fill(Outs.begin(), Outs.end(), Set()); },
        [&] {
          for (size_t P = 0; P < NPairs; ++P) {
            Outs[P] = Kind[0] == 'u' ? Set::map_union(As[P], Bs[P])
                      : Kind[0] == 'i'
                          ? Set::map_intersect(As[P], Bs[P])
                          : Set::map_difference(As[P], Bs[P]);
            Sink ^= Outs[P].size();
          }
        });
    if (Sink == 0xdeadbeef)
      std::printf("(sink)\n");
    std::snprintf(Name, sizeof(Name), "flat_%s%s", Kind, Tag);
    Report.add(Name, B, Ops, T);
    print_time_row(Name, T, T);
  }
}

/// Per-size-class pool occupancy after the whole run: allocation traffic,
/// outstanding blocks and batch/slab flow, printed and recorded as the
/// JSON pool_stats section (empty array when the pool is compiled out).
void dumpPoolStats(JsonReport &Report) {
  std::string Json = "[";
#if CPAM_POOL_ALLOC
  std::printf("\n-- pool occupancy per size class (nonzero classes) --\n");
  auto P = pool_allocator::stats();
  bool First = true;
  for (size_t C = 0; C < pool_allocator::kNumClasses; ++C) {
    if (P[C].Allocs == 0)
      continue;
    long long Live = static_cast<long long>(P[C].Allocs - P[C].Frees);
    std::printf("  class %2zu (%6zu B): allocs=%llu frees=%llu live=%lld "
                "refills=%llu drains=%llu carves=%llu\n",
                C, P[C].BlockBytes, (unsigned long long)P[C].Allocs,
                (unsigned long long)P[C].Frees, Live,
                (unsigned long long)P[C].RefillBatches,
                (unsigned long long)P[C].DrainBatches,
                (unsigned long long)P[C].SlabCarves);
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "%s\n    {\"block_bytes\": %zu, \"allocs\": %llu, "
                  "\"frees\": %llu, \"live\": %lld, \"refill_batches\": %llu, "
                  "\"drain_batches\": %llu, \"slab_carves\": %llu}",
                  First ? "" : ",", P[C].BlockBytes,
                  (unsigned long long)P[C].Allocs,
                  (unsigned long long)P[C].Frees, Live,
                  (unsigned long long)P[C].RefillBatches,
                  (unsigned long long)P[C].DrainBatches,
                  (unsigned long long)P[C].SlabCarves);
    Json += Buf;
    First = false;
  }
  if (!First)
    Json += "\n  ";
#endif
  Json += "]";
  Report.add_section("pool_stats", Json);
}

} // namespace

int main(int argc, char **argv) {
  size_t N = arg_size(argc, argv, "n", 1000000);
  g_reps = std::max(1, static_cast<int>(arg_size(argc, argv, "reps", 3)));
  std::string JsonPath = arg_str(argc, argv, "json");

  print_header("perf smoke: node-churn core ops");
  std::printf("n=%zu reps=%d pool_alloc=%s\n", N, g_reps,
              pool_enabled() ? "on" : "off");

  JsonReport Report("perf_smoke", N, g_reps);
  runSuite<0>(N, Report);
  runSuite<128>(N, Report);
  runColdFinds(Report);
  // Flat-by-flat base cases: ~N total entries per side across all pairs,
  // at a small and the default block size for all three encodings (the
  // union rows are multi-leaf: ~3B entries per result).
  size_t Pairs = std::max<size_t>(1, N / 512);
  runFlatOps<0>(Pairs, Report);
  runFlatOps<8>(Pairs * 16, Report);
  runFlatOps<8, diff_encoder>(Pairs * 16, Report, "_diff");
  runFlatOps<8, gamma_encoder>(Pairs * 16, Report, "_gamma");
  runFlatOps<128>(Pairs, Report);
  runFlatOps<128, diff_encoder>(Pairs, Report, "_diff");
  runFlatOps<128, gamma_encoder>(Pairs, Report, "_gamma");
  // Range-disjoint (sorted-run) unions: the batch-append pattern.
  runFlatOps<8>(Pairs * 16, Report, "", true);
  runFlatOps<8, diff_encoder>(Pairs * 16, Report, "_diff", true);
  runFlatOps<8, gamma_encoder>(Pairs * 16, Report, "_gamma", true);
  runFlatOps<128>(Pairs, Report, "", true);
  runFlatOps<128, diff_encoder>(Pairs, Report, "_diff", true);
  runFlatOps<128, gamma_encoder>(Pairs, Report, "_gamma", true);
  dumpPoolStats(Report);
  Report.add_section("metrics", obs::export_json());
  Report.write(JsonPath);
  return 0;
}
