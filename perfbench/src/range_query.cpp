//===- range_query.cpp - Point and range queries on a 16M-entry aug_map ----===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// A static difference-encoded aug_map (sum augmentation) of 16M entries,
// about 150 MB, larger than the last-level cache. Keys are sorted with
// gaps of 1-31 and values are below 2^20. Each round runs a slice of a
// seeded query list through parallel_for at 4 workers: 60% find (half
// hits), 30% aug_range over about 1k entries and 10% range + map_reduce
// over about 1k entries. Every answer is checked against one computed
// from the sorted entries in set-up. Read-only: merge kernels and the
// allocator are off the path, decode and memory latency are on it.
//
//===----------------------------------------------------------------------===//

#include <atomic>
#include <functional>
#include <memory>

#include "perfbench/src/common.h"
#include "perfbench/src/probes.h"
#include "perfbench/src/trace.h"
#include "src/api/aug_map.h"
#include "src/encoding/diff_encoder.h"
#include "src/obs/metrics.h"
#include "src/parallel/primitives.h"
#include "src/parallel/random.h"

namespace perfbench {
namespace {

using Map = cpam::aug_map<cpam::aug_sum_entry<uint64_t, uint64_t>, 128,
                          cpam::diff_encoder>;
using Entry = Map::entry_t;
using Ops = Map::ops;

constexpr size_t kN = 16000000;         ///< Entries in the map.
constexpr size_t kQueries = size_t(1) << 18; ///< Distinct seeded queries.
constexpr size_t kRoundQueries = size_t(1) << 16;
constexpr size_t kSplitKeys = 64;
constexpr size_t kEncodeBlocks = 2048;

enum kind : uint8_t { FindHit, FindMiss, AugRange, RangeReduce, NumKinds };
const char *const kKindSpan[NumKinds] = {"find", "find", "aug_range",
                                         "range+map_reduce"};

struct query {
  kind Kind;
  uint64_t Lo, Hi;
  uint64_t Want; ///< Value + 1 for a find (0 = absent), else the sum.
};

uint64_t answer(const Map &M, const query &Q) {
  switch (Q.Kind) {
  case FindHit:
  case FindMiss: {
    auto V = M.find(Q.Lo);
    return V ? *V + 1 : 0;
  }
  case AugRange:
    return M.aug_range(Q.Lo, Q.Hi);
  default:
    return M.range(Q.Lo, Q.Hi).map_reduce(
        [](const Entry &E) { return E.second; }, uint64_t(0),
        std::plus<uint64_t>());
  }
}

struct state {
  Map M;
  std::vector<query> Queries;
  std::vector<Entry> EncodeSample;
  std::vector<uint64_t> SplitKeys;

  size_t retained_bytes() const {
    return Queries.capacity() * sizeof(query) +
           EncodeSample.capacity() * sizeof(Entry) + SplitKeys.capacity() * 8;
  }
  size_t reported_bytes() const { return M.size_in_bytes(); }
};

std::unique_ptr<state> make_state(uint64_t Seed) {
  auto St = std::make_unique<state>();
  cpam::Rng Root(cpam::hash64(Seed ^ 0x7a9e));
  std::vector<Entry> E(kN);
  cpam::Rng RK = Root.fork(1);
  uint64_t Key = 0;
  for (size_t I = 0; I < kN; ++I) {
    uint64_t X = RK.next();
    Key += 1 + X % 31;
    E[I] = {Key, (X >> 8) & ((uint64_t(1) << 20) - 1)};
  }

  // The seeded query list and its answers, straight from the entries.
  cpam::Rng RQ = Root.fork(2);
  St->Queries.resize(kQueries);
  for (query &Q : St->Queries) {
    uint64_t Pick = RQ.next(100);
    if (Pick < 60) {
      size_t I = RQ.next(kN - 1);
      if (Pick < 30) {
        Q = {FindHit, E[I].first, 0, E[I].second + 1};
      } else {
        while (E[I + 1].first == E[I].first + 1)
          I = RQ.next(kN - 1);
        Q = {FindMiss, E[I].first + 1, 0, 0};
      }
      continue;
    }
    size_t Width = 512 + RQ.next(1025);
    size_t I = RQ.next(kN - Width);
    uint64_t Sum = 0;
    for (size_t J = I; J < I + Width; ++J)
      Sum += E[J].second;
    Q = {Pick < 90 ? AugRange : RangeReduce, E[I].first,
         E[I + Width - 1].first, Sum};
  }
  cpam::Rng RP = Root.fork(3);
  for (size_t I = 0; I < kSplitKeys; ++I)
    St->SplitKeys.push_back(E[RP.next(kN)].first);
  size_t Stride = kN / kEncodeBlocks;
  for (size_t K = 0; K < kEncodeBlocks; ++K)
    St->EncodeSample.insert(St->EncodeSample.end(), E.begin() + K * Stride,
                            E.begin() + K * Stride + 128);
  St->M = Map::from_sorted(std::move(E));
  return St;
}

} // namespace

int run_range_query(const options &Opt, result &Res) {
  std::vector<double> SetupS;
  double RssPerByte = 0;
  std::unique_ptr<state> St =
      set_up([&] { return make_state(Opt.Seed); }, SetupS, RssPerByte);
  const Map &M = St->M;
  Res.config("input.entries", static_cast<double>(M.size()));
  Res.config("input.bytes", static_cast<double>(M.size_in_bytes()));
  Res.config("input.queries", static_cast<double>(kQueries));

  cpam::obs::reset_all();
  std::vector<double> Rates, TracedRates, P50, P95;
  samples Layer;
  size_t Traced = 0;
  std::vector<double> LatUs(kRoundQueries);
  size_t Rounds = run_rounds(Opt, Opt.Trace ? 4 : 3, [&](size_t R) {
    bool IsTraced = traced_round(Opt, R);
    std::string Before = IsTraced ? cpam::obs::export_json() : "";
    trace::set_enabled(IsTraced);
    const query *Qs = St->Queries.data() + (R * kRoundQueries) % kQueries;
    std::atomic<uint64_t> Wrong{0};
    uint64_t T0 = now_ns();
    {
      span Round(layer::bench, "round");
      span For(layer::parallel, "parallel_for");
      uint64_t Parent = For.id();
      cpam::par::parallel_for(0, kRoundQueries, [&](size_t I) {
        const query &Q = Qs[I];
        uint64_t Q0 = now_ns();
        uint64_t Got;
        {
          span S(layer::api, kKindSpan[Q.Kind], Parent);
          Got = answer(M, Q);
        }
        LatUs[I] = static_cast<double>(now_ns() - Q0) * 1e-3;
        if (Got != Q.Want)
          Wrong.fetch_add(1, std::memory_order_relaxed);
      });
    }
    double Secs = static_cast<double>(now_ns() - T0) * 1e-9;
    Res.attempt(kRoundQueries);
    Res.fail(Wrong.load());
    double Rate = static_cast<double>(kRoundQueries) / Secs;
    if (!IsTraced) {
      Rates.push_back(Rate);
      P50.push_back(quantile(LatUs, 0.50) * 1e-3);
      P95.push_back(quantile(LatUs, 0.95) * 1e-3);
      return;
    }
    Res.obs_round(std::move(Before), cpam::obs::export_json());
    ++Traced;
    TracedRates.push_back(Rate);
    std::vector<double> ByKind[NumKinds];
    for (size_t I = 0; I < kRoundQueries; ++I)
      ByKind[Qs[I].Kind].push_back(LatUs[I]);
    ByKind[FindHit].insert(ByKind[FindHit].end(), ByKind[FindMiss].begin(),
                           ByKind[FindMiss].end());
    const std::pair<kind, const char *> Named[] = {
        {FindHit, "api.find_us"},
        {AugRange, "api.aug_range_us"},
        {RangeReduce, "api.range_us"}};
    for (const auto &[K, Name] : Named) {
      Layer.add(std::string(Name) + "_p50", quantile(ByKind[K], 0.50));
      Layer.add(std::string(Name) + "_p99", quantile(ByKind[K], 0.99));
    }

    std::vector<uint64_t> Keys(kRoundQueries);
    for (size_t I = 0; I < kRoundQueries; ++I)
      Keys[I] = Qs[I].Lo;
    uint64_t S0 = now_ns();
    {
      span S(layer::parallel, "sort");
      cpam::par::sort(Keys);
    }
    Layer.add("parallel.sort_ms", static_cast<double>(now_ns() - S0) * 1e-6);
    split_join_probe<Ops>(M.root(), St->SplitKeys, Layer);
    Res.attempt();
    if (!encoding_probe<Ops::encoder>(St->EncodeSample, 128, Layer))
      Res.fail();
    fork_probe(Layer);
    alloc_probe(M.size_in_bytes() / M.node_count(), Layer);
    trace::set_enabled(false);
  });
  double RssMb = static_cast<double>(rss_bytes()) / (1 << 20);
  Res.obs_final(cpam::obs::export_json());
  Res.config("rounds", static_cast<double>(Rounds));
  Res.config("rounds_traced", static_cast<double>(Traced));

  double Rate = median(Rates);
  Res.series("setup_s", SetupS);
  Res.series("rate", Rates);
  Res.series("p50_ms", P50);
  Res.series("p95_ms", P95);
  Res.e2e("setup_s", median(SetupS));
  Res.e2e("throughput_kps", Rate * 1e-3);
  Res.e2e("latency_p50_ms", median(P50));
  Res.e2e("latency_p95_ms", median(P95));
  Res.e2e("bytes_per_entry", static_cast<double>(M.size_in_bytes()) /
                                 static_cast<double>(M.size()));
  Res.e2e("rss_mb", RssMb);
  if (Opt.Trace) {
    Layer.add("core.nodes_per_kentry",
              1000.0 * static_cast<double>(M.node_count()) /
                  static_cast<double>(M.size()));
    finish_traced(Res, Layer, Traced, RssPerByte, median(TracedRates), Rate);
  }
  return 0;
}

} // namespace perfbench
