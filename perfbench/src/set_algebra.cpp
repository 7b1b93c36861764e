//===- set_algebra.cpp - Set algebra and batch updates on 2M-entry maps ----===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Two difference-encoded pam_map operands of 2M entries each, keys half
// uniform and half in runs of 512 consecutive keys, and one fixed
// script per round: union (n, n), union (n, n/1000), intersect,
// difference, multi_insert of an unsorted 10% batch, multi_delete of 5%,
// then dropping every result. Closed loop on the main thread, 4 scheduler
// workers. Each result's size and fingerprint is checked against an
// oracle computed from the sorted inputs in set-up.
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <functional>
#include <memory>

#include "perfbench/src/common.h"
#include "perfbench/src/probes.h"
#include "perfbench/src/trace.h"
#include "src/api/pam_map.h"
#include "src/encoding/diff_encoder.h"
#include "src/obs/metrics.h"
#include "src/parallel/primitives.h"
#include "src/parallel/random.h"

namespace perfbench {
namespace {

using Map = cpam::pam_map<uint64_t, uint64_t, 128, cpam::diff_encoder>;
using Entry = Map::entry_t;
using Ops = Map::ops;

constexpr size_t kN = 2000000;        ///< Distinct keys per operand.
constexpr size_t kRun = 512;          ///< Consecutive keys per run.
constexpr uint64_t kUniverse = 8 * kN; ///< Shared key range of all inputs.
constexpr size_t kSplitKeys = 64;     ///< Seeded split/join2 probe keys.
constexpr size_t kEncodeBlocks = 2048; ///< B-entry blocks for the probe.

/// The script's operations, in order; the last is dropping all results.
enum op { Union, UnionSmall, Intersect, Difference, MultiInsert, MultiDelete,
          NumOps };
const char *const kOpMetric[NumOps + 1] = {
    "api.union_ms",       "api.union_small_ms",  "api.intersect_ms",
    "api.difference_ms",  "api.multi_insert_ms", "api.multi_delete_ms",
    "api.release_ms"};

struct expect {
  size_t Size = 0;
  uint64_t Print = 0;
};

uint64_t fingerprint(const Map &M) {
  return M.map_reduce(
      [](const Entry &E) { return entry_print(E.first, E.second); },
      uint64_t(0), std::plus<uint64_t>());
}

expect expect_of(const std::vector<Entry> &V) {
  expect E;
  E.Size = V.size();
  for (const Entry &X : V)
    E.Print += entry_print(X.first, X.second);
  return E;
}

bool key_less(const Entry &A, const Entry &B) { return A.first < B.first; }

template <class T> void shuffle(std::vector<T> &V, cpam::Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.next(I)]);
}

/// N sorted distinct keys: half in runs, the rest uniform in the universe.
std::vector<uint64_t> make_keys(cpam::Rng R, size_t N) {
  std::vector<uint64_t> K;
  K.reserve(N);
  while (K.size() < N / 2) {
    uint64_t Start = R.next(kUniverse - kRun);
    for (size_t J = 0; J < kRun; ++J)
      K.push_back(Start + J);
  }
  // Top up with uniform draws until the deduplicated count reaches N.
  for (size_t Have = K.size(); Have < N;) {
    K.resize(N);
    for (size_t I = Have; I < N; ++I)
      K[I] = R.next(kUniverse);
    cpam::par::sort(K);
    Have = cpam::par::unique(K.data(), K.size());
    K.resize(Have);
  }
  return K;
}

std::vector<Entry> with_values(const std::vector<uint64_t> &Keys,
                               uint64_t Salt) {
  std::vector<Entry> V(Keys.size());
  for (size_t I = 0; I < Keys.size(); ++I)
    V[I] = {Keys[I], cpam::hash64(Keys[I] ^ Salt)};
  return V;
}

/// Everything a round needs, built from the seed in set-up.
struct state {
  Map A, B, Small;
  std::vector<Entry> Batch;    ///< Unsorted, distinct keys.
  std::vector<uint64_t> Del;   ///< Unsorted, distinct keys of A.
  expect Want[NumOps];
  size_t OperandEntries = 0;   ///< Entries the script's operands hold.
  std::vector<Entry> EncodeSample;
  std::vector<uint64_t> SplitKeys;

  size_t retained_bytes() const {
    return Batch.capacity() * sizeof(Entry) + Del.capacity() * 8 +
           EncodeSample.capacity() * sizeof(Entry) + SplitKeys.capacity() * 8;
  }
  size_t reported_bytes() const {
    return A.size_in_bytes() + B.size_in_bytes() + Small.size_in_bytes();
  }
};

std::unique_ptr<state> make_state(uint64_t Seed) {
  auto St = std::make_unique<state>();
  cpam::Rng Root(cpam::hash64(Seed ^ 0x5e7a1));
  std::vector<Entry> A = with_values(make_keys(Root.fork(1), kN), 1);
  std::vector<Entry> B = with_values(make_keys(Root.fork(2), kN), 2);
  std::vector<uint64_t> SmallKeys;
  cpam::Rng RS = Root.fork(3);
  for (size_t I = 0; I < kN / 1000; ++I)
    SmallKeys.push_back(RS.next(kUniverse));
  std::sort(SmallKeys.begin(), SmallKeys.end());
  SmallKeys.erase(std::unique(SmallKeys.begin(), SmallKeys.end()),
                  SmallKeys.end());
  std::vector<Entry> Small = with_values(SmallKeys, 3);

  // Batch: half keys already in A (updates), half fresh draws.
  cpam::Rng RB = Root.fork(4);
  std::vector<uint64_t> BatchKeys;
  for (size_t I = 0; I < kN / 20; ++I)
    BatchKeys.push_back(A[RB.next(A.size())].first);
  for (size_t I = 0; I < kN / 20; ++I)
    BatchKeys.push_back(RB.next(kUniverse));
  cpam::par::sort(BatchKeys);
  BatchKeys.resize(cpam::par::unique(BatchKeys.data(), BatchKeys.size()));
  std::vector<Entry> BatchSorted = with_values(BatchKeys, 4);

  cpam::Rng RD = Root.fork(5);
  std::vector<uint64_t> DelKeys;
  for (size_t I = 0; I < kN / 20; ++I)
    DelKeys.push_back(A[RD.next(A.size())].first);
  cpam::par::sort(DelKeys);
  DelKeys.resize(cpam::par::unique(DelKeys.data(), DelKeys.size()));
  std::vector<Entry> DelSorted = with_values(DelKeys, 0);

  // Oracle: take_right keeps the right operand's value on equal keys, and
  // std::set_union / set_intersection copy from their first range.
  std::vector<Entry> Tmp;
  auto Want = [&](op O, auto &&Fill) {
    Tmp.clear();
    Fill(std::back_inserter(Tmp));
    St->Want[O] = expect_of(Tmp);
  };
  Want(Union, [&](auto Out) {
    std::set_union(B.begin(), B.end(), A.begin(), A.end(), Out, key_less);
  });
  Want(UnionSmall, [&](auto Out) {
    std::set_union(Small.begin(), Small.end(), A.begin(), A.end(), Out,
                   key_less);
  });
  Want(Intersect, [&](auto Out) {
    std::set_intersection(B.begin(), B.end(), A.begin(), A.end(), Out,
                          key_less);
  });
  Want(Difference, [&](auto Out) {
    std::set_difference(A.begin(), A.end(), B.begin(), B.end(), Out,
                        key_less);
  });
  Want(MultiInsert, [&](auto Out) {
    std::set_union(BatchSorted.begin(), BatchSorted.end(), A.begin(),
                   A.end(), Out, key_less);
  });
  Want(MultiDelete, [&](auto Out) {
    std::set_difference(A.begin(), A.end(), DelSorted.begin(),
                        DelSorted.end(), Out, key_less);
  });
  Tmp = std::vector<Entry>();

  size_t NA = A.size(), NB = B.size();
  St->OperandEntries = 3 * (NA + NB) + (NA + Small.size()) +
                       (NA + BatchSorted.size()) + (NA + DelKeys.size());
  cpam::Rng RP = Root.fork(6);
  for (size_t I = 0; I < kSplitKeys; ++I)
    St->SplitKeys.push_back(A[RP.next(NA)].first);
  size_t Stride = NA / kEncodeBlocks;
  for (size_t K = 0; K < kEncodeBlocks && Stride >= 128; ++K)
    St->EncodeSample.insert(St->EncodeSample.end(), A.begin() + K * Stride,
                            A.begin() + K * Stride + 128);

  St->Batch = std::move(BatchSorted);
  shuffle(St->Batch, RB);
  St->Del = std::move(DelKeys);
  shuffle(St->Del, RD);
  St->A = Map::from_sorted(std::move(A));
  St->B = Map::from_sorted(std::move(B));
  St->Small = Map::from_sorted(std::move(Small));
  return St;
}

} // namespace

int run_set_algebra(const options &Opt, result &Res) {
  std::vector<double> SetupS;
  double RssPerByte = 0;
  std::unique_ptr<state> St =
      set_up([&] { return make_state(Opt.Seed); }, SetupS, RssPerByte);
  Res.config("input.entries_a", static_cast<double>(St->A.size()));
  Res.config("input.entries_b", static_cast<double>(St->B.size()));
  Res.config("input.entries_small", static_cast<double>(St->Small.size()));
  Res.config("input.batch", static_cast<double>(St->Batch.size()));
  Res.config("input.delete", static_cast<double>(St->Del.size()));
  Res.config("input.bytes",
             static_cast<double>(St->A.size_in_bytes() +
                                 St->B.size_in_bytes()));

  cpam::obs::reset_all();
  std::vector<double> Rates, TracedRates, LatMs;
  samples Layer;
  size_t Traced = 0;
  double BytesPerEntry = 0, NodesPerK = 0;
  size_t Rounds = run_rounds(Opt, Opt.Trace ? 4 : 3, [&](size_t R) {
    bool IsTraced = traced_round(Opt, R);
    std::string Before = IsTraced ? cpam::obs::export_json() : "";
    trace::set_enabled(IsTraced);
    Map Out[NumOps];
    double Ms[NumOps + 1];
    {
      span Script(layer::bench, "script");
      auto Timed = [&](op O, const char *Name, auto &&F) {
        uint64_t T0 = now_ns();
        {
          span S(layer::api, Name);
          Out[O] = F();
        }
        Ms[O] = static_cast<double>(now_ns() - T0) * 1e-6;
      };
      Timed(Union, "map_union", [&] { return Map::map_union(St->A, St->B); });
      Timed(UnionSmall, "map_union",
            [&] { return Map::map_union(St->A, St->Small); });
      Timed(Intersect, "map_intersect",
            [&] { return Map::map_intersect(St->A, St->B); });
      Timed(Difference, "map_difference",
            [&] { return Map::map_difference(St->A, St->B); });
      std::vector<Entry> Batch = St->Batch;
      Timed(MultiInsert, "multi_insert",
            [&] { return St->A.multi_insert(std::move(Batch)); });
      std::vector<uint64_t> Del = St->Del;
      Timed(MultiDelete, "multi_delete",
            [&] { return St->A.multi_delete(std::move(Del)); });

      {
        span V(layer::bench, "validate");
        for (int O = 0; O < NumOps; ++O) {
          Res.attempt();
          if (Out[O].size() != St->Want[O].Size ||
              fingerprint(Out[O]) != St->Want[O].Print)
            Res.fail();
        }
      }
      if (R == 0) {
        BytesPerEntry = static_cast<double>(Out[Union].size_in_bytes()) /
                        static_cast<double>(Out[Union].size());
        NodesPerK = 1000.0 * static_cast<double>(Out[Union].node_count()) /
                    static_cast<double>(Out[Union].size());
      }
      uint64_t T0 = now_ns();
      {
        span S(layer::api, "release");
        for (Map &M : Out)
          M = Map();
      }
      Ms[NumOps] = static_cast<double>(now_ns() - T0) * 1e-6;
    }
    double ScriptMs = 0;
    for (double X : Ms)
      ScriptMs += X;
    double Rate = static_cast<double>(St->OperandEntries) / (ScriptMs * 1e-3);
    if (!IsTraced) {
      Rates.push_back(Rate);
      LatMs.push_back(ScriptMs);
      return;
    }
    Res.obs_round(std::move(Before), cpam::obs::export_json());
    ++Traced;
    TracedRates.push_back(Rate);
    for (int O = 0; O <= NumOps; ++O)
      Layer.add(kOpMetric[O], Ms[O]);

    // Probes: sort and merge halves of multi_insert, split/join2,
    // encoder passes, an empty fork and allocator round trips.
    std::vector<Entry> Copy = St->Batch;
    uint64_t T0 = now_ns();
    size_t K;
    {
      span S(layer::parallel, "sort_and_combine");
      K = Ops::sort_and_combine(Copy.data(), Copy.size());
    }
    uint64_t T1 = now_ns();
    Map Merged;
    {
      span S(layer::core, "multi_insert_sorted");
      Merged = Map::take_root(Ops::multi_insert_sorted(
          Ops::inc(St->A.root()), Copy.data(), K, cpam::take_right()));
    }
    uint64_t T2 = now_ns();
    Res.attempt();
    if (Merged.size() != St->Want[MultiInsert].Size)
      Res.fail();
    Merged = Map();
    Layer.add("parallel.sort_ms", static_cast<double>(T1 - T0) * 1e-6);
    Layer.add("core.multi_insert_sorted_ms",
              static_cast<double>(T2 - T1) * 1e-6);
    split_join_probe<Ops>(St->A.root(), St->SplitKeys, Layer);
    Res.attempt();
    if (!encoding_probe<Ops::encoder>(St->EncodeSample, 128, Layer))
      Res.fail();
    fork_probe(Layer);
    alloc_probe(St->A.size_in_bytes() / St->A.node_count(), Layer);
    trace::set_enabled(false);
  });
  double RssMb = static_cast<double>(rss_bytes()) / (1 << 20);
  Res.obs_final(cpam::obs::export_json());
  Res.config("rounds", static_cast<double>(Rounds));
  Res.config("rounds_traced", static_cast<double>(Traced));

  double Rate = median(Rates);
  Res.series("setup_s", SetupS);
  Res.series("rate", Rates);
  Res.series("script_ms", LatMs);
  Res.e2e("setup_s", median(SetupS));
  Res.e2e("throughput_kps", Rate * 1e-3);
  Res.e2e("latency_p50_ms", quantile(LatMs, 0.50));
  Res.e2e("latency_p95_ms", quantile(LatMs, 0.95));
  Res.e2e("bytes_per_entry", BytesPerEntry);
  Res.e2e("rss_mb", RssMb);
  if (Opt.Trace) {
    Layer.add("core.nodes_per_kentry", NodesPerK);
    finish_traced(Res, Layer, Traced, RssPerByte, median(TracedRates), Rate);
  }
  return 0;
}

} // namespace perfbench
