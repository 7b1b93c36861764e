//===- probes.h - Layer probes run only in traced rounds -------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Direct calls into single layers, on each workload's own data, that
/// attribute an end-to-end change to a layer: encoder passes over B-entry
/// blocks, tree split/join2 at seeded keys, empty forks, and allocator
/// round trips. Workloads run them after a traced round's registry
/// snapshot, so their own counter traffic never lands in the round's
/// deltas. samples collects per-round values; finish() reports medians.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include <cstring>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/trace.h"
#include "src/core/allocator.h"
#include "src/parallel/scheduler.h"

namespace perfbench {

/// Per-round samples of named per-layer metrics.
class samples {
public:
  void add(const std::string &Name, double V) { S[Name].push_back(V); }
  /// Reports the median of every series as a per-layer metric.
  void finish(result &Res) const {
    for (const auto &[Name, Vs] : S)
      Res.layer(Name, median(Vs));
  }

private:
  std::map<std::string, std::vector<double>> S;
};

/// Fingerprint term of one set (integer) or map (pair) entry.
template <class Entry> uint64_t entry_hash(const Entry &E) {
  if constexpr (std::is_integral_v<Entry>)
    return cpam::hash64(E);
  else
    return entry_print(E.first, E.second);
}

/// Encoder passes over \p Flat, a concatenation of sorted blocks of \p B
/// entries each: encode, decode, for_each_while scan, and payload bytes.
/// Returns false if a decode or scan does not give back every entry.
template <class Enc, class Entry>
bool encoding_probe(std::vector<Entry> Flat, size_t B, samples &Out) {
  size_t NumBlocks = Flat.size() / B;
  if (NumBlocks == 0)
    return true;
  size_t N = NumBlocks * B;
  std::vector<size_t> Offset(NumBlocks + 1, 0);
  for (size_t K = 0; K < NumBlocks; ++K)
    Offset[K + 1] = Offset[K] + Enc::encoded_size(Flat.data() + K * B, B);
  std::vector<uint8_t> Buf(Offset[NumBlocks] + 16);
  std::vector<Entry> Decoded(N);
  uint64_t T0 = now_ns();
  {
    span S(layer::encoding, "encode");
    for (size_t K = 0; K < NumBlocks; ++K)
      Enc::encode(Flat.data() + K * B, B, Buf.data() + Offset[K]);
  }
  uint64_t T1 = now_ns();
  {
    span S(layer::encoding, "decode");
    for (size_t K = 0; K < NumBlocks; ++K)
      Enc::decode(Buf.data() + Offset[K], B, Decoded.data() + K * B);
  }
  uint64_t T2 = now_ns();
  // The scan folds every decoded entry so the pass cannot be elided.
  uint64_t Scanned = 0;
  {
    span S(layer::encoding, "for_each_while");
    for (size_t K = 0; K < NumBlocks; ++K)
      Enc::for_each_while(Buf.data() + Offset[K], B, [&](const Entry &E) {
        Scanned = Scanned * 31 + entry_hash(E);
        return true;
      });
  }
  uint64_t T3 = now_ns();
  uint64_t Want = 0;
  for (const Entry &E : Flat)
    Want = Want * 31 + entry_hash(E);
  double Per = 1.0 / static_cast<double>(N);
  Out.add("encoding.encode_ns_per_entry", static_cast<double>(T1 - T0) * Per);
  Out.add("encoding.decode_ns_per_entry", static_cast<double>(T2 - T1) * Per);
  Out.add("encoding.scan_ns_per_entry", static_cast<double>(T3 - T2) * Per);
  Out.add("encoding.payload_bytes_per_entry",
          static_cast<double>(Offset[NumBlocks]) * Per);
  return Scanned == Want &&
         std::memcmp(static_cast<const void *>(Decoded.data()),
                     static_cast<const void *>(Flat.data()),
                     N * sizeof(Entry)) == 0;
}

/// Tree split and join2 at each of \p Keys on a snapshot of \p Root.
template <class Ops, class Key>
void split_join_probe(typename Ops::node_t *Root, const std::vector<Key> &Keys,
                      samples &Out) {
  std::vector<double> Split, Join;
  for (const Key &K : Keys) {
    uint64_t T0 = now_ns();
    typename Ops::split_t P;
    {
      span S(layer::core, "split");
      P = Ops::split(Ops::inc(Root), K);
    }
    uint64_t T1 = now_ns();
    typename Ops::node_t *J;
    {
      span S(layer::core, "join2");
      J = Ops::join2(P.L, P.R);
    }
    uint64_t T2 = now_ns();
    Ops::dec(J);
    Split.push_back(static_cast<double>(T1 - T0) * 1e-3);
    Join.push_back(static_cast<double>(T2 - T1) * 1e-3);
  }
  Out.add("core.split_us", median(Split));
  Out.add("core.join2_us", median(Join));
}

/// Cost of one empty fork-join on the calling (pool) thread.
inline void fork_probe(samples &Out) {
  constexpr size_t kForks = 100000;
  uint64_t T0 = now_ns();
  {
    span S(layer::parallel, "par_do");
    for (size_t I = 0; I < kForks; ++I)
      cpam::par::par_do([] {}, [] {});
  }
  Out.add("sched.fork_ns", static_cast<double>(now_ns() - T0) / kForks);
}

/// Allocate-then-free of \p Bytes node blocks through the tree allocator.
inline void alloc_probe(size_t Bytes, samples &Out) {
  constexpr size_t kBlocks = 4096;
  std::vector<void *> P(kBlocks);
  uint64_t T0 = now_ns();
  {
    span S(layer::alloc, "tree_alloc+tree_free");
    for (void *&X : P)
      X = cpam::tree_alloc(Bytes);
    for (void *X : P)
      cpam::tree_free(X, Bytes);
  }
  Out.add("alloc.roundtrip_ns", static_cast<double>(now_ns() - T0) / kBlocks);
}

/// The per-layer metrics every traced run ends with: medians of the
/// per-round samples, allocator residency, the tracing overhead (1 -
/// traced / untraced median throughput) and each layer's self time per
/// traced round.
inline void finish_traced(result &Res, const samples &Layer, size_t Traced,
                          double RssPerByte, double TracedRate, double Rate) {
  Layer.finish(Res);
  Res.layer("alloc.rss_per_reported_byte", RssPerByte);
  Res.layer("alloc.live_objects",
            static_cast<double>(cpam::alloc_stats::live_object_count()));
  Res.layer("bench.trace_overhead_frac", 1.0 - TracedRate / Rate);
  auto Self = trace::self_ns();
  double Per = Traced ? 1e-6 / static_cast<double>(Traced) : 0;
  for (size_t I = 0; I < kNumLayers; ++I)
    Res.layer(std::string(layer_name(static_cast<layer>(I))) + ".self_ms",
              static_cast<double>(Self[I]) * Per);
}

} // namespace perfbench

#endif // PERFBENCH_PROBES_H
