//===- spark_wordcount.cpp - Sec. 10.2: collections-system comparison -------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Regenerates the Sec. 10.2 comparison with Apache Spark's shared-memory
// collections on the two queries from the Spark tutorial over the corpus:
// (1) longest word length, (2) most frequent word. Spark is substituted by
// a single-threaded STL pipeline playing the "general-purpose collections
// system" role (see README's "Datasets" section); the paper reports CPAM
// 3.2x / 4.9x faster than cached Spark, and orders of magnitude on raw
// primitives.
//
//===----------------------------------------------------------------------===//

#include <unordered_map>

#include "bench/bench_common.h"
#include "src/api/pam_map.h"
#include "src/util/textgen.h"

using namespace cpam;
using namespace cpam::bench;

int main(int argc, char **argv) {
  size_t N = arg_size(argc, argv, "n", 10000000);
  g_reps = static_cast<int>(arg_size(argc, argv, "reps", 3));
  print_header("Sec. 10.2: word-count style queries (Spark substituted by "
               "an STL pipeline)");
  Corpus C = generate_corpus(N, 100000, N / 250 + 1, 1.0, 9);

  // Query 1: longest word length.
  double StlLongest = median_time(
      [&] {
        size_t Longest = 0;
        for (uint32_t W : C.Tokens)
          Longest = std::max(Longest, C.Words[W].size());
        volatile size_t Sink = Longest;
        (void)Sink;
      },
      g_reps);
  double CpamLongest = time_par([&] {
    size_t Longest = par::reduce_index(
        0, C.Tokens.size(),
        [&](size_t I) { return C.Words[C.Tokens[I]].size(); }, size_t(0),
        [](size_t A, size_t B) { return std::max(A, B); });
    volatile size_t Sink = Longest;
    (void)Sink;
  });
  std::printf("longest word:       STL=%8.4fs  CPAM=%8.4fs  (%.1fx)\n",
              StlLongest, CpamLongest, StlLongest / CpamLongest);

  // Query 2: most frequent word (reduceByKey + max).
  double StlFreq = median_time(
      [&] {
        std::unordered_map<uint32_t, uint64_t> Counts;
        for (uint32_t W : C.Tokens)
          ++Counts[W];
        std::pair<uint32_t, uint64_t> Best{0, 0};
        for (auto &KV : Counts)
          if (KV.second > Best.second)
            Best = KV;
        volatile uint64_t Sink = Best.second;
        (void)Sink;
      },
      g_reps);
  double CpamFreq = time_par([&] {
    using M = pam_map<uint32_t, uint64_t, 128>;
    std::vector<std::pair<uint32_t, uint64_t>> Pairs(C.Tokens.size());
    par::parallel_for(0, C.Tokens.size(),
                      [&](size_t I) { Pairs[I] = {C.Tokens[I], 1}; });
    M Counts(std::move(Pairs), std::plus<uint64_t>());
    uint64_t Best = Counts.map_reduce(
        [](const auto &E) { return E.second; }, uint64_t(0),
        [](uint64_t A, uint64_t B) { return std::max(A, B); });
    volatile uint64_t Sink = Best;
    (void)Sink;
  });
  std::printf("most frequent word: STL=%8.4fs  CPAM=%8.4fs  (%.1fx)\n",
              StlFreq, CpamFreq, StlFreq / CpamFreq);
  return 0;
}
