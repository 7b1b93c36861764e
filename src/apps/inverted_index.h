//===- inverted_index.h - Weighted inverted index ---------------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The inverted-index application of Sec. 9: a top-level map from words to
/// posting lists; each posting list is an augmented map from document id to
/// an importance score, augmented with the maximum score. Posting lists are
/// difference-encoded over sorted document ids with byte-coded scores — the
/// custom encoder the paper credits for 7.8x space savings (Sec. 10.3,
/// "less than two bytes per document"). Queries: AND (posting
/// intersection), OR (posting union), and top-k by score.
///
//===----------------------------------------------------------------------===//

#ifndef CPAM_APPS_INVERTED_INDEX_H
#define CPAM_APPS_INVERTED_INDEX_H

#include <queue>
#include <string>
#include <vector>

#include "src/api/aug_map.h"
#include "src/api/pam_map.h"
#include "src/encoding/diff_encoder.h"
#include "src/util/textgen.h"

namespace cpam {

/// A weighted inverted index over a token corpus.
template <int TopB = 128, int PostB = 128> class inverted_index {
public:
  using doc_id = uint32_t;
  using score_t = uint32_t;
  using posting_entry = aug_max_entry<doc_id, score_t>;
  /// Posting list: doc -> score, diff-encoded, augmented with max score.
  using posting_t = aug_map<posting_entry, PostB, diff_val_encoder>;
  /// Top-level map: word -> posting list.
  using index_t = pam_map<std::string, posting_t, TopB>;

  inverted_index() = default;

  /// Builds the index from a corpus; the score of (word, doc) is the number
  /// of occurrences of the word in the document.
  explicit inverted_index(const Corpus &C) {
    // 1. Tag every token with its document.
    size_t N = C.Tokens.size();
    std::vector<uint64_t> Pairs(N); // pack (word, doc)
    par::parallel_for(0, C.num_docs(), [&](size_t D) {
      for (uint64_t I = C.DocOffsets[D]; I < C.DocOffsets[D + 1]; ++I)
        Pairs[I] =
            (static_cast<uint64_t>(C.Tokens[I]) << 32) | static_cast<uint32_t>(D);
    });
    // 2. Sort by (word, doc) and run-length-encode into scores.
    par::sort(Pairs);
    std::vector<size_t> Starts(N);
    size_t NumRuns = par::pack(
        par::tabulate(N, [](size_t I) { return I; }).data(),
        [&](size_t I) { return I == 0 || Pairs[I] != Pairs[I - 1]; }, N,
        Starts.data());
    Starts.resize(NumRuns);
    // 3. Group runs by word and build one posting list per word.
    std::vector<size_t> WordStarts(NumRuns);
    size_t NumWords = par::pack(
        par::tabulate(NumRuns, [](size_t I) { return I; }).data(),
        [&](size_t I) {
          return I == 0 ||
                 (Pairs[Starts[I]] >> 32) != (Pairs[Starts[I - 1]] >> 32);
        },
        NumRuns, WordStarts.data());
    WordStarts.resize(NumWords);
    std::vector<typename index_t::entry_t> Top(NumWords);
    par::parallel_for(
        0, NumWords,
        [&](size_t W) {
          size_t RunLo = WordStarts[W];
          size_t RunHi = W + 1 < NumWords ? WordStarts[W + 1] : NumRuns;
          std::vector<typename posting_t::entry_t> Posting(RunHi - RunLo);
          for (size_t R = RunLo; R < RunHi; ++R) {
            size_t Lo = Starts[R];
            size_t Hi = R + 1 < NumRuns ? Starts[R + 1] : N;
            Posting[R - RunLo] = {
                static_cast<doc_id>(Pairs[Lo] & 0xffffffffu),
                static_cast<score_t>(Hi - Lo)};
          }
          uint32_t WordId = static_cast<uint32_t>(Pairs[Starts[RunLo]] >> 32);
          Top[W] = {C.Words[WordId], posting_t::from_sorted(std::move(Posting))};
        },
        /*Gran=*/1);
    Index = index_t(Top);
  }

  size_t num_words() const { return Index.size(); }
  /// Total postings across all words.
  size_t num_postings() const {
    return Index.map_reduce(
        [](const auto &E) { return E.second.size(); }, size_t(0),
        std::plus<size_t>());
  }

  /// Structure bytes: the top tree, the strings and every posting tree.
  size_t size_in_bytes() const {
    size_t Strings = Index.map_reduce(
        [](const auto &E) {
          return E.first.capacity() > sizeof(std::string)
                     ? E.first.capacity()
                     : 0; // Small-string optimized words are inline.
        },
        size_t(0), std::plus<size_t>());
    size_t Postings = Index.map_reduce(
        [](const auto &E) { return E.second.size_in_bytes(); }, size_t(0),
        std::plus<size_t>());
    return Index.size_in_bytes() + Strings + Postings;
  }

  /// Posting list of one word (empty if absent). O(log n) snapshot.
  posting_t get_list(const std::string &Word) const {
    auto V = Index.find(Word);
    return V ? *V : posting_t();
  }

  /// Documents containing both words; scores are summed (AND query).
  posting_t query_and(const std::string &A, const std::string &B) const {
    return posting_t::map_intersect(get_list(A), get_list(B),
                                    std::plus<score_t>());
  }

  /// Documents containing either word; scores are summed (OR query).
  posting_t query_or(const std::string &A, const std::string &B) const {
    return posting_t::map_union(get_list(A), get_list(B),
                                std::plus<score_t>());
  }

  /// The K highest-scored documents of a posting list, best first.
  /// O((K + B) log n) using the max-score augmentation.
  static std::vector<std::pair<doc_id, score_t>>
  top_k(const posting_t &List, size_t K) {
    using ops = typename posting_t::ops;
    using node_t = typename posting_t::node_t;
    using NL = typename ops::NL;
    struct Item {
      score_t Score;
      const node_t *Node;     // nullptr => a concrete entry
      std::pair<doc_id, score_t> E;
      bool operator<(const Item &O) const { return Score < O.Score; }
    };
    std::priority_queue<Item> Q;
    auto PushNode = [&Q](const node_t *T) {
      if (T)
        Q.push({ops::aug_of(T), T, {}});
    };
    PushNode(List.root());
    std::vector<std::pair<doc_id, score_t>> Out;
    while (!Q.empty() && Out.size() < K) {
      Item It = Q.top();
      Q.pop();
      if (!It.Node) {
        Out.push_back(It.E);
        continue;
      }
      if (ops::is_flat(It.Node)) {
        NL::scan(It.Node, [&](const auto &E) {
          Q.push({E.second, nullptr, E});
          return true;
        });
        continue;
      }
      const auto *R = static_cast<const typename NL::regular_t *>(It.Node);
      Q.push({R->E.second, nullptr, R->E});
      PushNode(R->Left);
      PushNode(R->Right);
    }
    return Out;
  }

  const index_t &index() const { return Index; }

private:
  index_t Index;
};

} // namespace cpam

#endif // CPAM_APPS_INVERTED_INDEX_H
