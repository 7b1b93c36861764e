//===- ctree.h - C-tree (Aspen) baseline ------------------------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A faithful reimplementation of the C-tree design from Aspen [Dhulipala,
/// Blelloch, Shun, PLDI'19], the paper's main graph comparator (Fig. 3c):
/// elements are pseudo-randomly promoted to *heads* with probability 1/B
/// (hash-based, so expected block size B — a randomized guarantee, unlike
/// the deterministic B..2B blocks of PaC-trees). Heads live in a P-tree;
/// each head carries the difference-encoded block of elements up to the
/// next head; elements before the first head form the prefix. Supports
/// build, lookup, iteration, batch union and space accounting — the pieces
/// the Fig. 1/11 and Table 5 / Fig. 15 comparisons need.
///
//===----------------------------------------------------------------------===//

#ifndef CPAM_BASELINES_CTREE_H
#define CPAM_BASELINES_CTREE_H

#include <vector>

#include "src/api/pam_map.h"
#include "src/encoding/varint.h"
#include "src/parallel/random.h"
#include "src/util/visit.h"

namespace cpam {

/// A C-tree over 32-bit keys with expected block size \p B.
template <int B = 64> class ctree_set {
public:
  /// A difference-encoded run of keys (used for blocks and the prefix).
  struct block {
    std::vector<uint8_t> Bytes;
    uint32_t Count = 0;

    static block encode(const uint32_t *A, size_t N) {
      block Blk;
      Blk.Count = static_cast<uint32_t>(N);
      size_t Sz = 0;
      for (size_t I = 0; I < N; ++I)
        Sz += varint_size(I == 0 ? A[0] : A[I] - A[I - 1]);
      Blk.Bytes.resize(Sz);
      uint8_t *Out = Blk.Bytes.data();
      for (size_t I = 0; I < N; ++I)
        Out = varint_encode(I == 0 ? A[0] : A[I] - A[I - 1], Out);
      return Blk;
    }

    template <class F> bool foreach_while(const F &f) const {
      const uint8_t *In = Bytes.data();
      uint64_t Prev = 0, Delta;
      for (uint32_t I = 0; I < Count; ++I) {
        In = varint_decode(In, Delta);
        Prev = I == 0 ? Delta : Prev + Delta;
        if (!f(static_cast<uint32_t>(Prev)))
          return false;
      }
      return true;
    }
  };

  /// P-tree over heads (Aspen leaves the head tree uncompressed).
  using head_tree = pam_map<uint32_t, block, 0>;

  ctree_set() = default;

  static bool is_head(uint32_t K) { return hash64(K) % B == 0; }

  /// Builds from sorted, distinct keys.
  static ctree_set from_sorted(const std::vector<uint32_t> &Keys) {
    ctree_set Out;
    Out.Size = Keys.size();
    if (Keys.empty())
      return Out;
    // Locate heads.
    std::vector<size_t> HeadIdx;
    for (size_t I = 0; I < Keys.size(); ++I)
      if (is_head(Keys[I]))
        HeadIdx.push_back(I);
    size_t FirstHead = HeadIdx.empty() ? Keys.size() : HeadIdx[0];
    Out.Prefix = block::encode(Keys.data(), FirstHead);
    std::vector<typename head_tree::entry_t> Entries(HeadIdx.size());
    par::parallel_for(
        0, HeadIdx.size(),
        [&](size_t H) {
          size_t Lo = HeadIdx[H];
          size_t Hi = H + 1 < HeadIdx.size() ? HeadIdx[H + 1] : Keys.size();
          // The block stores the elements after the head.
          Entries[H] = {Keys[Lo],
                        block::encode(Keys.data() + Lo + 1, Hi - Lo - 1)};
        },
        /*Gran=*/1);
    Out.Heads = head_tree::from_sorted(std::move(Entries));
    return Out;
  }

  size_t size() const { return Size; }

  /// In-order visit of all keys; \p f returns false to stop early.
  template <class F> void foreach_seq(const F &f) const {
    auto Visit = [&](uint32_t K) { return visit_continue(f, K); };
    if (!Prefix.foreach_while(Visit))
      return;
    Heads.foreach_seq([&](const typename head_tree::entry_t &E) {
      return Visit(E.first) && E.second.foreach_while(Visit);
    });
  }

  bool contains(uint32_t K) const {
    if (is_head(K))
      return Heads.contains(K);
    // Find the owning block: the largest head <= K, else the prefix.
    auto Owner = Heads.previous(K);
    const block *Blk = Owner ? &Owner->second : &Prefix;
    bool Found = false;
    Blk->foreach_while([&](uint32_t X) {
      if (X == K)
        Found = true;
      return X < K;
    });
    return Found;
  }

  /// Batch union with sorted, distinct keys: affected blocks are decoded,
  /// merged and re-chunked by the head rule (new heads split blocks), as in
  /// Aspen's union. Purely functional: returns a new C-tree sharing
  /// untouched heads.
  ctree_set union_sorted(const std::vector<uint32_t> &Batch) const {
    if (Batch.empty())
      return *this;
    if (Size == 0)
      return from_sorted(Batch);
    // Partition the batch by owning block (prefix = sentinel head).
    constexpr uint64_t kPrefix = UINT64_MAX;
    std::vector<std::pair<uint64_t, size_t>> Owner(Batch.size());
    par::parallel_for(0, Batch.size(), [&](size_t I) {
      auto H = Heads.previous(Batch[I]); // Largest head <= key.
      Owner[I] = {H ? static_cast<uint64_t>(H->first) : kPrefix, I};
    });
    // The batch is sorted, so owners are grouped already; walk the groups.
    ctree_set Out;
    std::vector<typename head_tree::entry_t> NewEntries;
    std::vector<uint32_t> RemovedHeads;
    std::vector<uint32_t> Merged;
    size_t Added = 0;
    auto ProcessGroup = [&](uint64_t OwnerHead, size_t Lo, size_t Hi) {
      // Decode the owned run: head (if any) + its block.
      std::vector<uint32_t> Run;
      if (OwnerHead == kPrefix) {
        Prefix.foreach_while([&](uint32_t K) {
          Run.push_back(K);
          return true;
        });
      } else {
        Run.push_back(static_cast<uint32_t>(OwnerHead));
        Heads.find(static_cast<uint32_t>(OwnerHead))
            ->foreach_while([&](uint32_t K) {
              Run.push_back(K);
              return true;
            });
        RemovedHeads.push_back(static_cast<uint32_t>(OwnerHead));
      }
      // Merge with the batch slice.
      Merged.clear();
      std::merge(Run.begin(), Run.end(), Batch.begin() + Lo,
                 Batch.begin() + Hi, std::back_inserter(Merged));
      Merged.erase(std::unique(Merged.begin(), Merged.end()), Merged.end());
      Added += Merged.size() - Run.size();
      // Re-chunk by the head rule.
      size_t I = 0;
      if (!Merged.empty() && !is_head(Merged[0]) && OwnerHead == kPrefix) {
        size_t J = 0;
        while (J < Merged.size() && !is_head(Merged[J]))
          ++J;
        Out.Prefix = block::encode(Merged.data(), J);
        I = J;
      }
      while (I < Merged.size()) {
        assert(is_head(Merged[I]) && "chunk must start at a head");
        size_t J = I + 1;
        while (J < Merged.size() && !is_head(Merged[J]))
          ++J;
        NewEntries.push_back(
            {Merged[I], block::encode(Merged.data() + I + 1, J - I - 1)});
        I = J;
      }
    };
    bool PrefixTouched = false;
    size_t GroupLo = 0;
    for (size_t I = 1; I <= Batch.size(); ++I) {
      if (I == Batch.size() || Owner[I].first != Owner[GroupLo].first) {
        if (Owner[GroupLo].first == kPrefix)
          PrefixTouched = true;
        ProcessGroup(Owner[GroupLo].first, GroupLo, I);
        GroupLo = I;
      }
    }
    if (!PrefixTouched)
      Out.Prefix = Prefix;
    // Apply: drop rewritten heads, insert the re-chunked entries.
    head_tree H = Heads.multi_delete(RemovedHeads);
    std::sort(NewEntries.begin(), NewEntries.end(),
              [](const auto &A, const auto &C) { return A.first < C.first; });
    Out.Heads = H.multi_insert_sorted(std::move(NewEntries));
    Out.Size = Size + Added;
    return Out;
  }

  /// Structure bytes: head-tree nodes plus all block storage.
  size_t size_in_bytes() const {
    size_t Blocks = Heads.map_reduce(
        [](const typename head_tree::entry_t &E) {
          return E.second.Bytes.capacity() + sizeof(block);
        },
        size_t(0), std::plus<size_t>());
    return Heads.size_in_bytes() + Blocks + Prefix.Bytes.capacity();
  }

  const head_tree &heads() const { return Heads; }
  const block &prefix() const { return Prefix; }

private:
  head_tree Heads;
  block Prefix;
  size_t Size = 0;
};

} // namespace cpam

#endif // CPAM_BASELINES_CTREE_H
