//===- interval_tree.h - 1D interval (stabbing) queries --------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interval-tree application of Sec. 9: intervals on the integer line
/// stored in an augmented PaC-tree keyed by (left, right) endpoint, with the
/// maximum right endpoint as the augmented value. A stabbing query for point
/// p reports intervals [l, r] with l <= p <= r, pruning subtrees whose
/// maximum right endpoint falls short of p; reporting k intervals costs
/// O(k log n). Insertions/deletions cost O(log n + B) and batch in parallel.
/// The paper uses B = 32 for this application.
///
//===----------------------------------------------------------------------===//

#ifndef CPAM_APPS_INTERVAL_TREE_H
#define CPAM_APPS_INTERVAL_TREE_H

#include <vector>

#include "src/api/aug_map.h"
#include "src/util/datagen.h"

namespace cpam {

/// Entry for the interval map: the entry is the (left, right) pair itself;
/// the augmented value is the maximum right endpoint in the subtree.
struct interval_entry {
  using key_t = std::pair<uint64_t, uint64_t>;
  using entry_t = key_t;
  using val_t = no_aug;
  using aug_t = uint64_t;
  static constexpr bool has_val = false;
  static const key_t &get_key(const entry_t &E) { return E; }
  static bool comp(const key_t &A, const key_t &B) { return A < B; }
  static aug_t aug_empty() { return 0; }
  static aug_t aug_from_entry(const entry_t &E) { return E.second; }
  static aug_t aug_combine(aug_t A, aug_t B) { return A > B ? A : B; }
};

/// Purely-functional interval tree supporting parallel stabbing queries.
template <int BlockSizeB = 32> class interval_tree {
public:
  using map_t = aug_map<interval_entry, BlockSizeB>;
  using ops = typename map_t::ops;
  using node_t = typename map_t::node_t;

  interval_tree() = default;
  /// Builds from a batch of intervals in parallel.
  explicit interval_tree(const std::vector<Interval> &Ivs) {
    std::vector<typename map_t::entry_t> E(Ivs.size());
    par::parallel_for(0, Ivs.size(), [&](size_t I) {
      E[I] = {Ivs[I].Left, Ivs[I].Right};
    });
    M = map_t(E);
  }

  size_t size() const { return M.size(); }
  size_t size_in_bytes() const { return M.size_in_bytes(); }

  /// Functional insert/remove of a single interval.
  void insert_inplace(Interval Iv) {
    M.insert_inplace(typename map_t::entry_t{Iv.Left, Iv.Right});
  }
  void remove_inplace(Interval Iv) {
    M.remove_inplace({Iv.Left, Iv.Right});
  }
  /// O(1) snapshot.
  interval_tree snapshot() const { return *this; }

  /// True iff some interval contains \p P. O(log n + B).
  bool stabs(uint64_t P) const {
    if (M.empty())
      return false;
    if (P == 0) // aug_empty() == 0 would make the test below vacuous.
      return M.first()->first == 0;
    // Among intervals with l <= p, is some r >= p?
    return M.aug_left({P, UINT64_MAX}) >= P;
  }

  /// Number of intervals containing \p P.
  size_t count_stab(uint64_t P) const {
    size_t Count = 0;
    countRec(M.root(), P, Count);
    return Count;
  }

  /// All intervals containing \p P, in key order. O(k log n) work.
  std::vector<Interval> report_stab(uint64_t P) const {
    std::vector<Interval> Out;
    reportRec(M.root(), P, Out);
    return Out;
  }

  std::string check_invariants() const { return M.check_invariants(); }
  const map_t &map() const { return M; }

private:
  using NL = typename ops::NL;

  static void countRec(const node_t *T, uint64_t P, size_t &Count) {
    if (!T || ops::aug_of(T) < P)
      return; // No right endpoint reaches P: prune.
    if (ops::is_flat(T)) {
      NL::scan(T, [&](const typename ops::entry_t &E) {
        if (E.first > P)
          return false;
        if (E.second >= P)
          ++Count;
        return true;
      });
      return;
    }
    const auto *R = static_cast<const typename NL::regular_t *>(T);
    if (R->E.first > P) {
      countRec(R->Left, P, Count);
      return;
    }
    countRec(R->Left, P, Count);
    if (R->E.second >= P)
      ++Count;
    countRec(R->Right, P, Count);
  }

  static void reportRec(const node_t *T, uint64_t P,
                        std::vector<Interval> &Out) {
    if (!T || ops::aug_of(T) < P)
      return;
    if (ops::is_flat(T)) {
      NL::scan(T, [&](const typename ops::entry_t &E) {
        if (E.first > P)
          return false;
        if (E.second >= P)
          Out.push_back({E.first, E.second});
        return true;
      });
      return;
    }
    const auto *R = static_cast<const typename NL::regular_t *>(T);
    if (R->E.first > P) {
      reportRec(R->Left, P, Out);
      return;
    }
    reportRec(R->Left, P, Out);
    if (R->E.second >= P)
      Out.push_back({R->E.first, R->E.second});
    reportRec(R->Right, P, Out);
  }

  map_t M;
};

} // namespace cpam

#endif // CPAM_APPS_INTERVAL_TREE_H
