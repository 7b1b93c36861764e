//===- range_tree.h - 2D range queries with nested PaC-trees ---------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two-dimensional range-tree application of Sec. 9: a top-level
/// augmented map keyed by x-coordinate whose augmented values are *inner
/// PaC-trees* holding every y-coordinate in the subtree. Count queries
/// decompose the x-range into O(log n) canonical subtrees and rank into each
/// inner tree: O(log^2 n) per query, batchable in parallel. Both levels use
/// difference encoding over packed 32-bit coordinates; the paper reports
/// that ~95% of PAM's range-tree space goes to the inner trees, which is
/// exactly what PaC-tree compression shrinks (2.18x overall, Sec. 10.4).
/// The paper uses B = 128 at the top level and B = 16 for inner trees.
///
//===----------------------------------------------------------------------===//

#ifndef CPAM_APPS_RANGE_TREE_H
#define CPAM_APPS_RANGE_TREE_H

#include <vector>

#include "src/api/aug_map.h"
#include "src/api/pam_set.h"
#include "src/encoding/diff_encoder.h"

namespace cpam {

/// A 2D point with 32-bit coordinates.
struct point2d {
  uint32_t X;
  uint32_t Y;
  friend bool operator==(const point2d &, const point2d &) = default;
};

namespace detail {
/// Packs (Hi, Lo) so lexicographic u64 order equals (Hi, then Lo) order.
inline uint64_t pack32(uint32_t Hi, uint32_t Lo) {
  return (static_cast<uint64_t>(Hi) << 32) | Lo;
}
} // namespace detail

/// Entry of the top-level tree: key packs (x, y); the augmented value is the
/// inner set of (y, x) pairs in the subtree.
template <int InnerB> struct range_tree_entry {
  using inner_set = pam_set<uint64_t, InnerB, diff_encoder>;
  using key_t = uint64_t; // pack32(x, y)
  using entry_t = uint64_t;
  using val_t = no_aug;
  using aug_t = inner_set;
  static constexpr bool has_val = false;
  static const key_t &get_key(const entry_t &E) { return E; }
  static bool comp(key_t A, key_t B) { return A < B; }
  static aug_t aug_empty() { return inner_set(); }
  static aug_t aug_from_entry(const entry_t &E) {
    // Re-pack as (y, x) so the inner set is ordered by y.
    std::vector<uint64_t> One = {
        detail::pack32(static_cast<uint32_t>(E & 0xffffffffu),
                       static_cast<uint32_t>(E >> 32))};
    return inner_set(One);
  }
  static aug_t aug_combine(const aug_t &A, const aug_t &B) {
    return inner_set::map_union(A, B);
  }
};

/// Purely-functional 2D range tree. OuterB/InnerB are the PaC-tree block
/// sizes of the two levels (0 = P-tree baseline at both levels).
template <int OuterB = 128, int InnerB = 16> class range_tree {
public:
  using entry = range_tree_entry<InnerB>;
  using inner_set = typename entry::inner_set;
  using map_t = aug_map<entry, OuterB, diff_encoder>;
  using ops = typename map_t::ops;
  using node_t = typename map_t::node_t;

  range_tree() = default;
  explicit range_tree(const std::vector<point2d> &Pts) {
    std::vector<uint64_t> E(Pts.size());
    par::parallel_for(0, Pts.size(), [&](size_t I) {
      E[I] = detail::pack32(Pts[I].X, Pts[I].Y);
    });
    M = map_t(E);
  }

  size_t size() const { return M.size(); }
  std::string check_invariants() const { return M.check_invariants(); }

  /// Structure bytes including all inner trees (the paper's space metric).
  size_t size_in_bytes() const {
    size_t Outer = M.size_in_bytes();
    size_t Inner = sumInner(M.root());
    return Outer + Inner;
  }

  void insert_inplace(point2d P) {
    M.insert_inplace(detail::pack32(P.X, P.Y));
  }
  void remove_inplace(point2d P) {
    M.remove_inplace(detail::pack32(P.X, P.Y));
  }

  /// Number of points with XLo <= x <= XHi and YLo <= y <= YHi
  /// (Q-Sum in Table 3). O(log^2 n).
  size_t query_count(uint32_t XLo, uint32_t YLo, uint32_t XHi,
                     uint32_t YHi) const {
    return countRec(M.root(), detail::pack32(XLo, 0),
                    detail::pack32(XHi, UINT32_MAX), YLo, YHi);
  }

  /// All points in the rectangle (Q-All in Table 3), in (x, y) order.
  std::vector<point2d> query_points(uint32_t XLo, uint32_t YLo, uint32_t XHi,
                                    uint32_t YHi) const {
    std::vector<point2d> Out;
    reportRec(M.root(), detail::pack32(XLo, 0),
              detail::pack32(XHi, UINT32_MAX), YLo, YHi, Out);
    return Out;
  }

  const map_t &map() const { return M; }

private:
  using NL = typename ops::NL;

  static size_t countYs(const inner_set &S, uint32_t YLo, uint32_t YHi) {
    // Inner keys are pack32(y, x): the y-range maps to a key interval.
    size_t Above = S.rank(detail::pack32(YHi, UINT32_MAX) + 0) +
                   (S.contains(detail::pack32(YHi, UINT32_MAX)) ? 1 : 0);
    size_t Below = S.rank(detail::pack32(YLo, 0));
    return Above - Below;
  }

  /// Counts points with key in [KLo, KHi] and y in [YLo, YHi]. Canonical
  /// subtrees fully inside the x-range are answered by their inner set.
  static size_t countRec(const node_t *T, uint64_t KLo, uint64_t KHi,
                         uint32_t YLo, uint32_t YHi) {
    if (!T)
      return 0;
    if (ops::is_flat(T)) {
      size_t C = 0;
      NL::scan(T, [&](const uint64_t &E) {
        if (E > KHi)
          return false;
        uint32_t Y = static_cast<uint32_t>(E & 0xffffffffu);
        if (E >= KLo && Y >= YLo && Y <= YHi)
          ++C;
        return true;
      });
      return C;
    }
    const auto *R = static_cast<const typename NL::regular_t *>(T);
    uint64_t K = R->E;
    if (K < KLo)
      return countRec(R->Right, KLo, KHi, YLo, YHi);
    if (K > KHi)
      return countRec(R->Left, KLo, KHi, YLo, YHi);
    // Root inside the x-range: count left fringe, root, right fringe.
    uint32_t Y = static_cast<uint32_t>(K & 0xffffffffu);
    size_t C = (Y >= YLo && Y <= YHi) ? 1 : 0;
    C += countSide<true>(R->Left, KLo, YLo, YHi);
    C += countSide<false>(R->Right, KHi, YLo, YHi);
    return C;
  }

  /// One-sided count: keys >= Bound (IsLeft) or <= Bound (!IsLeft); whole
  /// subtrees on the inside are answered via their inner set in O(log n).
  template <bool IsLeft>
  static size_t countSide(const node_t *T, uint64_t Bound, uint32_t YLo,
                          uint32_t YHi) {
    if (!T)
      return 0;
    if (ops::is_flat(T)) {
      size_t C = 0;
      NL::scan(T, [&](const uint64_t &E) {
        if (!IsLeft && E > Bound)
          return false;
        uint32_t Y = static_cast<uint32_t>(E & 0xffffffffu);
        if ((IsLeft ? E >= Bound : E <= Bound) && Y >= YLo && Y <= YHi)
          ++C;
        return true;
      });
      return C;
    }
    const auto *R = static_cast<const typename NL::regular_t *>(T);
    uint64_t K = R->E;
    bool RootIn = IsLeft ? K >= Bound : K <= Bound;
    uint32_t Y = static_cast<uint32_t>(K & 0xffffffffu);
    size_t C = (RootIn && Y >= YLo && Y <= YHi) ? 1 : 0;
    if constexpr (IsLeft) {
      if (!RootIn)
        return countSide<IsLeft>(R->Right, Bound, YLo, YHi);
      // Right subtree entirely inside: use its inner set.
      C += countYs(ops::aug_of(R->Right), YLo, YHi);
      return C + countSide<IsLeft>(R->Left, Bound, YLo, YHi);
    } else {
      if (!RootIn)
        return countSide<IsLeft>(R->Left, Bound, YLo, YHi);
      C += countYs(ops::aug_of(R->Left), YLo, YHi);
      return C + countSide<IsLeft>(R->Right, Bound, YLo, YHi);
    }
  }

  static void reportRec(const node_t *T, uint64_t KLo, uint64_t KHi,
                        uint32_t YLo, uint32_t YHi,
                        std::vector<point2d> &Out) {
    if (!T)
      return;
    if (ops::is_flat(T)) {
      NL::scan(T, [&](const uint64_t &E) {
        if (E > KHi)
          return false;
        uint32_t Y = static_cast<uint32_t>(E & 0xffffffffu);
        if (E >= KLo && Y >= YLo && Y <= YHi)
          Out.push_back({static_cast<uint32_t>(E >> 32), Y});
        return true;
      });
      return;
    }
    const auto *R = static_cast<const typename NL::regular_t *>(T);
    uint64_t K = R->E;
    if (K >= KLo)
      reportRec(R->Left, KLo, KHi, YLo, YHi, Out);
    if (K >= KLo && K <= KHi) {
      uint32_t Y = static_cast<uint32_t>(K & 0xffffffffu);
      if (Y >= YLo && Y <= YHi)
        Out.push_back({static_cast<uint32_t>(K >> 32), Y});
    }
    if (K <= KHi)
      reportRec(R->Right, KLo, KHi, YLo, YHi, Out);
  }

  static size_t sumInner(const node_t *T) {
    if (!T)
      return 0;
    // Flat blocks store one inner tree for the whole block.
    if (ops::is_flat(T))
      return ops::aug_of(T).size_in_bytes();
    const auto *R = static_cast<const typename NL::regular_t *>(T);
    size_t Own = ops::aug_of(T).size_in_bytes();
    size_t L = 0, Rt = 0;
    par::par_do_if(T->Size >= 4096, [&] { L = sumInner(R->Left); },
                   [&] { Rt = sumInner(R->Right); });
    return Own + L + Rt;
  }

  map_t M;
};

} // namespace cpam

#endif // CPAM_APPS_RANGE_TREE_H
