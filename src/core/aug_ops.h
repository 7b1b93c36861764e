//===- aug_ops.h - Queries over augmented PaC-trees ------------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Augmented-map queries (Sec. 3 "Augmentation"): aug_val, aug_left /
/// aug_right (prefix/suffix aggregates), aug_range, and aug_filter. A
/// PaC-tree stores one augmented value per regular node and one per flat
/// node; queries therefore touch O(log n) regular nodes plus at most two
/// flat blocks, giving O(log n + B) work for aug_range (Sec. 7).
///
//===----------------------------------------------------------------------===//

#ifndef CPAM_CORE_AUG_OPS_H
#define CPAM_CORE_AUG_OPS_H

#include "src/core/map_ops.h"

namespace cpam {

template <class Entry, template <class> class EncoderT, int BlockSizeB>
struct aug_ops : map_ops<Entry, EncoderT, BlockSizeB> {
  using MO = map_ops<Entry, EncoderT, BlockSizeB>;
  using NL = typename MO::NL;
  using node_t = typename MO::node_t;
  using entry_t = typename MO::entry_t;
  using key_t = typename MO::key_t;
  using aug_t = typename Entry::aug_t;
  using exposed = typename MO::exposed;
  using MO::aug_of;
  using MO::dec;
  using MO::entry_key;
  using MO::expose;
  using MO::is_flat;
  using MO::join;
  using MO::join2;
  using MO::key_less;
  using MO::par_gran;
  using MO::size;

  static_assert(is_augmented_v<Entry>,
                "aug_ops requires an augmented entry type");

  /// Aggregate over the whole tree.
  static aug_t aug_val(const node_t *T) { return aug_of(T); }

  /// Aggregate over all entries with key <= K (read-only).
  static aug_t aug_left(const node_t *T, const key_t &K) {
    boundary<false> B{T, K};
    while (B.step()) {
    }
    return B.finish();
  }

  /// Aggregate over all entries with key >= K (read-only).
  static aug_t aug_right(const node_t *T, const key_t &K) {
    boundary<true> B{T, K};
    while (B.step()) {
    }
    return B.finish();
  }

  /// Aggregate over all entries with KL <= key <= KR (read-only).
  /// O(log n + B) work. Below the first node whose key is in range, the
  /// two boundary paths (keys >= KL on its left, keys <= KR on its right)
  /// advance one level each per iteration, so their cache misses overlap;
  /// both boundary blocks start loading before either is scanned.
  static aug_t aug_range(const node_t *T, const key_t &KL, const key_t &KR) {
    while (T) {
      if (is_flat(T)) {
        aug_t Acc = Entry::aug_empty();
        NL::scan(T, [&](const entry_t &E) {
          if (key_less(KR, entry_key(E)))
            return false;
          if (!key_less(entry_key(E), KL))
            Acc = Entry::aug_combine(Acc, Entry::aug_from_entry(E));
          return true;
        });
        return Acc;
      }
      const auto *R = static_cast<const typename NL::regular_t *>(T);
      if (key_less(entry_key(R->E), KL)) {
        T = R->Right;
        continue;
      }
      if (key_less(KR, entry_key(R->E))) {
        T = R->Left;
        continue;
      }
      // The root key is inside the range: the range spans both sides.
      // Non-short-circuit | steps both paths in every iteration.
      boundary<true> L{R->Left, KL};
      boundary<false> Rt{R->Right, KR};
      while (L.step() | Rt.step()) {
      }
      NL::prefetch(L.T);
      NL::prefetch(Rt.T);
      return Entry::aug_combine(
          Entry::aug_combine(L.finish(), Entry::aug_from_entry(R->E)),
          Rt.finish());
    }
    return Entry::aug_empty();
  }

  /// Keeps entries E with P(aug_from_entry(E)); subtrees whose aggregate
  /// fails \p P are pruned wholesale, so for monotone predicates (e.g.
  /// "max >= tau") the work is proportional to the output. Consumes \p T.
  template <class Pred> static node_t *aug_filter(node_t *T, const Pred &P) {
    if (!T)
      return nullptr;
    if (!P(aug_of(T))) {
      dec(T);
      return nullptr;
    }
    if (is_flat(T))
      return MO::filter(
          T, [&P](const entry_t &E) { return P(Entry::aug_from_entry(E)); });
    exposed X = expose(T);
    node_t *L = nullptr, *R = nullptr;
    try {
      par::par_do_if(
          size(X.L) + size(X.R) >= par_gran(),
          [&] { L = aug_filter(X.L, P); }, [&] { R = aug_filter(X.R, P); });
    } catch (...) {
      dec(L);
      dec(R);
      throw;
    }
    if (P(Entry::aug_from_entry(X.E)))
      return join(L, std::move(X.E), R);
    return join2(L, R);
  }

  /// Leftmost entry whose prefix aggregate from the left satisfies \p P
  /// (P must be monotone in the prefix). Used by interval stabbing.
  /// Read-only; returns nullopt if no prefix satisfies P.
  template <class Pred>
  static std::optional<entry_t> aug_find_first(const node_t *T,
                                               const Pred &P) {
    if (!T || !P(aug_of(T)))
      return std::nullopt;
    while (true) {
      if (is_flat(T)) {
        std::optional<entry_t> Out;
        NL::scan(T, [&](const entry_t &E) {
          if (P(Entry::aug_from_entry(E))) {
            Out = E;
            return false;
          }
          return true;
        });
        return Out;
      }
      const auto *R = static_cast<const typename NL::regular_t *>(T);
      if (R->Left && P(aug_of(R->Left))) {
        T = R->Left;
        continue;
      }
      if (P(Entry::aug_from_entry(R->E)))
        return R->E;
      assert(R->Right && P(aug_of(R->Right)) &&
             "aggregate promised a match in this subtree");
      T = R->Right;
    }
  }

private:
  /// One boundary path of a prefix or suffix aggregate, walked one level
  /// per step(). A suffix walk (keys >= K) passes whole subtrees on its
  /// right, so Acc holds what lies right of T; a prefix walk (keys <= K)
  /// passes them on its left, so Acc holds what lies left of T. finish()
  /// folds the block at the end of the path on the matching side, which
  /// keeps every combine in left-to-right key order.
  template <bool Suffix> struct boundary {
    const node_t *T;
    const key_t &K;
    aug_t Acc = Entry::aug_empty();

    /// Moves one level down; false once T is null or a flat block.
    bool step() {
      if (!T || is_flat(T))
        return false;
      const auto *R = static_cast<const typename NL::regular_t *>(T);
      if constexpr (Suffix) {
        if (key_less(entry_key(R->E), K)) {
          T = R->Right;
          return true;
        }
        Acc = Entry::aug_combine(
            Entry::aug_combine(Entry::aug_from_entry(R->E), aug_of(R->Right)),
            Acc);
        T = R->Left;
      } else {
        if (key_less(K, entry_key(R->E))) {
          T = R->Left;
          return true;
        }
        Acc = Entry::aug_combine(Entry::aug_combine(Acc, aug_of(R->Left)),
                                 Entry::aug_from_entry(R->E));
        T = R->Right;
      }
      return true;
    }

    /// The aggregate of the path once step() has returned false.
    aug_t finish() const {
      if (!T)
        return Acc;
      aug_t Block = Entry::aug_empty();
      NL::scan(T, [&](const entry_t &E) {
        if constexpr (Suffix) {
          if (!key_less(entry_key(E), K))
            Block = Entry::aug_combine(Block, Entry::aug_from_entry(E));
          return true;
        } else {
          if (key_less(K, entry_key(E)))
            return false;
          Block = Entry::aug_combine(Block, Entry::aug_from_entry(E));
          return true;
        }
      });
      return Suffix ? Entry::aug_combine(Block, Acc)
                    : Entry::aug_combine(Acc, Block);
    }
  };
};

} // namespace cpam

#endif // CPAM_CORE_AUG_OPS_H
