//===- invariants.h - Structural invariant checks (testing) ----------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checkers for the PaC-tree invariants of Def. 4.1, used by the test suite
/// after every mutating operation:
///   - weight balance with alpha = 0.29 at every regular node;
///   - blocked leaves: every subtree of at most 2B entries is one flat
///     node, so every regular node holds more than 2B entries; interior
///     flat nodes hold B..2B and only a root block may be smaller;
///   - size fields consistent; keys strictly increasing in-order; augmented
///     values equal to the aggregate recomputed from the entries, wherever
///     the augmented type is equality-comparable. The range tree's inner
///     sets are not, so its set-valued aggregates stay unchecked.
///
//===----------------------------------------------------------------------===//

#ifndef CPAM_CORE_INVARIANTS_H
#define CPAM_CORE_INVARIANTS_H

#include <concepts>
#include <string>

#include "src/core/basic_tree.h"

namespace cpam {

/// Invariant checker over a tree_ops (or derived) instantiation \p Ops.
template <class Ops> struct invariant_checker {
  using NL = typename Ops::NL;
  using node_t = typename Ops::node_t;
  using entry_t = typename Ops::entry_t;
  using aug_t = typename NL::aug_t;
  using Entry = typename NL::entry_traits;

  /// Returns an empty string if all invariants hold, else a description of
  /// the first violation.
  static std::string check(const node_t *T, bool Ordered = true) {
    std::string Err;
    checkRec(T, /*IsRoot=*/true, Ordered, Err);
    if constexpr (NL::is_aug && std::equality_comparable<aug_t>)
      if (Err.empty())
        aggregate(T, Err);
    return Err;
  }

private:
  /// Recomputes the aggregate of \p T from its entries, a block by scanning
  /// it and a regular node as combine(left, entry, right), and records the
  /// first node (children before parents) whose stored value differs.
  static aug_t aggregate(const node_t *T, std::string &Err) {
    if (!T)
      return Entry::aug_empty();
    aug_t Agg = Entry::aug_empty();
    if (Ops::is_flat(T)) {
      NL::scan(T, [&](const entry_t &E) {
        Agg = Entry::aug_combine(Agg, Entry::aug_from_entry(E));
        return true;
      });
    } else {
      const auto *R = static_cast<const typename NL::regular_t *>(T);
      aug_t L = aggregate(R->Left, Err), Rt = aggregate(R->Right, Err);
      Agg = Entry::aug_combine(
          Entry::aug_combine(L, Entry::aug_from_entry(R->E)), Rt);
    }
    if (Err.empty() && !(Agg == NL::aug_of(T)))
      Err = std::string(Ops::is_flat(T) ? "flat" : "regular") +
            " node of size " + std::to_string(T->Size) +
            " stores an augmented value that differs from its aggregate";
    return Agg;
  }

  static size_t checkRec(const node_t *T, bool IsRoot, bool Ordered,
                         std::string &Err) {
    if (!Err.empty() || !T)
      return 0;
    if (Ops::is_flat(T)) {
      size_t N = T->Size;
      if constexpr (Ops::kBlocked) {
        // A whole tree of at most 2B entries is one root block of any size
        // in [1, 2B]; interior blocks must hold B..2B entries.
        size_t MinSize = IsRoot ? 1 : Ops::kB;
        if (N < MinSize || N > 2 * Ops::kB)
          Err = "flat node size " + std::to_string(N) + " outside [" +
                std::to_string(MinSize) + "," + std::to_string(2 * Ops::kB) +
                "]";
      } else {
        Err = "flat node present in an unblocked (P-tree) instance";
      }
      return N;
    }
    const auto *R = static_cast<const typename Ops::NL::regular_t *>(T);
    size_t N = T->Size;
    // A regular node over more than 2B entries has two nonempty children:
    // weight balance rejects a missing one.
    if (Ops::kBlocked && N <= 2 * Ops::kB) {
      Err = "regular node of size " + std::to_string(N) +
            " should have been one flat block (B=" + std::to_string(Ops::kB) +
            ")";
      return N;
    }
    size_t Ls = checkRec(R->Left, /*IsRoot=*/false, Ordered, Err);
    size_t Rs = checkRec(R->Right, /*IsRoot=*/false, Ordered, Err);
    if (!Err.empty())
      return N;
    if (Ls + Rs + 1 != N) {
      Err = "size field " + std::to_string(N) + " != children sum " +
            std::to_string(Ls + Rs + 1);
      return N;
    }
    size_t WL = Ls + 1, WR = Rs + 1;
    if (!Ops::balanced(WL, WR)) {
      Err = "weight-balance violation: wl=" + std::to_string(WL) +
            " wr=" + std::to_string(WR);
      return N;
    }
    return N;
  }
};

/// Checks in-order key ordering for map-like trees built over \p Ops (a
/// map_ops or aug_ops instance).
template <class Ops, class EntryT> struct order_checker {
  using node_t = typename Ops::node_t;
  using entry_t = typename Ops::entry_t;

  static std::string check(const node_t *T) {
    bool First = true;
    entry_t Prev{};
    std::string Err;
    Ops::foreach_seq(T, [&](const entry_t &E) {
      if (!First && !EntryT::comp(EntryT::get_key(Prev), EntryT::get_key(E))) {
        Err = "keys not strictly increasing in order";
        return false;
      }
      Prev = E;
      First = false;
      return true;
    });
    return Err;
  }
};

} // namespace cpam

#endif // CPAM_CORE_INVARIANTS_H
