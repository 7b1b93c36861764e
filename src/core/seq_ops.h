//===- seq_ops.h - Sequence operations over PaC-trees ----------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Sequence interface of Table 1: positional operations over PaC-trees
/// whose entries carry no ordering invariant. Provides split_at/subseq,
/// take/drop, append (O(log n + B) via join), reverse, find_first and
/// is_sorted; nth, map, reduce and filter are tree_ops::select, map,
/// map_reduce and filter, shared with maps and sets. These back the Fig. 2
/// sequence microbenchmarks. Like the map operations, every function that
/// consumes a tree releases all of it when an allocation throws.
///
//===----------------------------------------------------------------------===//

#ifndef CPAM_CORE_SEQ_OPS_H
#define CPAM_CORE_SEQ_OPS_H

#include "src/core/basic_tree.h"
#include "src/parallel/primitives.h"

namespace cpam {

template <class Entry, template <class> class EncoderT, int BlockSizeB>
struct seq_ops : tree_ops<Entry, EncoderT, BlockSizeB> {
  using TO = tree_ops<Entry, EncoderT, BlockSizeB>;
  using NL = typename TO::NL;
  using node_t = typename TO::node_t;
  using entry_t = typename TO::entry_t;
  using temp_buf = typename TO::temp_buf;
  using node_guard = typename TO::node_guard;
  using exposed = typename TO::exposed;
  using TO::dec;
  using TO::expose;
  using TO::flatten;
  using TO::from_array_move;
  using TO::is_flat;
  using TO::join;
  using TO::join2;
  using TO::size;

  /// Splits into (first I elements, the rest). Consumes \p T.
  static std::pair<node_t *, node_t *> split_at(node_t *T, size_t I) {
    if (!T)
      return {nullptr, nullptr};
    if (I == 0)
      return {nullptr, T};
    if (I >= size(T))
      return {T, nullptr};
    if (is_flat(T)) {
      auto S = TO::cut(T, I, false);
      return {S.L, S.R};
    }
    exposed X = expose(T);
    size_t Ls = size(X.L);
    if (I <= Ls) {
      node_guard GR(X.R);
      auto [LL, LR] = split_at(X.L, I);
      node_guard GLL(LL);
      node_t *R = join(LR, std::move(X.E), GR.release());
      return {GLL.release(), R};
    }
    node_guard GL(X.L);
    auto [RL, RR] = split_at(X.R, I - Ls - 1);
    node_guard GRR(RR);
    node_t *L = join(GL.release(), std::move(X.E), RL);
    return {L, GRR.release()};
  }

  /// First \p I elements. Consumes \p T. O(log n + B) work.
  static node_t *take(node_t *T, size_t I) {
    auto [L, R] = split_at(T, I);
    dec(R);
    return L;
  }

  /// All but the first \p I elements. Consumes \p T.
  static node_t *drop(node_t *T, size_t I) {
    auto [L, R] = split_at(T, I);
    dec(L);
    return R;
  }

  /// Elements [From, To). Consumes \p T.
  static node_t *subseq(node_t *T, size_t From, size_t To) {
    return take(drop(T, From), To > From ? To - From : 0);
  }

  /// Concatenation. Consumes both. O(log n + B) work — the headline win
  /// over array sequences in Fig. 2 (arrays need O(n)).
  static node_t *append(node_t *L, node_t *R) {
    if (is_flat(L) && is_flat(R)) {
      // Flat x flat: flatten both blocks into one buffer and build from it,
      // one encode per entry, instead of splitting L's last entry off and
      // folding the pieces again in join2.
      size_t Nl = size(L), N = Nl + size(R);
      node_guard GL(L), GR(R); // Cover a throw from the buffer allocation.
      temp_buf Buf(N);
      flatten(GL.release(), Buf.data());
      flatten(GR.release(), Buf.data() + Nl);
      Buf.set_count(N);
      return from_array_move(Buf.data(), N);
    }
    return join2(L, R);
  }

  /// Reversed copy. Consumes \p T. O(n) work, O(log n) span.
  static node_t *reverse(node_t *T) {
    size_t N = size(T);
    if (N <= 1)
      return T;
    temp_buf Buf(T);
    entry_t *A = Buf.data();
    par::parallel_for(0, N / 2, [&](size_t I) {
      std::swap(A[I], A[N - 1 - I]);
    });
    return from_array_move(A, N);
  }

  /// Index of the first element satisfying \p P, or size(T) if none.
  /// O(k) work where k is the returned index (FindFirst in Table 1).
  template <class Pred>
  static size_t find_first(const node_t *T, const Pred &P) {
    size_t Index = 0;
    return find_first_rec(T, P, Index) ? Index : size(T);
  }

  /// Monotone check: true iff the sequence is sorted under \p Less.
  /// Implemented as a tree reduction carrying (first, last, ok).
  template <class Less>
  static bool is_sorted(const node_t *T, const Less &Lt) {
    struct Summary {
      bool Ok = true;
      bool Empty = true;
      entry_t First{}, Last{};
    };
    auto Single = [](const entry_t &E) {
      Summary S;
      S.Ok = true;
      S.Empty = false;
      S.First = S.Last = E;
      return S;
    };
    auto Merge = [&Lt](const Summary &A, const Summary &B) {
      if (A.Empty)
        return B;
      if (B.Empty)
        return A;
      Summary S;
      S.Empty = false;
      S.Ok = A.Ok && B.Ok && !Lt(B.First, A.Last);
      S.First = A.First;
      S.Last = B.Last;
      return S;
    };
    return TO::map_reduce(T, Single, Summary{}, Merge).Ok;
  }

private:
  template <class Pred>
  static bool find_first_rec(const node_t *T, const Pred &P, size_t &Index) {
    if (!T)
      return false;
    if (is_flat(T))
      return !NL::scan(T, [&](const entry_t &E) {
        if (P(E))
          return false;
        ++Index;
        return true;
      });
    const auto *R = static_cast<const typename NL::regular_t *>(T);
    if (find_first_rec(R->Left, P, Index))
      return true;
    if (P(R->E))
      return true;
    ++Index;
    return find_first_rec(R->Right, P, Index);
  }
};

} // namespace cpam

#endif // CPAM_CORE_SEQ_OPS_H
