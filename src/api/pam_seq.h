//===- pam_seq.h - Purely-functional sequence ------------------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#ifndef CPAM_API_PAM_SEQ_H
#define CPAM_API_PAM_SEQ_H

#include <vector>

#include "src/core/invariants.h"
#include "src/core/seq_ops.h"
#include "src/encoding/raw_encoder.h"

namespace cpam {

/// A purely-functional sequence of T backed by a PaC-tree (Table 1's
/// Sequence interface). Sequences are positional: elements carry no
/// ordering invariant. Copies are O(1) snapshots. Unlike flat arrays,
/// append and take/drop/subseq cost O(log n + B) (Fig. 2's append result).
template <class T, int BlockSizeB = 128,
          template <class> class Enc = raw_encoder>
class pam_seq {
  using Entry = set_entry<T>;
  using Ops = seq_ops<Entry, Enc, BlockSizeB>;

public:
  using value_type = T;
  using node_t = typename Ops::node_t;
  using ops = Ops;

  pam_seq() = default;
  pam_seq(const pam_seq &O) : Root(Ops::inc(O.Root)) {}
  pam_seq(pam_seq &&O) noexcept : Root(O.Root) { O.Root = nullptr; }
  pam_seq &operator=(const pam_seq &O) {
    if (this != &O) {
      Ops::dec(Root);
      Root = Ops::inc(O.Root);
    }
    return *this;
  }
  pam_seq &operator=(pam_seq &&O) noexcept {
    if (this != &O) {
      Ops::dec(Root);
      Root = O.Root;
      O.Root = nullptr;
    }
    return *this;
  }
  ~pam_seq() { Ops::dec(Root); }

  /// Builds from an array, preserving order. O(n) work, O(log n) span.
  explicit pam_seq(const std::vector<T> &V)
      : Root(Ops::from_array(V.data(), V.size())) {}

  /// Builds a sequence of length N with elements f(0..N).
  template <class F> static pam_seq tabulate(size_t N, const F &f) {
    std::vector<T> V(N);
    par::parallel_for(0, N, [&](size_t I) { V[I] = f(I); });
    return pam_seq(Ops::from_array_move(V.data(), N));
  }

  size_t size() const { return Ops::size(Root); }
  bool empty() const { return Root == nullptr; }
  size_t size_in_bytes() const { return Ops::size_in_bytes(Root); }
  size_t node_count() const { return Ops::node_count(Root); }

  /// Element at index I. O(log n + B) work (vs O(1) for arrays — the nth
  /// tradeoff discussed with Fig. 2).
  T nth(size_t I) const { return Ops::select(Root, I); }

  pam_seq take(size_t N) const { return pam_seq(Ops::take(copy_root(), N)); }
  pam_seq drop(size_t N) const { return pam_seq(Ops::drop(copy_root(), N)); }
  pam_seq subseq(size_t From, size_t To) const {
    return pam_seq(Ops::subseq(copy_root(), From, To));
  }
  /// Concatenation in O(log n + B).
  static pam_seq append(const pam_seq &A, const pam_seq &B) {
    return pam_seq(Ops::append(A.copy_root(), B.copy_root()));
  }
  pam_seq reverse() const { return pam_seq(Ops::reverse(copy_root())); }
  template <class F> pam_seq map(const F &f) const {
    return pam_seq(Ops::map(copy_root(), f));
  }
  template <class Pred> pam_seq filter(const Pred &P) const {
    return pam_seq(Ops::filter(copy_root(), P));
  }
  template <class F, class T2, class Combine>
  T2 map_reduce(const F &f, T2 Identity, const Combine &Cmb) const {
    return Ops::map_reduce(Root, f, Identity, Cmb);
  }
  /// Sum-style reduction with an associative combiner.
  template <class Combine> T reduce(T Identity, const Combine &Cmb) const {
    return Ops::map_reduce(Root, [](const T &X) { return X; }, Identity,
                           Cmb);
  }
  /// Index of the first element satisfying P, or size() if none.
  template <class Pred> size_t find_first(const Pred &P) const {
    return Ops::find_first(Root, P);
  }
  template <class Less = std::less<T>>
  bool is_sorted(const Less &Lt = Less()) const {
    return Ops::is_sorted(Root, Lt);
  }

  std::vector<T> to_vector() const {
    std::vector<T> Out(size());
    Ops::to_array(Root, Out.data());
    return Out;
  }

  /// Empty string if Def. 4.1 structural invariants hold.
  std::string check_invariants() const {
    return invariant_checker<Ops>::check(Root);
  }

  node_t *root() const { return Root; }

private:
  explicit pam_seq(node_t *R) : Root(R) {}
  node_t *copy_root() const { return Ops::inc(Root); }
  node_t *Root = nullptr;
};

} // namespace cpam

#endif // CPAM_API_PAM_SEQ_H
