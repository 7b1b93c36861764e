//===- array_seq.h - Flat-array sequence baseline (ParallelSTL role) -------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flat-array sequence baseline playing ParallelSTL's role in Fig. 2
/// (see README's "Datasets" section): the same primitives as pam_seq
/// implemented over a contiguous array with our parallel runtime. Arrays win on nth (O(1)
/// vs O(log n + B)) and lose catastrophically on append (O(n) copy vs
/// O(log n + B) join) — exactly the tradeoff Fig. 2 reports.
///
//===----------------------------------------------------------------------===//

#ifndef CPAM_BASELINES_ARRAY_SEQ_H
#define CPAM_BASELINES_ARRAY_SEQ_H

#include <vector>

#include "src/parallel/primitives.h"

namespace cpam {

template <class T> class array_seq {
public:
  array_seq() = default;
  explicit array_seq(std::vector<T> V) : Data(std::move(V)) {}

  size_t size() const { return Data.size(); }
  size_t size_in_bytes() const { return Data.capacity() * sizeof(T); }

  /// O(1) random access (the array advantage in Fig. 2's "select").
  T nth(size_t I) const { return Data[I]; }

  template <class Combine> T reduce(T Identity, const Combine &Cmb) const {
    return par::reduce(Data.data(), Data.size(), Identity, Cmb);
  }

  template <class Pred> array_seq filter(const Pred &P) const {
    std::vector<T> Out(Data.size());
    size_t K = par::filter(Data.data(), Data.size(), Out.data(), P);
    Out.resize(K);
    return array_seq(std::move(Out));
  }

  template <class F> array_seq map(const F &f) const {
    std::vector<T> Out(Data.size());
    par::parallel_for(0, Data.size(), [&](size_t I) { Out[I] = f(Data[I]); });
    return array_seq(std::move(Out));
  }

  array_seq reverse() const {
    std::vector<T> Out(Data.size());
    size_t N = Data.size();
    par::parallel_for(0, N, [&](size_t I) { Out[I] = Data[N - 1 - I]; });
    return array_seq(std::move(Out));
  }

  template <class Less = std::less<T>>
  bool is_sorted(const Less &Lt = Less()) const {
    if (Data.empty())
      return true;
    return par::reduce_index(
        1, Data.size(),
        [&](size_t I) { return !Lt(Data[I], Data[I - 1]); }, true,
        [](bool A, bool C) { return A && C; });
  }

  template <class Pred> size_t find_first(const Pred &P) const {
    // Blocked scan with early exit, as ParallelSTL's find_if does.
    for (size_t Lo = 0; Lo < Data.size(); Lo += 65536) {
      size_t Hi = std::min(Data.size(), Lo + 65536);
      size_t Found = par::reduce_index(
          Lo, Hi, [&](size_t I) { return P(Data[I]) ? I : Data.size(); },
          Data.size(),
          [](size_t A, size_t C) { return A < C ? A : C; });
      if (Found != Data.size())
        return Found;
    }
    return Data.size();
  }

  array_seq subseq(size_t From, size_t To) const {
    std::vector<T> Out(To - From);
    par::parallel_for(From, To, [&](size_t I) { Out[I - From] = Data[I]; });
    return array_seq(std::move(Out));
  }

  /// O(n) copy — the array disadvantage in Fig. 2's "append".
  static array_seq append(const array_seq &A, const array_seq &B) {
    std::vector<T> Out(A.size() + B.size());
    par::parallel_for(0, A.size(), [&](size_t I) { Out[I] = A.Data[I]; });
    par::parallel_for(0, B.size(),
                      [&](size_t I) { Out[A.size() + I] = B.Data[I]; });
    return array_seq(std::move(Out));
  }

  const std::vector<T> &data() const { return Data; }

private:
  std::vector<T> Data;
};

} // namespace cpam

#endif // CPAM_BASELINES_ARRAY_SEQ_H
