//===- primitives.h - Parallel array primitives ---------------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parallel primitives over contiguous arrays: tabulate, reduce, exclusive
/// scan, pack/filter, merge, a parallel merge sort and an integer radix
/// sort. These stand in for the ParlayLib primitives the original CPAM
/// builds on. All primitives have the standard work/span bounds
/// (reduce/scan/pack: O(n) work, O(log n) span; sort: O(n log n) work,
/// O(log^2 n) span; integer_sort: O(dn) work for d non-zero 8-bit digits).
///
//===----------------------------------------------------------------------===//

#ifndef CPAM_PARALLEL_PRIMITIVES_H
#define CPAM_PARALLEL_PRIMITIVES_H

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/parallel/scheduler.h"

namespace cpam {
namespace par {

/// Sequential cutoff below which divide-and-conquer primitives stop forking.
inline constexpr size_t kSeqThreshold = 2048;

/// Builds a vector of length \p N whose I-th element is f(I).
template <class F>
auto tabulate(size_t N, const F &f) -> std::vector<decltype(f(size_t(0)))> {
  using T = decltype(f(size_t(0)));
  std::vector<T> Out(N);
  parallel_for(0, N, [&](size_t I) { Out[I] = f(I); });
  return Out;
}

namespace detail {
template <class T, class F>
T reduce_rec(const T *A, size_t N, const T &Identity, const F &f) {
  if (N == 0)
    return Identity;
  if (N <= kSeqThreshold) {
    T Acc = A[0];
    for (size_t I = 1; I < N; ++I)
      Acc = f(Acc, A[I]);
    return Acc;
  }
  size_t Mid = N / 2;
  T L, R;
  par_do([&] { L = reduce_rec(A, Mid, Identity, f); },
         [&] { R = reduce_rec(A + Mid, N - Mid, Identity, f); });
  return f(L, R);
}

template <class F, class T, class G>
T reduce_idx_rec(size_t Lo, size_t Hi, const G &get, const T &Identity,
                 const F &f) {
  if (Lo >= Hi)
    return Identity;
  size_t N = Hi - Lo;
  if (N <= kSeqThreshold) {
    T Acc = get(Lo);
    for (size_t I = Lo + 1; I < Hi; ++I)
      Acc = f(Acc, get(I));
    return Acc;
  }
  size_t Mid = Lo + N / 2;
  T L, R;
  par_do([&] { L = reduce_idx_rec(Lo, Mid, get, Identity, f); },
         [&] { R = reduce_idx_rec(Mid, Hi, get, Identity, f); });
  return f(L, R);
}
} // namespace detail

/// Reduces A[0..N) with the associative operation \p f.
template <class T, class F>
T reduce(const T *A, size_t N, T Identity, const F &f) {
  return detail::reduce_rec(A, N, Identity, f);
}

/// Reduces get(Lo..Hi) with the associative operation \p f.
template <class T, class G, class F>
T reduce_index(size_t Lo, size_t Hi, const G &get, T Identity, const F &f) {
  return detail::reduce_idx_rec(Lo, Hi, get, Identity, f);
}

/// Exclusive prefix sums of A[0..N) into Out (may alias A); returns total.
template <class T>
T scan_exclusive(const T *A, size_t N, T *Out, T Identity = T()) {
  if (N == 0)
    return Identity;
  if (N <= kSeqThreshold) {
    T Acc = Identity;
    for (size_t I = 0; I < N; ++I) {
      T V = A[I];
      Out[I] = Acc;
      Acc = Acc + V;
    }
    return Acc;
  }
  size_t NumBlocks = (N + kSeqThreshold - 1) / kSeqThreshold;
  std::vector<T> BlockSums(NumBlocks);
  parallel_for(
      0, NumBlocks,
      [&](size_t B) {
        size_t Lo = B * kSeqThreshold, Hi = std::min(N, Lo + kSeqThreshold);
        T Acc = Identity;
        for (size_t I = Lo; I < Hi; ++I)
          Acc = Acc + A[I];
        BlockSums[B] = Acc;
      },
      1);
  T Total = Identity;
  for (size_t B = 0; B < NumBlocks; ++B) {
    T V = BlockSums[B];
    BlockSums[B] = Total;
    Total = Total + V;
  }
  parallel_for(
      0, NumBlocks,
      [&](size_t B) {
        size_t Lo = B * kSeqThreshold, Hi = std::min(N, Lo + kSeqThreshold);
        T Acc = BlockSums[B];
        for (size_t I = Lo; I < Hi; ++I) {
          T V = A[I];
          Out[I] = Acc;
          Acc = Acc + V;
        }
      },
      1);
  return Total;
}

namespace detail {
/// Blocked compaction scaffold shared by pack and pack_index: count kept
/// elements per block, prefix-sum the block offsets, then scatter.
/// EmitAt(K, I) writes the value for kept index I to output slot K.
template <class Flags, class Emit>
size_t pack_blocks(size_t N, const Flags &Keep, const Emit &EmitAt) {
  if (N == 0)
    return 0;
  if (N <= kSeqThreshold) {
    size_t K = 0;
    for (size_t I = 0; I < N; ++I)
      if (Keep(I))
        EmitAt(K++, I);
    return K;
  }
  size_t NumBlocks = (N + kSeqThreshold - 1) / kSeqThreshold;
  std::vector<size_t> Counts(NumBlocks);
  parallel_for(
      0, NumBlocks,
      [&](size_t B) {
        size_t Lo = B * kSeqThreshold, Hi = std::min(N, Lo + kSeqThreshold);
        size_t C = 0;
        for (size_t I = Lo; I < Hi; ++I)
          C += Keep(I) ? 1 : 0;
        Counts[B] = C;
      },
      1);
  size_t Total = 0;
  for (size_t B = 0; B < NumBlocks; ++B) {
    size_t C = Counts[B];
    Counts[B] = Total;
    Total += C;
  }
  parallel_for(
      0, NumBlocks,
      [&](size_t B) {
        size_t Lo = B * kSeqThreshold, Hi = std::min(N, Lo + kSeqThreshold);
        size_t K = Counts[B];
        for (size_t I = Lo; I < Hi; ++I)
          if (Keep(I))
            EmitAt(K++, I);
      },
      1);
  return Total;
}
} // namespace detail

/// Copies the elements of A[0..N) whose flag is set into Out (compacted).
/// Returns the number of elements written.
template <class T, class Flags>
size_t pack(const T *A, const Flags &Keep, size_t N, T *Out) {
  return detail::pack_blocks(N, Keep,
                             [&](size_t K, size_t I) { Out[K] = A[I]; });
}

/// Writes the indices I in [0, N) with Keep(I) set into Out (compacted);
/// returns the number written. Equivalent to pack over the identity array
/// without materializing it. \p Idx must hold every index below N.
template <class Flags, class Idx>
size_t pack_index(size_t N, const Flags &Keep, Idx *Out) {
  return detail::pack_blocks(
      N, Keep, [&](size_t K, size_t I) { Out[K] = static_cast<Idx>(I); });
}

/// filter: pack with a predicate over element values.
template <class T, class Pred>
size_t filter(const T *A, size_t N, T *Out, const Pred &P) {
  return pack(A, [&](size_t I) { return P(A[I]); }, N, Out);
}

namespace detail {
template <class T, class Less>
void merge_rec(const T *A, size_t Na, const T *B, size_t Nb, T *Out,
               const Less &Lt) {
  if (Na + Nb <= kSeqThreshold) {
    std::merge(A, A + Na, B, B + Nb, Out, Lt);
    return;
  }
  if (Na < Nb) {
    merge_rec(B, Nb, A, Na, Out, Lt);
    return;
  }
  // Split the larger input at its median; binary-search the other.
  size_t Ma = Na / 2;
  size_t Mb = std::lower_bound(B, B + Nb, A[Ma], Lt) - B;
  par_do([&] { merge_rec(A, Ma, B, Mb, Out, Lt); },
         [&] { merge_rec(A + Ma, Na - Ma, B + Mb, Nb - Mb, Out + Ma + Mb, Lt); });
}

template <class T, class Less>
void sort_rec(T *A, size_t N, T *Buf, bool OutInBuf, const Less &Lt) {
  if (N <= kSeqThreshold) {
    std::sort(A, A + N, Lt);
    if (OutInBuf)
      std::move(A, A + N, Buf);
    return;
  }
  size_t Mid = N / 2;
  par_do([&] { sort_rec(A, Mid, Buf, !OutInBuf, Lt); },
         [&] { sort_rec(A + Mid, N - Mid, Buf + Mid, !OutInBuf, Lt); });
  if (OutInBuf)
    merge_rec(A, Mid, A + Mid, N - Mid, Buf, Lt);
  else
    merge_rec(Buf, Mid, Buf + Mid, N - Mid, A, Lt);
}
} // namespace detail

/// Merges sorted A[0..Na) and B[0..Nb) into Out under \p Lt.
template <class T, class Less = std::less<T>>
void merge(const T *A, size_t Na, const T *B, size_t Nb, T *Out,
           Less Lt = Less()) {
  detail::merge_rec(A, Na, B, Nb, Out, Lt);
}

/// Parallel (unstable) comparison sort of A[0..N) in place.
template <class T, class Less = std::less<T>>
void sort(T *A, size_t N, Less Lt = Less()) {
  if (N <= kSeqThreshold) {
    std::sort(A, A + N, Lt);
    return;
  }
  std::vector<T> Buf(N);
  detail::sort_rec(A, N, Buf.data(), /*OutInBuf=*/false, Lt);
}

/// Parallel sort of a vector in place.
template <class T, class Less = std::less<T>>
void sort(std::vector<T> &V, Less Lt = Less()) {
  sort(V.data(), V.size(), Lt);
}

/// Stable LSD radix sort of the unsigned integers A[0..N) in place, one
/// pass per 8-bit digit. A digit that is zero in every key is skipped, so
/// keys that use few of their bits — packed (source, target) vertex pairs
/// of a small graph — take few passes. Each pass counts digits per block
/// of kSeqThreshold keys, prefix-sums the counts digit-major, then
/// scatters every block into its own slice of each bucket; counting and
/// scatter are parallel_for over the blocks.
template <class T> void integer_sort(T *A, size_t N) {
  static_assert(std::is_unsigned_v<T>, "integer_sort sorts unsigned keys");
  constexpr size_t kBuckets = 256;
  if (N <= kBuckets) { // Below one pass's bucket count a comparison sort wins.
    std::sort(A, A + N);
    return;
  }
  const size_t NumBlocks = (N + kSeqThreshold - 1) / kSeqThreshold;
  const T Used = reduce(A, N, T(0), [](T X, T Y) { return T(X | Y); });
  std::vector<T> Tmp(N);
  std::vector<size_t> Offsets(NumBlocks * kBuckets);
  T *Src = A, *Dst = Tmp.data();
  for (unsigned Shift = 0; Shift < 8 * sizeof(T); Shift += 8) {
    if (((Used >> Shift) & 0xff) == 0)
      continue;
    auto Digit = [Shift](T X) {
      return static_cast<size_t>((X >> Shift) & 0xff);
    };
    parallel_for(
        0, NumBlocks,
        [&](size_t B) {
          size_t *C = Offsets.data() + B * kBuckets;
          std::fill(C, C + kBuckets, size_t(0));
          for (size_t I = B * kSeqThreshold,
                      E = std::min(N, I + kSeqThreshold);
               I < E; ++I)
            ++C[Digit(Src[I])];
        },
        1);
    size_t Sum = 0;
    for (size_t D = 0; D < kBuckets; ++D)
      for (size_t B = 0; B < NumBlocks; ++B) {
        size_t C = Offsets[B * kBuckets + D];
        Offsets[B * kBuckets + D] = Sum;
        Sum += C;
      }
    parallel_for(
        0, NumBlocks,
        [&](size_t B) {
          size_t *C = Offsets.data() + B * kBuckets;
          for (size_t I = B * kSeqThreshold,
                      E = std::min(N, I + kSeqThreshold);
               I < E; ++I)
            Dst[C[Digit(Src[I])]++] = Src[I];
        },
        1);
    std::swap(Src, Dst);
  }
  if (Src != A)
    std::copy(Src, Src + N, A);
}

/// integer_sort of a vector in place.
template <class T> void integer_sort(std::vector<T> &V) {
  integer_sort(V.data(), V.size());
}

/// Removes adjacent duplicates from sorted A (by Eq); returns new length.
template <class T, class Eq = std::equal_to<T>>
size_t unique(T *A, size_t N, Eq Equal = Eq()) {
  if (N == 0)
    return 0;
  if (N <= kSeqThreshold)
    return std::unique(A, A + N, Equal) - A;
  std::vector<T> Tmp(N);
  size_t K = pack(
      A, [&](size_t I) { return I == 0 || !Equal(A[I - 1], A[I]); }, N,
      Tmp.data());
  parallel_for(0, K, [&](size_t I) { A[I] = Tmp[I]; });
  return K;
}

} // namespace par
} // namespace cpam

#endif // CPAM_PARALLEL_PRIMITIVES_H
