//===- primitives.h - Parallel array primitives ---------------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parallel primitives over contiguous arrays: tabulate, reduce, exclusive
/// scan, pack/filter, merge and one stable sort, a radix sort on integer
/// keys and a merge sort for every other order. These stand in for the
/// ParlayLib primitives the original CPAM builds on. Work/span bounds:
/// reduce/scan/pack O(n) work, O(log n) span; merge O(n) work, O(log^2 n)
/// span; the merge sort O(n log n) work, O(log^3 n) span; radix_sort O(dn)
/// work for d digits, one per 8 of the bits that differ between keys, and
/// O(d log n + dn / 2^14) span above its sequential leaves of 256 KiB (the
/// n / 2^14 term is the sequential step of each split's prefix sum).
///
//===----------------------------------------------------------------------===//

#ifndef CPAM_PARALLEL_PRIMITIVES_H
#define CPAM_PARALLEL_PRIMITIVES_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
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
  T L = Identity, R = Identity;
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
  T L = Identity, R = Identity;
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

/// Unsigned integer types: the keys radix_sort orders.
template <class T>
inline constexpr bool is_radix_key_v =
    std::is_integral_v<T> && std::is_unsigned_v<T> && !std::is_same_v<T, bool>;

namespace detail {
/// Element types that par::sort orders by radix under std::less: unsigned
/// integers, and pairs of unsigned integers of at most 32 bits.
template <class T>
struct radix_ordered : std::bool_constant<is_radix_key_v<T>> {};
template <class A, class B>
struct radix_ordered<std::pair<A, B>>
    : std::bool_constant<is_radix_key_v<A> && is_radix_key_v<B> &&
                         sizeof(A) <= 4 && sizeof(B) <= 4> {};

/// Raw storage for N elements of T, never initialized: for scratch whose
/// every element is written before it is read.
template <class T> class uninit_array {
public:
  explicit uninit_array(size_t N) : N(N), P(std::allocator<T>().allocate(N)) {}
  ~uninit_array() { std::allocator<T>().deallocate(P, N); }
  uninit_array(const uninit_array &) = delete;
  uninit_array &operator=(const uninit_array &) = delete;
  T *data() const { return P; }

private:
  size_t N;
  T *P;
};

/// Scratch array for a sort's out-of-place passes. Element types that may
/// live in raw storage (trivially copy-constructible and destructible, as
/// integers and pairs of them are) skip the initialization a std::vector
/// does, a sequential pass over the whole array; others are
/// default-constructed.
template <class T>
using sort_scratch =
    std::conditional_t<std::is_trivially_copy_constructible_v<T> &&
                           std::is_trivially_destructible_v<T>,
                       uninit_array<T>, std::vector<T>>;

/// Stable parallel merge: on equal elements A's come first. The larger run
/// is split at its median and the other binary-searched, with lower_bound
/// when A is split and upper_bound when B is, so every element of A that
/// ties with one of B lands on B's left.
template <class T, class Less>
void merge_rec(const T *A, size_t Na, const T *B, size_t Nb, T *Out,
               const Less &Lt) {
  if (Na + Nb <= kSeqThreshold) {
    std::merge(A, A + Na, B, B + Nb, Out, Lt);
    return;
  }
  size_t Ma, Mb;
  if (Na >= Nb) {
    Ma = Na / 2;
    Mb = std::lower_bound(B, B + Nb, A[Ma], Lt) - B;
  } else {
    Mb = Nb / 2;
    Ma = std::upper_bound(A, A + Na, B[Mb], Lt) - A;
  }
  par_do([&] { merge_rec(A, Ma, B, Mb, Out, Lt); },
         [&] { merge_rec(A + Ma, Na - Ma, B + Mb, Nb - Mb, Out + Ma + Mb, Lt); });
}

template <class T, class Less>
void sort_rec(T *A, size_t N, T *Buf, bool OutInBuf, const Less &Lt) {
  if (N <= kSeqThreshold) {
    std::stable_sort(A, A + N, Lt);
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

/// Stable parallel merge sort of A[0..N) in place under \p Lt.
template <class T, class Less>
void merge_sort(T *A, size_t N, const Less &Lt) {
  if (N <= kSeqThreshold) {
    std::stable_sort(A, A + N, Lt);
    return;
  }
  sort_scratch<T> Buf(N);
  sort_rec(A, N, Buf.data(), /*OutInBuf=*/false, Lt);
}
} // namespace detail

/// Merges sorted A[0..Na) and B[0..Nb) into Out under \p Lt; stable: on
/// equal elements A's come first.
template <class T, class Less = std::less<T>>
void merge(const T *A, size_t Na, const T *B, size_t Nb, T *Out,
           Less Lt = Less()) {
  detail::merge_rec(A, Na, B, Nb, Out, Lt);
}

namespace detail {
/// Buckets of one radix pass: digits are 8 bits wide.
inline constexpr size_t kRadixBuckets = 256;
/// Elements of at most this many bytes in all sort by sequential LSD
/// passes, which then stay in a core's cache. 2^16 bytes was slower on
/// 16-byte entries; 2^17 to 2^19 measured alike.
inline constexpr size_t kRadixLeafBytes = size_t(1) << 18;

/// Sequential stable LSD radix sort of A[0..N), N >= 1, by the digits of
/// the bits set in Varying: each digit starts at the lowest such bit the
/// digits before it left. The result lands in B if \p ToB, else in A; the
/// other array is scratch. One read counts every digit, since a pass
/// permutes the elements but keeps each digit's counts, and a digit that
/// is the same in all N elements costs no pass.
template <class T, class KeyF, class K>
void radix_leaf(T *A, T *B, size_t N, const KeyF &Key, K Varying, bool ToB) {
  constexpr unsigned kBits = 8 * sizeof(K);
  unsigned Shifts[sizeof(K)];
  unsigned NumDigits = 0;
  while (Varying != 0) {
    unsigned S = static_cast<unsigned>(std::countr_zero(Varying));
    Shifts[NumDigits++] = S;
    Varying = S + 8 >= kBits ? K(0) : K(Varying & (~K(0) << (S + 8)));
  }
  size_t Count[sizeof(K)][kRadixBuckets];
  std::fill_n(&Count[0][0], NumDigits * kRadixBuckets, size_t(0));
  for (size_t I = 0; I < N; ++I) {
    K X = Key(A[I]);
    for (unsigned D = 0; D < NumDigits; ++D)
      ++Count[D][(X >> Shifts[D]) & 0xff];
  }
  T *Src = A, *Dst = B;
  for (unsigned D = 0; D < NumDigits; ++D) {
    const unsigned S = Shifts[D];
    size_t *C = Count[D];
    if (C[(Key(Src[0]) >> S) & 0xff] == N)
      continue;
    for (size_t Sum = 0, V = 0; V < kRadixBuckets; ++V)
      Sum += std::exchange(C[V], Sum);
    for (size_t I = 0; I < N; ++I)
      Dst[C[(Key(Src[I]) >> S) & 0xff]++] = std::move(Src[I]);
    std::swap(Src, Dst);
  }
  T *Want = ToB ? B : A;
  if (Src != Want)
    std::move(Src, Src + N, Want);
}

/// Stable radix sort of A[0..N), N >= 1, by the bits set in Varying, with
/// the result in B if \p ToB, else in A. Above kRadixLeafBytes one
/// parallel pass splits the elements by their top digit, the 8 bits that
/// end at Varying's highest bit, into 256 buckets in B; the buckets, each
/// holding its elements in input order, then sort on the lower bits in
/// parallel. The pass counts digits per block of kSeqThreshold elements,
/// prefix-sums the counts digit-major, then scatters every block into its
/// own slice of each bucket. Split first, the later passes run in cache:
/// LSD passes over the whole input each scatter to 256 places in memory,
/// and at 64-bit keys that made them slower than the merge sort.
template <class T, class KeyF, class K>
void radix_rec(T *A, T *B, size_t N, const KeyF &Key, K Varying, bool ToB) {
  if (N * sizeof(T) <= kRadixLeafBytes || Varying == 0) {
    radix_leaf(A, B, N, Key, Varying, ToB);
    return;
  }
  const unsigned Top = static_cast<unsigned>(std::bit_width(Varying)) - 1;
  const unsigned Shift = Top < 8 ? 0 : Top - 7;
  const K Lower = K(Varying & ((K(1) << Shift) - 1));
  auto Digit = [&Key, Shift](const T &X) {
    return static_cast<size_t>((Key(X) >> Shift) & 0xff);
  };
  size_t Bounds[kRadixBuckets + 1];
  {
    const size_t NumBlocks = (N + kSeqThreshold - 1) / kSeqThreshold;
    // Off[D * NumBlocks + Blk]: block Blk's count of digit D, then its
    // first output slot for that digit.
    uninit_array<size_t> Offsets(kRadixBuckets * NumBlocks);
    size_t *Off = Offsets.data();
    parallel_for(
        0, NumBlocks,
        [&](size_t Blk) {
          size_t C[kRadixBuckets] = {};
          for (size_t I = Blk * kSeqThreshold,
                      E = std::min(N, I + kSeqThreshold);
               I < E; ++I)
            ++C[Digit(A[I])];
          for (size_t D = 0; D < kRadixBuckets; ++D)
            Off[D * NumBlocks + Blk] = C[D];
        },
        1);
    scan_exclusive(Off, kRadixBuckets * NumBlocks, Off);
    parallel_for(
        0, NumBlocks,
        [&](size_t Blk) {
          size_t C[kRadixBuckets];
          for (size_t D = 0; D < kRadixBuckets; ++D)
            C[D] = Off[D * NumBlocks + Blk];
          for (size_t I = Blk * kSeqThreshold,
                      E = std::min(N, I + kSeqThreshold);
               I < E; ++I)
            B[C[Digit(A[I])]++] = std::move(A[I]);
        },
        1);
    for (size_t D = 0; D < kRadixBuckets; ++D)
      Bounds[D] = Off[D * NumBlocks];
    Bounds[kRadixBuckets] = N;
  }
  parallel_for(
      0, kRadixBuckets,
      [&](size_t D) {
        size_t Lo = Bounds[D], Hi = Bounds[D + 1];
        if (Hi > Lo)
          radix_rec(B + Lo, A + Lo, Hi - Lo, Key, Lower, !ToB);
      },
      1);
}
} // namespace detail

/// Stable radix sort of A[0..N) in place by the unsigned key Key(A[I]),
/// on 8-bit digits of only the bits that differ between keys (OR ^ AND
/// over all keys), so keys that use few of their bits, such as packed
/// (source, target) pairs of a small graph, take few passes. Inputs above
/// kRadixLeafBytes first split in parallel by their top digit; each part
/// then takes sequential LSD passes in cache. Up to 256 elements take a
/// stable comparison sort instead.
template <class T, class KeyF>
void radix_sort(T *A, size_t N, const KeyF &Key) {
  using K = std::decay_t<decltype(Key(*A))>;
  static_assert(is_radix_key_v<K>, "radix keys are unsigned");
  if (N <= detail::kRadixBuckets) {
    std::stable_sort(A, A + N,
                     [&](const T &X, const T &Y) { return Key(X) < Key(Y); });
    return;
  }
  struct or_and {
    K Or, And;
  };
  const or_and M = reduce_index(
      size_t(0), N,
      [&](size_t I) {
        K X = Key(A[I]);
        return or_and{X, X};
      },
      or_and{K(0), K(~K(0))},
      [](or_and X, or_and Y) {
        return or_and{K(X.Or | Y.Or), K(X.And & Y.And)};
      });
  const K Varying = K(M.Or ^ M.And);
  if (Varying == 0)
    return; // All keys are equal: a stable sort moves nothing.
  detail::sort_scratch<T> Tmp(N);
  detail::radix_rec(A, Tmp.data(), N, Key, Varying, /*ToB=*/false);
}

/// Parallel stable sort of A[0..N) in place. Under std::less, unsigned
/// integers and pairs of unsigned integers of at most 32 bits take the
/// radix sort, on the integer itself or on first << 32 | second, which
/// order alike; every other element type or order takes a merge sort with
/// O(n log n) work and O(log^3 n) span.
template <class T, class Less = std::less<T>>
void sort(T *A, size_t N, Less Lt = Less()) {
  if constexpr (std::is_same_v<Less, std::less<T>> &&
                detail::radix_ordered<T>::value)
    radix_sort(A, N, [](const T &X) {
      if constexpr (is_radix_key_v<T>)
        return X;
      else
        return uint64_t(X.first) << 32 | X.second;
    });
  else
    detail::merge_sort(A, N, Lt);
}

/// Parallel stable sort of a vector in place.
template <class T, class Less = std::less<T>>
void sort(std::vector<T> &V, Less Lt = Less()) {
  sort(V.data(), V.size(), Lt);
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
