//===- gamma_encoder.h - Elias gamma difference encoding --------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A user-defined encoding scheme demonstrating the Sec. 8 extension point:
/// difference encoding with Elias gamma codes instead of byte codes. Gamma
/// codes a positive integer x as (unary length of x) ++ (binary remainder):
/// 2*floor(log2 x) + 1 bits. Denser than byte codes for tiny deltas (a
/// delta of 1 costs 1 bit vs 8), slower to decode — the tradeoff the paper
/// cites for preferring byte codes by default [49].
///
/// Set-only (no values); keys within a block are strictly increasing.
///
//===----------------------------------------------------------------------===//

#ifndef CPAM_ENCODING_GAMMA_ENCODER_H
#define CPAM_ENCODING_GAMMA_ENCODER_H

#include <cassert>
#include <type_traits>

#include "src/encoding/varint.h"

namespace cpam {

namespace detail {

/// Append-only MSB-first bit writer over a byte buffer.
class BitWriter {
public:
  explicit BitWriter(uint8_t *Out) : Out(Out) {}
  /// One past the last byte written (a partial byte counts whole).
  uint8_t *end() const { return Out + Byte + (BitPos != 0); }
  void put(uint64_t Bits, int Count) { // Writes the low Count bits, MSB first.
    for (int I = Count - 1; I >= 0; --I) {
      if (BitPos == 0)
        Out[Byte] = 0;
      if ((Bits >> I) & 1)
        Out[Byte] |= static_cast<uint8_t>(0x80u >> BitPos);
      if (++BitPos == 8) {
        BitPos = 0;
        ++Byte;
      }
    }
  }

private:
  uint8_t *Out;
  size_t Byte = 0;
  int BitPos = 0;
};

/// MSB-first bit reader.
class BitReader {
public:
  explicit BitReader(const uint8_t *In) : In(In) {}
  int bit() {
    int B = (In[Byte] >> (7 - BitPos)) & 1;
    if (++BitPos == 8) {
      BitPos = 0;
      ++Byte;
    }
    return B;
  }
  uint64_t bits(int Count) {
    uint64_t X = 0;
    for (int I = 0; I < Count; ++I)
      X = (X << 1) | static_cast<uint64_t>(bit());
    return X;
  }

private:
  const uint8_t *In;
  size_t Byte = 0;
  int BitPos = 0;
};

inline int bitLength(uint64_t X) {
  assert(X > 0 && "gamma codes encode positive integers only");
  return 64 - __builtin_clzll(X);
}

/// Bits needed to gamma-code X (>= 1).
inline size_t gammaBits(uint64_t X) {
  return 2 * static_cast<size_t>(bitLength(X)) - 1;
}

inline void gammaPut(BitWriter &W, uint64_t X) {
  int L = bitLength(X);
  W.put(0, L - 1);          // Unary prefix: L-1 zeros.
  W.put(X, L);              // X itself starts with a 1 bit.
}

inline uint64_t gammaGet(BitReader &R) {
  int Zeros = 0;
  while (R.bit() == 0)
    ++Zeros;
  uint64_t X = 1;
  if (Zeros > 0)
    X = (uint64_t(1) << Zeros) | R.bits(Zeros);
  return X;
}

} // namespace detail

/// Difference encoding with Elias gamma codes (sets of unsigned integers).
/// Layout: varint(first key), then gamma(delta) for each following key,
/// padded to a byte boundary.
template <class Entry> struct gamma_encoder {
  using entry_t = typename Entry::entry_t;
  using key_t = typename Entry::key_t;
  static_assert(!Entry::has_val, "gamma_encoder supports sets only");
  static_assert(std::is_integral_v<key_t> && std::is_unsigned_v<key_t>,
                "gamma difference encoding requires unsigned integer keys");
  static constexpr bool stages_entries = false;

  static size_t encoded_size(const entry_t *A, size_t N) {
    if (N == 0)
      return 0;
    size_t Bits = 0;
    for (size_t I = 1; I < N; ++I) {
      uint64_t Delta = static_cast<uint64_t>(Entry::get_key(A[I])) -
                       static_cast<uint64_t>(Entry::get_key(A[I - 1]));
      assert(Delta > 0 && "block keys must be strictly increasing");
      Bits += detail::gammaBits(Delta);
    }
    return varint_size(static_cast<uint64_t>(Entry::get_key(A[0]))) +
           (Bits + 7) / 8;
  }

  /// Bound on encoded_size for any N entries: a full-width first key, then
  /// a gamma code of a full-width delta (2 * key bits - 1 bits) per entry.
  static constexpr size_t max_bytes(size_t N) {
    constexpr size_t DeltaBits = 16 * sizeof(key_t) - 1;
    return N == 0 ? 0
                  : varint_max_size<key_t>() + ((N - 1) * DeltaBits + 7) / 8;
  }

  static uint8_t *encode(entry_t *A, size_t N, uint8_t *Out) {
    if (N == 0)
      return Out;
    Out = varint_encode(static_cast<uint64_t>(Entry::get_key(A[0])), Out);
    detail::BitWriter W(Out);
    for (size_t I = 1; I < N; ++I) {
      uint64_t Delta = static_cast<uint64_t>(Entry::get_key(A[I])) -
                       static_cast<uint64_t>(Entry::get_key(A[I - 1]));
      detail::gammaPut(W, Delta);
    }
    return W.end();
  }

  template <class F>
  static bool for_each_while(const uint8_t *In, size_t N, F &&f) {
    if (N == 0)
      return true;
    uint64_t Prev;
    In = varint_decode(In, Prev);
    if (!f(static_cast<key_t>(Prev)))
      return false;
    detail::BitReader R(In);
    for (size_t I = 1; I < N; ++I) {
      Prev += detail::gammaGet(R);
      if (!f(static_cast<key_t>(Prev)))
        return false;
    }
    return true;
  }

  static void decode(const uint8_t *In, size_t N, entry_t *Out) {
    size_t I = 0;
    for_each_while(In, N, [&](const entry_t &E) {
      ::new (static_cast<void *>(Out + I++)) entry_t(E);
      return true;
    });
  }

  static void decode_move(uint8_t *In, size_t N, entry_t *Out) {
    decode(In, N, Out);
  }

  static void destroy(uint8_t *, size_t) {}
};

} // namespace cpam

#endif // CPAM_ENCODING_GAMMA_ENCODER_H
