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
#include <cstring>
#include <type_traits>

#include "src/encoding/varint.h"

namespace cpam {

namespace detail {

/// Append-only MSB-first bit writer over a byte buffer.
class BitWriter {
public:
  explicit BitWriter(uint8_t *Out) : Out(Out) {}
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
  static constexpr bool can_be_parallel = false;

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

  static void encode(entry_t *A, size_t N, uint8_t *Out) {
    if (N == 0)
      return;
    Out = varint_encode(static_cast<uint64_t>(Entry::get_key(A[0])), Out);
    detail::BitWriter W(Out);
    for (size_t I = 1; I < N; ++I) {
      uint64_t Delta = static_cast<uint64_t>(Entry::get_key(A[I])) -
                       static_cast<uint64_t>(Entry::get_key(A[I - 1]));
      detail::gammaPut(W, Delta);
    }
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

  /// Streaming reader: varint first key, then one gamma code per advance.
  class read_cursor {
  public:
    read_cursor(const uint8_t *In, size_t N, bool /*Consume*/ = false)
        : Remaining(N) {
      if (Remaining) {
        In = varint_decode(In, Prev);
        R = detail::BitReader(In);
        Cur = static_cast<key_t>(Prev);
      }
    }
    read_cursor(const read_cursor &) = delete;
    read_cursor &operator=(const read_cursor &) = delete;

    bool done() const { return Remaining == 0; }
    size_t remaining() const { return Remaining; }
    const entry_t &peek() const {
      assert(Remaining && "peek past the end of the block");
      return Cur;
    }
    entry_t take() {
      entry_t E = Cur;
      skip();
      return E;
    }
    void skip() {
      assert(Remaining && "skip past the end of the block");
      if (--Remaining) {
        Prev += detail::gammaGet(R);
        Cur = static_cast<key_t>(Prev);
      }
    }
    void release() { Remaining = 0; }

  private:
    size_t Remaining;
    uint64_t Prev = 0;
    detail::BitReader R{nullptr};
    entry_t Cur{};
  };

  /// Streaming writer: gamma-codes each delta as it is pushed; bytes() is
  /// the exact padded payload size so far and cut() is a single memcpy.
  /// cut() seals the bytes pushed so far (padding the gamma stream to a
  /// byte boundary) and restarts at the buffer base: the key after a cut is
  /// varint-coded full-width, so every sealed chunk decodes independently.
  class write_cursor {
  public:
    static constexpr bool stages_entries = false;
    /// Worst case: 10-byte varint first key, then up to 127 gamma bits
    /// (= 16 bytes) per delta.
    static size_t max_bytes(size_t MaxN) { return 10 + 16 * MaxN; }

    write_cursor(uint8_t *Buf, size_t /*MaxN*/) : Base(Buf) {}
    write_cursor(const write_cursor &) = delete;
    write_cursor &operator=(const write_cursor &) = delete;

    void push(entry_t E) {
      uint64_t K = static_cast<uint64_t>(Entry::get_key(E));
      if (N == 0) {
        uint8_t *Out = varint_encode(K, Base);
        VarBytes = static_cast<size_t>(Out - Base);
        W = detail::BitWriter(Out);
      } else {
        assert(K > Prev && "block keys must be strictly increasing");
        uint64_t Delta = K - Prev;
        detail::gammaPut(W, Delta);
        Bits += detail::gammaBits(Delta);
      }
      Prev = K;
      ++N;
    }
    /// Batch push: gamma-codes \p Src[0..Count) in one tight loop with the
    /// bit-writer state held locally (one writeback).
    void push_n(const entry_t *Src, size_t Count) {
      if (Count == 0)
        return;
      size_t First = 0; // Entries already accounted for by push() below.
      if (N == 0) {
        push(Src[0]); // Counts the entry itself (N becomes 1).
        First = 1;
      }
      detail::BitWriter LW = W;
      uint64_t P = Prev;
      size_t B = Bits;
      for (size_t I = First; I < Count; ++I) {
        uint64_t K = static_cast<uint64_t>(Entry::get_key(Src[I]));
        assert(K > P && "block keys must be strictly increasing");
        uint64_t Delta = K - P;
        detail::gammaPut(LW, Delta);
        B += detail::gammaBits(Delta);
        P = K;
      }
      W = LW;
      Prev = P;
      Bits = B;
      N += Count - First;
    }
    size_t count() const { return N; }
    size_t bytes() const {
      return N == 0 ? 0 : VarBytes + (Bits + 7) / 8;
    }

    /// Seals the current chunk into \p Dst and restarts: release() zeroes
    /// the bit count and Prev, so the next push re-encodes its key as a
    /// full-width varint at the buffer base.
    void cut(uint8_t *Dst) {
      if (N)
        std::memcpy(Dst, Base, bytes());
      release();
    }
    void release() {
      N = 0;
      Bits = 0;
      VarBytes = 0;
      Prev = 0;
    }

  private:
    uint8_t *Base;
    detail::BitWriter W{nullptr};
    size_t N = 0;
    size_t Bits = 0;
    size_t VarBytes = 0;
    uint64_t Prev = 0;
  };
};

} // namespace cpam

#endif // CPAM_ENCODING_GAMMA_ENCODER_H
