//===- diff_encoder.h - Difference (delta) encoding for integer keys ------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Difference encoding C_DE of Sec. 3: within a block, the first key is
/// stored in full and every following key as the byte-coded difference from
/// its predecessor (keys in a block are strictly increasing). Two variants:
///
///  - diff_encoder: keys delta/byte-coded; values (if any) stored as raw
///    bytes. This is CPAM's default difference encoding.
///  - diff_val_encoder: keys delta/byte-coded and values byte-coded too —
///    the "custom encoder" the paper's inverted index uses to reach 7.8x
///    space savings (Sec. 10.3).
///
/// Decoding is inherently sequential within a block (each key depends on the
/// previous one); Thm. 6.13 describes the span impact. Every block begins a
/// fresh delta chain with its first key in full, so blocks decode
/// independently of their neighbours.
///
//===----------------------------------------------------------------------===//

#ifndef CPAM_ENCODING_DIFF_ENCODER_H
#define CPAM_ENCODING_DIFF_ENCODER_H

#include <cassert>
#include <cstring>
#include <type_traits>

#include "src/encoding/varint.h"

namespace cpam {

namespace detail {

/// Shared implementation; \p ValsByteCoded selects the value representation.
template <class Entry, bool ValsByteCoded> struct diff_encoder_impl {
  using entry_t = typename Entry::entry_t;
  using key_t = typename Entry::key_t;
  static_assert(std::is_integral_v<key_t> && std::is_unsigned_v<key_t>,
                "difference encoding requires unsigned integral keys");
  static constexpr bool has_val = Entry::has_val;
  static constexpr bool stages_entries = false;

  static size_t value_bytes([[maybe_unused]] const entry_t &E) {
    if constexpr (!has_val)
      return 0;
    else if constexpr (ValsByteCoded)
      return varint_size(static_cast<uint64_t>(Entry::get_val(E)));
    else
      return sizeof(typename Entry::val_t);
  }

  static uint8_t *encode_value([[maybe_unused]] const entry_t &E,
                               uint8_t *Out) {
    if constexpr (!has_val) {
      return Out;
    } else if constexpr (ValsByteCoded) {
      return varint_encode(static_cast<uint64_t>(Entry::get_val(E)), Out);
    } else {
      std::memcpy(Out, &Entry::get_val(E), sizeof(typename Entry::val_t));
      return Out + sizeof(typename Entry::val_t);
    }
  }

  static const uint8_t *decode_entry(const uint8_t *In, uint64_t &PrevKey,
                                     bool First, entry_t &Out) {
    uint64_t X;
    In = varint_decode(In, X);
    PrevKey = First ? X : PrevKey + X;
    if constexpr (!has_val) {
      Out = static_cast<key_t>(PrevKey);
    } else {
      using val_t = typename Entry::val_t;
      val_t V;
      if constexpr (ValsByteCoded) {
        uint64_t VRaw;
        In = varint_decode(In, VRaw);
        V = static_cast<val_t>(VRaw);
      } else {
        std::memcpy(&V, In, sizeof(val_t));
        In += sizeof(val_t);
      }
      Out = entry_t(static_cast<key_t>(PrevKey), V);
    }
    return In;
  }

  static size_t encoded_size(const entry_t *A, size_t N) {
    if (N == 0)
      return 0;
    size_t Bytes = varint_size(static_cast<uint64_t>(Entry::get_key(A[0]))) +
                   value_bytes(A[0]);
    for (size_t I = 1; I < N; ++I) {
      uint64_t Delta = static_cast<uint64_t>(Entry::get_key(A[I])) -
                       static_cast<uint64_t>(Entry::get_key(A[I - 1]));
      assert(Delta > 0 && "block keys must be strictly increasing");
      Bytes += varint_size(Delta) + value_bytes(A[I]);
    }
    return Bytes;
  }

  /// Bound on encoded_size for any N entries: every key a full-width byte
  /// code (the first key, or a delta), plus the value's largest code.
  static constexpr size_t max_bytes(size_t N) {
    size_t PerEntry = varint_max_size<key_t>();
    if constexpr (has_val)
      PerEntry += ValsByteCoded ? varint_max_size<uint64_t>()
                                : sizeof(typename Entry::val_t);
    return N * PerEntry;
  }

  static uint8_t *encode(entry_t *A, size_t N, uint8_t *Out) {
    if (N == 0)
      return Out;
    Out = varint_encode(static_cast<uint64_t>(Entry::get_key(A[0])), Out);
    Out = encode_value(A[0], Out);
    for (size_t I = 1; I < N; ++I) {
      uint64_t Delta = static_cast<uint64_t>(Entry::get_key(A[I])) -
                       static_cast<uint64_t>(Entry::get_key(A[I - 1]));
      Out = varint_encode(Delta, Out);
      Out = encode_value(A[I], Out);
    }
    return Out;
  }

  static void decode(const uint8_t *In, size_t N, entry_t *Out) {
    uint64_t Prev = 0;
    for (size_t I = 0; I < N; ++I) {
      entry_t E;
      In = decode_entry(In, Prev, I == 0, E);
      ::new (static_cast<void *>(Out + I)) entry_t(E);
    }
  }

  static void decode_move(uint8_t *In, size_t N, entry_t *Out) {
    decode(In, N, Out);
  }

  template <class F>
  static bool for_each_while(const uint8_t *In, size_t N, F &&f) {
    uint64_t Prev = 0;
    for (size_t I = 0; I < N; ++I) {
      entry_t E;
      In = decode_entry(In, Prev, I == 0, E);
      if (!f(E))
        return false;
    }
    return true;
  }

  static void destroy(uint8_t *, size_t) {}
};

} // namespace detail

/// Difference encoding: delta/byte-coded keys, raw values.
template <class Entry>
using diff_encoder = detail::diff_encoder_impl<Entry, false>;

/// Difference encoding with byte-coded values as well.
template <class Entry>
using diff_val_encoder = detail::diff_encoder_impl<Entry, true>;

} // namespace cpam

#endif // CPAM_ENCODING_DIFF_ENCODER_H
