//===- raw_encoder.h - Blocked, uncompressed leaf encoding ----------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The default "empty" encoding scheme C of Def. 4.1: entries are stored as
/// a plain array inside the flat node. Works for arbitrary C++ entry types
/// (including entries owning nested PaC-trees, as in the range tree and the
/// graph representation): entries are properly constructed and destroyed.
///
/// Encoder interface (all encoders implement this; see Sec. 8 "Compression
/// on Blocks" for the user-defined-scheme design). A block is encoded and
/// decoded as a whole: node_layer::make_flat is the one builder of a block,
/// node_layer::flatten (decode, decode_move) its one consuming read and
/// node_layer::scan (for_each_while) its one read-only read.
///   encoded_size(A, N)    bytes needed for A[0..N)
///   max_bytes(N)          constexpr bound on encoded_size of any N entries
///   encode(A, N, Out)     writes the block for A[0..N) at Out and returns
///                         one past its last byte (Out + encoded_size(A, N));
///                         moves from A when stages_entries, else only reads
///   decode(In, N, Out)    copy-construct all entries into raw storage Out
///   decode_move(In,N,Out) move entries out, leaving the block destroyed
///   for_each_while(In, N, F)  left-to-right visit, F returns false to stop
///   destroy(In, N)        destroy entries owned by an encoded block
///   stages_entries        true when the payload is the entry array itself
///                         (this scheme): make_flat then sizes the node up
///                         front and encodes in place. Every other scheme
///                         encodes once into a max_bytes(2B) stack buffer
///                         that make_flat copies into an exactly sized node.
///
//===----------------------------------------------------------------------===//

#ifndef CPAM_ENCODING_RAW_ENCODER_H
#define CPAM_ENCODING_RAW_ENCODER_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace cpam {

template <class Entry> struct raw_encoder {
  using entry_t = typename Entry::entry_t;
  static constexpr bool stages_entries = true;
  static constexpr bool is_trivial = std::is_trivially_copyable_v<entry_t>;

  static size_t encoded_size(const entry_t *, size_t N) {
    return N * sizeof(entry_t);
  }
  static constexpr size_t max_bytes(size_t N) { return N * sizeof(entry_t); }

  /// Moves A[0..N) into the block at \p Out.
  static uint8_t *encode(entry_t *A, size_t N, uint8_t *Out) {
    if (N == 0)
      return Out; // Callers may pass null buffers for empty blocks.
    entry_t *Dst = reinterpret_cast<entry_t *>(Out);
    if constexpr (is_trivial) {
      std::memcpy(static_cast<void *>(Dst), A, N * sizeof(entry_t));
    } else {
      for (size_t I = 0; I < N; ++I)
        ::new (static_cast<void *>(Dst + I)) entry_t(std::move(A[I]));
    }
    return Out + N * sizeof(entry_t);
  }

  static void decode(const uint8_t *In, size_t N, entry_t *Out) {
    if (N == 0)
      return;
    const entry_t *Src = reinterpret_cast<const entry_t *>(In);
    if constexpr (is_trivial) {
      std::memcpy(static_cast<void *>(Out), Src, N * sizeof(entry_t));
    } else {
      for (size_t I = 0; I < N; ++I)
        ::new (static_cast<void *>(Out + I)) entry_t(Src[I]);
    }
  }

  static void decode_move(uint8_t *In, size_t N, entry_t *Out) {
    if (N == 0)
      return;
    entry_t *Src = reinterpret_cast<entry_t *>(In);
    if constexpr (is_trivial) {
      std::memcpy(static_cast<void *>(Out), Src, N * sizeof(entry_t));
    } else {
      for (size_t I = 0; I < N; ++I) {
        ::new (static_cast<void *>(Out + I)) entry_t(std::move(Src[I]));
        Src[I].~entry_t();
      }
    }
  }

  template <class F>
  static bool for_each_while(const uint8_t *In, size_t N, F &&f) {
    const entry_t *Src = reinterpret_cast<const entry_t *>(In);
    for (size_t I = 0; I < N; ++I)
      if (!f(Src[I]))
        return false;
    return true;
  }

  static void destroy(uint8_t *In, size_t N) {
    if constexpr (!std::is_trivially_destructible_v<entry_t>) {
      entry_t *Src = reinterpret_cast<entry_t *>(In);
      for (size_t I = 0; I < N; ++I)
        Src[I].~entry_t();
    }
  }
};

} // namespace cpam

#endif // CPAM_ENCODING_RAW_ENCODER_H
