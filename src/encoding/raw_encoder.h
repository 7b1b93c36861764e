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
/// decoded as a whole; node_layer::make_flat is the one builder of a block.
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
/// Streaming read interface (the merge and splice base cases walk encoded
/// blocks entry by entry without materializing them):
///
///   read_cursor(In, N, Consume)  yields the block's entries one at a time:
///     done()      no entries left
///     peek()      const ref to the current entry (valid until the cursor
///                 advances)
///     take()      moves the current entry out and advances; when Consume is
///                 false the entry is copied instead (the block stays alive)
///     skip()      advances, discarding the current entry
///     release()   destroys any unconsumed entries the cursor owns; also run
///                 by the destructor, so abandoning a cursor mid-block leaks
///                 nothing. With Consume set the caller must not destroy the
///                 block's entries again (free the shell bytes only).
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

  /// Streaming reader over an encoded block. With \p Consume set, entries
  /// are moved out as they are taken and the block's entries are destroyed
  /// by the time the cursor is done (or released) — the caller then frees
  /// only the shell bytes. A block of a shared node must use Consume=false.
  class read_cursor {
  public:
    read_cursor(const uint8_t *In, size_t N, bool Consume = false)
        // Consuming cursors mutate the payload of a uniquely owned block.
        : Src(reinterpret_cast<entry_t *>(const_cast<uint8_t *>(In))), N(N),
          Consume(Consume) {}
    read_cursor(const read_cursor &) = delete;
    read_cursor &operator=(const read_cursor &) = delete;
    ~read_cursor() { release(); }

    bool done() const { return I == N; }
    size_t remaining() const { return N - I; }
    const entry_t &peek() const {
      assert(I < N && "peek past the end of the block");
      return Src[I];
    }
    entry_t take() {
      assert(I < N && "take past the end of the block");
      if constexpr (std::is_copy_constructible_v<entry_t>) {
        if (!Consume)
          return Src[I++];
      } else {
        assert(Consume && "move-only entries require a consuming cursor");
      }
      entry_t E = std::move(Src[I]);
      Src[I].~entry_t();
      ++I;
      return E;
    }
    void skip() {
      assert(I < N && "skip past the end of the block");
      if (Consume)
        Src[I].~entry_t();
      ++I;
    }
    /// Destroys the unconsumed tail of a consuming cursor.
    void release() {
      if (Consume)
        for (; I < N; ++I)
          Src[I].~entry_t();
      I = N;
    }

  private:
    entry_t *Src;
    size_t N;
    size_t I = 0;
    bool Consume;
  };
};

} // namespace cpam

#endif // CPAM_ENCODING_RAW_ENCODER_H
