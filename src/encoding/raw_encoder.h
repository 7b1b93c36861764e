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
/// on Blocks" for the user-defined-scheme design):
///   encoded_size(A, N)    bytes needed for A[0..N)
///   encode(A, N, Out)     write block; may move from A
///   decode(In, N, Out)    copy-construct all entries into raw storage Out
///   decode_move(In,N,Out) move entries out, leaving the block destroyed
///   for_each_while(In, N, F)  left-to-right visit, F returns false to stop
///   destroy(In, N)        destroy entries owned by an encoded block
///   can_be_parallel       true if decode is parallelizable (affects span,
///                         Sec. 6.2)
///
/// Streaming cursor interface (used by the flat-leaf set-operation fast
/// paths, which merge encoded blocks without materializing them):
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
///   write_cursor(Buf, MaxN)  appends entries into an output block staged in
///   caller-owned Buf (at least max_bytes(MaxN) bytes):
///     push(E)     appends E (moved); keys must arrive in strictly
///                 increasing order for delta-coded schemes
///     push_n(A,N) batch append: one tight loop with the chain state in
///                 registers (a memcpy for the raw scheme)
///     count()     entries pushed since the last cut()
///     bytes()     exact encoded payload size of those entries
///     cut(Out)    seals the current chunk as a complete, independently
///                 decodable block in Out (bytes() bytes) and restarts the
///                 cursor at the buffer base: for delta-coded schemes the
///                 next pushed key is encoded full-width, beginning a fresh
///                 delta chain, so one chunk-sized buffer can emit any
///                 number of finished leaves from a single entry stream
///     release()   drops staged entries; also run by the destructor.
///   stages_entries is true when the staged bytes are themselves a plain
///   entry array (raw encoding): the tree layer then stages entries for
///   from_array_move instead of streaming through a write cursor.
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
  static constexpr bool can_be_parallel = true;
  static constexpr bool is_trivial = std::is_trivially_copyable_v<entry_t>;

  static size_t encoded_size(const entry_t *, size_t N) {
    return N * sizeof(entry_t);
  }

  static void encode(entry_t *A, size_t N, uint8_t *Out) {
    if (N == 0)
      return; // Callers may pass null buffers for empty blocks.
    entry_t *Dst = reinterpret_cast<entry_t *>(Out);
    if constexpr (is_trivial) {
      std::memcpy(static_cast<void *>(Dst), A, N * sizeof(entry_t));
    } else {
      for (size_t I = 0; I < N; ++I)
        ::new (static_cast<void *>(Dst + I)) entry_t(std::move(A[I]));
    }
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

  /// Streaming writer: the staging buffer is the entry array itself, which
  /// doubles as the encoded payload (the raw scheme is the identity).
  class write_cursor {
  public:
    static constexpr bool stages_entries = true;
    static size_t max_bytes(size_t MaxN) { return MaxN * sizeof(entry_t); }

    write_cursor(uint8_t *Buf, size_t MaxN)
        : A(reinterpret_cast<entry_t *>(Buf)), Cap(MaxN) {
      static_assert(alignof(entry_t) <= 16,
                    "entry alignment beyond 16 unsupported");
    }
    write_cursor(const write_cursor &) = delete;
    write_cursor &operator=(const write_cursor &) = delete;
    ~write_cursor() { release(); }

    void push(entry_t E) {
      assert(N < Cap && "write cursor overflow");
      ::new (static_cast<void *>(A + N)) entry_t(std::move(E));
      ++N;
    }
    /// Batch push: moves \p Src[0..Count) into the staging in one pass
    /// (a memcpy for trivially copyable entries).
    void push_n(entry_t *Src, size_t Count) {
      assert(N + Count <= Cap && "write cursor overflow");
      if constexpr (is_trivial) {
        if (Count)
          std::memcpy(static_cast<void *>(A + N), Src,
                      Count * sizeof(entry_t));
      } else {
        for (size_t I = 0; I < Count; ++I)
          ::new (static_cast<void *>(A + N + I)) entry_t(std::move(Src[I]));
      }
      N += Count;
    }
    size_t count() const { return N; }
    size_t bytes() const { return N * sizeof(entry_t); }

    /// Seals the current chunk into \p Out (moving the staged entries) and
    /// restarts at the buffer base; the raw scheme has no cross-entry state
    /// to reset, so a cut block is trivially self-contained.
    void cut(uint8_t *Out) {
      encode(A, N, Out); // Moves non-trivial entries out of the staging.
      release();
    }
    void release() {
      if constexpr (!std::is_trivially_destructible_v<entry_t>)
        for (size_t I = 0; I < N; ++I)
          A[I].~entry_t();
      N = 0;
    }

  private:
    entry_t *A;
    size_t N = 0;
    [[maybe_unused]] size_t Cap;
  };
};

} // namespace cpam

#endif // CPAM_ENCODING_RAW_ENCODER_H
