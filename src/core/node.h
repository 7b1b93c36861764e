//===- node.h - PaC-tree node storage layer --------------------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Storage layer of a PaC-tree PaC(alpha, B, C) (Def. 4.1): reference-
/// counted binary *regular* nodes plus *flat* nodes holding a block of B..2B
/// entries encoded by scheme C (a whole tree of at most 2B entries is one
/// block of any size). `B == 0` disables blocking entirely, which yields
/// exactly the P-trees of PAM and serves as the PAM baseline throughout the
/// evaluation.
///
/// Ownership discipline: every function that takes a `node_t *` *consumes*
/// one reference to it and every returned `node_t *` carries one reference.
/// Nodes with reference count 1 are cannibalized in place (entries moved
/// out, shells freed without touching child counts), which implements the
/// paper's in-place/visibility optimization (Sec. 8) as copy-on-write.
///
//===----------------------------------------------------------------------===//

#ifndef CPAM_CORE_NODE_H
#define CPAM_CORE_NODE_H

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "src/core/allocator.h"
#include "src/core/entry.h"
#include "src/parallel/scheduler.h"

namespace cpam {

/// Storage layer for PaC-trees over entries \p Entry, block encoding
/// \p EncoderT and block-size parameter \p BlockSizeB (0 = plain P-tree).
template <class Entry, template <class> class EncoderT, int BlockSizeB>
struct node_layer {
  using entry_traits = Entry;
  using entry_t = typename Entry::entry_t;
  using key_t = typename Entry::key_t;
  using encoder = EncoderT<Entry>;

  static constexpr bool is_aug = is_augmented_v<Entry>;
  using aug_t =
      std::conditional_t<is_aug, typename Entry::aug_t, no_aug>;

  static constexpr size_t kB = BlockSizeB;
  static constexpr bool kBlocked = BlockSizeB > 0;
  /// Fork granularity for the node-layer parallel walks (dec, flatten,
  /// size_in_bytes, node_count): the tree layer's 2048, at which a ~19 ns
  /// fork stays well under 1% of the subtree work (see BENCH_PR4.json).
  static constexpr size_t par_gc_gran() { return 2048; }

  //===--------------------------------------------------------------------===
  // Node layouts.
  //===--------------------------------------------------------------------===

  enum NodeKind : uint8_t { RegularKind = 0, FlatKind = 1 };

  struct node_t {
    std::atomic<uint32_t> Ref;
    uint32_t Size; // Number of entries in this subtree.
    NodeKind Kind;
  };

  struct regular_t : node_t {
    node_t *Left;
    node_t *Right;
    entry_t E;
    [[no_unique_address]] aug_t Aug;
  };

  struct flat_t : node_t {
    uint32_t Bytes; // Encoded payload size.
    [[no_unique_address]] aug_t Aug;
    // Payload (encoded entries) follows at kPayloadOffset.
  };

  static constexpr size_t kPayloadAlign =
      alignof(entry_t) > 8 ? alignof(entry_t) : 8;
  static_assert(kPayloadAlign <= 16, "entry alignment beyond 16 unsupported");
  static constexpr size_t kPayloadOffset =
      (sizeof(flat_t) + kPayloadAlign - 1) & ~(kPayloadAlign - 1);

  static uint8_t *payload(flat_t *T) {
    return reinterpret_cast<uint8_t *>(T) + kPayloadOffset;
  }
  static const uint8_t *payload(const flat_t *T) {
    return reinterpret_cast<const uint8_t *>(T) + kPayloadOffset;
  }

  //===--------------------------------------------------------------------===
  // Basic accessors.
  //===--------------------------------------------------------------------===

  static bool is_flat(const node_t *T) { return T && T->Kind == FlatKind; }
  static bool is_regular(const node_t *T) {
    return T && T->Kind == RegularKind;
  }
  static regular_t *as_regular(node_t *T) {
    assert(is_regular(T) && "expected a regular node");
    return static_cast<regular_t *>(T);
  }
  static flat_t *as_flat(node_t *T) {
    assert(is_flat(T) && "expected a flat node");
    return static_cast<flat_t *>(T);
  }

  static size_t size(const node_t *T) { return T ? T->Size : 0; }
  static size_t weight(const node_t *T) { return size(T) + 1; }

  //===--------------------------------------------------------------------===
  // Block scan: the one read-only read of a flat node's entries.
  //===--------------------------------------------------------------------===

  static constexpr uintptr_t kCacheLine = 64;

  /// Starts loading every cache line of the flat node \p T, from its header
  /// to kPayloadOffset + Bytes. Reading Bytes waits for the header's line
  /// only; the payload lines then arrive together instead of one demand
  /// miss per line. A null \p T is a no-op.
  static void prefetch(const node_t *T) {
    if (!T)
      return;
    assert(is_flat(T) && "prefetch expects a flat node");
    const auto *F = static_cast<const flat_t *>(T);
    uintptr_t Line = reinterpret_cast<uintptr_t>(F) & ~(kCacheLine - 1);
    uintptr_t End = reinterpret_cast<uintptr_t>(F) + kPayloadOffset + F->Bytes;
    for (Line += kCacheLine; Line < End; Line += kCacheLine)
      __builtin_prefetch(reinterpret_cast<const void *>(Line));
  }

  /// Visits the entries of the flat node \p T in order until \p f returns
  /// false; returns false if stopped. Prefetches the whole block first
  /// (see prefetch), so a cold block costs about one miss, not one per
  /// line. Every read-only scan of a flat node goes through here.
  template <class F> static bool scan(const node_t *T, F &&f) {
    assert(is_flat(T) && "scan expects a flat node");
    prefetch(T);
    return encoder::for_each_while(payload(static_cast<const flat_t *>(T)),
                                   T->Size, std::forward<F>(f));
  }

  static const key_t &get_key(const node_t *T) {
    assert(is_regular(T) && "expected a regular node");
    return Entry::get_key(static_cast<const regular_t *>(T)->E);
  }

  /// Augmented value of a (possibly null) subtree.
  static aug_t aug_of(const node_t *T) {
    if constexpr (!is_aug)
      return aug_t{};
    else {
      if (!T)
        return Entry::aug_empty();
      if (T->Kind == FlatKind)
        return static_cast<const flat_t *>(T)->Aug;
      return static_cast<const regular_t *>(T)->Aug;
    }
  }

  //===--------------------------------------------------------------------===
  // Reference counting.
  //===--------------------------------------------------------------------===

  static uint32_t ref_count(const node_t *T) {
    return T->Ref.load(std::memory_order_acquire);
  }

  static node_t *inc(node_t *T) {
    if (T)
      T->Ref.fetch_add(1, std::memory_order_relaxed);
    return T;
  }

  /// Releases one reference; frees recursively (in parallel for large
  /// subtrees) when the count reaches zero.
  static void dec(node_t *T) {
    if (!T)
      return;
    if (T->Ref.fetch_sub(1, std::memory_order_acq_rel) != 1)
      return;
    if (T->Kind == FlatKind) {
      free_flat(static_cast<flat_t *>(T));
      return;
    }
    regular_t *R = static_cast<regular_t *>(T);
    node_t *L = R->Left, *Rt = R->Right;
    free_regular_shell(R);
    par::par_do_if(size(L) + size(Rt) >= par_gc_gran(), [&] { dec(L); },
                   [&] { dec(Rt); });
  }

  //===--------------------------------------------------------------------===
  // Construction and destruction.
  //===--------------------------------------------------------------------===

  /// RAII ownership of one node reference, for exception-safe composition:
  /// decs the held node on scope exit unless release()d. Used on every path
  /// that holds an owned node across a call that may throw bad_alloc, so an
  /// injected allocation failure cannot leak the sibling.
  class node_guard {
  public:
    explicit node_guard(node_t *T) : T(T) {}
    node_guard(const node_guard &) = delete;
    node_guard &operator=(const node_guard &) = delete;
    ~node_guard() { dec(T); }
    node_t *release() {
      node_t *R = T;
      T = nullptr;
      return R;
    }
    node_t *get() const { return T; }

  private:
    node_t *T;
  };

  /// Creates a regular node over owned children \p L and \p R. Does not
  /// enforce the blocked-leaves invariant; see tree_ops::node_join for that.
  /// On allocation failure both children are released (throw ⇒ every owned
  /// input released — the exception contract all consuming builders share).
  static node_t *make_regular(node_t *L, entry_t E, node_t *R) {
    void *Mem;
    try {
      Mem = tree_alloc(sizeof(regular_t));
    } catch (...) {
      dec(L);
      dec(R);
      throw;
    }
    regular_t *T = ::new (Mem) regular_t;
    T->Ref.store(1, std::memory_order_relaxed);
    T->Kind = RegularKind;
    assert(size(L) + size(R) + 1 <= UINT32_MAX && "tree too large");
    T->Size = static_cast<uint32_t>(size(L) + size(R) + 1);
    T->Left = L;
    T->Right = R;
    T->E = std::move(E); // Members were default-constructed by placement new.
    if constexpr (is_aug)
      T->Aug = Entry::aug_combine(
          Entry::aug_combine(aug_of(L), Entry::aug_from_entry(T->E)),
          aug_of(R));
    return T;
  }

  /// Creates a flat node from the \p N entries of \p A: the one builder of
  /// a block. It aggregates the augmented value and encodes every entry
  /// once. A scheme whose payload is the entry array itself
  /// (encoder::stages_entries) sizes the node up front and moves the
  /// entries straight in; any other encodes into a max_bytes(2B) buffer on
  /// the stack and copies the bytes into an exactly sized node. Entries
  /// move only after the allocation succeeds, so a throw leaves \p A
  /// intact. Out of line, so the buffer never joins a recursive caller's
  /// frame.
  [[gnu::noinline]] static node_t *make_flat(entry_t *A, size_t N) {
    assert(kBlocked && "flat nodes only exist in blocked trees");
    assert(N >= 1 && N <= 2 * kB && "flat node size out of range");
    aug_t Aug{};
    if constexpr (is_aug) {
      Aug = Entry::aug_from_entry(A[0]);
      for (size_t I = 1; I < N; ++I)
        Aug = Entry::aug_combine(Aug, Entry::aug_from_entry(A[I]));
    }
    auto Alloc = [&](size_t Bytes) {
      flat_t *T = ::new (tree_alloc(kPayloadOffset + Bytes)) flat_t;
      T->Ref.store(1, std::memory_order_relaxed);
      T->Kind = FlatKind;
      T->Size = static_cast<uint32_t>(N);
      T->Bytes = static_cast<uint32_t>(Bytes);
      T->Aug = Aug;
      return T;
    };
    // P-trees (B = 0) never build a block; the in-place branch keeps their
    // instantiation free of an empty buffer.
    if constexpr (encoder::stages_entries || !kBlocked) {
      flat_t *T = Alloc(encoder::encoded_size(A, N));
      encoder::encode(A, N, payload(T));
      return T;
    } else {
      // Left uninitialized: only the Bytes that encode writes are read.
      std::array<uint8_t, encoder::max_bytes(2 * kB)> Buf;
      size_t Bytes =
          static_cast<size_t>(encoder::encode(A, N, Buf.data()) - Buf.data());
      assert(Bytes <= encoder::max_bytes(N) && "max_bytes is not a bound");
      flat_t *T = Alloc(Bytes);
      std::memcpy(payload(T), Buf.data(), Bytes);
      return T;
    }
  }

  /// Frees a regular node shell without touching its children's counts.
  /// The entry is destroyed exactly once, by ~regular_t (callers that want
  /// the entry move it out first, leaving a destructible husk).
  static void free_regular_shell(regular_t *T) {
    T->~regular_t();
    tree_free(T, sizeof(regular_t));
  }

  static void free_flat(flat_t *T) {
    encoder::destroy(payload(T), T->Size);
    size_t Bytes = kPayloadOffset + T->Bytes;
    T->~flat_t();
    tree_free(T, Bytes);
  }

  /// Frees a flat node's storage WITHOUT destroying its payload entries:
  /// for flatten, whose decode_move has already moved them out.
  static void free_flat_shell(flat_t *T) {
    size_t Bytes = kPayloadOffset + T->Bytes;
    T->~flat_t();
    tree_free(T, Bytes);
  }

  //===--------------------------------------------------------------------===
  // Temporary entry buffers (raw storage, destroyed on scope exit).
  //===--------------------------------------------------------------------===

  /// Raw entry storage for \p Cap entries; up to scratch_buf::kInline
  /// bytes live inside the object.
  class temp_buf {
  public:
    explicit temp_buf(size_t Cap)
        : Data(reinterpret_cast<entry_t *>(Mem.reserve(Cap * sizeof(entry_t)))),
          Cap(Cap) {}
    /// The entries of \p T in order: flattens T into a buffer of its size,
    /// consuming one reference (also when reserving the buffer throws).
    explicit temp_buf(node_t *T) {
      node_guard G(T);
      Cap = size(T);
      Data = reinterpret_cast<entry_t *>(Mem.reserve(Cap * sizeof(entry_t)));
      Count = flatten(G.release(), Data);
    }
    temp_buf(const temp_buf &) = delete;
    temp_buf &operator=(const temp_buf &) = delete;
    ~temp_buf() {
      if constexpr (!std::is_trivially_destructible_v<entry_t>)
        for (size_t I = 0; I < Count; ++I)
          Data[I].~entry_t();
    }
    entry_t *data() { return Data; }
    /// Records that entries [0, N) are now constructed.
    void set_count(size_t N) {
      assert(N <= Cap && "temp buffer overflow");
      Count = N;
    }
    size_t count() const { return Count; }

  private:
    scratch_buf Mem;
    entry_t *Data = nullptr;
    size_t Count = 0;
    size_t Cap = 0;
  };

  //===--------------------------------------------------------------------===
  // Flatten: the one consuming read of a block (fold lives in
  // tree_ops::node_join).
  //===--------------------------------------------------------------------===

  /// Writes the entries of \p T in order into raw storage \p Out
  /// (placement-constructing them), consuming one reference to \p T.
  /// Returns the number written. A block is decoded as a whole: moved out
  /// of a uniquely owned block, copied out of a shared one.
  static size_t flatten(node_t *T, entry_t *Out) {
    if (!T)
      return 0;
    size_t N = T->Size;
    if (T->Kind == FlatKind) {
      flat_t *F = static_cast<flat_t *>(T);
      if (ref_count(T) == 1) {
        encoder::decode_move(payload(F), N, Out);
        free_flat_shell(F);
      } else {
        encoder::decode(payload(F), N, Out);
        dec(T);
      }
      return N;
    }
    regular_t *R = static_cast<regular_t *>(T);
    node_t *L = R->Left, *Rt = R->Right;
    size_t Ls = size(L);
    if (ref_count(T) == 1) {
      ::new (static_cast<void *>(Out + Ls)) entry_t(std::move(R->E));
      free_regular_shell(R);
    } else {
      ::new (static_cast<void *>(Out + Ls)) entry_t(R->E);
      inc(L);
      inc(Rt);
      dec(T);
    }
    // The two halves write disjoint output ranges, so large subtrees fork
    // (this is what keeps oversized flatten-and-merge base cases — e.g. the
    // ablation study's large-kappa configurations — from serializing).
    par::par_do_if(N >= par_gc_gran(), [&] { flatten(L, Out); },
                   [&] { flatten(Rt, Out + Ls + 1); });
    return N;
  }

  //===--------------------------------------------------------------------===
  // Measurement.
  //===--------------------------------------------------------------------===

  /// Total heap bytes reachable from \p T (the paper's space metric).
  static size_t size_in_bytes(const node_t *T) {
    if (!T)
      return 0;
    if (T->Kind == FlatKind)
      return kPayloadOffset + static_cast<const flat_t *>(T)->Bytes;
    const regular_t *R = static_cast<const regular_t *>(T);
    size_t SL = 0, SR = 0;
    par::par_do_if(T->Size >= par_gc_gran(),
                   [&] { SL = size_in_bytes(R->Left); },
                   [&] { SR = size_in_bytes(R->Right); });
    return sizeof(regular_t) + SL + SR;
  }

  /// Number of physical nodes (regular + flat) reachable from \p T.
  static size_t node_count(const node_t *T) {
    if (!T)
      return 0;
    if (T->Kind == FlatKind)
      return 1;
    const regular_t *R = static_cast<const regular_t *>(T);
    size_t CL = 0, CR = 0;
    par::par_do_if(T->Size >= par_gc_gran(),
                   [&] { CL = node_count(R->Left); },
                   [&] { CR = node_count(R->Right); });
    return 1 + CL + CR;
  }
};

} // namespace cpam

#endif // CPAM_CORE_NODE_H
