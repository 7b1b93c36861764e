//===- map_ops.h - Join-based map and set algorithms -----------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Join-based algorithms over PaC-trees (Figs. 6, 8, 10): search, insertion
/// and deletion, the set operations (union / intersect / difference and the
/// keep-left update), multi_insert / multi_delete, map_values, range
/// extraction and order statistics (filter, select, map_reduce and map are
/// tree_ops traversals shared with sequences).
/// Each algorithm is written against expose/join/split only — plus the
/// optimized base cases of Sec. 8. The set operations are one skeleton
/// (set_op) with a per-op keep policy: it exposes the larger operand, whose
/// root is a regular node once it holds more than 2B entries (reading it
/// re-encodes nothing), and splits only the smaller one at that key, so
/// sparse pairs cost O(m log(n/m)) block edits on the small side
/// instead of a split of the large side per key of the small one. A pair
/// merges whole (merge_whole) when its larger side is one block, or when it
/// is dense and fits the base-case granularity kappa (32B; configurable for
/// the ablation study). Point and batch updates are a second skeleton,
/// batch_op, with the same keep policies: a tree against a sorted batch of
/// entries (insert, multi_insert) or keys (remove, multi_delete); a point
/// update is a one-entry batch. Every base case holds at most
/// max(kappa, 4B) entries: it flattens its tree operands into entry arrays
/// (a block is decoded as a whole) and makes one sequential call of
/// merge<P>, the loop that walks two sorted sources, each a slice of an
/// entry array or of a key array. merge<P> is the one user of
/// tree_ops::leaf_writer, which encodes each survivor once into finished
/// leaves. All merge parallelism comes from the two skeletons forking
/// their halves, as in PAM. Updates consume their operand trees; the
/// queries and range() only read theirs.
///
//===----------------------------------------------------------------------===//

#ifndef CPAM_CORE_MAP_OPS_H
#define CPAM_CORE_MAP_OPS_H

#include <algorithm>
#include <optional>
#include <type_traits>

#include "src/core/basic_tree.h"
#include "src/parallel/primitives.h"

namespace cpam {

/// Default value-combine: keep the right (new) value.
struct take_right {
  template <class V> const V &operator()(const V &, const V &B) const {
    return B;
  }
};

template <class Entry, template <class> class EncoderT, int BlockSizeB>
struct map_ops : tree_ops<Entry, EncoderT, BlockSizeB> {
  using TO = tree_ops<Entry, EncoderT, BlockSizeB>;
  using NL = typename TO::NL;
  using node_t = typename TO::node_t;
  using entry_t = typename TO::entry_t;
  using key_t = typename TO::key_t;
  using temp_buf = typename TO::temp_buf;
  using node_guard = typename TO::node_guard;
  using exposed = typename TO::exposed;
  using split_t = typename TO::split_t;
  using TO::dec;
  using TO::expose;
  using TO::from_array_move;
  using TO::inc;
  using TO::is_flat;
  using TO::join;
  using TO::join2;
  using TO::kB;
  using TO::kBlocked;
  using TO::par_gran;
  using TO::select;
  using TO::size;
  using TO::split;
  using leaf_writer = typename TO::leaf_writer;

  /// Base-case granularity kappa of Sec. 8: a dense pair of operands with at
  /// most this many entries in total merges whole (see merge_whole). The
  /// paper picks kappa = 8B (6.7x faster than the expose-only algorithm at
  /// B = 128). Here every split of a blocked tree re-encodes the block it
  /// cuts and a neighbour on each side, so wider base cases pay off for
  /// longer: the perfbench set_algebra script (two 2M-entry B=128 diff
  /// maps, 4 workers on a 4-vCPU Xeon guest) runs at 148 / 176 / 191 / 191 /
  /// 191 M operand entries/s for kappa = 8B / 16B / 32B / 64B / 128B
  /// (medians of 5 runs), while resident memory grows past 32B. The knee,
  /// 32B, also keeps a base case's 16-byte entry buffers inside the pool's
  /// 64 KiB top size class. kappa means nothing without blocks: the
  /// P-trees of PAM (B = 0) never merge whole. Mutable only for the
  /// ablation bench and tests (single-threaded setup code).
  static size_t &kappa() {
    static size_t K = 32 * static_cast<size_t>(kB);
    return K;
  }

  /// True when operands of \p N1 and \p N2 entries (trees, or a tree and a
  /// sorted batch) merge whole in one base case instead of recursing:
  /// when the larger is one block (at most 2B entries), or when the pair is
  /// dense (smaller * B >= larger) with at most kappa() entries, so a base
  /// case holds at most max(kappa(), 4B) entries. A sparse pair keeps
  /// recursing down the larger side, so merging m scattered keys into n
  /// entries touches O(m) blocks rather than rewriting every kappa-sized
  /// subtree they land in. Without blocks (B = 0) a pair never merges
  /// whole: the recursion runs down to single nodes, so P-trees never
  /// reach a leaf_writer.
  static bool merge_whole(size_t N1, size_t N2) {
    if constexpr (!kBlocked)
      return false;
    size_t Lo = std::min(N1, N2), Hi = std::max(N1, N2);
    return Hi <= 2 * kB || (N1 + N2 <= kappa() && Lo * kB >= Hi);
  }

  static const key_t &entry_key(const entry_t &E) { return Entry::get_key(E); }
  static bool key_less(const key_t &A, const key_t &B) {
    return Entry::comp(A, B);
  }

  /// Applies the value-combine \p Op to two entries with equal keys,
  /// returning the combined entry (no-op for sets).
  template <class CombineOp>
  static entry_t combine_entries(entry_t A, const entry_t &B,
                                 const CombineOp &Op) {
    if constexpr (Entry::has_val)
      Entry::get_val(A) = Op(Entry::get_val(A), Entry::get_val(B));
    return A;
  }

  //===--------------------------------------------------------------------===
  // Search (read-only; does not consume references).
  //===--------------------------------------------------------------------===

  /// Returns the entry with key \p K, if present. O(log n + B) work, no
  /// allocation: flat blocks are scanned without unfolding.
  static std::optional<entry_t> find(const node_t *T, const key_t &K) {
    while (T) {
      if (is_flat(T)) {
        std::optional<entry_t> Out;
        NL::scan(T, [&](const entry_t &E) {
          if (key_less(entry_key(E), K))
            return true; // Keep scanning.
          if (!key_less(K, entry_key(E)))
            Out = E;
          return false; // At or past K: stop.
        });
        return Out;
      }
      const auto *R = static_cast<const typename NL::regular_t *>(T);
      if (key_less(K, entry_key(R->E)))
        T = R->Left;
      else if (key_less(entry_key(R->E), K))
        T = R->Right;
      else
        return R->E;
    }
    return std::nullopt;
  }

  /// True if key \p K is present. Reads keys only: no entry is copied
  /// (find's copy would be a refcount round trip for tree-valued maps).
  static bool contains(const node_t *T, const key_t &K) {
    while (T) {
      if (is_flat(T)) {
        bool Hit = false;
        NL::scan(T, [&](const entry_t &E) {
          if (key_less(entry_key(E), K))
            return true;
          Hit = !key_less(K, entry_key(E));
          return false;
        });
        return Hit;
      }
      const auto *R = static_cast<const typename NL::regular_t *>(T);
      if (key_less(K, entry_key(R->E)))
        T = R->Left;
      else if (key_less(entry_key(R->E), K))
        T = R->Right;
      else
        return true;
    }
    return false;
  }

  /// Number of keys strictly less than \p K.
  static size_t rank(const node_t *T, const key_t &K) {
    size_t Acc = 0;
    while (T) {
      if (is_flat(T)) {
        NL::scan(T, [&](const entry_t &E) {
          if (!key_less(entry_key(E), K))
            return false;
          ++Acc;
          return true;
        });
        return Acc;
      }
      const auto *R = static_cast<const typename NL::regular_t *>(T);
      if (key_less(entry_key(R->E), K)) {
        Acc += size(R->Left) + 1;
        T = R->Right;
      } else {
        T = R->Left;
      }
    }
    return Acc;
  }

  /// Largest entry with key <= K (Previous in Table 1).
  static std::optional<entry_t> previous_or_eq(const node_t *T,
                                               const key_t &K) {
    std::optional<entry_t> Best;
    while (T) {
      if (is_flat(T)) {
        NL::scan(T, [&](const entry_t &E) {
          if (key_less(K, entry_key(E)))
            return false;
          Best = E;
          return true;
        });
        return Best;
      }
      const auto *R = static_cast<const typename NL::regular_t *>(T);
      if (key_less(K, entry_key(R->E))) {
        T = R->Left;
      } else {
        Best = R->E;
        T = R->Right;
      }
    }
    return Best;
  }

  /// Smallest entry with key >= K (Next in Table 1).
  static std::optional<entry_t> next_or_eq(const node_t *T, const key_t &K) {
    std::optional<entry_t> Best;
    while (T) {
      if (is_flat(T)) {
        NL::scan(T, [&](const entry_t &E) {
          if (key_less(entry_key(E), K))
            return true;
          Best = E;
          return false;
        });
        return Best;
      }
      const auto *R = static_cast<const typename NL::regular_t *>(T);
      if (key_less(entry_key(R->E), K)) {
        T = R->Right;
      } else {
        Best = R->E;
        T = R->Left;
      }
    }
    return Best;
  }

  static std::optional<entry_t> first_entry(const node_t *T) {
    if (!T)
      return std::nullopt;
    return select(T, 0);
  }
  static std::optional<entry_t> last_entry(const node_t *T) {
    if (!T)
      return std::nullopt;
    return select(T, size(T) - 1);
  }

  //===--------------------------------------------------------------------===
  // Set operations (Fig. 10) with Sec. 8 base cases. union, intersect,
  // difference and update are one skeleton (set_op) and one base case
  // (set_base), parameterized by a keep policy. Every base case that walks
  // two sorted inputs, the point and batch updates included, is one call
  // of merge<P> over two sources.
  //===--------------------------------------------------------------------===

  /// Keep policy of a set operation over (T1, T2): an entry whose key is
  /// only in T1 survives iff KeepL, one whose key is only in T2 iff KeepR,
  /// and a key in both survives as Op(value in T1, value in T2) iff
  /// KeepBoth.
  template <bool L, bool R, bool Both> struct keep_policy {
    static constexpr bool KeepL = L, KeepR = R, KeepBoth = Both;
    /// Bound on the result size of merging N1 entries with N2.
    static size_t max_out(size_t N1, size_t N2) {
      return L && R ? N1 + N2 : L ? N1 : R ? N2 : std::min(N1, N2);
    }
  };
  using union_policy = keep_policy<true, true, true>;
  using intersect_policy = keep_policy<false, false, true>;
  using difference_policy = keep_policy<true, false, false>;
  /// Keep-left: every key of T1, combined with T2's value where T2 has it.
  using update_policy = keep_policy<true, false, true>;

  /// Merge source over the sorted entries A[0..N); take() moves an entry
  /// out, leaving a destructible husk for the array's owner.
  class array_source {
  public:
    array_source(entry_t *A, size_t N) : A(A), End(A + N) {}
    bool done() const { return A == End; }
    size_t remaining() const { return static_cast<size_t>(End - A); }
    const entry_t &peek() const { return *A; }
    const key_t &key() const { return entry_key(*A); }
    entry_t take() { return std::move(*A++); }
    void skip() { ++A; }

  private:
    entry_t *A, *End;
  };

  /// Merge source over the sorted, distinct keys K[0..N): the batch of a
  /// difference (remove, multi_delete), which only reads keys.
  class key_source {
  public:
    key_source(const key_t *K, size_t N) : K(K), End(K + N) {}
    bool done() const { return K == End; }
    size_t remaining() const { return static_cast<size_t>(End - K); }
    const key_t &key() const { return *K; }
    void skip() { ++K; }

  private:
    const key_t *K, *End;
  };

  /// Merge source over a batch slice: an entry array or a key array.
  static array_source batch_source(entry_t *B, size_t N) { return {B, N}; }
  static key_source batch_source(const key_t *B, size_t N) { return {B, N}; }

  /// Key of a batch element: an entry's key, or the element itself in a
  /// key array.
  template <class Elt> static const key_t &key_of(const Elt &X) {
    if constexpr (std::is_same_v<Elt, key_t>)
      return X;
    else
      return entry_key(X);
  }

  /// Index of the first element of the sorted batch B[0..N) (entries or
  /// keys) whose key is not less than \p K.
  template <class Elt>
  static size_t lower_bound(const Elt *B, size_t N, const key_t &K) {
    return static_cast<size_t>(
        std::lower_bound(B, B + N, K,
                         [](const Elt &X, const key_t &Key) {
                           return key_less(key_of(X), Key);
                         }) -
        B);
  }

  /// The merge loop of every sorted base case: walks the sources \p A and
  /// \p B (an array_source or key_source each) in key order under keep
  /// policy \p P into one leaf_writer and returns the finished tree.
  /// Survivors are moved out of their arrays once, and \p Op runs exactly
  /// once per kept duplicate key, as Op(value in A, value in B). Kept out
  /// of line: inlined into batch_base, the loop made point updates on a
  /// 2M-entry B=128 diff map about 10% slower.
  template <class P, class SrcA, class SrcB, class CombineOp>
  [[gnu::noinline]] static node_t *merge(SrcA &A, SrcB &B,
                                         const CombineOp &Op) {
    leaf_writer W(P::max_out(A.remaining(), B.remaining()));
    while (!A.done() && !B.done()) {
      if (key_less(A.key(), B.key())) {
        if constexpr (P::KeepL)
          W.push(A.take());
        else
          A.skip();
      } else if (key_less(B.key(), A.key())) {
        if constexpr (P::KeepR)
          W.push(B.take());
        else
          B.skip();
      } else {
        if constexpr (P::KeepBoth)
          W.push(combine_entries(A.take(), B.peek(), Op));
        else
          A.skip();
        B.skip();
      }
    }
    if constexpr (P::KeepL)
      while (!A.done())
        W.push(A.take());
    if constexpr (P::KeepR)
      while (!B.done())
        W.push(B.take());
    return W.finish();
  }

  /// Base case of set_op: flattens both operands, at most
  /// max(kappa(), 4B) entries together, and merges them in one merge.
  template <class P, class CombineOp>
  static node_t *set_base(node_t *T1, node_t *T2, const CombineOp &Op) {
    assert(size(T1) + size(T2) <= std::max(kappa(), 4 * kB) &&
           "oversized base case");
    node_guard G2(T2);
    temp_buf B1(T1);
    temp_buf B2(G2.release());
    array_source A(B1.data(), B1.count()), B(B2.data(), B2.count());
    return merge<P>(A, B, Op);
  }

  /// The one join-based skeleton of every set operation over owned T1 and
  /// T2 under keep policy \p P (Fig. 10). A pair that merge_whole admits
  /// is a base case. Otherwise the larger operand is
  /// exposed — more than 2B entries make its root a regular node, so even a
  /// shared root is read without re-encoding anything — and only the
  /// smaller is split at the exposed key, so the recursion's block
  /// re-encoding follows the small side. Exposing T2 or T1 changes which
  /// operand the middle entry comes from, never the combine order: a key in
  /// both always keeps Op(value in T1, value in T2).
  template <class P, class CombineOp>
  static node_t *set_op(node_t *T1, node_t *T2, const CombineOp &Op) {
    if (!T1 || !T2) {
      node_t *Out = T1 ? (P::KeepL ? T1 : nullptr) : (P::KeepR ? T2 : nullptr);
      if (Out != T1)
        dec(T1);
      if (Out != T2)
        dec(T2);
      return Out;
    }
    if (merge_whole(size(T1), size(T2)))
      return set_base<P>(T1, T2, Op);
    // Guard the smaller side across expose (which consumes only the larger
    // one), then hold the four subtree pieces until both recursive branches
    // own them; par_do_if always runs both branches, so a throwing side
    // leaves its sibling's result for the catch to release.
    bool ExposeT1 = size(T1) > size(T2);
    node_guard GS(ExposeT1 ? T2 : T1);
    exposed X = expose(ExposeT1 ? T1 : T2);
    node_guard GXL(X.L), GXR(X.R);
    split_t S = split(GS.release(), entry_key(X.E));
    node_guard GSL(S.L), GSR(S.R);
    std::optional<entry_t> Mid;
    if (S.E) {
      if constexpr (P::KeepBoth)
        Mid.emplace(ExposeT1 ? combine_entries(std::move(X.E), *S.E, Op)
                             : combine_entries(std::move(*S.E), X.E, Op));
    } else if (ExposeT1 ? P::KeepL : P::KeepR) {
      Mid.emplace(std::move(X.E));
    }
    node_t *XL = GXL.release(), *XR = GXR.release();
    node_t *SL = GSL.release(), *SR = GSR.release();
    node_t *L1 = ExposeT1 ? XL : SL, *L2 = ExposeT1 ? SL : XL;
    node_t *R1 = ExposeT1 ? XR : SR, *R2 = ExposeT1 ? SR : XR;
    node_t *L = nullptr, *R = nullptr;
    try {
      par::par_do_if(
          size(XL) + size(SL) >= par_gran(),
          [&] { L = set_op<P>(L1, L2, Op); },
          [&] { R = set_op<P>(R1, R2, Op); });
    } catch (...) {
      dec(L);
      dec(R);
      throw;
    }
    if (Mid)
      return join(L, std::move(*Mid), R);
    return join2(L, R);
  }

  /// union of two owned trees; values of duplicate keys combine as
  /// Op(value in T1, value in T2). With m = min and n = max of the sizes:
  /// O(m log(n/m) + min(mB, n)) work (Thms. 6.3/6.7); the larger operand is
  /// exposed, so merging m scattered keys touches O(m) of its blocks.
  template <class CombineOp = take_right>
  static node_t *union_(node_t *T1, node_t *T2,
                        const CombineOp &Op = CombineOp()) {
    return set_op<union_policy>(T1, T2, Op);
  }

  /// Intersection of two owned trees; kept values combine as
  /// Op(value in T1, value in T2).
  template <class CombineOp = take_right>
  static node_t *intersect(node_t *T1, node_t *T2,
                           const CombineOp &Op = CombineOp()) {
    return set_op<intersect_policy>(T1, T2, Op);
  }

  /// Difference T1 \ T2 of two owned trees.
  static node_t *difference(node_t *T1, node_t *T2) {
    return set_op<difference_policy>(T1, T2, take_right());
  }

  /// Keep-left update of two owned trees: every entry of T1, its value
  /// replaced by Op(value in T1, value in T2) where T2 has the key; keys
  /// only in T2 are dropped. The union minus T2's new keys, without the
  /// membership probe per key of T2 that filtering them first would cost.
  template <class CombineOp = take_right>
  static node_t *update(node_t *T1, node_t *T2,
                        const CombineOp &Op = CombineOp()) {
    return set_op<update_policy>(T1, T2, Op);
  }

  //===--------------------------------------------------------------------===
  // Point and batch updates (Fig. 8): one skeleton, batch_op.
  //===--------------------------------------------------------------------===

  /// Base case of batch_op: flattens \p T and merges the whole batch into
  /// it, at most max(kappa(), 4B) entries together, in one merge. Kept out
  /// of batch_op so that the recursion's frame does not carry the base
  /// case's in-object buffer.
  template <class P, class Elt, class CombineOp>
  static node_t *batch_base(node_t *T, Elt *B, size_t N, const CombineOp &Op) {
    assert(size(T) + N <= std::max(kappa(), 4 * kB) && "oversized base case");
    temp_buf Bt(T);
    array_source C(Bt.data(), Bt.count());
    auto S = batch_source(B, N);
    return merge<P>(C, S, Op);
  }

  /// Merges the sorted batch B[0..N) of distinct keys into owned \p T under
  /// keep policy \p P: entries (moved out) for a union, keys for a
  /// difference. A pair that merge_whole admits is one base case. Otherwise
  /// T is exposed (a block splits at its median), its root key is found in
  /// the batch by binary search, and only a side that gets batch entries is
  /// rebuilt; the other is reused as it is. A point
  /// update thus walks one path, and only a node with batch entries on both
  /// sides reaches par_do_if. O(m log(n/m + 1) + min(mB, n)) work for a
  /// batch of m into a tree of n.
  template <class P, class Elt, class CombineOp>
  static node_t *batch_op(node_t *T, Elt *B, size_t N, const CombineOp &Op) {
    static_assert(P::KeepL, "a side without batch entries is kept whole");
    if (N == 0)
      return T;
    if (!T) {
      if constexpr (P::KeepR)
        return from_array_move(B, N);
      return nullptr;
    }
    if (merge_whole(size(T), N))
      return batch_base<P>(T, B, N, Op);
    exposed X = expose(T);
    node_guard GL(X.L), GR(X.R);
    size_t S = lower_bound(B, N, entry_key(X.E));
    bool Hit = S < N && !key_less(entry_key(X.E), key_of(B[S]));
    if constexpr (P::KeepBoth) {
      if (Hit)
        X.E = combine_entries(std::move(X.E), B[S], Op);
    }
    Elt *BR = B + S + Hit;
    size_t NR = N - S - Hit;
    node_t *L = nullptr, *R = nullptr;
    if (S && NR) {
      node_t *XL = GL.release(), *XR = GR.release();
      try {
        par::par_do_if(
            size(XL) + size(XR) + N >= par_gran(),
            [&] { L = batch_op<P>(XL, B, S, Op); },
            [&] { R = batch_op<P>(XR, BR, NR, Op); });
      } catch (...) {
        dec(L);
        dec(R);
        throw;
      }
    } else if (S) {
      L = batch_op<P>(GL.release(), B, S, Op);
      R = GR.release();
    } else {
      R = batch_op<P>(GR.release(), BR, NR, Op);
      L = GL.release();
    }
    if (Hit && !P::KeepBoth)
      return join2(L, R);
    return join(L, std::move(X.E), R);
  }

  /// Inserts \p E; on key collision the stored value becomes
  /// Op(old, new). O(log n + B) work. Consumes \p T.
  template <class CombineOp = take_right>
  static node_t *insert(node_t *T, entry_t E,
                        const CombineOp &Op = CombineOp()) {
    return batch_op<union_policy>(T, &E, 1, Op);
  }

  /// Removes the entry with key \p K if present. Consumes \p T.
  static node_t *remove(node_t *T, const key_t &K) {
    return batch_op<difference_policy>(T, &K, 1, take_right());
  }

  /// Inserts sorted, key-distinct entries A[0..N) (moved out) into owned
  /// \p T; a key already in T keeps Op(old, new).
  template <class CombineOp = take_right>
  static node_t *multi_insert_sorted(node_t *T, entry_t *A, size_t N,
                                     const CombineOp &Op = CombineOp()) {
    return batch_op<union_policy>(T, A, N, Op);
  }

  /// Deletes the sorted, distinct keys A[0..N) from owned \p T.
  static node_t *multi_delete_sorted(node_t *T, const key_t *A, size_t N) {
    return batch_op<difference_policy>(T, A, N, take_right());
  }

  //===--------------------------------------------------------------------===
  // Bulk traversals.
  //===--------------------------------------------------------------------===

  /// Replaces every value by f(entry), keeping the keys (still strictly
  /// increasing, as the delta-coded encoders require). Consumes \p T.
  template <class F> static node_t *map_values(node_t *T, const F &f) {
    static_assert(Entry::has_val, "map_values requires a map entry");
    return TO::map(T, [&f](entry_t E) {
      Entry::get_val(E) = f(E);
      return E;
    });
  }

  /// In-order sequential visit (read-only). \p f returns false to stop
  /// early; returns false if stopped.
  template <class F> static bool foreach_seq(const node_t *T, const F &f) {
    if (!T)
      return true;
    if (is_flat(T))
      return NL::scan(T, f);
    const auto *R = static_cast<const typename NL::regular_t *>(T);
    return foreach_seq(R->Left, f) && f(R->E) && foreach_seq(R->Right, f);
  }

  /// Parallel indexed visit: f(I, E) where I is the in-order index
  /// (read-only).
  template <class F>
  static void foreach_index(const node_t *T, const F &f, size_t Offset = 0) {
    if (!T)
      return;
    if (is_flat(T)) {
      size_t I = Offset;
      NL::scan(T, [&](const entry_t &E) {
        f(I++, E);
        return true;
      });
      return;
    }
    const auto *R = static_cast<const typename NL::regular_t *>(T);
    size_t Ls = size(R->Left);
    f(Offset + Ls, R->E);
    par::par_do_if(
        T->Size >= par_gran(), [&] { foreach_index(R->Left, f, Offset); },
        [&] { foreach_index(R->Right, f, Offset + Ls + 1); });
  }

  //===--------------------------------------------------------------------===
  // Range extraction (reads its source).
  //===--------------------------------------------------------------------===

  /// Tree of all entries with KL <= key <= KR (empty when KR < KL). Reads
  /// \p T without consuming it: the walk down to the first regular node
  /// whose key is in range takes no references, and the result joins that
  /// entry with a suffix of its left subtree and a prefix of its right one.
  /// Only whole subtrees inside the range are shared, one inc each; the at
  /// most two boundary blocks are copied in part, so the allocations depend
  /// on the range width, not on n. O(log n + B) work (Table 1).
  static node_t *range(const node_t *T, const key_t &KL, const key_t &KR) {
    while (T && !is_flat(T)) {
      const auto *R = static_cast<const typename NL::regular_t *>(T);
      if (key_less(entry_key(R->E), KL)) {
        T = R->Right;
      } else if (key_less(KR, entry_key(R->E))) {
        T = R->Left;
      } else {
        node_guard L(suffix(R->Left, KL));
        node_t *Rt = prefix(R->Right, KR);
        return join(L.release(), R->E, Rt);
      }
    }
    return T ? copy_block(T, &KL, &KR) : nullptr;
  }

  /// Tree of the entries of \p T with key >= \p KL (T is read, not
  /// consumed). Follows the one path to KL: every whole subtree right of
  /// it is shared with one inc, the block at its end is copied in part.
  static node_t *suffix(const node_t *T, const key_t &KL) {
    if (!T)
      return nullptr;
    if (is_flat(T))
      return copy_block(T, &KL, nullptr);
    const auto *R = static_cast<const typename NL::regular_t *>(T);
    if (key_less(entry_key(R->E), KL))
      return suffix(R->Right, KL);
    node_t *L = suffix(R->Left, KL); // Before the inc: a throw leaks none.
    return join(L, R->E, inc(R->Right));
  }

  /// Mirror of suffix: the entries of \p T with key <= \p KR.
  static node_t *prefix(const node_t *T, const key_t &KR) {
    if (!T)
      return nullptr;
    if (is_flat(T))
      return copy_block(T, nullptr, &KR);
    const auto *R = static_cast<const typename NL::regular_t *>(T);
    if (key_less(KR, entry_key(R->E)))
      return prefix(R->Left, KR);
    node_t *Rt = prefix(R->Right, KR);
    return join(inc(R->Left), R->E, Rt);
  }

  /// Copies the entries of the flat block \p T with *KL <= key <= *KR (a
  /// null bound is open) into a temp_buf and from there into a new tree of
  /// at most one block; T is read, not consumed.
  static node_t *copy_block(const node_t *T, const key_t *KL,
                            const key_t *KR) {
    temp_buf Buf(T->Size);
    size_t K = 0;
    NL::scan(T, [&](const entry_t &E) {
      if (KR && key_less(*KR, entry_key(E)))
        return false;
      if (!KL || !key_less(entry_key(E), *KL)) {
        ::new (static_cast<void *>(Buf.data() + K)) entry_t(E);
        Buf.set_count(++K);
      }
      return true;
    });
    return K ? TO::make_flat(Buf.data(), K) : nullptr;
  }

  //===--------------------------------------------------------------------===
  // Build from unsorted input.
  //===--------------------------------------------------------------------===

  /// True when entries sort by radix on their key: an unsigned integer
  /// key ordered by std::less, as the entry's less_t declares.
  static constexpr bool radix_keyed() {
    if constexpr (requires { typename Entry::less_t; })
      return par::is_radix_key_v<key_t> &&
             std::is_same_v<typename Entry::less_t, std::less<key_t>>;
    else
      return false;
  }

  /// Sorts A stably by key and combines duplicate keys left-to-right with
  /// \p Op; returns the deduplicated length.
  template <class CombineOp = take_right>
  static size_t sort_and_combine(entry_t *A, size_t N,
                                 const CombineOp &Op = CombineOp()) {
    if constexpr (radix_keyed())
      par::radix_sort(A, N, [](const entry_t &E) { return entry_key(E); });
    else
      par::sort(A, N, [](const entry_t &X, const entry_t &Y) {
        return key_less(entry_key(X), entry_key(Y));
      });
    if (N == 0)
      return 0;
    // Find runs of equal keys in parallel, combine each run left-to-right.
    std::vector<size_t> Starts(N);
    size_t K = par::pack_index(
        N,
        [&](size_t I) {
          return I == 0 || key_less(entry_key(A[I - 1]), entry_key(A[I]));
        },
        Starts.data());
    std::vector<entry_t> Out(K);
    par::parallel_for(0, K, [&](size_t R) {
      size_t Lo = Starts[R], Hi = R + 1 < K ? Starts[R + 1] : N;
      entry_t Acc = std::move(A[Lo]);
      for (size_t I = Lo + 1; I < Hi; ++I)
        Acc = combine_entries(std::move(Acc), A[I], Op);
      Out[R] = std::move(Acc);
    });
    par::parallel_for(0, K, [&](size_t I) { A[I] = std::move(Out[I]); });
    return K;
  }

  /// Builds a tree from \p N unsorted entries with possible duplicate keys.
  /// O(n log n) work (Table 1).
  template <class CombineOp = take_right>
  static node_t *build(const entry_t *A, size_t N,
                       const CombineOp &Op = CombineOp()) {
    std::vector<entry_t> V(N);
    par::parallel_for(0, N, [&](size_t I) { V[I] = A[I]; });
    size_t K = sort_and_combine(V.data(), N, Op);
    return from_array_move(V.data(), K);
  }

  /// Builds from entries the caller relinquishes (no copy).
  template <class CombineOp = take_right>
  static node_t *build_move(entry_t *A, size_t N,
                            const CombineOp &Op = CombineOp()) {
    size_t K = sort_and_combine(A, N, Op);
    return from_array_move(A, K);
  }
};

} // namespace cpam

#endif // CPAM_CORE_MAP_OPS_H
