//===- basic_tree.h - join / expose / split on PaC-trees -------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The join-based primitive layer of Figs. 5 and 9: `node_join` (the
/// invariant-enforcing `node()`), `expose`, `join` with weight-balanced
/// rotations, `split`, `split_last`/`join2`, array<->tree conversion, and
/// the one copy of each traversal that maps, sets and sequences share
/// (`select`, `map_reduce`, `map`, `filter`). All higher-level
/// algorithms (union, maps, sequences, augmented queries) are written
/// against exactly these primitives, which is the paper's central
/// software-design claim: redesigning join and expose lets the whole PAM
/// algorithm suite run unchanged over compressed leaves. A block is read
/// as a whole: a consuming read flattens it into a temp_buf once
/// (node_layer::flatten), a read-only one scans it (node_layer::scan).
/// Cutting, mapping or filtering a block then writes each result block
/// with one make_flat, one code path for every encoder, augmented trees
/// included.
///
//===----------------------------------------------------------------------===//

#ifndef CPAM_CORE_BASIC_TREE_H
#define CPAM_CORE_BASIC_TREE_H

#include <algorithm>
#include <optional>
#include <type_traits>
#include <utility>

#include "src/core/node.h"

namespace cpam {

template <class Entry, template <class> class EncoderT, int BlockSizeB>
struct tree_ops : node_layer<Entry, EncoderT, BlockSizeB> {
  using NL = node_layer<Entry, EncoderT, BlockSizeB>;
  using node_t = typename NL::node_t;
  using entry_t = typename NL::entry_t;
  using key_t = typename NL::key_t;
  using temp_buf = typename NL::temp_buf;
  using node_guard = typename NL::node_guard;
  using NL::as_regular;
  using NL::dec;
  using NL::inc;
  using NL::is_flat;
  using NL::kB;
  using NL::kBlocked;
  using NL::make_flat;
  using NL::make_regular;
  using NL::flatten;
  using NL::ref_count;
  using NL::size;
  using NL::weight;

  /// Weight-balance parameter alpha = 0.29 (Def. 4.1), as the integer
  /// fraction kAlphaNum/100. alpha <= 1 - 1/sqrt(2) as required for
  /// join-based rebalancing [Blelloch-Ferizovic-Sun].
  static constexpr size_t kAlphaNum = 29;
  /// Fork granularity: subproblems at least this large fork in parallel.
  /// 2048 entries of tree work (tens of microseconds) against a ~19 ns
  /// Chase-Lev push+reclaim cycle keeps fork overhead well under 1%
  /// (bench_scheduler "fork_overhead" and the union/build/flatten grain
  /// rows in BENCH_PR4.json).
  static constexpr size_t par_gran() { return 2048; }

  /// True if a node with child weights \p WL, \p WR is weight-balanced.
  static bool balanced(size_t WL, size_t WR) {
    return 100 * WL >= kAlphaNum * (WL + WR) &&
           100 * WR >= kAlphaNum * (WL + WR);
  }
  /// True if the side with weight \p WA is too heavy against \p WB.
  static bool heavy(size_t WA, size_t WB) {
    return 100 * WB < kAlphaNum * (WA + WB);
  }

  //===--------------------------------------------------------------------===
  // node(): create a node enforcing the blocked-leaves invariant (Fig. 5).
  //===--------------------------------------------------------------------===

  /// Combines owned \p L, \p E, \p R into one tree. Callers must ensure
  /// weight balance (as join does); this function enforces only the
  /// blocked-leaves invariant, under which every subtree of at most 2B
  /// entries is one flat block: sizes up to 2B fold into one flat node,
  /// sizes in (2B,4B] redistribute around the median into two flat nodes.
  /// (Fig. 5's node() keeps sizes below B as regular "simplex" trees, one
  /// node per entry; folding instead re-encodes all S entries into a new
  /// block through a scratch array.)
  /// Like every consuming builder: a throw (injected or real bad_alloc)
  /// releases all owned inputs, so callers holding siblings only need their
  /// own guards.
  static node_t *node_join(node_t *L, entry_t E, node_t *R) {
    if constexpr (!kBlocked)
      return make_regular(L, std::move(E), R);
    size_t S = size(L) + size(R) + 1;
    // Weight balance gives each child more than B entries, and every
    // subtree of at most 2B entries is already one block.
    if (S > 4 * kB)
      return make_regular(L, std::move(E), R);
    // 2B < S <= 4B. If both children are already flat blocks of legal size
    // (a root block may be smaller than B), the invariant holds as-is.
    if (S > 2 * kB && is_flat(L) && is_flat(R) && L->Size >= kB &&
        R->Size >= kB)
      return make_regular(L, std::move(E), R);
    // Otherwise flatten everything into one buffer: up to 2B entries fold
    // into a single flat node, more redistribute into two equal flat
    // blocks around the median.
    node_guard GL(L), GR(R);
    temp_buf Buf(S);
    size_t Ls = flatten(GL.release(), Buf.data());
    ::new (static_cast<void *>(Buf.data() + Ls)) entry_t(std::move(E));
    flatten(GR.release(), Buf.data() + Ls + 1);
    Buf.set_count(S);
    if (S <= 2 * kB)
      return make_flat(Buf.data(), S);
    size_t Mid = S / 2;
    node_guard Lf(make_flat(Buf.data(), Mid));
    node_t *Rf = make_flat(Buf.data() + Mid + 1, S - Mid - 1);
    return make_regular(Lf.release(), std::move(Buf.data()[Mid]), Rf);
  }

  //===--------------------------------------------------------------------===
  // expose (Fig. 5): destructure a tree into (left, entry, right).
  //===--------------------------------------------------------------------===

  struct exposed {
    node_t *L;
    entry_t E;
    node_t *R;
  };

  struct split_t {
    node_t *L = nullptr;
    node_t *R = nullptr;
    std::optional<entry_t> E; // Set iff the key was present (or taken).
  };

  /// Cuts the flat block \p T at index \p I, consuming it: flattens the
  /// block once, makes [0, I) and [I + Take, N) one block each (null when
  /// empty) and, with \p Take, moves the entry at I into E. Serves expose,
  /// split, split_last and seq split_at. Out of line, so its buffer never
  /// joins a recursive caller's frame.
  [[gnu::noinline]] static split_t cut(node_t *T, size_t I, bool Take) {
    size_t N = size(T), J = I + Take;
    assert(is_flat(T) && J <= N && "cut past the end of the block");
    temp_buf Buf(T);
    node_guard L(I ? make_flat(Buf.data(), I) : nullptr);
    split_t Out;
    Out.R = J < N ? make_flat(Buf.data() + J, N - J) : nullptr;
    Out.L = L.release();
    if (Take)
      Out.E.emplace(std::move(Buf.data()[I]));
    return Out;
  }

  /// Destructures \p T, consuming one reference. A flat block is cut at its
  /// median entry into two flat blocks, either of which may be empty: the
  /// root of the block's balanced expansion, built without its regular
  /// nodes. A uniquely owned regular node is cannibalized without copying.
  static exposed expose(node_t *T) {
    assert(T && "cannot expose an empty tree");
    if (is_flat(T)) {
      split_t S = cut(T, T->Size / 2, true);
      return {S.L, std::move(*S.E), S.R};
    }
    auto *R = as_regular(T);
    if (ref_count(T) == 1) {
      exposed Out{R->Left, std::move(R->E), R->Right};
      NL::free_regular_shell(R);
      return Out;
    }
    exposed Out{inc(R->Left), R->E, inc(R->Right)};
    dec(T);
    return Out;
  }

  //===--------------------------------------------------------------------===
  // join (Figs. 5/9): concatenate two trees around a middle entry.
  //===--------------------------------------------------------------------===

  /// Joins owned \p L and \p R around \p E; every key in L precedes E and
  /// every key in R follows it. O(|log w(L) - log w(R)|) work on complex
  /// trees (Thm. 6.1).
  static node_t *join(node_t *L, entry_t E, node_t *R) {
    if (heavy(weight(L), weight(R)))
      return join_right(L, std::move(E), R);
    if (heavy(weight(R), weight(L)))
      return join_left(L, std::move(E), R);
    return node_join(L, std::move(E), R);
  }

  static node_t *join_right(node_t *Tl, entry_t E, node_t *Tr) {
    if (balanced(weight(Tl), weight(Tr)))
      return node_join(Tl, std::move(E), Tr);
    // A flat Tl bounds the total size by < 3B; node_join redistributes.
    if (is_flat(Tl))
      return node_join(Tl, std::move(E), Tr);
    exposed X = expose(Tl);
    node_guard GXL(X.L);
    node_t *T2 = join_right(X.R, std::move(E), Tr);
    if (balanced(weight(X.L), weight(T2)))
      return node_join(GXL.release(), std::move(X.E), T2);
    exposed Y = expose(T2);
    if (balanced(weight(X.L), weight(Y.L)) &&
        balanced(weight(X.L) + weight(Y.L), weight(Y.R))) {
      // Single (left) rotation.
      node_guard GYR(Y.R);
      node_t *Inner = node_join(GXL.release(), std::move(X.E), Y.L);
      return node_join(Inner, std::move(Y.E), GYR.release());
    }
    // Double rotation: rotate Y.L right, then the root left.
    node_guard GYR(Y.R);
    exposed Z = expose(Y.L);
    node_guard GZR(Z.R);
    node_t *A = node_join(GXL.release(), std::move(X.E), Z.L);
    node_t *B;
    try {
      B = node_join(GZR.release(), std::move(Y.E), GYR.release());
    } catch (...) {
      dec(A);
      throw;
    }
    return node_join(A, std::move(Z.E), B);
  }

  static node_t *join_left(node_t *Tl, entry_t E, node_t *Tr) {
    if (balanced(weight(Tl), weight(Tr)))
      return node_join(Tl, std::move(E), Tr);
    if (is_flat(Tr))
      return node_join(Tl, std::move(E), Tr);
    exposed X = expose(Tr);
    node_guard GXR(X.R);
    node_t *T2 = join_left(Tl, std::move(E), X.L);
    if (balanced(weight(T2), weight(X.R)))
      return node_join(T2, std::move(X.E), GXR.release());
    exposed Y = expose(T2);
    if (balanced(weight(Y.R), weight(X.R)) &&
        balanced(weight(Y.R) + weight(X.R), weight(Y.L))) {
      // Single (right) rotation.
      node_guard GYL(Y.L);
      node_t *Inner = node_join(Y.R, std::move(X.E), GXR.release());
      return node_join(GYL.release(), std::move(Y.E), Inner);
    }
    // Double rotation: rotate Y.R left, then the root right.
    node_guard GYL(Y.L);
    exposed Z = expose(Y.R);
    node_guard GZL(Z.L);
    node_t *B = node_join(Z.R, std::move(X.E), GXR.release());
    node_t *A;
    try {
      A = node_join(GYL.release(), std::move(Y.E), GZL.release());
    } catch (...) {
      dec(B);
      throw;
    }
    return node_join(A, std::move(Z.E), B);
  }

  //===--------------------------------------------------------------------===
  // Array <-> tree conversion.
  //===--------------------------------------------------------------------===

  /// Builds a tree over A[0..N) (in the given order; sorted for maps/sets),
  /// moving entries out of \p A. Leaves respect the blocking invariant: up
  /// to 2B entries are one block, so every split piece is at least B.
  static node_t *from_array_move(entry_t *A, size_t N) {
    if (N == 0)
      return nullptr;
    if constexpr (kBlocked) {
      if (N <= 2 * kB)
        return make_flat(A, N);
    }
    size_t Mid = N / 2;
    node_t *L = nullptr, *R = nullptr;
    try {
      par::par_do_if(
          N >= par_gran(), [&] { L = from_array_move(A, Mid); },
          [&] { R = from_array_move(A + Mid + 1, N - Mid - 1); });
    } catch (...) {
      dec(L);
      dec(R);
      throw;
    }
    return make_regular(L, std::move(A[Mid]), R);
  }

  /// Builds a tree from a read-only array (entries copied).
  static node_t *from_array(const entry_t *A, size_t N) {
    temp_buf Buf(N);
    par::parallel_for(0, N, [&](size_t I) {
      ::new (static_cast<void *>(Buf.data() + I)) entry_t(A[I]);
    });
    Buf.set_count(N);
    return from_array_move(Buf.data(), N);
  }

  /// Writes all entries of \p T (which is retained, not consumed) into
  /// \p Out by copy, in order.
  static void to_array(const node_t *T, entry_t *Out) {
    if (!T)
      return;
    if (is_flat(T)) {
      size_t I = 0;
      NL::scan(T, [&](const entry_t &E) {
        Out[I++] = E;
        return true;
      });
      return;
    }
    auto *R = static_cast<const typename NL::regular_t *>(T);
    size_t Ls = size(R->Left);
    Out[Ls] = R->E;
    par::par_do_if(
        T->Size >= par_gran(), [&] { to_array(R->Left, Out); },
        [&] { to_array(R->Right, Out + Ls + 1); });
  }

  //===--------------------------------------------------------------------===
  // The leaf writer: the output of the Sec. 8 merge base cases.
  //===--------------------------------------------------------------------===

  /// Streaming writer: turns one ordered entry stream of at most \p MaxN
  /// entries into a balanced tree of legal flat leaves, for every blocked
  /// tree (B = 0 trees never reach one; see map_ops::merge_whole). Its one
  /// caller is map_ops::merge, whose result size is known only at the end.
  ///
  /// push() is a single store into a pending entry array. Once 3B+1
  /// entries are pending, the oldest 2B are sealed as a finished leaf by
  /// make_flat (which aggregates augmented blocks and encodes each entry
  /// once), the next pending entry becomes the separator entry of a
  /// regular node, and the remaining B compact to the front. The 3B+1
  /// threshold is the hold-back that makes tails legal without ever
  /// revisiting a sealed leaf: a chunk is only sealed once B+1 later
  /// entries exist, so after any seal at least B entries are pending, and
  /// finish() always closes the stream as one or two leaves in [B, 2B] (a
  /// pending tail in (2B, 3B] splits around its median); a whole stream of
  /// at most 2B entries is one leaf of any size, the shape every small
  /// subtree has. finish() assembles the sealed leaves and separators into
  /// a weight-balanced top with join (forking for wide results, the same
  /// discipline as from_array_move).
  ///
  /// Abandonment mid-stream leaks nothing: sealed leaves are dec'd,
  /// pending entries and separators destroyed.
  class leaf_writer {
  public:
    /// Entries per sealed leaf: full blocks, so a stream of k*2B entries
    /// becomes exactly k leaves.
    static constexpr size_t kChunk = 2 * kB;
    /// Pending entries that trigger a seal: chunk + separator + the B
    /// hold-back that keeps every later tail legal.
    static constexpr size_t kPendTrigger = 3 * kB + 1;

    explicit leaf_writer(size_t MaxN) {
      // One scratch buffer carries the pending array and, for streams that
      // can span leaves, the separator and leaf-pointer arrays; for a
      // stream of at most 4 KiB of entries it sits inside the writer, so
      // sealing the result is the only allocation.
      PendCap = std::max<size_t>(1, std::min(MaxN, kPendTrigger));
      size_t SepOff = PendCap * sizeof(entry_t);
      size_t LeafOff = SepOff, Bytes = SepOff;
      if (MaxN > kChunk) {
        // Every sealed leaf covers at least B+1 stream entries (leaf plus
        // separator), which bounds the unit arrays up front.
        MaxUnits = MaxN / (kB + 1) + 2;
        LeafOff = align_up(SepOff + MaxUnits * sizeof(entry_t),
                           alignof(node_t *));
        Bytes = LeafOff + MaxUnits * sizeof(node_t *);
      }
      uint8_t *Buf = Mem.reserve(Bytes);
      Pending = reinterpret_cast<entry_t *>(Buf);
      if (MaxN > kChunk) {
        Seps = reinterpret_cast<entry_t *>(Buf + SepOff);
        Leaves = reinterpret_cast<node_t **>(Buf + LeafOff);
      }
    }
    leaf_writer(const leaf_writer &) = delete;
    leaf_writer &operator=(const leaf_writer &) = delete;
    ~leaf_writer() {
      destroy_pending();
      if constexpr (!std::is_trivially_destructible_v<entry_t>)
        for (size_t I = 0; I < NSeps; ++I)
          Seps[I].~entry_t();
      for (size_t I = 0; I < NLeaves; ++I)
        NL::dec(Leaves[I]);
    }

    void push(entry_t E) {
      assert(NPend < PendCap && "pending array overflow (push past MaxN?)");
      ::new (static_cast<void *>(Pending + NPend)) entry_t(std::move(E));
      if (++NPend == kPendTrigger && PendCap == kPendTrigger)
        drain_chunk();
    }
    /// Builds the result tree (nullptr when nothing was pushed) and resets.
    node_t *finish() {
      node_t *Out;
      if (NPend == 0) {
        Out = nullptr; // Nothing pushed: any seal leaves B pending.
      } else if (NLeaves == 0 && NPend <= kChunk) {
        // The whole stream is one legal leaf (the unit arrays may not
        // exist here: a MaxN <= 2B writer never reserves them).
        Out = make_flat(Pending, NPend);
      } else if (NPend <= kChunk) {
        // One more legal leaf under sealed ones: the hold-back
        // guarantees NPend >= B.
        assert(NPend >= kB && "hold-back must keep tails >= B");
        seal(0, NPend);
        Out = close_top();
      } else {
        // Tail in (2B, 3B]: two legal leaves around the median entry.
        size_t S1 = NPend / 2;
        assert(S1 >= kB && NPend - 1 - S1 >= kB && "illegal tail split");
        seal(0, S1);
        new_separator(std::move(Pending[S1]));
        seal(S1 + 1, NPend - 1 - S1);
        Out = close_top();
      }
      destroy_pending(); // Sealed entries left only destructible husks.
      NPend = 0;
      return Out;
    }

  private:
    static constexpr size_t align_up(size_t X, size_t A) {
      return (X + A - 1) & ~(A - 1);
    }

    void destroy_pending(size_t From = 0) {
      if constexpr (!std::is_trivially_destructible_v<entry_t>)
        for (size_t I = From; I < NPend; ++I)
          Pending[I].~entry_t();
    }

    /// Seals pending entries [From, From + N) as one finished leaf.
    /// make_flat moves entries out only once the leaf is allocated, so a
    /// throw here (the "leaf.seal" failpoint models an allocation failure
    /// mid-merge) leaves them pending, and abandonment leaks nothing.
    void seal(size_t From, size_t N) {
      assert(Leaves && NLeaves < MaxUnits &&
             "sealing requires the unit arrays (MaxN > 2B)");
      if (CPAM_FAILPOINT_ACTIVE("leaf.seal"))
        throw std::bad_alloc();
      Leaves[NLeaves++] = make_flat(Pending + From, N);
    }
    void new_separator(entry_t Sep) {
      ::new (static_cast<void *>(Seps + NSeps)) entry_t(std::move(Sep));
      ++NSeps;
    }

    /// Pending hit 3B+1: emit the oldest 2B as a sealed leaf, take the
    /// next as separator, compact the remaining B to the front.
    void drain_chunk() {
      seal(0, kChunk);
      new_separator(std::move(Pending[kChunk]));
      size_t Rest = NPend - kChunk - 1; // == kB
      if constexpr (std::is_trivially_copyable_v<entry_t>) {
        std::memcpy(static_cast<void *>(Pending),
                    static_cast<const void *>(Pending + kChunk + 1),
                    Rest * sizeof(entry_t));
      } else {
        for (size_t I = 0; I < Rest; ++I)
          Pending[I] = std::move(Pending[kChunk + 1 + I]);
        destroy_pending(Rest);
      }
      NPend = Rest;
    }

    /// Top assembly over the sealed leaves once the tail is closed.
    node_t *close_top() {
      assert(NLeaves == NSeps + 1 &&
             "one separator between consecutive leaves");
      node_t *Out = build_top(Leaves, Seps, NLeaves);
      if constexpr (!std::is_trivially_destructible_v<entry_t>)
        for (size_t I = 0; I < NSeps; ++I)
          Seps[I].~entry_t(); // build_top moved them out; drop the husks.
      NLeaves = 0;
      NSeps = 0;
      return Out;
    }

    /// Balanced top over \p K sealed units and K-1 separators, built with
    /// join so near-equal unit weights (full chunks, plus final units in
    /// [B, 2B]) always land inside the alpha balance bound.
    /// Consumed leaf slots are nulled so that if assembly throws partway,
    /// the writer's destructor decs only the leaves still unconsumed
    /// (dec(nullptr) is a no-op) — never a double release.
    static node_t *build_top(node_t **Ls, entry_t *Ss, size_t K) {
      if (K == 1) {
        node_t *Out = Ls[0];
        Ls[0] = nullptr;
        return Out;
      }
      size_t Mid = K / 2;
      node_t *L = nullptr, *R = nullptr;
      try {
        par::par_do_if(
            K * kChunk >= par_gran(), [&] { L = build_top(Ls, Ss, Mid); },
            [&] { R = build_top(Ls + Mid, Ss + Mid, K - Mid); });
      } catch (...) {
        dec(L);
        dec(R);
        throw;
      }
      return join(L, std::move(Ss[Mid - 1]), R);
    }

    scratch_buf Mem; // Declared first: outlives every view into it.
    /// Pending (not yet encoded) entries; the hold-back that keeps every
    /// sealed leaf and tail inside [B, 2B].
    entry_t *Pending = nullptr;
    size_t PendCap = 0;
    size_t NPend = 0;
    /// Pending separators and sealed leaves: present only for streams
    /// that can span leaves (MaxN > 2B).
    entry_t *Seps = nullptr;
    node_t **Leaves = nullptr;
    size_t MaxUnits = 0;
    size_t NLeaves = 0;
    size_t NSeps = 0;
  };

  //===--------------------------------------------------------------------===
  // split / split_last / join2 (Figs. 5/10).
  //===--------------------------------------------------------------------===

  /// Splits \p T by key \p K into (keys < K, keys > K) plus the entry with
  /// key K if present. Consumes \p T. A block whose keys all fall on one
  /// side of K is returned as it is, with no re-encode.
  static split_t split(node_t *T, const key_t &K) {
    if (!T)
      return {};
    if (is_flat(T)) {
      size_t N = T->Size, Below = 0;
      bool Found = false;
      NL::scan(T, [&](const entry_t &E) {
        if (Entry::comp(Entry::get_key(E), K)) {
          ++Below;
          return true;
        }
        Found = !Entry::comp(K, Entry::get_key(E));
        return false;
      });
      if (Below == N || (Below == 0 && !Found)) {
        split_t Out;
        (Below == N ? Out.L : Out.R) = T;
        return Out;
      }
      return cut(T, Below, Found);
    }
    exposed X = expose(T);
    const key_t &Ke = Entry::get_key(X.E);
    if (Entry::comp(K, Ke)) {
      node_guard GR(X.R);
      split_t S = split(X.L, K);
      node_guard GL(S.L);
      S.R = join(S.R, std::move(X.E), GR.release());
      GL.release();
      return S;
    }
    if (Entry::comp(Ke, K)) {
      node_guard GL(X.L);
      split_t S = split(X.R, K);
      node_guard GR(S.R);
      S.L = join(GL.release(), std::move(X.E), S.L);
      GR.release();
      return S;
    }
    split_t Out;
    Out.L = X.L;
    Out.R = X.R;
    Out.E.emplace(std::move(X.E));
    return Out;
  }

  /// Removes and returns the last (largest) entry. \p T must be nonempty.
  static std::pair<node_t *, entry_t> split_last(node_t *T) {
    assert(T && "split_last on empty tree");
    if (is_flat(T)) {
      split_t S = cut(T, T->Size - 1, true);
      return {S.L, std::move(*S.E)};
    }
    exposed X = expose(T);
    if (!X.R)
      return {X.L, std::move(X.E)};
    node_guard GL(X.L);
    auto [Rest, Last] = split_last(X.R);
    return {join(GL.release(), std::move(X.E), Rest), std::move(Last)};
  }

  /// Concatenates two owned trees (all keys in L precede all keys in R).
  static node_t *join2(node_t *L, node_t *R) {
    if (!L)
      return R;
    if (!R)
      return L;
    node_guard GR(R);
    auto [Rest, Last] = split_last(L);
    return join(Rest, std::move(Last), GR.release());
  }

  //===--------------------------------------------------------------------===
  // Traversals shared by maps, sets and sequences.
  //===--------------------------------------------------------------------===

  /// The \p I-th entry in order (0-based; nth of a sequence). Requires
  /// I < size(T). O(log n + B) work, no allocation.
  static entry_t select(const node_t *T, size_t I) {
    assert(T && I < size(T) && "select index out of range");
    while (true) {
      if (is_flat(T)) {
        entry_t Out{}; // Always assigned (I < size(T)); {} pacifies GCC.
        size_t J = 0;
        NL::scan(T, [&](const entry_t &E) {
          if (J++ == I) {
            Out = E;
            return false;
          }
          return true;
        });
        return Out;
      }
      const auto *R = static_cast<const typename NL::regular_t *>(T);
      size_t Ls = size(R->Left);
      if (I < Ls) {
        T = R->Left;
      } else if (I == Ls) {
        return R->E;
      } else {
        I -= Ls + 1;
        T = R->Right;
      }
    }
  }

  /// Reduces f(entry) over the tree in order with the associative \p Cmb
  /// (read-only). O(n) work, O(log n) span.
  template <class F, class T2, class Combine>
  static T2 map_reduce(const node_t *T, const F &f, T2 Identity,
                       const Combine &Cmb) {
    if (!T)
      return Identity;
    if (is_flat(T)) {
      T2 Acc = Identity;
      NL::scan(T, [&](const entry_t &E) {
        Acc = Cmb(Acc, f(E));
        return true;
      });
      return Acc;
    }
    const auto *R = static_cast<const typename NL::regular_t *>(T);
    T2 A = Identity, B = Identity;
    par::par_do_if(
        T->Size >= par_gran(),
        [&] { A = map_reduce(R->Left, f, Identity, Cmb); },
        [&] { B = map_reduce(R->Right, f, Identity, Cmb); });
    return Cmb(Cmb(A, f(R->E)), B);
  }

  /// Replaces every entry E by f(E), keeping the shape. \p f must keep
  /// keys in order (a map rewrites values only; a sequence has no order).
  /// Consumes \p T.
  template <class F> static node_t *map(node_t *T, const F &f) {
    if (!T)
      return nullptr;
    if (is_flat(T)) {
      // Rewrite the flattened block in place and encode it once.
      temp_buf Buf(T);
      entry_t *A = Buf.data();
      for (size_t I = 0; I < Buf.count(); ++I)
        A[I] = f(std::move(A[I]));
      return make_flat(A, Buf.count());
    }
    exposed X = expose(T);
    node_t *L = nullptr, *R = nullptr;
    try {
      par::par_do_if(
          size(X.L) + size(X.R) >= par_gran(), [&] { L = map(X.L, f); },
          [&] { R = map(X.R, f); });
    } catch (...) {
      dec(L);
      dec(R);
      throw;
    }
    return node_join(L, f(std::move(X.E)), R);
  }

  /// Keeps the entries satisfying \p P, in order. Consumes \p T.
  template <class Pred> static node_t *filter(node_t *T, const Pred &P) {
    if (!T)
      return nullptr;
    if (is_flat(T)) {
      // Compact the kept entries of the flattened block to its front, in
      // order, and encode them once (|result| <= |T| <= 2B is one block).
      temp_buf Buf(T);
      entry_t *A = Buf.data();
      size_t K = std::remove_if(A, A + Buf.count(),
                                [&](const entry_t &E) { return !P(E); }) -
                 A;
      return K ? make_flat(A, K) : nullptr;
    }
    exposed X = expose(T);
    node_t *L = nullptr, *R = nullptr;
    try {
      par::par_do_if(
          size(X.L) + size(X.R) >= par_gran(), [&] { L = filter(X.L, P); },
          [&] { R = filter(X.R, P); });
    } catch (...) {
      dec(L);
      dec(R);
      throw;
    }
    if (P(X.E))
      return join(L, std::move(X.E), R);
    return join2(L, R);
  }
};

} // namespace cpam

#endif // CPAM_CORE_BASIC_TREE_H
