//===- ordered_api.h - Shared functional API for ordered collections ------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CRTP base implementing the purely-functional collection surface shared by
/// pam_set, pam_map and aug_map. Collections are immutable values: copying
/// is O(1) (a snapshot sharing structure via reference counts), and every
/// "update" returns a new collection. The *_inplace convenience mutators
/// consume the receiver's reference, which lets the copy-on-write layer
/// reuse unshared nodes (Sec. 8's in-place optimization).
///
//===----------------------------------------------------------------------===//

#ifndef CPAM_API_ORDERED_API_H
#define CPAM_API_ORDERED_API_H

#include <optional>
#include <vector>

#include "src/core/aug_ops.h"
#include "src/core/invariants.h"
#include "src/core/map_ops.h"
#include "src/util/visit.h"

namespace cpam {

template <class Derived, class Ops> class ordered_api {
public:
  using ops = Ops;
  using node_t = typename Ops::node_t;
  using entry_t = typename Ops::entry_t;
  using key_t = typename Ops::key_t;

  ordered_api() = default;
  ordered_api(const ordered_api &O) : Root(Ops::inc(O.Root)) {}
  ordered_api(ordered_api &&O) noexcept : Root(O.Root) { O.Root = nullptr; }
  ordered_api &operator=(const ordered_api &O) {
    if (this != &O) {
      Ops::dec(Root);
      Root = Ops::inc(O.Root);
    }
    return *this;
  }
  ordered_api &operator=(ordered_api &&O) noexcept {
    if (this != &O) {
      Ops::dec(Root);
      Root = O.Root;
      O.Root = nullptr;
    }
    return *this;
  }
  ~ordered_api() { Ops::dec(Root); }

  //===--------------------------------------------------------------------===
  // Size and measurement.
  //===--------------------------------------------------------------------===

  size_t size() const { return Ops::size(Root); }
  bool empty() const { return Root == nullptr; }
  /// Heap bytes used by this structure (the paper's space metric).
  size_t size_in_bytes() const { return Ops::size_in_bytes(Root); }
  /// Number of physical tree nodes.
  size_t node_count() const { return Ops::node_count(Root); }

  //===--------------------------------------------------------------------===
  // Search.
  //===--------------------------------------------------------------------===

  std::optional<entry_t> find_entry(const key_t &K) const {
    return Ops::find(Root, K);
  }
  bool contains(const key_t &K) const { return Ops::contains(Root, K); }
  /// Number of keys strictly less than K.
  size_t rank(const key_t &K) const { return Ops::rank(Root, K); }
  /// I-th smallest entry.
  entry_t select(size_t I) const { return Ops::select(Root, I); }
  std::optional<entry_t> next(const key_t &K) const {
    return Ops::next_or_eq(Root, K);
  }
  std::optional<entry_t> previous(const key_t &K) const {
    return Ops::previous_or_eq(Root, K);
  }
  std::optional<entry_t> first() const { return Ops::first_entry(Root); }
  std::optional<entry_t> last() const { return Ops::last_entry(Root); }

  //===--------------------------------------------------------------------===
  // Functional updates (return a new collection).
  //===--------------------------------------------------------------------===

  Derived insert(entry_t E) const {
    return Derived(Ops::insert(Ops::inc(Root), std::move(E)));
  }
  Derived remove(const key_t &K) const {
    return Derived(Ops::remove(Ops::inc(Root), K));
  }
  /// Entries with KL <= key <= KR; reads this collection, sharing the
  /// whole subtrees inside the range.
  Derived range(const key_t &KL, const key_t &KR) const {
    return Derived(Ops::range(Root, KL, KR));
  }
  template <class Pred> Derived filter(const Pred &P) const {
    return Derived(Ops::filter(Ops::inc(Root), P));
  }

  //===--------------------------------------------------------------------===
  // In-place convenience mutators (consume this reference; nodes not shared
  // with other snapshots are updated without copying). Root is detached
  // before the consuming call: the op owns (and on a throw has released)
  // the old tree, so an injected allocation failure leaves this collection
  // empty rather than dangling — the basic guarantee, leak-free either way.
  //===--------------------------------------------------------------------===

  void insert_inplace(entry_t E) {
    node_t *R = Root;
    Root = nullptr;
    Root = Ops::insert(R, std::move(E));
  }
  template <class CombineOp>
  void insert_inplace(entry_t E, const CombineOp &Op) {
    node_t *R = Root;
    Root = nullptr;
    Root = Ops::insert(R, std::move(E), Op);
  }
  void remove_inplace(const key_t &K) {
    node_t *R = Root;
    Root = nullptr;
    Root = Ops::remove(R, K);
  }

  //===--------------------------------------------------------------------===
  // Set algebra.
  //===--------------------------------------------------------------------===

  template <class CombineOp = take_right>
  static Derived map_union(const Derived &A, const Derived &B,
                           const CombineOp &Op = CombineOp()) {
    return Derived(Ops::union_(Ops::inc(A.Root), Ops::inc(B.Root), Op));
  }
  template <class CombineOp = take_right>
  static Derived map_union(Derived &&A, Derived &&B,
                           const CombineOp &Op = CombineOp()) {
    node_t *RA = A.Root, *RB = B.Root;
    A.Root = B.Root = nullptr;
    return Derived(Ops::union_(RA, RB, Op));
  }
  template <class CombineOp = take_right>
  static Derived map_intersect(const Derived &A, const Derived &B,
                               const CombineOp &Op = CombineOp()) {
    return Derived(Ops::intersect(Ops::inc(A.Root), Ops::inc(B.Root), Op));
  }
  /// A \ B.
  static Derived map_difference(const Derived &A, const Derived &B) {
    return Derived(Ops::difference(Ops::inc(A.Root), Ops::inc(B.Root)));
  }
  /// Every entry of A, its value combined as Op(value in A, value in B)
  /// where B has the key; B's other keys are dropped. The operands are
  /// taken by value: an rvalue is consumed, so its unshared blocks are
  /// moved out and freed inside the merge instead of copied.
  template <class CombineOp = take_right>
  static Derived map_update(Derived A, Derived B,
                            const CombineOp &Op = CombineOp()) {
    node_t *RA = A.Root, *RB = B.Root;
    A.Root = B.Root = nullptr;
    return Derived(Ops::update(RA, RB, Op));
  }

  //===--------------------------------------------------------------------===
  // Batch updates.
  //===--------------------------------------------------------------------===

  /// Inserts a batch (unsorted, possibly duplicated keys; duplicates are
  /// combined left-to-right, then with the stored value via \p Op).
  template <class CombineOp = take_right>
  Derived multi_insert(std::vector<entry_t> Batch,
                       const CombineOp &Op = CombineOp()) const {
    size_t K = Ops::sort_and_combine(Batch.data(), Batch.size(), Op);
    return Derived(
        Ops::multi_insert_sorted(Ops::inc(Root), Batch.data(), K, Op));
  }
  /// Inserts a batch that is already sorted with distinct keys (moved).
  template <class CombineOp = take_right>
  Derived multi_insert_sorted(std::vector<entry_t> Batch,
                              const CombineOp &Op = CombineOp()) const {
    return Derived(Ops::multi_insert_sorted(Ops::inc(Root), Batch.data(),
                                            Batch.size(), Op));
  }
  Derived multi_delete(std::vector<key_t> Keys) const {
    par::sort(Keys);
    size_t K = par::unique(Keys.data(), Keys.size());
    return Derived(Ops::multi_delete_sorted(Ops::inc(Root), Keys.data(), K));
  }
  /// Sorted, distinct key batch (no resort).
  Derived multi_delete_sorted(const std::vector<key_t> &Keys) const {
    return Derived(Ops::multi_delete_sorted(Ops::inc(Root), Keys.data(),
                                            Keys.size()));
  }

  //===--------------------------------------------------------------------===
  // Traversal.
  //===--------------------------------------------------------------------===

  /// Sequential in-order visit; F returns false to stop early.
  template <class F> void foreach_seq(const F &f) const {
    Ops::foreach_seq(Root,
                     [&](const entry_t &E) { return visit_continue(f, E); });
  }
  /// Parallel visit with in-order index: f(I, E).
  template <class F> void foreach_index(const F &f) const {
    Ops::foreach_index(Root, f);
  }
  template <class F, class T2, class Combine>
  T2 map_reduce(const F &f, T2 Identity, const Combine &Cmb) const {
    return Ops::map_reduce(Root, f, Identity, Cmb);
  }
  std::vector<entry_t> to_vector() const {
    std::vector<entry_t> Out(size());
    Ops::to_array(Root, Out.data());
    return Out;
  }

  //===--------------------------------------------------------------------===
  // Testing hooks.
  //===--------------------------------------------------------------------===

  /// Empty string if the Def. 4.1 invariants hold; else a description.
  std::string check_invariants() const {
    std::string S = invariant_checker<Ops>::check(Root);
    if (!S.empty())
      return S;
    using EntryT = typename Derived::entry_traits;
    return order_checker<Ops, EntryT>::check(Root);
  }

  /// Raw root (for internal composition: graphs, range trees).
  node_t *root() const { return Root; }
  /// Adopts an owned root pointer.
  static Derived take_root(node_t *R) { return Derived(R); }

protected:
  /// All construction funnels through here: adopts an owned root. Every op
  /// already returns a whole tree of at most 2B entries as one block.
  explicit ordered_api(node_t *R) : Root(R) {}
  node_t *Root = nullptr;
};

} // namespace cpam

#endif // CPAM_API_ORDERED_API_H
