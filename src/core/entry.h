//===- entry.h - Entry traits for sets, maps and augmented maps -----------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Entry traits in the style of PAM: a tree is parameterized by an Entry
/// structure that defines the stored entry type, key extraction, ordering
/// and (optionally) augmentation. An augmented entry additionally provides
///
///   using aug_t = ...;                       // the augmented value type
///   static aug_t aug_empty();                // identity
///   static aug_t aug_from_entry(entry_t);    // g in the paper
///   static aug_t aug_combine(aug_t, aug_t);  // associative f
///
/// Non-augmented entries set `aug_t = no_aug`, which occupies no storage in
/// tree nodes.
///
/// An entry may also name the order behind `comp` as `less_t`, as map_entry
/// and set_entry do: builds from unsorted input then radix-sort unsigned
/// keys under std::less (map_ops::sort_and_combine). Without it they sort
/// with `comp`.
///
//===----------------------------------------------------------------------===//

#ifndef CPAM_CORE_ENTRY_H
#define CPAM_CORE_ENTRY_H

#include <algorithm>
#include <functional>
#include <limits>
#include <type_traits>
#include <utility>

namespace cpam {

/// Marker type: this entry carries no augmented value.
struct no_aug {};

/// Entry for ordered maps: entries are (key, value) pairs ordered by key.
template <class K, class V, class Less = std::less<K>> struct map_entry {
  using key_t = K;
  using val_t = V;
  using less_t = Less;
  using entry_t = std::pair<K, V>;
  using aug_t = no_aug;
  static constexpr bool has_val = true;
  static const key_t &get_key(const entry_t &E) { return E.first; }
  static const val_t &get_val(const entry_t &E) { return E.second; }
  static val_t &get_val(entry_t &E) { return E.second; }
  static bool comp(const key_t &A, const key_t &B) { return Less()(A, B); }
};

/// Entry for ordered sets: the entry is the key itself.
template <class K, class Less = std::less<K>> struct set_entry {
  using key_t = K;
  using less_t = Less;
  using val_t = no_aug; // No associated value.
  using entry_t = K;
  using aug_t = no_aug;
  static constexpr bool has_val = false;
  static const key_t &get_key(const entry_t &E) { return E; }
  static bool comp(const key_t &A, const key_t &B) { return Less()(A, B); }
};

/// True iff Entry declares a real augmented value.
template <class Entry>
inline constexpr bool is_augmented_v =
    !std::is_same_v<typename Entry::aug_t, no_aug>;

/// Augmented map whose augmented value is the maximum of the values.
template <class K, class V, class Less = std::less<K>>
struct aug_max_entry : map_entry<K, V, Less> {
  using entry_t = typename map_entry<K, V, Less>::entry_t;
  using aug_t = V;
  static aug_t aug_empty() { return std::numeric_limits<V>::lowest(); }
  static aug_t aug_from_entry(const entry_t &E) { return E.second; }
  static aug_t aug_combine(const aug_t &A, const aug_t &B) {
    return std::max(A, B);
  }
};

/// Augmented map whose augmented value is the sum of the values.
template <class K, class V, class Less = std::less<K>>
struct aug_sum_entry : map_entry<K, V, Less> {
  using entry_t = typename map_entry<K, V, Less>::entry_t;
  using aug_t = V;
  static aug_t aug_empty() { return V(); }
  static aug_t aug_from_entry(const entry_t &E) { return E.second; }
  static aug_t aug_combine(const aug_t &A, const aug_t &B) { return A + B; }
};

} // namespace cpam

#endif // CPAM_CORE_ENTRY_H
