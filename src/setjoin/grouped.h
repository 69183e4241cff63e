// Grouped view of a binary relation R(key, element): each key mapped to its
// sorted element set. The common substrate of the division and set-join
// algorithms ("set-valued attributes" materialized from first normal form).
#ifndef SETALG_SETJOIN_GROUPED_H_
#define SETALG_SETJOIN_GROUPED_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/relation.h"

namespace setalg::setjoin {

/// One group: a key and its element set (sorted, unique, non-empty),
/// borrowed from the GroupedRelation it came from.
struct Group {
  core::Value key;
  std::span<const core::Value> elements;
};

/// Groups of a binary relation, ordered by key, as a CSR view (compressed
/// sparse row): the keys, one offset per group into a single flat element
/// array, and that array. A normalized binary relation is sorted on
/// (key, element), so it is already grouped: one pass over its rows finds
/// the run boundaries, with no sort and no per-group allocation. Groups
/// are built only from rows, so every group has at least one element.
class GroupedRelation {
 public:
  /// Groups `count` row-major (key, element) rows at `rows`, which must be
  /// sorted and unique — a normalized binary relation's flat(), or one
  /// KeyRanges range of it — in one pass.
  GroupedRelation(const core::Value* rows, std::size_t count);

  /// Groups a binary relation on column 1 (reads its normalized storage).
  explicit GroupedRelation(const core::Relation& relation);

  std::size_t NumGroups() const { return keys_.size(); }

  Group group(std::size_t i) const {
    return {keys_[i], std::span<const core::Value>(elements_.data() + offsets_[i],
                                                   offsets_[i + 1] - offsets_[i])};
  }

 private:
  std::vector<core::Value> keys_;
  std::vector<std::size_t> offsets_;  // NumGroups() + 1 entries.
  std::vector<core::Value> elements_;
};

/// True iff sorted range `sub` ⊆ sorted range `super`.
bool SortedSubset(std::span<const core::Value> sub, std::span<const core::Value> super);

/// True iff the sorted ranges intersect.
bool SortedIntersects(std::span<const core::Value> a, std::span<const core::Value> b);

/// 64-bit Bloom-style signature of an element set: each element sets one
/// bit. s ⊆ r implies sig(s) & ~sig(r) == 0 (one-sided filter).
std::uint64_t SetSignature(std::span<const core::Value> elements);

/// Order-independent exact hash of the element set (for set-equality join).
std::uint64_t SetHash(std::span<const core::Value> elements);

}  // namespace setalg::setjoin

#endif  // SETALG_SETJOIN_GROUPED_H_
