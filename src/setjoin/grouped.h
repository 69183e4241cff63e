// Grouped view of a binary relation R(key, element): each key mapped to its
// sorted element set. The common substrate of the division and set-join
// algorithms ("set-valued attributes" materialized from first normal form).
#ifndef SETALG_SETJOIN_GROUPED_H_
#define SETALG_SETJOIN_GROUPED_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/relation.h"

namespace setalg::setjoin {

/// One group: a key and its element set (sorted, unique).
struct Group {
  core::Value key;
  std::vector<core::Value> elements;
};

class GroupedBuilder;

/// Groups of a binary relation, ordered by key.
class GroupedRelation {
 public:
  /// Groups `relation` (arity 2) by `key_column` (1-based; the other
  /// column provides the elements).
  static GroupedRelation FromBinary(const core::Relation& relation,
                                    std::size_t key_column = 1);

  std::size_t NumGroups() const { return groups_.size(); }
  const Group& group(std::size_t i) const { return groups_[i]; }
  const std::vector<Group>& groups() const { return groups_; }

  /// Finds a group by key; returns nullptr if absent.
  const Group* Find(core::Value key) const;

  /// Total number of (key, element) pairs.
  std::size_t TotalElements() const;

  /// The largest element set size.
  std::size_t MaxGroupSize() const;

 private:
  friend class GroupedBuilder;

  std::vector<Group> groups_;
};

/// Incremental grouping adapter: feed (key, element) pairs in any order —
/// e.g. batch-at-a-time from the engine's set-join operators — then
/// Build() the grouped view once. GroupedRelation::FromBinary (and hence
/// AsGrouped) is a thin wrapper over this builder, so the batched and the
/// whole-relation consumers share one grouping implementation.
class GroupedBuilder {
 public:
  void Reserve(std::size_t pairs) { pairs_.reserve(pairs); }

  void Add(core::Value key, core::Value element) {
    pairs_.emplace_back(key, element);
  }

  /// Sorts and deduplicates the accumulated pairs into groups ordered by
  /// key with sorted, unique element sets. Consumes the builder.
  GroupedRelation Build() &&;

 private:
  std::vector<std::pair<core::Value, core::Value>> pairs_;
};

/// The shared spelling of "group this binary relation" used by the
/// binary-relation convenience overloads (setjoin.h), the division
/// kernels and the engine's set-join operators. Forwards to
/// GroupedRelation::FromBinary, which remains the implementation.
GroupedRelation AsGrouped(const core::Relation& relation, std::size_t key_column = 1);

/// True iff sorted vector `sub` ⊆ sorted vector `super`.
bool SortedSubset(const std::vector<core::Value>& sub,
                  const std::vector<core::Value>& super);

/// True iff the sorted vectors intersect.
bool SortedIntersects(const std::vector<core::Value>& a,
                      const std::vector<core::Value>& b);

/// 64-bit Bloom-style signature of an element set: each element sets one
/// bit. s ⊆ r implies sig(s) & ~sig(r) == 0 (one-sided filter).
std::uint64_t SetSignature(const std::vector<core::Value>& elements);

/// Order-independent exact hash of the element set (for set-equality join).
std::uint64_t SetHash(const std::vector<core::Value>& elements);

}  // namespace setalg::setjoin

#endif  // SETALG_SETJOIN_GROUPED_H_
