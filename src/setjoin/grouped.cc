#include "setjoin/grouped.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/hash.h"

namespace setalg::setjoin {

GroupedRelation GroupedBuilder::Build() && {
  GroupedRelation grouped;
  std::sort(pairs_.begin(), pairs_.end());
  for (const auto& [key, element] : pairs_) {
    if (grouped.groups_.empty() || grouped.groups_.back().key != key) {
      grouped.groups_.push_back({key, {}});
    }
    auto& elements = grouped.groups_.back().elements;
    if (elements.empty() || elements.back() != element) elements.push_back(element);
  }
  pairs_.clear();
  return grouped;
}

GroupedRelation GroupedRelation::FromBinary(const core::Relation& relation,
                                            std::size_t key_column) {
  SETALG_CHECK_EQ(relation.arity(), 2u);
  SETALG_CHECK(key_column == 1 || key_column == 2);
  const std::size_t value_column = key_column == 1 ? 2 : 1;

  GroupedBuilder builder;
  builder.Reserve(relation.size());
  for (std::size_t i = 0; i < relation.size(); ++i) {
    core::TupleView t = relation.tuple(i);
    builder.Add(t[key_column - 1], t[value_column - 1]);
  }
  return std::move(builder).Build();
}

GroupedRelation AsGrouped(const core::Relation& relation, std::size_t key_column) {
  return GroupedRelation::FromBinary(relation, key_column);
}

const Group* GroupedRelation::Find(core::Value key) const {
  auto it = std::lower_bound(
      groups_.begin(), groups_.end(), key,
      [](const Group& g, core::Value k) { return g.key < k; });
  if (it == groups_.end() || it->key != key) return nullptr;
  return &*it;
}

std::size_t GroupedRelation::TotalElements() const {
  std::size_t total = 0;
  for (const auto& g : groups_) total += g.elements.size();
  return total;
}

std::size_t GroupedRelation::MaxGroupSize() const {
  std::size_t max_size = 0;
  for (const auto& g : groups_) max_size = std::max(max_size, g.elements.size());
  return max_size;
}

bool SortedSubset(const std::vector<core::Value>& sub,
                  const std::vector<core::Value>& super) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

bool SortedIntersects(const std::vector<core::Value>& a,
                      const std::vector<core::Value>& b) {
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

std::uint64_t SetSignature(const std::vector<core::Value>& elements) {
  std::uint64_t signature = 0;
  for (core::Value e : elements) {
    signature |= 1ULL << (util::Mix64(static_cast<std::uint64_t>(e)) & 63);
  }
  return signature;
}

std::uint64_t SetHash(const std::vector<core::Value>& elements) {
  std::uint64_t h = util::Mix64(elements.size());
  for (core::Value e : elements) {
    h = util::HashCombineUnordered(h, static_cast<std::uint64_t>(e));
  }
  return h;
}

}  // namespace setalg::setjoin
