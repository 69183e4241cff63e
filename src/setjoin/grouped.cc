#include "setjoin/grouped.h"

#include <algorithm>

#include "util/check.h"
#include "util/hash.h"

namespace setalg::setjoin {

GroupedRelation::GroupedRelation(const core::Value* rows, std::size_t count) {
  elements_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const core::Value* row = rows + 2 * i;
    if (i == 0 || row[0] != row[-2]) {  // A run boundary: a new group.
      SETALG_DCHECK(i == 0 || row[0] > row[-2]);
      keys_.push_back(row[0]);
      offsets_.push_back(i);
    } else {
      SETALG_DCHECK(row[1] > row[-1]);
    }
    elements_.push_back(row[1]);
  }
  offsets_.push_back(count);
}

GroupedRelation::GroupedRelation(const core::Relation& relation) {
  SETALG_CHECK_EQ(relation.arity(), 2u);
  *this = GroupedRelation(relation.flat().data(), relation.size());
}

bool SortedSubset(std::span<const core::Value> sub, std::span<const core::Value> super) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

bool SortedIntersects(std::span<const core::Value> a, std::span<const core::Value> b) {
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

std::uint64_t SetSignature(std::span<const core::Value> elements) {
  std::uint64_t signature = 0;
  for (core::Value e : elements) {
    signature |= 1ULL << (util::Mix64(static_cast<std::uint64_t>(e)) & 63);
  }
  return signature;
}

std::uint64_t SetHash(std::span<const core::Value> elements) {
  std::uint64_t h = util::Mix64(elements.size());
  for (core::Value e : elements) {
    h = util::HashCombineUnordered(h, static_cast<std::uint64_t>(e));
  }
  return h;
}

}  // namespace setalg::setjoin
