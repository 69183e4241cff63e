#include "core/relation.h"

#include <algorithm>

#include "util/check.h"

namespace setalg::core {
namespace {

// Lexicographic row order on the flat storage. Inlined into the sort and
// merge loops below; CompareTuples is out of line.
inline bool RowLess(const Value* a, const Value* b, std::size_t arity) {
  for (std::size_t k = 0; k < arity; ++k) {
    if (a[k] != b[k]) return a[k] < b[k];
  }
  return false;
}

inline bool RowEqual(const Value* a, const Value* b, std::size_t arity) {
  for (std::size_t k = 0; k < arity; ++k) {
    if (a[k] != b[k]) return false;
  }
  return true;
}

// The first of the sorted rows [lo, hi) of `v` not less than `row`.
// Gallops from lo before bisecting, so an answer d rows past lo costs
// O(log d) compares: merging t rows into p costs O(t log(p/t)).
std::size_t LowerBoundFrom(const Value* v, std::size_t lo, std::size_t hi,
                           const Value* row, std::size_t arity) {
  std::size_t probe = lo;
  for (std::size_t step = 1;
       probe < hi && RowLess(v + probe * arity, row, arity); step *= 2) {
    lo = probe + 1;
    probe = lo + step;
  }
  hi = std::min(probe, hi);
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (RowLess(v + mid * arity, row, arity)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Sorts the flat storage's rows lexicographically and removes duplicates.
// Returns the resulting row count.
std::size_t SortUniqueRows(std::vector<Value>* values, std::size_t arity) {
  if (arity == 0) {
    // Zero-ary relation: it holds either zero or one (empty) tuple. The
    // flat representation cannot carry rows, so row presence is tracked by
    // a one-element sentinel vector.
    return values->empty() ? 0 : 1;
  }
  const std::size_t rows = values->size() / arity;
  const Value* v = values->data();
  // The longest strictly sorted prefix. It is everything for rows added
  // in normalized order (the engine's batch streams), and everything but
  // the appended rows for an edit of a normalized relation.
  std::size_t prefix = std::min<std::size_t>(rows, 1);
  while (prefix < rows &&
         RowLess(v + (prefix - 1) * arity, v + prefix * arity, arity)) {
    ++prefix;
  }
  if (prefix == rows) return rows;

  // Sort only the tail, by row index...
  std::vector<std::size_t> order(rows - prefix);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = prefix + i;
  std::sort(order.begin(), order.end(), [v, arity](std::size_t a, std::size_t b) {
    return RowLess(v + a * arity, v + b * arity, arity);
  });
  // ...and merge it in: the prefix rows between two insertion points are
  // copied in one block, and a tail row equal to the previous tail row or
  // to a prefix row is dropped.
  std::vector<Value> merged;
  merged.reserve(values->size());
  std::size_t copied = 0;  // Prefix rows [0, copied) are in `merged`.
  const Value* previous = nullptr;
  for (const std::size_t i : order) {
    const Value* row = v + i * arity;
    if (previous != nullptr && RowEqual(previous, row, arity)) continue;
    previous = row;
    const std::size_t at = LowerBoundFrom(v, copied, prefix, row, arity);
    merged.insert(merged.end(), v + copied * arity, v + at * arity);
    copied = at;
    if (copied < prefix && RowEqual(v + copied * arity, row, arity)) continue;
    merged.insert(merged.end(), row, row + arity);
  }
  merged.insert(merged.end(), v + copied * arity, v + prefix * arity);
  *values = std::move(merged);
  return values->size() / arity;
}

}  // namespace

Relation::Relation(std::size_t arity) : arity_(arity) {}

Relation Relation::FromRows(std::size_t arity,
                            std::initializer_list<std::initializer_list<Value>> rows) {
  Relation r(arity);
  for (const auto& row : rows) {
    SETALG_CHECK_EQ(row.size(), arity);
    r.Add(std::vector<Value>(row.begin(), row.end()));
  }
  return r;
}

Relation Relation::FromRows(std::size_t arity, const std::vector<Tuple>& rows) {
  Relation r(arity);
  r.Reserve(rows.size());
  for (const auto& row : rows) r.Add(row);
  return r;
}

std::size_t Relation::size() const {
  Normalize();
  return row_count_;
}

TupleView Relation::tuple(std::size_t i) const {
  Normalize();
  SETALG_DCHECK(i < row_count_);
  return TupleView(values_.data() + i * arity_, arity_);
}

void Relation::Add(TupleView t) {
  SETALG_CHECK_EQ(t.size(), arity_);
  if (arity_ == 0) {
    // Presence sentinel; see SortUniqueRows.
    if (values_.empty()) values_.push_back(0);
  } else {
    values_.insert(values_.end(), t.begin(), t.end());
  }
  dirty_ = true;
}

void Relation::Add(std::initializer_list<Value> t) {
  Add(TupleView(t.begin(), t.size()));
}

void Relation::AddRows(const Value* data, std::size_t rows) {
  SETALG_CHECK(arity_ > 0);
  if (rows == 0) return;
  values_.insert(values_.end(), data, data + rows * arity_);
  dirty_ = true;
}

void Relation::Reserve(std::size_t rows) { values_.reserve(values_.size() + rows * arity_); }

bool Relation::Contains(TupleView t) const {
  SETALG_CHECK_EQ(t.size(), arity_);
  Normalize();
  if (arity_ == 0) return row_count_ == 1;
  std::size_t lo = 0, hi = row_count_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const int cmp = CompareTuples(TupleView(values_.data() + mid * arity_, arity_), t);
    if (cmp == 0) return true;
    if (cmp < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return false;
}

void Relation::Normalize() const {
  if (!dirty_) return;
  row_count_ = SortUniqueRows(&values_, arity_);
  dirty_ = false;
}

std::vector<Value> Relation::ActiveDomain() const {
  Normalize();
  if (arity_ == 0) return {};
  std::vector<Value> domain(values_.begin(), values_.end());
  std::sort(domain.begin(), domain.end());
  domain.erase(std::unique(domain.begin(), domain.end()), domain.end());
  return domain;
}

bool Relation::operator==(const Relation& other) const {
  if (arity_ != other.arity_) return false;
  Normalize();
  other.Normalize();
  if (arity_ == 0) return row_count_ == other.row_count_;
  return values_ == other.values_;
}

std::string Relation::ToString() const {
  Normalize();
  std::string out = "{";
  for (std::size_t i = 0; i < size(); ++i) {
    if (i > 0) out += ", ";
    out += TupleToString(tuple(i));
  }
  out += "}";
  return out;
}

const std::vector<Value>& Relation::flat() const {
  Normalize();
  return values_;
}

Relation Union(const Relation& a, const Relation& b) {
  SETALG_CHECK_EQ(a.arity(), b.arity());
  Relation out(a.arity());
  out.Reserve(a.size() + b.size());
  for (std::size_t i = 0; i < a.size(); ++i) out.Add(a.tuple(i));
  for (std::size_t i = 0; i < b.size(); ++i) out.Add(b.tuple(i));
  return out;
}

Relation Difference(const Relation& a, const Relation& b) {
  SETALG_CHECK_EQ(a.arity(), b.arity());
  Relation out(a.arity());
  // Both sides are sorted; merge-style anti-join.
  std::size_t j = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    TupleView row = a.tuple(i);
    while (j < b.size() && CompareTuples(b.tuple(j), row) < 0) ++j;
    if (j < b.size() && TupleEquals(b.tuple(j), row)) continue;
    out.Add(row);
  }
  return out;
}

Relation Intersect(const Relation& a, const Relation& b) {
  SETALG_CHECK_EQ(a.arity(), b.arity());
  Relation out(a.arity());
  std::size_t j = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    TupleView row = a.tuple(i);
    while (j < b.size() && CompareTuples(b.tuple(j), row) < 0) ++j;
    if (j < b.size() && TupleEquals(b.tuple(j), row)) out.Add(row);
  }
  return out;
}

}  // namespace setalg::core
