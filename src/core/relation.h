// A relation: a finite *set* of same-arity tuples over the universe.
//
// Storage is flat and row-major (one std::vector<Value>), kept sorted and
// deduplicated lazily. Per Definition 15 the size of a relation is its
// cardinality, which is what all the complexity statements count.
#ifndef SETALG_CORE_RELATION_H_
#define SETALG_CORE_RELATION_H_

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "core/tuple.h"
#include "core/value.h"

namespace setalg::core {

/// A finite relation with set semantics.
///
/// Mutation model: Add() appends rows; the relation re-normalizes (sorts and
/// deduplicates) lazily before any read, and that first read writes the
/// storage. Not thread-safe until normalized: once Normalize() has run
/// and no row was added since, reads write nothing and may be shared
/// between threads (txn::VersionedDatabase publishes relations that way).
class Relation {
 public:
  /// An empty relation of the given arity. Arity 0 is allowed (the two
  /// zero-ary relations {} and {()} act as booleans).
  explicit Relation(std::size_t arity);

  /// Convenience constructor from a list of rows, e.g.
  /// `Relation::FromRows(2, {{1, 2}, {3, 4}})`.
  static Relation FromRows(std::size_t arity,
                           std::initializer_list<std::initializer_list<Value>> rows);
  static Relation FromRows(std::size_t arity, const std::vector<Tuple>& rows);

  std::size_t arity() const { return arity_; }

  /// Cardinality (Definition 15).
  std::size_t size() const;
  bool empty() const { return size() == 0; }

  /// The i-th tuple in sorted order, 0 <= i < size().
  TupleView tuple(std::size_t i) const;

  /// Appends a tuple (duplicates are eliminated on normalization).
  void Add(TupleView t);
  void Add(std::initializer_list<Value> t);

  /// Bulk-appends `rows` tuples stored row-major at `data` (arity must be
  /// non-zero). The batch-execution hot path: one range insert instead of
  /// per-tuple calls.
  void AddRows(const Value* data, std::size_t rows);

  /// Reserves space for `rows` additional tuples.
  void Reserve(std::size_t rows);

  /// Membership test (binary search over the normalized storage).
  bool Contains(TupleView t) const;

  /// Forces normalization now (sort + unique). Reads normalize implicitly.
  /// Only the rows after the longest strictly sorted prefix are sorted,
  /// then merged into it, so a sorted relation costs one O(n) check and
  /// an edit that appends t rows to one costs O(n + t log t).
  void Normalize() const;

  /// All values occurring anywhere in the relation, sorted and unique.
  std::vector<Value> ActiveDomain() const;

  bool operator==(const Relation& other) const;
  bool operator!=(const Relation& other) const { return !(*this == other); }

  /// Multi-line human-readable rendering (for examples and test failures).
  std::string ToString() const;

  /// Direct access to the flat normalized storage (row-major).
  const std::vector<Value>& flat() const;

 private:
  std::size_t arity_;
  mutable std::vector<Value> values_;
  mutable bool dirty_ = false;
  // Cardinality cache, valid when !dirty_.
  mutable std::size_t row_count_ = 0;
};

/// Set union of two relations of equal arity.
Relation Union(const Relation& a, const Relation& b);

/// Set difference a − b (equal arity).
Relation Difference(const Relation& a, const Relation& b);

/// Set intersection (equal arity).
Relation Intersect(const Relation& a, const Relation& b);

}  // namespace setalg::core

#endif  // SETALG_CORE_RELATION_H_
