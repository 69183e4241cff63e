// Databases over a schema, plus the paper's derived notions:
// size |D| (Definition 15), tuple space (Definition 25), guarded sets
// (Definition 9), and C-stored tuples (Definition 4).
#ifndef SETALG_CORE_DATABASE_H_
#define SETALG_CORE_DATABASE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/relation.h"
#include "core/schema.h"
#include "core/tuple.h"
#include "core/value.h"

namespace setalg::core {

/// Draws the next value from the process-wide database-identity counter.
/// Every storage lineage that can serve as a cache key — a `Database`, a
/// `txn::VersionedDatabase` head — must allocate its id here so ids never
/// collide across storage kinds.
std::uint64_t NextDatabaseId();

/// Read-only view of a database: the minimal interface the engine needs
/// to plan and execute a query. Both the live, mutable `Database` and the
/// immutable `txn::Snapshot` implement it, so every consumer — the
/// planner, the executors, stats collection, the caches — is agnostic to
/// whether it reads a head being mutated or a frozen version.
///
/// The identity contract mirrors Database: `id()` names the storage
/// lineage and `relation_version(name)` is a monotone per-relation
/// mutation counter within that lineage. Two views with equal id and
/// equal relation versions (for the relations a query reads) are
/// guaranteed to expose byte-identical relation contents.
class DatabaseView {
 public:
  virtual ~DatabaseView() = default;

  virtual const Schema& schema() const = 0;

  /// Read access to a stored relation; the name must be in the schema.
  virtual const Relation& relation(const std::string& name) const = 0;

  /// Identity of the storage lineage this view reads.
  virtual std::uint64_t id() const = 0;

  /// Monotone per-relation mutation counter (see Database).
  virtual std::uint64_t relation_version(const std::string& name) const = 0;
};

/// An assignment of a finite relation to each relation name of a schema.
///
/// Every database carries a process-unique `id()` and a per-relation
/// mutation counter (`relation_version()`), so derived data — e.g. the
/// cached relation statistics of stats::DatabaseStats — can be invalidated
/// precisely when a stored relation changes instead of being recomputed
/// per query. Copies get a fresh id (they diverge independently).
class Database : public DatabaseView {
 public:
  /// An empty database over the empty schema (useful as a placeholder).
  Database();

  explicit Database(Schema schema);

  Database(const Database& other);
  Database& operator=(const Database& other);
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  const Schema& schema() const override { return schema_; }

  /// Read access to a stored relation; the name must be in the schema.
  const Relation& relation(const std::string& name) const override;

  /// Replaces the stored relation; arity must match the schema.
  void SetRelation(const std::string& name, Relation relation);

  /// Mutable access (e.g. to Add tuples in place). Handing out mutable
  /// access conservatively counts as a mutation for relation_version().
  Relation* mutable_relation(const std::string& name);

  /// Process-unique identity of this database instance (fresh on
  /// construction and on copy; preserved by moves).
  std::uint64_t id() const override { return id_; }

  /// Monotone counter bumped every time `name` is (potentially) mutated —
  /// by SetRelation or mutable_relation. Derived caches store the counter
  /// they computed against and recompute when it moves.
  std::uint64_t relation_version(const std::string& name) const override;

  /// |D|: the sum of the cardinalities of all relations (Definition 15).
  std::size_t size() const;

  /// All values occurring in any relation, sorted and unique.
  std::vector<Value> ActiveDomain() const;

  /// The tuple space T_D (Definition 25): the set union of all relations.
  /// Tuples of different arities are all included; the result is
  /// deduplicated (a tuple present in two relations appears once).
  std::vector<Tuple> TupleSpace() const;

  /// The guarded sets of D (Definition 9): { set(t̄) | t̄ ∈ T_D }, each
  /// sorted and unique, with duplicate sets removed.
  std::vector<std::vector<Value>> GuardedSets() const;

  /// Definition 4: d̄ is C-stored in D iff the tuple obtained by deleting
  /// all C-values from d̄ appears in some projection π_{i1..ip}(D(R)).
  /// Equivalently: all non-C values of d̄ occur together in one stored
  /// tuple. The empty reduced tuple is C-stored iff some relation is
  /// nonempty (the empty projection of a nonempty relation is {()}).
  bool IsCStored(TupleView t, const ConstantSet& constants) const;

  std::string ToString() const;

  bool operator==(const Database& other) const;

 private:
  static std::uint64_t NextId();

  Schema schema_;
  std::unordered_map<std::string, Relation> relations_;
  std::unordered_map<std::string, std::uint64_t> versions_;
  std::uint64_t id_ = 0;
};

}  // namespace setalg::core

#endif  // SETALG_CORE_DATABASE_H_
