// MVCC storage: a mutable head (`VersionedDatabase`) that publishes
// immutable snapshots (`Snapshot`) by copy-on-write.
//
// The concurrency contract, in one paragraph: writers serialize on the
// head's writer mutex; each commit shallow-copies the head's relation map
// (shared_ptr per relation version), replaces only the touched relations
// with freshly allocated versions, bumps their mutation counters, and
// swaps the new `Snapshot` in under the head mutex. That mutex guards
// only the head pointer: readers call `snapshot()` — a pointer copy under
// it, a handful of instructions, never behind a writer's copy, callback
// or normalization — and from then on never synchronize with anyone: a
// snapshot is deeply immutable, its relation pointers are frozen at
// commit time, and the shared_ptr keeps every relation alive for as long
// as any reader holds the snapshot. Any number of threads may therefore
// execute queries against the same (or different) snapshots while
// writers keep committing. Every write path normalizes a relation before
// publishing it, so no reader ever runs core::Relation's lazy,
// unsynchronized normalization.
//
// Statistics belong to a relation version, not to a snapshot: each
// published version computes its stats::RelationStats once, on the first
// request from any snapshot that carries it. A commit hands untouched
// versions — statistics included — to the next snapshot through the
// same pointer copy, so a relation nobody writes is summarized once.
//
// Identity: the head allocates its id from the same process-wide counter
// as core::Database (`core::NextDatabaseId`), and every snapshot reports
// that head id with the per-relation mutation counters frozen at its
// commit. The (id, version vector) pair is thus a precise cache key:
// equal pairs imply byte-identical relation contents, across snapshots
// and across time — which is exactly what the shared plan cache and the
// result cache index on.
#ifndef SETALG_TXN_SNAPSHOT_H_
#define SETALG_TXN_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/database.h"
#include "core/relation.h"
#include "core/schema.h"
#include "stats/stats.h"

namespace setalg::txn {

class Snapshot;
using SnapshotPtr = std::shared_ptr<const Snapshot>;

/// One immutable published version of a versioned database. Implements
/// the engine's read interface (core::DatabaseView) and the planner's
/// statistics interface (stats::StatsProvider); the statistics are
/// computed lazily, once per relation version and shared by every
/// snapshot that carries it — so a snapshot is safe to share between any
/// number of query threads.
class Snapshot : public core::DatabaseView, public stats::StatsProvider {
 public:
  const core::Schema& schema() const override { return schema_; }
  const core::Relation& relation(const std::string& name) const override;

  /// The id of the head this snapshot was published from (NOT unique per
  /// snapshot — snapshots of one head share the lineage; the version
  /// vector distinguishes them).
  std::uint64_t id() const override { return id_; }
  std::uint64_t relation_version(const std::string& name) const override;

  /// Publication counter: 0 for the head's initial snapshot, +1 per
  /// commit. Strictly increasing along a head's publication order.
  std::uint64_t version() const { return version_; }

  /// The full version vector (every relation in the schema, sorted by
  /// name) — the replay key used by the differential harnesses.
  stats::VersionVector Versions() const;

  /// stats::StatsProvider: the statistics of the relation version this
  /// snapshot carries, computed on first request, safe to call from
  /// multiple threads concurrently. The pointer stays valid for the
  /// snapshot's lifetime, and snapshots carrying the same version of a
  /// relation return the same pointer. Null outside the schema.
  const stats::RelationStats* Get(const std::string& name) const override;

 private:
  friend class VersionedDatabase;  // The only publisher.

  // One published version of a relation: its normalized rows and their
  // statistics, computed at most once. Shared by every snapshot from the
  // commit that wrote it to the next commit that replaces it.
  class RelationVersion {
   public:
    explicit RelationVersion(core::Relation relation) : relation_(std::move(relation)) {}

    const core::Relation& relation() const { return relation_; }

    const stats::RelationStats& stats() const {
      std::call_once(stats_once_,
                     [this] { stats_ = stats::ComputeRelationStats(relation_); });
      return stats_;
    }

   private:
    core::Relation relation_;
    mutable std::once_flag stats_once_;
    mutable stats::RelationStats stats_;
  };

  using RelationMap =
      std::unordered_map<std::string, std::shared_ptr<const RelationVersion>>;

  Snapshot(core::Schema schema, RelationMap relations,
           std::unordered_map<std::string, std::uint64_t> versions,
           std::uint64_t id, std::uint64_t version)
      : schema_(std::move(schema)),
        relations_(std::move(relations)),
        versions_(std::move(versions)),
        id_(id),
        version_(version) {}

  core::Schema schema_;
  RelationMap relations_;
  std::unordered_map<std::string, std::uint64_t> versions_;
  std::uint64_t id_ = 0;
  std::uint64_t version_ = 0;
};

/// A set of relation replacements applied (and published) atomically:
/// readers observe either none or all of the writes of one batch.
class WriteBatch {
 public:
  /// Stages a full replacement of `name` (last write per name wins).
  /// Normalizes `relation` here, outside the head's mutex.
  void Set(std::string name, core::Relation relation);

  bool empty() const { return writes_.empty(); }

 private:
  friend class VersionedDatabase;
  std::vector<std::pair<std::string, core::Relation>> writes_;
};

/// The mutable head: accepts writes, publishes snapshots. All members
/// are thread-safe; writers serialize on their own mutex, and readers
/// take the head mutex only for the duration of a pointer copy, which no
/// writer holds for longer than the pointer swap.
class VersionedDatabase {
 public:
  explicit VersionedDatabase(core::Schema schema);

  /// Seeds the head from an existing database (relation contents are
  /// copied; the head gets a fresh lineage id and version counters
  /// starting at 0).
  explicit VersionedDatabase(const core::Database& db);

  /// The lineage id shared by all snapshots of this head.
  std::uint64_t id() const { return id_; }

  /// The schema every snapshot of this head is over.
  const core::Schema& schema() const { return schema_; }

  /// The currently published snapshot. O(1); safe from any thread.
  SnapshotPtr snapshot() const;

  /// Replaces one relation and publishes. Arity must match the schema.
  SnapshotPtr SetRelation(const std::string& name, core::Relation relation);

  /// Copies the named relation, lets `fn` mutate the copy, publishes the
  /// result as a replacement. The copy-modify-publish is atomic with
  /// respect to other writers and invisible to readers until published;
  /// readers keep obtaining the current snapshot while `fn` runs.
  SnapshotPtr Mutate(const std::string& name,
                     const std::function<void(core::Relation&)>& fn);

  /// Applies every write of `batch` and publishes exactly one snapshot.
  SnapshotPtr Commit(WriteBatch batch);

 private:
  // Builds the next snapshot from head_ and `writes`, then swaps it in.
  // The caller holds write_mu_.
  SnapshotPtr PublishLocked(
      std::vector<std::pair<std::string, core::Relation>> writes);

  core::Schema schema_;
  std::uint64_t id_ = 0;

  // Serializes writers: held across a whole copy-modify-publish. Only
  // writers change head_, so a writer holding it may read head_ without
  // head_mu_.
  std::mutex write_mu_;
  // Guards head_ against the concurrent reads of snapshot(); held only for
  // a pointer copy or swap.
  mutable std::mutex head_mu_;
  SnapshotPtr head_;  // Never null after construction.
};

}  // namespace setalg::txn

#endif  // SETALG_TXN_SNAPSHOT_H_
