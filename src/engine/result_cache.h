// An invalidation-aware, thread-safe whole-result cache.
//
// The paper's division / set-join serving workloads are read-heavy and
// repetitive: the same handful of query shapes arrive over and over while
// the data mutates slowly. The plan cache removes the *planning* cost of
// that pattern; this cache removes the *execution* cost whenever the data
// a query reads has not changed since the last run. Entries are keyed on
//
//   (database id, EngineOptions fingerprint, expression structure)
//
// and each stores the version vector of every relation the expression
// reads. A lookup whose stored vector still matches the view is a hit:
// the stored relation and the producing run's full PlanStats are replayed
// (with PlanStats::cache = kResultHit — the one field that legally
// differs from the producing run). A mutated vector makes the entry
// unreachable immediately — the lookup erases it and reports a miss, so
// a hit can never survive a version-vector change — and the follow-up
// insert re-keys the fresh result in its place.
//
// Storage is the striped LRU the plan cache uses too
// (engine/striped_lru.h), bounded by entry count and by an approximate
// byte budget dominated by the stored relations' flat payloads. Each
// entry pins the producing plan's root operator and canonical expression
// so the provenance pointers inside the replayed OpStats (`op`, `source`)
// stay valid for entry lifetime — they are labels for inspection, never
// dereferenced by the engine.
#ifndef SETALG_ENGINE_RESULT_CACHE_H_
#define SETALG_ENGINE_RESULT_CACHE_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "core/database.h"
#include "core/relation.h"
#include "engine/physical.h"
#include "engine/striped_lru.h"
#include "ra/expr.h"
#include "stats/stats.h"

namespace setalg::engine {

class ResultCache {
 public:
  /// Aggregated observable behavior (summed over stripes).
  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    /// Lookups that found an entry whose version vector no longer
    /// matched; the entry was dropped on the spot (also counted in
    /// `misses`).
    std::size_t invalidations = 0;
    std::size_t insertions = 0;
    std::size_t evictions = 0;

    Stats& operator+=(const Stats& other);
  };

  /// A replayable hit: the stored relation plus the producing run's
  /// stats, already marked cache = kResultHit.
  struct Hit {
    core::Relation relation{0};
    PlanStats stats;
  };

  /// `max_entries` >= 1 and `max_bytes` (0 = unbounded) bound the whole
  /// cache; the stripe count follows `max_entries`
  /// (engine/striped_lru.h). The byte charge per entry is dominated by
  /// the stored relation's flat payload.
  ResultCache(std::size_t max_entries, std::size_t max_bytes);

  /// The cached result of `expr` on the view, iff the stored version
  /// vector still matches. Thread-safe.
  std::optional<Hit> Lookup(const ra::ExprPtr& expr, const core::DatabaseView& db,
                            std::uint64_t options_fp) const;

  /// Stores one finished run. `versions` must be the version vector of
  /// every relation `expr` reads, snapshotted consistently with the data
  /// the run saw (trivial for a txn::Snapshot; the caller's job for a
  /// live Database). `plan_root` and the canonical `expr` are pinned for
  /// stats provenance.
  void Insert(const ra::ExprPtr& expr, std::uint64_t db_id,
              std::uint64_t options_fp, stats::VersionVector versions,
              const core::Relation& relation, const PlanStats& stats,
              PhysicalOpPtr plan_root) const;

  /// Drops every entry.
  void Clear() const { lru_.Clear(); }

  std::size_t size() const { return lru_.size(); }
  std::size_t bytes() const { return lru_.bytes(); }
  std::size_t max_entries() const { return lru_.max_entries(); }
  std::size_t max_bytes() const { return lru_.max_bytes(); }
  Stats stats() const { return lru_.stats(); }

 private:
  struct Entry {
    stats::VersionVector versions;
    core::Relation relation{0};
    PlanStats stats;
    /// Keeps OpStats::op (and through the ops' source pointers, the
    /// lowered expression nodes) alive with the entry.
    PhysicalOpPtr plan_root;
    ra::ExprPtr expr;
    std::size_t approx_bytes = 0;
  };

  static std::size_t ApproxEntryBytes(const Entry& entry);

  StripedLru<Entry, Stats> lru_;
};

}  // namespace setalg::engine

#endif  // SETALG_ENGINE_RESULT_CACHE_H_
