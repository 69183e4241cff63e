// The engine's plan cache: process-wide and thread-safe, shared between
// engines, sessions and threads. Engine::Run, Engine::Prepare and
// prepared handles all go through it (EngineOptions::shared_plan_cache).
//
// Every resident entry is immutable (`shared_ptr<const CachedPlan>`): a
// version-vector mismatch builds a *new* entry (RevalidatedCopy in
// engine/plan_cache.h — the plan lowered again, or the same immutable
// PhysicalOps with advanced versions) and then publishes it as the new
// resident entry. Readers still executing the old plan keep it alive
// through their shared_ptr; last writer wins on concurrent revalidations
// of the same key, which costs a duplicated lowering, never correctness.
//
// Keys add an EngineOptions fingerprint to (expression structure,
// database id): the cache outlives any one engine, so two engines
// configured with different rewrite/algorithm/execution options must
// never exchange plans. Storage is the striped LRU of
// engine/striped_lru.h, shared with the result cache.
#ifndef SETALG_ENGINE_SHARED_CACHE_H_
#define SETALG_ENGINE_SHARED_CACHE_H_

#include <cstdint>
#include <memory>

#include "core/database.h"
#include "engine/plan_cache.h"
#include "engine/planner.h"
#include "engine/striped_lru.h"
#include "ra/expr.h"
#include "stats/stats.h"

namespace setalg::engine {

class SharedPlanCache {
 public:
  /// Aggregated observable behavior (summed over stripes).
  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t revalidations = 0;  // Includes repicks.
    std::size_t repicks = 0;
    std::size_t evictions = 0;

    Stats& operator+=(const Stats& other);
  };

  /// What Acquire resolved: `entry` is null for a miss (the caller lowers
  /// and Inserts); otherwise a plan ready to run, with `outcome` saying
  /// whether it ran untouched (kHit) or was revalidated/repicked against
  /// the view's current versions (always on a private copy — the entry
  /// returned is the copy, already published).
  struct Acquired {
    SharedPlanPtr entry;
    CacheOutcome outcome = CacheOutcome::kMiss;
  };

  /// `max_entries` >= 1 and `max_bytes` (0 = unbounded bytes) bound the
  /// whole cache; the stripe count follows `max_entries`
  /// (engine/striped_lru.h).
  SharedPlanCache(std::size_t max_entries, std::size_t max_bytes);

  /// Looks up (expr, db.id(), options fingerprint) and ensures the
  /// returned plan is current for `db`'s version vector.
  /// `stats` supplies statistics for revalidation (pass the provider the
  /// plan would be lowered with; must be safe for this thread). Thread-
  /// safe; never blocks on another stripe.
  Acquired Acquire(const ra::ExprPtr& expr, const core::DatabaseView& db,
                   const stats::StatsProvider* stats,
                   const EngineOptions& options) const;

  /// Acquire for a prepared handle's `entry` (which has a key
  /// expression): resolves the entry resident under the handle's key
  /// exactly as Acquire does. When none is resident (evicted or cleared)
  /// it returns a null entry and counts nothing — the cache only counts
  /// runs it serves.
  Acquired AcquireResident(const CachedPlan& entry, const core::DatabaseView& db,
                           const stats::StatsProvider* stats,
                           const EngineOptions& options) const;

  /// Publishes a freshly lowered entry (the miss path), replacing any
  /// entry that raced in under the same key. Returns the entry, which
  /// stays valid even if immediately evicted.
  SharedPlanPtr Insert(CachedPlanPtr entry, const EngineOptions& options) const;

  /// Drops every entry (plans being executed and prepared handles keep
  /// theirs alive via shared_ptr).
  void Clear() const { lru_.Clear(); }

  std::size_t size() const { return lru_.size(); }
  std::size_t bytes() const { return lru_.bytes(); }
  std::size_t max_entries() const { return lru_.max_entries(); }
  std::size_t max_bytes() const { return lru_.max_bytes(); }
  Stats stats() const { return lru_.stats(); }

  /// Stripe count (a power of two, fixed at construction).
  std::size_t stripes() const { return lru_.stripes(); }

 private:
  /// Acquire's body: a miss returns a null entry, tallied iff
  /// `count_miss`.
  Acquired Resolve(const CacheKey& key, const core::DatabaseView& db,
                   const stats::StatsProvider* stats, const EngineOptions& options,
                   bool count_miss) const;

  StripedLru<CachedPlan, Stats> lru_;
};

}  // namespace setalg::engine

#endif  // SETALG_ENGINE_SHARED_CACHE_H_
