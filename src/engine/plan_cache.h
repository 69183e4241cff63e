// Cached lowered plans and their revalidation: the entries the engine's
// plan cache (engine/shared_cache.h) stores and prepared handles hold.
//
// *Planning* — lowering, pattern routing, cost-based algorithm choice —
// is a per-call cost on every uncached Engine::Run.
// At serving traffic that path is the hot path: the same handful of query
// shapes arrive millions of times while the data slowly mutates
// underneath. The plan cache closes that gap with the invalidation signal
// the statistics cache already relies on
// (core::Database::relation_version()):
//
//   - Entries are keyed on the *structure* of the logical expression
//     (ra::ExprHash / ra::ExprEqual — never on pointers, so α-identical
//     trees from different parses share one plan) plus the database's
//     process-unique id (two databases with colliding relation names can
//     never exchange plans) and the engine's OptionsFingerprint.
//   - Each entry snapshots the per-relation version vector its costs were
//     computed against. A matching vector is a *hit*: the plan runs
//     untouched. A moved vector is *revalidated*: the recorded choice
//     points (PhysicalPlan::choice_points) are re-priced from fresh
//     statistics — never re-lowered — and when a decision flips (e.g.
//     hash-division → sort-merge after a bulk load) the operator is
//     swapped by rebuilding only the spine above it
//     (PhysicalOp::WithChildren); the run reports *repicked*.
//   - Entries are immutable once shared (SharedPlanPtr). Revalidation
//     always works on a private copy (RevalidatedCopy), which the cache
//     then publishes; a run or a PreparedQuery still holding the old
//     entry keeps it alive and untouched.
//
// Whatever the outcome, results and per-operator PlanStats row counts are
// bit-identical to a fresh un-cached run — the cache-differential harness
// in tests/plan_cache_test.cc interleaves randomized mutations with
// cached executions to enforce exactly that.
#ifndef SETALG_ENGINE_PLAN_CACHE_H_
#define SETALG_ENGINE_PLAN_CACHE_H_

#include <cstdint>
#include <memory>

#include "core/database.h"
#include "engine/planner.h"
#include "ra/expr.h"
#include "stats/stats.h"

namespace setalg::engine {

/// One cached lowered plan: the canonical key (structural expression,
/// its hash, the owning database's id), the plan itself, and the
/// per-relation version vector the plan's costs were computed against.
struct CachedPlan {
  /// The canonical key expression (the first structurally-equal tree the
  /// cache saw). Null for entries prepared from hand-built plans.
  ra::ExprPtr expr;
  std::uint64_t expr_hash = 0;
  std::uint64_t db_id = 0;
  /// Versions of every relation the plan reads, as of the last
  /// lowering/revalidation.
  stats::VersionVector versions;
  PhysicalPlan plan;
  /// Approximate resident footprint (operators, key expression, estimate
  /// tables) charged against the cache's byte budget.
  std::size_t approx_bytes = 0;
};

using CachedPlanPtr = std::shared_ptr<CachedPlan>;
/// An entry as the cache and prepared handles share it: never mutated.
using SharedPlanPtr = std::shared_ptr<const CachedPlan>;

/// Builds a cache entry (detached — not registered anywhere) for `plan`
/// as lowered for `db`. `expr` may be null for hand-built plans; the
/// version vector then comes from the plan's scans.
CachedPlanPtr MakeCachedPlan(ra::ExprPtr expr, const core::DatabaseView& db,
                             PhysicalPlan plan);

/// Approximate bytes held live by `entry` (deterministic, so cache-budget
/// eviction behavior is reproducible across runs).
std::size_t ApproxPlanBytes(const CachedPlan& entry);

/// Re-prices `entry`'s plan against `db`'s current statistics. Returns
///   kHit         — version vector unchanged; the plan is untouched;
///   kRevalidated — versions moved; estimates and recorded choices were
///                  refreshed from fresh statistics (an unpriced plan,
///                  lowered and revalidated without statistics, has
///                  neither), every algorithm decision held;
///   kRepicked    — versions moved and >= 1 decision flipped; the
///                  affected operators were swapped in `entry` (only the
///                  spine above each rebuilt — the expression is never
///                  re-lowered) and the choice/rewrite notes updated.
/// Mutates `entry`, so it must be private to the caller (RevalidatedCopy
/// makes the copy). `options` must be the options the plan was lowered
/// under (the plan cache keys entries on OptionsFingerprint to guarantee
/// this). `db` must be the instance the entry is keyed on (same id).
CacheOutcome RevalidateCachedPlan(CachedPlan& entry, const core::DatabaseView& db,
                                  const stats::StatsProvider* stats,
                                  const EngineOptions& options);

/// `entry` costed against `db`'s current versions, without touching
/// `entry`: `entry` itself when its version vector still matches (*outcome
/// = kHit), otherwise a private copy run through RevalidateCachedPlan
/// (kRevalidated / kRepicked).
SharedPlanPtr RevalidatedCopy(const SharedPlanPtr& entry, const core::DatabaseView& db,
                              const stats::StatsProvider* stats,
                              const EngineOptions& options, CacheOutcome* outcome);

}  // namespace setalg::engine

#endif  // SETALG_ENGINE_PLAN_CACHE_H_
