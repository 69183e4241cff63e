// The unified query engine: the one public entry point for evaluating
// algebra expressions (and hand-built physical plans) over a database.
//
//   engine::Engine engine;                       // pattern-aware planner
//   auto result = engine.Run(expr, db);          // util::Result<RunResult>
//   if (result.ok()) use(result->relation, result->stats);
//
// Every Engine run executes through one pipelined executor over the batch
// surface (engine/batch.h). The default options enable the planner
// rewrites — most notably routing the classic division pattern to a
// sub-quadratic operator — so the same logical expression runs with O(n)
// instead of Ω(n²) intermediates (Prop. 26 vs. Section 5).
//
// RunMaterialized, outside the Engine, is the semantics reference: every
// operator's output materialized, normalized and counted. The legacy
// ra::Eval / ra::MaxIntermediateSize are thin wrappers over it on the
// reference lowering (EngineOptions::Reference()), and the differential
// harnesses use it as their oracle.
#ifndef SETALG_ENGINE_ENGINE_H_
#define SETALG_ENGINE_ENGINE_H_

#include <memory>
#include <string>

#include "core/database.h"
#include "core/relation.h"
#include "engine/physical.h"
#include "engine/plan_cache.h"
#include "engine/planner.h"
#include "engine/shared_cache.h"
#include "ra/eval.h"
#include "ra/expr.h"
#include "stats/stats.h"
#include "util/result.h"

namespace setalg::engine {

/// The outcome of one engine run.
struct RunResult {
  core::Relation relation{0};
  PlanStats stats;
};

/// A prepared statement: a handle on one lowered physical plan, its
/// canonical cache key (structural expression hash), and the per-relation
/// version vector it was last costed against. Obtained from
/// Engine::Prepare and executed with Engine::Run(prepared, db); cheap to
/// copy (shared ownership of an immutable entry, which the plan cache may
/// share with other sessions). The handle keeps its plan alive across
/// cache eviction and SharedPlanCache::Clear — and stays correct across
/// database mutation: every execution revalidates the version vector
/// first and re-costs (never re-lowers) on mismatch. Each execution
/// re-points the handle at the entry that ran, so run a handle from one
/// thread at a time; copies are independent.
class PreparedQuery {
 public:
  PreparedQuery() = default;

  bool valid() const { return entry_ != nullptr; }

  /// The canonical key expression (null for handles prepared from
  /// hand-built plans, which have no logical form).
  const ra::ExprPtr& expr() const { return entry().expr; }

  /// Structural hash of the key expression (0 for hand-built plans).
  std::uint64_t key() const { return entry().expr_hash; }

  /// Id of the database instance the handle was prepared against.
  std::uint64_t database_id() const { return entry().db_id; }

  /// The version vector the plan was last costed against (advances when
  /// a run revalidates).
  const stats::VersionVector& versions() const { return entry().versions; }

  const PhysicalPlan& plan() const { return entry().plan; }

  /// Approximate resident footprint of the plan (what the cache's byte
  /// budget charges; a revalidated plan may be larger or smaller).
  std::size_t approx_bytes() const { return entry().approx_bytes; }

 private:
  friend class Engine;
  explicit PreparedQuery(SharedPlanPtr entry) : entry_(std::move(entry)) {}

  /// Every accessor funnels through here so an empty (default-constructed
  /// or moved-from) handle fails the valid() check loudly instead of
  /// dereferencing null.
  const CachedPlan& entry() const {
    SETALG_CHECK_STREAM(entry_ != nullptr)
        << "PreparedQuery is empty (default-constructed or moved-from); "
           "check valid() first";
    return *entry_;
  }

  /// The entry the last execution ran (Engine::Run swaps in a
  /// revalidated one; entries themselves are never mutated).
  mutable SharedPlanPtr entry_;
};

/// Every entry point takes a core::DatabaseView — a live core::Database
/// or an immutable txn::Snapshot — so the same engine serves one-shot
/// evaluation and MVCC snapshot serving.
///
/// Thread-safety: an Engine is safe for concurrent Run(expr, view) calls
/// iff every view passed is its own thread-safe statistics provider
/// (txn::Snapshot is; a live Database routes through the engine's
/// memoized, single-threaded stats::DatabaseStats). The plan and result
/// caches (EngineOptions::shared_plan_cache / result_cache) are
/// striped/locked and shareable across engines and threads. A prepared
/// handle is run from one thread at a time (see PreparedQuery).
/// Each run builds its own executor state (and, for
/// EngineOptions::threads > 1, its own worker pool, started at the run's
/// first fan-out), so the parallelism *inside* a run is unaffected by any
/// of this. The one state a run
/// leaves behind is per thread: the buffer its result rows were staged
/// in (at most 4 MB is kept).
class Engine {
 public:
  /// An engine with the default (rewrite-enabled) options.
  Engine() = default;
  explicit Engine(EngineOptions options) : options_(std::move(options)) {}

  const EngineOptions& options() const { return options_; }

  /// Plans and executes `expr` on `db`. Schema mismatches and budget
  /// violations come back as Result errors, never aborts. With
  /// EngineOptions::shared_plan_cache set the lowered plan is cached
  /// transparently, keyed on the expression's structure and db.id():
  /// repeated runs of the same shape skip lowering entirely (hit) or
  /// re-cost the cached plan from fresh statistics after a mutation
  /// (revalidated/repicked) — PlanStats::cache reports which. Results
  /// and row counts are identical either way.
  util::Result<RunResult> Run(const ra::ExprPtr& expr, const core::DatabaseView& db) const;

  /// Prepares `expr` against `db`: lowers it once (statistics-annotated
  /// when the options use statistics) and returns a handle on the plan,
  /// its structural cache key, and the version vector it was costed
  /// against. With a plan cache attached this is Run's lookup without
  /// the run — a cached plan is reused (and revalidated if stale), a
  /// miss lowers and inserts — so the handle
  /// shares its entry with every Run(expr, db) and Prepare of a
  /// structurally equal expression, from any engine on the cache;
  /// otherwise the handle is detached and self-contained.
  util::Result<PreparedQuery> Prepare(const ra::ExprPtr& expr,
                                      const core::DatabaseView& db) const;

  /// Prepares a hand-assembled physical plan (e.g. a set-join operator
  /// tree, which has no logical form). The version vector covers every
  /// relation the plan scans; revalidation refreshes cost annotations
  /// but has no recorded choice points to re-pick.
  util::Result<PreparedQuery> Prepare(PhysicalPlan plan,
                                      const core::DatabaseView& db) const;

  /// Executes a prepared statement. With a plan cache attached it runs
  /// the entry resident under the handle's key, exactly as Run(expr, db)
  /// would (hit, or revalidated on a private copy and published). When
  /// nothing is resident there (evicted, cleared, or a hand-built plan)
  /// it runs the handle's own entry, revalidated on a private copy if
  /// stale, and the cache neither counts nor publishes the run. Either
  /// way the handle then holds the entry that ran. Handed a database
  /// other than the one the handle was prepared against (by id), falls
  /// back to the transparent Run(expr, db) path — plans never leak across
  /// database identities. Results are always identical to a fresh
  /// un-cached Run.
  util::Result<RunResult> Run(const PreparedQuery& prepared,
                              const core::DatabaseView& db) const;

  /// The plan cache (options().shared_plan_cache), or nullptr when none
  /// is attached.
  const SharedPlanCache* plan_cache() const { return options_.shared_plan_cache.get(); }

  /// Lowers without executing. Without a database there are no statistics:
  /// the plan carries no cost estimates and cost_based options fall back
  /// to the unpriced picks (PlannedDivisionAlgorithm for division).
  util::Result<PhysicalPlan> Plan(const ra::ExprPtr& expr,
                                  const core::Schema& schema) const;

  /// Lowering against `db`. When the options use statistics
  /// (EngineOptions::UsesStatistics) the plan is annotated with cost
  /// estimates and cost_based options pick algorithms from `db`'s
  /// relation stats; otherwise it equals Plan(expr, db.schema()) and no
  /// statistics are computed.
  util::Result<PhysicalPlan> Plan(const ra::ExprPtr& expr,
                                  const core::DatabaseView& db) const;

  /// The plan rendered as text (operator tree + rewrite notes).
  util::Result<std::string> Explain(const ra::ExprPtr& expr,
                                    const core::Schema& schema) const;

  /// Explain against `db`: additionally shows cost-based choices when the
  /// options price the plan.
  util::Result<std::string> Explain(const ra::ExprPtr& expr,
                                    const core::DatabaseView& db) const;

  /// Executes a plan built by Plan() or assembled by hand from the
  /// physical.h factories (e.g. a set-containment join operator, which has
  /// no succinct logical form). One spelling per intent: Run(expr, db)
  /// plans and executes, Run(prepared, db) serves a handle, Run(plan, db)
  /// executes what you already lowered — all funnel into one RunImpl.
  util::Result<RunResult> Run(const PhysicalPlan& plan,
                              const core::DatabaseView& db) const;

  /// One-shot convenience: plans and executes with a throwaway engine,
  /// reading statistics by the same rule as every other run
  /// (EngineOptions::UsesStatistics). A throwaway engine cannot amortize
  /// the statistics pass on a live Database; a persistent Engine keeps
  /// it across runs.
  static util::Result<RunResult> Run(const ra::ExprPtr& expr, const core::DatabaseView& db,
                                     const EngineOptions& options);

 private:
  /// The single execution tail every Run overload lands on: builds the
  /// worker pool, runs the pipelined executor, copies plan-level
  /// annotations (rewrites, choices, AGM bound) into the run's PlanStats
  /// and feeds the calibration store.
  util::Result<RunResult> RunImpl(const PhysicalPlan& plan,
                                  const core::DatabaseView& db) const;

  /// The statistics provider for `db`, or nullptr when the options use
  /// no statistics (EngineOptions::UsesStatistics): a planned run then
  /// computes none, and a commit costs its next statement no statistics
  /// pass. Views that are their own provider (txn::Snapshot) are
  /// returned directly — thread-safe, no engine state touched. Otherwise
  /// the memoized stats::DatabaseStats is rebuilt when a different
  /// database (by id) comes through; per-relation stats within it
  /// refresh via the mutation counters.
  const stats::StatsProvider* StatsFor(const core::DatabaseView& db) const;

  /// The plan cache's answer for `expr`: Acquire, then lower and Insert
  /// on a miss.
  util::Result<SharedPlanCache::Acquired> AcquirePlan(const SharedPlanCache& cache,
                                                      const ra::ExprPtr& expr,
                                                      const core::DatabaseView& db) const;

  /// Runs an acquired plan, reporting its outcome in PlanStats::cache.
  util::Result<RunResult> RunAcquired(const SharedPlanCache::Acquired& acquired,
                                      const core::DatabaseView& db) const;

  /// Run through the plan cache (or uncached without one), leaving
  /// PlanStats::cache set. `*pin` receives the root of the plan that
  /// actually ran (for result-cache provenance).
  util::Result<RunResult> RunWithPlanCache(const ra::ExprPtr& expr,
                                           const core::DatabaseView& db,
                                           PhysicalOpPtr* pin) const;

  EngineOptions options_;
  mutable std::unique_ptr<stats::DatabaseStats> db_stats_;
  mutable std::uint64_t db_stats_id_ = 0;
};

/// Executes `plan` the reference way: serial, at kDefaultBatchSize,
/// post-order over the DAG (shared operators run once), with every
/// operator's output materialized and normalized. PlanStats records one
/// OpStats entry per operator, the max/total intermediate (c(E') of
/// Definition 16) and the join rows; there is no budget, calibration,
/// worker pool or cache. Results and per-operator row counts equal every
/// Engine run of the same plan — tests/batch_exec_test.cc holds the two
/// to that. Only ra::Eval and the differential harnesses call it.
RunResult RunMaterialized(const PhysicalPlan& plan, const core::DatabaseView& db);

/// Projects PlanStats onto the legacy ra::EvalStats view: operators that
/// carry a logical source become NodeStats entries. For a reference-mode
/// plan this is exactly the legacy instrumentation; for rewritten plans,
/// synthesized operators still count toward max/total but have no node
/// entry.
ra::EvalStats ToEvalStats(const PlanStats& stats);

}  // namespace setalg::engine

#endif  // SETALG_ENGINE_ENGINE_H_
