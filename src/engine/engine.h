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

/// A prepared statement: a handle owning one lowered physical plan, its
/// canonical cache key (structural expression hash), and the per-relation
/// version vector it was last costed against. Obtained from
/// Engine::Prepare and executed with Engine::Run(prepared, db); cheap to
/// copy (shared ownership of the underlying entry). The handle keeps its
/// plan alive across cache eviction and Engine::ClearPlanCache — and
/// stays correct across database mutation: every execution revalidates
/// the version vector first and re-costs (never re-lowers) on mismatch.
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

  /// The version vector the plan was last costed against (mutates on
  /// revalidation).
  const stats::VersionVector& versions() const { return entry().versions; }

  const PhysicalPlan& plan() const { return entry().plan; }

  /// Runs served from this handle's entry so far.
  std::size_t uses() const { return entry().uses; }

  /// Approximate resident footprint of the owned plan (what the cache's
  /// byte budget charges; revalidation may resize it in place).
  std::size_t approx_bytes() const { return entry().approx_bytes; }

 private:
  friend class Engine;
  explicit PreparedQuery(CachedPlanPtr entry) : entry_(std::move(entry)) {}

  /// Every accessor funnels through here so an empty (default-constructed
  /// or moved-from) handle fails the valid() check loudly instead of
  /// dereferencing null.
  const CachedPlan& entry() const {
    SETALG_CHECK_STREAM(entry_ != nullptr)
        << "PreparedQuery is empty (default-constructed or moved-from); "
           "check valid() first";
    return *entry_;
  }

  CachedPlanPtr entry_;
};

/// Every entry point takes a core::DatabaseView — a live core::Database
/// or an immutable txn::Snapshot — so the same engine serves one-shot
/// evaluation and MVCC snapshot serving.
///
/// Thread-safety: an Engine is safe for concurrent Run(expr, view) calls
/// iff (a) every view passed is its own thread-safe statistics provider
/// (txn::Snapshot is; a live Database routes through the engine's
/// memoized, single-threaded stats::DatabaseStats) and (b) the
/// engine-local plan cache is disabled (plan_cache_entries == 0) — use
/// the process-wide EngineOptions::shared_plan_cache / result_cache
/// instead, which are striped/locked and shareable across engines and
/// threads. Prepared handles remain session-scoped (single-threaded).
/// Each run builds its own executor state (and, for
/// EngineOptions::threads > 1, its own worker pool), so the parallelism
/// *inside* a run is unaffected by any of this. The one state a run
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
  /// EngineOptions::plan_cache_entries > 0 the lowered plan is cached
  /// transparently, keyed on the expression's structure and db.id():
  /// repeated runs of the same shape skip lowering entirely (hit) or
  /// re-cost the cached plan from fresh statistics after a mutation
  /// (revalidated/repicked) — PlanStats::cache reports which. Results
  /// and row counts are identical either way.
  util::Result<RunResult> Run(const ra::ExprPtr& expr, const core::DatabaseView& db) const;

  /// Prepares `expr` against `db`: lowers it once (statistics-annotated)
  /// and returns a handle that owns the plan, its structural cache key,
  /// and the version vector it was costed against. When the plan cache
  /// is enabled the entry is shared with it (a later Run(expr, db) of a
  /// structurally equal expression hits the same entry); otherwise the
  /// handle is detached and self-contained.
  util::Result<PreparedQuery> Prepare(const ra::ExprPtr& expr,
                                      const core::DatabaseView& db) const;

  /// Prepares a hand-assembled physical plan (e.g. a set-join operator
  /// tree, which has no logical form). The version vector covers every
  /// relation the plan scans; revalidation refreshes cost annotations
  /// but has no recorded choice points to re-pick.
  util::Result<PreparedQuery> Prepare(PhysicalPlan plan,
                                      const core::DatabaseView& db) const;

  /// Executes a prepared statement: revalidates the handle's version
  /// vector against `db` (hit → run as-is; mismatch → re-cost the cached
  /// plan, swapping algorithm choices in place when a decision flips) and
  /// runs the plan. Handed a database other than the one the handle was
  /// prepared against (by id), falls back to the transparent Run(expr,
  /// db) path — plans never leak across database identities. Results are
  /// always identical to a fresh un-cached Run.
  util::Result<RunResult> Run(const PreparedQuery& prepared,
                              const core::DatabaseView& db) const;

  /// The transparent plan cache (created on first access), or nullptr
  /// when options().plan_cache_entries == 0. Observable state only
  /// (sizes, hit/miss/revalidated/repicked tallies).
  const PlanCache* plan_cache() const { return EnsureCache(); }

  /// Drops every cached plan (prepared handles keep theirs and stay
  /// runnable; the next Run re-lowers and re-inserts).
  void ClearPlanCache() const;

  /// Lowers without executing. Without a database there are no statistics:
  /// the plan carries no cost estimates and cost_based options fall back
  /// to the fixed algorithm defaults.
  util::Result<PhysicalPlan> Plan(const ra::ExprPtr& expr,
                                  const core::Schema& schema) const;

  /// Statistics-aware lowering: the plan is annotated with cost estimates
  /// and cost_based options pick algorithms from `db`'s relation stats.
  util::Result<PhysicalPlan> Plan(const ra::ExprPtr& expr,
                                  const core::DatabaseView& db) const;

  /// The plan rendered as text (operator tree + rewrite notes).
  util::Result<std::string> Explain(const ra::ExprPtr& expr,
                                    const core::Schema& schema) const;

  /// Statistics-aware Explain: additionally shows cost-based choices.
  util::Result<std::string> Explain(const ra::ExprPtr& expr,
                                    const core::DatabaseView& db) const;

  /// Executes a plan built by Plan() or assembled by hand from the
  /// physical.h factories (e.g. a set-containment join operator, which has
  /// no succinct logical form). One spelling per intent: Run(expr, db)
  /// plans and executes, Run(prepared, db) serves a handle, Run(plan, db)
  /// executes what you already lowered — all funnel into one RunImpl.
  util::Result<RunResult> Run(const PhysicalPlan& plan,
                              const core::DatabaseView& db) const;

  /// One-shot convenience: plans and executes with a throwaway engine.
  /// Computes statistics only when `options.cost_based` needs them (a
  /// throwaway engine cannot amortize the pass); use a persistent Engine
  /// for cached stats and estimated-vs-actual annotations on every run.
  static util::Result<RunResult> Run(const ra::ExprPtr& expr, const core::DatabaseView& db,
                                     const EngineOptions& options);

 private:
  /// The single execution tail every Run overload lands on: builds the
  /// worker pool, runs the pipelined executor, copies plan-level
  /// annotations (rewrites, choices, AGM bound) into the run's PlanStats
  /// and feeds the calibration store.
  util::Result<RunResult> RunImpl(const PhysicalPlan& plan,
                                  const core::DatabaseView& db) const;

  /// The statistics provider for `db`. Views that are their own provider
  /// (txn::Snapshot) are returned directly — thread-safe, no engine
  /// state touched. Otherwise the memoized stats::DatabaseStats is
  /// rebuilt when a different database (by id) comes through;
  /// per-relation stats within it refresh via the mutation counters.
  const stats::StatsProvider* StatsFor(const core::DatabaseView& db) const;

  /// The plan cache, created on first use (null when disabled).
  PlanCache* EnsureCache() const;

  /// Shared tail of the cached execution paths: revalidate, tally, run.
  util::Result<RunResult> RunCached(const CachedPlanPtr& entry,
                                    const core::DatabaseView& db) const;

  /// Run through the plan caches (shared first, then engine-local, then
  /// uncached), leaving PlanStats::cache set. `*pin` receives the root
  /// of the plan that actually ran (for result-cache provenance).
  util::Result<RunResult> RunWithPlanCaches(const ra::ExprPtr& expr,
                                            const core::DatabaseView& db,
                                            PhysicalOpPtr* pin) const;

  EngineOptions options_;
  mutable std::unique_ptr<stats::DatabaseStats> db_stats_;
  mutable std::uint64_t db_stats_id_ = 0;
  mutable std::unique_ptr<PlanCache> plan_cache_;
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
