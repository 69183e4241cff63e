// Logical→physical lowering: the Planner turns a ra::ExprPtr into a
// PhysicalPlan, choosing physical operators per EngineOptions.
//
// Beyond the 1:1 lowering of each algebra node, the planner recognizes:
//   - the textbook division pattern π_A(R) − π_A((π_A(R) × S) − R)
//     (and its equality-division extension) and routes it to a direct
//     division operator — turning the Ω(n²)-intermediate classic plan
//     (Proposition 26) into the O(n) grouping/counting strategy of
//     Section 5;
//   - semijoin-reducible projections π_cols(E1 ⋈_θ E2) with cols drawn
//     from one side, lowered to π_cols(E1 ⋉_θ E2) so the quadratic join
//     intermediate is never materialized;
//   - semijoin nodes, routed to the sa::Semijoin fast kernels.
// Every rewrite is recorded in PhysicalPlan::rewrites.
#ifndef SETALG_ENGINE_PLANNER_H_
#define SETALG_ENGINE_PLANNER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/schema.h"
#include "engine/physical.h"
#include "ra/expr.h"
#include "stats/stats.h"
#include "util/result.h"

namespace setalg::engine {

class SharedPlanCache;   // engine/shared_cache.h
class ResultCache;       // engine/result_cache.h
class CalibrationStore;  // engine/calibration.h

/// Knobs for planning and execution.
struct EngineOptions {
  /// The planner's rewrites and fast kernels: route the classic division
  /// pattern (and its equality variant) to a direct division operator,
  /// lower π_cols(E1 ⋈_θ E2) with one-sided cols to π_cols(E1 ⋉_θ E2), and
  /// run unpriced semijoin nodes on the sa::Semijoin kernels instead of
  /// the generic reference implementation. Reference() clears it.
  bool rewrites = true;

  /// Collect maximal binary-join chains into a join hypergraph and route
  /// them to the worst-case-optimal multiway operator
  /// (engine/multiway.h) when the written binary plan's estimated max
  /// intermediate exceeds the AGM fractional-edge-cover bound (cost-based
  /// mode prices both kernels instead and records the choice). Requires
  /// statistics (Engine::Run supplies them); without stats the chains are
  /// lowered 1:1. Off by default: multiway routing changes plan shape,
  /// so existing baselines opt in explicitly via WithMultiway().
  bool multiway = false;

  /// Pick the algorithm per call site from relation statistics via the
  /// cost model (engine/cost.h) instead of the unpriced picks (for
  /// division: sort-merge over a stored dividend, hash division over any
  /// other). Requires statistics
  /// (Planner::Lower's `stats`, supplied automatically by Engine::Run);
  /// without them the unpriced picks still apply. Every
  /// choice is recorded in PhysicalPlan::choices / PlanStats::choices.
  bool cost_based = false;

  /// Tuples per batch on the pipelined batch surface (engine/batch.h;
  /// raq --batch-size). An execution knob, not a semantics change:
  /// results and PlanStats row counts are identical at every size
  /// (tests/batch_exec_test.cc enforces it at {1, 2, 7, 1024}); only
  /// PlanStats::batch_size/batches_emitted/peak_batch_bytes differ.
  /// Values < 1 are treated as 1.
  std::size_t batch_size = kDefaultBatchSize;

  /// Worker threads for partitioned parallel execution of the division,
  /// set-join, fast-semijoin and multiway operators (engine/parallel.h;
  /// raq --threads). 1 (the default) runs everything serial. With N > 1
  /// each partitioned operator, once its input is in hand, splits it
  /// PartitionCount(rows) ways: one partition per kMinPartitionRows rows
  /// it splits, at most N. An input under two floors' worth of rows stays
  /// serial, and a run that never splits starts no worker thread. Like
  /// `batch_size`, this is an execution knob, not a semantics change:
  /// results and per-operator PlanStats row counts are identical to the
  /// serial run (tests/batch_exec_test.cc enforces it at threads
  /// {1, 2, 7}); only PlanStats::threads_used, partitions and
  /// partition_passes_skipped differ. Values < 1 are treated as 1.
  std::size_t threads = 1;

  /// The plan cache (engine/shared_cache.h; raq --plan-cache). Null (the
  /// default) disables plan caching: Engine::Run lowers fresh every call
  /// and Engine::Prepare returns detached handles. When set, Engine::Run,
  /// Engine::Prepare and prepared handles keep lowered plans keyed on the
  /// expression's structure (ra::ExprHash), the database's id and
  /// OptionsFingerprint; a version-vector mismatch lowers a plan that
  /// reads statistics again and advances any other plan's versions
  /// (PlanStats::cache reports hit/miss/revalidated/repicked). Entries
  /// are immutable and revalidated by replacement, so any number of
  /// engines on any number of threads may share one instance; an entry
  /// being executed or held by a PreparedQuery survives its eviction.
  /// Like `batch_size`/`threads` this is an execution-path knob, never a
  /// semantics change: cached results and per-operator PlanStats row
  /// counts are bit-identical to an uncached run
  /// (tests/plan_cache_test.cc enforces it). Excluded from
  /// OptionsFingerprint (cache wiring, not semantics).
  std::shared_ptr<SharedPlanCache> shared_plan_cache;

  /// Invalidation-aware result cache (engine/result_cache.h): whole query
  /// results keyed on expression structure × database id × the version
  /// vector of the relations read. Checked before any planning; a hit
  /// replays the stored relation and the producing run's PlanStats with
  /// cache = kResultHit. Shareable across engines and threads. Excluded
  /// from OptionsFingerprint (cache wiring, not semantics).
  std::shared_ptr<ResultCache> result_cache;

  /// Self-tuning cost corrections (engine/calibration.h): the cost model
  /// consults learned output factors, selectivities and the stats
  /// histograms, and Engine::Run feeds each run's estimate/actual pairs
  /// back. Shareable across engines and threads like the caches above —
  /// but unlike them it DOES change which plans get picked, so
  /// OptionsFingerprint mixes its presence.
  std::shared_ptr<CalibrationStore> calibration;

  /// When non-zero, a run fails (Result error) as soon as any operator's
  /// output grows past this many distinct tuples — a guardrail for
  /// serving workloads that must not buffer quadratic intermediates.
  std::size_t max_intermediate_budget = 0;

  /// The 1:1 lowering with every rewrite and fast kernel disabled —
  /// exactly the legacy ra::Eval semantics, per-node stats included.
  static EngineOptions Reference();

  /// The rewrite-enabled options with statistics-driven algorithm
  /// selection: the planner consults the cost model per call site instead
  /// of the unpriced picks.
  static EngineOptions CostBased();

  // -- Fluent composition ----------------------------------------------------
  // The presets above return a fresh value; these mutators layer knobs on
  // top of any preset without overwriting the rest, so
  // `EngineOptions::CostBased().WithThreads(4).WithMultiway()` reads as the
  // sum of its parts. Each returns a modified copy (value semantics).

  EngineOptions WithThreads(std::size_t n) const {
    EngineOptions o = *this;
    o.threads = n < 1 ? 1 : n;
    return o;
  }

  EngineOptions WithBatchSize(std::size_t n) const {
    EngineOptions o = *this;
    o.batch_size = n < 1 ? 1 : n;
    return o;
  }

  EngineOptions WithMultiway(bool on = true) const {
    EngineOptions o = *this;
    o.multiway = on;
    return o;
  }

  EngineOptions WithSharedCaches(std::shared_ptr<SharedPlanCache> plans,
                                 std::shared_ptr<ResultCache> results) const {
    EngineOptions o = *this;
    o.shared_plan_cache = std::move(plans);
    o.result_cache = std::move(results);
    return o;
  }

  /// Attaches a calibration store (a fresh one when `store` is null).
  /// Defined in planner.cc — make_shared needs the complete type.
  EngineOptions WithCalibration(
      std::shared_ptr<CalibrationStore> store = nullptr) const;

  /// True when planning reads relation statistics: the options decide
  /// from them (cost_based, multiway) or learn from them (calibration).
  /// The engine supplies a statistics provider exactly then, so a plan
  /// lowered under any other options carries no estimates and costs no
  /// statistics pass.
  bool UsesStatistics() const {
    return cost_based || multiway || calibration != nullptr;
  }
};

/// Deterministic hash of every EngineOptions field that can change what a
/// lowered plan looks like or what a run produces (rewrites, cost_based,
/// multiway, batch size and threads, the budget, calibration).
/// Cache-wiring fields (shared_plan_cache, result_cache) are excluded:
/// they select *where* plans/results are stored, never what they are.
/// The caches mix this into their keys so engines configured differently
/// can share one cache without exchanging plans.
std::uint64_t OptionsFingerprint(const EngineOptions& options);

/// One division pattern the planner routed: its logical dividend and
/// divisor, its flavor, and the kernel it picked. servebench reads these
/// to time the raw kernel on the same inputs.
struct ChoicePoint {
  enum class Kind { kDivision };
  Kind kind = Kind::kDivision;
  ra::ExprPtr left;   // Dividend.
  ra::ExprPtr right;  // Divisor.
  bool equality = false;
  setjoin::DivisionAlgorithm division_algorithm =
      setjoin::DivisionAlgorithm::kHashDivision;
};

/// A lowered plan plus the planner decisions that shaped it.
struct PhysicalPlan {
  PhysicalOpPtr root;
  std::vector<std::string> rewrites;
  /// Cost-based algorithm selections (empty unless cost_based + stats).
  std::vector<AlgorithmChoice> choices;
  /// Plan-time cost-model predictions per operator (populated whenever
  /// statistics were available at lowering time). The executor copies the
  /// matching prediction into each OpStats entry, so a run's stats read
  /// as estimated-vs-actual pairs.
  std::unordered_map<const PhysicalOp*, CostEstimate> estimates;
  /// The routed division patterns, in lowering order.
  std::vector<ChoicePoint> choice_points;
  /// AGM bound of the first collected join chain (see PlanStats).
  double agm_bound = 0.0;
  bool has_agm_bound = false;

  /// Indented operator tree followed by the rewrite notes.
  std::string ToString() const;
};

class Planner {
 public:
  explicit Planner(EngineOptions options) : options_(std::move(options)) {}

  /// Validates `expr` against `schema` and lowers it. Never aborts on user
  /// input: schema mismatches come back as Result errors. When `stats` is
  /// non-null the plan is annotated with cost estimates, and cost_based
  /// options select algorithms from them; when it is null the planner
  /// computes no estimate at all.
  util::Result<PhysicalPlan> Lower(const ra::ExprPtr& expr, const core::Schema& schema,
                                   const stats::StatsProvider* stats = nullptr) const;

 private:
  EngineOptions options_;
};

}  // namespace setalg::engine

#endif  // SETALG_ENGINE_PLANNER_H_
