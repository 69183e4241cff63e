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
  /// Route the classic division pattern (and its equality variant) to a
  /// direct division operator.
  bool recognize_division = true;

  /// Lower π_cols(E1 ⋈_θ E2) with one-sided cols to π_cols(E1 ⋉_θ E2).
  bool recognize_semijoin_projection = true;

  /// Use the sa::Semijoin specialized kernels for semijoin nodes (the
  /// alternative is the generic reference implementation).
  bool use_fast_semijoin = true;

  /// Algorithm overrides for the pattern-routed operators. Consulted when
  /// `cost_based` is off (or no statistics are available).
  setjoin::DivisionAlgorithm division_algorithm =
      setjoin::DivisionAlgorithm::kHashDivision;
  setjoin::ContainmentAlgorithm containment_algorithm =
      setjoin::ContainmentAlgorithm::kInvertedIndex;
  setjoin::EqualityJoinAlgorithm set_equality_algorithm =
      setjoin::EqualityJoinAlgorithm::kCanonicalHash;

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
  /// cost model (engine/cost.h) instead of the fixed defaults above.
  /// Requires statistics (Planner::Lower's `stats`, supplied automatically
  /// by Engine::Run); without them the fixed defaults still apply. Every
  /// choice is recorded in PhysicalPlan::choices / PlanStats::choices.
  bool cost_based = false;

  /// Tuples per batch on the pipelined batch surface (engine/batch.h;
  /// raq --batch-size). An execution knob, not a semantics change:
  /// results and PlanStats row counts are identical at every size
  /// (tests/batch_exec_test.cc enforces it at {1, 2, 7, 1024}); only
  /// PlanStats::batch_size/batches_emitted/peak_batch_bytes differ.
  /// Values < 1 are treated as 1.
  std::size_t batch_size = kDefaultBatchSize;

  /// Worker threads for partitioned parallel execution of the division /
  /// set-join / semijoin operators (engine/parallel.h; raq --threads).
  /// 1 (the default) runs everything serial; N > 1 gives each run a fixed
  /// N-wide worker pool and partitions eligible operators N ways by group
  /// key. Like `batch_size`, this is an execution knob, not a semantics
  /// change: results and per-operator PlanStats row counts are identical
  /// to the serial run (tests/batch_exec_test.cc enforces it at threads
  /// {1, 2, 7}); only PlanStats::threads_used/partitions differ. Under
  /// `cost_based` the planner additionally decides serial vs partitioned
  /// per call site from the inputs' shapes and records the decision in
  /// PlanStats::choices. Values < 1 are treated as 1.
  std::size_t threads = 1;

  /// Plan-cache capacity of the Engine facade, in entries (raq
  /// --plan-cache). 0 (the default) disables the transparent cache:
  /// Engine::Run lowers fresh every call and Engine::Prepare returns
  /// detached handles. N > 0 keeps the N most recently used lowered
  /// plans, keyed on the expression's structure (ra::ExprHash) and the
  /// database's id; a version-vector mismatch re-costs the cached plan
  /// from fresh statistics instead of re-lowering it (PlanStats::cache
  /// reports hit/miss/revalidated/repicked). Like `batch_size`/`threads`
  /// this is an execution-path knob, never a semantics change: cached
  /// results and per-operator PlanStats row counts are bit-identical to
  /// an uncached run (tests/plan_cache_test.cc enforces it).
  std::size_t plan_cache_entries = 0;

  /// Byte budget for the plan cache's approximate footprint (operators +
  /// key expressions + estimate tables). 0 = bounded by entry count only.
  /// Exceeding it evicts least-recently-used entries; an entry being
  /// executed or held by a PreparedQuery survives its eviction (shared
  /// ownership) — eviction only forgets, it never invalidates.
  std::size_t plan_cache_bytes = 0;

  /// Process-wide striped plan cache shared between engines and threads
  /// (engine/shared_cache.h). When set it takes precedence over the
  /// engine-local cache above for Engine::Run — entries are immutable
  /// and revalidated by replacement, so any number of engines on any
  /// number of threads may share one instance. Prepared handles keep
  /// using the engine-local path (a handle is a session-scoped object).
  /// Excluded from OptionsFingerprint (cache wiring, not semantics).
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

  /// Record one OpStats entry per executed operator (max/total intermediate
  /// sizes are tracked regardless).
  bool collect_node_stats = true;

  /// When non-zero, a run fails (Result error) as soon as any operator's
  /// output grows past this many distinct tuples — a guardrail for
  /// serving workloads that must not buffer quadratic intermediates.
  std::size_t max_intermediate_budget = 0;

  /// The 1:1 lowering with every rewrite and fast kernel disabled —
  /// exactly the legacy ra::Eval semantics, per-node stats included.
  static EngineOptions Reference();

  /// The rewrite-enabled options with statistics-driven algorithm
  /// selection: the planner consults the cost model per call site instead
  /// of the fixed algorithm defaults.
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

  EngineOptions WithPlanCache(std::size_t entries, std::size_t bytes = 0) const {
    EngineOptions o = *this;
    o.plan_cache_entries = entries;
    o.plan_cache_bytes = bytes;
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
};

/// Deterministic hash of every EngineOptions field that can change what a
/// lowered plan looks like or what a run produces (rewrites, algorithm
/// defaults, cost_based, batch size and threads, budgets, stats
/// collection).
/// Cache-wiring fields (plan_cache_*, shared_plan_cache, result_cache)
/// are excluded: they select *where* plans/results are stored, never what
/// they are. The process-wide caches mix this into their keys so engines
/// configured differently can share one cache without exchanging plans.
std::uint64_t OptionsFingerprint(const EngineOptions& options);

/// One re-costable algorithm decision baked into a lowered plan: the call
/// site kind, the logical inputs its cost formulas price, and the operator
/// the decision produced. A cached plan keeps these alive so a
/// version-vector mismatch re-prices the recorded alternatives from fresh
/// statistics — and swaps the operator in place when the decision flips —
/// without ever re-lowering the expression (engine/plan_cache.h).
struct ChoicePoint {
  enum class Kind { kDivision, kSemijoin, kMultiway };
  Kind kind = Kind::kDivision;
  /// The operator this decision built (remapped when a swap rebuilds it).
  const PhysicalOp* op = nullptr;
  /// Logical inputs: dividend/divisor for kDivision, left/right for
  /// kSemijoin. Owned here so estimates survive beyond the lowering.
  ra::ExprPtr left;
  ra::ExprPtr right;
  bool equality = false;  // Division flavor.
  /// Semijoin condition as the cost formulas price it (the planner's
  /// exact inputs, so re-costing reproduces fresh-lowering estimates).
  std::vector<ra::JoinAtom> atoms;
  /// Semijoin condition as baked into the operator — differs from `atoms`
  /// for the mirrored π(⋈) reduction, where the operator's sides are
  /// swapped. A flip rebuilds the operator with these.
  std::vector<ra::JoinAtom> op_atoms;
  const ra::Expr* source = nullptr;  // Logical node the operator mirrors.
  /// The decision currently baked into `op`.
  setjoin::DivisionAlgorithm division_algorithm =
      setjoin::DivisionAlgorithm::kHashDivision;
  SemijoinStrategy semijoin_strategy = SemijoinStrategy::kFastKernel;
  std::size_t partitions = 0;
  /// kMultiway payload: the collected join chain. The routing itself is
  /// structural (like the division-pattern rewrite, revalidation never
  /// un-routes a chain — see plan_cache.cc); these inputs let re-costing
  /// re-price the pinned alternative and repick only the fan-out width.
  /// Leaf relations of the hypergraph, in edge order.
  std::vector<ra::ExprPtr> multiway_inputs;
  /// Per leaf, per column: the 0-based join variable the column binds.
  std::vector<std::vector<std::size_t>> multiway_var_maps;
  std::size_t multiway_num_vars = 0;
  /// Interior nodes of the written binary chain, root last — what
  /// EstimateBinaryJoinChain prices against the AGM bound.
  std::vector<ra::ExprPtr> multiway_interior;
  /// True when the chain was routed to the multiway operator (`op` is the
  /// multiway join); false when the written binary plan was kept.
  bool multiway_routed = false;
  /// Leaf index / 1-based column that binds join variable 0 — the
  /// partitioning key the parallel width is priced on.
  std::size_t multiway_key_leaf = 0;
  std::size_t multiway_key_column = 1;
  /// This decision's slice of PhysicalPlan::choices (first index + count;
  /// 0 when the plan was not cost-based), updated in place on re-cost so
  /// revalidated runs report choices in the exact fresh-lowering order.
  std::size_t first_choice = 0;
  std::size_t num_choices = 0;
  /// Index of this decision's note in PhysicalPlan::rewrites (division
  /// pattern notes name the algorithm, so a repick rewrites the note), or
  /// SIZE_MAX when no note mentions the decision.
  std::size_t rewrite_index = static_cast<std::size_t>(-1);
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
  /// Each lowered operator paired with the logical node it reproduces, in
  /// lowering order — what re-costing iterates to refresh `estimates`
  /// from fresh statistics without re-lowering.
  std::vector<std::pair<const PhysicalOp*, ra::ExprPtr>> op_sources;
  /// The re-costable decisions baked into the plan, in lowering order.
  std::vector<ChoicePoint> choice_points;
  /// AGM bound of the first collected join chain (see PlanStats).
  double agm_bound = 0.0;
  bool has_agm_bound = false;

  /// Indented operator tree followed by the rewrite notes.
  std::string ToString() const;
};

/// The rewrite note LowerDivision records for a routed division pattern —
/// shared with plan-cache revalidation, which rewrites the note in place
/// when a repick changes the algorithm the note names.
std::string DivisionRewriteNote(setjoin::DivisionAlgorithm algorithm, bool equality,
                                bool cost_based);

/// The label CostBased() records for an execution-parallelism decision:
/// "partitioned[N]" (N > 1) or "serial".
std::string ParallelChoiceLabel(std::size_t partitions);

/// The rewrite note recorded when a collected join chain is routed to the
/// multiway operator — shared with plan-cache revalidation, which
/// refreshes the AGM figure the note quotes on re-cost.
std::string MultiwayRewriteNote(std::size_t relations, double agm_bound);

/// The choices label for the multiway-vs-binary decision:
/// "multiway[k]" when routed, "binary" when the written plan was kept.
std::string MultiwayChoiceLabel(bool routed, std::size_t relations);

class Planner {
 public:
  explicit Planner(EngineOptions options) : options_(std::move(options)) {}

  /// Validates `expr` against `schema` and lowers it. Never aborts on user
  /// input: schema mismatches come back as Result errors. When `stats` is
  /// non-null the plan is annotated with cost estimates, and cost_based
  /// options select algorithms from them.
  util::Result<PhysicalPlan> Lower(const ra::ExprPtr& expr, const core::Schema& schema,
                                   const stats::StatsProvider* stats = nullptr) const;

 private:
  EngineOptions options_;
};

}  // namespace setalg::engine

#endif  // SETALG_ENGINE_PLANNER_H_
