// The engine's physical-plan layer: a tree (DAG — shared subplans are
// evaluated once) of operators, each implemented once against the batched
// Open/NextBatch/Close surface (engine/batch.h).
//
// Every operator's kernel is batch-at-a-time, and MakeBatchIterator is an
// operator's whole execution surface. Engine runs compose the iterators
// across operators into a pipeline (engine.cc), so streaming operators
// never materialize at all while PlanStats still records each operator's
// (distinct) output cardinality. engine::RunMaterialized drives the same
// iterators one operator at a time: it wraps the children's materialized
// outputs in relation streamers and drains the operator's own iterator.
// That run is the semantics reference every complexity statement in the
// paper is phrased against (the cardinality of materialized
// intermediates, Definition 16); ra::Eval and the differential harnesses
// use it, Engine never does.
//
// Concrete operators cover the relational algebra one-to-one (scan, union,
// difference, projection, selection, const-tag, join, semijoin) plus the
// set-join/division algorithms (setjoin/, sa/) wrapped as first-class
// physical operators, so the planner can route a logical pattern — e.g.
// the textbook division expression — to a sub-quadratic implementation.
#ifndef SETALG_ENGINE_PHYSICAL_H_
#define SETALG_ENGINE_PHYSICAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/relation.h"
#include "engine/batch.h"
#include "ra/expr.h"
#include "setjoin/division.h"
#include "setjoin/setjoin.h"

namespace setalg::engine {

class PhysicalOp;
using PhysicalOpPtr = std::shared_ptr<const PhysicalOp>;

/// A cost-model estimate for one physical operator (see engine/cost.h for
/// the formulas).
struct CostEstimate {
  /// Abstract work units (~one hash probe / merge step / emitted tuple).
  double cost = 0.0;
  /// Estimated output cardinality.
  double output_size = 0.0;
  /// Estimated largest materialization the alternative needs (its own
  /// output or any internal table), in tuples.
  double max_intermediate = 0.0;
};

/// One cost-based planner decision, kept on the plan and copied into
/// PlanStats, so benches/tests can assert which algorithm the model
/// picked and how far off its estimate was.
struct AlgorithmChoice {
  /// Call site, e.g. "division", "set-containment-join", "semijoin".
  std::string site;
  /// Chosen algorithm name, e.g. "hash-division".
  std::string algorithm;
  CostEstimate estimate;
};

/// Per-operator instrumentation (one entry per distinct operator, in
/// execution post-order).
struct OpStats {
  const PhysicalOp* op = nullptr;
  /// The logical node this operator's output coincides with, or nullptr
  /// for operators synthesized by a rewrite (their output has no 1:1
  /// logical counterpart).
  const ra::Expr* source = nullptr;
  std::string label;
  std::size_t output_size = 0;
  /// Cost-model predictions made at plan time, for calibration against
  /// `output_size`. Provenance of a priced plan: present exactly when
  /// the plan was lowered with statistics, which the engine reads only
  /// for options that decide from them (cost_based, multiway) or learn
  /// from them (calibration). A planned-mode run carries none. They never
  /// change a result or a row count.
  bool has_estimate = false;
  double estimated_output = 0.0;
  double estimated_cost = 0.0;
};

/// How one Engine run obtained its physical plan from the plan cache
/// (engine/plan_cache.h). kUncached for runs that never consulted it
/// (cache disabled, or Run on a hand-assembled plan).
enum class CacheOutcome {
  kUncached,     // The cache was not consulted.
  kMiss,         // Lowered fresh (and inserted when the cache is enabled).
  kHit,          // Version vector matched: the cached plan ran as-is.
  kRevalidated,  // Versions moved; re-costed, every algorithm choice held.
  kRepicked,     // Versions moved; re-costing flipped >= 1 choice.
  kResultHit,    // Served from the result cache (engine/result_cache.h):
                 // no plan ran at all — the stored relation and the
                 // producing run's stats were replayed verbatim.
};

/// The outcome's raq/-v spelling ("hit", "repicked", ...).
const char* CacheOutcomeToString(CacheOutcome outcome);

/// Instrumentation collected by one Engine run — the physical-plan
/// analogue of ra::EvalStats.
struct PlanStats {
  std::vector<OpStats> ops;
  /// max over operators of the materialized output size — c(E') of
  /// Definition 16 when the plan is a 1:1 lowering.
  std::size_t max_intermediate = 0;
  std::size_t total_intermediate = 0;
  /// Rows emitted by join operators before deduplication.
  std::uint64_t join_rows_emitted = 0;
  /// Human-readable notes of the planner rewrites that shaped this plan.
  std::vector<std::string> rewrites;
  /// Cost-based algorithm selections made while planning (empty unless
  /// EngineOptions::cost_based was set and statistics were available).
  std::vector<AlgorithmChoice> choices;
  /// The batch size the run used on the batch surface (see
  /// engine/batch.h).
  std::size_t batch_size = 0;
  /// Operator-output batches that crossed the batch surface.
  std::uint64_t batches_emitted = 0;
  /// Largest single operator-output batch footprint observed, in bytes —
  /// the per-edge buffering cost of the pipeline.
  std::size_t peak_batch_bytes = 0;
  /// Worker threads available to the run (EngineOptions::threads; 1 for a
  /// serial run). Partitioned operators never change results or the row
  /// counts above — this field, `partitions`, and
  /// `partition_passes_skipped` are the only stats that may differ
  /// between a serial and a parallel run of the same plan.
  std::size_t threads_used = 1;
  /// Partition tasks executed by partitioned operators, summed across the
  /// run (0 when every operator ran serial). Deterministic for fixed
  /// options and data: each operator's width is PartitionCount of the
  /// rows it splits (engine/parallel.h), never a function of load.
  std::size_t partitions = 0;
  /// Partition passes partitioned operators skipped because they read a
  /// stored relation in place: a division or set join whose grouped
  /// input is a scan cuts the stored relation, sorted on column 1, into
  /// more than one key range without draining or partitioning it (one
  /// count per such input). Like `partitions`, purely an
  /// execution-strategy counter: results and per-operator row counts are
  /// unchanged.
  std::size_t partition_passes_skipped = 0;
  /// The AGM (fractional edge cover) output bound of the first join chain
  /// the planner collected into a hypergraph, in tuples — the provable
  /// worst-case output size the multiway router budgets against. Present
  /// (has_agm_bound) whenever a chain was collected with statistics,
  /// whether or not the multiway operator was chosen.
  double agm_bound = 0.0;
  bool has_agm_bound = false;
  /// How the plan was obtained from the plan cache. Purely provenance:
  /// every other field (and the result) is identical whichever way the
  /// plan arrived — the cache-differential harness in
  /// tests/plan_cache_test.cc enforces it.
  CacheOutcome cache = CacheOutcome::kUncached;
};

class WorkerPool;  // engine/parallel.h

/// Execution-time context handed to every operator.
class ExecContext {
 public:
  ExecContext(const core::DatabaseView* db, PlanStats* stats,
              std::size_t batch_size = kDefaultBatchSize, std::size_t threads = 1);
  ~ExecContext();

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  const core::DatabaseView& db() const { return *db_; }
  PlanStats* stats() const { return stats_; }

  /// Tuples per batch on the batch surface (always >= 1).
  std::size_t batch_size() const { return batch_size_; }

  /// Total parallelism available to partitioned operators (>= 1): the
  /// bound PartitionCount (engine/parallel.h) clamps fan-out widths to.
  std::size_t threads() const { return threads_; }

  /// The run's `threads`-wide worker pool, started on the first call —
  /// RunPartitionTasks' first fan-out — and joined with the context, so a
  /// run that never splits starts no thread. Driving thread only.
  WorkerPool& pool();

  void CountJoinRows(std::uint64_t rows) {
    if (stats_ != nullptr) stats_->join_rows_emitted += rows;
  }

  /// Records one operator-output batch (count + peak footprint).
  void CountBatch(const Batch& batch) {
    if (stats_ == nullptr) return;
    ++stats_->batches_emitted;
    if (batch.memory_bytes() > stats_->peak_batch_bytes) {
      stats_->peak_batch_bytes = batch.memory_bytes();
    }
  }

  /// Records one partitioned operator's fan-out width. Called from the
  /// driving thread only (RunPartitionTasks after the fan-in).
  void CountPartitions(std::size_t partitions) {
    if (stats_ != nullptr) stats_->partitions += partitions;
  }

  /// Records one stored input a partitioned operator read in place and
  /// cut into more than one key range instead of running its partition
  /// pass. Driving thread only.
  void CountSkippedPartitionPass() {
    if (stats_ != nullptr) ++stats_->partition_passes_skipped;
  }

 private:
  const core::DatabaseView* db_;
  PlanStats* stats_;
  std::size_t batch_size_;
  std::size_t threads_;
  std::unique_ptr<WorkerPool> pool_;
};

/// An immutable physical operator. Build via the factory functions below;
/// compose by sharing PhysicalOpPtr children (shared subplans execute once).
class PhysicalOp {
 public:
  virtual ~PhysicalOp() = default;

  std::size_t arity() const { return arity_; }
  const std::vector<PhysicalOpPtr>& children() const { return children_; }
  const PhysicalOpPtr& child(std::size_t i) const { return children_[i]; }
  const ra::Expr* source() const { return source_; }

  /// One-line description, e.g. "division[hash-division]" or "join[2=1]".
  virtual std::string label() const = 0;

  /// The operator's batch-at-a-time kernel: returns an iterator producing
  /// this operator's output from the children's streams (`inputs`, in
  /// child order, consumed at most once each). Input streams are always
  /// duplicate-free (relation streamers under the materializing reference,
  /// deduped pipeline edges in an Engine run); the output stream may carry
  /// duplicates unless its distinct() says otherwise. `ctx` must outlive
  /// the iterator.
  virtual std::unique_ptr<BatchIterator> MakeBatchIterator(
      ExecContext& ctx, std::vector<std::unique_ptr<BatchIterator>> inputs) const = 0;

  /// A copy of this operator over different children (same kind, payload
  /// and source; `children` must match the original count and arities).
  /// The structural substitution primitive behind plan-cache revalidation:
  /// a revalidated copy of a cached plan swaps in a re-picked operator by
  /// rebuilding only the spine above it, never re-lowering the logical
  /// expression.
  virtual PhysicalOpPtr WithChildren(std::vector<PhysicalOpPtr> children) const = 0;

  /// The stored relation this operator scans, or nullptr for every
  /// non-scan operator (used to derive a plan's version vector).
  virtual const std::string* scan_relation() const { return nullptr; }

  /// True when this operator streams its rows in lexicographic order over
  /// all columns (equal rows adjacent), so the deduplicated stream its
  /// consumer reads is normalized: scans, division and the set joins say
  /// so. A planning hint only: consumers that need sorted input still
  /// normalize it, a linear check on sorted rows, so a wrong answer costs
  /// time, never a result. The planned division rule keys on a stored
  /// scan instead (PlannedDivisionAlgorithm).
  virtual bool sorted_output() const { return false; }

  /// Indented rendering of the subplan rooted here.
  std::string ToString() const;

 protected:
  PhysicalOp(std::size_t arity, std::vector<PhysicalOpPtr> children,
             const ra::Expr* source)
      : arity_(arity), children_(std::move(children)), source_(source) {}

 private:
  std::size_t arity_;
  std::vector<PhysicalOpPtr> children_;
  const ra::Expr* source_;
};

/// Which implementation a semijoin operator uses.
enum class SemijoinStrategy {
  kGeneric,     // The reference hash/scan evaluator (legacy ra::Eval path).
  kFastKernel,  // sa::Semijoin kernel auto-selection.
};

// ---------------------------------------------------------------------------
// Factories. `source` marks the logical node whose output the operator
// reproduces (nullptr for rewrite-synthesized operators).
// ---------------------------------------------------------------------------

/// Scan of a stored relation.
PhysicalOpPtr MakeScan(std::string relation_name, std::size_t arity,
                       const ra::Expr* source = nullptr);

PhysicalOpPtr MakeUnion(PhysicalOpPtr left, PhysicalOpPtr right,
                        const ra::Expr* source = nullptr);

PhysicalOpPtr MakeDifference(PhysicalOpPtr left, PhysicalOpPtr right,
                             const ra::Expr* source = nullptr);

PhysicalOpPtr MakeProject(PhysicalOpPtr input, std::vector<std::size_t> columns,
                          const ra::Expr* source = nullptr);

PhysicalOpPtr MakeSelect(PhysicalOpPtr input, ra::Cmp op, std::size_t i,
                         std::size_t j, const ra::Expr* source = nullptr);

PhysicalOpPtr MakeConstTag(PhysicalOpPtr input, core::Value value,
                           const ra::Expr* source = nullptr);

/// θ-join: hash join on the equality conjuncts with a residual filter;
/// nested loop when θ has no equalities (or is empty — cartesian product).
PhysicalOpPtr MakeJoin(PhysicalOpPtr left, PhysicalOpPtr right,
                       std::vector<ra::JoinAtom> atoms,
                       const ra::Expr* source = nullptr);

/// Semijoin. The fast strategy partitions both sides by the first
/// equality atom once they are in hand, PartitionCount(rows of both
/// sides) ways (engine/parallel.h); a condition without an equality atom
/// runs the kernel serially. The generic strategy is the reference and
/// always runs serial. Results and PlanStats row counts are identical at
/// every width.
PhysicalOpPtr MakeSemiJoin(PhysicalOpPtr left, PhysicalOpPtr right,
                           std::vector<ra::JoinAtom> atoms,
                           SemijoinStrategy strategy,
                           const ra::Expr* source = nullptr);

/// Division: child 0 is the binary dividend R(A,B), child 1 the unary
/// divisor S(B). With `equality` the B-set must equal S, else contain it.
/// One plan at every width, chosen from the dividend stream, never from
/// the thread count: hash and aggregate division over a stream that hands
/// over no relation (a derived dividend) consume it batch by batch as one
/// task, with no drain, sort or split. Every other dividend is read sorted
/// on column 1 (a stored scan or shared subplan in place, any other
/// stream drained and normalized) and cut into PartitionCount(dividend
/// rows) key ranges that share the divisor; each range runs
/// setjoin::DivideRows, which reads it in place for every algorithm but
/// kClassicRa (that one copies its range into a transient database).
PhysicalOpPtr MakeDivision(PhysicalOpPtr dividend, PhysicalOpPtr divisor,
                           setjoin::DivisionAlgorithm algorithm, bool equality,
                           const ra::Expr* source = nullptr);

// The set joins: one operator over two binary inputs grouped on column 1,
// which differs only in its label and kernel (setjoin/setjoin.h). Both
// inputs are read sorted on column 1 — a stored scan in place, any other
// input drained and normalized — and grouped with one pass over their rows
// (setjoin::GroupedRelation). The right side is grouped once and shared;
// the left (output-key) side is cut into PartitionCount(left rows) key
// ranges, and each range's task groups its own rows and runs the kernel.
// A serial run is the same plan with one range.

/// Set-containment join: pairs (a, c) whose left set contains the right.
PhysicalOpPtr MakeSetContainmentJoin(PhysicalOpPtr left, PhysicalOpPtr right,
                                     setjoin::ContainmentAlgorithm algorithm,
                                     const ra::Expr* source = nullptr);

/// Set-equality join: pairs (a, c) whose sets are equal.
PhysicalOpPtr MakeSetEqualityJoin(PhysicalOpPtr left, PhysicalOpPtr right,
                                  setjoin::EqualityJoinAlgorithm algorithm,
                                  const ra::Expr* source = nullptr);

/// Set-overlap join: pairs (a, c) whose sets intersect.
PhysicalOpPtr MakeSetOverlapJoin(PhysicalOpPtr left, PhysicalOpPtr right,
                                 const ra::Expr* source = nullptr);

/// All stored-relation names scanned anywhere in the plan rooted at
/// `root`, sorted and unique — the relation set a plan's cache entry
/// snapshots its version vector over.
std::vector<std::string> CollectScanRelations(const PhysicalOpPtr& root);

}  // namespace setalg::engine

#endif  // SETALG_ENGINE_PHYSICAL_H_
