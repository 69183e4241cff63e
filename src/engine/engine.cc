#include "engine/engine.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "engine/calibration.h"
#include "engine/result_cache.h"
#include "engine/shared_cache.h"
#include "util/check.h"

namespace setalg::engine {
namespace {

// One operator's stats entry with the plan-time prediction paired in, if
// any — this is what makes every run a cost-model calibration point.
// Shared by the pipelined executor and the materializing reference, so the
// two can never diverge.
OpStats MakeOpStats(const PhysicalOp* op, std::size_t output_size,
                    const PhysicalPlan* plan) {
  OpStats entry{op, op->source(), op->label(), output_size, false, 0.0, 0.0};
  auto estimate = plan->estimates.find(op);
  if (estimate != plan->estimates.end()) {
    entry.has_estimate = true;
    entry.estimated_output = estimate->second.output_size;
    entry.estimated_cost = estimate->second.cost;
  }
  return entry;
}

// A run's PlanStats before execution: the plan-level annotations
// (rewrites, choices, AGM bound) and the run's batch size and width.
PlanStats NewPlanStats(const PhysicalPlan& plan, std::size_t batch_size,
                       std::size_t threads) {
  PlanStats stats;
  stats.rewrites = plan.rewrites;
  stats.choices = plan.choices;
  stats.agm_bound = plan.agm_bound;
  stats.has_agm_bound = plan.has_agm_bound;
  stats.batch_size = batch_size == 0 ? 1 : batch_size;
  stats.threads_used = threads;
  return stats;
}

// Label prefix up to the first of "[( " — the calibration op-kind, e.g.
// "division=" from "division=[hash-division]" or "join" from "join[2=1]".
std::string OpKindOf(const std::string& label) {
  return label.substr(0, label.find_first_of("[( "));
}

// Feeds one finished run's estimate/actual pairs into the calibration
// store: every estimated operator contributes an output-size residual,
// and selections/semijoins additionally contribute observed
// input-to-output selectivities (their input is the first child's
// recorded output in the same ops list).
void FeedCalibration(CalibrationStore* store, const PlanStats& stats) {
  std::unordered_map<const PhysicalOp*, std::size_t> outputs;
  for (const OpStats& op : stats.ops) {
    if (op.op != nullptr) outputs[op.op] = op.output_size;
  }
  for (const OpStats& op : stats.ops) {
    const std::string kind = OpKindOf(op.label);
    if (op.has_estimate) {
      store->ObserveOutput("out:" + kind, op.estimated_output,
                           static_cast<double>(op.output_size));
    }
    if (op.op == nullptr || op.op->children().empty()) continue;
    auto in = outputs.find(op.op->child(0).get());
    if (in == outputs.end()) continue;
    const double input = static_cast<double>(in->second);
    if (kind == "select") {
      // "select[1<2]": the comparator between the columns, "!=" first so
      // its '=' is not mistaken for equality.
      const std::string& l = op.label;
      const char* cmp = l.find("!=") != std::string::npos   ? "!="
                        : l.find('=') != std::string::npos  ? "="
                        : l.find('<') != std::string::npos  ? "<"
                        : l.find('>') != std::string::npos  ? ">"
                                                            : nullptr;
      if (cmp != nullptr) {
        store->ObserveSelectivity(std::string("sel:select:") + cmp, input,
                                  static_cast<double>(op.output_size));
      }
    } else if (kind == "semijoin") {
      store->ObserveSelectivity("sel:semijoin", input,
                                static_cast<double>(op.output_size));
    }
  }
}

// The semantics reference behind RunMaterialized: post-order DAG
// execution with memoization (shared operators run once), every
// operator's output materialized, normalized and counted.
class MaterializingExecutor {
 public:
  MaterializingExecutor(const core::DatabaseView* db, const PhysicalPlan* plan,
                        PlanStats* stats)
      : ctx_(db, stats), plan_(plan), stats_(stats) {}

  core::Relation Run(const PhysicalOpPtr& root) {
    Execute(root);
    return std::move(memo_.at(root.get()));
  }

 private:
  const core::Relation& Execute(const PhysicalOpPtr& op) {
    auto it = memo_.find(op.get());
    if (it != memo_.end()) return it->second;

    std::vector<const core::Relation*> inputs;
    inputs.reserve(op->children().size());
    for (const auto& child : op->children()) inputs.push_back(&Execute(child));

    core::Relation out = op->Execute(ctx_, inputs);
    out.Normalize();
    const std::size_t size = out.size();
    stats_->ops.push_back(MakeOpStats(op.get(), size, plan_));
    stats_->max_intermediate = std::max(stats_->max_intermediate, size);
    stats_->total_intermediate += size;
    // Node-based map: references to stored relations survive rehashing.
    return memo_.emplace(op.get(), std::move(out)).first->second;
  }

  ExecContext ctx_;
  const PhysicalPlan* plan_;
  PlanStats* stats_;
  std::unordered_map<const PhysicalOp*, core::Relation> memo_;
};

class PipelinedExecutor;

// Wraps one operator's batch stream on a pipeline edge: guarantees set
// semantics downstream (deduping streams that may carry duplicates),
// counts the operator's distinct output rows for PlanStats — the same
// per-operator cardinalities the materializing reference records — and
// enforces the intermediate-size budget as the stream grows.
class InstrumentedIterator final : public BatchIterator {
 public:
  InstrumentedIterator(PipelinedExecutor* executor, const PhysicalOp* op,
                       std::unique_ptr<BatchIterator> inner, std::size_t batch_size)
      : executor_(executor), op_(op), inner_(std::move(inner)),
        batch_size_(batch_size) {}

  void Open() override { inner_->Open(); }
  void Close() override { inner_->Close(); }
  bool distinct() const override { return true; }

  bool NextBatch(Batch& out) override;

  // Forwards to the operator's iterator. A relation handed over still
  // produces the operator's stats entry: its rows are exactly what a full
  // drain would have counted (it is normalized, hence distinct), so
  // per-op PlanStats and the budget check are the same either way.
  const core::Relation* TakeRelation() override;

 private:
  bool NextDeduped(Batch& out);
  void FinalizeOnce();

  PipelinedExecutor* executor_;
  const PhysicalOp* op_;
  std::unique_ptr<BatchIterator> inner_;
  std::size_t batch_size_;
  std::size_t rows_ = 0;
  bool finalized_ = false;
  // Dedup state, engaged only when the inner stream may repeat tuples.
  std::optional<RowSet> seen_;
  Batch scratch_;
};

// The engine's executor: composes the operators' iterators edge-to-edge
// over the batch surface, so streaming operators never materialize their
// output. Shared subplans (DAG nodes with more than one parent) cannot
// share one stream, so they are materialized once and re-streamed to each
// parent. Per-operator PlanStats (distinct output rows, max/total
// intermediate, join rows) match the materializing reference exactly; the
// batch fields (batches_emitted, peak_batch_bytes) describe the
// pipeline's actual buffering.
class PipelinedExecutor {
 public:
  PipelinedExecutor(const core::DatabaseView* db, const EngineOptions* options,
                    const PhysicalPlan* plan, PlanStats* stats)
      : ctx_(db, stats, options->batch_size, options->threads), options_(options),
        plan_(plan), stats_(stats) {}

  util::Result<core::Relation> Run(const PhysicalOpPtr& root) {
    {
      std::unordered_set<const PhysicalOp*> visited;
      CountParents(root, &visited);
    }
    core::Relation out = DrainRoot(root);
    if (!error_.empty()) return util::Result<core::Relation>::Error(error_);
    {
      // Emit OpStats in the same post-order the materializing reference
      // uses, independent of the streams' interleaved completion order.
      std::unordered_set<const PhysicalOp*> visited;
      AppendStats(root, &visited);
    }
    out.Normalize();
    return out;
  }

  ExecContext& ctx() { return ctx_; }
  bool failed() const { return !error_.empty(); }

  /// Returns false (and records the error) once an operator's distinct
  /// output exceeds the budget.
  bool CheckBudget(const PhysicalOp* op, std::size_t rows) {
    if (options_->max_intermediate_budget == 0 ||
        rows <= options_->max_intermediate_budget) {
      return true;
    }
    if (error_.empty()) {
      std::ostringstream message;
      message << "intermediate-size budget exceeded: " << op->label() << " produced "
              << rows << " tuples (budget " << options_->max_intermediate_budget
              << ")";
      error_ = message.str();
    }
    return false;
  }

  /// Records an exhausted stream's distinct row count — the operator's
  /// output cardinality.
  void Finalize(const PhysicalOp* op, std::size_t rows) {
    stats_->max_intermediate = std::max(stats_->max_intermediate, rows);
    stats_->total_intermediate += rows;
    finished_.emplace(op, MakeOpStats(op, rows, plan_));
  }

 private:
  // Counts incoming DAG edges per operator (each node's subtree is walked
  // once; extra edges only bump the count).
  void CountParents(const PhysicalOpPtr& op,
                    std::unordered_set<const PhysicalOp*>* visited) {
    for (const auto& child : op->children()) {
      ++parents_[child.get()];
      if (visited->insert(child.get()).second) CountParents(child, visited);
    }
  }

  std::unique_ptr<BatchIterator> Build(const PhysicalOpPtr& op) {
    if (parents_[op.get()] > 1) {
      // A stream has one consumer; shared subplans materialize once and
      // each parent re-streams the stored result.
      auto it = materialized_.find(op.get());
      if (it == materialized_.end()) {
        std::unique_ptr<BatchIterator> inner = BuildFresh(op);
        core::Relation relation =
            DrainToRelation(inner.get(), op->arity(), ctx_.batch_size());
        relation.Normalize();
        it = materialized_.emplace(op.get(), std::move(relation)).first;
      }
      return std::make_unique<RelationBatchIterator>(&it->second);
    }
    return BuildFresh(op);
  }

  // Runs the pipeline and returns the root's rows as an exact-size
  // relation. The rows first collect in a per-thread buffer that keeps
  // its capacity from run to run, and the pipeline is torn down before
  // they are copied out. Draining straight into the result would grow it
  // by doubling on every run and leave its block at the top of the
  // thread's malloc arena when the caller frees it. glibc trims a free
  // top larger than twice the largest recently freed block, so a server
  // answering one ~1 MB result after another would fault about 3 MB back
  // in per statement.
  core::Relation DrainRoot(const PhysicalOpPtr& root) {
    const std::size_t arity = root->arity();
    std::unique_ptr<BatchIterator> it = Build(root);
    if (arity == 0) return DrainToRelation(it.get(), 0, ctx_.batch_size());
    // Bounds what an idle thread keeps: 4 MB.
    constexpr std::size_t kMaxRetainedValues = std::size_t{1} << 19;
    thread_local std::vector<core::Value> retained;
    std::vector<core::Value> rows = std::move(retained);  // A nested run starts empty.
    rows.clear();
    it->Open();
    Batch batch(arity, ctx_.batch_size());
    while (it->NextBatch(batch)) {
      rows.insert(rows.end(), batch.values().begin(), batch.values().end());
    }
    it->Close();
    it.reset();
    core::Relation out(arity);
    if (!rows.empty()) out.AddRows(rows.data(), rows.size() / arity);
    if (rows.capacity() <= kMaxRetainedValues) retained = std::move(rows);
    return out;
  }

  std::unique_ptr<BatchIterator> BuildFresh(const PhysicalOpPtr& op) {
    std::vector<std::unique_ptr<BatchIterator>> inputs;
    inputs.reserve(op->children().size());
    for (const auto& child : op->children()) inputs.push_back(Build(child));
    return std::make_unique<InstrumentedIterator>(
        this, op.get(), op->MakeBatchIterator(ctx_, std::move(inputs)),
        ctx_.batch_size());
  }

  void AppendStats(const PhysicalOpPtr& op,
                   std::unordered_set<const PhysicalOp*>* visited) {
    if (!visited->insert(op.get()).second) return;
    for (const auto& child : op->children()) AppendStats(child, visited);
    auto it = finished_.find(op.get());
    if (it != finished_.end()) stats_->ops.push_back(std::move(it->second));
  }

  ExecContext ctx_;
  const EngineOptions* options_;
  const PhysicalPlan* plan_;
  PlanStats* stats_;
  std::unordered_map<const PhysicalOp*, std::size_t> parents_;
  std::unordered_map<const PhysicalOp*, core::Relation> materialized_;
  std::unordered_map<const PhysicalOp*, OpStats> finished_;
  std::string error_;
};

bool InstrumentedIterator::NextBatch(Batch& out) {
  if (executor_->failed()) return false;
  for (;;) {
    bool more;
    if (inner_->distinct()) {
      more = inner_->NextBatch(out);
      if (more) {
        executor_->ctx().CountBatch(out);
        rows_ += out.size();
      }
    } else {
      more = NextDeduped(out);
    }
    if (!more) {
      FinalizeOnce();
      return false;
    }
    if (!executor_->CheckBudget(op_, rows_)) return false;
    // A fully-duplicate batch dedups to nothing; pull again rather than
    // hand the consumer an empty batch.
    if (!out.empty()) return true;
  }
}

bool InstrumentedIterator::NextDeduped(Batch& out) {
  if (!seen_.has_value()) {
    seen_.emplace(op_->arity());
    scratch_.Reset(op_->arity(), batch_size_);
  }
  if (!inner_->NextBatch(scratch_)) return false;
  executor_->ctx().CountBatch(scratch_);
  out.Clear();
  for (std::size_t i = 0; i < scratch_.size(); ++i) {
    core::TupleView row = scratch_.row(i);
    if (seen_->Insert(row)) out.Add(row);
  }
  rows_ += out.size();
  return true;
}

const core::Relation* InstrumentedIterator::TakeRelation() {
  const core::Relation* whole = inner_->TakeRelation();
  if (whole == nullptr) return nullptr;
  rows_ += whole->size();
  executor_->CheckBudget(op_, rows_);
  FinalizeOnce();
  return whole;
}

void InstrumentedIterator::FinalizeOnce() {
  if (finalized_) return;
  finalized_ = true;
  executor_->Finalize(op_, rows_);
}

}  // namespace

const stats::StatsProvider* Engine::StatsFor(const core::DatabaseView& db) const {
  // Nothing reads statistics under these options: no estimates, no pass.
  if (!options_.UsesStatistics()) return nullptr;
  // Views that double as their own statistics provider — txn::Snapshot
  // computes each relation version's stats lazily, once — bypass the
  // engine's memoized provider entirely. This keeps concurrent
  // Run(expr, snapshot) calls off the engine's mutable state.
  if (const auto* provider = dynamic_cast<const stats::StatsProvider*>(&db)) {
    return provider;
  }
  if (db_stats_ == nullptr || db_stats_id_ != db.id() || &db_stats_->db() != &db) {
    db_stats_ = std::make_unique<stats::DatabaseStats>(&db);
    db_stats_id_ = db.id();
  }
  return db_stats_.get();
}

util::Result<RunResult> Engine::Run(const ra::ExprPtr& expr,
                                    const core::DatabaseView& db) const {
  const ResultCache* results = options_.result_cache.get();
  if (results == nullptr) {
    PhysicalOpPtr pin;
    return RunWithPlanCache(expr, db, &pin);
  }
  const std::uint64_t fp = OptionsFingerprint(options_);
  if (auto hit = results->Lookup(expr, db, fp)) {
    RunResult out;
    out.relation = std::move(hit->relation);
    out.stats = std::move(hit->stats);
    return util::Result<RunResult>(std::move(out));
  }
  PhysicalOpPtr pin;
  auto run = RunWithPlanCache(expr, db, &pin);
  if (run.ok()) {
    // Key the stored result on the versions of exactly the relations the
    // expression reads. Consistent with the data the run saw: a
    // snapshot's counters are frozen, and a live Database is
    // single-threaded by contract.
    results->Insert(expr, db.id(), fp,
                    stats::SnapshotVersions(db, ra::CollectRelationNames(*expr)),
                    run->relation, run->stats, std::move(pin));
  }
  return run;
}

util::Result<SharedPlanCache::Acquired> Engine::AcquirePlan(
    const SharedPlanCache& cache, const ra::ExprPtr& expr,
    const core::DatabaseView& db) const {
  auto acquired = cache.Acquire(expr, db, StatsFor(db), options_);
  if (acquired.entry == nullptr) {
    auto plan = Plan(expr, db);
    if (!plan.ok()) return util::Result<SharedPlanCache::Acquired>::Error(plan.error());
    acquired.entry = cache.Insert(MakeCachedPlan(expr, db, std::move(*plan)), options_);
  }
  return acquired;
}

util::Result<RunResult> Engine::RunAcquired(const SharedPlanCache::Acquired& acquired,
                                            const core::DatabaseView& db) const {
  auto run = RunImpl(acquired.entry->plan, db);
  if (run.ok()) run->stats.cache = acquired.outcome;
  return run;
}

util::Result<RunResult> Engine::RunWithPlanCache(const ra::ExprPtr& expr,
                                                 const core::DatabaseView& db,
                                                 PhysicalOpPtr* pin) const {
  const SharedPlanCache* cache = plan_cache();
  if (cache == nullptr) {
    auto plan = Plan(expr, db);
    if (!plan.ok()) return util::Result<RunResult>::Error(plan.error());
    auto run = RunImpl(*plan, db);
    *pin = plan->root;
    return run;
  }
  // Entries are immutable and revalidated by replacement, so this path is
  // safe from any number of threads.
  auto acquired = AcquirePlan(*cache, expr, db);
  if (!acquired.ok()) return util::Result<RunResult>::Error(acquired.error());
  *pin = acquired->entry->plan.root;
  return RunAcquired(*acquired, db);
}

util::Result<PreparedQuery> Engine::Prepare(const ra::ExprPtr& expr,
                                            const core::DatabaseView& db) const {
  SETALG_CHECK(expr != nullptr);
  if (const SharedPlanCache* cache = plan_cache()) {
    auto acquired = AcquirePlan(*cache, expr, db);
    if (!acquired.ok()) return util::Result<PreparedQuery>::Error(acquired.error());
    return util::Result<PreparedQuery>(PreparedQuery(std::move(acquired->entry)));
  }
  auto plan = Plan(expr, db);
  if (!plan.ok()) return util::Result<PreparedQuery>::Error(plan.error());
  return util::Result<PreparedQuery>(
      PreparedQuery(MakeCachedPlan(expr, db, std::move(*plan))));
}

util::Result<PreparedQuery> Engine::Prepare(PhysicalPlan plan,
                                            const core::DatabaseView& db) const {
  if (plan.root == nullptr) {
    return util::Result<PreparedQuery>::Error("cannot prepare an empty plan");
  }
  // Hand-built plans have no logical key, so they never enter the
  // expression-keyed cache: the handle alone owns the entry.
  return util::Result<PreparedQuery>(
      PreparedQuery(MakeCachedPlan(nullptr, db, std::move(plan))));
}

util::Result<RunResult> Engine::Run(const PreparedQuery& prepared,
                                    const core::DatabaseView& db) const {
  SETALG_CHECK(prepared.valid());
  const SharedPlanPtr& held = prepared.entry_;
  if (held->db_id != db.id()) {
    // Prepared against a different database instance. Same-named
    // relations on another database are different data — never reuse the
    // handle's costs for them. With a logical key the transparent path
    // plans (or cache-fetches) for *this* database; a hand-built plan
    // has no key, so it runs uncached with its plan-time annotations.
    if (held->expr != nullptr) return Run(held->expr, db);
    return RunImpl(held->plan, db);
  }
  SharedPlanCache::Acquired acquired;
  const SharedPlanCache* cache = plan_cache();
  if (cache != nullptr && held->expr != nullptr) {
    acquired = cache->AcquireResident(*held, db, StatsFor(db), options_);
  }
  if (acquired.entry == nullptr) {
    // Nothing resident under the handle's key (or no key, or no cache):
    // run the handle's own entry, uncounted and unpublished.
    acquired.entry = RevalidatedCopy(held, db, StatsFor(db), options_, &acquired.outcome);
  }
  prepared.entry_ = acquired.entry;
  return RunAcquired(acquired, db);
}

util::Result<PhysicalPlan> Engine::Plan(const ra::ExprPtr& expr,
                                        const core::Schema& schema) const {
  return Planner(options_).Lower(expr, schema);
}

util::Result<PhysicalPlan> Engine::Plan(const ra::ExprPtr& expr,
                                        const core::DatabaseView& db) const {
  return Planner(options_).Lower(expr, db.schema(), StatsFor(db));
}

util::Result<std::string> Engine::Explain(const ra::ExprPtr& expr,
                                          const core::Schema& schema) const {
  auto plan = Plan(expr, schema);
  if (!plan.ok()) return util::Result<std::string>::Error(plan.error());
  return plan->ToString();
}

util::Result<std::string> Engine::Explain(const ra::ExprPtr& expr,
                                          const core::DatabaseView& db) const {
  auto plan = Plan(expr, db);
  if (!plan.ok()) return util::Result<std::string>::Error(plan.error());
  return plan->ToString();
}

util::Result<RunResult> Engine::Run(const PhysicalPlan& plan,
                                    const core::DatabaseView& db) const {
  return RunImpl(plan, db);
}

util::Result<RunResult> Engine::RunImpl(const PhysicalPlan& plan,
                                        const core::DatabaseView& db) const {
  SETALG_CHECK(plan.root != nullptr);
  const std::size_t threads = options_.threads == 0 ? 1 : options_.threads;
  RunResult result;
  result.stats = NewPlanStats(plan, options_.batch_size, threads);
  // The run's worker pool starts at its first fan-out (ExecContext::pool).
  PipelinedExecutor executor(&db, &options_, &plan, &result.stats);
  auto out = executor.Run(plan.root);
  if (!out.ok()) return util::Result<RunResult>::Error(out.error());
  result.relation = std::move(*out);
  if (options_.calibration != nullptr) {
    FeedCalibration(options_.calibration.get(), result.stats);
  }
  return result;
}

util::Result<RunResult> Engine::Run(const ra::ExprPtr& expr, const core::DatabaseView& db,
                                    const EngineOptions& options) {
  const Engine engine(options);
  auto plan = engine.Plan(expr, db);
  if (!plan.ok()) return util::Result<RunResult>::Error(plan.error());
  return engine.RunImpl(*plan, db);
}

RunResult RunMaterialized(const PhysicalPlan& plan, const core::DatabaseView& db) {
  SETALG_CHECK(plan.root != nullptr);
  RunResult result;
  result.stats = NewPlanStats(plan, kDefaultBatchSize, 1);
  result.relation = MaterializingExecutor(&db, &plan, &result.stats).Run(plan.root);
  return result;
}

ra::EvalStats ToEvalStats(const PlanStats& stats) {
  ra::EvalStats out;
  out.nodes.reserve(stats.ops.size());
  for (const auto& op : stats.ops) {
    if (op.source != nullptr) out.nodes.push_back({op.source, op.output_size});
  }
  out.max_intermediate = stats.max_intermediate;
  out.total_intermediate = stats.total_intermediate;
  out.join_rows_emitted = stats.join_rows_emitted;
  return out;
}

}  // namespace setalg::engine
