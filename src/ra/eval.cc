#include "ra/eval.h"

#include <utility>

#include "engine/engine.h"
#include "util/check.h"

namespace setalg::ra {

// Eval is a thin wrapper over the engine's reference lowering — a 1:1
// logical→physical mapping with every planner rewrite disabled — run by
// the materializing reference executor. That reproduces the historical
// tree-walker exactly: same results, same per-node cardinalities
// (Definition 16), same join_rows_emitted. The pattern-aware planner lives
// behind engine::Engine with default options.
core::Relation Eval(const ExprPtr& expr, const core::Database& db, EvalStats* stats) {
  auto plan =
      engine::Planner(engine::EngineOptions::Reference()).Lower(expr, db.schema());
  SETALG_CHECK_STREAM(plan.ok()) << plan.error();
  engine::RunResult result = engine::RunMaterialized(*plan, db);
  if (stats != nullptr) *stats = engine::ToEvalStats(result.stats);
  return std::move(result.relation);
}

std::size_t MaxIntermediateSize(const ExprPtr& expr, const core::Database& db) {
  EvalStats stats;
  Eval(expr, db, &stats);
  return stats.max_intermediate;
}

}  // namespace setalg::ra
