// Evaluation of algebra expressions over a database, with optional
// instrumentation of intermediate-result sizes.
//
// Definition 16 classifies an expression by the cardinalities of ALL its
// subexpressions' outputs; EvalStats records exactly those cardinalities
// (each distinct subexpression once), which is what the dichotomy
// experiments measure.
//
// Eval is the semantic REFERENCE: it lowers under
// EngineOptions::Reference(), a 1:1 lowering with every planner rewrite
// disabled, and runs the plan through engine::RunMaterialized, so each
// logical node is materialized as written. Use engine::Engine
// (engine/engine.h) for the pattern-aware planner that routes e.g. the
// classic division expression to a sub-quadratic physical operator, and
// for pipelined execution.
#ifndef SETALG_RA_EVAL_H_
#define SETALG_RA_EVAL_H_

#include <cstdint>
#include <vector>

#include "core/database.h"
#include "core/relation.h"
#include "ra/expr.h"

namespace setalg::ra {

/// Per-subexpression output cardinality.
struct NodeStats {
  const Expr* node = nullptr;
  std::size_t output_size = 0;
};

/// Instrumentation collected during one evaluation.
struct EvalStats {
  /// One entry per distinct subexpression (post-order).
  std::vector<NodeStats> nodes;
  /// max over subexpressions of |E'(D)| — the quantity c(E') of Def. 16.
  std::size_t max_intermediate = 0;
  /// Sum of all subexpression output cardinalities.
  std::size_t total_intermediate = 0;
  /// Rows materialized by join/semijoin nodes before deduplication —
  /// a proxy for work done.
  std::uint64_t join_rows_emitted = 0;
};

/// Evaluates `expr` on `db`. Relation references are resolved against the
/// database (names and arities must match; checked). Shared subtrees are
/// evaluated once. If `stats` is non-null it is filled with per-node
/// cardinalities.
core::Relation Eval(const ExprPtr& expr, const core::Database& db,
                    EvalStats* stats = nullptr);

/// Evaluates and returns only the maximum intermediate-result size.
std::size_t MaxIntermediateSize(const ExprPtr& expr, const core::Database& db);

}  // namespace setalg::ra

#endif  // SETALG_RA_EVAL_H_
