// The worst-case-optimal multiway join operator (Ngo–Porat–Ré–Rudra's
// generic join, leapfrog-style): joins k relations at once by binding the
// join variables one at a time, intersecting every relation that
// contains the current variable. Each relation's cursor seeks by
// galloping from where it stands (probe pos, pos+1, pos+3, ..., then
// binary-search the last bracket), so an intersection costs time in its
// smaller side, as Ngo et al.'s analysis charges it. Its intermediate
// state is only the sorted inputs and the output itself, so the
// materialized footprint is bounded by the AGM fractional-edge-cover
// bound (engine/cost.h) instead of the written binary plan's
// possibly-quadratic intermediates — the paper's division dichotomy
// (Ω(n²) classic plan vs O(n) direct operator) generalized to arbitrary
// join chains.
//
// The operator is implemented once against the engine/batch.h
// Open/NextBatch/Close contract (a blocking operator, like the division
// and set-join kernels), so the pipelined executor, its parallel runs and
// the materializing reference all run it unchanged. Parallel runs
// hash-partition every input containing join variable 0 by that
// variable's column (engine::PartitionByColumn, so every input routes a
// value alike), PartitionCount(rows of those inputs) ways
// (engine/parallel.h), share the rest read-only, and merge the
// per-partition outputs in partition-index order — results and PlanStats
// row counts are bit-identical to the serial kernel.
#ifndef SETALG_ENGINE_MULTIWAY_H_
#define SETALG_ENGINE_MULTIWAY_H_

#include <cstddef>
#include <vector>

#include "engine/physical.h"
#include "ra/expr.h"

namespace setalg::engine {

/// Builds the multiway generic-join operator over `children`.
///
/// `column_vars[i][c]` names the (0-based) join variable bound by column
/// c+1 of child i; `num_vars` is the total variable count. Every variable
/// must be bound by at least one child column. The output has arity
/// `num_vars`, one column per variable in variable order, and contains
/// exactly the variable bindings consistent with every input (a child
/// binding the same variable with two columns contributes only its rows
/// where those columns agree).
PhysicalOpPtr MakeMultiwayJoin(std::vector<PhysicalOpPtr> children,
                               std::vector<std::vector<std::size_t>> column_vars,
                               std::size_t num_vars,
                               const ra::Expr* source = nullptr);

}  // namespace setalg::engine

#endif  // SETALG_ENGINE_MULTIWAY_H_
