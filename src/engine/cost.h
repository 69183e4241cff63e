// The engine's cost model: per-alternative cost and max-intermediate
// estimates for the division / set-join / semijoin operators, driven by
// the one-pass relation statistics of stats::.
//
// The formulas count abstract tuple operations (hash probes, merge steps,
// bitmap updates) with small constant weights taken from the shape of
// each kernel in setjoin/ and sa/. They are deliberately coarse: their
// job is to separate the asymptotic regimes the paper identifies (e.g.
// nested-loop division's g·m probes vs hash-division's single pass), not
// to predict milliseconds. Every Engine run records estimated-vs-actual
// output sizes in PlanStats; with a CalibrationStore attached
// (EngineOptions::WithCalibration) those pairs feed back as
// per-operator-kind correction factors and learned selectivities, and
// the formulas additionally consult the equi-depth histograms in stats::
// (expected posting lengths under skew, group-size distributions,
// column-vs-column selection selectivity). Without a store the fixed
// constants below apply unchanged, bit-identical to the uncalibrated
// model.
//
// The model picks algorithms, never fan-out widths: how many partitions an
// operator cuts is decided at run time by engine::PartitionCount
// (engine/parallel.h) from the rows the operator holds, so a plan runs
// the same at every thread count and a cached plan has no width to
// re-price.
//
// To add a formula for a new operator: write an Estimate<Op> function
// from ExprEstimate inputs to a CostEstimate, add a Choose<Op> that
// minimizes over the alternatives, and consult it from the planner's
// lowering (see Planner's cost_based paths). Keep the weights relative
// to kTupleOp = 1.
#ifndef SETALG_ENGINE_COST_H_
#define SETALG_ENGINE_COST_H_

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "engine/physical.h"
#include "ra/expr.h"
#include "setjoin/division.h"
#include "setjoin/setjoin.h"
#include "stats/stats.h"

namespace setalg::engine {

/// Estimated shape of an arbitrary subexpression — the projection of
/// RelationStats that the cost formulas consume. Exact for stored
/// relations; propagated with coarse selectivities elsewhere.
struct ExprEstimate {
  double cardinality = 0.0;
  /// Distinct values in column 1 (the group key of grouped inputs).
  double key_distinct = 0.0;
  /// Distinct values in the last column (the element column of grouped
  /// inputs — the divisor-domain width of a dividend).
  double elem_distinct = 0.0;
  /// cardinality / key_distinct (elements per group), >= 1.
  double avg_group = 1.0;
  /// True when the estimate is backed by actual stored-relation stats
  /// (a scan), not propagated guesses.
  bool exact = false;
  /// Expected rows sharing a random row's last-column value (the
  /// element-column histogram's ExpectedFrequency — the skew-aware
  /// replacement for cardinality/elem_distinct). 0 when no histogram
  /// backed the estimate. Only consulted by a calibrated model.
  double elem_expected_freq = 0.0;
  /// Group-size distribution of a grouped binary input; empty when
  /// unavailable. Stored by value so estimates outlive the RelationStats
  /// they came from (FromStats is often called on temporaries).
  stats::Histogram group_sizes;
};

/// Converts one-pass relation statistics into the cost-formula view.
ExprEstimate FromStats(const stats::RelationStats& stats);

// -- AGM output bounds (Atserias–Grohe–Marx) ---------------------------------

/// A join hypergraph: one vertex per join variable, one edge per input
/// relation listing the (deduplicated, 0-based) variables it covers, with
/// the relation's estimated cardinality. Built by the planner when it
/// collects a maximal binary-join chain.
struct JoinHypergraph {
  struct Edge {
    std::vector<std::size_t> vars;
    double cardinality = 0.0;
  };
  std::size_t num_vars = 0;
  std::vector<Edge> edges;
};

/// Arity caps under which the exact vertex-enumeration LP solve below is
/// cheap (C(num_vars + edges, edges) small systems). The planner refuses
/// to route larger chains to the multiway operator.
inline constexpr std::size_t kMaxHypergraphEdges = 6;
inline constexpr std::size_t kMaxHypergraphVars = 10;

struct FractionalEdgeCover {
  /// False when some variable is covered by no edge (the LP is infeasible;
  /// `bound` is +infinity) or the hypergraph exceeds the arity caps.
  bool feasible = false;
  /// The AGM bound: prod_e cardinality_e ^ weight_e at the optimal cover.
  /// Zero when any edge has cardinality 0 (the join output is empty).
  double bound = 0.0;
  /// Optimal per-edge weights (empty when infeasible).
  std::vector<double> weights;
};

/// Exact minimum-weight fractional edge cover, minimizing
/// sum_e w_e * ln(cardinality_e) subject to (per variable) sum_{e ∋ v} w_e
/// >= 1 and w >= 0. Solved by enumerating basic feasible points (the
/// polyhedron is pointed, so a vertex attains the optimum) — LP-free and
/// exact at the arities the planner sees.
FractionalEdgeCover SolveFractionalEdgeCover(const JoinHypergraph& graph);

/// Convenience: the bound alone. +infinity when infeasible or over caps.
double AgmBound(const JoinHypergraph& graph);

class CalibrationStore;  // engine/calibration.h

class CostModel {
 public:
  /// `provider` may be nullptr: estimates then fall back to coarse
  /// defaults and `exact` is never set. `calibration` may be nullptr (the
  /// default): the model then prices with its fixed constants only —
  /// bit-identical to the pre-calibration model. With a store attached,
  /// warm correction factors, learned selectivities and histogram-derived
  /// distributions refine the same formulas.
  explicit CostModel(const stats::StatsProvider* provider,
                     const CalibrationStore* calibration = nullptr)
      : provider_(provider), calibration_(calibration) {}

  /// Bottom-up cardinality/shape estimation for a logical subexpression.
  /// Memoized per node, so shared-subexpression DAGs (which the executor
  /// evaluates once per node) also estimate once per node.
  ExprEstimate Estimate(const ra::ExprPtr& expr) const;

  // -- Division ------------------------------------------------------------

  /// Cost of one division algorithm on dividend `r` (binary) and divisor
  /// `s` (unary). kClassicRa is estimated too (it is never chosen, but its
  /// Ω(g·m) intermediate makes the baseline visible in explains).
  CostEstimate EstimateDivision(setjoin::DivisionAlgorithm algorithm,
                                const ExprEstimate& r, const ExprEstimate& s,
                                bool equality) const;

  struct DivisionChoice {
    setjoin::DivisionAlgorithm algorithm;
    CostEstimate estimate;
  };
  /// The cheapest direct algorithm (never kClassicRa; ties break toward
  /// hash-division, the strongest all-round kernel in Graefe's study).
  DivisionChoice ChooseDivision(const ExprEstimate& r, const ExprEstimate& s,
                                bool equality) const;

  // -- Set-containment join ------------------------------------------------

  CostEstimate EstimateContainment(setjoin::ContainmentAlgorithm algorithm,
                                   const ExprEstimate& r,
                                   const ExprEstimate& s) const;

  struct ContainmentChoice {
    setjoin::ContainmentAlgorithm algorithm;
    CostEstimate estimate;
  };
  ContainmentChoice ChooseContainment(const ExprEstimate& r,
                                      const ExprEstimate& s) const;

  // -- Set-equality join ---------------------------------------------------

  CostEstimate EstimateSetEquality(setjoin::EqualityJoinAlgorithm algorithm,
                                   const ExprEstimate& r,
                                   const ExprEstimate& s) const;

  struct EqualityChoice {
    setjoin::EqualityJoinAlgorithm algorithm;
    CostEstimate estimate;
  };
  EqualityChoice ChooseSetEquality(const ExprEstimate& r,
                                   const ExprEstimate& s) const;

  // -- Semijoin ------------------------------------------------------------

  /// Kernel choice for left ⋉_θ right: the sa:: fast kernels win except on
  /// inputs so small that their setup work dominates.
  SemijoinStrategy ChooseSemijoin(const ExprEstimate& left,
                                  const ExprEstimate& right,
                                  const std::vector<ra::JoinAtom>& atoms) const;

  CostEstimate EstimateSemijoin(const ExprEstimate& left,
                                const ExprEstimate& right,
                                const std::vector<ra::JoinAtom>& atoms,
                                SemijoinStrategy strategy) const;

  // -- Multiway (worst-case-optimal) join ------------------------------------

  /// Prices the generic-join kernel on `graph`: sorting/materializing every
  /// input plus the AGM-bounded enumeration work. `output_guess` is the
  /// chain root's propagated cardinality estimate; the reported output and
  /// max intermediate are its minimum with the AGM bound (the kernel never
  /// materializes more than the output).
  CostEstimate EstimateMultiwayJoin(const JoinHypergraph& graph,
                                    double output_guess) const;

  /// Prices the written binary-join chain over the same inputs:
  /// `interior_cards` are the cardinality estimates of every interior
  /// (join/selection/projection) node, root last. Max intermediate is the
  /// largest interior estimate — the quantity the AGM bound budgets.
  CostEstimate EstimateBinaryJoinChain(const JoinHypergraph& graph,
                                       const std::vector<double>& interior_cards) const;

  struct MultiwayChoice {
    bool use_multiway = false;
    CostEstimate multiway;
    CostEstimate binary;
    double agm_bound = 0.0;
  };
  /// Multiway vs the written binary chain for one collected join
  /// hypergraph. Cost-based mode prices both kernels and takes the
  /// cheaper; planned (rule-based) mode routes exactly when the binary
  /// plan's estimated max intermediate exceeds the AGM bound — the
  /// paper's division dichotomy generalized. Never routes when the LP is
  /// infeasible or the hypergraph exceeds the arity caps.
  MultiwayChoice ChooseMultiwayJoin(const JoinHypergraph& graph,
                                    const std::vector<double>& interior_cards,
                                    bool cost_based) const;

 private:
  ExprEstimate EstimateUncached(const ra::ExprPtr& expr) const;

  /// Selectivity of sigma[i op j] from the two columns' histograms when
  /// the selection sits directly on a stored scan; negative when the
  /// histograms (or the provider) are unavailable.
  double HistogramSelectionSelectivity(const ra::ExprPtr& expr) const;

  const stats::StatsProvider* provider_;
  const CalibrationStore* calibration_;
  mutable std::unordered_map<const ra::Expr*, ExprEstimate> memo_;
};

}  // namespace setalg::engine

#endif  // SETALG_ENGINE_COST_H_
