#include "engine/cost.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "engine/calibration.h"
#include "util/check.h"

namespace setalg::engine {
namespace {

using ra::OpKind;

// Relative per-tuple weights of the kernels' inner loops (kTupleOp = 1 is
// one plain array/merge step). Hash probes cost a bit more than merge
// steps; the aggregate kernel touches a hash counter pair per tuple where
// hash-division does one slot lookup plus a bitset write.
constexpr double kTupleOp = 1.0;
constexpr double kHashProbe = 1.25;
constexpr double kHashCounter = 1.5;
constexpr double kSignatureTest = 0.15;  // One 64-bit word op per pair.

double NonZero(double x) { return std::max(1.0, x); }

// Coarse selectivity constants for propagated (non-scan) estimates.
double SelectionSelectivity(ra::Cmp op) {
  switch (op) {
    case ra::Cmp::kEq:
      return 0.1;
    case ra::Cmp::kNeq:
      return 0.9;
    case ra::Cmp::kLt:
    case ra::Cmp::kGt:
      return 0.45;
  }
  return 0.5;
}

// Distinct-count estimate for one 1-based column of a subexpression: the
// tracked key/element columns when they apply, sqrt(cardinality)
// otherwise (the classic fallback).
double ColumnDistinct(const ExprEstimate& e, std::size_t column, std::size_t arity) {
  if (column == 1) return NonZero(e.key_distinct);
  if (column == arity) return NonZero(e.elem_distinct);
  return NonZero(std::sqrt(NonZero(e.cardinality)));
}

// The calibration key of sigma[i op j] sites ("sel:select:=", ...).
std::string SelectKey(ra::Cmp op) {
  return std::string("sel:select:") + ra::CmpToString(op);
}

double ClampSelectivity(double s) { return std::clamp(s, 0.001, 1.0); }

// P(A = B) for independent draws from two histogrammed columns: the
// fraction of each side falling into the overlapping value range, divided
// by the larger distinct count within it (the classic 1/max(d_a, d_b),
// range-restricted).
double HistogramEqSelectivity(const stats::Histogram& a,
                              const stats::Histogram& b) {
  if (a.empty() || b.empty()) return 0.1;
  const core::Value lo = std::max(a.min_value, b.min_value);
  const core::Value hi = std::min(a.upper.back(), b.upper.back());
  if (lo > hi) return 0.001;  // Disjoint ranges: (almost) never equal.
  const double below_a = lo > a.min_value ? a.SelectivityLeq(lo - 1) : 0.0;
  const double below_b = lo > b.min_value ? b.SelectivityLeq(lo - 1) : 0.0;
  const double fa = std::max(0.0, a.SelectivityLeq(hi) - below_a);
  const double fb = std::max(0.0, b.SelectivityLeq(hi) - below_b);
  const double da = std::max(
      1.0, a.DistinctLeq(hi) - (lo > a.min_value ? a.DistinctLeq(lo - 1) : 0.0));
  const double db = std::max(
      1.0, b.DistinctLeq(hi) - (lo > b.min_value ? b.DistinctLeq(lo - 1) : 0.0));
  return ClampSelectivity(fa * fb / std::max(da, db));
}

// P(A < B) for independent draws: sum over B's buckets of the bucket mass
// times A's cumulative fraction strictly below the bucket midpoint.
double HistogramLtSelectivity(const stats::Histogram& a,
                              const stats::Histogram& b) {
  if (a.empty() || b.empty()) return 0.45;
  double p = 0.0;
  core::Value lower = b.min_value;
  for (std::size_t i = 0; i < b.buckets(); ++i) {
    // Midpoint via the unsigned range width: the signed difference
    // overflows for extreme bucket bounds.
    const core::Value mid =
        lower + static_cast<core::Value>(stats::RangeWidth(lower, b.upper[i]) / 2);
    const double mass =
        static_cast<double>(b.counts[i]) / static_cast<double>(b.total);
    p += mass * (mid > std::numeric_limits<core::Value>::min()
                     ? a.SelectivityLeq(mid - 1)
                     : 0.0);
    if (b.upper[i] == std::numeric_limits<core::Value>::max()) break;
    lower = b.upper[i] + 1;
  }
  return ClampSelectivity(p);
}

// P(|S_g| <= |R_g|) for independent group draws from the two group-size
// histograms. A containment pair is only feasible when the contained
// group is no larger, so the output estimate scales by this mass —
// under skewed group sizes most pairings are infeasible and the fixed
// 0.1·min(g_r, g_s) guess is a large overestimate.
double ContainmentFeasibility(const stats::Histogram& r_sizes,
                              const stats::Histogram& s_sizes) {
  if (r_sizes.empty() || s_sizes.empty()) return 1.0;
  double p = 0.0;
  core::Value lower = r_sizes.min_value;
  for (std::size_t i = 0; i < r_sizes.buckets(); ++i) {
    const core::Value mid =
        lower +
        static_cast<core::Value>(stats::RangeWidth(lower, r_sizes.upper[i]) / 2);
    const double mass = static_cast<double>(r_sizes.counts[i]) /
                        static_cast<double>(r_sizes.total);
    p += mass * s_sizes.SelectivityLeq(mid);
    if (r_sizes.upper[i] == std::numeric_limits<core::Value>::max()) break;
    lower = r_sizes.upper[i] + 1;
  }
  return std::clamp(p, 0.001, 1.0);
}

ExprEstimate Unknown() {
  ExprEstimate e;
  e.cardinality = 1000.0;
  e.key_distinct = 100.0;
  e.elem_distinct = 100.0;
  e.avg_group = 10.0;
  e.exact = false;
  return e;
}

ExprEstimate Derived(double cardinality, double key_distinct, double elem_distinct) {
  ExprEstimate e;
  e.cardinality = std::max(0.0, cardinality);
  e.key_distinct = std::min(NonZero(key_distinct), NonZero(e.cardinality));
  e.elem_distinct = std::min(NonZero(elem_distinct), NonZero(e.cardinality));
  e.avg_group = NonZero(e.cardinality) / e.key_distinct;
  e.exact = false;
  return e;
}

}  // namespace

ExprEstimate FromStats(const stats::RelationStats& stats) {
  ExprEstimate e;
  e.cardinality = static_cast<double>(stats.cardinality);
  e.key_distinct =
      stats.columns.empty() ? 1.0 : NonZero(static_cast<double>(stats.columns[0].distinct));
  e.elem_distinct = stats.columns.empty()
                        ? 1.0
                        : NonZero(static_cast<double>(stats.columns.back().distinct));
  e.avg_group = stats.arity == 2 && stats.groups.num_groups > 0
                    ? NonZero(stats.groups.avg_group_size)
                    : NonZero(e.cardinality) / e.key_distinct;
  e.exact = true;
  if (!stats.columns.empty()) {
    e.elem_expected_freq = stats.columns.back().histogram.ExpectedFrequency();
  }
  if (stats.arity == 2) e.group_sizes = stats.groups.size_histogram;
  return e;
}

ExprEstimate CostModel::Estimate(const ra::ExprPtr& expr) const {
  SETALG_CHECK(expr != nullptr);
  auto it = memo_.find(expr.get());
  if (it != memo_.end()) return it->second;
  ExprEstimate estimate = EstimateUncached(expr);
  memo_.emplace(expr.get(), estimate);
  return estimate;
}

ExprEstimate CostModel::EstimateUncached(const ra::ExprPtr& expr) const {
  switch (expr->kind()) {
    case OpKind::kRelation: {
      if (provider_ == nullptr) return Unknown();
      const stats::RelationStats* stats = provider_->Get(expr->relation_name());
      return stats == nullptr ? Unknown() : FromStats(*stats);
    }
    case OpKind::kUnion: {
      const ExprEstimate a = Estimate(expr->child(0));
      const ExprEstimate b = Estimate(expr->child(1));
      return Derived(a.cardinality + b.cardinality, a.key_distinct + b.key_distinct,
                     a.elem_distinct + b.elem_distinct);
    }
    case OpKind::kDifference: {
      // Upper bound: nothing needs to be removed.
      const ExprEstimate a = Estimate(expr->child(0));
      return Derived(a.cardinality, a.key_distinct, a.elem_distinct);
    }
    case OpKind::kProjection: {
      const ExprEstimate a = Estimate(expr->child(0));
      const auto& columns = expr->projection();
      const std::size_t child_arity = expr->child(0)->arity();
      double cardinality = a.cardinality;
      if (columns.size() == 1) {
        cardinality = ColumnDistinct(a, columns[0], child_arity);
      }
      const double key =
          columns.empty() ? 1.0 : ColumnDistinct(a, columns[0], child_arity);
      const double elem =
          columns.empty() ? 1.0 : ColumnDistinct(a, columns.back(), child_arity);
      return Derived(cardinality, key, elem);
    }
    case OpKind::kSelection: {
      const ExprEstimate a = Estimate(expr->child(0));
      double s = SelectionSelectivity(expr->selection_op());
      if (calibration_ != nullptr) {
        // Histograms (per-instance) beat the learned global selectivity
        // (per-comparator), which beats the fixed constant.
        const double hist = HistogramSelectionSelectivity(expr);
        s = hist >= 0.0
                ? hist
                : calibration_->Selectivity(SelectKey(expr->selection_op()), s);
      }
      return Derived(a.cardinality * s, a.key_distinct * s + 1, a.elem_distinct * s + 1);
    }
    case OpKind::kConstTag: {
      const ExprEstimate a = Estimate(expr->child(0));
      // The appended column is a single constant.
      return Derived(a.cardinality, a.key_distinct, 1.0);
    }
    case OpKind::kJoin: {
      const ExprEstimate a = Estimate(expr->child(0));
      const ExprEstimate b = Estimate(expr->child(1));
      const std::size_t left_arity = expr->child(0)->arity();
      const std::size_t right_arity = expr->child(1)->arity();
      double cardinality = a.cardinality * b.cardinality;
      for (const auto& atom : expr->atoms()) {
        if (atom.op == ra::Cmp::kEq) {
          cardinality /= std::max(ColumnDistinct(a, atom.left, left_arity),
                                  ColumnDistinct(b, atom.right, right_arity));
        } else {
          cardinality *= SelectionSelectivity(atom.op);
        }
      }
      if (calibration_ != nullptr) {
        cardinality *= calibration_->OutputFactor("out:join");
      }
      return Derived(cardinality, a.key_distinct,
                     right_arity > 0 ? b.elem_distinct : a.elem_distinct);
    }
    case OpKind::kSemiJoin: {
      const ExprEstimate a = Estimate(expr->child(0));
      double s = expr->atoms().empty() ? 1.0 : 0.5;
      if (calibration_ != nullptr && !expr->atoms().empty()) {
        s = calibration_->Selectivity("sel:semijoin", s);
      }
      return Derived(a.cardinality * s, a.key_distinct * s + 1, a.elem_distinct * s + 1);
    }
  }
  SETALG_CHECK_STREAM(false) << "unreachable";
  return Unknown();
}

double CostModel::HistogramSelectionSelectivity(const ra::ExprPtr& expr) const {
  const ra::ExprPtr& child = expr->child(0);
  if (provider_ == nullptr || child->kind() != OpKind::kRelation) return -1.0;
  const stats::RelationStats* stats = provider_->Get(child->relation_name());
  if (stats == nullptr) return -1.0;
  const std::size_t i = expr->selection_i();
  const std::size_t j = expr->selection_j();
  if (i < 1 || j < 1 || i > stats->columns.size() || j > stats->columns.size()) {
    return -1.0;
  }
  const stats::Histogram& a = stats->columns[i - 1].histogram;
  const stats::Histogram& b = stats->columns[j - 1].histogram;
  if (a.empty() || b.empty()) return -1.0;
  switch (expr->selection_op()) {
    case ra::Cmp::kEq:
      return HistogramEqSelectivity(a, b);
    case ra::Cmp::kNeq:
      return ClampSelectivity(1.0 - HistogramEqSelectivity(a, b));
    case ra::Cmp::kLt:
      return HistogramLtSelectivity(a, b);
    case ra::Cmp::kGt:
      return HistogramLtSelectivity(b, a);
  }
  return -1.0;
}

// ---------------------------------------------------------------------------
// Division. Shapes (setjoin/division.cc): n = |R|, g = distinct keys,
// k = n/g elements per group, m = |S|.
// ---------------------------------------------------------------------------

CostEstimate CostModel::EstimateDivision(setjoin::DivisionAlgorithm algorithm,
                                         const ExprEstimate& r, const ExprEstimate& s,
                                         bool equality) const {
  const double n = NonZero(r.cardinality);
  const double g = NonZero(r.key_distinct);
  const double m = NonZero(s.cardinality);
  CostEstimate est;
  // All algorithms emit the same result: a coarse fraction of the groups
  // (equality is stricter). The choice only hinges on cost.
  est.output_size = g * (equality ? 0.1 : 0.25);
  if (calibration_ != nullptr) {
    // The operator label distinguishes the flavors ("division=[...]" for
    // equality division), so each learns its own correction.
    est.output_size *=
        calibration_->OutputFactor(equality ? "out:division=" : "out:division");
    est.output_size = std::min(est.output_size, g);
  }
  switch (algorithm) {
    case setjoin::DivisionAlgorithm::kNestedLoop:
      // Grouping pass + (A,B) hash index build + g·m membership probes.
      est.cost = 2 * kTupleOp * n + kHashProbe * (n + g * m);
      est.max_intermediate = n;
      break;
    case setjoin::DivisionAlgorithm::kSortMerge:
      // Streams the normalized storage to find the groups, then merges
      // each group its size does not rule out against the divisor, up to
      // m steps per group.
      est.cost = kTupleOp * (n + 0.5 * g * m);
      est.max_intermediate = est.output_size;
      break;
    case setjoin::DivisionAlgorithm::kHashDivision:
      // Divisor table build, one slot lookup + bitset write per tuple,
      // then a bitmap scan (m/64 words) per candidate.
      est.cost = kHashProbe * m + kHashProbe * n + kTupleOp * g * (1 + m / 64.0);
      est.max_intermediate = g;
      break;
    case setjoin::DivisionAlgorithm::kAggregate:
      // Divisor set build, hash-counter update per tuple, candidate scan.
      est.cost = kHashProbe * m + kHashCounter * n + kTupleOp * g;
      est.max_intermediate = g;
      break;
    case setjoin::DivisionAlgorithm::kClassicRa:
      // The textbook plan materializes the g·m product and two differences
      // over it (Proposition 26's Ω(n²) intermediate).
      est.cost = kTupleOp * (n + 3 * g * m);
      est.max_intermediate = g * m;
      break;
  }
  return est;
}

CostModel::DivisionChoice CostModel::ChooseDivision(const ExprEstimate& r,
                                                    const ExprEstimate& s,
                                                    bool equality) const {
  // kHashDivision first: it wins ties (Graefe's all-round strongest).
  static constexpr setjoin::DivisionAlgorithm kCandidates[] = {
      setjoin::DivisionAlgorithm::kHashDivision,
      setjoin::DivisionAlgorithm::kAggregate,
      setjoin::DivisionAlgorithm::kSortMerge,
      setjoin::DivisionAlgorithm::kNestedLoop,
  };
  DivisionChoice best{kCandidates[0], EstimateDivision(kCandidates[0], r, s, equality)};
  for (std::size_t i = 1; i < std::size(kCandidates); ++i) {
    const CostEstimate est = EstimateDivision(kCandidates[i], r, s, equality);
    if (est.cost < best.estimate.cost) best = {kCandidates[i], est};
  }
  return best;
}

// ---------------------------------------------------------------------------
// Set-containment join. Shapes (setjoin/setjoin.cc): G_r/G_s groups with
// k_r/k_s elements each, D distinct elements on the containing side.
// ---------------------------------------------------------------------------

CostEstimate CostModel::EstimateContainment(setjoin::ContainmentAlgorithm algorithm,
                                            const ExprEstimate& r,
                                            const ExprEstimate& s) const {
  const double nr = NonZero(r.cardinality);
  const double ns = NonZero(s.cardinality);
  const double gr = NonZero(r.key_distinct);
  const double gs = NonZero(s.key_distinct);
  const double kr = NonZero(r.avg_group);
  const double ks = NonZero(s.avg_group);
  const double domain = NonZero(r.elem_distinct);
  // Expected posting length of one element probe into the containing
  // side. nr/domain assumes a uniform element distribution; under skew
  // the histogram's value-weighted expectation (heavy elements are both
  // long postings *and* likely probes) is far larger — the error that
  // made the inverted index look cheap on skewed inputs.
  double expected_posting = nr / domain;
  if (calibration_ != nullptr && r.elem_expected_freq > 0.0) {
    expected_posting = r.elem_expected_freq;
  }
  CostEstimate est;
  est.output_size = 0.1 * std::min(gr, gs) + 0.001 * gr * gs;
  if (calibration_ != nullptr) {
    if (!r.group_sizes.empty() && !s.group_sizes.empty()) {
      est.output_size *= ContainmentFeasibility(r.group_sizes, s.group_sizes);
    }
    est.output_size *= calibration_->OutputFactor("out:set-containment-join");
    est.output_size = std::min(est.output_size, gr * gs);
  }
  const double pair_test = 0.5 * (kr + ks);  // Sorted-subset merge.
  switch (algorithm) {
    case setjoin::ContainmentAlgorithm::kNestedLoop:
      est.cost = gr * gs * pair_test;
      est.max_intermediate = nr + ns;
      break;
    case setjoin::ContainmentAlgorithm::kSignatureNestedLoop: {
      // One word op per pair; survivors (true matches + Bloom false
      // positives) pay the exact test.
      const double survivors = 2 * est.output_size + 0.01 * gr * gs;
      est.cost = kSignatureTest * gr * gs + survivors * pair_test;
      est.max_intermediate = nr + ns;
      break;
    }
    case setjoin::ContainmentAlgorithm::kPartitioned: {
      // Candidate groups are replicated to the partition of each of their
      // elements; each divisor group meets the ~n_r/D candidates stored in
      // its designated partition.
      const double per_partition_pairs = gs * expected_posting;
      est.cost = kTupleOp * (nr + ns) + per_partition_pairs * pair_test;
      est.max_intermediate = 2 * nr + ns;
      break;
    }
    case setjoin::ContainmentAlgorithm::kInvertedIndex:
      // Postings build + one counting probe per (s element, posting hit).
      est.cost = kHashProbe * nr + kHashProbe * ns * expected_posting +
                 kTupleOp * est.output_size;
      est.max_intermediate = nr + ns;
      break;
  }
  return est;
}

CostModel::ContainmentChoice CostModel::ChooseContainment(const ExprEstimate& r,
                                                          const ExprEstimate& s) const {
  static constexpr setjoin::ContainmentAlgorithm kCandidates[] = {
      setjoin::ContainmentAlgorithm::kInvertedIndex,
      setjoin::ContainmentAlgorithm::kSignatureNestedLoop,
      setjoin::ContainmentAlgorithm::kPartitioned,
      setjoin::ContainmentAlgorithm::kNestedLoop,
  };
  ContainmentChoice best{kCandidates[0], EstimateContainment(kCandidates[0], r, s)};
  for (std::size_t i = 1; i < std::size(kCandidates); ++i) {
    const CostEstimate est = EstimateContainment(kCandidates[i], r, s);
    if (est.cost < best.estimate.cost) best = {kCandidates[i], est};
  }
  return best;
}

// ---------------------------------------------------------------------------
// Set-equality join.
// ---------------------------------------------------------------------------

CostEstimate CostModel::EstimateSetEquality(setjoin::EqualityJoinAlgorithm algorithm,
                                            const ExprEstimate& r,
                                            const ExprEstimate& s) const {
  const double nr = NonZero(r.cardinality);
  const double ns = NonZero(s.cardinality);
  const double gr = NonZero(r.key_distinct);
  const double gs = NonZero(s.key_distinct);
  const double kr = NonZero(r.avg_group);
  const double ks = NonZero(s.avg_group);
  CostEstimate est;
  est.output_size = 0.1 * std::min(gr, gs) + 0.001 * gr * gs;
  if (calibration_ != nullptr) {
    est.output_size *= calibration_->OutputFactor("out:set-equality-join");
    est.output_size = std::min(est.output_size, gr * gs);
  }
  switch (algorithm) {
    case setjoin::EqualityJoinAlgorithm::kNestedLoop:
      est.cost = gr * gs * 0.5 * std::min(kr, ks);
      est.max_intermediate = nr + ns;
      break;
    case setjoin::EqualityJoinAlgorithm::kCanonicalHash:
      // One set-hash pass per side plus in-bucket verification of matches
      // (the paper's footnote-1 O(n log n + output) strategy).
      est.cost = kHashProbe * (nr + ns) + (kr + ks) * est.output_size;
      est.max_intermediate = nr + ns;
      break;
  }
  return est;
}

CostModel::EqualityChoice CostModel::ChooseSetEquality(const ExprEstimate& r,
                                                       const ExprEstimate& s) const {
  const CostEstimate hash = EstimateSetEquality(
      setjoin::EqualityJoinAlgorithm::kCanonicalHash, r, s);
  const CostEstimate nested =
      EstimateSetEquality(setjoin::EqualityJoinAlgorithm::kNestedLoop, r, s);
  if (nested.cost < hash.cost) {
    return {setjoin::EqualityJoinAlgorithm::kNestedLoop, nested};
  }
  return {setjoin::EqualityJoinAlgorithm::kCanonicalHash, hash};
}

// ---------------------------------------------------------------------------
// Semijoin kernel choice.
// ---------------------------------------------------------------------------

SemijoinStrategy CostModel::ChooseSemijoin(const ExprEstimate& left,
                                           const ExprEstimate& right,
                                           const std::vector<ra::JoinAtom>& atoms) const {
  // With an empty condition the generic path returns `left` outright; on
  // tiny inputs the fast kernels' index setup dominates their win.
  if (atoms.empty()) return SemijoinStrategy::kGeneric;
  if (left.cardinality + right.cardinality < 64.0) return SemijoinStrategy::kGeneric;
  return SemijoinStrategy::kFastKernel;
}

// ---------------------------------------------------------------------------
// AGM output bounds and the multiway (worst-case-optimal) join.
// ---------------------------------------------------------------------------

namespace {

// Solves the square system `a`·w = `rhs` in place by Gaussian elimination
// with partial pivoting. Returns false on a (numerically) singular basis.
bool SolveSquare(std::vector<double>& a, std::vector<double>& rhs, std::size_t k) {
  constexpr double kPivotEps = 1e-9;
  for (std::size_t col = 0; col < k; ++col) {
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < k; ++row) {
      if (std::fabs(a[row * k + col]) > std::fabs(a[pivot * k + col])) pivot = row;
    }
    if (std::fabs(a[pivot * k + col]) < kPivotEps) return false;
    if (pivot != col) {
      for (std::size_t j = 0; j < k; ++j) std::swap(a[col * k + j], a[pivot * k + j]);
      std::swap(rhs[col], rhs[pivot]);
    }
    for (std::size_t row = 0; row < k; ++row) {
      if (row == col) continue;
      const double f = a[row * k + col] / a[col * k + col];
      if (f == 0.0) continue;
      for (std::size_t j = col; j < k; ++j) a[row * k + j] -= f * a[col * k + j];
      rhs[row] -= f * rhs[col];
    }
  }
  for (std::size_t i = 0; i < k; ++i) rhs[i] /= a[i * k + i];
  return true;
}

}  // namespace

FractionalEdgeCover SolveFractionalEdgeCover(const JoinHypergraph& graph) {
  FractionalEdgeCover result;
  const std::size_t k = graph.edges.size();
  const std::size_t m = graph.num_vars;
  if (k == 0 || k > kMaxHypergraphEdges || m == 0 || m > kMaxHypergraphVars) {
    result.bound = std::numeric_limits<double>::infinity();
    return result;
  }
  // Coverage matrix: cover[v][e] = 1 iff edge e contains variable v.
  std::vector<double> cover(m * k, 0.0);
  for (std::size_t e = 0; e < k; ++e) {
    for (std::size_t v : graph.edges[e].vars) {
      SETALG_CHECK(v < m);
      cover[v * k + e] = 1.0;
    }
  }
  for (std::size_t v = 0; v < m; ++v) {
    bool covered = false;
    for (std::size_t e = 0; e < k; ++e) covered |= cover[v * k + e] != 0.0;
    if (!covered) {  // Infeasible: a variable no relation can bind.
      result.bound = std::numeric_limits<double>::infinity();
      return result;
    }
  }
  // Objective coefficients: ln of the (clamped) cardinalities. An
  // identically-zero edge empties the join regardless of the cover.
  bool empty_edge = false;
  std::vector<double> obj(k);
  for (std::size_t e = 0; e < k; ++e) {
    empty_edge |= graph.edges[e].cardinality <= 0.0;
    obj[e] = std::log(NonZero(graph.edges[e].cardinality));
  }
  // Enumerate basic points: every size-k subset of the m coverage rows
  // plus k nonnegativity rows, solved tight. The feasible region
  // {A·w >= 1, w >= 0} is pointed and the objective is bounded below by
  // 0, so a vertex attains the minimum.
  constexpr double kFeasEps = 1e-7;
  const std::size_t rows = m + k;
  std::vector<std::size_t> pick(k);
  std::vector<double> best_w;
  double best_obj = std::numeric_limits<double>::infinity();
  std::vector<double> a(k * k);
  std::vector<double> w(k);
  // Iterative combination enumeration over `rows` choose `k`.
  for (std::size_t i = 0; i < k; ++i) pick[i] = i;
  while (true) {
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t r = pick[i];
      if (r < m) {
        for (std::size_t e = 0; e < k; ++e) a[i * k + e] = cover[r * k + e];
        w[i] = 1.0;
      } else {  // Nonnegativity row: w[r - m] = 0.
        for (std::size_t e = 0; e < k; ++e) a[i * k + e] = 0.0;
        a[i * k + (r - m)] = 1.0;
        w[i] = 0.0;
      }
    }
    if (SolveSquare(a, w, k)) {
      bool feasible = true;
      for (std::size_t e = 0; e < k && feasible; ++e) feasible = w[e] >= -kFeasEps;
      for (std::size_t v = 0; v < m && feasible; ++v) {
        double lhs = 0.0;
        for (std::size_t e = 0; e < k; ++e) lhs += cover[v * k + e] * w[e];
        feasible = lhs >= 1.0 - kFeasEps;
      }
      if (feasible) {
        double value = 0.0;
        for (std::size_t e = 0; e < k; ++e) value += std::max(0.0, w[e]) * obj[e];
        if (value < best_obj) {
          best_obj = value;
          best_w = w;
        }
      }
    }
    // Advance the combination (lexicographic); stop when exhausted.
    bool advanced = false;
    for (std::size_t i = k; i-- > 0;) {
      if (pick[i] != i + rows - k) {
        ++pick[i];
        for (std::size_t j = i + 1; j < k; ++j) pick[j] = pick[j - 1] + 1;
        advanced = true;
        break;
      }
    }
    if (!advanced) break;
  }
  if (!std::isfinite(best_obj)) {  // Should not happen for covered graphs.
    result.bound = std::numeric_limits<double>::infinity();
    return result;
  }
  result.feasible = true;
  result.weights.resize(k);
  double bound = 1.0;
  for (std::size_t e = 0; e < k; ++e) {
    result.weights[e] = std::max(0.0, best_w[e]);
    bound *= std::pow(NonZero(graph.edges[e].cardinality), result.weights[e]);
  }
  result.bound = empty_edge ? 0.0 : bound;
  return result;
}

double AgmBound(const JoinHypergraph& graph) {
  return SolveFractionalEdgeCover(graph).bound;
}

CostEstimate CostModel::EstimateMultiwayJoin(const JoinHypergraph& graph,
                                             double output_guess) const {
  const double agm = AgmBound(graph);
  double sum_inputs = 0.0;
  for (const auto& edge : graph.edges) sum_inputs += NonZero(edge.cardinality);
  CostEstimate est;
  est.output_size = std::isfinite(agm) ? std::min(std::max(0.0, output_guess), agm)
                                       : std::max(0.0, output_guess);
  // The generic-join kernel materializes only its inputs and output; the
  // enumeration visits at most AGM-many bindings per variable level.
  est.max_intermediate = est.output_size;
  const double enumeration =
      std::isfinite(agm) ? agm : std::max(0.0, output_guess);
  est.cost = kHashProbe * sum_inputs  // Sort/permute every input once.
             + kTupleOp * NonZero(static_cast<double>(graph.num_vars)) *
                   NonZero(enumeration);
  return est;
}

CostEstimate CostModel::EstimateBinaryJoinChain(const JoinHypergraph& graph,
                                                const std::vector<double>& interior_cards) const {
  double sum_inputs = 0.0;
  for (const auto& edge : graph.edges) sum_inputs += NonZero(edge.cardinality);
  CostEstimate est;
  est.output_size = interior_cards.empty() ? 0.0 : std::max(0.0, interior_cards.back());
  double max_interior = 0.0;
  double sum_interior = 0.0;
  for (double c : interior_cards) {
    max_interior = std::max(max_interior, c);
    sum_interior += std::max(0.0, c);
  }
  est.max_intermediate = max_interior;
  // Each interior node materializes its output once and probes it once
  // downstream; the leaves are hashed/scanned once each.
  est.cost = kHashProbe * sum_inputs + 2 * kTupleOp * sum_interior;
  return est;
}

CostModel::MultiwayChoice CostModel::ChooseMultiwayJoin(
    const JoinHypergraph& graph, const std::vector<double>& interior_cards,
    bool cost_based) const {
  MultiwayChoice choice;
  choice.agm_bound = AgmBound(graph);
  const double output_guess =
      interior_cards.empty() ? 0.0 : interior_cards.back();
  choice.multiway = EstimateMultiwayJoin(graph, output_guess);
  choice.binary = EstimateBinaryJoinChain(graph, interior_cards);
  if (!std::isfinite(choice.agm_bound)) {
    choice.use_multiway = false;  // Infeasible or over the arity caps.
    return choice;
  }
  choice.use_multiway = cost_based
                            ? choice.multiway.cost < choice.binary.cost
                            : choice.binary.max_intermediate > choice.agm_bound;
  return choice;
}

CostEstimate CostModel::EstimateSemijoin(const ExprEstimate& left,
                                         const ExprEstimate& right,
                                         const std::vector<ra::JoinAtom>& atoms,
                                         SemijoinStrategy strategy) const {
  const double nl = NonZero(left.cardinality);
  const double nr = NonZero(right.cardinality);
  double selectivity = 0.5;
  if (calibration_ != nullptr && !atoms.empty()) {
    selectivity = calibration_->Selectivity("sel:semijoin", selectivity);
  }
  CostEstimate est;
  est.output_size =
      atoms.empty() ? left.cardinality : selectivity * left.cardinality;
  est.max_intermediate = est.output_size;
  if (atoms.empty()) {
    est.cost = kTupleOp * nl;  // Both paths copy the surviving side.
    return est;
  }
  bool has_equality = false;
  for (const auto& atom : atoms) has_equality |= atom.op == ra::Cmp::kEq;
  if (strategy == SemijoinStrategy::kFastKernel || has_equality) {
    // Index build on one side, one probe per tuple of the other (the
    // order-conjunct kernels are min/max aggregations of the same shape).
    est.cost = kHashProbe * (nl + nr);
  } else {
    est.cost = 0.5 * nl * nr;  // Generic pure-inequality nested loop.
  }
  return est;
}

}  // namespace setalg::engine
