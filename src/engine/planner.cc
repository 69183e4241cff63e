#include "engine/planner.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>
#include <utility>

#include "engine/calibration.h"
#include "engine/cost.h"
#include "engine/multiway.h"
#include "util/check.h"
#include "util/hash.h"
#include "util/str.h"

namespace setalg::engine {
namespace {

using ra::ExprPtr;
using ra::OpKind;

// Structural equality (pointer short-circuit inside) — the same predicate
// the engine's plan cache keys on.
bool SameExpr(const ExprPtr& a, const ExprPtr& b) {
  return ra::StructuralEqual(*a, *b);
}

bool IsProjectionOf(const ExprPtr& e, const std::vector<std::size_t>& columns) {
  return e->kind() == OpKind::kProjection && e->projection() == columns;
}

struct DivisionMatch {
  ExprPtr r;  // Binary dividend subexpression.
  ExprPtr s;  // Unary divisor subexpression.
};

// Matches the textbook containment division π₁(R) − π₁((π₁(R) × S) − R)
// where R is any binary and S any unary subexpression.
std::optional<DivisionMatch> MatchContainmentDivision(const ExprPtr& e) {
  if (e->kind() != OpKind::kDifference) return std::nullopt;
  const ExprPtr& cand = e->child(0);  // π₁(R)
  if (!IsProjectionOf(cand, {1})) return std::nullopt;
  const ExprPtr& r = cand->child(0);
  if (r->arity() != 2) return std::nullopt;

  const ExprPtr& missing_proj = e->child(1);  // π₁((π₁(R) × S) − R)
  if (!IsProjectionOf(missing_proj, {1})) return std::nullopt;
  const ExprPtr& missing = missing_proj->child(0);
  if (missing->kind() != OpKind::kDifference) return std::nullopt;
  if (!SameExpr(missing->child(1), r)) return std::nullopt;

  const ExprPtr& required = missing->child(0);  // π₁(R) × S
  if (required->kind() != OpKind::kJoin || !required->atoms().empty()) {
    return std::nullopt;
  }
  if (!SameExpr(required->child(0), cand)) return std::nullopt;
  const ExprPtr& s = required->child(1);
  if (s->arity() != 1) return std::nullopt;
  return DivisionMatch{r, s};
}

// Matches the equality-division extension: containment division minus the
// keys related to some element outside S (ClassicEqualityDivisionExpr).
std::optional<DivisionMatch> MatchEqualityDivision(const ExprPtr& e) {
  if (e->kind() != OpKind::kDifference) return std::nullopt;
  auto contained = MatchContainmentDivision(e->child(0));
  if (!contained) return std::nullopt;

  const ExprPtr& outside = e->child(1);  // π₁(R − π₁,₂(R ⋈₂₌₁ S))
  if (!IsProjectionOf(outside, {1})) return std::nullopt;
  const ExprPtr& diff = outside->child(0);
  if (diff->kind() != OpKind::kDifference) return std::nullopt;
  if (!SameExpr(diff->child(0), contained->r)) return std::nullopt;

  const ExprPtr& inside = diff->child(1);
  if (!IsProjectionOf(inside, {1, 2})) return std::nullopt;
  const ExprPtr& join = inside->child(0);
  if (join->kind() != OpKind::kJoin ||
      join->atoms() != std::vector<ra::JoinAtom>{{2, ra::Cmp::kEq, 1}}) {
    return std::nullopt;
  }
  if (!SameExpr(join->child(0), contained->r)) return std::nullopt;
  if (!SameExpr(join->child(1), contained->s)) return std::nullopt;
  return contained;
}

// The unpriced division pick for a routed pattern whose lowered dividend
// is `dividend`: sort-merge when the dividend is a stored scan, hash
// division for any other.
setjoin::DivisionAlgorithm PlannedDivisionAlgorithm(const PhysicalOp& dividend) {
  // A stored dividend is normalized and handed over in place
  // (TakeRelation): its groups are runs already, and sort-merge walks them
  // with no table and no copy. Any other dividend would first be drained
  // into a relation and sorted, where hash division consumes it batch by
  // batch in state sized by its groups and the divisor.
  return dividend.scan_relation() != nullptr ? setjoin::DivisionAlgorithm::kSortMerge
                                             : setjoin::DivisionAlgorithm::kHashDivision;
}

// The rewrite note of a routed division pattern.
std::string DivisionRewriteNote(setjoin::DivisionAlgorithm algorithm, bool equality,
                                bool cost_based) {
  return util::StrCat(equality ? "equality-division pattern → division=["
                               : "division pattern → division[",
                      setjoin::DivisionAlgorithmToString(algorithm), "]",
                      cost_based ? " (cost-based)" : "");
}

// The rewrite note of a join chain routed to the multiway operator.
std::string MultiwayRewriteNote(std::size_t relations, double agm_bound) {
  return util::StrCat("join chain [", std::to_string(relations),
                      " relations] → multiway generic join (AGM bound ",
                      std::to_string(static_cast<std::size_t>(agm_bound)), ")");
}

// The choices label for the multiway-vs-binary decision: "multiway[k]"
// when routed, "binary" when the written plan was kept.
std::string MultiwayChoiceLabel(bool routed, std::size_t relations) {
  return routed ? util::StrCat("multiway[", std::to_string(relations), "]")
                : std::string("binary");
}

class Lowering {
 public:
  Lowering(const EngineOptions& options, const stats::StatsProvider* stats)
      : options_(options), stats_(stats), model_(stats, options.calibration.get()) {}

  PhysicalOpPtr Lower(const ExprPtr& e) {
    auto it = memo_.find(e.get());
    if (it != memo_.end()) return it->second;
    PhysicalOpPtr op = LowerUncached(e);
    // Annotate every operator that mirrors a logical node with the cost
    // model's output prediction — the estimated half of the
    // estimated-vs-actual pairs in PlanStats. Rewrite-specific operators
    // record their own, richer estimates in LowerUncached.
    if (stats_ != nullptr && estimates_.find(op.get()) == estimates_.end()) {
      const ExprEstimate guess = model_.Estimate(e);
      estimates_[op.get()] = {0.0, guess.cardinality, guess.cardinality};
    }
    memo_.emplace(e.get(), op);
    return op;
  }

  std::vector<std::string> TakeRewrites() { return std::move(rewrites_); }
  std::vector<AlgorithmChoice> TakeChoices() { return std::move(choices_); }
  std::unordered_map<const PhysicalOp*, CostEstimate> TakeEstimates() {
    return std::move(estimates_);
  }
  std::vector<ChoicePoint> TakeChoicePoints() { return std::move(choice_points_); }
  double agm_bound() const { return agm_bound_; }
  bool has_agm_bound() const { return has_agm_bound_; }

 private:
  bool CostBased() const { return options_.cost_based && stats_ != nullptr; }

  SemijoinStrategy SemijoinStrategyFor(const ExprPtr& left, const ExprPtr& right,
                                       const std::vector<ra::JoinAtom>& atoms) {
    if (!CostBased()) {
      return options_.rewrites ? SemijoinStrategy::kFastKernel
                               : SemijoinStrategy::kGeneric;
    }
    const ExprEstimate l = model_.Estimate(left);
    const ExprEstimate r = model_.Estimate(right);
    const SemijoinStrategy strategy = model_.ChooseSemijoin(l, r, atoms);
    choices_.push_back(
        {"semijoin",
         strategy == SemijoinStrategy::kFastKernel ? "fast-kernel" : "generic",
         model_.EstimateSemijoin(l, r, atoms, strategy)});
    return strategy;
  }

  PhysicalOpPtr LowerDivision(const DivisionMatch& m, bool equality,
                              const ra::Expr* source) {
    // The priced pick and its note precede the inputs' own choices and
    // notes; an unpriced pick reads the lowered dividend.
    ExprEstimate r_est;
    ExprEstimate s_est;
    if (stats_ != nullptr) {
      r_est = model_.Estimate(m.r);
      s_est = model_.Estimate(m.s);
    }
    std::optional<setjoin::DivisionAlgorithm> priced;
    if (CostBased()) {
      const auto choice = model_.ChooseDivision(r_est, s_est, equality);
      priced = choice.algorithm;
      choices_.push_back({equality ? "equality-division" : "division",
                          setjoin::DivisionAlgorithmToString(choice.algorithm),
                          choice.estimate});
    }
    const std::size_t rewrite_index = rewrites_.size();
    rewrites_.emplace_back();
    PhysicalOpPtr dividend = Lower(m.r);
    PhysicalOpPtr divisor = Lower(m.s);
    const setjoin::DivisionAlgorithm algorithm =
        priced ? *priced : PlannedDivisionAlgorithm(*dividend);
    rewrites_[rewrite_index] = DivisionRewriteNote(algorithm, equality, CostBased());
    PhysicalOpPtr op = MakeDivision(std::move(dividend), std::move(divisor), algorithm,
                                    equality, source);
    if (stats_ != nullptr) {
      estimates_[op.get()] = model_.EstimateDivision(algorithm, r_est, s_est, equality);
    }
    choice_points_.push_back(
        {ChoicePoint::Kind::kDivision, m.r, m.s, equality, algorithm});
    return op;
  }

  // -- Multiway join chains --------------------------------------------------
  // CollectChain flattens a maximal all-equality binary-join chain into a
  // join hypergraph: equality joins union the variables their atoms
  // relate, equality selections union two variables of one subtree
  // (selection pushdown — the filter becomes a duplicate-variable
  // constraint on a leaf or a variable merge), and projections re-index
  // (projection pruning — dropped columns survive as join variables, which
  // only constrains further, and the chain root's projection restores the
  // visible columns exactly). Anything else is a leaf, lowered normally.

  struct CollectedChain {
    std::vector<ExprPtr> leaves;
    /// Raw (pre-union) variable ids per leaf column.
    std::vector<std::vector<std::size_t>> leaf_vars;
    /// Collected interior nodes in post-order, chain root last.
    std::vector<ExprPtr> interior;
    /// Union-find over raw variable ids.
    std::vector<std::size_t> uf;

    std::size_t Find(std::size_t v) {
      while (uf[v] != v) {
        uf[v] = uf[uf[v]];
        v = uf[v];
      }
      return v;
    }
    void Union(std::size_t a, std::size_t b) { uf[Find(a)] = Find(b); }
  };

  static bool AllEqualityAtoms(const ExprPtr& e) {
    return std::all_of(e->atoms().begin(), e->atoms().end(),
                       [](const ra::JoinAtom& a) { return a.op == ra::Cmp::kEq; });
  }

  /// Returns the raw variable id of each output column of `e`.
  std::vector<std::size_t> CollectChain(const ExprPtr& e, CollectedChain& chain) {
    if (e->kind() == OpKind::kJoin && AllEqualityAtoms(e)) {
      std::vector<std::size_t> left = CollectChain(e->child(0), chain);
      std::vector<std::size_t> right = CollectChain(e->child(1), chain);
      for (const auto& atom : e->atoms()) {
        chain.Union(left[atom.left - 1], right[atom.right - 1]);
      }
      chain.interior.push_back(e);
      left.insert(left.end(), right.begin(), right.end());
      return left;
    }
    if (e->kind() == OpKind::kSelection && e->selection_op() == ra::Cmp::kEq) {
      std::vector<std::size_t> cols = CollectChain(e->child(0), chain);
      chain.Union(cols[e->selection_i() - 1], cols[e->selection_j() - 1]);
      chain.interior.push_back(e);
      return cols;
    }
    if (e->kind() == OpKind::kProjection) {
      std::vector<std::size_t> cols = CollectChain(e->child(0), chain);
      std::vector<std::size_t> mapped;
      mapped.reserve(e->projection().size());
      for (std::size_t c : e->projection()) mapped.push_back(cols[c - 1]);
      chain.interior.push_back(e);
      return mapped;
    }
    std::vector<std::size_t> vars;
    vars.reserve(e->arity());
    for (std::size_t c = 0; c < e->arity(); ++c) {
      vars.push_back(chain.uf.size());
      chain.uf.push_back(chain.uf.size());
    }
    chain.leaves.push_back(e);
    chain.leaf_vars.push_back(vars);
    return vars;
  }

  /// Collects the join chain rooted at `e` and routes it to the multiway
  /// operator (or keeps the written binary plan, recording the priced
  /// decision) per CostModel::ChooseMultiwayJoin. Returns nullptr when no
  /// viable chain exists — the caller falls through to 1:1 lowering.
  PhysicalOpPtr TryMultiwayChain(const ExprPtr& e) {
    if (!AllEqualityAtoms(e)) return nullptr;
    CollectedChain chain;
    const std::vector<std::size_t> root_raw = CollectChain(e, chain);
    if (chain.leaves.size() < 3 || chain.leaves.size() > kMaxHypergraphEdges) {
      return nullptr;
    }
    for (const ExprPtr& leaf : chain.leaves) {
      if (leaf->arity() == 0) return nullptr;
    }
    // Compress union-find classes to dense variable ids in first-appearance
    // order (variable 0 is leaf 0's column 1 — the partitioning key).
    std::unordered_map<std::size_t, std::size_t> dense;
    std::vector<std::vector<std::size_t>> var_maps(chain.leaves.size());
    for (std::size_t i = 0; i < chain.leaves.size(); ++i) {
      var_maps[i].reserve(chain.leaf_vars[i].size());
      for (std::size_t raw : chain.leaf_vars[i]) {
        const std::size_t root = chain.Find(raw);
        const auto it = dense.emplace(root, dense.size()).first;
        var_maps[i].push_back(it->second);
      }
    }
    const std::size_t num_vars = dense.size();
    if (num_vars == 0 || num_vars > kMaxHypergraphVars) return nullptr;

    JoinHypergraph graph;
    graph.num_vars = num_vars;
    for (std::size_t i = 0; i < chain.leaves.size(); ++i) {
      JoinHypergraph::Edge edge;
      edge.vars = var_maps[i];
      std::sort(edge.vars.begin(), edge.vars.end());
      edge.vars.erase(std::unique(edge.vars.begin(), edge.vars.end()),
                      edge.vars.end());
      edge.cardinality = model_.Estimate(chain.leaves[i]).cardinality;
      graph.edges.push_back(std::move(edge));
    }
    std::vector<double> interior_cards;
    interior_cards.reserve(chain.interior.size());
    for (const ExprPtr& node : chain.interior) {
      interior_cards.push_back(model_.Estimate(node).cardinality);
    }
    const CostModel::MultiwayChoice choice =
        model_.ChooseMultiwayJoin(graph, interior_cards, CostBased());
    if (!std::isfinite(choice.agm_bound)) return nullptr;
    if (!has_agm_bound_) {  // The plan-level bound: first chain collected.
      agm_bound_ = choice.agm_bound;
      has_agm_bound_ = true;
    }

    if (CostBased()) {
      choices_.push_back(
          {"join-chain", MultiwayChoiceLabel(choice.use_multiway, chain.leaves.size()),
           choice.use_multiway ? choice.multiway : choice.binary});
    }
    if (!choice.use_multiway) {  // Keep the written binary plan.
      return MakeJoin(Lower(e->child(0)), Lower(e->child(1)), e->atoms(), e.get());
    }

    rewrites_.push_back(MultiwayRewriteNote(chain.leaves.size(), choice.agm_bound));

    std::vector<PhysicalOpPtr> children;
    children.reserve(chain.leaves.size());
    for (const ExprPtr& leaf : chain.leaves) children.push_back(Lower(leaf));
    PhysicalOpPtr mw =
        MakeMultiwayJoin(std::move(children), var_maps, num_vars, /*source=*/nullptr);
    if (stats_ != nullptr) estimates_[mw.get()] = choice.multiway;
    std::vector<std::size_t> projection;
    projection.reserve(root_raw.size());
    for (std::size_t raw : root_raw) {
      projection.push_back(dense.at(chain.Find(raw)) + 1);
    }
    return MakeProject(std::move(mw), std::move(projection), e.get());
  }

  PhysicalOpPtr LowerUncached(const ExprPtr& e) {
    if (options_.rewrites) {
      if (auto m = MatchEqualityDivision(e)) {
        return LowerDivision(*m, /*equality=*/true, e.get());
      }
      if (auto m = MatchContainmentDivision(e)) {
        return LowerDivision(*m, /*equality=*/false, e.get());
      }
    }
    if (options_.rewrites && e->kind() == OpKind::kProjection &&
        e->child(0)->kind() == OpKind::kJoin) {
      if (PhysicalOpPtr reduced = TrySemijoinReduction(e)) return reduced;
    }
    if (options_.multiway && stats_ != nullptr && e->kind() == OpKind::kJoin) {
      if (PhysicalOpPtr chained = TryMultiwayChain(e)) return chained;
    }

    switch (e->kind()) {
      case OpKind::kRelation:
        return MakeScan(e->relation_name(), e->arity(), e.get());
      case OpKind::kUnion:
        return MakeUnion(Lower(e->child(0)), Lower(e->child(1)), e.get());
      case OpKind::kDifference:
        return MakeDifference(Lower(e->child(0)), Lower(e->child(1)), e.get());
      case OpKind::kProjection:
        return MakeProject(Lower(e->child(0)), e->projection(), e.get());
      case OpKind::kSelection:
        return MakeSelect(Lower(e->child(0)), e->selection_op(), e->selection_i(),
                          e->selection_j(), e.get());
      case OpKind::kConstTag:
        return MakeConstTag(Lower(e->child(0)), e->tag_value(), e.get());
      case OpKind::kJoin:
        return MakeJoin(Lower(e->child(0)), Lower(e->child(1)), e->atoms(), e.get());
      case OpKind::kSemiJoin: {
        const SemijoinStrategy strategy =
            SemijoinStrategyFor(e->child(0), e->child(1), e->atoms());
        return MakeSemiJoin(Lower(e->child(0)), Lower(e->child(1)), e->atoms(),
                            strategy, e.get());
      }
    }
    SETALG_CHECK_STREAM(false) << "unreachable";
    return nullptr;
  }

  // π_cols(E1 ⋈_θ E2) with cols all on one side never needs the join's
  // output: under set semantics it equals π(E1 ⋉_θ E2) (or the mirrored
  // form), whose intermediate is bounded by the surviving input.
  PhysicalOpPtr TrySemijoinReduction(const ExprPtr& e) {
    const ExprPtr& join = e->child(0);
    const std::vector<std::size_t>& columns = e->projection();
    const std::size_t left_arity = join->child(0)->arity();

    bool all_left = true;
    bool all_right = true;
    for (std::size_t c : columns) {
      (c <= left_arity ? all_right : all_left) = false;
    }
    if (all_left) {
      // The semijoin op is rewrite-synthesized: its output matches no
      // logical node, so it carries no source.
      const SemijoinStrategy strategy =
          SemijoinStrategyFor(join->child(0), join->child(1), join->atoms());
      PhysicalOpPtr semi = MakeSemiJoin(Lower(join->child(0)), Lower(join->child(1)),
                                        join->atoms(), strategy, nullptr);
      rewrites_.push_back("π(join) reduced to π(semijoin) at " + e->ToString());
      return MakeProject(std::move(semi), columns, e.get());
    }
    if (all_right && !columns.empty()) {
      std::vector<ra::JoinAtom> mirrored;
      mirrored.reserve(join->atoms().size());
      for (const auto& atom : join->atoms()) {
        mirrored.push_back({atom.right, ra::MirrorCmp(atom.op), atom.left});
      }
      std::vector<std::size_t> shifted;
      shifted.reserve(columns.size());
      for (std::size_t c : columns) shifted.push_back(c - left_arity);
      const SemijoinStrategy strategy =
          SemijoinStrategyFor(join->child(1), join->child(0), join->atoms());
      PhysicalOpPtr semi = MakeSemiJoin(Lower(join->child(1)), Lower(join->child(0)),
                                        std::move(mirrored), strategy, nullptr);
      rewrites_.push_back("π(join) reduced to π(mirrored semijoin) at " +
                          e->ToString());
      return MakeProject(std::move(semi), std::move(shifted), e.get());
    }
    return nullptr;
  }

  const EngineOptions& options_;
  const stats::StatsProvider* stats_;
  CostModel model_;
  std::unordered_map<const ra::Expr*, PhysicalOpPtr> memo_;
  std::vector<std::string> rewrites_;
  std::vector<AlgorithmChoice> choices_;
  std::unordered_map<const PhysicalOp*, CostEstimate> estimates_;
  std::vector<ChoicePoint> choice_points_;
  double agm_bound_ = 0.0;
  bool has_agm_bound_ = false;
};

}  // namespace

EngineOptions EngineOptions::Reference() {
  EngineOptions options;
  options.rewrites = false;
  return options;
}

EngineOptions EngineOptions::CostBased() {
  EngineOptions options;
  options.cost_based = true;
  return options;
}

EngineOptions EngineOptions::WithCalibration(
    std::shared_ptr<CalibrationStore> store) const {
  EngineOptions o = *this;
  o.calibration =
      store != nullptr ? std::move(store) : std::make_shared<CalibrationStore>();
  return o;
}

std::uint64_t OptionsFingerprint(const EngineOptions& options) {
  std::uint64_t h = util::kFnvOffsetBasis;
  auto mix = [&h](std::uint64_t value) { h = util::HashCombine(h, value); };
  mix(options.rewrites);
  mix(options.cost_based);
  mix(options.multiway);
  mix(options.batch_size);
  mix(options.threads);
  mix(options.max_intermediate_budget);
  // A calibrated model prices (and so lowers) differently from an
  // uncalibrated one; keep their cache entries apart. Store contents
  // drift over time either way — revalidation handles that.
  mix(options.calibration != nullptr);
  return h;
}

std::string PhysicalPlan::ToString() const {
  std::string out = root == nullptr ? std::string("(empty plan)\n") : root->ToString();
  for (const auto& rewrite : rewrites) {
    out += "-- rewrite: " + rewrite + "\n";
  }
  for (const auto& choice : choices) {
    out += util::StrCat("-- cost-based: ", choice.site, " → ", choice.algorithm,
                        " (est cost ", static_cast<std::size_t>(choice.estimate.cost),
                        ", est rows ",
                        static_cast<std::size_t>(choice.estimate.output_size), ")\n");
  }
  return out;
}

util::Result<PhysicalPlan> Planner::Lower(const ra::ExprPtr& expr,
                                          const core::Schema& schema,
                                          const stats::StatsProvider* stats) const {
  SETALG_CHECK(expr != nullptr);
  const std::string error = ra::ValidateAgainstSchema(*expr, schema);
  if (!error.empty()) return util::Result<PhysicalPlan>::Error(error);
  Lowering lowering(options_, stats);
  PhysicalPlan plan;
  plan.root = lowering.Lower(expr);
  plan.rewrites = lowering.TakeRewrites();
  plan.choices = lowering.TakeChoices();
  plan.estimates = lowering.TakeEstimates();
  plan.choice_points = lowering.TakeChoicePoints();
  plan.agm_bound = lowering.agm_bound();
  plan.has_agm_bound = lowering.has_agm_bound();
  return plan;
}

}  // namespace setalg::engine
