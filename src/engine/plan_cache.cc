#include "engine/plan_cache.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>
#include <vector>

#include "engine/cost.h"
#include "engine/multiway.h"

namespace setalg::engine {
namespace {

// The decision revalidation computed for one choice point, compared
// against what is baked into the cached operator.
struct NewDecision {
  const ChoicePoint* point = nullptr;
  setjoin::DivisionAlgorithm division_algorithm =
      setjoin::DivisionAlgorithm::kHashDivision;
  SemijoinStrategy strategy = SemijoinStrategy::kFastKernel;
  std::size_t partitions = 0;
};

// Bottom-up structural substitution: flipped operators are rebuilt with
// their new decision, and every ancestor of a rebuilt node is copied via
// WithChildren. Untouched subtrees are shared with the old plan — the
// swap is O(spine), not O(plan).
PhysicalOpPtr RebuildOp(
    const PhysicalOpPtr& op,
    const std::unordered_map<const PhysicalOp*, NewDecision>& flips,
    std::unordered_map<const PhysicalOp*, PhysicalOpPtr>* memo) {
  auto it = memo->find(op.get());
  if (it != memo->end()) return it->second;
  std::vector<PhysicalOpPtr> children;
  children.reserve(op->children().size());
  bool changed = false;
  for (const auto& child : op->children()) {
    PhysicalOpPtr rebuilt = RebuildOp(child, flips, memo);
    changed |= rebuilt.get() != child.get();
    children.push_back(std::move(rebuilt));
  }
  PhysicalOpPtr out;
  const auto flip = flips.find(op.get());
  if (flip != flips.end()) {
    const ChoicePoint& point = *flip->second.point;
    if (point.kind == ChoicePoint::Kind::kDivision) {
      out = MakeDivision(std::move(children[0]), std::move(children[1]),
                         flip->second.division_algorithm, point.equality,
                         point.source, flip->second.partitions);
    } else if (point.kind == ChoicePoint::Kind::kMultiway) {
      // The routing itself is structural (pinned at lowering); only the
      // serial-vs-partitioned execution decision can flip here.
      out = MakeMultiwayJoin(std::move(children), point.multiway_var_maps,
                             point.multiway_num_vars, point.source,
                             flip->second.partitions);
    } else {
      out = MakeSemiJoin(std::move(children[0]), std::move(children[1]),
                         point.op_atoms, flip->second.strategy, point.source,
                         flip->second.partitions);
    }
  } else if (changed) {
    out = op->WithChildren(std::move(children));
  } else {
    out = op;
  }
  memo->emplace(op.get(), out);
  return out;
}

std::size_t CountOps(const PhysicalOpPtr& root) {
  if (root == nullptr) return 0;
  std::unordered_set<const PhysicalOp*> seen;
  std::vector<const PhysicalOp*> stack{root.get()};
  while (!stack.empty()) {
    const PhysicalOp* op = stack.back();
    stack.pop_back();
    if (!seen.insert(op).second) continue;
    for (const auto& child : op->children()) stack.push_back(child.get());
  }
  return seen.size();
}

}  // namespace

std::size_t ApproxPlanBytes(const CachedPlan& entry) {
  // Deterministic constants stand in for per-node allocations the
  // operators make (children vectors, name/atom payloads): the budget
  // needs a reproducible order-of-magnitude charge, not malloc truth.
  std::size_t bytes = sizeof(CachedPlan);
  bytes += CountOps(entry.plan.root) * 96;
  if (entry.expr != nullptr) bytes += entry.expr->NumNodes() * 64;
  bytes += entry.plan.estimates.size() * 48;
  bytes += entry.plan.op_sources.size() * 24;
  bytes += entry.plan.choice_points.size() * sizeof(ChoicePoint);
  for (const auto& choice : entry.plan.choices) {
    bytes += sizeof(AlgorithmChoice) + choice.site.size() + choice.algorithm.size();
  }
  for (const auto& rewrite : entry.plan.rewrites) bytes += rewrite.size();
  for (const auto& [name, version] : entry.versions) {
    (void)version;
    bytes += sizeof(std::pair<std::string, std::uint64_t>) + name.size();
  }
  return bytes;
}

CachedPlanPtr MakeCachedPlan(ra::ExprPtr expr, const core::DatabaseView& db,
                             PhysicalPlan plan) {
  auto entry = std::make_shared<CachedPlan>();
  entry->expr_hash = expr == nullptr ? 0 : ra::StructuralHash(*expr);
  entry->db_id = db.id();
  const std::vector<std::string> names = expr != nullptr
                                             ? ra::CollectRelationNames(*expr)
                                             : CollectScanRelations(plan.root);
  entry->versions = stats::SnapshotVersions(db, names);
  entry->expr = std::move(expr);
  entry->plan = std::move(plan);
  entry->approx_bytes = ApproxPlanBytes(*entry);
  return entry;
}

CacheOutcome RevalidateCachedPlan(CachedPlan& entry, const core::DatabaseView& db,
                                  const stats::StatsProvider* stats,
                                  const EngineOptions& options) {
  if (stats::VersionsMatch(db, entry.versions)) return CacheOutcome::kHit;

  // Mirrors the planner's decision procedure exactly (same Choose*
  // formulas, same choices/rewrite spellings, same slice layout) so a
  // revalidated plan is indistinguishable from a freshly lowered one —
  // minus the lowering: no validation, no pattern matching, no tree walk
  // beyond the recorded choice points.
  PhysicalPlan& plan = entry.plan;
  const CostModel model(stats, options.calibration.get());
  const bool cost_based = options.cost_based && stats != nullptr;
  std::unordered_map<const PhysicalOp*, NewDecision> flips;
  // Fresh dedicated estimates for routed multiway points, applied after
  // the structural swap remaps point.op.
  std::vector<std::pair<const ChoicePoint*, CostEstimate>> multiway_estimates;
  bool agm_refreshed = false;
  for (ChoicePoint& point : plan.choice_points) {
    std::vector<AlgorithmChoice> entries;
    NewDecision decision;
    decision.point = &point;
    if (point.kind == ChoicePoint::Kind::kDivision) {
      const ExprEstimate r_est = model.Estimate(point.left);
      const ExprEstimate s_est = model.Estimate(point.right);
      setjoin::DivisionAlgorithm algorithm = options.division_algorithm;
      if (cost_based) {
        const auto choice = model.ChooseDivision(r_est, s_est, point.equality);
        algorithm = choice.algorithm;
        entries.push_back({point.equality ? "equality-division" : "division",
                           setjoin::DivisionAlgorithmToString(algorithm),
                           choice.estimate});
      }
      std::size_t partitions = 0;
      if (options.threads > 1 && cost_based) {
        const auto parallel = model.ChooseParallelism(
            model.EstimateDivision(algorithm, r_est, s_est, point.equality),
            r_est.cardinality + s_est.cardinality, r_est.key_distinct,
            options.threads, ReadsStoredScanInPlace(point.left));
        entries.push_back({point.equality ? "equality-division-execution"
                                          : "division-execution",
                           ParallelChoiceLabel(parallel.partitions),
                           parallel.estimate});
        partitions = parallel.partitions;
      }
      decision.division_algorithm = algorithm;
      decision.partitions = partitions;
      if (algorithm != point.division_algorithm || partitions != point.partitions) {
        flips.emplace(point.op, decision);
        if (point.rewrite_index < plan.rewrites.size()) {
          plan.rewrites[point.rewrite_index] =
              DivisionRewriteNote(algorithm, point.equality, cost_based);
        }
        point.division_algorithm = algorithm;
        point.partitions = partitions;
      }
    } else if (point.kind == ChoicePoint::Kind::kMultiway) {
      // The multiway-vs-binary routing is baked into the plan's shape and
      // never flips on revalidation (re-routing would be a re-lowering);
      // the point re-prices the pinned alternative from fresh statistics
      // and, for a routed chain, re-decides only the execution fan-out.
      JoinHypergraph graph;
      graph.num_vars = point.multiway_num_vars;
      double sum_inputs = 0.0;
      for (std::size_t i = 0; i < point.multiway_inputs.size(); ++i) {
        JoinHypergraph::Edge edge;
        edge.vars = point.multiway_var_maps[i];
        std::sort(edge.vars.begin(), edge.vars.end());
        edge.vars.erase(std::unique(edge.vars.begin(), edge.vars.end()),
                        edge.vars.end());
        edge.cardinality = model.Estimate(point.multiway_inputs[i]).cardinality;
        sum_inputs += edge.cardinality;
        graph.edges.push_back(std::move(edge));
      }
      std::vector<double> interior_cards;
      interior_cards.reserve(point.multiway_interior.size());
      for (const auto& node : point.multiway_interior) {
        interior_cards.push_back(model.Estimate(node).cardinality);
      }
      const auto choice =
          model.ChooseMultiwayJoin(graph, interior_cards, cost_based);
      if (cost_based) {
        entries.push_back(
            {"join-chain",
             MultiwayChoiceLabel(point.multiway_routed, point.multiway_inputs.size()),
             point.multiway_routed ? choice.multiway : choice.binary});
      }
      if (std::isfinite(choice.agm_bound) && !agm_refreshed) {
        plan.agm_bound = choice.agm_bound;  // Plan-level bound: first chain.
        agm_refreshed = true;
      }
      if (point.multiway_routed) {
        std::size_t partitions = 0;
        if (options.threads > 1 && cost_based) {
          const ra::ExprPtr& key_leaf = point.multiway_inputs[point.multiway_key_leaf];
          const auto parallel = model.ChooseParallelism(
              choice.multiway, sum_inputs,
              EstimateColumnDistinct(model.Estimate(key_leaf),
                                     point.multiway_key_column, key_leaf->arity()),
              options.threads);
          entries.push_back({"multiway-execution",
                             ParallelChoiceLabel(parallel.partitions),
                             parallel.estimate});
          partitions = parallel.partitions;
        }
        if (point.rewrite_index < plan.rewrites.size() &&
            std::isfinite(choice.agm_bound)) {
          plan.rewrites[point.rewrite_index] =
              MultiwayRewriteNote(point.multiway_inputs.size(), choice.agm_bound);
        }
        if (stats != nullptr) multiway_estimates.emplace_back(&point, choice.multiway);
        decision.partitions = partitions;
        if (partitions != point.partitions) {
          flips.emplace(point.op, decision);
          point.partitions = partitions;
        }
      }
    } else {
      SemijoinStrategy strategy = options.use_fast_semijoin
                                      ? SemijoinStrategy::kFastKernel
                                      : SemijoinStrategy::kGeneric;
      std::size_t partitions = 0;
      if (cost_based) {
        const ExprEstimate l = model.Estimate(point.left);
        const ExprEstimate r = model.Estimate(point.right);
        strategy = model.ChooseSemijoin(l, r, point.atoms);
        const CostEstimate estimate =
            model.EstimateSemijoin(l, r, point.atoms, strategy);
        entries.push_back({"semijoin",
                           strategy == SemijoinStrategy::kFastKernel ? "fast-kernel"
                                                                     : "generic",
                           estimate});
        const ra::JoinAtom* eq = ra::FirstEqualityAtom(point.atoms);
        if (eq == nullptr) {
          partitions = 1;
        } else if (options.threads > 1) {
          const auto parallel = model.ChooseParallelism(
              estimate, l.cardinality + r.cardinality,
              EstimateColumnDistinct(l, eq->left, point.left->arity()),
              options.threads);
          entries.push_back({"semijoin-execution",
                             ParallelChoiceLabel(parallel.partitions),
                             parallel.estimate});
          partitions = parallel.partitions;
        }
      }
      decision.strategy = strategy;
      decision.partitions = partitions;
      if (strategy != point.semijoin_strategy || partitions != point.partitions) {
        flips.emplace(point.op, decision);
        point.semijoin_strategy = strategy;
        point.partitions = partitions;
      }
    }
    // Refresh this decision's slice of the recorded choices in place —
    // the slice layout is fixed by the options the plan was lowered
    // under, so a width mismatch means the plan predates this options
    // set; leave its (still truthful-at-lowering) notes alone then.
    if (entries.size() == point.num_choices) {
      for (std::size_t i = 0; i < entries.size(); ++i) {
        plan.choices[point.first_choice + i] = std::move(entries[i]);
      }
    }
  }

  if (!flips.empty()) {
    std::unordered_map<const PhysicalOp*, PhysicalOpPtr> memo;
    PhysicalOpPtr root = RebuildOp(plan.root, flips, &memo);
    std::unordered_map<const PhysicalOp*, const PhysicalOp*> remap;
    remap.reserve(memo.size());
    for (const auto& [old_op, new_op] : memo) remap.emplace(old_op, new_op.get());
    plan.root = std::move(root);
    for (auto& [op, expr] : plan.op_sources) {
      (void)expr;
      const auto it = remap.find(op);
      if (it != remap.end()) op = it->second;
    }
    for (ChoicePoint& point : plan.choice_points) {
      const auto it = remap.find(point.op);
      if (it != remap.end()) point.op = it->second;
    }
  }

  // Re-annotate estimated-vs-actual predictions from the fresh
  // statistics, with the same precedence as fresh lowering: the division
  // points' dedicated formulas first, then the generic per-node output
  // guess wherever no richer estimate exists.
  plan.estimates.clear();
  if (stats != nullptr) {
    for (const ChoicePoint& point : plan.choice_points) {
      if (point.kind != ChoicePoint::Kind::kDivision) continue;
      plan.estimates[point.op] = model.EstimateDivision(
          point.division_algorithm, model.Estimate(point.left),
          model.Estimate(point.right), point.equality);
    }
    for (const auto& [point, estimate] : multiway_estimates) {
      plan.estimates[point->op] = estimate;
    }
    for (const auto& [op, expr] : plan.op_sources) {
      if (plan.estimates.find(op) != plan.estimates.end()) continue;
      const ExprEstimate guess = model.Estimate(expr);
      plan.estimates[op] = {0.0, guess.cardinality, guess.cardinality};
    }
  }

  for (auto& [name, version] : entry.versions) {
    version = db.relation_version(name);
  }
  entry.approx_bytes = ApproxPlanBytes(entry);
  return flips.empty() ? CacheOutcome::kRevalidated : CacheOutcome::kRepicked;
}

SharedPlanPtr RevalidatedCopy(const SharedPlanPtr& entry, const core::DatabaseView& db,
                              const stats::StatsProvider* stats,
                              const EngineOptions& options, CacheOutcome* outcome) {
  if (stats::VersionsMatch(db, entry->versions)) {
    *outcome = CacheOutcome::kHit;
    return entry;
  }
  // Re-pricing and operator swaps only allocate fresh nodes (PhysicalOps
  // are immutable; RebuildOp copies the spine), so whoever still runs the
  // old plan is untouched.
  auto copy = std::make_shared<CachedPlan>(*entry);
  *outcome = RevalidateCachedPlan(*copy, db, stats, options);
  return copy;
}

}  // namespace setalg::engine
