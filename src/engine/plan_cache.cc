#include "engine/plan_cache.h"

#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/check.h"

namespace setalg::engine {
namespace {

// True when two lowerings of one expression built the same operators.
// The planner is deterministic and an operator's label names its kind,
// payload and algorithm, so equal labels over equal shapes (shared
// subplans paired once) are the same plan.
bool SameOperators(const PhysicalOp& a, const PhysicalOp& b,
                   std::unordered_map<const PhysicalOp*, const PhysicalOp*>* paired) {
  const auto [it, first] = paired->emplace(&a, &b);
  if (!first) return it->second == &b;
  if (a.label() != b.label() || a.children().size() != b.children().size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.children().size(); ++i) {
    if (!SameOperators(*a.child(i), *b.child(i), paired)) return false;
  }
  return true;
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

SharedPlanPtr RevalidatedCopy(const SharedPlanPtr& entry, const core::DatabaseView& db,
                              const stats::StatsProvider* stats,
                              const EngineOptions& options, CacheOutcome* outcome) {
  if (stats::VersionsMatch(db, entry->versions)) {
    *outcome = CacheOutcome::kHit;
    return entry;
  }
  *outcome = CacheOutcome::kRevalidated;
  PhysicalPlan plan;
  if (entry->expr != nullptr && options.UsesStatistics()) {
    // Lowered again exactly as a fresh run lowers it. The schema under
    // one database id never changes (a copied Database gets a new id), so
    // the key expression, valid when the entry was made, validates again.
    auto lowered = Planner(options).Lower(entry->expr, db.schema(), stats);
    SETALG_CHECK_STREAM(lowered.ok()) << lowered.error();
    std::unordered_map<const PhysicalOp*, const PhysicalOp*> paired;
    if (!SameOperators(*entry->plan.root, *lowered->root, &paired)) {
      *outcome = CacheOutcome::kRepicked;
    }
    plan = std::move(*lowered);
  } else {
    // Options that read no statistics lower an expression to one plan
    // whatever the data, and a hand-built plan has no expression to lower:
    // the operators stay (PhysicalOps are immutable, so both entries share
    // them) and only the versions move. A hand-built plan's estimates
    // described the old data, so they go.
    plan = entry->plan;
    plan.estimates.clear();
  }
  // A new entry: whoever still runs the stale one keeps it untouched.
  auto copy = std::make_shared<CachedPlan>(CachedPlan{
      entry->expr, entry->expr_hash, entry->db_id, entry->versions, std::move(plan)});
  for (auto& [name, version] : copy->versions) {
    version = db.relation_version(name);
  }
  copy->approx_bytes = ApproxPlanBytes(*copy);
  return copy;
}

}  // namespace setalg::engine
