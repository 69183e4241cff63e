#include "engine/result_cache.h"

#include <utility>

#include "util/check.h"

namespace setalg::engine {

ResultCache::Stats& ResultCache::Stats::operator+=(const Stats& other) {
  hits += other.hits;
  misses += other.misses;
  invalidations += other.invalidations;
  insertions += other.insertions;
  evictions += other.evictions;
  return *this;
}

std::size_t ResultCache::ApproxEntryBytes(const Entry& entry) {
  // Deterministic: the budget needs a reproducible charge, not malloc
  // truth. The stored relation's flat payload dominates by construction.
  std::size_t bytes = sizeof(Entry);
  bytes += entry.relation.flat().size() * sizeof(core::Value);
  bytes += entry.stats.ops.size() * (sizeof(OpStats) + 24);
  for (const auto& rewrite : entry.stats.rewrites) bytes += rewrite.size();
  for (const auto& choice : entry.stats.choices) {
    bytes += choice.site.size() + choice.algorithm.size();
  }
  for (const auto& [name, version] : entry.versions) {
    (void)version;
    bytes += sizeof(std::pair<std::string, std::uint64_t>) + name.size();
  }
  if (entry.expr != nullptr) bytes += entry.expr->NumNodes() * 64;
  return bytes;
}

ResultCache::ResultCache(std::size_t max_entries, std::size_t max_bytes)
    : lru_(max_entries, max_bytes) {}

std::optional<ResultCache::Hit> ResultCache::Lookup(
    const ra::ExprPtr& expr, const core::DatabaseView& db,
    std::uint64_t options_fp) const {
  SETALG_CHECK(expr != nullptr);
  const CacheKey key{db.id(), options_fp, ra::StructuralHash(*expr), expr};
  const std::shared_ptr<const Entry> entry =
      lru_.With(key, [&](StripedLru<Entry, Stats>::Stripe& stripe) {
        std::shared_ptr<const Entry> found = stripe.Find(key);
        // Invalidation check under the lock: the view's counters are
        // either frozen (txn::Snapshot) or owned by this thread (a live
        // Database is single-threaded by contract), so the check itself
        // is race-free; the lock makes the erase-on-stale atomic with the
        // lookup.
        if (found != nullptr && !stats::VersionsMatch(db, found->versions)) {
          stripe.Erase(key);
          ++stripe.stats().invalidations;
          found = nullptr;
        }
        ++(found == nullptr ? stripe.stats().misses : stripe.stats().hits);
        return found;
      });
  if (entry == nullptr) return std::nullopt;

  Hit hit;
  hit.relation = entry->relation;
  hit.stats = entry->stats;
  hit.stats.cache = CacheOutcome::kResultHit;
  return hit;
}

void ResultCache::Insert(const ra::ExprPtr& expr, std::uint64_t db_id,
                         std::uint64_t options_fp, stats::VersionVector versions,
                         const core::Relation& relation, const PlanStats& stats,
                         PhysicalOpPtr plan_root) const {
  SETALG_CHECK(expr != nullptr);
  auto entry = std::make_shared<Entry>();
  entry->versions = std::move(versions);
  entry->relation = relation;
  entry->stats = stats;
  entry->plan_root = std::move(plan_root);
  entry->expr = expr;
  entry->approx_bytes = ApproxEntryBytes(*entry);

  const CacheKey key{db_id, options_fp, ra::StructuralHash(*expr), expr};
  lru_.With(key, [&](StripedLru<Entry, Stats>::Stripe& stripe) {
    stripe.Put(key, std::move(entry));
    ++stripe.stats().insertions;
  });
}

}  // namespace setalg::engine
