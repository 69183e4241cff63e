#include "engine/shared_cache.h"

#include <utility>

#include "util/check.h"

namespace setalg::engine {

SharedPlanCache::Stats& SharedPlanCache::Stats::operator+=(const Stats& other) {
  hits += other.hits;
  misses += other.misses;
  revalidations += other.revalidations;
  repicks += other.repicks;
  evictions += other.evictions;
  return *this;
}

SharedPlanCache::SharedPlanCache(std::size_t max_entries, std::size_t max_bytes)
    : lru_(max_entries, max_bytes) {}

SharedPlanCache::Acquired SharedPlanCache::Acquire(
    const ra::ExprPtr& expr, const core::DatabaseView& db,
    const stats::StatsProvider* stats, const EngineOptions& options) const {
  SETALG_CHECK(expr != nullptr);
  return Resolve({db.id(), OptionsFingerprint(options), ra::StructuralHash(*expr), expr},
                 db, stats, options, /*count_miss=*/true);
}

SharedPlanCache::Acquired SharedPlanCache::AcquireResident(
    const CachedPlan& entry, const core::DatabaseView& db,
    const stats::StatsProvider* stats, const EngineOptions& options) const {
  SETALG_CHECK(entry.expr != nullptr);
  return Resolve({entry.db_id, OptionsFingerprint(options), entry.expr_hash, entry.expr},
                 db, stats, options, /*count_miss=*/false);
}

SharedPlanCache::Acquired SharedPlanCache::Resolve(
    const CacheKey& key, const core::DatabaseView& db,
    const stats::StatsProvider* stats, const EngineOptions& options,
    bool count_miss) const {
  using Stripe = StripedLru<CachedPlan, Stats>::Stripe;
  const SharedPlanPtr resident = lru_.With(key, [&](Stripe& stripe) {
    SharedPlanPtr found = stripe.Find(key);
    if (found == nullptr && count_miss) ++stripe.stats().misses;
    return found;
  });
  if (resident == nullptr) return {nullptr, CacheOutcome::kMiss};

  // Version check (and any revalidation) outside the lock: the resident
  // entry is immutable, and the view's counters are either frozen
  // (txn::Snapshot) or owned by this thread (a live Database is
  // single-threaded by contract).
  Acquired out;
  out.entry = RevalidatedCopy(resident, db, stats, options, &out.outcome);
  lru_.With(key, [&](Stripe& stripe) {
    Stats& tally = stripe.stats();
    if (out.outcome == CacheOutcome::kHit) {
      ++tally.hits;
      return;
    }
    ++tally.revalidations;
    if (out.outcome == CacheOutcome::kRepicked) ++tally.repicks;
    // Publish the refreshed copy even if someone replaced the entry first
    // (last writer wins — both are correct for their versions, and ours
    // is the freshest we know).
    stripe.Put(key, out.entry);
  });
  return out;
}

SharedPlanPtr SharedPlanCache::Insert(CachedPlanPtr entry,
                                      const EngineOptions& options) const {
  SETALG_CHECK(entry != nullptr);
  SETALG_CHECK(entry->expr != nullptr);
  const CacheKey key{entry->db_id, OptionsFingerprint(options), entry->expr_hash,
                     entry->expr};
  SharedPlanPtr shared = std::move(entry);
  lru_.With(key, [&](StripedLru<CachedPlan, Stats>::Stripe& stripe) {
    stripe.Put(key, shared);
  });
  return shared;
}

}  // namespace setalg::engine
