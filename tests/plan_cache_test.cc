// Cache-differential & invalidation harness for the plan cache and the
// PreparedQuery surface (engine/plan_cache.h, engine/shared_cache.h).
//
// The property under test: the plan cache is *pure provenance*. However a
// plan reaches the executor — lowered fresh, served as a cache hit,
// kept or lowered again to the same operators after a mutation
// (revalidated), or lowered again to different ones (repicked) — the
// result relation and the per-operator PlanStats (labels, sources,
// distinct output cardinalities, aggregates, estimates, recorded choices,
// batch/partition accounting) must be bit-identical to a fresh un-cached
// Engine::Run under the same options. The harness interleaves randomized
// database mutations (in-place inserts, deletes, bulk loads) with
// repeated prepared and transparently-cached executions and checks that
// identity after every mutation, across Reference/planned/CostBased ×
// threads {1, 2, 7}, and checks the fresh run itself against the
// materializing reference (engine::RunMaterialized) of the same plan.
//
// Like tests/batch_exec_test.cc, the suite reads SETALG_BATCH_SEED
// (default 1) as the base of its seed range; CI runs it under ASan/UBSan
// and TSan across a fixed seed matrix.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/plan_cache.h"
#include "engine/result_cache.h"
#include "engine/shared_cache.h"
#include "ra/expr.h"
#include "setjoin/division.h"
#include "test_util.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace setalg::engine {
namespace {

using core::Relation;
using setalg::testing::MakeRel;

std::uint64_t BaseSeed() {
  const char* env = std::getenv("SETALG_BATCH_SEED");
  if (env == nullptr) return 1;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(env, &end, 10);
  return (end == env || value == 0) ? 1 : static_cast<std::uint64_t>(value);
}

// Bit-identical PlanStats comparison: everything a run reports except the
// cache provenance field itself.
void ExpectIdenticalStats(const PlanStats& expected, const PlanStats& actual,
                          const std::string& context) {
  EXPECT_EQ(actual.max_intermediate, expected.max_intermediate) << context;
  EXPECT_EQ(actual.total_intermediate, expected.total_intermediate) << context;
  EXPECT_EQ(actual.join_rows_emitted, expected.join_rows_emitted) << context;
  EXPECT_EQ(actual.batch_size, expected.batch_size) << context;
  EXPECT_EQ(actual.batches_emitted, expected.batches_emitted) << context;
  EXPECT_EQ(actual.peak_batch_bytes, expected.peak_batch_bytes) << context;
  EXPECT_EQ(actual.threads_used, expected.threads_used) << context;
  EXPECT_EQ(actual.partitions, expected.partitions) << context;
  EXPECT_EQ(actual.rewrites, expected.rewrites) << context;
  ASSERT_EQ(actual.choices.size(), expected.choices.size()) << context;
  for (std::size_t i = 0; i < expected.choices.size(); ++i) {
    EXPECT_EQ(actual.choices[i].site, expected.choices[i].site)
        << context << " choice " << i;
    EXPECT_EQ(actual.choices[i].algorithm, expected.choices[i].algorithm)
        << context << " choice " << i;
  }
  ASSERT_EQ(actual.ops.size(), expected.ops.size()) << context;
  for (std::size_t i = 0; i < expected.ops.size(); ++i) {
    const OpStats& want = expected.ops[i];
    const OpStats& got = actual.ops[i];
    EXPECT_EQ(got.label, want.label) << context << " op " << i;
    EXPECT_EQ(got.source, want.source) << context << " op " << i;
    EXPECT_EQ(got.output_size, want.output_size)
        << context << " op " << i << " (" << want.label << ")";
    EXPECT_EQ(got.has_estimate, want.has_estimate) << context << " op " << i;
    EXPECT_DOUBLE_EQ(got.estimated_output, want.estimated_output)
        << context << " op " << i;
    EXPECT_DOUBLE_EQ(got.estimated_cost, want.estimated_cost)
        << context << " op " << i;
  }
}

// The per-operator row counts a pipelined run shares with the
// materializing reference of the same plan (its batch accounting differs).
void ExpectSameRowCounts(const PlanStats& expected, const PlanStats& actual,
                         const std::string& context) {
  EXPECT_EQ(actual.max_intermediate, expected.max_intermediate) << context;
  EXPECT_EQ(actual.total_intermediate, expected.total_intermediate) << context;
  EXPECT_EQ(actual.join_rows_emitted, expected.join_rows_emitted) << context;
  ASSERT_EQ(actual.ops.size(), expected.ops.size()) << context;
  for (std::size_t i = 0; i < expected.ops.size(); ++i) {
    EXPECT_EQ(actual.ops[i].label, expected.ops[i].label) << context << " op " << i;
    EXPECT_EQ(actual.ops[i].output_size, expected.ops[i].output_size)
        << context << " op " << i << " (" << expected.ops[i].label << ")";
  }
}

// Randomized database mutations over the division schema {R/2, S/1}: the
// three shapes the issue calls out — point inserts (mutable_relation),
// deletes (SetRelation with a subset), and bulk loads (SetRelation with a
// fresh, differently-shaped relation, the move that flips cost-based
// algorithm choices).
void MutateDatabase(core::Database* db, util::Rng* rng, std::uint64_t seed,
                    int step) {
  switch (rng->NextBounded(4)) {
    case 0: {  // Insert a few tuples into R in place.
      core::Relation* r = db->mutable_relation("R");
      const std::size_t count = 1 + rng->NextBounded(4);
      for (std::size_t i = 0; i < count; ++i) {
        r->Add({static_cast<core::Value>(rng->NextBounded(30) + 1),
                static_cast<core::Value>(rng->NextBounded(20) + 1)});
      }
      break;
    }
    case 1: {  // Delete ~half of R.
      const core::Relation& r = db->relation("R");
      core::Relation kept(2);
      for (std::size_t i = 0; i < r.size(); ++i) {
        if (rng->NextBool()) kept.Add(r.tuple(i));
      }
      db->SetRelation("R", std::move(kept));
      break;
    }
    case 2: {  // Bulk-load R with a different shape (flips cost choices).
      const std::size_t rows = 60 + 40 * rng->NextBounded(4);
      const std::size_t domain = 4 + rng->NextBounded(40);
      db->SetRelation(
          "R", workload::UniformBinaryRelation(
                   rows, domain, seed * 1000 + static_cast<std::uint64_t>(step)));
      break;
    }
    default: {  // Replace the divisor.
      core::Relation s(1);
      const std::size_t size = 1 + rng->NextBounded(6);
      for (std::size_t i = 0; i < size; ++i) {
        s.Add({static_cast<core::Value>(rng->NextBounded(20) + 1)});
      }
      db->SetRelation("S", std::move(s));
      break;
    }
  }
}

struct Mode {
  std::string name;
  EngineOptions options;
};

std::vector<Mode> AllModes() {
  return {{"reference", EngineOptions::Reference()},
          {"planned", EngineOptions{}},
          {"cost-based", EngineOptions::CostBased()}};
}

// ---------------------------------------------------------------------------
// The headline harness: randomized mutation/execution interleavings.
// ---------------------------------------------------------------------------

TEST(PlanCache, CacheDifferentialUnderRandomizedMutations) {
  constexpr std::size_t kThreadCounts[] = {1, 2, 7};
  const std::uint64_t base = BaseSeed();
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 1);

  for (std::uint64_t seed = base; seed < base + 2; ++seed) {
    // The workload: both division shapes (pattern-routed, re-costable)
    // plus a random SA= expression (semijoin strategy points, generic
    // operators), prepared once and replayed across every mutation.
    setalg::testing::RandomSaEqGenerator generator(schema, {1, 2, 3}, seed * 131);
    const std::vector<ra::ExprPtr> exprs = {
        setjoin::ClassicDivisionExpr("R", "S"),
        setjoin::ClassicEqualityDivisionExpr("R", "S"),
        generator.Generate(1, 3),
    };
    for (const Mode& mode : AllModes()) {
      for (std::size_t threads : kThreadCounts) {
        const EngineOptions options = mode.options.WithBatchSize(7).WithThreads(threads);
        EngineOptions cached_options = options;
        cached_options.shared_plan_cache = std::make_shared<SharedPlanCache>(8, 0);
        const Engine cached(cached_options);
        const Engine fresh(options);  // Replans on every Run.
        const std::string what = mode.name + " threads=" + std::to_string(threads) +
                                 " seed=" + std::to_string(seed);

        auto db = setalg::testing::RandomDatabase(schema, 40, 12, seed);
        std::vector<PreparedQuery> prepared;
        for (const auto& expr : exprs) {
          auto handle = cached.Prepare(expr, db);
          ASSERT_TRUE(handle.ok()) << what << ": " << handle.error();
          prepared.push_back(std::move(*handle));
        }

        util::Rng rng(seed * 977 + threads * 31);
        for (int step = 0; step < 5; ++step) {
          MutateDatabase(&db, &rng, seed, step);
          for (std::size_t i = 0; i < exprs.size(); ++i) {
            const std::string context =
                what + " step=" + std::to_string(step) + " expr=" +
                std::to_string(i);
            auto want = fresh.Run(exprs[i], db);
            ASSERT_TRUE(want.ok()) << context << ": " << want.error();
            ASSERT_EQ(want->stats.cache, CacheOutcome::kUncached);
            // The fresh run agrees with the materializing reference.
            auto plan = fresh.Plan(exprs[i], db);
            ASSERT_TRUE(plan.ok()) << context << ": " << plan.error();
            const RunResult reference = RunMaterialized(*plan, db);
            EXPECT_EQ(reference.relation.flat(), want->relation.flat())
                << context << " (reference)";
            ExpectSameRowCounts(reference.stats, want->stats,
                                context + " (reference)");

            // First cached touch after the mutation: transparent path.
            auto through_cache = cached.Run(exprs[i], db);
            ASSERT_TRUE(through_cache.ok())
                << context << ": " << through_cache.error();
            EXPECT_EQ(through_cache->relation.flat(), want->relation.flat())
                << context << " (transparent)";
            ExpectIdenticalStats(want->stats, through_cache->stats,
                                 context + " (transparent)");
            // Something other than a fresh lowering served the run:
            // either the mutation invalidated it (revalidated/repicked)
            // or the versions happened to survive the step (hit).
            EXPECT_NE(through_cache->stats.cache, CacheOutcome::kUncached)
                << context;
            EXPECT_NE(through_cache->stats.cache, CacheOutcome::kMiss)
                << context;

            // The prepared handle shares the entry: by now revalidated,
            // so executing it must be a pure hit — and still identical.
            auto via_handle = cached.Run(prepared[i], db);
            ASSERT_TRUE(via_handle.ok()) << context << ": " << via_handle.error();
            EXPECT_EQ(via_handle->relation.flat(), want->relation.flat())
                << context << " (prepared)";
            ExpectIdenticalStats(want->stats, via_handle->stats,
                                 context + " (prepared)");
            EXPECT_EQ(via_handle->stats.cache, CacheOutcome::kHit) << context;
          }
        }
        // Every run after the warm-up Prepares was served by the cache.
        const SharedPlanCache* cache = cached.plan_cache();
        ASSERT_NE(cache, nullptr) << what;
        EXPECT_EQ(cache->stats().misses, exprs.size()) << what;
        EXPECT_GT(cache->stats().hits, 0u) << what;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Outcome provenance: miss → hit → revalidated/repicked transitions.
// ---------------------------------------------------------------------------

TEST(PlanCache, OutcomeTransitionsAcrossMutations) {
  auto db = setalg::testing::DivisionDb(
      MakeRel(2, {{1, 10}, {1, 20}, {2, 10}, {3, 20}}), MakeRel(1, {{10}, {20}}));
  EngineOptions options = EngineOptions::CostBased();
  options.shared_plan_cache = std::make_shared<SharedPlanCache>(4, 0);
  const Engine engine(options);
  const auto expr = setjoin::ClassicDivisionExpr("R", "S");

  auto first = engine.Run(expr, db);
  ASSERT_TRUE(first.ok()) << first.error();
  EXPECT_EQ(first->stats.cache, CacheOutcome::kMiss);

  auto second = engine.Run(expr, db);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.cache, CacheOutcome::kHit);

  // A structurally equal but distinct tree shares the entry.
  auto clone = engine.Run(setjoin::ClassicDivisionExpr("R", "S"), db);
  ASSERT_TRUE(clone.ok());
  EXPECT_EQ(clone->stats.cache, CacheOutcome::kHit);

  // Any mutation moves the version vector: the next run re-costs.
  db.mutable_relation("R")->Add({4, 10});
  auto third = engine.Run(expr, db);
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->stats.cache == CacheOutcome::kRevalidated ||
              third->stats.cache == CacheOutcome::kRepicked)
      << CacheOutcomeToString(third->stats.cache);

  auto fourth = engine.Run(expr, db);
  ASSERT_TRUE(fourth.ok());
  EXPECT_EQ(fourth->stats.cache, CacheOutcome::kHit);

  const SharedPlanCache::Stats& stats = engine.plan_cache()->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.revalidations, 1u);
}

// ---------------------------------------------------------------------------
// A plan whose options read no statistics is never lowered again: its
// revalidation keeps the very same operator objects.
// ---------------------------------------------------------------------------

TEST(PlanCache, RevalidationWithoutFlipKeepsTheSamePlanObjects) {
  auto db = setalg::testing::DivisionDb(
      MakeRel(2, {{1, 10}, {2, 20}, {3, 10}}), MakeRel(1, {{10}}));
  EngineOptions options;  // Fixed algorithm: nothing can flip.
  options.shared_plan_cache = std::make_shared<SharedPlanCache>(2, 0);
  const Engine engine(options);
  const auto expr = setjoin::ClassicDivisionExpr("R", "S");

  auto handle = engine.Prepare(expr, db);
  ASSERT_TRUE(handle.ok()) << handle.error();
  const PhysicalOp* root_before = handle->plan().root.get();
  const stats::VersionVector versions_before = handle->versions();

  db.mutable_relation("R")->Add({5, 10});
  auto run = engine.Run(*handle, db);
  ASSERT_TRUE(run.ok()) << run.error();
  EXPECT_EQ(run->stats.cache, CacheOutcome::kRevalidated);
  EXPECT_EQ(handle->plan().root.get(), root_before)
      << "a flip-free revalidation must not rebuild any operator";
  EXPECT_NE(handle->versions(), versions_before)
      << "revalidation must advance the handle's version vector";
}

// A planned plan holds two divisions: one over stored R (so sort-merge)
// and one over the derived π_{2,1}(T) (so hash division).
// Revalidated across commits to R, S and T, the cached plan must render,
// run and report exactly like a fresh lowering against the new versions,
// with neither plan carrying an estimate.
TEST(PlanCache, PlannedRevalidationEqualsAFreshLowering) {
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 1);
  schema.AddRelation("T", 2);
  core::Database db(schema);
  db.SetRelation("R", workload::UniformBinaryRelation(200, 12, 3));
  db.SetRelation("S", MakeRel(1, {{2}, {5}}));
  db.SetRelation("T", workload::UniformBinaryRelation(200, 12, 4));
  const auto over = [](const ra::ExprPtr& r) {
    const ra::ExprPtr s = ra::Rel("S", 1);
    const ra::ExprPtr candidates = ra::Project(r, {1});
    return ra::Diff(candidates,
                    ra::Project(ra::Diff(ra::Product(candidates, s), r), {1}));
  };
  const auto expr = ra::Union(over(ra::Rel("R", 2)),
                              over(ra::Project(ra::Rel("T", 2), {2, 1})));
  EngineOptions options;
  options.shared_plan_cache = std::make_shared<SharedPlanCache>(4, 0);
  const Engine cached(options);
  const Engine fresh(EngineOptions{});
  util::Rng rng(BaseSeed());
  for (int step = 0; step < 6; ++step) {
    auto run = cached.Run(expr, db);
    auto want = fresh.Run(expr, db);
    ASSERT_TRUE(run.ok()) << run.error();
    ASSERT_TRUE(want.ok()) << want.error();
    const std::string context = "step " + std::to_string(step);
    EXPECT_EQ(run->stats.cache, step == 0 ? CacheOutcome::kMiss
                                          : CacheOutcome::kRevalidated)
        << context;
    EXPECT_EQ(run->relation, want->relation) << context;
    ExpectIdenticalStats(want->stats, run->stats, context);
    auto resident = cached.Prepare(expr, db);
    auto lowered = fresh.Plan(expr, db);
    ASSERT_TRUE(resident.ok()) << resident.error();
    ASSERT_TRUE(lowered.ok()) << lowered.error();
    EXPECT_EQ(resident->plan().ToString(), lowered->ToString()) << context;
    EXPECT_TRUE(resident->plan().estimates.empty()) << context;
    EXPECT_NE(lowered->ToString().find("division[sort-merge]"), std::string::npos)
        << lowered->ToString();
    EXPECT_NE(lowered->ToString().find("division[hash-division]"), std::string::npos)
        << lowered->ToString();
    const char* relation = step % 3 == 0 ? "R" : step % 3 == 1 ? "S" : "T";
    core::Relation* target = db.mutable_relation(relation);
    if (target->arity() == 1) {
      target->Add({static_cast<core::Value>(1 + rng.NextBounded(12))});
    } else {
      target->Add({static_cast<core::Value>(1 + rng.NextBounded(12)),
                   static_cast<core::Value>(1 + rng.NextBounded(12))});
    }
  }
}

// ---------------------------------------------------------------------------
// Repick: a bulk load flips the cost-based division choice, and lowering
// the cached plan again picks the new kernel.
// ---------------------------------------------------------------------------

TEST(PlanCache, BulkLoadRepicksTheDivisionAlgorithm) {
  // Tiny instance: the cost model picks a small-input algorithm.
  auto db = setalg::testing::DivisionDb(
      MakeRel(2, {{1, 10}, {1, 20}, {2, 10}}), MakeRel(1, {{10}, {20}}));
  EngineOptions options = EngineOptions::CostBased();
  options.shared_plan_cache = std::make_shared<SharedPlanCache>(4, 0);
  const Engine engine(options);
  const Engine fresh(EngineOptions::CostBased());
  const auto expr = setjoin::ClassicDivisionExpr("R", "S");

  auto handle = engine.Prepare(expr, db);
  ASSERT_TRUE(handle.ok()) << handle.error();
  ASSERT_EQ(handle->plan().choice_points.size(), 1u);
  const auto small_algorithm = handle->plan().choice_points[0].division_algorithm;

  // Bulk-load to the shape the model prices for hash division (the bench
  // regime: many groups, wide domain).
  workload::DivisionConfig config;
  config.num_groups = 2000;
  config.group_size = 8;
  config.domain_size = 4000;
  config.divisor_size = 250;
  config.seed = 17;
  const auto instance = workload::MakeDivisionInstance(config);
  db.SetRelation("R", instance.r);
  db.SetRelation("S", instance.s);

  auto run = engine.Run(*handle, db);
  ASSERT_TRUE(run.ok()) << run.error();
  auto want = fresh.Run(expr, db);
  ASSERT_TRUE(want.ok()) << want.error();
  EXPECT_EQ(run->relation, want->relation);

  const auto big_algorithm = handle->plan().choice_points[0].division_algorithm;
  ASSERT_NE(big_algorithm, small_algorithm)
      << "the bulk load was chosen to flip the division decision; if the "
         "cost model changed, adjust the shapes so a flip still occurs";
  EXPECT_EQ(run->stats.cache, CacheOutcome::kRepicked);
  // The re-pick is observable exactly like a fresh lowering's choice.
  ASSERT_FALSE(run->stats.choices.empty());
  EXPECT_EQ(run->stats.choices[0].algorithm,
            setjoin::DivisionAlgorithmToString(big_algorithm));
  ASSERT_FALSE(want->stats.choices.empty());
  EXPECT_EQ(run->stats.choices[0].algorithm, want->stats.choices[0].algorithm);

  // And the flipped decision is sticky: the next run is a pure hit.
  auto again = engine.Run(*handle, db);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->stats.cache, CacheOutcome::kHit);
}

// The triangle query R(a,b) ⋈ S(b,c) ⋈ T(c,a) over 50 random edges per
// relation from a wide domain: the written binary chain's intermediates
// stay far under the AGM bound, so a fresh lowering keeps it.
void LoadSparseTriangle(core::Database* db, std::uint64_t seed) {
  util::Rng rng(seed);
  for (const char* name : {"R", "S", "T"}) {
    core::Relation edges(2);
    for (std::size_t i = 0; i < 50; ++i) {
      edges.Add({static_cast<core::Value>(1 + rng.NextBounded(1000)),
                 static_cast<core::Value>(1 + rng.NextBounded(1000))});
    }
    db->SetRelation(name, std::move(edges));
  }
}

// The skewed triangle instance, where a binary chain materializes 400,000
// rows and the multiway join's largest intermediate is 19,520.
void LoadSkewedTriangle(core::Database* db) {
  const core::Database skewed = workload::SqlTriangleDatabase(2000, 10, 1);
  for (const char* name : {"R", "S", "T"}) {
    db->SetRelation(name, skewed.relation(name));
  }
}

// A bulk load that changes which side of the AGM bound a cached join
// chain falls on re-routes it, in both directions: the cached run reports
// repicked and matches a fresh lowering in every stat.
TEST(PlanCache, BulkLoadReroutesACachedJoinChain) {
  constexpr std::size_t kThreadCounts[] = {1, 2, 7};
  const ra::ExprPtr expr = workload::TriangleSqlPair().expr;
  for (const Mode& mode : {Mode{"multiway", EngineOptions{}.WithMultiway()},
                           Mode{"cost-based multiway",
                                EngineOptions::CostBased().WithMultiway()}}) {
    for (std::size_t threads : kThreadCounts) {
      const EngineOptions options = mode.options.WithThreads(threads);
      const Engine cached(options.WithSharedCaches(
          std::make_shared<SharedPlanCache>(4, 0), nullptr));
      const Engine fresh(options);
      const std::string what = mode.name + " threads=" + std::to_string(threads);
      core::Schema schema;
      for (const char* name : {"R", "S", "T"}) schema.AddRelation(name, 2);
      core::Database db(schema);
      LoadSparseTriangle(&db, BaseSeed());
      auto first = cached.Run(expr, db);
      ASSERT_TRUE(first.ok()) << what << ": " << first.error();
      EXPECT_EQ(first->stats.cache, CacheOutcome::kMiss) << what;

      for (const bool skewed : {true, false}) {
        const std::string context = what + (skewed ? " to skewed" : " to sparse");
        if (skewed) {
          LoadSkewedTriangle(&db);
        } else {
          LoadSparseTriangle(&db, BaseSeed() + 1);
        }
        auto run = cached.Run(expr, db);
        auto want = fresh.Run(expr, db);
        ASSERT_TRUE(run.ok()) << context << ": " << run.error();
        ASSERT_TRUE(want.ok()) << context << ": " << want.error();
        EXPECT_EQ(run->stats.cache, CacheOutcome::kRepicked) << context;
        EXPECT_EQ(run->relation, want->relation) << context;
        ExpectIdenticalStats(want->stats, run->stats, context);
        if (skewed) {
          EXPECT_EQ(run->stats.max_intermediate, 19520u) << context;
        }
      }
    }
  }
}

TEST(PlanCache, RepickRechargesTheByteAccounting) {
  // A repick lowers the plan again into a new entry and publishes it in
  // the old one's place; the cache must charge the new entry's bytes, or
  // the stale charge drifts on eviction and eventually underflows bytes_
  // (after which a byte-budgeted cache evicts everything forever).
  auto db = setalg::testing::DivisionDb(
      MakeRel(2, {{1, 10}, {1, 20}, {2, 10}}), MakeRel(1, {{10}, {20}}));
  EngineOptions options = EngineOptions::CostBased();
  options.shared_plan_cache = std::make_shared<SharedPlanCache>(1, 0);
  const Engine engine(options);
  const auto division = setjoin::ClassicDivisionExpr("R", "S");

  auto handle = engine.Prepare(division, db);
  ASSERT_TRUE(handle.ok()) << handle.error();

  workload::DivisionConfig config;
  config.num_groups = 2000;
  config.group_size = 8;
  config.domain_size = 4000;
  config.divisor_size = 250;
  config.seed = 17;
  const auto instance = workload::MakeDivisionInstance(config);
  db.SetRelation("R", instance.r);
  db.SetRelation("S", instance.s);
  auto repicked = engine.Run(*handle, db);
  ASSERT_TRUE(repicked.ok());
  ASSERT_EQ(repicked->stats.cache, CacheOutcome::kRepicked);
  // The published copy replaced the resident entry at its new size; the
  // cache's total must track it exactly.
  EXPECT_EQ(engine.plan_cache()->bytes(), handle->approx_bytes());

  // Evicting the republished entry (capacity 1) must leave the total equal
  // to the surviving entry's charge — any drift (or a size_t wrap)
  // breaks this equality.
  auto other = engine.Prepare(ra::Project(ra::Rel("R", 2), {1}), db);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(engine.plan_cache()->size(), 1u);
  EXPECT_EQ(engine.plan_cache()->bytes(), other->approx_bytes());
}

TEST(PlanCache, DetachedHandBuiltHandlesDoNotPolluteCacheTallies) {
  // A hand-built-plan handle is never in the expression-keyed cache; its
  // runs must not inflate the cache's hit/revalidation tallies (they are
  // dashboard-facing: they count runs the cache actually served).
  auto db = setalg::testing::DivisionDb(
      MakeRel(2, {{1, 10}, {2, 20}}), MakeRel(1, {{10}}));
  EngineOptions options;
  options.shared_plan_cache = std::make_shared<SharedPlanCache>(4, 0);
  const Engine engine(options);

  PhysicalPlan plan;
  plan.root = MakeDivision(MakeScan("R", 2), MakeScan("S", 1),
                           setjoin::DivisionAlgorithm::kHashDivision,
                           /*equality=*/false);
  auto handle = engine.Prepare(std::move(plan), db);
  ASSERT_TRUE(handle.ok());
  for (int i = 0; i < 3; ++i) {
    auto run = engine.Run(*handle, db);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run->stats.cache, CacheOutcome::kHit);
  }
  db.mutable_relation("R")->Add({5, 10});
  ASSERT_TRUE(engine.Run(*handle, db).ok());

  const SharedPlanCache::Stats& stats = engine.plan_cache()->stats();
  EXPECT_EQ(engine.plan_cache()->size(), 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.revalidations, 0u);
}

// ---------------------------------------------------------------------------
// LRU budgets: entry-count and byte budgets evict, eviction never breaks
// an outstanding handle, and Clear() forgets without invalidating.
// ---------------------------------------------------------------------------

TEST(PlanCache, LruEvictsPastEntryBudget) {
  const auto db = setalg::testing::DivisionDb(
      MakeRel(2, {{1, 10}, {2, 20}}), MakeRel(1, {{10}}));
  EngineOptions options;
  options.shared_plan_cache = std::make_shared<SharedPlanCache>(2, 0);
  const Engine engine(options);

  const std::vector<ra::ExprPtr> exprs = {
      ra::Project(ra::Rel("R", 2), {1}),
      ra::Project(ra::Rel("R", 2), {2}),
      ra::Diff(ra::Rel("S", 1), ra::Project(ra::Rel("R", 2), {1})),
  };
  for (const auto& expr : exprs) {
    ASSERT_TRUE(engine.Run(expr, db).ok());
  }
  const SharedPlanCache* cache = engine.plan_cache();
  EXPECT_EQ(cache->size(), 2u);
  EXPECT_EQ(cache->stats().evictions, 1u);

  // The least-recently-used entry (exprs[0]) was evicted: re-running it
  // misses; the hottest (exprs[2]) still hits.
  auto hot = engine.Run(exprs[2], db);
  ASSERT_TRUE(hot.ok());
  EXPECT_EQ(hot->stats.cache, CacheOutcome::kHit);
  auto cold = engine.Run(exprs[0], db);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->stats.cache, CacheOutcome::kMiss);
}

TEST(PlanCache, ByteBudgetEvictionLeavesExecutingEntryAlive) {
  const auto db = setalg::testing::DivisionDb(
      MakeRel(2, {{1, 10}, {2, 20}, {3, 10}}), MakeRel(1, {{10}, {20}}));
  EngineOptions options;
  // Every entry exceeds the 1-byte budget: insert-then-evict.
  options.shared_plan_cache = std::make_shared<SharedPlanCache>(8, 1);
  const Engine engine(options);
  const auto expr = setjoin::ClassicDivisionExpr("R", "S");

  // The handle's entry is evicted the moment it is inserted — while the
  // caller is still holding (and about to execute) it.
  auto handle = engine.Prepare(expr, db);
  ASSERT_TRUE(handle.ok()) << handle.error();
  EXPECT_EQ(engine.plan_cache()->size(), 0u);
  EXPECT_GE(engine.plan_cache()->stats().evictions, 1u);

  auto run = engine.Run(*handle, db);
  ASSERT_TRUE(run.ok()) << run.error();
  EXPECT_EQ(run->stats.cache, CacheOutcome::kHit);
  EXPECT_EQ(run->relation,
            setjoin::Divide(db.relation("R"), db.relation("S"),
                            setjoin::DivisionAlgorithm::kHashDivision));

  // Transparent runs still work — each is a fresh miss (insert + evict).
  auto transparent = engine.Run(expr, db);
  ASSERT_TRUE(transparent.ok());
  EXPECT_EQ(transparent->stats.cache, CacheOutcome::kMiss);
}

TEST(PlanCache, ClearForgetsEntriesButHandlesSurvive) {
  auto db = setalg::testing::DivisionDb(
      MakeRel(2, {{1, 10}, {2, 20}}), MakeRel(1, {{10}}));
  EngineOptions options;
  options.shared_plan_cache = std::make_shared<SharedPlanCache>(4, 0);
  const Engine engine(options);
  const auto expr = setjoin::ClassicDivisionExpr("R", "S");

  auto handle = engine.Prepare(expr, db);
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(engine.Run(expr, db).ok());
  EXPECT_EQ(engine.plan_cache()->size(), 1u);

  engine.plan_cache()->Clear();
  EXPECT_EQ(engine.plan_cache()->size(), 0u);

  // The cleared cache misses and re-prepares...
  auto rerun = engine.Run(expr, db);
  ASSERT_TRUE(rerun.ok());
  EXPECT_EQ(rerun->stats.cache, CacheOutcome::kMiss);
  // ...while the pre-Clear handle still runs (and still revalidates).
  db.mutable_relation("R")->Add({7, 10});
  auto via_handle = engine.Run(*handle, db);
  ASSERT_TRUE(via_handle.ok());
  EXPECT_EQ(via_handle->stats.cache, CacheOutcome::kRevalidated);

  // Re-preparing shares the entry the transparent rerun re-inserted —
  // one entry, not two.
  auto reprepared = engine.Prepare(expr, db);
  ASSERT_TRUE(reprepared.ok());
  EXPECT_EQ(engine.plan_cache()->size(), 1u);
  auto hit = engine.Run(*reprepared, db);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->stats.cache, CacheOutcome::kHit);
}

// ---------------------------------------------------------------------------
// Prepared handles over hand-built plans (no logical form).
// ---------------------------------------------------------------------------

TEST(PlanCache, PreparedHandBuiltPlanRevalidatesOnMutation) {
  workload::SetJoinConfig config;
  config.r_groups = 20;
  config.s_groups = 15;
  config.domain_size = 12;
  config.containment_fraction = 0.3;
  config.seed = BaseSeed();
  const auto instance = workload::MakeSetJoinInstance(config);
  auto db = workload::SetJoinDatabase(instance);
  const Engine engine;

  PhysicalPlan plan;
  plan.root = MakeSetContainmentJoin(MakeScan("R", 2), MakeScan("S", 2),
                                     setjoin::ContainmentAlgorithm::kInvertedIndex);
  auto handle = engine.Prepare(std::move(plan), db);
  ASSERT_TRUE(handle.ok()) << handle.error();
  EXPECT_EQ(handle->expr(), nullptr);
  // The version vector covers exactly the scanned relations.
  ASSERT_EQ(handle->versions().size(), 2u);
  EXPECT_EQ(handle->versions()[0].first, "R");
  EXPECT_EQ(handle->versions()[1].first, "S");

  auto first = engine.Run(*handle, db);
  ASSERT_TRUE(first.ok()) << first.error();
  EXPECT_EQ(first->stats.cache, CacheOutcome::kHit);
  EXPECT_EQ(first->relation,
            setjoin::SetContainmentJoin(instance.r, instance.s,
                                        setjoin::ContainmentAlgorithm::kNestedLoop));

  db.mutable_relation("S")->Add({999, 1});
  auto second = engine.Run(*handle, db);
  ASSERT_TRUE(second.ok()) << second.error();
  EXPECT_EQ(second->stats.cache, CacheOutcome::kRevalidated);
  EXPECT_EQ(second->relation,
            setjoin::SetContainmentJoin(setjoin::GroupedRelation(db.relation("R")),
                                        setjoin::GroupedRelation(db.relation("S")),
                                        setjoin::ContainmentAlgorithm::kNestedLoop));
}

// ---------------------------------------------------------------------------
// Identity hygiene: the cache never crosses database ids, even when the
// relation names (and contents!) collide.
// ---------------------------------------------------------------------------

TEST(PlanCache, CollidingRelationNamesOnDifferentDatabasesNeverShareEntries) {
  const auto db1 = setalg::testing::DivisionDb(
      MakeRel(2, {{1, 10}, {1, 20}, {2, 10}}), MakeRel(1, {{10}, {20}}));
  const auto db2 = setalg::testing::DivisionDb(
      MakeRel(2, {{7, 70}, {8, 70}}), MakeRel(1, {{70}}));
  ASSERT_NE(db1.id(), db2.id());

  EngineOptions options;
  options.shared_plan_cache = std::make_shared<SharedPlanCache>(8, 0);
  const Engine engine(options);
  const auto expr = setjoin::ClassicDivisionExpr("R", "S");

  auto run1 = engine.Run(expr, db1);
  ASSERT_TRUE(run1.ok());
  EXPECT_EQ(run1->stats.cache, CacheOutcome::kMiss);

  // Same expression, same relation names, different database: a separate
  // entry (miss), never a stale hit on db1's plan/costs.
  auto run2 = engine.Run(expr, db2);
  ASSERT_TRUE(run2.ok());
  EXPECT_EQ(run2->stats.cache, CacheOutcome::kMiss);
  EXPECT_EQ(engine.plan_cache()->size(), 2u);
  EXPECT_EQ(run2->relation, MakeRel(1, {{7}, {8}}));

  // Both entries hit independently afterwards.
  EXPECT_EQ(engine.Run(expr, db1)->stats.cache, CacheOutcome::kHit);
  EXPECT_EQ(engine.Run(expr, db2)->stats.cache, CacheOutcome::kHit);

  // A prepared handle follows its database id: handed the other database
  // it falls back to that database's own (transparent) entry.
  auto handle = engine.Prepare(expr, db1);
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(handle->database_id(), db1.id());
  auto crossed = engine.Run(*handle, db2);
  ASSERT_TRUE(crossed.ok());
  EXPECT_EQ(crossed->relation, MakeRel(1, {{7}, {8}}));
  EXPECT_EQ(crossed->stats.cache, CacheOutcome::kHit);
}

// ---------------------------------------------------------------------------
// Result cache: whole-result replay, invalidation, keying.
// ---------------------------------------------------------------------------

// The result-cache differential: across randomized mutation/execution
// interleavings, a warm engine wired to the process-wide caches returns
// results and stats byte-identical to a fresh cache-free engine, and the
// second touch of any (expression, unchanged data) pair is a whole-result
// replay (cache = kResultHit).
TEST(ResultCacheTest, DifferentialUnderRandomizedMutations) {
  const std::uint64_t base = BaseSeed();
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 1);

  for (std::uint64_t seed = base; seed < base + 2; ++seed) {
    setalg::testing::RandomSaEqGenerator generator(schema, {1, 2, 3}, seed * 719);
    const std::vector<ra::ExprPtr> exprs = {
        setjoin::ClassicDivisionExpr("R", "S"),
        setjoin::ClassicEqualityDivisionExpr("R", "S"),
        generator.Generate(1, 3),
    };
    for (const Mode& mode : AllModes()) {
      const EngineOptions options = mode.options.WithBatchSize(7);
      EngineOptions cached_options = options;
      cached_options.shared_plan_cache =
          std::make_shared<SharedPlanCache>(16, 0);
      const auto results = std::make_shared<ResultCache>(16, 1u << 20);
      cached_options.result_cache = results;
      const Engine cached(cached_options);
      const Engine fresh(options);
      const std::string what = mode.name + " seed=" + std::to_string(seed);

      auto db = setalg::testing::RandomDatabase(schema, 40, 12, seed);
      util::Rng rng(seed * 1013);
      for (int step = 0; step < 5; ++step) {
        MutateDatabase(&db, &rng, seed, step);
        for (std::size_t i = 0; i < exprs.size(); ++i) {
          const std::string context = what + " step=" + std::to_string(step) +
                                      " expr=" + std::to_string(i);
          auto want = fresh.Run(exprs[i], db);
          ASSERT_TRUE(want.ok()) << context << ": " << want.error();
          ASSERT_EQ(want->stats.cache, CacheOutcome::kUncached);

          // First touch after the mutation: may be served any way —
          // including a result hit, when the mutation happened to leave
          // this expression's read set untouched — but never silently
          // stale: identical to the fresh run or bust.
          auto first = cached.Run(exprs[i], db);
          ASSERT_TRUE(first.ok()) << context << ": " << first.error();
          EXPECT_EQ(first->relation.flat(), want->relation.flat())
              << context << " (first)";
          ExpectIdenticalStats(want->stats, first->stats, context + " (first)");

          // Second touch with no intervening mutation: whole-result
          // replay, still byte-identical.
          auto second = cached.Run(exprs[i], db);
          ASSERT_TRUE(second.ok()) << context << ": " << second.error();
          EXPECT_EQ(second->stats.cache, CacheOutcome::kResultHit) << context;
          EXPECT_EQ(second->relation.flat(), want->relation.flat())
              << context << " (second)";
          ExpectIdenticalStats(want->stats, second->stats,
                               context + " (second)");
        }
      }
      EXPECT_GT(results->stats().hits, 0u) << what;
      EXPECT_GT(results->stats().insertions, 0u) << what;
    }
  }
}

// The invalidation law, deterministically: a result hit can never survive
// a version-vector change on any relation the expression reads — and is
// unaffected by mutations outside its read set. Also pins down the
// options-fingerprint keying: engines with different semantics never
// share a stored result.
TEST(ResultCacheTest, HitNeverSurvivesVersionVectorChange) {
  auto db = setalg::testing::DivisionDb(
      MakeRel(2, {{1, 10}, {1, 20}, {2, 10}, {3, 20}}), MakeRel(1, {{10}, {20}}));
  const auto results = std::make_shared<ResultCache>(8, 0);
  EngineOptions options;
  options.result_cache = results;
  const Engine engine(options);

  const auto division = setjoin::ClassicDivisionExpr("R", "S");
  auto run1 = engine.Run(division, db);
  ASSERT_TRUE(run1.ok());
  EXPECT_EQ(run1->stats.cache, CacheOutcome::kUncached);
  EXPECT_EQ(run1->relation, MakeRel(1, {{1}}));

  auto run2 = engine.Run(division, db);
  ASSERT_TRUE(run2.ok());
  EXPECT_EQ(run2->stats.cache, CacheOutcome::kResultHit);
  EXPECT_EQ(run2->relation, MakeRel(1, {{1}}));
  EXPECT_EQ(results->stats().hits, 1u);
  EXPECT_EQ(results->stats().invalidations, 0u);

  // Mutate the dividend: the stored vector is stale, the entry must die.
  db.mutable_relation("R")->Add({2, 20});
  auto run3 = engine.Run(division, db);
  ASSERT_TRUE(run3.ok());
  EXPECT_NE(run3->stats.cache, CacheOutcome::kResultHit);
  EXPECT_EQ(run3->relation, MakeRel(1, {{1}, {2}}));
  EXPECT_EQ(results->stats().invalidations, 1u);

  // The re-inserted result serves hits again...
  auto run4 = engine.Run(division, db);
  ASSERT_TRUE(run4.ok());
  EXPECT_EQ(run4->stats.cache, CacheOutcome::kResultHit);
  EXPECT_EQ(run4->relation, MakeRel(1, {{1}, {2}}));

  // ...until the divisor moves: every relation in the read set counts.
  db.SetRelation("S", MakeRel(1, {{10}}));
  auto run5 = engine.Run(division, db);
  ASSERT_TRUE(run5.ok());
  EXPECT_NE(run5->stats.cache, CacheOutcome::kResultHit);
  EXPECT_EQ(results->stats().invalidations, 2u);

  // A projection reading only R is untouched by divisor churn.
  const auto r_only = ra::Project(ra::Rel("R", 2), {1});
  ASSERT_TRUE(engine.Run(r_only, db).ok());
  db.SetRelation("S", MakeRel(1, {{20}}));
  auto r_only_hit = engine.Run(r_only, db);
  ASSERT_TRUE(r_only_hit.ok());
  EXPECT_EQ(r_only_hit->stats.cache, CacheOutcome::kResultHit);

  // A second engine with different semantics shares the cache object but
  // not the entries: the options fingerprint partitions the key space.
  EngineOptions budgeted_options = options;
  budgeted_options.max_intermediate_budget = 1000;
  ASSERT_NE(OptionsFingerprint(budgeted_options), OptionsFingerprint(options));
  const Engine budgeted(budgeted_options);
  auto cross = budgeted.Run(division, db);
  ASSERT_TRUE(cross.ok());
  EXPECT_NE(cross->stats.cache, CacheOutcome::kResultHit);
  auto plain = Engine().Run(division, db);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(cross->relation.flat(), plain->relation.flat());
}

// The plan cache's provenance contract holds across engines: a plan
// lowered by one engine serves hits/revalidations to every engine wired
// to the cache.
TEST(SharedPlanCacheTest, SharedAcrossEnginesWithProvenance) {
  auto db = setalg::testing::DivisionDb(
      MakeRel(2, {{1, 10}, {1, 20}, {2, 10}}), MakeRel(1, {{10}, {20}}));
  const auto shared = std::make_shared<SharedPlanCache>(8, 0);
  EngineOptions options = EngineOptions::CostBased();
  options.shared_plan_cache = shared;
  const Engine a(options);
  const Engine b(options);
  const Engine fresh(EngineOptions::CostBased());

  const auto division = setjoin::ClassicDivisionExpr("R", "S");
  auto miss = a.Run(division, db);
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss->stats.cache, CacheOutcome::kMiss);
  EXPECT_EQ(shared->stats().misses, 1u);

  // The other engine hits the plan the first one lowered.
  auto hit = b.Run(division, db);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->stats.cache, CacheOutcome::kHit);
  EXPECT_EQ(hit->relation, miss->relation);
  EXPECT_GE(shared->stats().hits, 1u);

  // After a mutation the entry re-costs (revalidated, or repicked when a
  // cost choice flips) — and stays bit-identical to a cache-free run.
  db.SetRelation("R", workload::UniformBinaryRelation(200, 5, BaseSeed() * 7 + 1));
  auto revalidated = b.Run(division, db);
  ASSERT_TRUE(revalidated.ok());
  EXPECT_TRUE(revalidated->stats.cache == CacheOutcome::kRevalidated ||
              revalidated->stats.cache == CacheOutcome::kRepicked)
      << CacheOutcomeToString(revalidated->stats.cache);
  auto want = fresh.Run(division, db);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(revalidated->relation.flat(), want->relation.flat());
  ExpectIdenticalStats(want->stats, revalidated->stats, "shared revalidation");

  // The republished entry is warm again for everyone.
  auto warm = a.Run(division, db);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->stats.cache, CacheOutcome::kHit);
}

// Budgets bound the whole cache, however its keys spread over stripes:
// neither process-wide cache ever holds more entries than it was given.
// Each run below is on a copy of the database, so each uses a new key.
TEST(SharedPlanCacheTest, NeverHoldsMoreEntriesThanItsBudget) {
  const auto original = setalg::testing::DivisionDb(
      MakeRel(2, {{1, 10}, {1, 20}, {2, 10}}), MakeRel(1, {{10}, {20}}));
  const auto division = setjoin::ClassicDivisionExpr("R", "S");
  // 100 and 257 split over 2 and 8 stripes.
  for (const std::size_t cap : {1u, 2u, 3u, 5u, 9u, 40u, 100u, 257u}) {
    const auto plans = std::make_shared<SharedPlanCache>(cap, 0);
    const auto results = std::make_shared<ResultCache>(cap, 0);
    const Engine engine(EngineOptions{}.WithSharedCaches(plans, results));
    for (std::size_t i = 0; i < 2 * cap + 16; ++i) {
      const core::Database copy = original;  // Fresh id: a new key.
      ASSERT_TRUE(engine.Run(division, copy).ok());
      ASSERT_LE(plans->size(), cap) << "cap=" << cap << " run " << i;
      ASSERT_LE(results->size(), cap) << "cap=" << cap << " run " << i;
    }
  }
  // The serving caches (setalgd, raq --sessions) keep 8 stripes.
  EXPECT_EQ(SharedPlanCache(256, 0).stripes(), 8u);
}

}  // namespace
}  // namespace setalg::engine
