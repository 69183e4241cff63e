// Differential/property harness for the engine's pipelined executor,
// serial and parallel: every plan must produce the results (sorted,
// set-semantics) and per-operator PlanStats row counts of the
// materializing reference (engine::RunMaterialized) — at every batch size
// (including the degenerate size 1 and the off-power-of-two 7 that
// exercise batch-boundary carry-over) and at every thread count in
// {1, 2, 7} (1 is the serial run, 2 a minimal pool, 7 an off-power-of-two
// pool). An operator splits only inputs of at least two
// engine::kMinPartitionRows floors, so the randomized workloads run
// serial under every pool, and the hand-built plans hold one input above
// the floor for each partitioned operator kind — division, the set joins,
// the fast semijoin and the multiway join — whose pooled runs must fan out.
//
// The suite reads SETALG_BATCH_SEED (default 1) as the base of its seed
// range; CI runs it under ASan/UBSan and under ThreadSanitizer with a
// fixed seed matrix so batch-boundary lifetime bugs and cross-thread
// races surface across distinct randomized workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "engine/multiway.h"
#include "engine/parallel.h"
#include "ra/eval.h"
#include "ra/expr.h"
#include "ra/rewrite.h"
#include "setjoin/division.h"
#include "setjoin/grouped.h"
#include "setjoin/setjoin.h"
#include "test_util.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace setalg::engine {
namespace {

using core::Relation;
using setalg::testing::MakeRel;

constexpr std::size_t kBatchSizes[] = {1, 2, 7, 1024};

// Thread counts of the differential matrix (see the file comment).
constexpr std::size_t kThreadCounts[] = {1, 2, 7};

std::uint64_t BaseSeed() {
  const char* env = std::getenv("SETALG_BATCH_SEED");
  if (env == nullptr) return 1;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(env, &end, 10);
  return (end == env || value == 0) ? 1 : static_cast<std::uint64_t>(value);
}

// Asserts that the pipelined run reproduced the materializing reference's
// per-operator instrumentation exactly: same operators in the same
// post-order, same (distinct) output cardinalities, same aggregates.
void ExpectSameStats(const PlanStats& expected, const PlanStats& actual,
                     const std::string& context) {
  EXPECT_EQ(actual.max_intermediate, expected.max_intermediate) << context;
  EXPECT_EQ(actual.total_intermediate, expected.total_intermediate) << context;
  EXPECT_EQ(actual.join_rows_emitted, expected.join_rows_emitted) << context;
  ASSERT_EQ(actual.ops.size(), expected.ops.size()) << context;
  for (std::size_t i = 0; i < expected.ops.size(); ++i) {
    EXPECT_EQ(actual.ops[i].label, expected.ops[i].label) << context << " op " << i;
    EXPECT_EQ(actual.ops[i].source, expected.ops[i].source) << context << " op " << i;
    EXPECT_EQ(actual.ops[i].output_size, expected.ops[i].output_size)
        << context << " op " << i << " (" << expected.ops[i].label << ")";
  }
}

// Plan-cache leg of the harness: a shared Engine with the plan cache
// enabled runs `expr` twice under `options` — the first run populates the
// cache (miss), the second is served from it (hit). Both must match the
// reference relation and row counts, and the hit must be byte-identical
// to the miss on every stat the run reports, including the parallel and
// batch accounting (partitions, batches_emitted, peak_batch_bytes).
void ExpectCachedRunsMatch(const EngineOptions& options, const ra::ExprPtr& expr,
                           const core::Database& db,
                           const core::Relation& expected_relation,
                           const PlanStats& expected_stats,
                           const std::string& context) {
  EngineOptions cached_options = options;
  cached_options.shared_plan_cache = std::make_shared<SharedPlanCache>(4, 0);
  const Engine cached(cached_options);
  auto miss = cached.Run(expr, db);
  ASSERT_TRUE(miss.ok()) << context << ": " << miss.error();
  ASSERT_EQ(miss->stats.cache, CacheOutcome::kMiss) << context;
  auto hit = cached.Run(expr, db);
  ASSERT_TRUE(hit.ok()) << context << ": " << hit.error();
  ASSERT_EQ(hit->stats.cache, CacheOutcome::kHit) << context;
  for (const auto* run : {&*miss, &*hit}) {
    EXPECT_EQ(run->relation, expected_relation) << context;
    ExpectSameStats(expected_stats, run->stats, context);
  }
  // Hit path vs miss path: byte-identical, parallel accounting included.
  EXPECT_EQ(hit->relation.flat(), miss->relation.flat()) << context;
  EXPECT_EQ(hit->stats.partitions, miss->stats.partitions) << context;
  EXPECT_EQ(hit->stats.batches_emitted, miss->stats.batches_emitted) << context;
  EXPECT_EQ(hit->stats.peak_batch_bytes, miss->stats.peak_batch_bytes) << context;
  EXPECT_EQ(hit->stats.threads_used, miss->stats.threads_used) << context;
}

// Lowers `expr` once under `base` options and executes the same plan
// through the materializing reference and through the engine at every
// (threads × batch size) point of the differential matrix, asserting
// results and PlanStats row counts identical to the reference at every
// point. At one batch size per thread count the workload additionally
// runs through a shared Engine with the plan cache enabled (see
// ExpectCachedRunsMatch).
void ExpectBatchedMatches(const EngineOptions& base, const ra::ExprPtr& expr,
                          const core::Database& db, const std::string& context) {
  const Engine planner(base);
  auto plan = base.cost_based ? planner.Plan(expr, db) : planner.Plan(expr, db.schema());
  ASSERT_TRUE(plan.ok()) << context << ": " << plan.error();
  const RunResult expected = RunMaterialized(*plan, db);

  for (std::size_t threads : kThreadCounts) {
    for (std::size_t batch_size : kBatchSizes) {
      const EngineOptions options = base.WithThreads(threads).WithBatchSize(batch_size);
      const Engine batched(options);
      auto run = batched.Run(*plan, db);
      const std::string what = context + " batch_size=" +
                               std::to_string(batch_size) +
                               " threads=" + std::to_string(threads);
      ASSERT_TRUE(run.ok()) << what << ": " << run.error();
      EXPECT_EQ(run->relation, expected.relation) << what;
      ExpectSameStats(expected.stats, run->stats, what);
      EXPECT_EQ(run->stats.batch_size, batch_size);
      EXPECT_EQ(run->stats.threads_used, threads) << what;
      if (!expected.relation.empty()) {
        EXPECT_GT(run->stats.batches_emitted, 0u) << what;
        EXPECT_GT(run->stats.peak_batch_bytes, 0u) << what;
      }
      if (batch_size == 7) {
        ExpectCachedRunsMatch(options, expr, db, expected.relation, expected.stats,
                              what + " plan-cache");
      }
    }
  }
}

// The three planning modes the harness drives every workload through.
std::vector<std::pair<std::string, EngineOptions>> AllModes() {
  return {{"reference", EngineOptions::Reference()},
          {"planned", EngineOptions{}},
          {"cost-based", EngineOptions::CostBased()}};
}

// ---------------------------------------------------------------------------
// Randomized expressions over random databases.
// ---------------------------------------------------------------------------

TEST(BatchExec, DifferentialOnRandomSaExpressions) {
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 1);
  schema.AddRelation("T", 2);
  const std::uint64_t base = BaseSeed();
  for (std::uint64_t seed = base; seed < base + 4; ++seed) {
    const auto db = setalg::testing::RandomDatabase(schema, 30, 12, seed);
    setalg::testing::RandomSaEqGenerator generator(schema, {1, 2, 3}, seed * 97);
    for (int trial = 0; trial < 6; ++trial) {
      const auto expr = generator.Generate(1 + trial % 2, 3);
      for (const auto& [name, options] : AllModes()) {
        ExpectBatchedMatches(options, expr, db,
                             name + " seed " + std::to_string(seed) + " expr " +
                                 expr->ToString());
      }
    }
  }
}

TEST(BatchExec, DifferentialOnJoinFormsOfRandomExpressions) {
  // The RA embedding of semijoins yields π(⋈) shapes — the planner's
  // semijoin reduction plus the join iterator's spill path get exercised.
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 1);
  const std::uint64_t base = BaseSeed();
  for (std::uint64_t seed = base + 10; seed < base + 13; ++seed) {
    const auto db = setalg::testing::RandomDatabase(schema, 24, 10, seed);
    setalg::testing::RandomSaEqGenerator generator(schema, {1, 2}, seed * 131);
    for (int trial = 0; trial < 5; ++trial) {
      const auto expr = ra::SemiJoinToJoin(generator.Generate(1, 3));
      for (const auto& [name, options] : AllModes()) {
        ExpectBatchedMatches(options, expr, db,
                             name + " seed " + std::to_string(seed) + " expr " +
                                 expr->ToString());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Division workloads (the paper's shapes) through all planning modes.
// ---------------------------------------------------------------------------

TEST(BatchExec, DifferentialOnDivisionWorkloads) {
  const std::uint64_t base = BaseSeed();
  for (std::uint64_t seed = base; seed < base + 3; ++seed) {
    workload::DivisionConfig config;
    config.num_groups = 20 + 15 * (seed % 3);
    config.group_size = 2 + seed % 5;
    config.domain_size = 16 + 8 * (seed % 4);
    config.divisor_size = 2 + seed % 6;
    config.match_fraction = 0.3;
    config.seed = seed;
    const auto instance = workload::MakeDivisionInstance(config);
    const auto db = setalg::testing::DivisionDb(instance.r, instance.s);
    for (const auto& expr : {setjoin::ClassicDivisionExpr("R", "S"),
                             setjoin::ClassicEqualityDivisionExpr("R", "S")}) {
      for (const auto& [name, options] : AllModes()) {
        ExpectBatchedMatches(options, expr, db,
                             name + " division seed " + std::to_string(seed));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The workload::generators database families.
// ---------------------------------------------------------------------------

TEST(BatchExec, DifferentialOnGeneratorFamilies) {
  const std::uint64_t base = BaseSeed();

  {
    const auto db = workload::DivisionFamilyDatabase(240, 6, base);
    for (const auto& [name, options] : AllModes()) {
      ExpectBatchedMatches(options, setjoin::ClassicDivisionExpr("R", "S"), db,
                           name + " division-family");
    }
  }
  {
    const auto db = workload::SparseBinaryDatabase(200, base + 1);
    setalg::testing::RandomSaEqGenerator generator(db.schema(), {1, 2}, base * 7);
    for (int trial = 0; trial < 4; ++trial) {
      const auto expr = generator.Generate(1 + trial % 2, 3);
      for (const auto& [name, options] : AllModes()) {
        ExpectBatchedMatches(options, expr, db, name + " sparse-binary");
      }
    }
  }
  {
    const auto db = workload::TwoRelationDatabase(150, base + 2);
    setalg::testing::RandomSaEqGenerator generator(db.schema(), {1, 2}, base * 11);
    for (int trial = 0; trial < 4; ++trial) {
      const auto expr = generator.Generate(2, 3);
      for (const auto& [name, options] : AllModes()) {
        ExpectBatchedMatches(options, expr, db, name + " two-relation");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Multiway join chains: the worst-case-optimal operator through the
// differential matrix, and against the binary plan.
// ---------------------------------------------------------------------------

// The triangle chain R(a,b) ⋈ S(b,c) ⋈ T(c,a), written the binary way.
ra::ExprPtr TriangleChainExpr() {
  return ra::Join(
      ra::Join(ra::Rel("R", 2), ra::Rel("S", 2), {{2, ra::Cmp::kEq, 1}}),
      ra::Rel("T", 2), {{4, ra::Cmp::kEq, 1}, {1, ra::Cmp::kEq, 2}});
}

// Skewed triangle data: R = X×Y and S = Y×Z are complete bipartite
// through a d-element middle domain Y, so the binary R⋈S intermediate is
// (n/d)·d·(n/d) = n²/d tuples — far past the AGM bound (n·n·n)^(1/2) —
// while T is n random (c, a) pairs keeping the output sparse. Value
// ranges are disjoint per variable so estimator distinct counts are exact.
core::Database TriangleChainDatabase(std::size_t n, std::size_t d,
                                     std::uint64_t seed) {
  const std::size_t side = n / d;
  core::Relation r(2), s(2), t(2);
  for (std::size_t x = 0; x < side; ++x) {
    for (std::size_t y = 0; y < d; ++y) {
      r.Add({static_cast<core::Value>(1 + x),
             static_cast<core::Value>(10001 + y)});
    }
  }
  for (std::size_t y = 0; y < d; ++y) {
    for (std::size_t z = 0; z < side; ++z) {
      s.Add({static_cast<core::Value>(10001 + y),
             static_cast<core::Value>(20001 + z)});
    }
  }
  util::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    t.Add({static_cast<core::Value>(20001 + rng.NextBounded(side)),
           static_cast<core::Value>(1 + rng.NextBounded(side))});
  }
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 2);
  schema.AddRelation("T", 2);
  core::Database db(schema);
  db.SetRelation("R", std::move(r));
  db.SetRelation("S", std::move(s));
  db.SetRelation("T", std::move(t));
  return db;
}

TEST(BatchExec, DifferentialOnMultiwayJoinChains) {
  const auto db = TriangleChainDatabase(300, 6, BaseSeed());
  const auto expr = TriangleChainExpr();
  const EngineOptions on = EngineOptions::CostBased().WithMultiway();
  const EngineOptions off = EngineOptions::CostBased();

  // The skew must actually flip the routing, or the leg below would
  // exercise nothing new.
  auto plan = Engine(on).Plan(expr, db);
  ASSERT_TRUE(plan.ok()) << plan.error();
  ASSERT_TRUE(plan->has_agm_bound);
  bool routed = false;
  for (const auto& choice : plan->choices) {
    if (choice.site == "join-chain" &&
        choice.algorithm.rfind("multiway", 0) == 0) {
      routed = true;
    }
  }
  ASSERT_TRUE(routed) << "triangle chain kept the binary plan";

  ExpectBatchedMatches(on, expr, db, "multiway-on triangle");
  ExpectBatchedMatches(off, expr, db, "multiway-off triangle");

  // Multiway on vs off: different plans, byte-identical results.
  auto with = Engine(on).Run(expr, db);
  auto without = Engine(off).Run(expr, db);
  ASSERT_TRUE(with.ok()) << with.error();
  ASSERT_TRUE(without.ok()) << without.error();
  EXPECT_EQ(with->relation.flat(), without->relation.flat());
  EXPECT_TRUE(with->stats.has_agm_bound);
  EXPECT_FALSE(without->stats.has_agm_bound);
  EXPECT_LE(static_cast<double>(with->stats.max_intermediate),
            with->stats.agm_bound);
  EXPECT_GT(static_cast<double>(without->stats.max_intermediate),
            with->stats.agm_bound);
}

// ---------------------------------------------------------------------------
// Hand-built set-join plans (no logical form) through the batch surface.
// ---------------------------------------------------------------------------

// Runs `plan` at every (threads × batch size) point against the
// materializing reference and `expected`. When `splits`, every pooled run
// must fan out (PlanStats::partitions > 0); otherwise no run may.
void ExpectPlanBatchedMatches(const PhysicalPlan& plan, const core::Database& db,
                              const Relation& expected, const std::string& context,
                              bool splits) {
  const RunResult reference = RunMaterialized(plan, db);
  EXPECT_EQ(reference.relation, expected) << context;
  for (std::size_t threads : kThreadCounts) {
    for (std::size_t batch_size : kBatchSizes) {
      const Engine batched(
          EngineOptions{}.WithThreads(threads).WithBatchSize(batch_size));
      auto run = batched.Run(plan, db);
      const std::string what = context + " batch_size=" + std::to_string(batch_size) +
                               " threads=" + std::to_string(threads);
      ASSERT_TRUE(run.ok()) << what << ": " << run.error();
      EXPECT_EQ(run->relation, expected) << what;
      ExpectSameStats(reference.stats, run->stats, what);
      if (splits && threads > 1) {
        EXPECT_GT(run->stats.partitions, 0u) << what;
      } else {
        EXPECT_EQ(run->stats.partitions, 0u) << what;
      }
    }
  }
}

// `db` plus RT, the stored transpose of R: π_{2,1}(RT) streams R again,
// but as a computed input that is neither a scan nor sorted on column 1 —
// the input a key-range partitioned operator must drain and sort.
core::Database WithTransposeOfR(const core::Database& db) {
  core::Schema schema = db.schema();
  schema.AddRelation("RT", 2);
  core::Database out(schema);
  for (const auto& name : db.schema().Names()) {
    out.SetRelation(name, db.relation(name));
  }
  const Relation& r = db.relation("R");
  Relation transpose(2);
  for (std::size_t i = 0; i < r.size(); ++i) {
    transpose.Add({r.tuple(i)[1], r.tuple(i)[0]});
  }
  out.SetRelation("RT", std::move(transpose));
  return out;
}

// The two spellings of the grouped left input R: the stored scan (read in
// place when partitioned) and π_{2,1}(RT) (drained and sorted).
std::vector<std::pair<std::string, PhysicalOpPtr>> LeftInputsOfR() {
  return {{"scan R", MakeScan("R", 2)},
          {"pi[2,1](RT)", MakeProject(MakeScan("RT", 2), {2, 1})}};
}

// Left sides of at least two floors of rows: enough for every pooled run
// of a key-range or hash-partitioned operator to split.
constexpr std::size_t kSplitRows = 2 * kMinPartitionRows;

// Rows of `r` whose column `column` value satisfies `keep`.
Relation Filter(const Relation& r, std::size_t column,
                const std::function<bool(core::Value)>& keep) {
  Relation out(r.arity());
  for (std::size_t i = 0; i < r.size(); ++i) {
    if (keep(r.tuple(i)[column - 1])) out.Add(r.tuple(i));
  }
  return out;
}

// The set joins and the semijoins over both spellings of a left side R of
// at least two floors of rows: every pooled run of a set join and of the
// fast semijoin on an equality atom must fan out; the generic semijoin and
// a semijoin without an equality atom always run serial.
TEST(BatchExec, DifferentialOnHandBuiltSetJoinPlans) {
  workload::SetJoinConfig config;
  config.r_groups = kSplitRows / 4;  // About 5 distinct elements a group.
  config.s_groups = 25;
  config.r_group_size = 6;
  config.s_group_size = 3;
  config.domain_size = 15;
  config.containment_fraction = 0.3;
  config.seed = BaseSeed();
  const auto instance = workload::MakeSetJoinInstance(config);
  ASSERT_GE(instance.r.size(), kSplitRows);
  const auto db = WithTransposeOfR(workload::SetJoinDatabase(instance));

  for (const auto& [left_name, left] : LeftInputsOfR()) {
    for (auto algorithm : setjoin::AllContainmentAlgorithms()) {
      PhysicalPlan plan;
      plan.root = MakeSetContainmentJoin(left, MakeScan("S", 2), algorithm);
      ExpectPlanBatchedMatches(
          plan, db, setjoin::SetContainmentJoin(instance.r, instance.s, algorithm),
          std::string("containment ") +
              setjoin::ContainmentAlgorithmToString(algorithm) + " over " +
              left_name,
          /*splits=*/true);
    }
    for (auto algorithm : {setjoin::EqualityJoinAlgorithm::kNestedLoop,
                           setjoin::EqualityJoinAlgorithm::kCanonicalHash}) {
      PhysicalPlan plan;
      plan.root = MakeSetEqualityJoin(left, MakeScan("S", 2), algorithm);
      ExpectPlanBatchedMatches(
          plan, db, setjoin::SetEqualityJoin(instance.r, instance.s, algorithm),
          std::string("equality ") +
              setjoin::EqualityJoinAlgorithmToString(algorithm) + " over " +
              left_name,
          /*splits=*/true);
    }
    {
      PhysicalPlan plan;
      plan.root = MakeSetOverlapJoin(left, MakeScan("S", 2));
      ExpectPlanBatchedMatches(plan, db,
                               setjoin::SetOverlapJoin(instance.r, instance.s),
                               "overlap over " + left_name, /*splits=*/true);
    }
    // R ⋉_{2=2} S: the rows of R whose element is some S element.
    std::set<core::Value> elements;
    for (std::size_t i = 0; i < instance.s.size(); ++i) {
      elements.insert(instance.s.tuple(i)[1]);
    }
    const Relation on_elements = Filter(
        instance.r, 2, [&](core::Value v) { return elements.count(v) > 0; });
    for (const auto strategy : {SemijoinStrategy::kFastKernel, SemijoinStrategy::kGeneric}) {
      const bool fast = strategy == SemijoinStrategy::kFastKernel;
      PhysicalPlan plan;
      plan.root = MakeSemiJoin(left, MakeScan("S", 2), {{2, ra::Cmp::kEq, 2}}, strategy);
      ExpectPlanBatchedMatches(
          plan, db, on_elements,
          std::string(fast ? "fast" : "generic") + " semijoin over " + left_name,
          /*splits=*/fast);
    }
    {
      // R ⋉_{1<1} S: no equality atom, no co-partitioning key.
      core::Value max_key = 0;
      for (std::size_t i = 0; i < instance.s.size(); ++i) {
        max_key = std::max(max_key, instance.s.tuple(i)[0]);
      }
      PhysicalPlan plan;
      plan.root = MakeSemiJoin(left, MakeScan("S", 2), {{1, ra::Cmp::kLt, 1}},
                               SemijoinStrategy::kFastKernel);
      ExpectPlanBatchedMatches(
          plan, db, Filter(instance.r, 1, [&](core::Value v) { return v < max_key; }),
          "inequality fast semijoin over " + left_name, /*splits=*/false);
    }
  }
}

// Every division algorithm behind the operator, including the streaming
// hash/aggregate probe paths and the blocking kernels, on a stored
// dividend below the partition floor.
TEST(BatchExec, DifferentialAcrossDivisionAlgorithms) {
  const std::uint64_t base = BaseSeed();
  workload::DivisionConfig config;
  config.num_groups = 24;
  config.group_size = 5;
  config.domain_size = 20;
  config.divisor_size = 4;
  config.match_fraction = 0.4;
  config.seed = base;
  const auto instance = workload::MakeDivisionInstance(config);
  const auto db = setalg::testing::DivisionDb(instance.r, instance.s);
  const Relation expected = ra::Eval(setjoin::ClassicDivisionExpr("R", "S"), db);
  for (auto algorithm : setjoin::AllDivisionAlgorithms()) {
    PhysicalPlan plan;
    plan.root = MakeDivision(MakeScan("R", 2), MakeScan("S", 1), algorithm, false);
    ExpectPlanBatchedMatches(plan, db, expected,
                             std::string("division algorithm ") +
                                 setjoin::DivisionAlgorithmToString(algorithm),
                             /*splits=*/false);
  }
}

// Hand-built division plans over both spellings of a dividend of at least
// two floors of rows, for every algorithm and both division variants.
// Every pooled run cuts the stored R into key ranges, classic-ra
// included. Hash and aggregate division consume the streamed
// π_{2,1}(RT) batch by batch as one task, so they never fan out over it;
// the other algorithms drain and sort it, then fan out.
TEST(BatchExec, DifferentialOnHandBuiltDivisionPlans) {
  workload::DivisionConfig config;
  config.num_groups = kSplitRows / 3;  // About 3.7 distinct elements a group.
  config.group_size = 4;
  config.domain_size = 18;
  config.divisor_size = 3;
  config.match_fraction = 0.35;
  config.seed = BaseSeed();
  const auto instance = workload::MakeDivisionInstance(config);
  ASSERT_GE(instance.r.size(), kSplitRows);
  const auto db =
      WithTransposeOfR(setalg::testing::DivisionDb(instance.r, instance.s));

  for (const auto& [left_name, left] : LeftInputsOfR()) {
    for (auto algorithm : setjoin::AllDivisionAlgorithms()) {
      for (const bool equality : {false, true}) {
        PhysicalPlan plan;
        plan.root = MakeDivision(left, MakeScan("S", 1), algorithm, equality);
        const Relation expected =
            equality ? setjoin::DivideEqual(instance.r, instance.s, algorithm)
                     : setjoin::Divide(instance.r, instance.s, algorithm);
        ExpectPlanBatchedMatches(
            plan, db, expected,
            std::string(equality ? "equality division " : "division ") +
                setjoin::DivisionAlgorithmToString(algorithm) + " over " +
                left_name,
            /*splits=*/left->scan_relation() != nullptr ||
                (algorithm != setjoin::DivisionAlgorithm::kHashDivision &&
                 algorithm != setjoin::DivisionAlgorithm::kAggregate));
      }
    }
  }
}

// A hand-built triangle R(a,b) ⋈ S(b,c) ⋈ T(c,a) whose variable-0 inputs,
// R and T, hold two floors of rows: every pooled run splits by variable 0.
// n planted triangles (i, b_i, c_i), with S giving each b three c values,
// so the binary chain the reference evaluates stays linear.
TEST(BatchExec, DifferentialOnHandBuiltMultiwayPlans) {
  const std::size_t n = kSplitRows / 2;
  Relation r(2), s(2), t(2);
  for (std::size_t i = 0; i < n; ++i) {
    const auto a = static_cast<core::Value>(i);
    const auto b = static_cast<core::Value>(100000 + i % 100);
    const auto c = static_cast<core::Value>(200000 + (7 * i) % 300);
    r.Add({a, b});
    s.Add({b, c});
    t.Add({c, a});
  }
  ASSERT_EQ(r.size() + t.size(), kSplitRows);
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 2);
  schema.AddRelation("T", 2);
  core::Database db(schema);
  db.SetRelation("R", std::move(r));
  db.SetRelation("S", std::move(s));
  db.SetRelation("T", std::move(t));
  auto expected = Engine(EngineOptions::Reference())
                      .Run(ra::Project(TriangleChainExpr(), {1, 2, 4}), db);
  ASSERT_TRUE(expected.ok()) << expected.error();
  ASSERT_EQ(expected->relation.size(), n);
  PhysicalPlan plan;
  plan.root = MakeMultiwayJoin({MakeScan("R", 2), MakeScan("S", 2), MakeScan("T", 2)},
                               {{0, 1}, {1, 2}, {2, 0}}, 3);
  ExpectPlanBatchedMatches(plan, db, expected->relation, "planted triangles",
                           /*splits=*/true);
}

// At one thread, blocking operators read their stored-scan inputs in
// place (BatchIterator::TakeRelation) instead of copying them batch by
// batch: results and per-operator row counts equal the materializing
// reference, nothing is partitioned, no partition pass counts as skipped
// (that counter is for key-range partitioned runs only), and the scans
// emit no batches — so a division's batch count does not grow with |R|.
void ExpectSerialRunMatches(const PhysicalPlan& plan, const core::Database& db,
                            const std::string& context) {
  const RunResult reference = RunMaterialized(plan, db);
  for (std::size_t batch_size : kBatchSizes) {
    const Engine serial(EngineOptions{}.WithBatchSize(batch_size));
    auto run = serial.Run(plan, db);
    const std::string what = context + " batch_size=" + std::to_string(batch_size);
    ASSERT_TRUE(run.ok()) << what << ": " << run.error();
    EXPECT_EQ(run->relation, reference.relation) << what;
    ExpectSameStats(reference.stats, run->stats, what);
    EXPECT_EQ(run->stats.partitions, 0u) << what;
    EXPECT_EQ(run->stats.partition_passes_skipped, 0u) << what;
  }
}

TEST(BatchExec, SerialBlockingOperatorsReadStoredScansInPlace) {
  workload::SetJoinConfig config;
  config.r_groups = 30;
  config.s_groups = 25;
  config.r_group_size = 6;
  config.s_group_size = 3;
  config.domain_size = 15;
  config.containment_fraction = 0.3;
  config.seed = BaseSeed();
  const auto db = workload::SetJoinDatabase(workload::MakeSetJoinInstance(config));
  const auto r = [] { return MakeScan("R", 2); };
  const auto s = [] { return MakeScan("S", 2); };
  std::vector<std::pair<std::string, PhysicalOpPtr>> roots;
  for (auto algorithm : setjoin::AllContainmentAlgorithms()) {
    roots.emplace_back(std::string("containment ") +
                           setjoin::ContainmentAlgorithmToString(algorithm),
                       MakeSetContainmentJoin(r(), s(), algorithm));
  }
  for (auto algorithm : {setjoin::EqualityJoinAlgorithm::kNestedLoop,
                         setjoin::EqualityJoinAlgorithm::kCanonicalHash}) {
    roots.emplace_back(std::string("equality ") +
                           setjoin::EqualityJoinAlgorithmToString(algorithm),
                       MakeSetEqualityJoin(r(), s(), algorithm));
  }
  roots.emplace_back("overlap", MakeSetOverlapJoin(r(), s()));
  const std::vector<ra::JoinAtom> on_elements = {{2, ra::Cmp::kEq, 2}};
  roots.emplace_back("hash join build side", MakeJoin(r(), s(), on_elements));
  roots.emplace_back("fast semijoin",
                     MakeSemiJoin(r(), s(), on_elements, SemijoinStrategy::kFastKernel));
  roots.emplace_back("generic semijoin",
                     MakeSemiJoin(r(), s(), on_elements, SemijoinStrategy::kGeneric));
  for (const auto& [name, root] : roots) {
    PhysicalPlan plan;
    plan.root = root;
    ExpectSerialRunMatches(plan, db, name);
  }

  // Division: four keys, each holding every element 1..m, over S = {1, 2}.
  // The quotient is the same four keys at every m.
  const auto dividend = [](core::Value m) {
    Relation out(2);
    for (core::Value key = 1; key <= 4; ++key) {
      for (core::Value element = 1; element <= m; ++element) out.Add({key, element});
    }
    return out;
  };
  const Relation divisor = MakeRel(1, {{1}, {2}});
  const core::Database small = setalg::testing::DivisionDb(dividend(300), divisor);
  const core::Database large = setalg::testing::DivisionDb(dividend(3000), divisor);
  for (auto algorithm : setjoin::AllDivisionAlgorithms()) {
    for (const bool equality : {false, true}) {
      PhysicalPlan plan;
      plan.root = MakeDivision(MakeScan("R", 2), MakeScan("S", 1), algorithm, equality);
      const std::string name =
          std::string(equality ? "equality division " : "division ") +
          setjoin::DivisionAlgorithmToString(algorithm);
      ExpectSerialRunMatches(plan, small, name + " small");
      ExpectSerialRunMatches(plan, large, name + " large");
      const Engine serial{EngineOptions{}};
      auto small_run = serial.Run(plan, small);
      auto large_run = serial.Run(plan, large);
      ASSERT_TRUE(small_run.ok()) << small_run.error();
      ASSERT_TRUE(large_run.ok()) << large_run.error();
      EXPECT_EQ(large_run->relation, small_run->relation) << name;
      EXPECT_EQ(large_run->stats.batches_emitted, small_run->stats.batches_emitted)
          << name;
    }
  }
}

// A set join over a left side one row short of two floors is a serial
// run under any pool: one key range, run inline on the driving thread, so
// the run counts no partition and no skipped pass — over a stored scan and
// over a drained, sorted input alike — while results and row counts equal
// the reference.
TEST(BatchExec, SetJoinsBelowTheFloorRunSeriallyUnderAPool) {
  Relation r(2);
  for (std::size_t key = 0; key < (kSplitRows - 1) / 3; ++key) {
    setalg::testing::AddGroup(&r, static_cast<core::Value>(key),
                              static_cast<core::Value>(key % 5), 3);
  }
  ASSERT_EQ(r.size(), kSplitRows - 1);
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 2);
  core::Database base(schema);
  base.SetRelation("R", std::move(r));
  base.SetRelation("S", MakeRel(2, {{9, 1}, {9, 2}, {8, 3}, {7, 2}, {7, 3}, {7, 4}}));
  const auto db = WithTransposeOfR(base);
  const Engine pooled(EngineOptions{}.WithThreads(4));
  for (const auto& [left_name, left] : LeftInputsOfR()) {
    std::vector<std::pair<std::string, PhysicalOpPtr>> roots;
    for (auto algorithm : setjoin::AllContainmentAlgorithms()) {
      roots.emplace_back(std::string("containment ") +
                             setjoin::ContainmentAlgorithmToString(algorithm),
                         MakeSetContainmentJoin(left, MakeScan("S", 2), algorithm));
    }
    for (auto algorithm : {setjoin::EqualityJoinAlgorithm::kNestedLoop,
                           setjoin::EqualityJoinAlgorithm::kCanonicalHash}) {
      roots.emplace_back(std::string("equality ") +
                             setjoin::EqualityJoinAlgorithmToString(algorithm),
                         MakeSetEqualityJoin(left, MakeScan("S", 2), algorithm));
    }
    roots.emplace_back("overlap", MakeSetOverlapJoin(left, MakeScan("S", 2)));
    for (const auto& [name, root] : roots) {
      PhysicalPlan plan;
      plan.root = root;
      const std::string what = name + " over " + left_name;
      const RunResult reference = RunMaterialized(plan, db);
      auto run = pooled.Run(plan, db);
      ASSERT_TRUE(run.ok()) << what << ": " << run.error();
      EXPECT_EQ(run->relation, reference.relation) << what;
      ExpectSameStats(reference.stats, run->stats, what);
      EXPECT_EQ(run->stats.threads_used, 4u) << what;
      EXPECT_EQ(run->stats.partitions, 0u) << what;
      EXPECT_EQ(run->stats.partition_passes_skipped, 0u) << what;
    }
  }
}

// Kernels over setjoin::GroupedRelation views vs the reference nested-loop
// path, on the adversarial shapes the batched adapters must also handle.
// The differential harness exposed no semantic divergence between the
// grouped adapters and the nested-loop reference (this suite plus the
// randomized runs above are the repro surface: any future divergence fails
// here with the offending instance printed).
TEST(BatchExec, GroupedConsumersAgreeWithNestedLoopReference) {
  const std::vector<std::pair<Relation, Relation>> instances = {
      // Duplicate-heavy inputs (Add'ed twice; set semantics must collapse).
      {MakeRel(2, {{1, 5}, {1, 5}, {1, 6}, {2, 5}, {2, 5}}),
       MakeRel(2, {{9, 5}, {9, 5}, {8, 6}})},
      // Empty sides.
      {Relation(2), MakeRel(2, {{9, 5}})},
      {MakeRel(2, {{1, 5}}), Relation(2)},
      // Singleton groups and a single shared element value.
      {MakeRel(2, {{1, 7}, {2, 7}, {3, 7}}), MakeRel(2, {{4, 7}, {5, 7}})},
  };
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const auto& [r, s] = instances[i];
    const setjoin::GroupedRelation gr(r);
    const setjoin::GroupedRelation gs(s);
    const Relation expected =
        setjoin::SetContainmentJoin(gr, gs, setjoin::ContainmentAlgorithm::kNestedLoop);
    for (auto algorithm : setjoin::AllContainmentAlgorithms()) {
      EXPECT_EQ(setjoin::SetContainmentJoin(gr, gs, algorithm), expected)
          << "instance " << i << " algorithm "
          << setjoin::ContainmentAlgorithmToString(algorithm) << "\nR = "
          << r.ToString() << "\nS = " << s.ToString();
    }
    EXPECT_EQ(setjoin::SetEqualityJoin(
                  gr, gs, setjoin::EqualityJoinAlgorithm::kCanonicalHash),
              setjoin::SetEqualityJoin(gr, gs,
                                       setjoin::EqualityJoinAlgorithm::kNestedLoop))
        << "instance " << i;
  }
}

// ---------------------------------------------------------------------------
// Stream-level properties of the batch surface.
// ---------------------------------------------------------------------------

// The operator's own stream over its children's own streams, with no
// pipeline edges (no dedup, no accounting) in between. `op` must outlive
// the stream.
std::unique_ptr<BatchIterator> RawStream(const PhysicalOpPtr& op, ExecContext& ctx) {
  std::vector<std::unique_ptr<BatchIterator>> inputs;
  for (const auto& child : op->children()) inputs.push_back(RawStream(child, ctx));
  return op->MakeBatchIterator(ctx, std::move(inputs));
}

// A projection keeping every input column is injective, so over a
// distinct input its stream is distinct and the pipeline edge above it
// needs no dedup set. One that drops a column may merge rows.
TEST(BatchExec, CoveringProjectionStreamIsDistinct) {
  core::Schema schema;
  schema.AddRelation("R", 2);
  core::Database db(schema);
  db.SetRelation("R", MakeRel(2, {{1, 2}, {1, 3}, {2, 2}}));
  ExecContext ctx(&db, nullptr);
  const PhysicalOpPtr scan = MakeScan("R", 2);

  EXPECT_TRUE(RawStream(MakeProject(scan, {1, 2, 2, 1}), ctx)->distinct());
  EXPECT_TRUE(RawStream(MakeProject(scan, {2, 1}), ctx)->distinct());
  EXPECT_FALSE(RawStream(MakeProject(scan, {1}), ctx)->distinct());
  EXPECT_FALSE(RawStream(MakeProject(scan, {2, 2}), ctx)->distinct());
  // A union stream may repeat rows, and so may any projection of it.
  EXPECT_FALSE(RawStream(MakeProject(MakeUnion(scan, scan), {1, 2}), ctx)->distinct());

  const PhysicalOpPtr covering_op = MakeProject(scan, {1, 2, 2, 1});
  auto covering = RawStream(covering_op, ctx);
  EXPECT_EQ(DrainToRelation(covering.get(), 4, 2),
            MakeRel(4, {{1, 2, 2, 1}, {1, 3, 3, 1}, {2, 2, 2, 2}}));
}

// RowSet against std::set, per arity 0-4: enough inserts to cross several
// table growths, a value domain narrow enough for heavy duplicates, and
// Contains probes on the empty set, after every insert batch and for rows
// outside the domain.
TEST(BatchExec, RowSetMatchesStdSetOracle) {
  util::Rng rng(BaseSeed());
  // About 2000 distinct rows per arity (7^4 = 2401), 6000 inserts.
  constexpr std::uint64_t kDomain[] = {1, 2000, 45, 13, 7};
  for (std::size_t arity = 0; arity <= 4; ++arity) {
    const std::string context = "arity " + std::to_string(arity);
    RowSet set(arity);
    std::set<core::Tuple> oracle;
    core::Tuple row(arity);
    const auto random_row = [&] {
      for (auto& value : row) {
        value = static_cast<core::Value>(rng.NextBounded(kDomain[arity]));
      }
    };
    random_row();
    EXPECT_FALSE(set.Contains(row)) << context;
    for (int i = 0; i < 6000; ++i) {
      random_row();
      ASSERT_EQ(set.Insert(row), oracle.insert(row).second) << context << " insert " << i;
      ASSERT_EQ(set.size(), oracle.size()) << context;
      if (i % 50 == 0) {
        random_row();
        EXPECT_EQ(set.Contains(row), oracle.count(row) == 1) << context << " probe " << i;
      }
    }
    if (arity > 0) {
      EXPECT_GT(set.size(), 1000u) << context;
    }
    for (const core::Tuple& stored : oracle) {
      EXPECT_TRUE(set.Contains(stored)) << context;
      EXPECT_FALSE(set.Insert(stored)) << context;
    }
    if (arity > 0) {
      row.assign(arity, static_cast<core::Value>(kDomain[arity]));
      EXPECT_FALSE(set.Contains(row)) << context;
    }
    EXPECT_EQ(set.size(), oracle.size()) << context;
  }
}

// ---------------------------------------------------------------------------
// DAG sharing, budget enforcement, and batch accounting.
// ---------------------------------------------------------------------------

TEST(BatchExec, SharedSubplansMaterializeOnceAndKeepStatsParity) {
  core::Schema schema;
  schema.AddRelation("R", 2);
  core::Database db(schema);
  db.SetRelation("R", workload::UniformBinaryRelation(60, 12, BaseSeed()));

  // One scan shared by two parents: a stream has one consumer, so the
  // pipelined executor must materialize the shared node and re-stream it.
  PhysicalOpPtr scan = MakeScan("R", 2);
  PhysicalPlan plan;
  plan.root = MakeUnion(MakeProject(scan, {1}), MakeProject(scan, {2}));

  const RunResult expected = RunMaterialized(plan, db);
  for (std::size_t batch_size : kBatchSizes) {
    const Engine batched(EngineOptions{}.WithBatchSize(batch_size));
    auto run = batched.Run(plan, db);
    ASSERT_TRUE(run.ok()) << run.error();
    EXPECT_EQ(run->relation, expected.relation);
    ExpectSameStats(expected.stats, run->stats,
                    "shared batch_size=" + std::to_string(batch_size));
  }
}

TEST(BatchExec, BudgetAbortsOversizedBatchedRuns) {
  const auto db = setalg::testing::DivisionDb(
      MakeRel(2, {{1, 10}, {2, 20}, {3, 10}}), MakeRel(1, {{10}, {30}}));
  EngineOptions options = EngineOptions::Reference().WithBatchSize(2);
  options.max_intermediate_budget = 2;
  auto run = Engine::Run(ra::Product(ra::Rel("R", 2), ra::Rel("S", 1)), db, options);
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.error().find("budget"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Deterministic parallel merge: repeated parallel runs of the same seed
// must be byte-for-byte identical — same sorted storage, same PlanStats
// (including the parallel accounting), independent of thread scheduling.
// The fan-in concatenates per-partition outputs in partition-index order
// and normalizes, so nothing observable may depend on completion order.
// ---------------------------------------------------------------------------

TEST(BatchExec, ParallelMergeIsDeterministicAcrossRepeatedRuns) {
  const std::uint64_t base = BaseSeed();
  workload::DivisionConfig config;
  config.num_groups = kSplitRows / 3;
  config.group_size = 4;
  config.domain_size = 30;
  config.divisor_size = 3;
  config.match_fraction = 0.4;
  config.seed = base;
  const auto instance = workload::MakeDivisionInstance(config);
  const auto db = setalg::testing::DivisionDb(instance.r, instance.s);
  const auto expr = setjoin::ClassicDivisionExpr("R", "S");

  const Engine engine(EngineOptions{}.WithThreads(7).WithBatchSize(7));
  auto plan = engine.Plan(expr, db.schema());
  ASSERT_TRUE(plan.ok()) << plan.error();

  auto first = engine.Run(*plan, db);
  ASSERT_TRUE(first.ok()) << first.error();
  EXPECT_EQ(first->stats.threads_used, 7u);
  EXPECT_GT(first->stats.partitions, 0u);
  for (int repeat = 0; repeat < 5; ++repeat) {
    auto run = engine.Run(*plan, db);
    ASSERT_TRUE(run.ok()) << run.error();
    // flat() compares the normalized storage byte-for-byte, a strictly
    // stronger check than relation equality on sorted sets.
    EXPECT_EQ(run->relation.flat(), first->relation.flat()) << "repeat " << repeat;
    ExpectSameStats(first->stats, run->stats,
                    "repeat " + std::to_string(repeat));
    EXPECT_EQ(run->stats.partitions, first->stats.partitions);
    EXPECT_EQ(run->stats.threads_used, first->stats.threads_used);
    EXPECT_EQ(run->stats.batches_emitted, first->stats.batches_emitted);
  }
}

TEST(BatchExec, BatchAccountingBoundsThePipelineFootprint) {
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 1);
  core::Database db(schema);
  db.SetRelation("R", workload::UniformBinaryRelation(300, 20, BaseSeed()));
  core::Relation s(1);
  for (core::Value v = 1; v <= 10; ++v) s.Add({v});
  db.SetRelation("S", s);

  const auto expr = ra::Join(ra::Rel("R", 2), ra::Rel("S", 1),
                             {{2, ra::Cmp::kEq, 1}});
  for (std::size_t batch_size : kBatchSizes) {
    const Engine batched(EngineOptions{}.WithBatchSize(batch_size));
    auto run = batched.Run(expr, db);
    ASSERT_TRUE(run.ok()) << run.error();
    // Widest stream in this plan is the join output (arity 3): no batch
    // may outgrow its configured capacity.
    EXPECT_LE(run->stats.peak_batch_bytes,
              batch_size * 3 * sizeof(core::Value));
    // Every operator's rows arrive in ceil(rows / batch_size)-or-more
    // batches; with three operators the total must cover the output alone.
    const std::size_t output_rows = run->relation.size();
    EXPECT_GE(run->stats.batches_emitted,
              (output_rows + batch_size - 1) / batch_size);
  }
}

}  // namespace
}  // namespace setalg::engine
