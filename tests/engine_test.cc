// Tests for the engine:: facade — parity with the legacy ra::Eval
// reference on random expressions, the planner's pattern rewrites
// (division, semijoin reduction), stats fidelity, budget enforcement, and
// hand-built physical plans for the set-join operators.
#include <gtest/gtest.h>

#include <string>

#include "engine/engine.h"
#include "engine/parallel.h"
#include "ra/eval.h"
#include "ra/expr.h"
#include "ra/rewrite.h"
#include "setjoin/division.h"
#include "setjoin/setjoin.h"
#include "stats/stats.h"
#include "test_util.h"
#include "workload/generators.h"

namespace setalg::engine {
namespace {

using setalg::testing::MakeRel;
using core::Relation;

core::Database SmallDb() {
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 1);
  core::Database db(schema);
  db.SetRelation("R", MakeRel(2, {{1, 10}, {2, 20}, {3, 10}}));
  db.SetRelation("S", MakeRel(1, {{10}, {30}}));
  return db;
}

// A division instance whose classic-RA product π₁(R) × S is strictly
// larger than the database, so routing matters.
workload::DivisionInstance QuadraticInstance() {
  workload::DivisionConfig config;
  config.num_groups = 80;
  config.group_size = 4;
  config.domain_size = 64;
  config.divisor_size = 20;
  config.match_fraction = 0.25;
  config.seed = 7;
  return workload::MakeDivisionInstance(config);
}

// ---------------------------------------------------------------------------
// Facade basics.
// ---------------------------------------------------------------------------

TEST(Engine, EvaluatesSimpleExpressions) {
  const auto db = SmallDb();
  auto e = ra::Diff(ra::Rel("S", 1), ra::Project(ra::Rel("R", 2), {2}));
  auto run = Engine::Run(e, db, EngineOptions{});
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->relation, MakeRel(1, {{30}}));
}

TEST(Engine, UnknownRelationIsAnErrorNotAnAbort) {
  const auto db = SmallDb();
  auto run = Engine::Run(ra::Rel("Missing", 2), db, EngineOptions{});
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.error().find("Missing"), std::string::npos);
}

TEST(Engine, ArityMismatchIsAnError) {
  const auto db = SmallDb();
  auto run = Engine::Run(ra::Rel("S", 3), db, EngineOptions{});
  EXPECT_FALSE(run.ok());
}

// ---------------------------------------------------------------------------
// Parity with the legacy evaluator on random expressions.
// ---------------------------------------------------------------------------

TEST(Engine, ParityWithEvalOnRandomSaExpressions) {
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 1);
  schema.AddRelation("T", 2);
  const Engine engine;  // Default options: every rewrite and fast kernel on.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto db = setalg::testing::RandomDatabase(schema, 30, 12, seed);
    setalg::testing::RandomSaEqGenerator generator(schema, {1, 2, 3}, seed * 97);
    for (int trial = 0; trial < 12; ++trial) {
      const auto expr = generator.Generate(1 + trial % 2, 3);
      const Relation expected = ra::Eval(expr, db);
      auto run = engine.Run(expr, db);
      ASSERT_TRUE(run.ok()) << run.error();
      EXPECT_EQ(run->relation, expected) << expr->ToString();
    }
  }
}

TEST(Engine, ParityWithEvalOnJoinFormsOfRandomExpressions) {
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 1);
  const Engine engine;
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    const auto db = setalg::testing::RandomDatabase(schema, 24, 10, seed);
    setalg::testing::RandomSaEqGenerator generator(schema, {1, 2}, seed * 131);
    for (int trial = 0; trial < 8; ++trial) {
      // The RA embedding of semijoins produces π(⋈) shapes — exactly what
      // the planner's semijoin reduction targets.
      const auto expr = ra::SemiJoinToJoin(generator.Generate(1, 3));
      const Relation expected = ra::Eval(expr, db);
      auto run = engine.Run(expr, db);
      ASSERT_TRUE(run.ok()) << run.error();
      EXPECT_EQ(run->relation, expected) << expr->ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// Reference mode: exact legacy instrumentation.
// ---------------------------------------------------------------------------

TEST(Engine, ReferenceModeReproducesLegacyStats) {
  const auto db = SmallDb();
  auto shared = ra::Project(ra::Rel("R", 2), {1});
  auto e = ra::Union(shared,
                     ra::Project(ra::Join(ra::Rel("R", 2), ra::Rel("S", 1),
                                          {{2, ra::Cmp::kEq, 1}}),
                                 {1}));
  ra::EvalStats legacy;
  const Relation expected = ra::Eval(e, db, &legacy);

  auto run = Engine::Run(e, db, EngineOptions::Reference());
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->relation, expected);
  const ra::EvalStats stats = ToEvalStats(run->stats);
  ASSERT_EQ(stats.nodes.size(), legacy.nodes.size());
  for (std::size_t i = 0; i < stats.nodes.size(); ++i) {
    EXPECT_EQ(stats.nodes[i].node, legacy.nodes[i].node);
    EXPECT_EQ(stats.nodes[i].output_size, legacy.nodes[i].output_size);
  }
  EXPECT_EQ(stats.max_intermediate, legacy.max_intermediate);
  EXPECT_EQ(stats.total_intermediate, legacy.total_intermediate);
  EXPECT_EQ(stats.join_rows_emitted, legacy.join_rows_emitted);
}

// ---------------------------------------------------------------------------
// Division-pattern routing (the acceptance criterion).
// ---------------------------------------------------------------------------

TEST(Engine, DivisionPatternRoutesToSubquadraticOperator) {
  const auto instance = QuadraticInstance();
  const auto db = setalg::testing::DivisionDb(instance.r, instance.s);
  const auto expr = setjoin::ClassicDivisionExpr("R", "S");

  auto planned = Engine::Run(expr, db, EngineOptions{});
  auto reference = Engine::Run(expr, db, EngineOptions::Reference());
  ASSERT_TRUE(planned.ok());
  ASSERT_TRUE(reference.ok());

  // Identical results...
  EXPECT_EQ(planned->relation, reference->relation);
  EXPECT_EQ(planned->relation,
            setjoin::Divide(instance.r, instance.s,
                            setjoin::DivisionAlgorithm::kHashDivision));

  // ...but the planner never materializes the classic plan's product: its
  // largest intermediate is an input relation, O(n), while classic RA is
  // Ω(#groups · |S|) — quadratic in the paper's regime (Prop. 26).
  ASSERT_FALSE(planned->stats.rewrites.empty());
  const std::size_t groups = setjoin::GroupedRelation(instance.r).NumGroups();
  EXPECT_LE(planned->stats.max_intermediate, db.size());
  EXPECT_GE(reference->stats.max_intermediate, groups * instance.s.size());
  EXPECT_LT(planned->stats.max_intermediate, reference->stats.max_intermediate);
}

TEST(Engine, EqualityDivisionPatternRecognized) {
  const auto instance = QuadraticInstance();
  const auto db = setalg::testing::DivisionDb(instance.r, instance.s);
  const auto expr = setjoin::ClassicEqualityDivisionExpr("R", "S");

  auto planned = Engine::Run(expr, db, EngineOptions{});
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->relation, ra::Eval(expr, db));
  EXPECT_EQ(planned->relation,
            setjoin::DivideEqual(instance.r, instance.s,
                                 setjoin::DivisionAlgorithm::kHashDivision));
  ASSERT_FALSE(planned->stats.rewrites.empty());
  EXPECT_LE(planned->stats.max_intermediate, db.size());
}

TEST(Engine, ExplainShowsTheRoutedOperator) {
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 1);
  const auto expr = setjoin::ClassicDivisionExpr("R", "S");

  // A stored dividend is read sorted and in place: planned mode runs
  // sort-merge.
  auto plan_text = Engine().Explain(expr, schema);
  ASSERT_TRUE(plan_text.ok());
  EXPECT_NE(plan_text->find("division[sort-merge]"), std::string::npos)
      << *plan_text;

  // Every kernel names itself in the operator label.
  const auto aggregate = MakeDivision(MakeScan("R", 2), MakeScan("S", 1),
                                      setjoin::DivisionAlgorithm::kAggregate, false);
  EXPECT_NE(aggregate->ToString().find("division[aggregate]"), std::string::npos);

  auto reference_text = Engine(EngineOptions::Reference()).Explain(expr, schema);
  ASSERT_TRUE(reference_text.ok());
  EXPECT_EQ(reference_text->find("division["), std::string::npos)
      << "reference mode must lower 1:1";
}

// The textbook division pattern over arbitrary dividend and divisor
// subexpressions (ClassicDivisionExpr fixes both to stored relations).
ra::ExprPtr DivisionPatternOver(const ra::ExprPtr& r, const ra::ExprPtr& s) {
  const ra::ExprPtr candidates = ra::Project(r, {1});
  const ra::ExprPtr missing = ra::Diff(ra::Product(candidates, s), r);
  return ra::Diff(candidates, ra::Project(missing, {1}));
}

// The label of the run's division operator ("" when none ran).
std::string DivisionLabel(const PlanStats& stats) {
  for (const auto& op : stats.ops) {
    if (op.label.rfind("division", 0) == 0) return op.label;
  }
  return "";
}

// {R/2, S/1, T/2}: T holds R's rows with the columns swapped, so π_{2,1}(T)
// is R again, reached through a projection that scrambles the order.
core::Database SwappedDividendDb() {
  const auto instance = QuadraticInstance();
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 1);
  schema.AddRelation("T", 2);
  core::Database db(schema);
  db.SetRelation("R", instance.r);
  db.SetRelation("S", instance.s);
  Relation t(2);
  for (std::size_t i = 0; i < instance.r.size(); ++i) {
    t.Add({instance.r.tuple(i)[1], instance.r.tuple(i)[0]});
  }
  db.SetRelation("T", std::move(t));
  return db;
}

TEST(Engine, OperatorsReportSortedOutput) {
  // Scans, division and the set joins emit normalized rows; an operator
  // that does not say so reports false.
  const auto r = MakeScan("R", 2);
  const auto swapped = MakeProject(r, {2, 1});
  EXPECT_TRUE(r->sorted_output());
  EXPECT_TRUE(MakeDivision(swapped, MakeScan("S", 1),
                           setjoin::DivisionAlgorithm::kHashDivision, false)
                  ->sorted_output());
  EXPECT_TRUE(MakeSetEqualityJoin(r, r, setjoin::EqualityJoinAlgorithm::kCanonicalHash)
                  ->sorted_output());
  EXPECT_FALSE(swapped->sorted_output());
  EXPECT_FALSE(MakeUnion(r, r)->sorted_output());
}

TEST(Engine, PlannedDivisionFollowsTheDividendOrder) {
  const auto db = SwappedDividendDb();
  const Engine engine;
  for (const bool equality : {false, true}) {
    const ra::ExprPtr stored = equality ? setjoin::ClassicEqualityDivisionExpr("R", "S")
                                        : setjoin::ClassicDivisionExpr("R", "S");
    const ra::ExprPtr swapped =
        DivisionPatternOver(ra::Project(ra::Rel("T", 2), {2, 1}), ra::Rel("S", 1));
    const std::string prefix = equality ? "division=[" : "division[";

    // A stored dividend is read sorted and in place: sort-merge.
    auto sorted = engine.Run(stored, db);
    ASSERT_TRUE(sorted.ok()) << sorted.error();
    EXPECT_EQ(DivisionLabel(sorted->stats), prefix + "sort-merge]");
    EXPECT_EQ(sorted->relation, ra::Eval(stored, db));
    if (equality) continue;  // The swapped pattern below is containment.

    // π_{2,1} scrambles the order: hash division consumes it as it streams.
    auto unsorted = engine.Run(swapped, db);
    ASSERT_TRUE(unsorted.ok()) << unsorted.error();
    EXPECT_EQ(DivisionLabel(unsorted->stats), "division[hash-division]");
    EXPECT_EQ(unsorted->relation, sorted->relation);
    EXPECT_EQ(unsorted->relation, ra::Eval(swapped, db));

    // A selection keeps R's order, but sort-merge would first drain it
    // into a relation: only a stored dividend is read in place.
    const ra::ExprPtr selected =
        DivisionPatternOver(ra::SelectLt(ra::Rel("R", 2), 1, 2), ra::Rel("S", 1));
    auto derived = engine.Run(selected, db);
    ASSERT_TRUE(derived.ok()) << derived.error();
    EXPECT_EQ(DivisionLabel(derived->stats), "division[hash-division]");
    EXPECT_EQ(derived->relation, ra::Eval(selected, db));
  }
}

// A live database that is also its own statistics provider, counting
// every statistics request the engine makes.
class CountingStatsView final : public core::DatabaseView, public stats::StatsProvider {
 public:
  explicit CountingStatsView(const core::Database* db) : db_(db), stats_(db) {}

  const core::Schema& schema() const override { return db_->schema(); }
  const Relation& relation(const std::string& name) const override {
    return db_->relation(name);
  }
  std::uint64_t id() const override { return db_->id(); }
  std::uint64_t relation_version(const std::string& name) const override {
    return db_->relation_version(name);
  }
  const stats::RelationStats* Get(const std::string& name) const override {
    ++gets_;
    return stats_.Get(name);
  }

  std::size_t gets() const { return gets_; }

 private:
  const core::Database* db_;
  stats::DatabaseStats stats_;
  mutable std::size_t gets_ = 0;
};

TEST(Engine, PlannedRunsReadNoStatistics) {
  const auto instance = QuadraticInstance();
  auto db = setalg::testing::DivisionDb(instance.r, instance.s);
  const auto expr = setjoin::ClassicDivisionExpr("R", "S");
  {
    // Fresh lowering, a cached plan revalidated after a commit, and a
    // prepared handle: none asks for statistics, and no operator carries
    // an estimate.
    CountingStatsView view(&db);
    EngineOptions options;
    options.shared_plan_cache = std::make_shared<SharedPlanCache>(4, 0);
    const Engine engine(options);
    auto first = engine.Run(expr, view);
    ASSERT_TRUE(first.ok()) << first.error();
    auto handle = engine.Prepare(expr, view);
    ASSERT_TRUE(handle.ok()) << handle.error();
    db.mutable_relation("R")->Add({1000, instance.s.tuple(0)[0]});
    auto revalidated = engine.Run(expr, view);
    ASSERT_TRUE(revalidated.ok()) << revalidated.error();
    EXPECT_EQ(revalidated->stats.cache, CacheOutcome::kRevalidated);
    auto prepared = engine.Run(*handle, view);
    ASSERT_TRUE(prepared.ok()) << prepared.error();
    auto one_shot = Engine::Run(expr, view, EngineOptions{});
    ASSERT_TRUE(one_shot.ok()) << one_shot.error();
    EXPECT_EQ(view.gets(), 0u);
    for (const auto* run : {&*first, &*revalidated, &*prepared, &*one_shot}) {
      for (const auto& op : run->stats.ops) EXPECT_FALSE(op.has_estimate) << op.label;
    }
    EXPECT_EQ(revalidated->relation, ra::Eval(expr, db));
  }
  // Options that decide from statistics, or learn from them, read them.
  for (const EngineOptions& options :
       {EngineOptions::CostBased(), EngineOptions{}.WithMultiway(),
        EngineOptions{}.WithCalibration()}) {
    CountingStatsView view(&db);
    auto run = Engine(options).Run(expr, view);
    ASSERT_TRUE(run.ok()) << run.error();
    EXPECT_GT(view.gets(), 0u);
    EXPECT_TRUE(run->stats.ops.back().has_estimate);
  }
}

// ---------------------------------------------------------------------------
// Semijoin reduction of one-sided projections.
// ---------------------------------------------------------------------------

TEST(Engine, SemijoinReductionAvoidsTheProduct) {
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 1);
  core::Database db(schema);
  db.SetRelation("R", workload::UniformBinaryRelation(200, 50, 3));
  core::Relation s(1);
  for (core::Value v = 1; v <= 30; ++v) s.Add({v});
  db.SetRelation("S", s);

  const auto expr = ra::Project(ra::Product(ra::Rel("R", 2), ra::Rel("S", 1)), {1});
  auto planned = Engine::Run(expr, db, EngineOptions{});
  auto reference = Engine::Run(expr, db, EngineOptions::Reference());
  ASSERT_TRUE(planned.ok());
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(planned->relation, reference->relation);
  ASSERT_FALSE(planned->stats.rewrites.empty());
  EXPECT_LE(planned->stats.max_intermediate, db.size());
  EXPECT_GE(reference->stats.max_intermediate,
            db.relation("R").size() * db.relation("S").size());
}

TEST(Engine, MirroredSemijoinReductionKeepsParity) {
  const auto db = SmallDb();
  // Columns {3} live entirely on the right side of R(2) × S(1).
  const auto expr = ra::Project(ra::Product(ra::Rel("R", 2), ra::Rel("S", 1)), {3});
  auto planned = Engine::Run(expr, db, EngineOptions{});
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->relation, ra::Eval(expr, db));
  EXPECT_FALSE(planned->stats.rewrites.empty());
}

TEST(Engine, MixedSideProjectionIsNotReduced) {
  const auto db = SmallDb();
  const auto expr =
      ra::Project(ra::Product(ra::Rel("R", 2), ra::Rel("S", 1)), {1, 3});
  auto planned = Engine::Run(expr, db, EngineOptions{});
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->relation, ra::Eval(expr, db));
  EXPECT_TRUE(planned->stats.rewrites.empty());
}

// ---------------------------------------------------------------------------
// Intermediate-size budget.
// ---------------------------------------------------------------------------

TEST(Engine, BudgetAbortsOversizedRuns) {
  const auto db = SmallDb();
  EngineOptions options = EngineOptions::Reference();
  options.max_intermediate_budget = 2;
  auto run = Engine::Run(
      ra::Product(ra::Rel("R", 2), ra::Rel("S", 1)), db, options);
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.error().find("budget"), std::string::npos);
}

TEST(Engine, BudgetAdmitsThePlannedDivisionButNotTheClassicPlan) {
  const auto instance = QuadraticInstance();
  const auto db = setalg::testing::DivisionDb(instance.r, instance.s);
  const auto expr = setjoin::ClassicDivisionExpr("R", "S");

  EngineOptions planned = EngineOptions{};
  planned.max_intermediate_budget = db.size();
  EXPECT_TRUE(Engine::Run(expr, db, planned).ok());

  EngineOptions reference = EngineOptions::Reference();
  reference.max_intermediate_budget = db.size();
  EXPECT_FALSE(Engine::Run(expr, db, reference).ok());
}

// ---------------------------------------------------------------------------
// Hand-built physical plans: the set-join operators.
// ---------------------------------------------------------------------------

TEST(Engine, RunExecutesHandBuiltSetJoinPlans) {
  workload::SetJoinConfig config;
  config.r_groups = 40;
  config.s_groups = 40;
  config.domain_size = 24;
  config.containment_fraction = 0.2;
  config.seed = 5;
  const auto instance = workload::MakeSetJoinInstance(config);
  const auto db = workload::SetJoinDatabase(instance);
  const Engine engine;

  PhysicalPlan contain;
  contain.root = MakeSetContainmentJoin(
      MakeScan("R", 2), MakeScan("S", 2),
      setjoin::ContainmentAlgorithm::kInvertedIndex);
  auto contain_run = engine.Run(contain, db);
  ASSERT_TRUE(contain_run.ok());
  EXPECT_EQ(contain_run->relation,
            setjoin::SetContainmentJoin(instance.r, instance.s,
                                        setjoin::ContainmentAlgorithm::kNestedLoop));

  PhysicalPlan equal;
  equal.root = MakeSetEqualityJoin(MakeScan("R", 2), MakeScan("S", 2),
                                   setjoin::EqualityJoinAlgorithm::kCanonicalHash);
  auto equal_run = engine.Run(equal, db);
  ASSERT_TRUE(equal_run.ok());
  EXPECT_EQ(equal_run->relation,
            setjoin::SetEqualityJoin(instance.r, instance.s,
                                     setjoin::EqualityJoinAlgorithm::kNestedLoop));

  PhysicalPlan overlap;
  overlap.root = MakeSetOverlapJoin(MakeScan("R", 2), MakeScan("S", 2));
  auto overlap_run = engine.Run(overlap, db);
  ASSERT_TRUE(overlap_run.ok());
  EXPECT_EQ(overlap_run->relation,
            setjoin::SetOverlapJoin(instance.r, instance.s));
}

// ---------------------------------------------------------------------------
// Parallel execution through the facade: EngineOptions::threads must
// never change results or row counts, on lowered and hand-built plans.
// ---------------------------------------------------------------------------

TEST(Engine, ParallelParityOnRandomSaExpressions) {
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 1);
  const auto db = setalg::testing::RandomDatabase(schema, 40, 14, 3);
  setalg::testing::RandomSaEqGenerator generator(schema, {1, 2, 3}, 41);
  EngineOptions parallel;
  parallel.threads = 3;
  for (int trial = 0; trial < 8; ++trial) {
    const auto expr = generator.Generate(1 + trial % 2, 3);
    auto serial = Engine().Run(expr, db);
    auto threaded = Engine(parallel).Run(expr, db);
    ASSERT_TRUE(serial.ok()) << serial.error();
    ASSERT_TRUE(threaded.ok()) << threaded.error();
    EXPECT_EQ(threaded->relation, serial->relation) << expr->ToString();
    EXPECT_EQ(threaded->stats.max_intermediate, serial->stats.max_intermediate);
    EXPECT_EQ(threaded->stats.total_intermediate, serial->stats.total_intermediate);
    EXPECT_EQ(threaded->stats.threads_used, 3u);
  }
}

TEST(Engine, ParallelDivisionMatchesSerialAndRecordsFanOut) {
  // 7 floors of dividend rows: every pool width below fans out fully.
  workload::DivisionConfig config;
  config.num_groups = 7 * kMinPartitionRows / 4;
  config.group_size = 4;
  config.domain_size = 64;
  config.divisor_size = 6;
  config.match_fraction = 0.25;
  config.seed = 7;
  const auto instance = workload::MakeDivisionInstance(config);
  ASSERT_GE(instance.r.size(), 7 * kMinPartitionRows);
  const auto db = setalg::testing::DivisionDb(instance.r, instance.s);
  const auto expr = setjoin::ClassicDivisionExpr("R", "S");
  auto serial = Engine().Run(expr, db);
  ASSERT_TRUE(serial.ok()) << serial.error();
  for (std::size_t threads : {2u, 7u}) {
    EngineOptions options;
    options.threads = threads;
    auto run = Engine(options).Run(expr, db);
    ASSERT_TRUE(run.ok()) << run.error();
    EXPECT_EQ(run->relation, serial->relation) << threads << " threads";
    EXPECT_EQ(run->stats.threads_used, threads);
    EXPECT_EQ(run->stats.partitions, threads)
        << "the lowered division op must fan out pool-wide";
  }
}

TEST(Engine, PooledSortMergeDivisionReadsRangesInPlace) {
  // Above two kMinPartitionRows floors of a stored dividend: planned mode
  // picks sort-merge and a 4-wide pool cuts R into key ranges in place.
  workload::DivisionConfig config;
  config.num_groups = 5 * kMinPartitionRows / 4;
  config.group_size = 4;
  config.domain_size = 64;
  config.divisor_size = 3;
  config.match_fraction = 0.25;
  config.seed = 11;
  const auto instance = workload::MakeDivisionInstance(config);
  ASSERT_GE(instance.r.size(), 4 * kMinPartitionRows);
  const auto db = setalg::testing::DivisionDb(instance.r, instance.s);
  for (const bool equality : {false, true}) {
    const auto expr = equality ? setjoin::ClassicEqualityDivisionExpr("R", "S")
                               : setjoin::ClassicDivisionExpr("R", "S");
    auto serial = Engine().Run(expr, db);
    auto pooled = Engine(EngineOptions{}.WithThreads(4)).Run(expr, db);
    ASSERT_TRUE(serial.ok()) << serial.error();
    ASSERT_TRUE(pooled.ok()) << pooled.error();
    const std::string label = equality ? "division=[sort-merge]" : "division[sort-merge]";
    EXPECT_EQ(DivisionLabel(serial->stats), label);
    EXPECT_EQ(DivisionLabel(pooled->stats), label);
    EXPECT_EQ(pooled->stats.partitions, 4u);
    EXPECT_EQ(pooled->stats.partition_passes_skipped, 1u);
    EXPECT_EQ(pooled->relation, serial->relation);
    EXPECT_FALSE(serial->relation.empty());
    EXPECT_EQ(serial->relation,
              equality ? setjoin::DivideEqual(instance.r, instance.s,
                                              setjoin::DivisionAlgorithm::kHashDivision)
                       : setjoin::Divide(instance.r, instance.s,
                                         setjoin::DivisionAlgorithm::kHashDivision));
    for (std::size_t i = 0; i < serial->stats.ops.size(); ++i) {
      EXPECT_EQ(pooled->stats.ops[i].output_size, serial->stats.ops[i].output_size);
    }
  }
}

TEST(Engine, BudgetStillEnforcedOnParallelRuns) {
  const auto db = SmallDb();
  EngineOptions options = EngineOptions{}.WithThreads(4).WithBatchSize(2);
  options.recognize_division = false;
  options.recognize_semijoin_projection = false;
  options.use_fast_semijoin = false;
  options.max_intermediate_budget = 2;
  auto run = Engine::Run(ra::Product(ra::Rel("R", 2), ra::Rel("S", 1)), db, options);
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.error().find("budget"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Prepared statements & the plan cache through the facade: invalidation
// edge cases (the randomized interleavings live in plan_cache_test.cc).
// ---------------------------------------------------------------------------

TEST(Engine, MutationDuringOpenPreparedHandleStaysCorrect) {
  auto db = setalg::testing::DivisionDb(
      MakeRel(2, {{1, 10}, {1, 20}, {2, 10}}), MakeRel(1, {{10}, {20}}));
  const Engine engine(EngineOptions::CostBased());
  const auto expr = setjoin::ClassicDivisionExpr("R", "S");

  auto handle = engine.Prepare(expr, db);
  ASSERT_TRUE(handle.ok()) << handle.error();

  // The handle stays open across a whole sequence of mutations; every
  // execution must match a fresh evaluation of the *current* data.
  for (int step = 0; step < 4; ++step) {
    db.mutable_relation("R")->Add({10 + step, 10});
    db.mutable_relation("R")->Add({10 + step, 20});
    auto run = engine.Run(*handle, db);
    ASSERT_TRUE(run.ok()) << run.error();
    EXPECT_EQ(run->relation, ra::Eval(expr, db)) << "step " << step;
    EXPECT_TRUE(run->stats.cache == CacheOutcome::kRevalidated ||
                run->stats.cache == CacheOutcome::kRepicked)
        << "step " << step << ": " << CacheOutcomeToString(run->stats.cache);
  }
}

TEST(Engine, PreparedHandleNeverLeaksAcrossCollidingDatabases) {
  // Same schema, same relation names, different Database::id(): the
  // handle was costed for db1 and must not carry those plans onto db2.
  auto db1 = setalg::testing::DivisionDb(
      MakeRel(2, {{1, 10}, {1, 20}, {2, 10}}), MakeRel(1, {{10}, {20}}));
  const core::Database db2 = db1;  // Copy: fresh id, then diverge.
  ASSERT_NE(db1.id(), db2.id());

  const Engine engine;
  const auto expr = setjoin::ClassicDivisionExpr("R", "S");
  auto handle = engine.Prepare(expr, db1);
  ASSERT_TRUE(handle.ok());

  db1.SetRelation("R", MakeRel(2, {{9, 10}, {9, 20}}));
  // db2 still holds the original data; the handle must evaluate each
  // database's own relations, not the other's.
  auto on_db2 = engine.Run(*handle, db2);
  ASSERT_TRUE(on_db2.ok());
  EXPECT_EQ(on_db2->relation, MakeRel(1, {{1}}));
  auto on_db1 = engine.Run(*handle, db1);
  ASSERT_TRUE(on_db1.ok());
  EXPECT_EQ(on_db1->relation, MakeRel(1, {{9}}));
}

TEST(Engine, PreparedHandleSurvivesCacheEvictionMidSequence) {
  auto db = setalg::testing::DivisionDb(
      MakeRel(2, {{1, 10}, {2, 20}, {3, 10}}), MakeRel(1, {{10}}));
  EngineOptions options;
  // Any other query evicts the handle's entry.
  options.shared_plan_cache = std::make_shared<SharedPlanCache>(1, 0);
  const Engine engine(options);
  const auto expr = setjoin::ClassicDivisionExpr("R", "S");

  auto handle = engine.Prepare(expr, db);
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(engine.Run(*handle, db).ok());

  // Evict the handle's entry by running a different query through the
  // 1-entry cache, then mutate and run the evicted handle again.
  ASSERT_TRUE(engine.Run(ra::Project(ra::Rel("R", 2), {1}), db).ok());
  EXPECT_GE(engine.plan_cache()->stats().evictions, 1u);
  db.mutable_relation("R")->Add({4, 10});
  auto run = engine.Run(*handle, db);
  ASSERT_TRUE(run.ok()) << run.error();
  EXPECT_EQ(run->stats.cache, CacheOutcome::kRevalidated);
  EXPECT_EQ(run->relation, ra::Eval(expr, db));
}

TEST(Engine, ClearPlanCacheThenRePrepareIsAFreshStart) {
  auto db = setalg::testing::DivisionDb(
      MakeRel(2, {{1, 10}, {2, 20}}), MakeRel(1, {{10}}));
  EngineOptions options;
  options.shared_plan_cache = std::make_shared<SharedPlanCache>(4, 0);
  const Engine engine(options);
  const auto expr = setjoin::ClassicDivisionExpr("R", "S");

  ASSERT_TRUE(engine.Prepare(expr, db).ok());
  ASSERT_TRUE(engine.Run(expr, db).ok());
  engine.plan_cache()->Clear();
  EXPECT_EQ(engine.plan_cache()->size(), 0u);

  auto handle = engine.Prepare(expr, db);
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(engine.plan_cache()->size(), 1u);
  auto run = engine.Run(*handle, db);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->stats.cache, CacheOutcome::kHit);
  EXPECT_EQ(run->relation, ra::Eval(expr, db));
}

TEST(Engine, RunRecordsPerOperatorStats) {
  const auto db = SmallDb();
  const Engine engine;
  PhysicalPlan plan;
  plan.root = MakeDivision(MakeScan("R", 2), MakeScan("S", 1),
                           setjoin::DivisionAlgorithm::kSortMerge,
                           /*equality=*/false);
  auto run = engine.Run(plan, db);
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run->stats.ops.size(), 3u);  // Two scans + the division.
  EXPECT_EQ(run->stats.ops.back().label, "division[sort-merge]");
  EXPECT_EQ(run->relation, setjoin::Divide(db.relation("R"), db.relation("S"),
                                           setjoin::DivisionAlgorithm::kSortMerge));
}

}  // namespace
}  // namespace setalg::engine
