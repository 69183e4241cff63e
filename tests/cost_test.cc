// Tests for cost-based planning: CostBased() parity with Reference() on
// randomized databases, the model's algorithm choices at the paper's
// benchmark shapes (hash division / hash set-join at scale), and the
// estimated-vs-actual instrumentation in PlanStats.
#include <gtest/gtest.h>

#include <string>

#include "engine/cost.h"
#include "engine/engine.h"
#include "ra/eval.h"
#include "ra/expr.h"
#include "ra/rewrite.h"
#include "setjoin/division.h"
#include "stats/stats.h"
#include "test_util.h"
#include "workload/generators.h"

namespace setalg::engine {
namespace {

using core::Relation;
using setalg::testing::MakeRel;

core::Database InstanceDb(const workload::DivisionInstance& instance) {
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 1);
  core::Database db(schema);
  db.SetRelation("R", instance.r);
  db.SetRelation("S", instance.s);
  return db;
}

// The bench's workload shape at a given n (bench_division.cc::Instance).
workload::DivisionInstance BenchInstance(std::size_t n, std::uint64_t seed = 17) {
  workload::DivisionConfig config;
  config.num_groups = n / 8;
  config.group_size = 8;
  config.domain_size = std::max<std::size_t>(64, n / 4);
  config.divisor_size = std::max<std::size_t>(4, n / 64);
  config.match_fraction = 0.2;
  config.seed = seed;
  return workload::MakeDivisionInstance(config);
}

ExprEstimate EstimateOf(const Relation& relation) {
  return FromStats(stats::ComputeRelationStats(relation));
}

// ---------------------------------------------------------------------------
// Parity: cost-based planning must never change results.
// ---------------------------------------------------------------------------

TEST(CostBased, MatchesReferenceOnRandomizedDivisionInstances) {
  const Engine cost_based(EngineOptions::CostBased());
  const Engine reference(EngineOptions::Reference());
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    workload::DivisionConfig config;
    config.num_groups = 20 + 30 * (seed % 3);
    config.group_size = 2 + seed % 5;
    config.domain_size = 16 + 8 * (seed % 4);
    config.divisor_size = 2 + seed % 6;
    config.match_fraction = 0.3;
    config.seed = seed;
    const auto db = InstanceDb(workload::MakeDivisionInstance(config));
    for (const auto& expr : {setjoin::ClassicDivisionExpr("R", "S"),
                             setjoin::ClassicEqualityDivisionExpr("R", "S")}) {
      auto fast = cost_based.Run(expr, db);
      auto slow = reference.Run(expr, db);
      ASSERT_TRUE(fast.ok()) << fast.error();
      ASSERT_TRUE(slow.ok()) << slow.error();
      EXPECT_EQ(fast->relation, slow->relation) << "seed " << seed;
    }
  }
}

TEST(CostBased, MatchesReferenceOnRandomExpressions) {
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 1);
  schema.AddRelation("T", 2);
  const Engine cost_based(EngineOptions::CostBased());
  for (std::uint64_t seed = 21; seed <= 26; ++seed) {
    const auto db = setalg::testing::RandomDatabase(schema, 30, 12, seed);
    setalg::testing::RandomSaEqGenerator generator(schema, {1, 2, 3}, seed * 89);
    for (int trial = 0; trial < 10; ++trial) {
      const auto expr = generator.Generate(1 + trial % 2, 3);
      const Relation expected = ra::Eval(expr, db);
      auto run = cost_based.Run(expr, db);
      ASSERT_TRUE(run.ok()) << run.error();
      EXPECT_EQ(run->relation, expected) << expr->ToString();
    }
  }
}

TEST(CostBased, MatchesReferenceOnJoinFormsOfRandomExpressions) {
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 1);
  const Engine cost_based(EngineOptions::CostBased());
  for (std::uint64_t seed = 31; seed <= 34; ++seed) {
    const auto db = setalg::testing::RandomDatabase(schema, 24, 10, seed);
    setalg::testing::RandomSaEqGenerator generator(schema, {1, 2}, seed * 131);
    for (int trial = 0; trial < 8; ++trial) {
      const auto expr = ra::SemiJoinToJoin(generator.Generate(1, 3));
      const Relation expected = ra::Eval(expr, db);
      auto run = cost_based.Run(expr, db);
      ASSERT_TRUE(run.ok()) << run.error();
      EXPECT_EQ(run->relation, expected) << expr->ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// Algorithm choices.
// ---------------------------------------------------------------------------

TEST(CostBased, PicksHashDivisionAtBenchScale) {
  // The acceptance shape: at n=16000 the model must route the classic RA
  // expression to hash division (the bench JSON asserts the same).
  const auto db = InstanceDb(BenchInstance(16000));
  const Engine engine(EngineOptions::CostBased());
  auto run = engine.Run(setjoin::ClassicDivisionExpr("R", "S"), db);
  ASSERT_TRUE(run.ok()) << run.error();
  ASSERT_FALSE(run->stats.choices.empty());
  bool found = false;
  for (const auto& choice : run->stats.choices) {
    if (choice.site == "division") {
      EXPECT_EQ(choice.algorithm, "hash-division");
      EXPECT_GT(choice.estimate.cost, 0.0);
      found = true;
    }
  }
  EXPECT_TRUE(found) << "no division choice recorded";
}

TEST(CostModel, DivisionFormulasSeparateTheAsymptoticRegimes) {
  const auto instance = BenchInstance(16000);
  const ExprEstimate r = EstimateOf(instance.r);
  const ExprEstimate s = EstimateOf(instance.s);
  ASSERT_TRUE(r.exact);

  const CostModel model(nullptr);
  const auto choice = model.ChooseDivision(r, s, /*equality=*/false);
  EXPECT_EQ(choice.algorithm, setjoin::DivisionAlgorithm::kHashDivision);

  // The g·m-probing algorithms must price far above the single-pass ones
  // at this shape, and the classic plan's intermediate must reflect the
  // Ω(n²) product (Proposition 26).
  const auto nested =
      model.EstimateDivision(setjoin::DivisionAlgorithm::kNestedLoop, r, s, false);
  const auto classic =
      model.EstimateDivision(setjoin::DivisionAlgorithm::kClassicRa, r, s, false);
  EXPECT_GT(nested.cost, 4 * choice.estimate.cost);
  EXPECT_GT(classic.max_intermediate, 10 * choice.estimate.max_intermediate);
}

TEST(CostModel, PicksHashSetJoinsAtBenchScale) {
  workload::SetJoinConfig config;
  config.r_groups = 4000;
  config.s_groups = 4000;
  config.r_group_size = 4;
  config.s_group_size = 4;
  config.domain_size = 12;
  config.seed = 29;
  const auto instance = workload::MakeSetJoinInstance(config);
  const auto equality =
      CostModel(nullptr).ChooseSetEquality(EstimateOf(instance.r), EstimateOf(instance.s));
  EXPECT_EQ(equality.algorithm, setjoin::EqualityJoinAlgorithm::kCanonicalHash);

  workload::SetJoinConfig containment_config;
  containment_config.r_groups = 2000;
  containment_config.s_groups = 2000;
  containment_config.r_group_size = 8;
  containment_config.s_group_size = 4;
  containment_config.domain_size = 1000;
  const auto big = workload::MakeSetJoinInstance(containment_config);
  const auto containment =
      CostModel(nullptr).ChooseContainment(EstimateOf(big.r), EstimateOf(big.s));
  // At scale the counting inverted index must beat the plain nested loop
  // by a wide margin in the model, as it does in the measurements.
  const auto nested = CostModel(nullptr).EstimateContainment(
      setjoin::ContainmentAlgorithm::kNestedLoop, EstimateOf(big.r), EstimateOf(big.s));
  EXPECT_NE(containment.algorithm, setjoin::ContainmentAlgorithm::kNestedLoop);
  EXPECT_GT(nested.cost, 4 * containment.estimate.cost);
}

TEST(CostBased, PartitionedRunMatchesSerialAtBenchScale) {
  // Cost-based planning under a worker pool: at bench scale the division
  // fans out, and the partitioned run must still match the serial
  // cost-based result.
  const auto db = InstanceDb(BenchInstance(8000));
  EngineOptions parallel = EngineOptions::CostBased();
  parallel.threads = 4;
  const Engine engine(parallel);
  auto run = engine.Run(setjoin::ClassicDivisionExpr("R", "S"), db);
  ASSERT_TRUE(run.ok()) << run.error();
  EXPECT_GT(run->stats.partitions, 0u);

  auto serial = Engine(EngineOptions::CostBased())
                    .Run(setjoin::ClassicDivisionExpr("R", "S"), db);
  ASSERT_TRUE(serial.ok()) << serial.error();
  EXPECT_EQ(run->relation, serial->relation);
  EXPECT_EQ(run->stats.max_intermediate, serial->stats.max_intermediate);
}

TEST(CostBased, SemijoinsWithoutAnEqualityAtomRunSerialUnderAPool) {
  // A pure-inequality semijoin has no co-partitioning key: the operator
  // always runs serial, whatever the pool.
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("T", 2);
  core::Database db(schema);
  db.SetRelation("R", workload::UniformBinaryRelation(300, 40, 3));
  db.SetRelation("T", workload::UniformBinaryRelation(300, 40, 4));
  EngineOptions parallel = EngineOptions::CostBased();
  parallel.threads = 4;
  const auto expr = ra::SemiJoin(ra::Rel("R", 2), ra::Rel("T", 2),
                                 {{1, ra::Cmp::kLt, 1}});
  auto run = Engine(parallel).Run(expr, db);
  ASSERT_TRUE(run.ok()) << run.error();
  EXPECT_EQ(run->stats.partitions, 0u);
  auto serial = Engine(EngineOptions::CostBased()).Run(expr, db);
  ASSERT_TRUE(serial.ok()) << serial.error();
  EXPECT_EQ(run->relation, serial->relation);
}

TEST(CostModel, SemijoinKernelChoiceDegradesToGenericOnTinyInputs) {
  ExprEstimate tiny;
  tiny.cardinality = 4;
  ExprEstimate big;
  big.cardinality = 100000;
  const std::vector<ra::JoinAtom> eq = {{1, ra::Cmp::kEq, 1}};
  const CostModel model(nullptr);
  EXPECT_EQ(model.ChooseSemijoin(tiny, tiny, eq), SemijoinStrategy::kGeneric);
  EXPECT_EQ(model.ChooseSemijoin(big, big, eq), SemijoinStrategy::kFastKernel);
  EXPECT_EQ(model.ChooseSemijoin(big, big, {}), SemijoinStrategy::kGeneric);
}

// ---------------------------------------------------------------------------
// Estimated-vs-actual instrumentation.
// ---------------------------------------------------------------------------

TEST(CostBased, ScanEstimatesAreExactAndPairedWithActuals) {
  const auto db = InstanceDb(BenchInstance(1000));
  const Engine engine(EngineOptions::CostBased());
  auto run = engine.Run(setjoin::ClassicDivisionExpr("R", "S"), db);
  ASSERT_TRUE(run.ok()) << run.error();
  bool saw_scan = false;
  for (const auto& op : run->stats.ops) {
    ASSERT_TRUE(op.has_estimate) << op.label;
    if (op.label.rfind("scan", 0) == 0) {
      // Scans are backed by real statistics: the prediction is exact.
      EXPECT_DOUBLE_EQ(op.estimated_output, static_cast<double>(op.output_size))
          << op.label;
      saw_scan = true;
    }
  }
  EXPECT_TRUE(saw_scan);
}

TEST(CostBased, SchemaOnlyPlanningFallsBackToDefaults) {
  // Without a database there are no statistics: Plan(expr, schema) must
  // still work, with no estimates and no recorded choices.
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 1);
  const Engine engine(EngineOptions::CostBased());
  auto plan = engine.Plan(setjoin::ClassicDivisionExpr("R", "S"), schema);
  ASSERT_TRUE(plan.ok()) << plan.error();
  EXPECT_TRUE(plan->choices.empty());
  EXPECT_TRUE(plan->estimates.empty());
  // The division rewrite still fires with the unpriced pick: a stored
  // dividend is read sorted and in place, so sort-merge.
  ASSERT_FALSE(plan->rewrites.empty());
  EXPECT_NE(plan->rewrites[0].find("sort-merge"), std::string::npos);
}

TEST(CostBased, ExplainShowsTheChoice) {
  const auto db = InstanceDb(BenchInstance(2000));
  const Engine engine(EngineOptions::CostBased());
  auto text = engine.Explain(setjoin::ClassicDivisionExpr("R", "S"), db);
  ASSERT_TRUE(text.ok()) << text.error();
  EXPECT_NE(text->find("cost-based: division → hash-division"), std::string::npos)
      << *text;
}

}  // namespace
}  // namespace setalg::engine
