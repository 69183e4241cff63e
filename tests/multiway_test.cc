// The worst-case-optimal multiway join: AGM bound exactness on
// hand-computable hypergraphs, the generic-join operator differentially
// against reference evaluation of the equivalent binary chain (cyclic,
// acyclic, star, skewed, and empty-input shapes, serial and partitioned),
// and the planner's cost-based multiway-vs-binary routing on data whose
// binary intermediates blow past the AGM bound.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "engine/cost.h"
#include "engine/engine.h"
#include "engine/multiway.h"
#include "engine/parallel.h"
#include "ra/expr.h"
#include "test_util.h"
#include "util/rng.h"

namespace setalg::engine {
namespace {

using core::Relation;

// ---------------------------------------------------------------------------
// AGM bound: the fractional-edge-cover LP on hypergraphs whose optima are
// hand-computable.
// ---------------------------------------------------------------------------

JoinHypergraph Graph(std::size_t num_vars,
                     std::vector<JoinHypergraph::Edge> edges) {
  JoinHypergraph g;
  g.num_vars = num_vars;
  g.edges = std::move(edges);
  return g;
}

TEST(AgmBound, TriangleIsNToTheThreeHalves) {
  // R(a,b) ⋈ S(b,c) ⋈ T(c,a): optimal weights (1/2, 1/2, 1/2) → n^1.5.
  const auto g = Graph(3, {{{0, 1}, 100.0}, {{1, 2}, 100.0}, {{2, 0}, 100.0}});
  EXPECT_NEAR(AgmBound(g), 1000.0, 1e-6);
  const auto cover = SolveFractionalEdgeCover(g);
  ASSERT_TRUE(cover.feasible);
  for (double w : cover.weights) EXPECT_NEAR(w, 0.5, 1e-6);
}

TEST(AgmBound, FourCycleIsNSquared) {
  // Opposite edges cover all four variables: weights (1/2, 1/2, 1/2, 1/2).
  const auto g = Graph(4, {{{0, 1}, 50.0}, {{1, 2}, 50.0}, {{2, 3}, 50.0},
                           {{3, 0}, 50.0}});
  EXPECT_NEAR(AgmBound(g), 2500.0, 1e-6);
}

TEST(AgmBound, StarNeedsEveryEdgeFully) {
  // R(a,b) ⋈ S(a,c) ⋈ T(a,d): b, c, d are each covered by exactly one
  // edge, which pins every weight to 1 → n³.
  const auto g = Graph(4, {{{0, 1}, 100.0}, {{0, 2}, 100.0}, {{0, 3}, 100.0}});
  EXPECT_NEAR(AgmBound(g), 1e6, 1e-3);
  const auto cover = SolveFractionalEdgeCover(g);
  ASSERT_TRUE(cover.feasible);
  for (double w : cover.weights) EXPECT_NEAR(w, 1.0, 1e-6);
}

TEST(AgmBound, PathIsProductOfEndpointEdges) {
  // R(a,b) ⋈ S(b,c): both edges at weight 1 → n·m.
  const auto g = Graph(3, {{{0, 1}, 50.0}, {{1, 2}, 80.0}});
  EXPECT_NEAR(AgmBound(g), 4000.0, 1e-6);
}

TEST(AgmBound, UnequalTriangleUsesGeometricMean) {
  const auto g = Graph(3, {{{0, 1}, 100.0}, {{1, 2}, 400.0}, {{2, 0}, 900.0}});
  EXPECT_NEAR(AgmBound(g), std::sqrt(100.0 * 400.0 * 900.0), 1e-6);
}

TEST(AgmBound, EmptyEdgeZeroesTheBound) {
  const auto g = Graph(3, {{{0, 1}, 0.0}, {{1, 2}, 100.0}, {{2, 0}, 100.0}});
  const auto cover = SolveFractionalEdgeCover(g);
  EXPECT_TRUE(cover.feasible);
  EXPECT_EQ(cover.bound, 0.0);
}

TEST(AgmBound, UncoveredVariableIsInfeasible) {
  const auto g = Graph(2, {{{0}, 100.0}});
  const auto cover = SolveFractionalEdgeCover(g);
  EXPECT_FALSE(cover.feasible);
  EXPECT_TRUE(std::isinf(AgmBound(g)));
}

// ---------------------------------------------------------------------------
// The operator, hand-built, vs reference evaluation of the equivalent
// binary chain. Every shape runs serial (threads 1) and pooled (2, 7); the
// operator splits by variable 0 only when the inputs binding it hold at
// least two kMinPartitionRows floors of rows.
// ---------------------------------------------------------------------------

core::Database ThreeBinaryDb(const Relation& r, const Relation& s,
                             const Relation& t) {
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 2);
  schema.AddRelation("T", 2);
  core::Database db(schema);
  db.SetRelation("R", r);
  db.SetRelation("S", s);
  db.SetRelation("T", t);
  return db;
}

Relation RandomEdges(std::size_t rows, std::size_t domain, std::uint64_t seed) {
  util::Rng rng(seed);
  Relation r(2);
  for (std::size_t i = 0; i < rows; ++i) {
    r.Add({static_cast<core::Value>(rng.NextBounded(domain)),
           static_cast<core::Value>(rng.NextBounded(domain))});
  }
  return r;
}

// Runs the hand-built plan under every execution configuration and
// asserts it matches `expected` (already normalized) everywhere. A pooled
// run cuts `partitions(threads)` partitions (0: it stays serial).
void ExpectMultiwayPlanMatches(
    PhysicalOpPtr root, const core::Database& db, const Relation& expected,
    const std::string& context,
    const std::function<std::size_t(std::size_t)>& partitions = [](std::size_t) {
      return std::size_t{0};
    }) {
  PhysicalPlan plan;
  plan.root = std::move(root);
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    auto run = Engine(EngineOptions{}.WithThreads(threads)).Run(plan, db);
    ASSERT_TRUE(run.ok()) << context << " threads=" << threads << ": "
                          << run.error();
    EXPECT_EQ(run->relation, expected) << context << " threads=" << threads;
    EXPECT_EQ(run->relation.size(), run->stats.join_rows_emitted)
        << context << " threads=" << threads;
    EXPECT_EQ(run->stats.partitions, threads == 1 ? 0 : partitions(threads))
        << context << " threads=" << threads;
  }
}

TEST(MultiwayJoin, TriangleMatchesReference) {
  const auto db = ThreeBinaryDb(RandomEdges(60, 9, 11), RandomEdges(60, 9, 12),
                                RandomEdges(60, 9, 13));
  const auto expr = ra::Project(
      ra::Join(ra::Join(ra::Rel("R", 2), ra::Rel("S", 2), {{2, ra::Cmp::kEq, 1}}),
               ra::Rel("T", 2), {{4, ra::Cmp::kEq, 1}, {1, ra::Cmp::kEq, 2}}),
      {1, 2, 4});
  auto expected = Engine(EngineOptions::Reference()).Run(expr, db);
  ASSERT_TRUE(expected.ok()) << expected.error();
  ExpectMultiwayPlanMatches(
      MakeMultiwayJoin({MakeScan("R", 2), MakeScan("S", 2), MakeScan("T", 2)},
                       {{0, 1}, {1, 2}, {2, 0}}, 3),
      db, expected->relation, "triangle");
}

TEST(MultiwayJoin, FourCycleMatchesReference) {
  core::Schema schema;
  for (const char* name : {"R", "S", "T", "U"}) schema.AddRelation(name, 2);
  core::Database db(schema);
  db.SetRelation("R", RandomEdges(50, 8, 21));
  db.SetRelation("S", RandomEdges(50, 8, 22));
  db.SetRelation("T", RandomEdges(50, 8, 23));
  db.SetRelation("U", RandomEdges(50, 8, 24));
  const auto expr = ra::Project(
      ra::Join(ra::Join(ra::Join(ra::Rel("R", 2), ra::Rel("S", 2),
                                 {{2, ra::Cmp::kEq, 1}}),
                        ra::Rel("T", 2), {{4, ra::Cmp::kEq, 1}}),
               ra::Rel("U", 2), {{6, ra::Cmp::kEq, 1}, {1, ra::Cmp::kEq, 2}}),
      {1, 2, 4, 6});
  auto expected = Engine(EngineOptions::Reference()).Run(expr, db);
  ASSERT_TRUE(expected.ok()) << expected.error();
  ExpectMultiwayPlanMatches(
      MakeMultiwayJoin({MakeScan("R", 2), MakeScan("S", 2), MakeScan("T", 2),
                        MakeScan("U", 2)},
                       {{0, 1}, {1, 2}, {2, 3}, {3, 0}}, 4),
      db, expected->relation, "four-cycle");
}

TEST(MultiwayJoin, StarMatchesReference) {
  const auto db = ThreeBinaryDb(RandomEdges(40, 7, 31), RandomEdges(40, 7, 32),
                                RandomEdges(40, 7, 33));
  const auto expr = ra::Project(
      ra::Join(ra::Join(ra::Rel("R", 2), ra::Rel("S", 2), {{1, ra::Cmp::kEq, 1}}),
               ra::Rel("T", 2), {{1, ra::Cmp::kEq, 1}}),
      {1, 2, 4, 6});
  auto expected = Engine(EngineOptions::Reference()).Run(expr, db);
  ASSERT_TRUE(expected.ok()) << expected.error();
  ExpectMultiwayPlanMatches(
      MakeMultiwayJoin({MakeScan("R", 2), MakeScan("S", 2), MakeScan("T", 2)},
                       {{0, 1}, {0, 2}, {0, 3}}, 4),
      db, expected->relation, "star");
}

TEST(MultiwayJoin, SkewedKeyStaysCorrectUnderPartitioning) {
  // One heavy variable-0 value (most rows share a = 1): hash-partitioning
  // by variable 0 lands nearly everything in one task; the merge must
  // still be exact. R(a, b) and T(c, a) bind variable 0 and together hold
  // 7 floors of rows, so every pooled run splits `threads` ways; S maps
  // each b to one c and T is complete, so every R row closes a triangle.
  const std::size_t n = 7 * kMinPartitionRows - 42;
  Relation r(2), s(2), t(2);
  for (std::size_t i = 0; i < n; ++i) {
    const auto a = static_cast<core::Value>(i < n * 17 / 20 ? 1 : 2 + i % 5);
    const auto b = static_cast<core::Value>(i);
    r.Add({a, b});
    s.Add({b, b % 7});
  }
  for (core::Value c = 0; c < 7; ++c) {
    for (core::Value a = 1; a <= 6; ++a) t.Add({c, a});
  }
  ASSERT_EQ(r.size() + t.size(), 7 * kMinPartitionRows);
  const auto db = ThreeBinaryDb(r, s, t);
  const auto expr = ra::Project(
      ra::Join(ra::Join(ra::Rel("R", 2), ra::Rel("S", 2), {{2, ra::Cmp::kEq, 1}}),
               ra::Rel("T", 2), {{4, ra::Cmp::kEq, 1}, {1, ra::Cmp::kEq, 2}}),
      {1, 2, 4});
  auto expected = Engine(EngineOptions::Reference()).Run(expr, db);
  ASSERT_TRUE(expected.ok()) << expected.error();
  ASSERT_EQ(expected->relation.size(), n);
  ExpectMultiwayPlanMatches(
      MakeMultiwayJoin({MakeScan("R", 2), MakeScan("S", 2), MakeScan("T", 2)},
                       {{0, 1}, {1, 2}, {2, 0}}, 3),
      db, expected->relation, "skewed", [](std::size_t threads) { return threads; });
}

TEST(MultiwayJoin, EmptyInputEmptiesTheJoin) {
  const auto db =
      ThreeBinaryDb(RandomEdges(30, 5, 51), Relation(2), RandomEdges(30, 5, 52));
  ExpectMultiwayPlanMatches(
      MakeMultiwayJoin({MakeScan("R", 2), MakeScan("S", 2), MakeScan("T", 2)},
                       {{0, 1}, {1, 2}, {2, 0}}, 3),
      db, Relation(3), "empty-input");
}

TEST(MultiwayJoin, DuplicateVariableWithinOneInputFiltersRows) {
  // S binds variable 0 with both columns: only its diagonal rows join.
  Relation r(2), s(2);
  for (core::Value v = 0; v < 6; ++v) {
    r.Add({v, v + 10});
    s.Add({v, v});
    s.Add({v, v + 1});
  }
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 2);
  core::Database db(schema);
  db.SetRelation("R", r);
  db.SetRelation("S", s);
  const auto expr = ra::Project(
      ra::Join(ra::Rel("R", 2),
               ra::SelectEq(ra::Rel("S", 2), 1, 2),
               {{1, ra::Cmp::kEq, 1}}),
      {1, 2});
  auto expected = Engine(EngineOptions::Reference()).Run(expr, db);
  ASSERT_TRUE(expected.ok()) << expected.error();
  ExpectMultiwayPlanMatches(
      MakeMultiwayJoin({MakeScan("R", 2), MakeScan("S", 2)}, {{0, 1}, {0, 0}}, 2),
      db, expected->relation, "duplicate-variable");
}

// A binary relation whose first column holds runs: the i-th key repeats
// 1 + (13 i + offset) mod 70 times, paired with the second values 0,
// stride, 2 stride, .... Each input spaces its keys differently, so other
// inputs' keys fall between its runs, and all share the first and last
// key, so a seek's target sits first and last in its range.
Relation Runs(const std::vector<core::Value>& keys, std::size_t offset,
              core::Value stride) {
  Relation r(2);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::size_t run = 1 + (i * 13 + offset) % 70;
    for (std::size_t j = 0; j < run; ++j) {
      r.Add({keys[i], static_cast<core::Value>(j) * stride});
    }
  }
  return r;
}

// Keys 0, step, 2 step, ..., up to `last`, always ending at `last`.
std::vector<core::Value> Keys(core::Value step, core::Value last) {
  std::vector<core::Value> keys;
  for (core::Value k = 0; k < last; k += step) keys.push_back(k);
  keys.push_back(last);
  return keys;
}

TEST(MultiwayJoin, GallopingSeeksOverEveryRunLengthMatchReference) {
  // Every seek gallops over runs of 1..70 equal values, so its probes land
  // on both sides of every power of two up to 64. Second values share the
  // key domain (0..210), so each level's seeks run over the runs too.
  const Relation r = Runs(Keys(3, 210), 0, 3);
  const Relation s = Runs(Keys(2, 210), 5, 2);
  const Relation t = Runs(Keys(5, 210), 11, 5);
  const Relation u = Runs(Keys(7, 210), 17, 7);
  {
    const auto db = ThreeBinaryDb(r, s, t);
    const auto expr = ra::Project(
        ra::Join(ra::Join(ra::Rel("R", 2), ra::Rel("S", 2), {{2, ra::Cmp::kEq, 1}}),
                 ra::Rel("T", 2), {{4, ra::Cmp::kEq, 1}, {1, ra::Cmp::kEq, 2}}),
        {1, 2, 4});
    auto expected = Engine(EngineOptions::Reference()).Run(expr, db);
    ASSERT_TRUE(expected.ok()) << expected.error();
    ASSERT_GT(expected->relation.size(), 0u);
    ExpectMultiwayPlanMatches(
        MakeMultiwayJoin({MakeScan("R", 2), MakeScan("S", 2), MakeScan("T", 2)},
                         {{0, 1}, {1, 2}, {2, 0}}, 3),
        db, expected->relation, "triangle over runs");
  }
  {
    core::Schema schema;
    for (const char* name : {"R", "S", "T", "U"}) schema.AddRelation(name, 2);
    core::Database db(schema);
    db.SetRelation("R", r);
    db.SetRelation("S", s);
    db.SetRelation("T", t);
    db.SetRelation("U", u);
    const auto expr = ra::Project(
        ra::Join(ra::Join(ra::Join(ra::Rel("R", 2), ra::Rel("S", 2),
                                   {{2, ra::Cmp::kEq, 1}}),
                          ra::Rel("T", 2), {{4, ra::Cmp::kEq, 1}}),
                 ra::Rel("U", 2), {{6, ra::Cmp::kEq, 1}, {1, ra::Cmp::kEq, 2}}),
        {1, 2, 4, 6});
    auto expected = Engine(EngineOptions::Reference()).Run(expr, db);
    ASSERT_TRUE(expected.ok()) << expected.error();
    ASSERT_GT(expected->relation.size(), 0u);
    ExpectMultiwayPlanMatches(
        MakeMultiwayJoin({MakeScan("R", 2), MakeScan("S", 2), MakeScan("T", 2),
                          MakeScan("U", 2)},
                         {{0, 1}, {1, 2}, {2, 3}, {3, 0}}, 4),
        db, expected->relation, "four-cycle over runs");
  }
}

// ---------------------------------------------------------------------------
// Planner routing: on skewed data whose binary intermediates blow past
// the AGM bound the cost-based planner must route the chain to the
// multiway operator — and the run's PlanStats must prove it stayed under
// the bound while the binary plan exceeds it.
// ---------------------------------------------------------------------------

// R = X×Y and S = Y×Z complete bipartite through a d-element middle
// domain: est(R⋈S) = n²/d tuples vs AGM bound n^1.5. T is n random
// (c, a) pairs. Disjoint value ranges per variable keep the estimator's
// distinct counts exact.
core::Database SkewedTriangleDb(std::size_t n, std::size_t d,
                                std::uint64_t seed) {
  const std::size_t side = n / d;
  Relation r(2), s(2), t(2);
  for (std::size_t x = 0; x < side; ++x) {
    for (std::size_t y = 0; y < d; ++y) {
      r.Add({static_cast<core::Value>(1 + x),
             static_cast<core::Value>(100001 + y)});
    }
  }
  for (std::size_t y = 0; y < d; ++y) {
    for (std::size_t z = 0; z < side; ++z) {
      s.Add({static_cast<core::Value>(100001 + y),
             static_cast<core::Value>(200001 + z)});
    }
  }
  util::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    t.Add({static_cast<core::Value>(200001 + rng.NextBounded(side)),
           static_cast<core::Value>(1 + rng.NextBounded(side))});
  }
  return ThreeBinaryDb(r, s, t);
}

ra::ExprPtr BinaryTriangleChain() {
  return ra::Join(
      ra::Join(ra::Rel("R", 2), ra::Rel("S", 2), {{2, ra::Cmp::kEq, 1}}),
      ra::Rel("T", 2), {{4, ra::Cmp::kEq, 1}, {1, ra::Cmp::kEq, 2}});
}

bool RoutedToMultiway(const PhysicalPlan& plan) {
  for (const auto& rewrite : plan.rewrites) {
    if (rewrite.find("multiway generic join") != std::string::npos) return true;
  }
  return false;
}

TEST(MultiwayPlanner, CostBasedRoutingStaysUnderTheAgmBound) {
  const auto db = SkewedTriangleDb(2000, 10, 7);
  const auto expr = BinaryTriangleChain();

  const Engine multiway(EngineOptions::CostBased().WithMultiway());
  auto plan = multiway.Plan(expr, db);
  ASSERT_TRUE(plan.ok()) << plan.error();
  ASSERT_TRUE(plan->has_agm_bound);
  EXPECT_TRUE(RoutedToMultiway(*plan));
  bool priced = false;
  for (const auto& choice : plan->choices) {
    if (choice.site == "join-chain") {
      priced = true;
      EXPECT_EQ(choice.algorithm.rfind("multiway", 0), 0u) << choice.algorithm;
    }
  }
  EXPECT_TRUE(priced);

  auto routed = multiway.Run(expr, db);
  ASSERT_TRUE(routed.ok()) << routed.error();
  ASSERT_TRUE(routed->stats.has_agm_bound);
  // √(n·n·|T|) with |T| a hair under n (random duplicate collisions).
  EXPECT_NEAR(routed->stats.agm_bound, std::pow(2000.0, 1.5),
              0.03 * std::pow(2000.0, 1.5));
  EXPECT_LE(static_cast<double>(routed->stats.max_intermediate),
            routed->stats.agm_bound);

  const Engine binary(EngineOptions::CostBased());
  auto kept = binary.Run(expr, db);
  ASSERT_TRUE(kept.ok()) << kept.error();
  EXPECT_FALSE(kept->stats.has_agm_bound);
  EXPECT_GT(static_cast<double>(kept->stats.max_intermediate),
            routed->stats.agm_bound);

  EXPECT_EQ(routed->relation.flat(), kept->relation.flat());
}

TEST(MultiwayPlanner, PlannedModeRoutesOnIntermediateVsBound) {
  // Without cost_based the router compares the binary plan's estimated
  // max intermediate against the AGM bound directly.
  const auto db = SkewedTriangleDb(2000, 10, 9);
  const Engine engine(EngineOptions{}.WithMultiway());
  auto plan = engine.Plan(BinaryTriangleChain(), db);
  ASSERT_TRUE(plan.ok()) << plan.error();
  EXPECT_TRUE(RoutedToMultiway(*plan));
  auto run = engine.Run(BinaryTriangleChain(), db);
  ASSERT_TRUE(run.ok()) << run.error();
  auto reference = Engine(EngineOptions::Reference()).Run(BinaryTriangleChain(), db);
  ASSERT_TRUE(reference.ok()) << reference.error();
  EXPECT_EQ(run->relation, reference->relation);
}

TEST(MultiwayPlanner, StaticRunRoutesLikeAPersistentEngine) {
  // The one-shot Engine::Run reads statistics by the same rule as every
  // engine: multiway options need them to price a chain against its AGM
  // bound, so the static run routes the triangle too.
  const auto db = SkewedTriangleDb(2000, 10, 9);
  auto run = Engine::Run(BinaryTriangleChain(), db, EngineOptions{}.WithMultiway());
  ASSERT_TRUE(run.ok()) << run.error();
  bool routed = false;
  for (const auto& rewrite : run->stats.rewrites) {
    routed = routed || rewrite.find("multiway generic join") != std::string::npos;
  }
  EXPECT_TRUE(routed);
  EXPECT_TRUE(run->stats.has_agm_bound);
  auto reference = Engine(EngineOptions::Reference()).Run(BinaryTriangleChain(), db);
  ASSERT_TRUE(reference.ok()) << reference.error();
  EXPECT_EQ(run->relation, reference->relation);
}

TEST(MultiwayPlanner, UniformDataKeepsTheBinaryPlan) {
  // Uniform random edges: the binary intermediates sit under the AGM
  // bound, so the chain is priced but the written plan survives.
  const auto db = ThreeBinaryDb(RandomEdges(200, 40, 61), RandomEdges(200, 40, 62),
                                RandomEdges(200, 40, 63));
  const Engine engine(EngineOptions::CostBased().WithMultiway());
  auto plan = engine.Plan(BinaryTriangleChain(), db);
  ASSERT_TRUE(plan.ok()) << plan.error();
  EXPECT_TRUE(plan->has_agm_bound);  // Priced even when not routed.
  EXPECT_FALSE(RoutedToMultiway(*plan));
  auto run = engine.Run(BinaryTriangleChain(), db);
  auto reference = Engine(EngineOptions::Reference()).Run(BinaryTriangleChain(), db);
  ASSERT_TRUE(run.ok() && reference.ok());
  EXPECT_EQ(run->relation, reference->relation);
}

TEST(MultiwayPlanner, InteriorSelectionBecomesVariableMerge) {
  // σ[2=3] over a product is the same chain as the explicit equality
  // join: the collector pushes the selection into the hypergraph.
  const auto db = SkewedTriangleDb(1000, 10, 13);
  const auto expr = ra::Join(
      ra::SelectEq(ra::Product(ra::Rel("R", 2), ra::Rel("S", 2)), 2, 3),
      ra::Rel("T", 2), {{4, ra::Cmp::kEq, 1}, {1, ra::Cmp::kEq, 2}});
  const Engine engine(EngineOptions::CostBased().WithMultiway());
  auto plan = engine.Plan(expr, db);
  ASSERT_TRUE(plan.ok()) << plan.error();
  EXPECT_TRUE(RoutedToMultiway(*plan));
  auto run = engine.Run(expr, db);
  auto reference = Engine(EngineOptions::Reference()).Run(expr, db);
  ASSERT_TRUE(run.ok()) << run.error();
  ASSERT_TRUE(reference.ok()) << reference.error();
  EXPECT_EQ(run->relation, reference->relation);
}

TEST(MultiwayPlanner, InteriorProjectionIsPruned) {
  // π[1,2,4] between the joins drops a duplicate column; the collector
  // re-indexes through it and the restored root projection stays exact.
  const auto db = SkewedTriangleDb(1000, 10, 17);
  const auto expr = ra::Join(
      ra::Project(ra::Join(ra::Rel("R", 2), ra::Rel("S", 2), {{2, ra::Cmp::kEq, 1}}),
                  {1, 2, 4}),
      ra::Rel("T", 2), {{3, ra::Cmp::kEq, 1}, {1, ra::Cmp::kEq, 2}});
  const Engine engine(EngineOptions::CostBased().WithMultiway());
  auto plan = engine.Plan(expr, db);
  ASSERT_TRUE(plan.ok()) << plan.error();
  EXPECT_TRUE(RoutedToMultiway(*plan));
  auto run = engine.Run(expr, db);
  auto reference = Engine(EngineOptions::Reference()).Run(expr, db);
  ASSERT_TRUE(run.ok()) << run.error();
  ASSERT_TRUE(reference.ok()) << reference.error();
  EXPECT_EQ(run->relation, reference->relation);
}

}  // namespace
}  // namespace setalg::engine
