// Differential fuzz harness for the SQL frontend (src/sql/).
//
// The property under test: sql::Compile is a *deterministic lowering* —
// for every statement in the generated workload the frontend must produce
// a tree structurally equal to the hand-built mirror from
// workload::MakeSqlWorkload (which re-implements the lowering rules of
// sql/analyzer.h independently), and running both sides through the
// engine must give bit-identical relations and matching PlanStats across
// every execution surface: {reference, cost-based, batch size 64,
// 2 threads} × plan-cache {off, on}, and the reference mode's results and
// row counts must match ra::Eval, the materializing reference. Because
// the trees are structurally equal, the planner's rewrites fire
// identically on both — the harness additionally pins that the division
// family routes through the division rewrite and that the triangle chain
// routes through the multiway join.
//
// The gfdiv family pairs SQL with gf::GfToSaEq output — semantically
// equal but structurally different trees — so only results compare there.
//
// Negative paths ride along: truncation fuzzing of every valid statement
// (no prefix may crash; every rejection must carry a "line:column:"
// location), unknown names, arity mismatches, ambiguous references.
//
// Reads SETALG_BATCH_SEED (default 1) like tests/batch_exec_test.cc; CI
// runs the seed matrix under ASan/UBSan and TSan.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/relation.h"
#include "engine/engine.h"
#include "ra/eval.h"
#include "ra/expr.h"
#include "sql/analyzer.h"
#include "sql/parser.h"
#include "util/str.h"
#include "workload/generators.h"

namespace setalg {
namespace {

std::uint64_t BaseSeed() {
  const char* env = std::getenv("SETALG_BATCH_SEED");
  if (env == nullptr || *env == '\0') return 1;
  char* end = nullptr;
  const std::uint64_t seed = std::strtoull(env, &end, 10);
  return (end == env) ? 1 : seed;
}

/// Full PlanStats comparison for two runs expected to execute the same
/// physical plan (structurally equal inputs, same options). Everything
/// except `cache` must agree — structurally equal trees share plan- and
/// result-cache entries, so the SQL run may hit what the RA run inserted.
void ExpectSameStats(const engine::PlanStats& expected,
                     const engine::PlanStats& actual,
                     const std::string& context) {
  EXPECT_EQ(expected.max_intermediate, actual.max_intermediate) << context;
  EXPECT_EQ(expected.total_intermediate, actual.total_intermediate) << context;
  EXPECT_EQ(expected.join_rows_emitted, actual.join_rows_emitted) << context;
  EXPECT_EQ(expected.rewrites, actual.rewrites) << context;
  EXPECT_EQ(expected.has_agm_bound, actual.has_agm_bound) << context;
  if (expected.has_agm_bound && actual.has_agm_bound) {
    EXPECT_DOUBLE_EQ(expected.agm_bound, actual.agm_bound) << context;
  }
  ASSERT_EQ(expected.choices.size(), actual.choices.size()) << context;
  for (std::size_t i = 0; i < expected.choices.size(); ++i) {
    EXPECT_EQ(expected.choices[i].site, actual.choices[i].site)
        << context << " choice " << i;
    EXPECT_EQ(expected.choices[i].algorithm, actual.choices[i].algorithm)
        << context << " choice " << i;
  }
  ASSERT_EQ(expected.ops.size(), actual.ops.size()) << context;
  for (std::size_t i = 0; i < expected.ops.size(); ++i) {
    EXPECT_EQ(expected.ops[i].label, actual.ops[i].label)
        << context << " op " << i;
    EXPECT_EQ(expected.ops[i].output_size, actual.ops[i].output_size)
        << context << " op " << i;
  }
}

struct ModeConfig {
  std::string name;
  engine::EngineOptions options;
};

std::vector<ModeConfig> Modes() {
  return {
      {"reference", engine::EngineOptions::Reference()},
      {"cost", engine::EngineOptions::CostBased()},
      {"batched", engine::EngineOptions{}.WithBatchSize(64)},
      {"parallel2", engine::EngineOptions{}.WithThreads(2)},
  };
}

bool HasRewrite(const engine::PlanStats& stats, const std::string& needle) {
  for (const auto& rewrite : stats.rewrites) {
    if (rewrite.find(needle) != std::string::npos) return true;
  }
  return false;
}

// The tentpole invariant: 500 paired statements per seed, every pair
// structurally equal after sql::Compile and bit-identical (result +
// stats) on every execution surface, with and without the plan cache.
TEST(SqlDifferential, FuzzAgainstHandBuiltLowerings) {
  const std::uint64_t seed = BaseSeed();
  const core::Database db = workload::SqlWorkloadDatabase(seed);
  const auto pairs = workload::MakeSqlWorkload({/*count=*/500, seed});
  ASSERT_EQ(pairs.size(), 500u);

  std::map<std::string, std::size_t> families;
  std::size_t division_routed = 0;
  std::size_t nonempty_results = 0;

  for (const auto& [mode, options] : Modes()) {
    for (const std::size_t cache_entries : {std::size_t{0}, std::size_t{8}}) {
      const engine::Engine engine(options.WithSharedCaches(
          cache_entries == 0
              ? nullptr
              : std::make_shared<engine::SharedPlanCache>(cache_entries, 0),
          nullptr));
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        const auto& pair = pairs[i];
        const std::string context = "pair " + std::to_string(i) + " [" +
                                    pair.family + "] mode=" + mode +
                                    " cache=" + std::to_string(cache_entries) +
                                    " sql: " + pair.sql;
        if (mode == "reference" && cache_entries == 0) {
          families[pair.family]++;
        }

        auto lowered = sql::Compile(pair.sql, db.schema());
        ASSERT_TRUE(lowered.ok()) << context << "\nerror: " << lowered.error();
        if (pair.compare_stats) {
          ASSERT_TRUE(ra::StructuralEqual(**lowered, *pair.expr))
              << context << "\nlowered: " << (*lowered)->ToString()
              << "\nexpected: " << pair.expr->ToString();
        }

        auto from_sql = engine.Run(*lowered, db);
        auto from_ra = engine.Run(pair.expr, db);
        ASSERT_TRUE(from_sql.ok()) << context << "\n" << from_sql.error();
        ASSERT_TRUE(from_ra.ok()) << context << "\n" << from_ra.error();
        ASSERT_EQ(from_sql->relation.arity(), from_ra->relation.arity())
            << context;
        EXPECT_EQ(from_sql->relation.flat(), from_ra->relation.flat())
            << context;
        if (pair.compare_stats) {
          ExpectSameStats(from_ra->stats, from_sql->stats, context);
        }
        if (mode == "reference" && cache_entries == 0) {
          ra::EvalStats reference_stats;
          const core::Relation reference = ra::Eval(pair.expr, db, &reference_stats);
          EXPECT_EQ(reference.flat(), from_ra->relation.flat()) << context;
          EXPECT_EQ(reference_stats.max_intermediate, from_ra->stats.max_intermediate)
              << context;
          EXPECT_EQ(reference_stats.total_intermediate,
                    from_ra->stats.total_intermediate)
              << context;
        }
        if (mode == "cost" && cache_entries == 0) {
          if (!from_sql->relation.empty()) ++nonempty_results;
          if (pair.family == "division" &&
              HasRewrite(from_sql->stats, "division pattern")) {
            ++division_routed;
          }
        }
      }
    }
  }

  // Every family occurs, and the division family actually exercises the
  // planner's division rewrite (not just generic diff/join plans).
  for (const char* family : {"filter", "join2", "chain3", "division",
                             "semijoin", "in", "setop", "gfdiv"}) {
    EXPECT_GE(families[family], 50u) << family;
  }
  EXPECT_EQ(division_routed, families["division"])
      << "every division-family statement must route through the division "
         "rewrite under cost-based planning";
  EXPECT_GT(nonempty_results, 0u)
      << "the workload database must make some queries non-trivial";
}

// The multiway leg: the fixed SQL triangle chain lowers to the binary
// join chain the planner collects into a hypergraph and routes to the
// worst-case-optimal operator on the skewed family.
TEST(SqlDifferential, TriangleRoutesToMultiwayJoin) {
  const auto pair = workload::TriangleSqlPair();
  const core::Database db = workload::SqlTriangleDatabase(2000, 10, 7);

  auto lowered = sql::Compile(pair.sql, db.schema());
  ASSERT_TRUE(lowered.ok()) << lowered.error();
  ASSERT_TRUE(ra::StructuralEqual(**lowered, *pair.expr))
      << (*lowered)->ToString();

  const engine::Engine multiway(
      engine::EngineOptions::CostBased().WithMultiway());
  auto from_sql = multiway.Run(*lowered, db);
  auto from_ra = multiway.Run(pair.expr, db);
  ASSERT_TRUE(from_sql.ok()) << from_sql.error();
  ASSERT_TRUE(from_ra.ok()) << from_ra.error();
  EXPECT_TRUE(HasRewrite(from_sql->stats, "multiway"))
      << "expected a multiway rewrite on the skewed triangle";
  EXPECT_TRUE(from_sql->stats.has_agm_bound);
  EXPECT_EQ(from_sql->relation.flat(), from_ra->relation.flat());
  ExpectSameStats(from_ra->stats, from_sql->stats, "triangle multiway");

  // And the binary baseline agrees on the result.
  const engine::Engine binary(engine::EngineOptions::CostBased());
  auto baseline = binary.Run(*lowered, db);
  ASSERT_TRUE(baseline.ok()) << baseline.error();
  EXPECT_EQ(baseline->relation, from_sql->relation);
  EXPECT_GT(from_sql->relation.size(), 0u);
}

// gfdiv pairs run through structurally different trees (GfToSaEq output
// vs the SQL lowering), so equality of the *relations* is the whole
// point — it pins the frontend's subquery semantics against the
// guarded-fragment translation from the paper's Theorem 8 converse.
TEST(SqlDifferential, GuardedFragmentPairsAgreeOnResults) {
  const std::uint64_t seed = BaseSeed();
  const core::Database db = workload::SqlWorkloadDatabase(seed);
  const auto pairs = workload::MakeSqlWorkload({/*count=*/500, seed});
  const engine::Engine engine{engine::EngineOptions::CostBased()};
  std::size_t gf_pairs = 0;
  for (const auto& pair : pairs) {
    if (pair.family != "gfdiv") continue;
    ++gf_pairs;
    auto lowered = sql::Compile(pair.sql, db.schema());
    ASSERT_TRUE(lowered.ok()) << pair.sql << "\n" << lowered.error();
    auto from_sql = engine.Run(*lowered, db);
    auto from_gf = engine.Run(pair.expr, db);
    ASSERT_TRUE(from_sql.ok()) << pair.sql;
    ASSERT_TRUE(from_gf.ok()) << pair.sql;
    EXPECT_EQ(from_sql->relation, from_gf->relation) << pair.sql;
  }
  EXPECT_GE(gf_pairs, 50u);
}

// ---------------------------------------------------------------------------
// Negative paths: structured errors, never a crash.
// ---------------------------------------------------------------------------

/// Every rejection must carry a parseable "line:column:" location.
void ExpectLocatedError(const std::string& error, const std::string& context) {
  std::size_t line = 0;
  std::size_t column = 0;
  EXPECT_TRUE(util::ParseErrorLocation(error, &line, &column))
      << context << "\nunlocated error: " << error;
  EXPECT_GE(line, 1u) << context;
  EXPECT_GE(column, 1u) << context;
}

// Truncation fuzzing: every prefix of every valid workload statement
// must either compile or return a located error — never crash, never
// return an unstructured message.
TEST(SqlNegative, TruncationFuzz) {
  const std::uint64_t seed = BaseSeed();
  const core::Database db = workload::SqlWorkloadDatabase(seed);
  // 64 statements × every prefix length is plenty (several thousand
  // parses) without dominating the suite's runtime.
  auto pairs = workload::MakeSqlWorkload({/*count=*/64, seed});
  std::size_t rejected = 0;
  for (const auto& pair : pairs) {
    for (std::size_t len = 0; len <= pair.sql.size(); ++len) {
      const std::string prefix = pair.sql.substr(0, len);
      auto compiled = sql::Compile(prefix, db.schema());
      if (!compiled.ok()) {
        ++rejected;
        ExpectLocatedError(compiled.error(),
                           "prefix [" + std::to_string(len) + "] of: " +
                               pair.sql);
      }
    }
    // The full statement must survive its own fuzz loop.
    ASSERT_TRUE(sql::Compile(pair.sql, db.schema()).ok()) << pair.sql;
  }
  EXPECT_GT(rejected, 0u);
}

TEST(SqlNegative, UnknownNamesAndArityMismatches) {
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 1);
  const struct {
    const char* sql;
    const char* reason;
  } cases[] = {
      {"SELECT * FROM Nope", "unknown table"},
      {"SELECT c9 FROM R", "column out of range"},
      {"SELECT r.c1 FROM R r WHERE r.c3 = 1", "predicate column out of range"},
      {"SELECT x.c1 FROM R r", "unknown alias"},
      {"SELECT * FROM R r, R r", "duplicate alias"},
      {"SELECT c1 FROM R r, S s WHERE c2 = 1",
       "ambiguous bare column over two tables"},
      {"SELECT c1 FROM R UNION SELECT * FROM R", "set-op arity mismatch"},
      {"SELECT * FROM R WHERE c1 IN (SELECT * FROM R)",
       "IN subquery must be unary"},
      {"SELECT * FROM R WHERE EXISTS (SELECT c1 FROM S)",
       "EXISTS subquery must be SELECT *"},
      {"SELECT * FROM R WHERE", "truncated WHERE"},
      {"SELECT FROM R", "empty select list"},
      {"SELECT * FROM R WHERE c1 ^ 2", "unknown operator character"},
      {"SELECT * FROM R r extra tokens", "trailing tokens"},
  };
  for (const auto& c : cases) {
    auto compiled = sql::Compile(c.sql, schema);
    ASSERT_FALSE(compiled.ok()) << c.reason << ": " << c.sql;
    ExpectLocatedError(compiled.error(), std::string(c.reason) + ": " + c.sql);
  }
}

TEST(SqlNegative, CorrelationDepthIsOneLevel) {
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 1);
  // u.c1 two subquery levels down from its binding.
  auto compiled = sql::Compile(
      "SELECT * FROM R u WHERE EXISTS (SELECT * FROM S s WHERE EXISTS "
      "(SELECT * FROM R v WHERE v.c1 = u.c1))",
      schema);
  ASSERT_FALSE(compiled.ok());
  EXPECT_NE(compiled.error().find("more than one subquery level"),
            std::string::npos)
      << compiled.error();
  ExpectLocatedError(compiled.error(), "deep correlation");
}

TEST(SqlNegative, LooksLikeSqlDispatch) {
  EXPECT_TRUE(sql::LooksLikeSql("SELECT * FROM R"));
  EXPECT_TRUE(sql::LooksLikeSql("  select c1 from R"));
  EXPECT_TRUE(sql::LooksLikeSql("(SELECT * FROM R) UNION (SELECT * FROM S)"));
  EXPECT_FALSE(sql::LooksLikeSql("pi[1](R)"));
  EXPECT_FALSE(sql::LooksLikeSql("SELECTION(R)"));
  EXPECT_FALSE(sql::LooksLikeSql(""));
}

// A targeted end-to-end division statement (independent of the
// generator): the FOR ALL idiom must hit the planner's division rewrite
// and produce the textbook answer.
TEST(SqlDivision, ForAllIdiomRoutesThroughDivisionRewrite) {
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 1);
  core::Database db(schema);
  core::Relation r(2);
  // Group 1 ⊇ {10, 11}; group 2 misses 11; group 3 ⊇ {10, 11}.
  for (auto row : {std::pair{1, 10}, {1, 11}, {1, 12}, {2, 10}, {3, 10},
                   {3, 11}}) {
    r.Add({row.first, row.second});
  }
  core::Relation s(1);
  s.Add({10});
  s.Add({11});
  db.SetRelation("R", std::move(r));
  db.SetRelation("S", std::move(s));

  auto compiled = sql::Compile(
      "SELECT r.c1 FROM R r WHERE NOT EXISTS (SELECT * FROM S s WHERE "
      "NOT EXISTS (SELECT * FROM R r2 WHERE r2.c1 = r.c1 AND r2.c2 = s.c1))",
      schema);
  ASSERT_TRUE(compiled.ok()) << compiled.error();

  const engine::Engine engine{engine::EngineOptions::CostBased()};
  auto run = engine.Run(*compiled, db);
  ASSERT_TRUE(run.ok()) << run.error();
  EXPECT_TRUE(HasRewrite(run->stats, "division pattern"))
      << "the FOR ALL idiom must be recognized as division";
  core::Relation expected(1);
  expected.Add({1});
  expected.Add({3});
  EXPECT_EQ(run->relation, expected);
}

}  // namespace
}  // namespace setalg
