#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "ra/expr.h"
#include "ra/parse.h"
#include "test_util.h"
#include "util/str.h"

namespace setalg::ra {
namespace {

core::Schema TestSchema() {
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 1);
  schema.AddRelation("T", 3);
  return schema;
}

// ---------------------------------------------------------------------------
// Builders and arities.
// ---------------------------------------------------------------------------

TEST(Expr, RelationCarriesNameAndArity) {
  auto e = Rel("R", 2);
  EXPECT_EQ(e->kind(), OpKind::kRelation);
  EXPECT_EQ(e->relation_name(), "R");
  EXPECT_EQ(e->arity(), 2u);
}

TEST(Expr, UnionAndDiffPreserveArity) {
  auto e = Union(Rel("R", 2), Rel("R", 2));
  EXPECT_EQ(e->arity(), 2u);
  auto d = Diff(Rel("R", 2), Rel("R", 2));
  EXPECT_EQ(d->arity(), 2u);
}

TEST(Expr, ProjectionArityIsColumnCount) {
  auto e = Project(Rel("T", 3), {3, 1, 1});
  EXPECT_EQ(e->arity(), 3u);
  EXPECT_EQ(Project(Rel("T", 3), {2})->arity(), 1u);
  EXPECT_EQ(Project(Rel("T", 3), {})->arity(), 0u);
}

TEST(Expr, TagAppendsColumn) {
  auto e = Tag(Rel("S", 1), 42);
  EXPECT_EQ(e->arity(), 2u);
  EXPECT_EQ(e->tag_value(), 42);
}

TEST(Expr, JoinArityIsSum) {
  auto e = Join(Rel("R", 2), Rel("T", 3), {{1, Cmp::kEq, 2}});
  EXPECT_EQ(e->arity(), 5u);
}

TEST(Expr, SemiJoinKeepsLeftArity) {
  auto e = SemiJoin(Rel("R", 2), Rel("T", 3), {{1, Cmp::kLt, 3}});
  EXPECT_EQ(e->arity(), 2u);
}

TEST(Expr, ProductIsJoinWithEmptyTheta) {
  auto e = Product(Rel("R", 2), Rel("S", 1));
  EXPECT_EQ(e->kind(), OpKind::kJoin);
  EXPECT_TRUE(e->atoms().empty());
  EXPECT_EQ(e->arity(), 3u);
}

TEST(Expr, SelectConstBuildsThePaperComposite) {
  // σ_{i='c'}(E) = π_{1..n}(σ_{i=n+1}(τ_c(E))).
  auto e = SelectConst(Rel("R", 2), 1, 7);
  ASSERT_EQ(e->kind(), OpKind::kProjection);
  EXPECT_EQ(e->arity(), 2u);
  const auto& sel = e->child(0);
  ASSERT_EQ(sel->kind(), OpKind::kSelection);
  EXPECT_EQ(sel->selection_i(), 1u);
  EXPECT_EQ(sel->selection_j(), 3u);
  const auto& tag = sel->child(0);
  ASSERT_EQ(tag->kind(), OpKind::kConstTag);
  EXPECT_EQ(tag->tag_value(), 7);
}

TEST(Expr, NumNodesCountsTreeOccurrences) {
  auto r = Rel("R", 2);
  auto e = Union(r, r);  // Shared child counted per use in the tree view.
  EXPECT_EQ(e->NumNodes(), 3u);
}

TEST(Expr, PostOrderVisitsSharedNodesOnce) {
  auto r = Rel("R", 2);
  auto e = Union(r, r);
  EXPECT_EQ(PostOrder(*e).size(), 2u);  // r and the union.
}

// ---------------------------------------------------------------------------
// Classification.
// ---------------------------------------------------------------------------

TEST(Expr, IsRaRejectsSemijoin) {
  auto join = Join(Rel("R", 2), Rel("S", 1), {{2, Cmp::kEq, 1}});
  EXPECT_TRUE(IsRa(*join));
  auto semi = SemiJoin(Rel("R", 2), Rel("S", 1), {{2, Cmp::kEq, 1}});
  EXPECT_FALSE(IsRa(*semi));
  EXPECT_TRUE(IsSa(*semi));
  EXPECT_FALSE(IsSa(*join));
}

TEST(Expr, IsSaEqRequiresEqualityAtoms) {
  auto eq = SemiJoin(Rel("R", 2), Rel("S", 1), {{2, Cmp::kEq, 1}});
  EXPECT_TRUE(IsSaEq(*eq));
  auto lt = SemiJoin(Rel("R", 2), Rel("S", 1), {{2, Cmp::kLt, 1}});
  EXPECT_TRUE(IsSa(*lt));
  EXPECT_FALSE(IsSaEq(*lt));
}

TEST(Expr, IsRaEqRequiresEqualityJoins) {
  auto eq = Join(Rel("R", 2), Rel("S", 1), {{2, Cmp::kEq, 1}});
  EXPECT_TRUE(IsRaEq(*eq));
  auto neq = Join(Rel("R", 2), Rel("S", 1), {{2, Cmp::kNeq, 1}});
  EXPECT_FALSE(IsRaEq(*neq));
}

TEST(Expr, SigmaLtIsAllowedInSaEq) {
  // SA= restricts semijoin conditions, not selections.
  auto e = SelectLt(SemiJoin(Rel("R", 2), Rel("S", 1), {{2, Cmp::kEq, 1}}), 1, 2);
  EXPECT_TRUE(IsSaEq(*e));
}

TEST(Expr, CollectConstantsSortsAndDedupes) {
  auto e = Tag(Tag(Rel("S", 1), 9), 3);
  EXPECT_EQ(CollectConstants(*e), (core::ConstantSet{3, 9}));
  auto dup = Union(Tag(Rel("S", 1), 5), Tag(Rel("S", 1), 5));
  EXPECT_EQ(CollectConstants(*dup), (core::ConstantSet{5}));
  EXPECT_TRUE(CollectConstants(*Rel("R", 2)).empty());
}

TEST(Expr, CollectRelationNames) {
  auto e = Join(Rel("R", 2), Union(Rel("S", 1), Rel("S", 1)), {});
  EXPECT_EQ(CollectRelationNames(*e), (std::vector<std::string>{"R", "S"}));
}

TEST(Expr, ValidateAgainstSchemaDetectsMismatches) {
  const auto schema = TestSchema();
  EXPECT_EQ(ValidateAgainstSchema(*Rel("R", 2), schema), "");
  EXPECT_NE(ValidateAgainstSchema(*Rel("R", 3), schema), "");
  EXPECT_NE(ValidateAgainstSchema(*Rel("Unknown", 1), schema), "");
}

TEST(Expr, CmpHelpers) {
  EXPECT_STREQ(CmpToString(Cmp::kEq), "=");
  EXPECT_STREQ(CmpToString(Cmp::kNeq), "!=");
  EXPECT_EQ(MirrorCmp(Cmp::kLt), Cmp::kGt);
  EXPECT_EQ(MirrorCmp(Cmp::kGt), Cmp::kLt);
  EXPECT_EQ(MirrorCmp(Cmp::kEq), Cmp::kEq);
  EXPECT_EQ(MirrorCmp(Cmp::kNeq), Cmp::kNeq);
}

// ---------------------------------------------------------------------------
// Printing and parsing.
// ---------------------------------------------------------------------------

TEST(Parse, RoundTripsCatalog) {
  const auto schema = TestSchema();
  const std::vector<std::string> catalog = {
      "R",
      "union(R, R)",
      "diff(R, R)",
      "pi[1](R)",
      "pi[2,1](R)",
      "pi[](R)",
      "sigma[1=2](R)",
      "sigma[1<2](R)",
      "tag[7](S)",
      "tag[-3](S)",
      "join[2=1](R, S)",
      "join[](R, S)",
      "join[1=1;2<2](R, R)",
      "join[1!=2;1>3](R, T)",
      "semijoin[2=1](R, S)",
      "semijoin[](R, T)",
      "pi[1](semijoin[2=1](R, diff(pi[1](R), S)))",
  };
  for (const auto& text : catalog) {
    auto parsed = Parse(text, schema);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.error();
    auto reparsed = Parse((*parsed)->ToString(), schema);
    ASSERT_TRUE(reparsed.ok()) << (*parsed)->ToString();
    EXPECT_EQ((*parsed)->ToString(), (*reparsed)->ToString()) << text;
  }
}

TEST(Parse, SigmaConstantBuildsComposite) {
  const auto schema = TestSchema();
  auto parsed = Parse("sigma[1=#5](R)", schema);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ((*parsed)->kind(), OpKind::kProjection);
  EXPECT_EQ(CollectConstants(**parsed), (core::ConstantSet{5}));
}

TEST(Parse, ProductKeyword) {
  const auto schema = TestSchema();
  auto parsed = Parse("product(R, S)", schema);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ((*parsed)->arity(), 3u);
  EXPECT_TRUE((*parsed)->atoms().empty());
}

TEST(Parse, ParenthesizedExpression) {
  const auto schema = TestSchema();
  auto parsed = Parse("((R))", schema);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ((*parsed)->relation_name(), "R");
}

TEST(Parse, WhitespaceInsensitive) {
  const auto schema = TestSchema();
  auto parsed = Parse("  join [ 2 = 1 ] ( R ,  S )  ", schema);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
}

TEST(Parse, ErrorUnknownRelation) {
  auto parsed = Parse("Q", TestSchema());
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().find("unknown relation"), std::string::npos);
}

TEST(Parse, ErrorArityMismatchInUnion) {
  auto parsed = Parse("union(R, S)", TestSchema());
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().find("arity mismatch"), std::string::npos);
}

TEST(Parse, ErrorColumnOutOfRange) {
  EXPECT_FALSE(Parse("pi[3](R)", TestSchema()).ok());
  EXPECT_FALSE(Parse("sigma[3=1](R)", TestSchema()).ok());
  EXPECT_FALSE(Parse("join[3=1](R, S)", TestSchema()).ok());
}

TEST(Parse, ErrorTrailingInput) {
  auto parsed = Parse("R R", TestSchema());
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().find("trailing"), std::string::npos);
}

// Errors are located like SQL ones: "line:column: message", 1-based from
// the text's first byte, at the unknown name, the token where ')' was
// expected, and the first trailing token.
void ExpectErrorAt(const std::string& text, std::size_t line, std::size_t column,
                   const std::string& message) {
  auto parsed = Parse(text, TestSchema());
  ASSERT_FALSE(parsed.ok()) << text;
  EXPECT_EQ(parsed.error(), util::LocatedError(line, column, message)) << text;
  std::size_t got_line = 0, got_column = 0;
  EXPECT_TRUE(util::ParseErrorLocation(parsed.error(), &got_line, &got_column));
  EXPECT_EQ(got_line, line) << parsed.error();
  EXPECT_EQ(got_column, column) << parsed.error();
}

TEST(Parse, ErrorsCarryLineAndColumn) {
  ExpectErrorAt("Q", 1, 1, "unknown relation: Q");
  ExpectErrorAt("union(R,\n   Nope)", 2, 4, "unknown relation: Nope");
  ExpectErrorAt("pi[1](R", 1, 8, "expected ')'");
  ExpectErrorAt("pi[1](\n  R\n  S)", 3, 3, "expected ')'");
  ExpectErrorAt("R R", 1, 3, "trailing input after expression");
  ExpectErrorAt("union(R, R)\n\n  S", 3, 3, "trailing input after expression");
}

TEST(Parse, ErrorMalformedTokens) {
  EXPECT_FALSE(Parse("", TestSchema()).ok());
  EXPECT_FALSE(Parse("pi[1,](R)", TestSchema()).ok());
  EXPECT_FALSE(Parse("join[1~2](R, S)", TestSchema()).ok());
  EXPECT_FALSE(Parse("union(R,)", TestSchema()).ok());
}

TEST(Parse, SigmaRejectsUnsupportedOps) {
  EXPECT_FALSE(Parse("sigma[1>2](R)", TestSchema()).ok());
  EXPECT_FALSE(Parse("sigma[1!=2](R)", TestSchema()).ok());
  EXPECT_FALSE(Parse("sigma[1<#5](R)", TestSchema()).ok());
}

// ---------------------------------------------------------------------------
// Structural hashing and equality (the plan cache's key functions).
// ---------------------------------------------------------------------------

TEST(ExprHash, StructurallyEqualTreesHashEqual) {
  // α-equivalent trees — independently built (or parsed) from the same
  // structure — must collide on purpose: that is what lets one cached
  // plan serve every arrival of the same query shape.
  const auto schema = TestSchema();
  const std::vector<std::string> shapes = {
      "pi[1](join[2=1](R, S))",
      "diff(pi[1](R), pi[1](diff(join[](pi[1](R), S), R)))",
      "union(R, sigma[1=2](R))",
      "semijoin[1=1;2<3](R, T)",
      "pi[2,1,1](tag[42](S))",
  };
  for (const auto& text : shapes) {
    auto a = Parse(text, schema);
    auto b = Parse(text, schema);
    ASSERT_TRUE(a.ok() && b.ok()) << text;
    ASSERT_NE(a->get(), b->get()) << "two independent trees expected";
    EXPECT_TRUE(StructuralEqual(**a, **b)) << text;
    EXPECT_TRUE(ExprEqual{}(*a, *b)) << text;
    EXPECT_EQ(StructuralHash(**a), StructuralHash(**b)) << text;
    EXPECT_EQ(ExprHash{}(*a), ExprHash{}(*b)) << text;
  }
}

TEST(ExprHash, PayloadDifferencesChangeHashAndEquality) {
  // Near-miss pairs differing in exactly one structural fact.
  const std::vector<std::pair<ExprPtr, ExprPtr>> pairs = {
      {Rel("R", 2), Rel("Q", 2)},                            // Name.
      {Project(Rel("R", 2), {1, 2}), Project(Rel("R", 2), {2, 1})},  // Order.
      {Project(Rel("R", 2), {1}), Project(Rel("R", 2), {1, 1})},     // Count.
      {SelectEq(Rel("R", 2), 1, 2), SelectLt(Rel("R", 2), 1, 2)},    // Cmp.
      {Tag(Rel("S", 1), 1), Tag(Rel("S", 1), 2)},            // Constant.
      {Join(Rel("R", 2), Rel("S", 1), {{1, Cmp::kEq, 1}}),
       SemiJoin(Rel("R", 2), Rel("S", 1), {{1, Cmp::kEq, 1}})},  // Kind.
      {Join(Rel("R", 2), Rel("S", 1), {{1, Cmp::kEq, 1}}),
       Join(Rel("R", 2), Rel("S", 1), {{2, Cmp::kEq, 1}})},  // Atom column.
      {Union(Rel("R", 2), Rel("T", 2)), Union(Rel("T", 2), Rel("R", 2))},  // Sides.
  };
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto& [a, b] = pairs[i];
    EXPECT_FALSE(StructuralEqual(*a, *b)) << "pair " << i;
    EXPECT_FALSE(ExprEqual{}(a, b)) << "pair " << i;
    EXPECT_NE(StructuralHash(*a), StructuralHash(*b)) << "pair " << i;
  }
}

TEST(ExprHash, RandomizedDistinctTreesRarelyCollide) {
  // Randomized property: hash agreement must track structural equality —
  // equal trees always collide, distinct trees (as witnessed by their
  // textual round-trip form) essentially never do. A hot plan cache
  // hinges on both directions.
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 1);
  schema.AddRelation("T", 2);
  std::vector<ExprPtr> exprs;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    setalg::testing::RandomSaEqGenerator generator(schema, {1, 2, 3}, seed * 53);
    for (int trial = 0; trial < 20; ++trial) {
      exprs.push_back(generator.Generate(1 + trial % 3, 3));
    }
  }
  std::size_t collisions = 0;
  std::size_t distinct_pairs = 0;
  for (std::size_t i = 0; i < exprs.size(); ++i) {
    for (std::size_t j = i + 1; j < exprs.size(); ++j) {
      const bool equal = StructuralEqual(*exprs[i], *exprs[j]);
      EXPECT_EQ(equal, exprs[i]->ToString() == exprs[j]->ToString())
          << exprs[i]->ToString() << " vs " << exprs[j]->ToString();
      if (equal) {
        EXPECT_EQ(StructuralHash(*exprs[i]), StructuralHash(*exprs[j]));
      } else {
        ++distinct_pairs;
        if (StructuralHash(*exprs[i]) == StructuralHash(*exprs[j])) ++collisions;
      }
    }
  }
  ASSERT_GT(distinct_pairs, 1000u);
  // A 64-bit structural hash colliding on randomized small trees at all
  // would point at broken mixing; allow a microscopic margin.
  EXPECT_LE(collisions, distinct_pairs / 1000);
}

TEST(ExprHash, HashIsStableAcrossRunsForDeterministicCacheStats) {
  // The hash is computed from a canonical encoding with fixed constants —
  // never from pointers or libc++'s salted std::hash — so the same tree
  // hashes identically in every process. Pinned golden values enforce it
  // (these change only if the encoding itself changes, which would also
  // silently reshuffle every cache's bucketing — make such a change
  // loudly, here).
  EXPECT_EQ(StructuralHash(*Rel("R", 2)), 7357578177269073690ULL);
  EXPECT_EQ(StructuralHash(*Project(Rel("R", 2), {1})), 13887604441762332082ULL);
  const auto division = Parse(
      "diff(pi[1](R), pi[1](diff(join[](pi[1](R), S), R)))", TestSchema());
  ASSERT_TRUE(division.ok());
  EXPECT_EQ(StructuralHash(**division), 16144500678619415734ULL);
}

}  // namespace
}  // namespace setalg::ra
