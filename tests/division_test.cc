#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "engine/engine.h"
#include "engine/parallel.h"
#include "ra/eval.h"
#include "setjoin/division.h"
#include "setjoin/grouped.h"
#include "test_util.h"
#include "util/rng.h"
#include "witness/figures.h"
#include "workload/generators.h"

namespace setalg::setjoin {
namespace {

using core::Relation;
using core::Value;
using setalg::testing::MakeRel;

// Brute-force references straight from the definitions.
Relation ReferenceDivide(const Relation& r, const Relation& s, bool equality) {
  const GroupedRelation groups(r);
  std::vector<Value> divisor;
  for (std::size_t i = 0; i < s.size(); ++i) divisor.push_back(s.tuple(i)[0]);
  Relation out(1);
  for (std::size_t i = 0; i < groups.NumGroups(); ++i) {
    const Group g = groups.group(i);
    const bool contains = SortedSubset(divisor, g.elements);
    const bool qualifies = equality ? std::ranges::equal(g.elements, divisor) : contains;
    if (qualifies) out.Add({g.key});
  }
  return out;
}

TEST(Division, PaperFigure1) {
  // Person ÷ Symptoms = {An, Bob}.
  const auto example = witness::MakeMedicalExample();
  const auto& person = example.db.relation("Person");
  const auto& symptoms = example.db.relation("Symptoms");
  for (auto algorithm : AllDivisionAlgorithms()) {
    const auto result = Divide(person, symptoms, algorithm);
    Relation expected(1);
    expected.Add({example.names.Code("An")});
    expected.Add({example.names.Code("Bob")});
    EXPECT_EQ(result, expected) << DivisionAlgorithmToString(algorithm);
  }
}

TEST(Division, SimpleContainmentExample) {
  const Relation r = MakeRel(2, {{1, 7}, {1, 8}, {2, 7}, {3, 8}, {3, 7}, {3, 9}});
  const Relation s = MakeRel(1, {{7}, {8}});
  for (auto algorithm : AllDivisionAlgorithms()) {
    EXPECT_EQ(Divide(r, s, algorithm), MakeRel(1, {{1}, {3}}))
        << DivisionAlgorithmToString(algorithm);
  }
}

TEST(Division, EqualityVariantRequiresExactSet) {
  const Relation r = MakeRel(2, {{1, 7}, {1, 8}, {3, 8}, {3, 7}, {3, 9}});
  const Relation s = MakeRel(1, {{7}, {8}});
  for (auto algorithm : AllDivisionAlgorithms()) {
    EXPECT_EQ(DivideEqual(r, s, algorithm), MakeRel(1, {{1}}))
        << DivisionAlgorithmToString(algorithm);
  }
}

TEST(Division, EmptyDivisorMeansEveryCandidateQualifies) {
  const Relation r = MakeRel(2, {{1, 7}, {2, 8}});
  const Relation s(1);
  for (auto algorithm : AllDivisionAlgorithms()) {
    EXPECT_EQ(Divide(r, s, algorithm), MakeRel(1, {{1}, {2}}))
        << DivisionAlgorithmToString(algorithm);
    EXPECT_TRUE(DivideEqual(r, s, algorithm).empty())
        << DivisionAlgorithmToString(algorithm);
  }
}

TEST(Division, EmptyDividendYieldsEmptyResult) {
  const Relation r(2);
  const Relation s = MakeRel(1, {{7}});
  for (auto algorithm : AllDivisionAlgorithms()) {
    EXPECT_TRUE(Divide(r, s, algorithm).empty())
        << DivisionAlgorithmToString(algorithm);
    EXPECT_TRUE(DivideEqual(r, s, algorithm).empty())
        << DivisionAlgorithmToString(algorithm);
  }
}

TEST(Division, BothSidesEmpty) {
  const Relation r(2);
  const Relation s(1);
  for (auto algorithm : AllDivisionAlgorithms()) {
    EXPECT_TRUE(Divide(r, s, algorithm).empty())
        << DivisionAlgorithmToString(algorithm);
    EXPECT_TRUE(DivideEqual(r, s, algorithm).empty())
        << DivisionAlgorithmToString(algorithm);
  }
}

TEST(Division, DivisorLargerThanAnyGroup) {
  const Relation r = MakeRel(2, {{1, 7}, {2, 8}});
  const Relation s = MakeRel(1, {{7}, {8}, {9}});
  for (auto algorithm : AllDivisionAlgorithms()) {
    EXPECT_TRUE(Divide(r, s, algorithm).empty())
        << DivisionAlgorithmToString(algorithm);
  }
}

TEST(Division, DivisorContainedInNoGroupDespiteMatchingSizes) {
  // Every group has |S| elements and even shares one of them, but none
  // contains all of S — the per-element probes must not short-circuit on
  // partial hits.
  const Relation r = MakeRel(2, {{1, 7}, {1, 5}, {2, 8}, {2, 5}, {3, 7}, {3, 9}});
  const Relation s = MakeRel(1, {{7}, {8}});
  for (auto algorithm : AllDivisionAlgorithms()) {
    EXPECT_TRUE(Divide(r, s, algorithm).empty())
        << DivisionAlgorithmToString(algorithm);
    EXPECT_TRUE(DivideEqual(r, s, algorithm).empty())
        << DivisionAlgorithmToString(algorithm);
  }
}

TEST(Division, AllDuplicateTuplesCollapseUnderSetSemantics) {
  // The same tuple Add'ed many times must count once everywhere: in
  // particular equality division compares the *distinct* group size
  // against |S|.
  Relation r(2);
  for (int copies = 0; copies < 5; ++copies) {
    r.Add({1, 7});
    r.Add({1, 8});
    r.Add({2, 7});
  }
  const Relation s = MakeRel(1, {{7}, {8}});
  for (auto algorithm : AllDivisionAlgorithms()) {
    EXPECT_EQ(Divide(r, s, algorithm), MakeRel(1, {{1}}))
        << DivisionAlgorithmToString(algorithm);
    EXPECT_EQ(DivideEqual(r, s, algorithm), MakeRel(1, {{1}}))
        << DivisionAlgorithmToString(algorithm);
  }
}

TEST(Division, SingleValueColumns) {
  // Degenerate single-column content: every tuple repeats one key and one
  // element value; the divisor is a single-element set.
  const Relation r = MakeRel(2, {{1, 7}});
  const Relation single = MakeRel(1, {{7}});
  const Relation other = MakeRel(1, {{8}});
  for (auto algorithm : AllDivisionAlgorithms()) {
    EXPECT_EQ(Divide(r, single, algorithm), MakeRel(1, {{1}}))
        << DivisionAlgorithmToString(algorithm);
    EXPECT_EQ(DivideEqual(r, single, algorithm), MakeRel(1, {{1}}))
        << DivisionAlgorithmToString(algorithm);
    EXPECT_TRUE(Divide(r, other, algorithm).empty())
        << DivisionAlgorithmToString(algorithm);
  }
}

TEST(Division, EqualityRejectsProperSupersets) {
  // Group 1 strictly contains S; containment admits it, equality must not.
  const Relation r = MakeRel(2, {{1, 7}, {1, 8}, {1, 9}, {2, 7}, {2, 8}});
  const Relation s = MakeRel(1, {{7}, {8}});
  for (auto algorithm : AllDivisionAlgorithms()) {
    EXPECT_EQ(Divide(r, s, algorithm), MakeRel(1, {{1}, {2}}))
        << DivisionAlgorithmToString(algorithm);
    EXPECT_EQ(DivideEqual(r, s, algorithm), MakeRel(1, {{2}}))
        << DivisionAlgorithmToString(algorithm);
  }
}

// Parameterized agreement across algorithms and workload shapes.
struct DivisionCase {
  const char* name;
  workload::DivisionConfig config;
};

class DivisionAgreementTest
    : public ::testing::TestWithParam<std::tuple<DivisionAlgorithm, DivisionCase>> {};

TEST_P(DivisionAgreementTest, MatchesReference) {
  const auto [algorithm, division_case] = GetParam();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    auto config = division_case.config;
    config.seed = seed;
    const auto instance = workload::MakeDivisionInstance(config);
    EXPECT_EQ(Divide(instance.r, instance.s, algorithm),
              ReferenceDivide(instance.r, instance.s, false))
        << division_case.name << " seed " << seed;
    EXPECT_EQ(DivideEqual(instance.r, instance.s, algorithm),
              ReferenceDivide(instance.r, instance.s, true))
        << division_case.name << " seed " << seed;
  }
}

workload::DivisionConfig SmallConfig() {
  workload::DivisionConfig config;
  config.num_groups = 40;
  config.group_size = 6;
  config.domain_size = 24;
  config.divisor_size = 3;
  return config;
}

workload::DivisionConfig ExactSizeConfig() {
  workload::DivisionConfig config;
  config.num_groups = 30;
  config.group_size = 4;
  config.domain_size = 16;
  config.divisor_size = 4;  // Same as group size: equality hits possible.
  config.match_fraction = 0.5;
  return config;
}

workload::DivisionConfig SkewedConfig() {
  workload::DivisionConfig config;
  config.num_groups = 40;
  config.group_size = 8;
  config.domain_size = 32;
  config.divisor_size = 2;
  config.zipf_skew = 1.1;
  return config;
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsTimesWorkloads, DivisionAgreementTest,
    ::testing::Combine(::testing::ValuesIn(AllDivisionAlgorithms()),
                       ::testing::Values(DivisionCase{"small", SmallConfig()},
                                         DivisionCase{"exact", ExactSizeConfig()},
                                         DivisionCase{"skewed", SkewedConfig()})),
    [](const ::testing::TestParamInfo<std::tuple<DivisionAlgorithm, DivisionCase>>&
           info) {
      std::string name =
          std::string(DivisionAlgorithmToString(std::get<0>(info.param))) + "_" +
          std::get<1>(info.param).name;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// ---------------------------------------------------------------------------
// Partition-boundary edge cases: shapes where key-range partitioning
// degenerates — more ranges than keys, every row on one key, empty ranges,
// a divisor no range's group can cover — must agree with the serial
// kernels for every algorithm, executed serial and parallel through the
// engine's division operator. The operator picks its width from the rows
// it holds (engine::PartitionCount), so each shape is padded to
// kSplitRows rows: enough for one range per thread at every thread count
// below.
// ---------------------------------------------------------------------------

constexpr std::size_t kSplitRows = 7 * engine::kMinPartitionRows;

// Elements padded onto a group so a shape reaches kSplitRows rows: a range
// of its own, disjoint from every divisor below.
constexpr Value kPadding = 1000000;

// Runs R ÷ S (both variants) through the engine's division operator at
// threads {1, 2, 7}, expecting the brute-force reference everywhere. When
// `splits`, R holds at least kSplitRows rows and every pooled run of a
// direct algorithm must cut exactly `threads` key ranges (kClassicRa
// always runs serial); otherwise nothing fans out.
void ExpectPartitionedDivisionAgrees(const Relation& r, const Relation& s, bool splits,
                                     const char* what) {
  if (splits) {
    ASSERT_GE(r.size(), kSplitRows) << what;
  }
  const auto db = setalg::testing::DivisionDb(r, s);
  for (auto algorithm : AllDivisionAlgorithms()) {
    for (const bool equality : {false, true}) {
      const Relation expected = ReferenceDivide(r, s, equality);
      engine::PhysicalPlan plan;
      plan.root = engine::MakeDivision(engine::MakeScan("R", 2), engine::MakeScan("S", 1),
                                       algorithm, equality);
      for (std::size_t threads : {1u, 2u, 7u}) {
        const std::string label = std::string(what) + " algorithm " +
                                  DivisionAlgorithmToString(algorithm) +
                                  (equality ? " equality" : " containment") +
                                  " threads " + std::to_string(threads);
        auto run = engine::Engine(engine::EngineOptions{}.WithThreads(threads))
                       .Run(plan, db);
        ASSERT_TRUE(run.ok()) << label << ": " << run.error();
        EXPECT_EQ(run->relation, expected) << label;
        const bool fans_out =
            splits && threads > 1 && algorithm != DivisionAlgorithm::kClassicRa;
        EXPECT_EQ(run->stats.partitions, fans_out ? threads : 0u) << label;
      }
    }
  }
}

TEST(DivisionPartitionEdges, MoreRangesThanKeys) {
  // Three keys against up-to-7-way fan-outs: keys 2 and 3 carry most rows,
  // so the cuts land on their boundaries and trailing ranges are empty.
  Relation r = MakeRel(2, {{1, 7}, {1, 8}, {2, 7}, {3, 7}, {3, 8}, {3, 9}});
  setalg::testing::AddGroup(&r, 2, kPadding, kSplitRows / 2);
  setalg::testing::AddGroup(&r, 3, kPadding, kSplitRows / 2);
  ExpectPartitionedDivisionAgrees(r, MakeRel(1, {{7}, {8}}), /*splits=*/true,
                                  "more ranges than keys");
}

TEST(DivisionPartitionEdges, AllRowsOnOneKey) {
  // A single key: its rows fill the first range at any width, the
  // remaining ranges divide nothing.
  Relation r = MakeRel(2, {{5, 1}, {5, 2}, {5, 3}, {5, 4}, {5, 6}});
  setalg::testing::AddGroup(&r, 5, kPadding, kSplitRows);
  ExpectPartitionedDivisionAgrees(r, MakeRel(1, {{2}, {3}}), /*splits=*/true,
                                  "single-key skew");
}

TEST(DivisionPartitionEdges, EmptyDividendStaysSerial) {
  ExpectPartitionedDivisionAgrees(Relation(2), MakeRel(1, {{7}}), /*splits=*/false,
                                  "empty dividend");
}

TEST(DivisionPartitionEdges, EmptyDivisorSharedByEveryRange) {
  // Containment division by ∅ returns every key; the shared divisor must
  // behave identically in every range.
  Relation r(2);
  for (std::size_t key = 0; key < kSplitRows; ++key) {
    r.Add({static_cast<Value>(key), static_cast<Value>(7 + key % 3)});
  }
  ExpectPartitionedDivisionAgrees(r, Relation(1), /*splits=*/true, "empty divisor");
}

TEST(DivisionPartitionEdges, DivisorLargerThanEveryRangesGroups) {
  // Every group has 2 elements, the divisor 4: no range can ever produce
  // a row, at any fan-out width.
  const std::vector<std::pair<Value, Value>> pairs = {{7, 8}, {8, 9}, {7, 9}, {10, 11}};
  Relation r(2);
  for (std::size_t key = 0; key < kSplitRows / 2; ++key) {
    const auto [a, b] = pairs[key % pairs.size()];
    r.Add({static_cast<Value>(key), a});
    r.Add({static_cast<Value>(key), b});
  }
  ExpectPartitionedDivisionAgrees(r, MakeRel(1, {{7}, {8}, {9}, {10}}),
                                  /*splits=*/true, "divisor larger than every group");
}

TEST(DivisionPartitionEdges, DivisorDisjointFromGroupsAtMatchingSizes) {
  // Group sizes equal the divisor size but the elements never cover it —
  // the counting/bitmap paths must not confuse size with coverage.
  const std::vector<std::pair<Value, Value>> pairs = {{7, 8}, {8, 20}, {20, 21}};
  Relation r(2);
  for (std::size_t key = 0; key < kSplitRows / 2; ++key) {
    const auto [a, b] = pairs[key % pairs.size()];
    r.Add({static_cast<Value>(key), a});
    r.Add({static_cast<Value>(key), b});
  }
  ExpectPartitionedDivisionAgrees(r, MakeRel(1, {{7}, {21}}), /*splits=*/true,
                                  "divisor disjoint at matching sizes");
}

// ---------------------------------------------------------------------------
// Dividends whose rows are not grouped by key. Stored relations are
// sorted, so every test above feeds each group's rows as one run; these
// plans feed the division operator keys that recur throughout the stream
// (a column swap) or restart mid-stream with duplicates (a union), which
// the key memo of the single-pass kernel must survive and sort-merge must
// sort on materialization.
// ---------------------------------------------------------------------------

// Runs `dividend` ÷ S (both variants, every algorithm) through the
// engine's division operator at batch sizes {1, 2, 7, 1024} and threads
// {1, 4}, and through the materializing reference, expecting
// ReferenceDivide of the materialized dividend. At 4 threads the
// dividend is read sorted (drained and normalized) before the operator
// decides its width.
void ExpectPlannedDivisionAgrees(const engine::PhysicalOpPtr& dividend,
                                 const core::Database& db, const char* what) {
  engine::PhysicalPlan dividend_plan;
  dividend_plan.root = dividend;
  const Relation r = engine::RunMaterialized(dividend_plan, db).relation;
  const Relation& s = db.relation("S");
  for (auto algorithm : AllDivisionAlgorithms()) {
    for (const bool equality : {false, true}) {
      const Relation expected = ReferenceDivide(r, s, equality);
      const std::string label = std::string(what) + " algorithm " +
                                DivisionAlgorithmToString(algorithm) +
                                (equality ? " equality" : " containment");
      engine::PhysicalPlan plan;
      plan.root =
          engine::MakeDivision(dividend, engine::MakeScan("S", 1), algorithm, equality);
      for (std::size_t threads : {1u, 4u}) {
        for (std::size_t batch_size : {1u, 2u, 7u, 1024u}) {
          engine::EngineOptions options;
          options.threads = threads;
          options.batch_size = batch_size;
          auto run = engine::Engine(options).Run(plan, db);
          ASSERT_TRUE(run.ok()) << label << ": " << run.error();
          EXPECT_EQ(run->relation, expected)
              << label << " threads " << threads << " batch size " << batch_size;
        }
      }
      EXPECT_EQ(engine::RunMaterialized(plan, db).relation, expected)
          << label << " materialized";
    }
  }
}

// A dividend over keys 1..24 and elements 1..12 with S = {3, 5, 8, 11}:
// groups equal to S, S plus an extra, S minus one element, and random
// subsets.
Relation UngroupedTestDividend() {
  Relation r(2);
  const std::vector<Value> divisor = {3, 5, 8, 11};
  for (const Value b : divisor) {
    r.Add({1, b});   // = S
    r.Add({2, b});   // S + {4}
    r.Add({17, b});  // = S
    if (b != 8) r.Add({3, b});  // S − {8}
  }
  r.Add({2, 4});
  util::Rng rng(7);
  for (Value a = 4; a <= 24; ++a) {
    if (a == 17) continue;
    for (Value b = 1; b <= 12; ++b) {
      if (rng.NextBounded(3) != 0) r.Add({a, b});
    }
  }
  return r;
}

core::Database UngroupedTestDb() {
  const Relation d = UngroupedTestDividend();
  // T holds the dividend with its columns swapped, so π_{2,1}(T) streams
  // it sorted by element: every key recurs throughout the stream. U and V
  // split it with overlap: their keys interleave, and the union repeats
  // the rows they share.
  Relation t(2), u(2), v(2);
  util::Rng rng(11);
  for (std::size_t i = 0; i < d.size(); ++i) {
    const core::TupleView row = d.tuple(i);
    t.Add({row[1], row[0]});
    const std::uint64_t side = rng.NextBounded(3);
    if (side != 1) u.Add(row);
    if (side != 0) v.Add(row);
  }
  core::Schema schema;
  for (const char* name : {"T", "U", "V"}) schema.AddRelation(name, 2);
  schema.AddRelation("S", 1);
  core::Database db(schema);
  db.SetRelation("T", std::move(t));
  db.SetRelation("U", std::move(u));
  db.SetRelation("V", std::move(v));
  db.SetRelation("S", MakeRel(1, {{3}, {5}, {8}, {11}}));
  return db;
}

TEST(DivisionUngroupedDividend, KeysRecurThroughoutTheStream) {
  const core::Database db = UngroupedTestDb();
  ExpectPlannedDivisionAgrees(engine::MakeProject(engine::MakeScan("T", 2), {2, 1}),
                              db, "swapped columns");
}

TEST(DivisionUngroupedDividend, UnionOfInterleavedOverlappingRelations) {
  const core::Database db = UngroupedTestDb();
  const Relation& u = db.relation("U");
  const Relation& v = db.relation("V");
  const std::size_t shared = u.size() + v.size() - core::Union(u, v).size();
  ASSERT_GT(shared, 0u);
  ASSERT_LT(shared, std::min(u.size(), v.size()));
  ExpectPlannedDivisionAgrees(
      engine::MakeUnion(engine::MakeScan("U", 2), engine::MakeScan("V", 2)), db,
      "union");
}

// ---------------------------------------------------------------------------
// Bitmap word boundaries and extreme values. Divisor ids are ranks in S,
// so S minus its largest element leaves the last bitmap word's top bit
// clear and S minus its smallest the first word's bit 0; keys and
// elements include the int64 extremes, 0 and −1 (no value may act as an
// empty-slot sentinel) and values that differ only above bit 32 (the
// tables must hash every bit).
// ---------------------------------------------------------------------------

constexpr Value kHigh = Value{1} << 32;
const std::vector<Value> kExtremes = {INT64_MIN, INT64_MIN + 1, -1, 0, 1,
                                      kHigh, kHigh + 1, INT64_MAX};

TEST(DivisionBitmapBoundaries, WordEdgesAndExtremeValues) {
  // S is a prefix of this pool: the extremes but INT64_MAX, then values
  // whose low 32 bits are all 5. 2 sorts between S's elements once
  // |S| > 5; INT64_MAX sorts beyond all of them.
  std::vector<Value> pool = kExtremes;
  pool.pop_back();
  for (Value j = 2; j <= 200; ++j) pool.push_back(5 + j * kHigh);
  std::sort(pool.begin(), pool.end());
  // Keys: the extremes plus keys that differ only above bit 32.
  std::vector<Value> keys = kExtremes;
  for (Value j = 1; j <= 8; ++j) keys.push_back(7 + (j << 40));
  for (std::size_t m : {1u, 63u, 64u, 65u, 128u, 129u}) {
    const std::vector<Value> divisor(pool.begin(), pool.begin() + m);
    Relation s(1);
    for (const Value b : divisor) s.Add({b});
    const auto shaped_dividend = [&](std::size_t rotation, Relation* contains,
                              Relation* equals) {
      Relation r(2);
      for (std::size_t k = 0; k < keys.size(); ++k) {
        const Value a = keys[k];
        std::vector<Value> group = divisor;
        switch ((k + rotation) % 5) {
          case 0:  // = S
            contains->Add({a});
            equals->Add({a});
            break;
          case 1:  // S + an extra between S's elements.
            group.push_back(2);
            contains->Add({a});
            break;
          case 2:  // S + an extra beyond all of them.
            group.push_back(INT64_MAX);
            contains->Add({a});
            break;
          case 3:  // S − its largest element: the last word's top bit.
            group.pop_back();
            break;
          case 4:  // S − its smallest element: bit 0.
            group.erase(group.begin());
            break;
        }
        if (group.empty()) group.push_back(2);  // |S| = 1: a non-member.
        for (const Value b : group) r.Add({a, b});
      }
      return r;
    };
    // Across the rotations every key takes every group shape.
    for (std::size_t rotation = 0; rotation < 5; ++rotation) {
      Relation contains(1), equals(1);
      const Relation r = shaped_dividend(rotation, &contains, &equals);
      const std::string where =
          "|S| = " + std::to_string(m) + " rotation " + std::to_string(rotation);
      ASSERT_EQ(ReferenceDivide(r, s, false), contains) << where;
      ASSERT_EQ(ReferenceDivide(r, s, true), equals) << where;
      const auto db = setalg::testing::DivisionDb(r, s);
      for (auto algorithm : AllDivisionAlgorithms()) {
        const std::string label =
            std::string(DivisionAlgorithmToString(algorithm)) + " " + where;
        EXPECT_EQ(Divide(r, s, algorithm), contains) << label;
        EXPECT_EQ(DivideEqual(r, s, algorithm), equals) << label;
        for (const bool equality : {false, true}) {
          engine::PhysicalPlan plan;
          plan.root = engine::MakeDivision(engine::MakeScan("R", 2),
                                           engine::MakeScan("S", 1), algorithm,
                                           equality);
          engine::EngineOptions options;
          options.batch_size = 7;
          auto run = engine::Engine(options).Run(plan, db);
          ASSERT_TRUE(run.ok()) << label << ": " << run.error();
          EXPECT_EQ(run->relation, equality ? equals : contains)
              << label << (equality ? " equality" : " containment") << " engine";
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The classic RA expression and its quadratic intermediates.
// ---------------------------------------------------------------------------

TEST(ClassicRa, ExpressionShapeIsTextbook) {
  auto expr = ClassicDivisionExpr("R", "S");
  EXPECT_EQ(expr->ToString(),
            "diff(pi[1](R), pi[1](diff(join[](pi[1](R), S), R)))");
}

TEST(ClassicRa, IntermediatesAreProductSized) {
  workload::DivisionConfig config = SmallConfig();
  config.seed = 11;
  const auto instance = workload::MakeDivisionInstance(config);
  ra::EvalStats stats;
  Divide(instance.r, instance.s, DivisionAlgorithm::kClassicRa, &stats);
  const GroupedRelation groups(instance.r);
  EXPECT_GE(stats.max_intermediate, groups.NumGroups() * instance.s.size());
}

TEST(ClassicRa, EqualityExpressionAgreesOnFigure5) {
  // On Fig. 5's A: containment and equality division both give {1,2}.
  const auto a = witness::MakeFig5A();
  ra::EvalStats stats;
  EXPECT_EQ(DivideEqual(a.relation("R"), a.relation("S"),
                        DivisionAlgorithm::kClassicRa, &stats),
            MakeRel(1, {{1}, {2}}));
  // On B both are empty.
  const auto b = witness::MakeFig5B();
  EXPECT_TRUE(Divide(b.relation("R"), b.relation("S"),
                     DivisionAlgorithm::kClassicRa)
                  .empty());
}

// ---------------------------------------------------------------------------
// Grouped relation utilities.
// ---------------------------------------------------------------------------

TEST(Grouped, ConstructorGroupsAndSorts) {
  const Relation r = MakeRel(2, {{2, 9}, {1, 5}, {1, 3}, {1, 5}});
  const GroupedRelation grouped(r);
  ASSERT_EQ(grouped.NumGroups(), 2u);
  EXPECT_EQ(grouped.group(0).key, 1);
  EXPECT_TRUE(std::ranges::equal(grouped.group(0).elements, std::vector<Value>{3, 5}));
  EXPECT_EQ(grouped.group(1).key, 2);
}

TEST(Grouped, SortedSubsetAndIntersect) {
  using Values = std::vector<Value>;
  EXPECT_TRUE(SortedSubset(Values{2, 4}, Values{1, 2, 3, 4}));
  EXPECT_FALSE(SortedSubset(Values{2, 5}, Values{1, 2, 3, 4}));
  EXPECT_TRUE(SortedSubset({}, Values{1}));
  EXPECT_TRUE(SortedIntersects(Values{1, 9}, Values{9, 10}));
  EXPECT_FALSE(SortedIntersects(Values{1, 3}, Values{2, 4}));
  EXPECT_FALSE(SortedIntersects({}, Values{1}));
}

TEST(Grouped, SignatureIsOneSidedFilter) {
  util::Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Value> super, sub;
    for (int i = 0; i < 12; ++i) super.push_back(rng.NextInt(1, 40));
    std::sort(super.begin(), super.end());
    super.erase(std::unique(super.begin(), super.end()), super.end());
    for (std::size_t i = 0; i < super.size(); i += 2) sub.push_back(super[i]);
    // Subset implies signature-subset. (The converse may fail — that is
    // the point of a filter.)
    EXPECT_EQ(SetSignature(sub) & ~SetSignature(super), 0u);
  }
}

TEST(Grouped, SetHashIsOrderIndependentAndSizeSensitive) {
  using Values = std::vector<Value>;
  EXPECT_EQ(SetHash(Values{1, 2, 3}), SetHash(Values{3, 2, 1}));
  EXPECT_NE(SetHash(Values{1, 2}), SetHash(Values{1, 2, 3}));
}

}  // namespace
}  // namespace setalg::setjoin
