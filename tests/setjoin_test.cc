#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "engine/parallel.h"
#include "setjoin/grouped.h"
#include "setjoin/setjoin.h"
#include "test_util.h"
#include "util/rng.h"
#include "witness/figures.h"
#include "workload/generators.h"

namespace setalg::setjoin {
namespace {

using core::Relation;
using core::Value;
using setalg::testing::MakeRel;

// Brute-force references.
Relation ReferenceContainment(const GroupedRelation& r, const GroupedRelation& s) {
  Relation out(2);
  for (std::size_t i = 0; i < r.NumGroups(); ++i) {
    for (std::size_t j = 0; j < s.NumGroups(); ++j) {
      const Group rg = r.group(i), sg = s.group(j);
      if (SortedSubset(sg.elements, rg.elements)) out.Add({rg.key, sg.key});
    }
  }
  return out;
}

Relation ReferenceEquality(const GroupedRelation& r, const GroupedRelation& s) {
  Relation out(2);
  for (std::size_t i = 0; i < r.NumGroups(); ++i) {
    for (std::size_t j = 0; j < s.NumGroups(); ++j) {
      const Group rg = r.group(i), sg = s.group(j);
      if (std::ranges::equal(rg.elements, sg.elements)) out.Add({rg.key, sg.key});
    }
  }
  return out;
}

Relation ReferenceOverlap(const GroupedRelation& r, const GroupedRelation& s) {
  Relation out(2);
  for (std::size_t i = 0; i < r.NumGroups(); ++i) {
    for (std::size_t j = 0; j < s.NumGroups(); ++j) {
      const Group rg = r.group(i), sg = s.group(j);
      if (SortedIntersects(rg.elements, sg.elements)) out.Add({rg.key, sg.key});
    }
  }
  return out;
}

TEST(SetContainment, PaperFigure1Join) {
  // Person ⋈_{Symptom ⊇ Symptom} Disease = {(An,flu),(Bob,flu),(Bob,Lyme)}.
  const auto example = witness::MakeMedicalExample();
  const auto& person = example.db.relation("Person");
  const auto& disease = example.db.relation("Disease");
  Relation expected(2);
  expected.Add({example.names.Code("An"), example.names.Code("flu")});
  expected.Add({example.names.Code("Bob"), example.names.Code("flu")});
  expected.Add({example.names.Code("Bob"), example.names.Code("Lyme")});
  for (auto algorithm : AllContainmentAlgorithms()) {
    EXPECT_EQ(SetContainmentJoin(person, disease, algorithm), expected)
        << ContainmentAlgorithmToString(algorithm);
  }
}

TEST(SetContainment, HandlesNoMatches) {
  const Relation r = MakeRel(2, {{1, 5}});
  const Relation s = MakeRel(2, {{9, 6}});
  for (auto algorithm : AllContainmentAlgorithms()) {
    EXPECT_TRUE(SetContainmentJoin(r, s, algorithm).empty())
        << ContainmentAlgorithmToString(algorithm);
  }
}

TEST(SetContainment, EmptySidesProduceNothing) {
  const Relation nonempty = MakeRel(2, {{1, 5}});
  const Relation empty(2);
  for (auto algorithm : AllContainmentAlgorithms()) {
    EXPECT_TRUE(SetContainmentJoin(empty, nonempty, algorithm).empty())
        << ContainmentAlgorithmToString(algorithm);
    EXPECT_TRUE(SetContainmentJoin(nonempty, empty, algorithm).empty())
        << ContainmentAlgorithmToString(algorithm);
    EXPECT_TRUE(SetContainmentJoin(empty, empty, algorithm).empty())
        << ContainmentAlgorithmToString(algorithm);
  }
}

TEST(SetContainment, AllDuplicateTuplesCollapseUnderSetSemantics) {
  Relation r(2), s(2);
  for (int copies = 0; copies < 4; ++copies) {
    r.Add({1, 5});
    r.Add({1, 6});
    s.Add({9, 5});
  }
  for (auto algorithm : AllContainmentAlgorithms()) {
    EXPECT_EQ(SetContainmentJoin(r, s, algorithm), MakeRel(2, {{1, 9}}))
        << ContainmentAlgorithmToString(algorithm);
  }
}

TEST(SetContainment, SingleElementSetsEverywhere) {
  // Every group is a singleton over a one-value domain: all pairs match,
  // so the output is the full cross product of the keys.
  const Relation r = MakeRel(2, {{1, 7}, {2, 7}, {3, 7}});
  const Relation s = MakeRel(2, {{8, 7}, {9, 7}});
  for (auto algorithm : AllContainmentAlgorithms()) {
    EXPECT_EQ(SetContainmentJoin(r, s, algorithm),
              MakeRel(2, {{1, 8}, {1, 9}, {2, 8}, {2, 9}, {3, 8}, {3, 9}}))
        << ContainmentAlgorithmToString(algorithm);
  }
}

TEST(SetContainment, NoGroupContainsDespiteSharedElements) {
  // Every S set shares an element with every R set but none is contained —
  // signature and inverted-index pruning must not over-admit.
  const Relation r = MakeRel(2, {{1, 5}, {1, 6}, {2, 6}, {2, 7}});
  const Relation s = MakeRel(2, {{8, 5}, {8, 7}, {9, 6}, {9, 8}});
  for (auto algorithm : AllContainmentAlgorithms()) {
    EXPECT_TRUE(SetContainmentJoin(r, s, algorithm).empty())
        << ContainmentAlgorithmToString(algorithm);
  }
}

TEST(SetContainment, ReflexiveContainment) {
  const Relation r = MakeRel(2, {{1, 5}, {1, 6}});
  for (auto algorithm : AllContainmentAlgorithms()) {
    EXPECT_EQ(SetContainmentJoin(r, r, algorithm), MakeRel(2, {{1, 1}}))
        << ContainmentAlgorithmToString(algorithm);
  }
}

class ContainmentAgreementTest
    : public ::testing::TestWithParam<ContainmentAlgorithm> {};

TEST_P(ContainmentAgreementTest, MatchesReferenceAcrossWorkloads) {
  const auto algorithm = GetParam();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    workload::SetJoinConfig config;
    config.r_groups = 30;
    config.s_groups = 25;
    config.r_group_size = 8;
    config.s_group_size = 3;
    config.domain_size = 20;
    config.containment_fraction = 0.3;
    config.seed = seed;
    const auto instance = workload::MakeSetJoinInstance(config);
    const GroupedRelation r(instance.r);
    const GroupedRelation s(instance.s);
    EXPECT_EQ(SetContainmentJoin(r, s, algorithm), ReferenceContainment(r, s))
        << "seed " << seed;
  }
}

TEST_P(ContainmentAgreementTest, MatchesReferenceUnderSkew) {
  const auto algorithm = GetParam();
  workload::SetJoinConfig config;
  config.r_groups = 25;
  config.s_groups = 25;
  config.r_group_size = 6;
  config.s_group_size = 2;
  config.domain_size = 15;
  config.zipf_skew = 1.2;
  config.seed = 77;
  const auto instance = workload::MakeSetJoinInstance(config);
  const GroupedRelation r(instance.r);
  const GroupedRelation s(instance.s);
  EXPECT_EQ(SetContainmentJoin(r, s, algorithm), ReferenceContainment(r, s));
}

INSTANTIATE_TEST_SUITE_P(Algorithms, ContainmentAgreementTest,
                         ::testing::ValuesIn(AllContainmentAlgorithms()),
                         [](const ::testing::TestParamInfo<ContainmentAlgorithm>& i) {
                           std::string name = ContainmentAlgorithmToString(i.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// ---------------------------------------------------------------------------
// Set-equality join.
// ---------------------------------------------------------------------------

TEST(SetEquality, BothAlgorithmsAgreeWithReference) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    workload::SetJoinConfig config;
    config.r_groups = 25;
    config.s_groups = 25;
    config.r_group_size = 3;
    config.s_group_size = 3;
    config.domain_size = 6;  // Small domain: equal sets actually occur.
    config.seed = seed;
    const auto instance = workload::MakeSetJoinInstance(config);
    const GroupedRelation r(instance.r);
    const GroupedRelation s(instance.s);
    const auto expected = ReferenceEquality(r, s);
    EXPECT_EQ(SetEqualityJoin(r, s, EqualityJoinAlgorithm::kNestedLoop), expected);
    EXPECT_EQ(SetEqualityJoin(r, s, EqualityJoinAlgorithm::kCanonicalHash), expected);
    EXPECT_FALSE(expected.empty()) << "degenerate workload; lower the domain";
  }
}

TEST(SetEquality, DistinguishesProperSubsets) {
  const Relation r = MakeRel(2, {{1, 5}, {1, 6}});
  const Relation s = MakeRel(2, {{9, 5}});
  EXPECT_TRUE(
      SetEqualityJoin(r, s, EqualityJoinAlgorithm::kCanonicalHash).empty());
}

TEST(SetEquality, EdgeShapesAgreeAcrossAlgorithms) {
  const Relation empty(2);
  Relation duplicates(2);
  for (int copies = 0; copies < 3; ++copies) {
    duplicates.Add({1, 5});
    duplicates.Add({2, 5});
  }
  const Relation singletons = MakeRel(2, {{7, 5}, {8, 5}});
  for (auto algorithm : {EqualityJoinAlgorithm::kNestedLoop,
                         EqualityJoinAlgorithm::kCanonicalHash}) {
    // Empty sides.
    EXPECT_TRUE(SetEqualityJoin(empty, singletons, algorithm).empty());
    EXPECT_TRUE(SetEqualityJoin(singletons, empty, algorithm).empty());
    // All-duplicate tuples collapse: both R keys still equal both S keys.
    EXPECT_EQ(SetEqualityJoin(duplicates, singletons, algorithm),
              MakeRel(2, {{1, 7}, {1, 8}, {2, 7}, {2, 8}}))
        << EqualityJoinAlgorithmToString(algorithm);
  }
}

TEST(SetOverlap, EdgeShapes) {
  const Relation empty(2);
  const Relation r = MakeRel(2, {{1, 5}});
  EXPECT_TRUE(SetOverlapJoin(empty, r).empty());
  EXPECT_TRUE(SetOverlapJoin(r, empty).empty());
  Relation duplicates(2);
  for (int copies = 0; copies < 3; ++copies) duplicates.Add({9, 5});
  EXPECT_EQ(SetOverlapJoin(r, duplicates), MakeRel(2, {{1, 9}}));
}

TEST(SetEquality, OutputCanBeQuadratic) {
  // All groups share one set: |output| = groups². (Footnote 1: the result
  // size alone can be quadratic.)
  Relation r(2), s(2);
  for (Value g = 1; g <= 10; ++g) {
    r.Add({g, 100});
    s.Add({g, 100});
  }
  const auto out = SetEqualityJoin(r, s, EqualityJoinAlgorithm::kCanonicalHash);
  EXPECT_EQ(out.size(), 100u);
}

// ---------------------------------------------------------------------------
// Set-overlap join.
// ---------------------------------------------------------------------------

TEST(SetOverlap, MatchesReference) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    workload::SetJoinConfig config;
    config.r_groups = 20;
    config.s_groups = 20;
    config.r_group_size = 5;
    config.s_group_size = 5;
    config.domain_size = 30;
    config.seed = seed;
    const auto instance = workload::MakeSetJoinInstance(config);
    const GroupedRelation r(instance.r);
    const GroupedRelation s(instance.s);
    EXPECT_EQ(SetOverlapJoin(r, s), ReferenceOverlap(r, s)) << "seed " << seed;
  }
}

TEST(SetOverlap, IsTheEquijoinOfThePaper) {
  // The paper: "a set join with predicate 'intersection nonempty' boils
  // down to an ordinary equijoin" — π_{A,C}(R ⋈_{B=D} S).
  const Relation r = MakeRel(2, {{1, 5}, {2, 6}});
  const Relation s = MakeRel(2, {{8, 5}, {9, 7}});
  EXPECT_EQ(SetOverlapJoin(r, s), MakeRel(2, {{1, 8}}));
}

TEST(SetOverlap, DisjointSetsProduceNothing) {
  const Relation r = MakeRel(2, {{1, 5}});
  const Relation s = MakeRel(2, {{9, 6}});
  EXPECT_TRUE(SetOverlapJoin(r, s).empty());
}

// ---------------------------------------------------------------------------
// Cross-predicate sanity: equality ⊆ containment ⊆ overlap (for nonempty
// sets).
// ---------------------------------------------------------------------------

TEST(SetJoins, PredicateInclusionChain) {
  workload::SetJoinConfig config;
  config.r_groups = 20;
  config.s_groups = 20;
  config.r_group_size = 4;
  config.s_group_size = 3;
  config.domain_size = 10;
  config.seed = 5;
  const auto instance = workload::MakeSetJoinInstance(config);
  const GroupedRelation r(instance.r);
  const GroupedRelation s(instance.s);
  const auto equal = SetEqualityJoin(r, s, EqualityJoinAlgorithm::kCanonicalHash);
  const auto contains =
      SetContainmentJoin(r, s, ContainmentAlgorithm::kInvertedIndex);
  const auto overlap = SetOverlapJoin(r, s);
  EXPECT_EQ(core::Intersect(equal, contains), equal);
  EXPECT_EQ(core::Intersect(contains, overlap), contains);
}

// ---------------------------------------------------------------------------
// Partition-boundary edge cases: the engine's partitioned set joins cut
// the left side into key ranges and share the right side; shapes where
// that degenerates (more ranges than keys, one-key skew, empty ranges,
// contained sets bigger than any left group) must agree with the serial
// kernels for every algorithm, serial and parallel. The operator picks its
// width from the left rows it holds (engine::PartitionCount), so each
// left side is padded to kSplitRows rows: one range per thread at every
// thread count below.
// ---------------------------------------------------------------------------

constexpr std::size_t kSplitRows = 7 * engine::kMinPartitionRows;

// Elements padded onto a left group so a shape reaches kSplitRows rows: a
// range of its own, disjoint from every right set below.
constexpr Value kPadding = 1000000;

// Runs all three set joins over (r, s) through the engine's operators at
// threads {1, 2, 7}, expecting the brute-force references everywhere.
// When `splits`, r holds at least kSplitRows rows and every pooled run
// must cut exactly `threads` key ranges; otherwise nothing fans out.
void ExpectPartitionedSetJoinsAgree(const Relation& r, const Relation& s, bool splits,
                                    const char* what) {
  if (splits) {
    ASSERT_GE(r.size(), kSplitRows) << what;
  }
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 2);
  core::Database db(schema);
  db.SetRelation("R", r);
  db.SetRelation("S", s);
  const GroupedRelation gr(r);
  const GroupedRelation gs(s);

  auto check = [&](engine::PhysicalOpPtr root, const Relation& expected,
                   const std::string& label) {
    engine::PhysicalPlan plan;
    plan.root = std::move(root);
    for (std::size_t threads : {1u, 2u, 7u}) {
      auto run =
          engine::Engine(engine::EngineOptions{}.WithThreads(threads)).Run(plan, db);
      ASSERT_TRUE(run.ok()) << what << " " << label << ": " << run.error();
      EXPECT_EQ(run->relation, expected)
          << what << " " << label << " threads " << threads;
      EXPECT_EQ(run->stats.partitions, splits && threads > 1 ? threads : 0u)
          << what << " " << label << " threads " << threads;
    }
  };

  for (auto algorithm : AllContainmentAlgorithms()) {
    check(engine::MakeSetContainmentJoin(engine::MakeScan("R", 2),
                                         engine::MakeScan("S", 2), algorithm),
          ReferenceContainment(gr, gs),
          std::string("containment ") + ContainmentAlgorithmToString(algorithm));
  }
  for (auto algorithm :
       {EqualityJoinAlgorithm::kNestedLoop, EqualityJoinAlgorithm::kCanonicalHash}) {
    check(engine::MakeSetEqualityJoin(engine::MakeScan("R", 2), engine::MakeScan("S", 2),
                                      algorithm),
          ReferenceEquality(gr, gs),
          std::string("equality ") + EqualityJoinAlgorithmToString(algorithm));
  }
  check(engine::MakeSetOverlapJoin(engine::MakeScan("R", 2), engine::MakeScan("S", 2)),
        ReferenceOverlap(gr, gs), "overlap");
}

TEST(SetJoinPartitionEdges, MoreRangesThanKeys) {
  // Three left keys against up-to-7-way fan-outs: keys 2 and 3 carry most
  // rows, so the cuts land on their boundaries and trailing ranges are
  // empty.
  Relation r = MakeRel(2, {{1, 5}, {1, 6}, {2, 5}, {3, 6}, {3, 7}});
  setalg::testing::AddGroup(&r, 2, kPadding, kSplitRows / 2);
  setalg::testing::AddGroup(&r, 3, kPadding, kSplitRows / 2);
  ExpectPartitionedSetJoinsAgree(r, MakeRel(2, {{9, 5}, {9, 6}, {8, 6}}),
                                 /*splits=*/true, "more ranges than keys");
}

TEST(SetJoinPartitionEdges, AllLeftRowsOnOneKey) {
  // One left key: the whole containing side lands in a single range while
  // the others run the kernels on empty grouped views.
  Relation r = MakeRel(2, {{5, 1}, {5, 2}, {5, 3}});
  setalg::testing::AddGroup(&r, 5, kPadding, kSplitRows);
  ExpectPartitionedSetJoinsAgree(r, MakeRel(2, {{7, 1}, {7, 2}, {8, 3}, {9, 4}}),
                                 /*splits=*/true, "single-key left side");
}

TEST(SetJoinPartitionEdges, EmptySides) {
  // An empty left side stays serial; a split left side meets an empty
  // right side in every range.
  Relation wide = MakeRel(2, {{1, 5}});
  setalg::testing::AddGroup(&wide, 2, kPadding, kSplitRows);
  ExpectPartitionedSetJoinsAgree(Relation(2), MakeRel(2, {{9, 5}}), /*splits=*/false,
                                 "empty left");
  ExpectPartitionedSetJoinsAgree(wide, Relation(2), /*splits=*/true, "empty right");
  ExpectPartitionedSetJoinsAgree(Relation(2), Relation(2), /*splits=*/false,
                                 "both empty");
}

TEST(SetJoinPartitionEdges, ContainedSetsBiggerThanEveryLeftGroup) {
  // Every right set is larger than every (one-element) left group, so
  // containment and equality are empty in every range; overlap still
  // fires.
  Relation r(2);
  for (std::size_t key = 0; key < kSplitRows; ++key) {
    r.Add({static_cast<Value>(key), static_cast<Value>(5 + key % 3)});
  }
  ExpectPartitionedSetJoinsAgree(
      r, MakeRel(2, {{8, 5}, {8, 6}, {8, 7}, {9, 5}, {9, 9}, {9, 10}}),
      /*splits=*/true, "right sets bigger than left groups");
}

TEST(SetJoinPartitionEdges, DuplicateHeavyInputsCollapseIdenticallyWhenPartitioned) {
  Relation r = MakeRel(2, {{1, 5}, {1, 5}, {1, 6}, {2, 5}, {2, 5}});
  for (int copy = 0; copy < 2; ++copy) {
    setalg::testing::AddGroup(&r, 3, kPadding, kSplitRows);
  }
  ExpectPartitionedSetJoinsAgree(r, MakeRel(2, {{9, 5}, {9, 5}, {8, 6}}),
                                 /*splits=*/true, "duplicate-heavy");
}

// ---------------------------------------------------------------------------
// CSR grouped views against the pair-sort grouping they replaced.
// ---------------------------------------------------------------------------

using PairGroups = std::vector<std::pair<Value, std::vector<Value>>>;

// The oracle: copy the (key, element) pairs as they were added, sort them,
// and push each key's unique elements into that key's own vector.
PairGroups PairSortGroups(std::vector<std::pair<Value, Value>> pairs) {
  std::sort(pairs.begin(), pairs.end());
  PairGroups groups;
  for (const auto& [key, element] : pairs) {
    if (groups.empty() || groups.back().first != key) groups.push_back({key, {}});
    auto& elements = groups.back().second;
    if (elements.empty() || elements.back() != element) elements.push_back(element);
  }
  return groups;
}

void ExpectSameGroups(const GroupedRelation& view, const PairGroups& expected,
                      const std::string& context) {
  ASSERT_EQ(view.NumGroups(), expected.size()) << context;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const Group g = view.group(i);
    EXPECT_EQ(g.key, expected[i].first) << context << " group " << i;
    EXPECT_EQ(std::vector<Value>(g.elements.begin(), g.elements.end()),
              expected[i].second)
        << context << " key " << expected[i].first;
  }
}

// Adds `pairs` to a binary relation in the given order, then checks the
// view over the whole relation, and over each KeyRanges range of it, with
// the oracle (restricted to the range's keys).
void ExpectCsrMatchesOracle(const std::vector<std::pair<Value, Value>>& pairs,
                            const std::string& context) {
  const PairGroups oracle = PairSortGroups(pairs);
  Relation relation(2);
  for (const auto& [key, element] : pairs) relation.Add({key, element});
  ExpectSameGroups(GroupedRelation(relation), oracle, context + " whole");
  const Value* rows = relation.flat().data();
  for (std::size_t parts : {1u, 2u, 3u, 7u}) {
    for (const engine::RowRange range : engine::KeyRanges(relation, parts)) {
      PairGroups restricted;
      if (range.size() > 0) {
        const Value first = rows[2 * range.begin];
        const Value last = rows[2 * (range.end - 1)];
        for (const auto& group : oracle) {
          if (group.first >= first && group.first <= last) restricted.push_back(group);
        }
      }
      ExpectSameGroups(GroupedRelation(rows + 2 * range.begin, range.size()), restricted,
                       context + " parts " + std::to_string(parts) + " range [" +
                           std::to_string(range.begin) + ", " +
                           std::to_string(range.end) + ")");
    }
  }
}

TEST(Grouped, CsrViewMatchesPairSortGrouping) {
  const std::vector<Value> extremes = {INT64_MIN, INT64_MIN + 1, -1, 0, INT64_MAX};
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    util::Rng rng(seed);
    const auto draw = [&] {
      return rng.NextInt(0, 2) == 0
                 ? extremes[static_cast<std::size_t>(rng.NextInt(0, 4))]
                 : rng.NextInt(-6, 6);
    };
    std::vector<std::pair<Value, Value>> pairs(static_cast<std::size_t>(rng.NextInt(1, 60)));
    for (auto& pair : pairs) pair = {draw(), draw()};
    const std::string context = "seed " + std::to_string(seed);
    ExpectCsrMatchesOracle(pairs, context + " unsorted");
    std::vector<std::pair<Value, Value>> sorted = pairs;
    std::sort(sorted.begin(), sorted.end());
    ExpectCsrMatchesOracle(sorted, context + " sorted");
  }
  ExpectCsrMatchesOracle({}, "empty");
  ExpectCsrMatchesOracle({{7, INT64_MAX}, {7, INT64_MIN}, {7, 0}, {7, 0}, {7, -1}},
                         "single key");
  std::vector<std::pair<Value, Value>> own_keys;
  for (Value key : extremes) own_keys.push_back({key, key / 2});
  ExpectCsrMatchesOracle(own_keys, "every row its own key");
}

}  // namespace
}  // namespace setalg::setjoin
