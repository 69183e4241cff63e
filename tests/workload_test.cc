#include <gtest/gtest.h>

#include <algorithm>

#include "setjoin/grouped.h"
#include "test_util.h"
#include "workload/generators.h"

namespace setalg::workload {
namespace {

TEST(DivisionWorkload, IsReproducible) {
  DivisionConfig config;
  config.seed = 42;
  const auto a = MakeDivisionInstance(config);
  const auto b = MakeDivisionInstance(config);
  EXPECT_EQ(a.r, b.r);
  EXPECT_EQ(a.s, b.s);
}

TEST(DivisionWorkload, DifferentSeedsDiffer) {
  DivisionConfig config;
  config.seed = 1;
  const auto a = MakeDivisionInstance(config);
  config.seed = 2;
  const auto b = MakeDivisionInstance(config);
  EXPECT_NE(a.r, b.r);
}

TEST(DivisionWorkload, DivisorHasRequestedSize) {
  DivisionConfig config;
  config.divisor_size = 7;
  config.domain_size = 32;
  const auto instance = MakeDivisionInstance(config);
  EXPECT_EQ(instance.s.size(), 7u);
}

TEST(DivisionWorkload, MatchFractionForcesContainingGroups) {
  DivisionConfig config;
  config.num_groups = 200;
  config.group_size = 4;
  config.divisor_size = 3;
  config.domain_size = 64;
  config.match_fraction = 1.0;
  const auto instance = MakeDivisionInstance(config);
  // Every group contains the divisor by construction.
  const setjoin::GroupedRelation groups(instance.r);
  std::vector<core::Value> divisor;
  for (std::size_t i = 0; i < instance.s.size(); ++i) {
    divisor.push_back(instance.s.tuple(i)[0]);
  }
  for (std::size_t i = 0; i < groups.NumGroups(); ++i) {
    EXPECT_TRUE(setjoin::SortedSubset(divisor, groups.group(i).elements));
  }
}

TEST(DivisionWorkload, ZeroMatchFractionRarelyContains) {
  DivisionConfig config;
  config.num_groups = 50;
  config.group_size = 4;
  config.divisor_size = 4;
  config.domain_size = 256;
  config.match_fraction = 0.0;
  const auto instance = MakeDivisionInstance(config);
  const setjoin::GroupedRelation groups(instance.r);
  std::vector<core::Value> divisor;
  for (std::size_t i = 0; i < instance.s.size(); ++i) {
    divisor.push_back(instance.s.tuple(i)[0]);
  }
  std::size_t containing = 0;
  for (std::size_t i = 0; i < groups.NumGroups(); ++i) {
    if (setjoin::SortedSubset(divisor, groups.group(i).elements)) ++containing;
  }
  EXPECT_LT(containing, 3u);  // 4 random picks covering 4 of 256 values.
}

TEST(SetJoinWorkload, GroupCountsAreRespected) {
  SetJoinConfig config;
  config.r_groups = 17;
  config.s_groups = 9;
  const auto instance = MakeSetJoinInstance(config);
  EXPECT_EQ(setjoin::GroupedRelation(instance.r).NumGroups(), 17u);
  EXPECT_EQ(setjoin::GroupedRelation(instance.s).NumGroups(), 9u);
}

TEST(SetJoinWorkload, ContainmentFractionCreatesMatches) {
  SetJoinConfig config;
  config.r_groups = 30;
  config.s_groups = 30;
  config.r_group_size = 8;
  config.s_group_size = 3;
  config.domain_size = 64;
  config.containment_fraction = 1.0;
  config.seed = 5;
  const auto instance = MakeSetJoinInstance(config);
  const setjoin::GroupedRelation r(instance.r);
  const setjoin::GroupedRelation s(instance.s);
  // Every S group is a subset of some R group.
  for (std::size_t j = 0; j < s.NumGroups(); ++j) {
    bool contained = false;
    for (std::size_t i = 0; i < r.NumGroups(); ++i) {
      if (setjoin::SortedSubset(s.group(j).elements, r.group(i).elements)) {
        contained = true;
        break;
      }
    }
    EXPECT_TRUE(contained);
  }
}

TEST(UniformBinary, RowCountUpToDuplicates) {
  const auto r = UniformBinaryRelation(500, 1000, 3);
  EXPECT_LE(r.size(), 500u);
  EXPECT_GT(r.size(), 400u);  // Few collisions at this density.
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_GE(r.tuple(i)[0], 1);
    EXPECT_LE(r.tuple(i)[0], 1000);
  }
}

TEST(PathRelation, IsAChain) {
  const auto r = PathRelation(5);
  EXPECT_EQ(r.size(), 4u);
  EXPECT_TRUE(r.Contains(core::Tuple{1, 2}));
  EXPECT_TRUE(r.Contains(core::Tuple{4, 5}));
  EXPECT_TRUE(PathRelation(1).empty());
}

TEST(Families, DivisionFamilyScalesLinearly) {
  const auto small = DivisionFamilyDatabase(400, 4, 1);
  const auto large = DivisionFamilyDatabase(3200, 4, 1);
  EXPECT_GT(large.size(), small.size() * 6);
  EXPECT_LT(large.size(), small.size() * 10);
}

TEST(Families, SparseBinaryHasSchemaR) {
  const auto db = SparseBinaryDatabase(100, 2);
  EXPECT_TRUE(db.schema().HasRelation("R"));
  EXPECT_LE(db.relation("R").size(), 100u);
}

TEST(Families, TwoRelationSharesDomain) {
  const auto db = TwoRelationDatabase(200, 5);
  EXPECT_TRUE(db.schema().HasRelation("R"));
  EXPECT_TRUE(db.schema().HasRelation("T"));
  EXPECT_GT(db.relation("T").size(), 0u);
}

}  // namespace
}  // namespace setalg::workload
