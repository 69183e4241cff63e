// Tests for the stats:: module — the one-pass relation statistics against
// brute-force counts on randomized relations, and the DatabaseStats cache
// against core::Database's mutation counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/database.h"
#include "stats/stats.h"
#include "test_util.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace setalg::stats {
namespace {

using setalg::testing::ExpectSameRelationStats;
using setalg::testing::MakeRel;

// Brute-force reference for ComputeRelationStats: distinct counts from
// std::set, histograms from BuildHistogram over each sorted column and
// over the sorted group sizes.
RelationStats BruteForceStats(const core::Relation& r) {
  RelationStats stats;
  stats.arity = r.arity();
  stats.cardinality = r.size();
  stats.columns.resize(r.arity());
  std::vector<std::set<core::Value>> distinct(r.arity());
  std::vector<std::vector<core::Value>> columns(r.arity());
  std::map<core::Value, std::size_t> group_sizes;
  for (std::size_t i = 0; i < r.size(); ++i) {
    core::TupleView t = r.tuple(i);
    for (std::size_t c = 0; c < r.arity(); ++c) {
      distinct[c].insert(t[c]);
      columns[c].push_back(t[c]);
      ColumnStats& col = stats.columns[c];
      if (i == 0) {
        col.min_value = col.max_value = t[c];
      } else {
        col.min_value = std::min(col.min_value, t[c]);
        col.max_value = std::max(col.max_value, t[c]);
      }
    }
    if (r.arity() == 2) ++group_sizes[t[0]];
  }
  for (std::size_t c = 0; c < r.arity(); ++c) {
    stats.columns[c].distinct = distinct[c].size();
    std::sort(columns[c].begin(), columns[c].end());
    stats.columns[c].histogram = BuildHistogram(columns[c]);
  }
  if (r.arity() == 2 && !group_sizes.empty()) {
    GroupStats& g = stats.groups;
    g.num_groups = group_sizes.size();
    g.min_group_size = group_sizes.begin()->second;
    std::vector<core::Value> sizes;
    for (const auto& [key, size] : group_sizes) {
      g.min_group_size = std::min(g.min_group_size, size);
      g.max_group_size = std::max(g.max_group_size, size);
      sizes.push_back(static_cast<core::Value>(size));
    }
    g.avg_group_size =
        static_cast<double>(r.size()) / static_cast<double>(g.num_groups);
    std::sort(sizes.begin(), sizes.end());
    g.size_histogram = BuildHistogram(sizes);
  }
  return stats;
}

TEST(RelationStats, SmallBinaryRelationByHand) {
  const auto r = MakeRel(2, {{1, 10}, {1, 20}, {1, 30}, {2, 10}, {5, 7}});
  const RelationStats stats = ComputeRelationStats(r);
  EXPECT_EQ(stats.cardinality, 5u);
  EXPECT_EQ(stats.columns[0].distinct, 3u);
  EXPECT_EQ(stats.columns[1].distinct, 4u);
  EXPECT_EQ(stats.columns[0].min_value, 1);
  EXPECT_EQ(stats.columns[0].max_value, 5);
  EXPECT_EQ(stats.columns[1].Width(), 24u);  // 30 - 7 + 1.
  EXPECT_EQ(stats.groups.num_groups, 3u);
  EXPECT_EQ(stats.groups.min_group_size, 1u);
  EXPECT_EQ(stats.groups.max_group_size, 3u);
  EXPECT_DOUBLE_EQ(stats.groups.avg_group_size, 5.0 / 3.0);
}

TEST(RelationStats, EmptyAndZeroAryRelations) {
  const RelationStats empty = ComputeRelationStats(core::Relation(2));
  EXPECT_EQ(empty.cardinality, 0u);
  EXPECT_EQ(empty.columns[0].distinct, 0u);
  EXPECT_EQ(empty.groups.num_groups, 0u);
  EXPECT_EQ(empty.columns[0].Width(), 0u);

  const RelationStats zero = ComputeRelationStats(MakeRel(0, {{}}));
  EXPECT_EQ(zero.cardinality, 1u);
  EXPECT_TRUE(zero.columns.empty());
}

TEST(RelationStats, MatchesBruteForceOnRandomRelations) {
  util::Rng rng(2026);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t arity = 1 + rng.NextBounded(3);
    const std::size_t rows = rng.NextBounded(200);
    const std::size_t domain = 1 + rng.NextBounded(40);
    core::Relation r(arity);
    core::Tuple t(arity);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t c = 0; c < arity; ++c) {
        t[c] = static_cast<core::Value>(rng.NextBounded(domain) + 1);
      }
      r.Add(t);
    }
    ExpectSameRelationStats(ComputeRelationStats(r), BruteForceStats(r));
  }
}

TEST(RelationStats, MatchesBruteForceOnWorkloadInstances) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    workload::DivisionConfig config;
    config.num_groups = 50;
    config.group_size = 6;
    config.domain_size = 40;
    config.seed = seed;
    const auto instance = workload::MakeDivisionInstance(config);
    ExpectSameRelationStats(ComputeRelationStats(instance.r),
                            BruteForceStats(instance.r));
    ExpectSameRelationStats(ComputeRelationStats(instance.s),
                            BruteForceStats(instance.s));
  }
}

// Columns whose value range is at most 2n wide are counted densely, wider
// ones are sorted: random columns of both kinds, and narrow columns
// pressed against INT64_MIN and INT64_MAX, must all match the oracle.
TEST(RelationStats, MatchesBruteForceOnWideAndExtremeRanges) {
  constexpr core::Value kMin = std::numeric_limits<core::Value>::min();
  constexpr core::Value kMax = std::numeric_limits<core::Value>::max();
  util::Rng rng(2027);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t arity = 1 + rng.NextBounded(4);
    const std::size_t rows = 1 + rng.NextBounded(300);
    // One value generator per column.
    std::vector<int> shapes(arity);
    for (auto& shape : shapes) shape = static_cast<int>(rng.NextBounded(5));
    auto draw = [&](int shape) -> core::Value {
      switch (shape) {
        case 0:  // At most `rows` values wide: dense counts.
          return static_cast<core::Value>(rng.NextBounded(rows)) - 50;
        case 1:  // As narrow, against INT64_MIN.
          return kMin + static_cast<core::Value>(rng.NextBounded(rows));
        case 2:  // As narrow, against INT64_MAX.
          return kMax - static_cast<core::Value>(rng.NextBounded(rows));
        case 3:  // Anywhere in int64: sorted.
          return static_cast<core::Value>(rng.Next());
        default:  // A few values, both extremes among them: sorted.
          switch (rng.NextBounded(4)) {
            case 0: return kMin;
            case 1: return kMax;
            default: return static_cast<core::Value>(rng.NextBounded(8));
          }
      }
    };
    core::Relation r(arity);
    core::Tuple t(arity);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t c = 0; c < arity; ++c) t[c] = draw(shapes[c]);
      r.Add(t);
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectSameRelationStats(ComputeRelationStats(r), BruteForceStats(r));
  }
}

TEST(RelationStats, DenseAndSortedPathsMeetAtTwiceTheCardinality) {
  // Column 2 of n rows spans a range of exactly 2n values (counted
  // densely), then 2n + 1 (sorted); both must match the oracle.
  for (const std::size_t n : {1u, 2u, 7u, 64u}) {
    for (const core::Value span : {static_cast<core::Value>(2 * n),
                                   static_cast<core::Value>(2 * n + 1)}) {
      core::Relation r(2);
      for (std::size_t i = 0; i < n; ++i) {
        const core::Value second =
            i + 1 == n ? span - 1 : static_cast<core::Value>(i % 3);
        r.Add({static_cast<core::Value>(i / 2), second});
      }
      SCOPED_TRACE("n=" + std::to_string(n) + " span=" + std::to_string(span));
      const RelationStats stats = ComputeRelationStats(r);
      ExpectSameRelationStats(stats, BruteForceStats(r));
      if (n > 1) {
        EXPECT_EQ(stats.columns[1].Width(), static_cast<std::uint64_t>(span));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Range widths and histograms.
// ---------------------------------------------------------------------------

TEST(RelationStats, WidthSurvivesExtremeValueRanges) {
  constexpr core::Value kMin = std::numeric_limits<core::Value>::min();
  constexpr core::Value kMax = std::numeric_limits<core::Value>::max();

  // The full int64 span: the signed subtraction max - min is UB; the
  // unsigned path saturates at UINT64_MAX (one short of the true span,
  // the closest representable answer).
  const RelationStats full = ComputeRelationStats(MakeRel(1, {{kMin}, {kMax}}));
  EXPECT_EQ(full.columns[0].Width(), std::numeric_limits<std::uint64_t>::max());

  // A wide-but-representable range crossing zero.
  const RelationStats wide = ComputeRelationStats(MakeRel(1, {{kMin}, {5}}));
  EXPECT_EQ(wide.columns[0].Width(),
            static_cast<std::uint64_t>(kMax) + 2u + 5u);

  // Single extreme values behave like any other point range.
  EXPECT_EQ(ComputeRelationStats(MakeRel(1, {{kMin}})).columns[0].Width(), 1u);
  EXPECT_EQ(ComputeRelationStats(MakeRel(1, {{kMax}})).columns[0].Width(), 1u);

  EXPECT_EQ(RangeWidth(10, 3), 0u);
  EXPECT_EQ(RangeWidth(kMin, kMax), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(RangeWidth(-3, 3), 7u);
}

TEST(Histogram, EmptyAndSingleValueColumns) {
  const Histogram empty = BuildHistogram({});
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.buckets(), 0u);
  EXPECT_DOUBLE_EQ(empty.SelectivityLeq(100), 0.0);
  EXPECT_DOUBLE_EQ(empty.ExpectedFrequency(), 0.0);

  const Histogram single = BuildHistogram({7, 7, 7, 7});
  ASSERT_EQ(single.buckets(), 1u);
  EXPECT_EQ(single.total, 4u);
  EXPECT_EQ(single.counts[0], 4u);
  EXPECT_EQ(single.distincts[0], 1u);
  EXPECT_DOUBLE_EQ(single.SelectivityLeq(6), 0.0);
  EXPECT_DOUBLE_EQ(single.SelectivityLeq(7), 1.0);
  EXPECT_DOUBLE_EQ(single.SelectivityLeq(1000), 1.0);
  // Every row shares its value with all four rows.
  EXPECT_DOUBLE_EQ(single.ExpectedFrequency(), 4.0);
}

TEST(Histogram, EqualValuesNeverStraddleABucketBoundary) {
  // 8 copies each of 4 values into at most 4 buckets of depth 8: each
  // value must land whole in its own bucket.
  std::vector<core::Value> values;
  for (core::Value v = 1; v <= 4; ++v) {
    for (int i = 0; i < 8; ++i) values.push_back(v);
  }
  const Histogram h = BuildHistogram(values, 4);
  ASSERT_EQ(h.buckets(), 4u);
  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_EQ(h.counts[b], 8u) << "bucket " << b;
    EXPECT_EQ(h.distincts[b], 1u) << "bucket " << b;
    EXPECT_EQ(h.upper[b], static_cast<core::Value>(b + 1));
  }
  // Cumulative fractions at the boundaries are exact.
  EXPECT_DOUBLE_EQ(h.SelectivityLeq(2), 0.5);
  EXPECT_DOUBLE_EQ(h.DistinctLeq(2), 2.0);
}

TEST(Histogram, SkewedColumnKeepsItsHeavyHitterVisible) {
  // One value holds 90 of 100 rows: expected frequency must reflect that
  // a random row's value matches ~81 rows, not the uniform 100/11.
  std::vector<core::Value> values(90, 42);
  for (core::Value v = 0; v < 10; ++v) values.push_back(100 + v);
  std::sort(values.begin(), values.end());
  const Histogram h = BuildHistogram(values, 8);
  EXPECT_GT(h.ExpectedFrequency(), 70.0);
  // Uniform over the same count/distinct shape would be 100/11 ≈ 9.
  EXPECT_LT(h.ExpectedFrequency(), 90.0 + 1.0);
  EXPECT_DOUBLE_EQ(h.SelectivityLeq(42), 0.9);
}

TEST(Histogram, ExtremeValueBucketsDoNotOverflow) {
  constexpr core::Value kMin = std::numeric_limits<core::Value>::min();
  constexpr core::Value kMax = std::numeric_limits<core::Value>::max();
  const Histogram h = BuildHistogram({kMin, -1, 0, 1, kMax}, 2);
  ASSERT_GE(h.buckets(), 1u);
  EXPECT_EQ(h.total, 5u);
  EXPECT_DOUBLE_EQ(h.SelectivityLeq(kMax), 1.0);
  EXPECT_GE(h.SelectivityLeq(0), 0.0);
  EXPECT_LE(h.SelectivityLeq(0), 1.0);
  EXPECT_GT(h.ExpectedFrequency(), 0.0);
}

TEST(RelationStats, GroupSizeHistogramTracksTheDistribution) {
  // Groups of sizes 1, 1, 1, 5: min/avg/max alone cannot distinguish
  // this from {2, 2, 2, 2}; the size histogram can.
  const auto r = MakeRel(2, {{1, 10}, {2, 10}, {3, 10},
                             {4, 1}, {4, 2}, {4, 3}, {4, 4}, {4, 5}});
  const RelationStats stats = ComputeRelationStats(r);
  const Histogram& sizes = stats.groups.size_histogram;
  ASSERT_FALSE(sizes.empty());
  EXPECT_EQ(sizes.total, 4u);  // One sample per group.
  EXPECT_DOUBLE_EQ(sizes.SelectivityLeq(1), 0.75);
  EXPECT_DOUBLE_EQ(sizes.SelectivityLeq(5), 1.0);
}

// ---------------------------------------------------------------------------
// Database mutation counters and the caching provider.
// ---------------------------------------------------------------------------

TEST(DatabaseVersions, SetRelationAndMutableAccessBumpTheCounter) {
  auto db = setalg::testing::DivisionDb(MakeRel(2, {{1, 2}}), MakeRel(1, {{2}}));
  const auto r0 = db.relation_version("R");
  const auto s0 = db.relation_version("S");
  db.SetRelation("R", MakeRel(2, {{3, 4}}));
  EXPECT_GT(db.relation_version("R"), r0);
  EXPECT_EQ(db.relation_version("S"), s0);
  db.mutable_relation("S")->Add({7});
  EXPECT_GT(db.relation_version("S"), s0);
}

TEST(DatabaseVersions, CopiesGetAFreshIdAndDivergeIndependently) {
  auto db = setalg::testing::DivisionDb(MakeRel(2, {{1, 2}}), MakeRel(1, {{2}}));
  const core::Database copy = db;
  EXPECT_NE(db.id(), copy.id());
  EXPECT_EQ(db.relation("R"), copy.relation("R"));
}

TEST(DatabaseStats, CachesUntilInvalidatedByMutation) {
  auto db = setalg::testing::DivisionDb(MakeRel(2, {{1, 10}, {1, 20}, {2, 10}}),
                                        MakeRel(1, {{10}}));
  DatabaseStats provider(&db);
  const RelationStats* r1 = provider.Get("R");
  ASSERT_NE(r1, nullptr);
  EXPECT_EQ(r1->cardinality, 3u);
  EXPECT_EQ(provider.recompute_count(), 1u);

  // Unchanged relation: served from cache.
  provider.Get("R");
  provider.Get("R");
  EXPECT_EQ(provider.recompute_count(), 1u);

  // Another relation: one more computation, then cached.
  ASSERT_NE(provider.Get("S"), nullptr);
  provider.Get("S");
  EXPECT_EQ(provider.recompute_count(), 2u);

  // Mutation invalidates exactly the touched relation.
  db.SetRelation("R", MakeRel(2, {{5, 50}}));
  const RelationStats* r2 = provider.Get("R");
  EXPECT_EQ(provider.recompute_count(), 3u);
  EXPECT_EQ(r2->cardinality, 1u);
  provider.Get("S");
  EXPECT_EQ(provider.recompute_count(), 3u);

  // In-place mutation via mutable_relation invalidates too.
  db.mutable_relation("R")->Add({6, 60});
  EXPECT_EQ(provider.Get("R")->cardinality, 2u);
  EXPECT_EQ(provider.recompute_count(), 4u);
}

// ---------------------------------------------------------------------------
// Version vectors — the plan cache's invalidation snapshot.
// ---------------------------------------------------------------------------

TEST(VersionVector, SnapshotSortsDeduplicatesAndTracksMutations) {
  auto db = setalg::testing::DivisionDb(MakeRel(2, {{1, 2}}), MakeRel(1, {{2}}));
  const VersionVector versions = SnapshotVersions(db, {"S", "R", "S"});
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_EQ(versions[0].first, "R");
  EXPECT_EQ(versions[1].first, "S");
  EXPECT_TRUE(VersionsMatch(db, versions));

  // Mutating any snapshotted relation breaks the match...
  db.mutable_relation("S")->Add({7});
  EXPECT_FALSE(VersionsMatch(db, versions));

  // ...and a fresh snapshot matches again.
  EXPECT_TRUE(VersionsMatch(db, SnapshotVersions(db, {"R", "S"})));
}

TEST(VersionVector, MutationOutsideTheSnapshotDoesNotInvalidate) {
  auto db = setalg::testing::DivisionDb(MakeRel(2, {{1, 2}}), MakeRel(1, {{2}}));
  const VersionVector r_only = SnapshotVersions(db, {"R"});
  db.mutable_relation("S")->Add({9});
  EXPECT_TRUE(VersionsMatch(db, r_only))
      << "a plan that only reads R must survive mutations of S";
}

TEST(VersionVector, CollidingNamesOnDifferentDatabasesAreIndependent) {
  // Two databases, same relation names, independent mutation counters:
  // a version vector snapshotted from one database says nothing about
  // the other — which is why every plan-cache key also carries the
  // database's process-unique id.
  auto db1 = setalg::testing::DivisionDb(MakeRel(2, {{1, 2}}), MakeRel(1, {{2}}));
  core::Database db2 = db1;
  ASSERT_NE(db1.id(), db2.id());

  const VersionVector from_db1 = SnapshotVersions(db1, {"R", "S"});
  // The copy starts with identical counters, so the raw vector *would*
  // match db2 — stale data under a colliding name. Mutating db2 shows
  // the counters diverge independently while db1's snapshot stays valid.
  db2.SetRelation("R", MakeRel(2, {{5, 6}}));
  EXPECT_TRUE(VersionsMatch(db1, from_db1));
  EXPECT_FALSE(VersionsMatch(db2, from_db1));
  EXPECT_GT(db2.relation_version("R"), db1.relation_version("R"));
}

TEST(VersionVector, NamesOutsideTheSchemaSnapshotAsZero) {
  const auto db =
      setalg::testing::DivisionDb(MakeRel(2, {{1, 2}}), MakeRel(1, {{2}}));
  const VersionVector versions = SnapshotVersions(db, {"Missing"});
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0].second, 0u);
  EXPECT_TRUE(VersionsMatch(db, versions));
}

TEST(DatabaseStats, UnknownRelationIsNullNotAnAbort) {
  auto db = setalg::testing::DivisionDb(MakeRel(2, {{1, 2}}), MakeRel(1, {{2}}));
  DatabaseStats provider(&db);
  EXPECT_EQ(provider.Get("Missing"), nullptr);
}

}  // namespace
}  // namespace setalg::stats
