#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "core/csv.h"
#include "core/database.h"
#include "core/index.h"
#include "core/name_map.h"
#include "core/relation.h"
#include "core/schema.h"
#include "core/tuple.h"
#include "test_util.h"
#include "util/rng.h"
#include "witness/figures.h"

namespace setalg::core {
namespace {

using setalg::testing::MakeRel;

// ---------------------------------------------------------------------------
// Tuples.
// ---------------------------------------------------------------------------

TEST(Tuple, CompareLexicographic) {
  Tuple a = {1, 2}, b = {1, 3}, c = {1, 2};
  EXPECT_LT(CompareTuples(a, b), 0);
  EXPECT_GT(CompareTuples(b, a), 0);
  EXPECT_EQ(CompareTuples(a, c), 0);
}

TEST(Tuple, ComparePrefixOrdersFirst) {
  Tuple shorter = {1, 2}, longer = {1, 2, 0};
  EXPECT_LT(CompareTuples(shorter, longer), 0);
}

TEST(Tuple, EqualsChecksLengthAndContent) {
  EXPECT_TRUE(TupleEquals(Tuple{1, 2}, Tuple{1, 2}));
  EXPECT_FALSE(TupleEquals(Tuple{1, 2}, Tuple{1, 2, 3}));
  EXPECT_FALSE(TupleEquals(Tuple{1, 2}, Tuple{2, 1}));
}

TEST(Tuple, HashDiffersForPermutations) {
  EXPECT_NE(HashTuple(Tuple{1, 2}), HashTuple(Tuple{2, 1}));
  EXPECT_NE(HashTuple(Tuple{1}), HashTuple(Tuple{1, 1}));
}

TEST(Tuple, ValueSetSortsAndDedupes) {
  EXPECT_EQ(TupleValueSet(Tuple{3, 1, 3, 2}), (std::vector<Value>{1, 2, 3}));
  EXPECT_TRUE(TupleValueSet(Tuple{}).empty());
}

TEST(Tuple, ToStringFormat) {
  EXPECT_EQ(TupleToString(Tuple{1, 2, 3}), "(1, 2, 3)");
  EXPECT_EQ(TupleToString(Tuple{}), "()");
}

// ---------------------------------------------------------------------------
// Relations.
// ---------------------------------------------------------------------------

TEST(Relation, SetSemanticsDeduplicate) {
  Relation r(2);
  r.Add({1, 2});
  r.Add({1, 2});
  r.Add({3, 4});
  EXPECT_EQ(r.size(), 2u);
}

TEST(Relation, TuplesComeOutSorted) {
  Relation r(2);
  r.Add({3, 4});
  r.Add({1, 2});
  r.Add({1, 1});
  EXPECT_TRUE(TupleEquals(r.tuple(0), Tuple{1, 1}));
  EXPECT_TRUE(TupleEquals(r.tuple(1), Tuple{1, 2}));
  EXPECT_TRUE(TupleEquals(r.tuple(2), Tuple{3, 4}));
}

TEST(Relation, ContainsBinarySearches) {
  Relation r = MakeRel(2, {{1, 2}, {3, 4}, {5, 6}});
  EXPECT_TRUE(r.Contains(Tuple{3, 4}));
  EXPECT_FALSE(r.Contains(Tuple{3, 5}));
  EXPECT_FALSE(r.Contains(Tuple{0, 0}));
}

TEST(Relation, AddAfterReadRenormalizes) {
  Relation r = MakeRel(2, {{1, 2}});
  EXPECT_EQ(r.size(), 1u);
  r.Add({0, 0});
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(TupleEquals(r.tuple(0), Tuple{0, 0}));
}

TEST(Relation, ArityZeroActsAsBoolean) {
  Relation empty(0);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_FALSE(empty.Contains(Tuple{}));
  Relation full(0);
  full.Add(Tuple{});
  full.Add(Tuple{});
  EXPECT_EQ(full.size(), 1u);
  EXPECT_TRUE(full.Contains(Tuple{}));
}

TEST(Relation, ActiveDomainSortedUnique) {
  Relation r = MakeRel(2, {{5, 1}, {1, 3}});
  EXPECT_EQ(r.ActiveDomain(), (std::vector<Value>{1, 3, 5}));
}

TEST(Relation, EqualityIgnoresInsertionOrder) {
  Relation a(2), b(2);
  a.Add({1, 2});
  a.Add({3, 4});
  b.Add({3, 4});
  b.Add({1, 2});
  b.Add({1, 2});
  EXPECT_EQ(a, b);
  b.Add({9, 9});
  EXPECT_NE(a, b);
}

TEST(Relation, UnionDifferenceIntersect) {
  Relation a = MakeRel(1, {{1}, {2}, {3}});
  Relation b = MakeRel(1, {{2}, {4}});
  EXPECT_EQ(Union(a, b), MakeRel(1, {{1}, {2}, {3}, {4}}));
  EXPECT_EQ(Difference(a, b), MakeRel(1, {{1}, {3}}));
  EXPECT_EQ(Intersect(a, b), MakeRel(1, {{2}}));
}

TEST(Relation, SetOpsWithEmpty) {
  Relation a = MakeRel(1, {{1}});
  Relation empty(1);
  EXPECT_EQ(Union(a, empty), a);
  EXPECT_EQ(Difference(a, empty), a);
  EXPECT_EQ(Difference(empty, a), empty);
  EXPECT_EQ(Intersect(a, empty), empty);
}

TEST(Relation, FlatLayoutIsRowMajorSorted) {
  Relation r = MakeRel(2, {{3, 4}, {1, 2}});
  EXPECT_EQ(r.flat(), (std::vector<Value>{1, 2, 3, 4}));
}

TEST(Relation, ToStringListsTuples) {
  EXPECT_EQ(MakeRel(1, {{2}, {1}}).ToString(), "{(1), (2)}");
}

// Adds `rows` in the given order and checks the normalized storage
// against a std::set of the same rows.
void ExpectNormalizesLikeSet(std::size_t arity, const std::vector<Tuple>& rows,
                             const std::string& what) {
  Relation r(arity);
  for (const auto& row : rows) r.Add(row);
  const std::set<Tuple> oracle(rows.begin(), rows.end());
  std::vector<Value> want;
  for (const auto& row : oracle) want.insert(want.end(), row.begin(), row.end());
  EXPECT_EQ(r.size(), oracle.size()) << what;
  EXPECT_EQ(r.flat(), want) << what;
}

// Normalization sorts only what follows the longest sorted prefix and
// merges it in. The tails below repeat prefix rows, repeat themselves,
// and land before, inside and after the prefix.
TEST(Relation, NormalizeMatchesSetOracle) {
  util::Rng rng(404);
  for (std::size_t arity = 1; arity <= 4; ++arity) {
    auto row = [&](Value lo, Value hi) {
      Tuple t(arity);
      for (auto& v : t) v = rng.NextInt(lo, hi);
      return t;
    };
    const std::string at = " at arity " + std::to_string(arity);
    ExpectNormalizesLikeSet(arity, {}, "empty" + at);
    for (int trial = 0; trial < 30; ++trial) {
      std::set<Tuple> distinct;
      const std::size_t prefix_rows = 1 + rng.NextBounded(40);
      for (std::size_t i = 0; i < prefix_rows; ++i) distinct.insert(row(10, 14));
      const std::vector<Tuple> prefix(distinct.begin(), distinct.end());
      std::vector<Tuple> tail;
      for (int i = 0; i < 3; ++i) {
        tail.push_back(prefix[rng.NextBounded(prefix.size())]);
      }
      const Tuple twice = row(10, 14);
      tail.push_back(twice);
      tail.push_back(twice);
      tail.push_back(row(0, 5));    // Before the prefix.
      tail.push_back(row(10, 14));  // Inside its range.
      tail.push_back(row(20, 25));  // After it.
      tail.push_back(prefix.back());
      const std::size_t keep = 1 + rng.NextBounded(tail.size());
      tail.resize(keep);
      rng.Shuffle(&tail);

      std::vector<Tuple> edited = prefix;
      edited.insert(edited.end(), tail.begin(), tail.end());
      const std::string case_name = "trial " + std::to_string(trial) + at;
      ExpectNormalizesLikeSet(arity, prefix, "sorted " + case_name);
      ExpectNormalizesLikeSet(arity, edited, "prefix+tail " + case_name);
      rng.Shuffle(&edited);
      ExpectNormalizesLikeSet(arity, edited, "unsorted " + case_name);
      // A duplicate of the last row ends the prefix.
      std::vector<Tuple> repeated = prefix;
      repeated.push_back(prefix.back());
      ExpectNormalizesLikeSet(arity, repeated, "repeated last " + case_name);
    }
  }
}

// The same oracle at sizes where the sort itself does the work: up to
// 3000 rows over small domains, so most rows repeat, with the extreme
// values mixed in; sorted, edited (a sorted prefix plus a shuffled tail),
// shuffled and reversed, at arities 1-4.
TEST(Relation, NormalizeMatchesSetOracleAtScale) {
  util::Rng rng(1905);
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();
  for (std::size_t arity = 1; arity <= 4; ++arity) {
    for (int trial = 0; trial < 12; ++trial) {
      const Value domain = 1 + static_cast<Value>(rng.NextBounded(trial % 2 ? 8 : 300));
      const std::size_t count = 1 + rng.NextBounded(3000);
      std::vector<Tuple> rows;
      rows.reserve(count);
      for (std::size_t i = 0; i < count; ++i) {
        Tuple t(arity);
        for (auto& v : t) {
          const std::uint64_t pick = rng.NextBounded(50);
          v = pick == 0 ? kMin : pick == 1 ? kMax : rng.NextInt(-domain, domain);
        }
        rows.push_back(std::move(t));
      }
      const std::string at =
          " trial " + std::to_string(trial) + " at arity " + std::to_string(arity);
      ExpectNormalizesLikeSet(arity, rows, "shuffled" + at);

      std::vector<Tuple> sorted = rows;
      std::sort(sorted.begin(), sorted.end());
      sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
      ExpectNormalizesLikeSet(arity, sorted, "sorted" + at);

      std::vector<Tuple> edited(sorted.begin(), sorted.begin() + sorted.size() / 2);
      std::vector<Tuple> tail(rows.begin(), rows.begin() + rows.size() / 3);
      rng.Shuffle(&tail);
      edited.insert(edited.end(), tail.begin(), tail.end());
      ExpectNormalizesLikeSet(arity, edited, "edited" + at);

      std::vector<Tuple> reversed(sorted.rbegin(), sorted.rend());
      reversed.insert(reversed.end(), sorted.begin(), sorted.begin() + sorted.size() / 4);
      ExpectNormalizesLikeSet(arity, reversed, "reversed" + at);
    }
  }
}

// ---------------------------------------------------------------------------
// Schema and database.
// ---------------------------------------------------------------------------

TEST(Schema, TracksNamesAndArities) {
  Schema s;
  s.AddRelation("R", 2);
  s.AddRelation("S", 1);
  EXPECT_TRUE(s.HasRelation("R"));
  EXPECT_FALSE(s.HasRelation("T"));
  EXPECT_EQ(s.Arity("S"), 1u);
  EXPECT_EQ(s.NumRelations(), 2u);
  EXPECT_EQ(s.ToString(), "{R/2, S/1}");
}

TEST(Database, SizeIsSumOfCardinalities) {
  auto db = setalg::testing::DivisionDb(MakeRel(2, {{1, 2}, {3, 4}}),
                                        MakeRel(1, {{2}}));
  EXPECT_EQ(db.size(), 3u);
}

TEST(Database, ActiveDomainAcrossRelations) {
  auto db = setalg::testing::DivisionDb(MakeRel(2, {{1, 5}}), MakeRel(1, {{7}}));
  EXPECT_EQ(db.ActiveDomain(), (std::vector<Value>{1, 5, 7}));
}

TEST(Database, TupleSpaceDeduplicatesAcrossRelations) {
  Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("T", 2);
  Database db(schema);
  db.mutable_relation("R")->Add({1, 2});
  db.mutable_relation("T")->Add({1, 2});
  db.mutable_relation("T")->Add({3, 4});
  EXPECT_EQ(db.TupleSpace().size(), 2u);
}

TEST(Database, GuardedSetsAreValueSets) {
  auto db = setalg::testing::DivisionDb(MakeRel(2, {{1, 1}, {1, 2}}),
                                        MakeRel(1, {{9}}));
  const auto sets = db.GuardedSets();
  // {1}, {1,2}, {9}.
  ASSERT_EQ(sets.size(), 3u);
  EXPECT_EQ(sets[0], (std::vector<Value>{1}));
  EXPECT_EQ(sets[1], (std::vector<Value>{1, 2}));
  EXPECT_EQ(sets[2], (std::vector<Value>{9}));
}

// Example 5 of the paper, on the Fig. 2 database (a..g = 1..7).
TEST(Database, CStoredTuplesMatchExample5) {
  const Database db = witness::MakeFig2Database();
  const ConstantSet c = {1};  // C = {a}.
  EXPECT_TRUE(db.IsCStored(Tuple{2, 3}, c));     // (b,c) via π_{2,3}(R).
  EXPECT_TRUE(db.IsCStored(Tuple{1, 6}, c));     // (a,f): reduced (f) ∈ π₁(T).
  EXPECT_FALSE(db.IsCStored(Tuple{5, 3}, c));    // (e,c) not C-stored.
  EXPECT_FALSE(db.IsCStored(Tuple{7}, c));       // (g) not C-stored.
}

TEST(Database, EmptyReducedTupleCStoredIffNonempty) {
  Schema schema;
  schema.AddRelation("R", 1);
  Database db(schema);
  const ConstantSet c = {5};
  EXPECT_FALSE(db.IsCStored(Tuple{5, 5}, c));  // All relations empty.
  db.mutable_relation("R")->Add({1});
  EXPECT_TRUE(db.IsCStored(Tuple{5, 5}, c));
}

TEST(Database, EqualityComparesAllRelations) {
  auto a = setalg::testing::DivisionDb(MakeRel(2, {{1, 2}}), MakeRel(1, {{2}}));
  auto b = setalg::testing::DivisionDb(MakeRel(2, {{1, 2}}), MakeRel(1, {{2}}));
  EXPECT_TRUE(a == b);
  b.mutable_relation("S")->Add({3});
  EXPECT_FALSE(a == b);
}

// ---------------------------------------------------------------------------
// NameMap.
// ---------------------------------------------------------------------------

TEST(NameMap, InternSortedAssignsLexicographicCodes) {
  NameMap names;
  names.InternSorted({"cherry", "apple", "banana"}, 10);
  EXPECT_EQ(names.Code("apple"), 10);
  EXPECT_EQ(names.Code("banana"), 11);
  EXPECT_EQ(names.Code("cherry"), 12);
  // Code order equals lexicographic order.
  EXPECT_LT(names.Code("apple"), names.Code("banana"));
}

TEST(NameMap, InternSortedDeduplicates) {
  NameMap names;
  names.InternSorted({"x", "x", "y"});
  EXPECT_EQ(names.size(), 2u);
}

TEST(NameMap, IncrementalInternReturnsStableCodes) {
  NameMap names;
  const Value a = names.Intern("a");
  const Value b = names.Intern("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(names.Intern("a"), a);
}

TEST(NameMap, InternCountsUpThroughTheReservedCodeRange) {
  NameMap names;
  EXPECT_EQ(names.Intern("a"), kFirstNameCode);
  EXPECT_EQ(names.Intern("b"), kFirstNameCode + 1);
  EXPECT_TRUE(IsNameCode(kFirstNameCode));
  EXPECT_TRUE(IsNameCode(kFirstNameCode + static_cast<Value>(kNameCodeCount - 1)));
  EXPECT_FALSE(IsNameCode(kFirstNameCode + static_cast<Value>(kNameCodeCount)));
  EXPECT_FALSE(IsNameCode(0));
  EXPECT_FALSE(IsNameCode(std::numeric_limits<Value>::max()));
}

TEST(NameMap, NameFallsBackToNumber) {
  NameMap names;
  names.Intern("x");
  EXPECT_EQ(names.Name(names.Code("x")), "x");
  EXPECT_EQ(names.Name(999), "999");
}

// ---------------------------------------------------------------------------
// Indexes.
// ---------------------------------------------------------------------------

TEST(HashIndex, FindsAllMatches) {
  Relation r = MakeRel(2, {{1, 2}, {1, 3}, {2, 2}});
  HashIndex index(&r, {0});
  std::size_t count = 0;
  index.ForEachMatch(Tuple{1}, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 2u);
  EXPECT_TRUE(index.HasMatch(Tuple{2}));
  EXPECT_FALSE(index.HasMatch(Tuple{3}));
  EXPECT_EQ(index.CountMatches(Tuple{1}), 2u);
}

TEST(HashIndex, CompositeKey) {
  Relation r = MakeRel(2, {{1, 2}, {1, 3}});
  HashIndex index(&r, {0, 1});
  EXPECT_TRUE(index.HasMatch(Tuple{1, 2}));
  EXPECT_FALSE(index.HasMatch(Tuple{2, 1}));
}

TEST(SortedIndex, RangeScans) {
  Relation r = MakeRel(2, {{1, 10}, {2, 20}, {3, 30}});
  SortedIndex index(&r, 1);
  std::vector<std::size_t> less;
  index.ForEachLess(25, [&](std::size_t row) { less.push_back(row); });
  EXPECT_EQ(less.size(), 2u);
  std::vector<std::size_t> greater;
  index.ForEachGreater(15, [&](std::size_t row) { greater.push_back(row); });
  EXPECT_EQ(greater.size(), 2u);
  Value v = 0;
  EXPECT_TRUE(index.MinValue(&v));
  EXPECT_EQ(v, 10);
  EXPECT_TRUE(index.MaxValue(&v));
  EXPECT_EQ(v, 30);
}

TEST(SortedIndex, EmptyRelation) {
  Relation r(2);
  SortedIndex index(&r, 0);
  Value v = 0;
  EXPECT_FALSE(index.MinValue(&v));
  EXPECT_FALSE(index.MaxValue(&v));
}

// ---------------------------------------------------------------------------
// CSV.
// ---------------------------------------------------------------------------

TEST(Csv, RoundTripsIntegers) {
  Relation r = MakeRel(2, {{1, 2}, {3, 4}});
  const std::string text = WriteRelationCsv(r, nullptr);
  auto parsed = ReadRelationCsv(text, nullptr);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, r);
}

TEST(Csv, SkipsEmptyLinesAndTrimsFields) {
  auto parsed = ReadRelationCsv("1 , 2\n\n 3,4 \n", nullptr);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, MakeRel(2, {{1, 2}, {3, 4}}));
}

TEST(Csv, RejectsRaggedRows) {
  auto parsed = ReadRelationCsv("1,2\n3\n", nullptr);
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().find("expected 2 fields"), std::string::npos);
}

TEST(Csv, RejectsNonIntegerWithoutNameMap) {
  auto parsed = ReadRelationCsv("1,alice\n", nullptr);
  EXPECT_FALSE(parsed.ok());
}

TEST(Csv, InternsStringsWithNameMap) {
  NameMap names;
  auto parsed = ReadRelationCsv("alice,red\nbob,blue\n", &names);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 2u);
  EXPECT_TRUE(names.Has("alice"));
  EXPECT_TRUE(names.Has("bob"));
  // Writing back with the map restores the names.
  const std::string text = WriteRelationCsv(*parsed, &names);
  EXPECT_NE(text.find("alice,red"), std::string::npos);
  EXPECT_NE(text.find("bob,blue"), std::string::npos);
}

// A file mixing names and small integers reads back byte for byte: the
// names' codes never coincide with the integers beside them. Files of
// integers alone read and write as they always did.
TEST(Csv, NamesAndIntegersRoundTripDistinctly) {
  NameMap names;
  const std::string mixed = "0,alice\n1,bob\n7,carol\n";
  auto parsed = ReadRelationCsv(mixed, &names);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(WriteRelationCsv(*parsed, &names), mixed);
  const std::string integers =
      "-5,3\n0,0\n1,-9223372032559808512\n9223372036854775807,2\n";
  for (NameMap* map : {static_cast<NameMap*>(nullptr), &names}) {
    auto read = ReadRelationCsv(integers, map);
    ASSERT_TRUE(read.ok()) << read.error();
    EXPECT_EQ(WriteRelationCsv(*read, map), integers);
  }
}

// Through one shared name map, file A's integer 0 and file B's name
// "alice" are different values, so joining A and B on their only column
// (their intersection) finds nothing.
TEST(Csv, NamesNeverJoinIntegersAcrossFiles) {
  NameMap names;
  auto a = ReadRelationCsv("0\n1\n2\n", &names);
  auto b = ReadRelationCsv("alice\nbob\n", &names);
  ASSERT_TRUE(a.ok()) << a.error();
  ASSERT_TRUE(b.ok()) << b.error();
  EXPECT_TRUE(Intersect(*a, *b).empty()) << Intersect(*a, *b).ToString();
}

// With a name map, an integer inside the name-code range (the lowest 2^32
// values of int64) is rejected with its line number; the first value
// above the range is accepted, and so is any integer without a map.
TEST(Csv, RejectsIntegersInTheNameCodeRange) {
  NameMap names;
  auto parsed = ReadRelationCsv("1,2\n3,-9223372036854775808\n", &names);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().find("line 2"), std::string::npos) << parsed.error();
  EXPECT_FALSE(ReadRelationCsv("-9223372032559808513\n", &names).ok());
  EXPECT_TRUE(ReadRelationCsv("-9223372032559808512\n", &names).ok());
  EXPECT_TRUE(ReadRelationCsv("-9223372036854775808\n", nullptr).ok());
}

/// The CSV writer as it was before it wrote with std::to_chars: one
/// std::to_string or NameMap::Name string per value. The wire format is
/// defined by this text.
std::string ToStringCsvOracle(const Relation& relation, const NameMap* names) {
  std::string out;
  for (std::size_t i = 0; i < relation.size(); ++i) {
    TupleView t = relation.tuple(i);
    for (std::size_t j = 0; j < t.size(); ++j) {
      if (j > 0) out += ",";
      out += names != nullptr ? names->Name(t[j]) : std::to_string(t[j]);
    }
    out += "\n";
  }
  return out;
}

TEST(Csv, WriteMatchesToStringOracle) {
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();
  const std::vector<Value> edges = {kMin, kMin + 1, -1, 0, 9, 10, 99, 100, kMax};
  // Codes -2..2 are interned (one name longer than the writer's stack
  // block); every other value is never interned.
  NameMap names;
  names.InternSorted({"a", "bob", "carol,with comma", std::string(5000, 'z'), "e"},
                     -2);
  const NameMap empty_names;
  util::Rng rng(20260518);
  const auto draw = [&]() -> Value {
    switch (rng.NextBounded(4)) {
      case 0: return edges[rng.NextBounded(edges.size())];
      case 1: return static_cast<Value>(rng.Next());
      case 2: return static_cast<Value>(rng.NextBounded(2000)) - 1000;
      default: return static_cast<Value>(rng.NextBounded(5)) - 2;
    }
  };
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t arity = static_cast<std::size_t>(trial % 7);
    Relation relation(arity);
    if (arity == 0) {
      if (trial % 2 == 0) relation.Add(Tuple{});
    } else {
      const std::size_t rows = rng.NextBounded(400);
      Tuple row(arity);
      for (std::size_t i = 0; i < rows; ++i) {
        for (auto& value : row) value = draw();
        relation.Add(row);
      }
      // Every edge value at least once, in every column.
      for (const Value value : edges) {
        std::fill(row.begin(), row.end(), value);
        relation.Add(row);
      }
    }
    for (const NameMap* map : {static_cast<const NameMap*>(nullptr), &empty_names,
                               static_cast<const NameMap*>(&names)}) {
      const std::string expected = ToStringCsvOracle(relation, map);
      ASSERT_EQ(WriteRelationCsv(relation, map), expected)
          << "arity " << arity << " rows " << relation.size();
      // Row ranges appended one after another give the same text.
      std::string appended = "prefix";
      std::size_t row = 0;
      while (row < relation.size()) {
        const std::size_t stop =
            std::min(relation.size(), row + rng.NextBounded(70));
        AppendRelationCsv(relation, row, stop, map, &appended);
        row = stop;
      }
      ASSERT_EQ(appended, "prefix" + expected)
          << "arity " << arity << " rows " << relation.size();
    }
  }
}

TEST(Csv, EmptyInputIsError) {
  auto parsed = ReadRelationCsv("\n\n", nullptr);
  EXPECT_FALSE(parsed.ok());
}

}  // namespace
}  // namespace setalg::core
