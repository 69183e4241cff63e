// Shared helpers for the test suites.
#ifndef SETALG_TESTS_TEST_UTIL_H_
#define SETALG_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/database.h"
#include "core/relation.h"
#include "ra/expr.h"
#include "stats/stats.h"
#include "util/rng.h"

namespace setalg::testing {

/// Shorthand relation builder.
inline core::Relation MakeRel(
    std::size_t arity, std::initializer_list<std::initializer_list<core::Value>> rows) {
  return core::Relation::FromRows(arity, rows);
}

/// Adds the group (key, first), (key, first + 1), ..., `count` rows in
/// all, to a binary relation — how tests size an input in rows, e.g. from
/// engine::kMinPartitionRows.
inline void AddGroup(core::Relation* r, core::Value key, core::Value first,
                     std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    r->Add({key, first + static_cast<core::Value>(i)});
  }
}

/// A database over {R/2, S/1} (the division schema).
inline core::Database DivisionDb(const core::Relation& r, const core::Relation& s) {
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 1);
  core::Database db(schema);
  db.SetRelation("R", r);
  db.SetRelation("S", s);
  return db;
}

/// Random database over an arbitrary schema: each relation gets `rows`
/// uniform tuples over values 1..domain.
inline core::Database RandomDatabase(const core::Schema& schema, std::size_t rows,
                                     std::size_t domain, std::uint64_t seed) {
  util::Rng rng(seed);
  core::Database db(schema);
  for (const auto& name : schema.Names()) {
    const std::size_t arity = schema.Arity(name);
    core::Relation r(arity);
    core::Tuple t(arity);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t p = 0; p < arity; ++p) {
        t[p] = static_cast<core::Value>(rng.NextBounded(domain) + 1);
      }
      r.Add(t);
    }
    db.SetRelation(name, std::move(r));
  }
  return db;
}

/// Generates a random SA= expression of the given target arity over a
/// schema of binary/unary relations. Used for the Corollary 14 and
/// Theorem 8 property tests. Depth-bounded; constants drawn from
/// `constants` (may be empty).
class RandomSaEqGenerator {
 public:
  RandomSaEqGenerator(const core::Schema& schema, std::vector<core::Value> constants,
                      std::uint64_t seed)
      : schema_(schema), constants_(std::move(constants)), rng_(seed) {}

  ra::ExprPtr Generate(std::size_t arity, std::size_t depth) {
    ra::ExprPtr e = GenerateAnyArity(depth);
    // Coerce to the requested arity by projection (with repetition when
    // the expression is too narrow).
    std::vector<std::size_t> columns(arity);
    for (std::size_t i = 0; i < arity; ++i) {
      columns[i] = e->arity() == 0 ? 0 : rng_.NextBounded(e->arity()) + 1;
    }
    if (e->arity() == 0) {
      // Tag constants to produce columns.
      for (std::size_t i = 0; i < arity; ++i) {
        e = ra::Tag(e, constants_.empty() ? 1 : constants_[0]);
        columns[i] = i + 1;
      }
    }
    return ra::Project(e, columns);
  }

 private:
  ra::ExprPtr GenerateAnyArity(std::size_t depth) {
    if (depth == 0) return RandomLeaf();
    switch (rng_.NextBounded(8)) {
      case 0: {
        ra::ExprPtr left = GenerateAnyArity(depth - 1);
        ra::ExprPtr right = CoerceArity(GenerateAnyArity(depth - 1), left->arity());
        return ra::Union(left, right);
      }
      case 1: {
        ra::ExprPtr left = GenerateAnyArity(depth - 1);
        ra::ExprPtr right = CoerceArity(GenerateAnyArity(depth - 1), left->arity());
        return ra::Diff(left, right);
      }
      case 2: {
        ra::ExprPtr input = GenerateAnyArity(depth - 1);
        if (input->arity() == 0) return input;
        std::vector<std::size_t> columns(rng_.NextBounded(input->arity()) + 1);
        for (auto& c : columns) c = rng_.NextBounded(input->arity()) + 1;
        return ra::Project(input, columns);
      }
      case 3: {
        ra::ExprPtr input = GenerateAnyArity(depth - 1);
        if (input->arity() < 2) return input;
        const std::size_t i = rng_.NextBounded(input->arity()) + 1;
        const std::size_t j = rng_.NextBounded(input->arity()) + 1;
        return rng_.NextBool() ? ra::SelectEq(input, i, j)
                               : ra::SelectLt(input, i, j);
      }
      case 4: {
        ra::ExprPtr input = GenerateAnyArity(depth - 1);
        if (constants_.empty()) return input;
        return ra::Tag(input,
                       constants_[rng_.NextBounded(constants_.size())]);
      }
      case 5:
      case 6: {
        ra::ExprPtr left = GenerateAnyArity(depth - 1);
        ra::ExprPtr right = GenerateAnyArity(depth - 1);
        if (left->arity() == 0 || right->arity() == 0) {
          return ra::SemiJoin(left, right, {});
        }
        std::vector<ra::JoinAtom> atoms;
        const std::size_t count = rng_.NextBounded(2) + 1;
        for (std::size_t k = 0; k < count; ++k) {
          atoms.push_back({rng_.NextBounded(left->arity()) + 1, ra::Cmp::kEq,
                           rng_.NextBounded(right->arity()) + 1});
        }
        return ra::SemiJoin(left, right, atoms);
      }
      default:
        return RandomLeaf();
    }
  }

  ra::ExprPtr CoerceArity(ra::ExprPtr e, std::size_t arity) {
    if (e->arity() == arity) return e;
    while (e->arity() < arity) {
      e = ra::Tag(e, constants_.empty() ? 1 : constants_[0]);
    }
    std::vector<std::size_t> columns(arity);
    for (std::size_t i = 0; i < arity; ++i) columns[i] = i + 1;
    return ra::Project(e, columns);
  }

  ra::ExprPtr RandomLeaf() {
    const auto& names = schema_.Names();
    const auto& name = names[rng_.NextBounded(names.size())];
    return ra::Rel(name, schema_.Arity(name));
  }

  const core::Schema& schema_;
  std::vector<core::Value> constants_;
  util::Rng rng_;
};

/// Field-by-field equality of two histograms.
inline void ExpectSameHistogram(const stats::Histogram& got, const stats::Histogram& want,
                                const std::string& context) {
  EXPECT_EQ(got.total, want.total) << context;
  EXPECT_EQ(got.min_value, want.min_value) << context;
  EXPECT_EQ(got.upper, want.upper) << context;
  EXPECT_EQ(got.counts, want.counts) << context;
  EXPECT_EQ(got.distincts, want.distincts) << context;
}

/// Field-by-field equality of two relations' statistics.
inline void ExpectSameRelationStats(const stats::RelationStats& got,
                                    const stats::RelationStats& want,
                                    const std::string& context = "") {
  EXPECT_EQ(got.cardinality, want.cardinality) << context;
  EXPECT_EQ(got.arity, want.arity) << context;
  ASSERT_EQ(got.columns.size(), want.columns.size()) << context;
  for (std::size_t c = 0; c < got.columns.size(); ++c) {
    const std::string column = context + " col " + std::to_string(c);
    EXPECT_EQ(got.columns[c].distinct, want.columns[c].distinct) << column;
    EXPECT_EQ(got.columns[c].min_value, want.columns[c].min_value) << column;
    EXPECT_EQ(got.columns[c].max_value, want.columns[c].max_value) << column;
    ExpectSameHistogram(got.columns[c].histogram, want.columns[c].histogram,
                        column + " histogram");
  }
  EXPECT_EQ(got.groups.num_groups, want.groups.num_groups) << context;
  EXPECT_EQ(got.groups.min_group_size, want.groups.min_group_size) << context;
  EXPECT_EQ(got.groups.max_group_size, want.groups.max_group_size) << context;
  EXPECT_DOUBLE_EQ(got.groups.avg_group_size, want.groups.avg_group_size) << context;
  ExpectSameHistogram(got.groups.size_histogram, want.groups.size_histogram,
                      context + " group-size histogram");
}

}  // namespace setalg::testing

#endif  // SETALG_TESTS_TEST_UTIL_H_
