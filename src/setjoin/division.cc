#include "setjoin/division.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "core/database.h"
#include "setjoin/grouped.h"
#include "util/check.h"

namespace setalg::setjoin {
namespace {

using core::Relation;
using core::Value;

// Nested-loop division: for every candidate a and every divisor element b,
// search a's group for b. The rows are sorted, so each group's elements
// are a sorted span of the grouped view, and a probe is a binary search
// in it: O(g·m·log k) for g groups of k elements.
Relation NestedLoopDivide(const Value* rows, std::size_t count, const Relation& s,
                          bool equality) {
  const std::vector<Value>& divisor = s.flat();  // Sorted and unique.
  const GroupedRelation groups(rows, count);
  Relation out(1);
  for (std::size_t i = 0; i < groups.NumGroups(); ++i) {
    const Group g = groups.group(i);
    // Equality additionally requires that the key relates to nothing
    // outside S: the group size must equal |S|.
    if (equality && g.elements.size() != divisor.size()) continue;
    const bool all = std::ranges::all_of(
        divisor, [&g](Value b) { return std::ranges::binary_search(g.elements, b); });
    if (all) out.AddRows(&g.key, 1);
  }
  return out;
}

Relation SortMergeDivide(const Value* rows, std::size_t count, const Relation& s,
                         bool equality) {
  // Each group's B-list is a sorted run of the rows, sorted by (A, B). A
  // group whose size rules it out (fewer than |S| rows, or for equality
  // not exactly |S|) is skipped unmerged; the rest merge against the
  // sorted divisor up to the first divisor element missing from the run.
  // Allocates nothing but the output — the zero-allocation kernel of
  // Graefe's taxonomy.
  const std::vector<Value>& divisor = s.flat();  // Sorted and unique.
  const std::size_t m = divisor.size();
  Relation out(1);
  for (std::size_t begin = 0, end = 0; begin < count; begin = end) {
    const Value a = rows[2 * begin];
    end = begin + 1;
    while (end < count && rows[2 * end] == a) ++end;
    const std::size_t size = end - begin;
    if (equality ? size != m : size < m) continue;
    // The run's element d + extra meets divisor[d], where `extra` counts
    // the run's elements outside S so far, at most size - m of them. The
    // two counters advance on branches, not through a load of the
    // divisor, so the merge streams.
    const Value* run = rows + 2 * begin + 1;
    std::size_t d = 0;
    std::size_t extra = 0;
    while (d < m) {
      const Value b = run[2 * (d + extra)];
      if (b == divisor[d]) {
        ++d;
      } else if (b < divisor[d] && extra < size - m) {
        ++extra;
      } else {
        break;  // divisor[d] is not in the group.
      }
    }
    if (d == m) out.AddRows(&a, 1);
  }
  return out;
}

// Evaluates the classic RA expression on a transient two-relation database
// holding a copy of the rows.
Relation ClassicRaDivide(const Value* rows, std::size_t count, const Relation& s,
                         bool equality, ra::EvalStats* stats) {
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 1);
  core::Database db(schema);
  Relation r(2);
  r.AddRows(rows, count);
  db.SetRelation("R", std::move(r));
  db.SetRelation("S", s);
  const ra::ExprPtr expr = equality ? ClassicEqualityDivisionExpr("R", "S")
                                    : ClassicDivisionExpr("R", "S");
  return ra::Eval(expr, db, stats);
}

}  // namespace

const char* DivisionAlgorithmToString(DivisionAlgorithm algorithm) {
  switch (algorithm) {
    case DivisionAlgorithm::kNestedLoop:
      return "nested-loop";
    case DivisionAlgorithm::kSortMerge:
      return "sort-merge";
    case DivisionAlgorithm::kHashDivision:
      return "hash-division";
    case DivisionAlgorithm::kAggregate:
      return "aggregate";
    case DivisionAlgorithm::kClassicRa:
      return "classic-ra";
  }
  return "?";
}

std::vector<DivisionAlgorithm> AllDivisionAlgorithms() {
  return {DivisionAlgorithm::kNestedLoop, DivisionAlgorithm::kSortMerge,
          DivisionAlgorithm::kHashDivision, DivisionAlgorithm::kAggregate,
          DivisionAlgorithm::kClassicRa};
}

core::Relation DivideRows(const core::Value* rows, std::size_t count,
                          const core::Relation& s, DivisionAlgorithm algorithm,
                          bool equality, ra::EvalStats* stats) {
  SETALG_CHECK_EQ(s.arity(), 1u);
  switch (algorithm) {
    case DivisionAlgorithm::kNestedLoop:
      return NestedLoopDivide(rows, count, s, equality);
    case DivisionAlgorithm::kSortMerge:
      return SortMergeDivide(rows, count, s, equality);
    case DivisionAlgorithm::kHashDivision:
    case DivisionAlgorithm::kAggregate: {
      SinglePassDivision kernel(s, algorithm, equality);
      kernel.Consume(rows, count);
      return kernel.Finish();
    }
    case DivisionAlgorithm::kClassicRa:
      return ClassicRaDivide(rows, count, s, equality, stats);
  }
  SETALG_CHECK_STREAM(false) << "unreachable";
  return Relation(1);
}

core::Relation Divide(const core::Relation& r, const core::Relation& s,
                      DivisionAlgorithm algorithm, ra::EvalStats* stats) {
  SETALG_CHECK_EQ(r.arity(), 2u);
  return DivideRows(r.flat().data(), r.size(), s, algorithm, /*equality=*/false, stats);
}

core::Relation DivideEqual(const core::Relation& r, const core::Relation& s,
                           DivisionAlgorithm algorithm, ra::EvalStats* stats) {
  SETALG_CHECK_EQ(r.arity(), 2u);
  return DivideRows(r.flat().data(), r.size(), s, algorithm, /*equality=*/true, stats);
}

SinglePassDivision::SinglePassDivision(const core::Relation& s,
                                       DivisionAlgorithm algorithm, bool equality)
    : bitmaps_(algorithm == DivisionAlgorithm::kHashDivision), equality_(equality) {
  SETALG_CHECK_EQ(s.arity(), 1u);
  SETALG_CHECK_STREAM(algorithm == DivisionAlgorithm::kHashDivision ||
                      algorithm == DivisionAlgorithm::kAggregate)
      << "SinglePassDivision supports only the single-pass algorithms, got "
      << DivisionAlgorithmToString(algorithm);
  // S is sorted and unique, so b's id is its rank in S.
  for (const Value b : s.flat()) divisor_.Insert(b);
  words_per_candidate_ = bitmaps_ ? (divisor_.size() + 63) / 64 : 0;
}

std::uint32_t SinglePassDivision::CandidateId(core::Value key) {
  const std::uint32_t id = candidates_.Insert(key);
  if (id == keys_.size()) {
    keys_.push_back(key);
    sizes_.push_back(0);
    if (bitmaps_) {
      words_.resize(words_.size() + words_per_candidate_, 0);
    } else {
      hits_.push_back(0);
    }
  }
  return id;
}

void SinglePassDivision::Consume(const core::Value* values, std::size_t rows) {
  if (rows == 0) return;
  const bool bitmaps = bitmaps_;
  const std::size_t words_per_candidate = words_per_candidate_;
  // The memo of the current run's key and the run's row and hit counts
  // live in locals, so the bitmap stores cannot force them through
  // memory; the counts go to the candidate when the run ends.
  Value key = values[0];
  std::uint32_t id = CandidateId(key);
  std::size_t run_rows = 0;
  std::size_t run_hits = 0;
  const auto end_run = [&] {
    sizes_[id] += run_rows;
    if (!bitmaps) hits_[id] += run_hits;
  };
  for (const Value* row = values; row != values + 2 * rows; row += 2) {
    if (row[0] != key) {
      end_run();
      key = row[0];
      id = CandidateId(key);
      run_rows = 0;
      run_hits = 0;
    }
    ++run_rows;
    const std::uint32_t b = divisor_.Find(row[1]);
    if (b == IdTable::kAbsent) continue;
    if (bitmaps) {
      words_[id * words_per_candidate + b / 64] |= std::uint64_t{1} << (b % 64);
    } else {
      ++run_hits;
    }
  }
  end_run();
}

core::Relation SinglePassDivision::Finish() const {
  const std::size_t m = divisor_.size();
  // The last bitmap word of a full candidate: the low m mod 64 bits set.
  const std::uint64_t last_word =
      m % 64 == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << (m % 64)) - 1;
  Relation out(1);
  for (std::size_t id = 0; id < keys_.size(); ++id) {
    if (equality_ && sizes_[id] != m) continue;
    bool contains = true;
    if (bitmaps_) {
      const std::uint64_t* words = words_.data() + id * words_per_candidate_;
      for (std::size_t w = 0; contains && w < words_per_candidate_; ++w) {
        contains = words[w] == (w + 1 == words_per_candidate_ ? last_word
                                                                : ~std::uint64_t{0});
      }
    } else {
      contains = hits_[id] == m;
    }
    if (contains) out.AddRows(&keys_[id], 1);
  }
  return out;
}

std::size_t SinglePassDivision::IdTable::Home(core::Value value) const {
  // Fibonacci hashing: the product's top bits depend on every bit of the
  // value, and consecutive values land far apart.
  return (static_cast<std::uint64_t>(value) * 0x9e3779b97f4a7c15ULL) >> shift_;
}

std::size_t SinglePassDivision::IdTable::Probe(core::Value value) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = Home(value);; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.id == 0 || slot.value == value) return i;
  }
}

std::uint32_t SinglePassDivision::IdTable::Find(core::Value value) const {
  const Slot& slot = slots_[Probe(value)];
  return slot.id == 0 ? kAbsent : slot.id - 1;
}

std::uint32_t SinglePassDivision::IdTable::Insert(core::Value value) {
  std::size_t i = Probe(value);
  if (slots_[i].id != 0) return slots_[i].id - 1;
  // Slots hold 1 + a 32-bit id; fail loudly rather than wrap.
  SETALG_CHECK(size_ < kAbsent);
  if (4 * (size_ + 1) > slots_.size()) {
    Grow();
    i = Probe(value);
  }
  slots_[i] = {value, static_cast<std::uint32_t>(++size_)};
  return slots_[i].id - 1;
}

void SinglePassDivision::IdTable::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(2 * old.size(), Slot{});
  shift_ = 64 - std::countr_zero(slots_.size());
  for (const Slot& slot : old) {
    if (slot.id != 0) slots_[Probe(slot.value)] = slot;
  }
}

ra::ExprPtr ClassicDivisionExpr(const std::string& r_name, const std::string& s_name) {
  ra::ExprPtr r = ra::Rel(r_name, 2);
  ra::ExprPtr s = ra::Rel(s_name, 1);
  ra::ExprPtr candidates = ra::Project(r, {1});
  // π_A(R) − π_A((π_A(R) × S) − R): the product enumerates every required
  // (a, b) pair; the subtraction finds the missing ones.
  ra::ExprPtr required = ra::Product(candidates, s);
  ra::ExprPtr missing = ra::Diff(required, r);
  return ra::Diff(candidates, ra::Project(missing, {1}));
}

ra::ExprPtr ClassicEqualityDivisionExpr(const std::string& r_name,
                                        const std::string& s_name) {
  ra::ExprPtr r = ra::Rel(r_name, 2);
  ra::ExprPtr s = ra::Rel(s_name, 1);
  ra::ExprPtr containment = ClassicDivisionExpr(r_name, s_name);
  // A's related to some b outside S: π_A(R − π_{1,2}(R ⋈_{2=1} S)).
  ra::ExprPtr inside = ra::Project(ra::Join(r, s, {{2, ra::Cmp::kEq, 1}}), {1, 2});
  ra::ExprPtr outside = ra::Project(ra::Diff(r, inside), {1});
  return ra::Diff(containment, outside);
}

}  // namespace setalg::setjoin
