// Relational division R(A,B) ÷ S(B), in both variants:
//   containment: { a | { b | R(a,b) } ⊇ S }
//   equality:    { a | { b | R(a,b) } = S }
//
// Implemented algorithms, following Graefe's taxonomy ("Relational
// division: four algorithms and their performance", the paper's [11,12]):
//   - nested-loop division: per candidate, search its sorted group for
//     every divisor element;
//   - sort-merge division: walk R's sorted groups over its flat storage,
//     skip every group whose size rules it out (fewer than |S| rows for
//     containment, not exactly |S| for equality) and merge the rest
//     against the sorted divisor;
//   - hash-division: a divisor table numbering S 0..|S|-1 plus one bitmap
//     per candidate (SinglePassDivision);
//   - aggregate (counting) division: count divisor hits per candidate —
//     the O(n log n) strategy the paper's Section 5 expresses with
//     grouping and count aggregation (SinglePassDivision);
//   - classic-RA division: evaluates the textbook expression
//     π_A(R) − π_A((π_A(R) × S) − R) through the instrumented RA
//     evaluator. Proposition 26 proves any such RA expression must
//     materialize Ω(n²) intermediates — this is the experiment's baseline.
#ifndef SETALG_SETJOIN_DIVISION_H_
#define SETALG_SETJOIN_DIVISION_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/relation.h"
#include "ra/eval.h"
#include "ra/expr.h"

namespace setalg::setjoin {

enum class DivisionAlgorithm {
  kNestedLoop,
  kSortMerge,
  kHashDivision,
  kAggregate,
  kClassicRa,
};

const char* DivisionAlgorithmToString(DivisionAlgorithm algorithm);

/// All algorithms, for parameterized tests/benches.
std::vector<DivisionAlgorithm> AllDivisionAlgorithms();

/// Divides `count` dividend rows stored row-major at `rows` by the unary
/// divisor `s` with `algorithm`: the one dispatch over the division
/// kernels. The rows are (a, b) pairs, sorted and unique: a normalized
/// binary relation's flat(), or any key range of it (a range holds every
/// row of each key it holds, so the keys it returns are exactly the
/// qualifying keys among its own). With `equality` a key's B-set must
/// equal S, else contain it. Returns the qualifying keys in order. Every
/// kernel but classic-ra reads the rows in place; classic-ra copies them
/// into a transient database and, if `stats` is non-null, records its
/// evaluation statistics there.
core::Relation DivideRows(const core::Value* rows, std::size_t count,
                          const core::Relation& s, DivisionAlgorithm algorithm,
                          bool equality, ra::EvalStats* stats = nullptr);

/// Containment division. `r` has arity 2, `s` arity 1. Returns the unary
/// relation of qualifying A values: DivideRows over r.flat().
core::Relation Divide(const core::Relation& r, const core::Relation& s,
                      DivisionAlgorithm algorithm, ra::EvalStats* stats = nullptr);

/// Set-equality division: A values whose B-set is exactly S.
core::Relation DivideEqual(const core::Relation& r, const core::Relation& s,
                           DivisionAlgorithm algorithm,
                           ra::EvalStats* stats = nullptr);

/// The single-pass kernel behind hash-division and aggregate division:
/// DivideRows feeds it its rows as one chunk, the engine's division
/// operator a streamed dividend one batch at a time.
///
/// Contract: the rows fed across all Consume() calls are the dividend's
/// distinct (a, b) pairs, in any order (a group's size is the number of
/// its rows). Finish() emits the qualifying keys in the order their first
/// row arrived, so a sorted dividend yields a sorted result.
///
/// State, all flat: Graefe's divisor table (each b of S to an id
/// 0..|S|-1), a candidate table (each key to a dense id), per-candidate
/// row counters in a plain vector, and per candidate either a divisor-hit
/// counter (aggregate) or ⌈|S|/64⌉ bitmap words in one contiguous block
/// (hash-division). A memo of the previous row's key skips the candidate
/// lookup within a run of equal keys, so a dividend grouped by key (as
/// sorted storage is) costs one candidate lookup per group and any other
/// order up to one per row. Ids are 32-bit; inserting a 2^32-th distinct
/// value aborts.
class SinglePassDivision {
 public:
  /// `s` is the unary divisor; `algorithm` must be kHashDivision or
  /// kAggregate.
  SinglePassDivision(const core::Relation& s, DivisionAlgorithm algorithm,
                     bool equality);

  /// Feeds `rows` dividend rows stored row-major, (a, b) pairs, at `values`.
  void Consume(const core::Value* values, std::size_t rows);

  /// The qualifying keys (unary), in first-seen order.
  core::Relation Finish() const;

 private:
  // Open addressing from a value to its dense id in insertion order:
  // linear probing, at most a quarter full, each slot holding its value
  // beside 1 + its id (0 marks an empty slot, so every value is a valid
  // key). The divisor table is probed once per dividend row, mostly for
  // values outside S; at a quarter full most such probes end at the home
  // slot or the next.
  class IdTable {
   public:
    static constexpr std::uint32_t kAbsent = 0xFFFFFFFFu;

    std::uint32_t Find(core::Value value) const;
    /// The value's id, adding it with id size() when absent.
    std::uint32_t Insert(core::Value value);
    std::size_t size() const { return size_; }

   private:
    struct Slot {
      core::Value value = 0;
      std::uint32_t id = 0;  // 1 + the value's id; 0 marks empty.
    };

    /// The value's home slot.
    std::size_t Home(core::Value value) const;
    /// The slot holding `value`, or the empty slot ending its probe run.
    std::size_t Probe(core::Value value) const;
    /// Doubles the table and re-inserts every value.
    void Grow();

    std::size_t size_ = 0;
    int shift_ = 60;  // 64 - log2(slots_.size()).
    // Power-of-two size, 16 slots at first.
    std::vector<Slot> slots_ = std::vector<Slot>(16);
  };

  /// The key's candidate id, adding the candidate when it is new.
  std::uint32_t CandidateId(core::Value key);

  bool bitmaps_;  // kHashDivision; kAggregate counts hits instead.
  bool equality_;
  IdTable divisor_;
  IdTable candidates_;
  std::size_t words_per_candidate_;
  std::vector<core::Value> keys_;     // By candidate id.
  std::vector<std::size_t> sizes_;    // Rows per candidate.
  std::vector<std::size_t> hits_;     // Divisor rows per candidate (aggregate).
  std::vector<std::uint64_t> words_;  // Bitmaps by candidate id (hash-division).
};

/// The textbook RA expression π_A(R) − π_A((π_A(R) × S) − R) over relation
/// names `r_name` (binary) and `s_name` (unary).
ra::ExprPtr ClassicDivisionExpr(const std::string& r_name, const std::string& s_name);

/// The RA expression for equality division: containment division minus the
/// A's that relate to some b outside S.
ra::ExprPtr ClassicEqualityDivisionExpr(const std::string& r_name,
                                        const std::string& s_name);

}  // namespace setalg::setjoin

#endif  // SETALG_SETJOIN_DIVISION_H_
