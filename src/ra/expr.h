// Expression trees for the relational algebra (Definition 1) and the
// semijoin algebra (Definition 2).
//
// One shared AST carries both algebras: RA expressions are those without
// semijoin nodes, SA expressions those without join nodes, and SA= further
// restricts every semijoin condition to equality atoms. All column indices
// in the public API are 1-BASED, matching the paper's notation (π₁, σ₂₌₃,
// join conditions i α j with i a column of the left input and j of the
// right input).
#ifndef SETALG_RA_EXPR_H_
#define SETALG_RA_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "core/schema.h"
#include "core/value.h"

namespace setalg::ra {

/// Comparison operators allowed in join/semijoin conditions.
enum class Cmp { kEq, kNeq, kLt, kGt };

/// Returns "=", "!=", "<" or ">".
const char* CmpToString(Cmp cmp);

/// Flips the operator for mirrored conditions (< becomes >, = stays).
Cmp MirrorCmp(Cmp cmp);

/// One conjunct "left α right" of a join condition θ; `left` indexes the
/// left input's columns (1-based), `right` the right input's.
struct JoinAtom {
  std::size_t left;
  Cmp op;
  std::size_t right;

  bool operator==(const JoinAtom&) const = default;
};

/// The first equality atom of θ, or nullptr when θ has none: the column
/// pair a partitioned semijoin co-partitions both sides by.
const JoinAtom* FirstEqualityAtom(const std::vector<JoinAtom>& atoms);

enum class OpKind {
  kRelation,    // relation name R
  kUnion,       // E1 ∪ E2
  kDifference,  // E1 − E2
  kProjection,  // π_{i1..ik}(E)
  kSelection,   // σ_{i=j}(E) or σ_{i<j}(E)
  kConstTag,    // τ_c(E)
  kJoin,        // E1 ⋈_θ E2 (θ empty ⇒ cartesian product)
  kSemiJoin,    // E1 ⋉_θ E2
};

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// An immutable expression node. Build via the free functions below; every
/// constructor path validates arities and column indices eagerly.
class Expr {
 public:
  OpKind kind() const { return kind_; }
  std::size_t arity() const { return arity_; }

  /// Children: none for kRelation, one for π/σ/τ, two otherwise.
  const std::vector<ExprPtr>& children() const { return children_; }
  const ExprPtr& child(std::size_t i) const { return children_[i]; }

  /// kRelation payload.
  const std::string& relation_name() const { return relation_name_; }

  /// kProjection payload: 1-based column list (repeats allowed, per Def. 1).
  const std::vector<std::size_t>& projection() const { return projection_; }

  /// kSelection payload: the predicate is `column_i op column_j` with op
  /// restricted to kEq or kLt by Definition 1.
  Cmp selection_op() const { return selection_op_; }
  std::size_t selection_i() const { return selection_i_; }
  std::size_t selection_j() const { return selection_j_; }

  /// kConstTag payload.
  core::Value tag_value() const { return tag_value_; }

  /// kJoin / kSemiJoin payload: the conjunction θ.
  const std::vector<JoinAtom>& atoms() const { return atoms_; }

  /// Number of nodes in the tree (shared subtrees counted once per use).
  std::size_t NumNodes() const;

  /// Textual form in the parser's grammar (round-trips through Parse()).
  std::string ToString() const;

 private:
  friend ExprPtr MakeExpr(Expr e);
  Expr() = default;

  OpKind kind_ = OpKind::kRelation;
  std::size_t arity_ = 0;
  std::vector<ExprPtr> children_;
  std::string relation_name_;
  std::vector<std::size_t> projection_;
  Cmp selection_op_ = Cmp::kEq;
  std::size_t selection_i_ = 0;
  std::size_t selection_j_ = 0;
  core::Value tag_value_ = 0;
  std::vector<JoinAtom> atoms_;

  friend class ExprFactory;
};

// ---------------------------------------------------------------------------
// Builders (all column indices 1-based).
// ---------------------------------------------------------------------------

/// Relation name of the given arity.
ExprPtr Rel(const std::string& name, std::size_t arity);

/// E1 ∪ E2; arities must agree.
ExprPtr Union(ExprPtr left, ExprPtr right);

/// E1 − E2; arities must agree.
ExprPtr Diff(ExprPtr left, ExprPtr right);

/// π_{columns}(input); repeats and reordering allowed.
ExprPtr Project(ExprPtr input, std::vector<std::size_t> columns);

/// σ_{i=j}(input).
ExprPtr SelectEq(ExprPtr input, std::size_t i, std::size_t j);

/// σ_{i<j}(input).
ExprPtr SelectLt(ExprPtr input, std::size_t i, std::size_t j);

/// τ_c(input): appends the constant c as a new last column.
ExprPtr Tag(ExprPtr input, core::Value c);

/// E1 ⋈_θ E2. An empty θ is the cartesian product.
ExprPtr Join(ExprPtr left, ExprPtr right, std::vector<JoinAtom> atoms);

/// E1 ⋉_θ E2 (semijoin).
ExprPtr SemiJoin(ExprPtr left, ExprPtr right, std::vector<JoinAtom> atoms);

/// Cartesian product: Join with empty θ.
ExprPtr Product(ExprPtr left, ExprPtr right);

/// Derived form σ_{i='c'}(E) := π_{1..n}(σ_{i=n+1}(τ_c(E))) from the paper.
ExprPtr SelectConst(ExprPtr input, std::size_t i, core::Value c);

/// Equijoin convenience: all atoms use '='.
ExprPtr EquiJoin(ExprPtr left, ExprPtr right,
                 std::vector<std::pair<std::size_t, std::size_t>> pairs);

/// Equi-semijoin convenience.
ExprPtr EquiSemiJoin(ExprPtr left, ExprPtr right,
                     std::vector<std::pair<std::size_t, std::size_t>> pairs);

// ---------------------------------------------------------------------------
// Classification and inspection.
// ---------------------------------------------------------------------------

/// True iff the expression is in RA (no semijoin nodes) — Definition 1.
bool IsRa(const Expr& e);

/// True iff it is in RA= (RA and every join condition uses only '=').
bool IsRaEq(const Expr& e);

/// True iff the expression is in SA (no join nodes) — Definition 2.
bool IsSa(const Expr& e);

/// True iff it is in SA= (SA and every semijoin condition uses only '=').
bool IsSaEq(const Expr& e);

/// The constants appearing in the expression (from τ tags), sorted unique —
/// the set C such that E is "an expression with constants in C".
core::ConstantSet CollectConstants(const Expr& e);

/// All relation names referenced by the expression.
std::vector<std::string> CollectRelationNames(const Expr& e);

/// Checks that every relation reference matches the schema (name exists and
/// arity agrees). Returns an error description or empty string if valid.
std::string ValidateAgainstSchema(const Expr& e, const core::Schema& schema);

/// Enumerates every distinct node (by pointer identity) in the DAG rooted
/// at `e`, parents after children (post-order).
std::vector<const Expr*> PostOrder(const Expr& e);

// ---------------------------------------------------------------------------
// Structural hashing and equality.
//
// Two expression trees are structurally equal iff they evaluate the same
// way on every database: same operator tree, same relation names, same
// column lists / conditions / constants. StructuralHash respects that
// equivalence and is computed from the tree alone (FNV/SplitMix over a
// canonical encoding — never from pointers or std::hash, so the value is
// identical across processes and library versions; the engine's plan
// cache relies on that for deterministic cache statistics).
// ---------------------------------------------------------------------------

/// Order-dependent 64-bit structural hash of the tree rooted at `e`.
std::uint64_t StructuralHash(const Expr& e);

/// True iff `a` and `b` are structurally identical trees (pointer
/// equality short-circuits; shared subtrees compare once per path).
bool StructuralEqual(const Expr& a, const Expr& b);

/// Hash functor over ExprPtr for unordered containers keyed on structure
/// (e.g. the engine's plan cache). Null hashes to 0.
struct ExprHash {
  std::size_t operator()(const ExprPtr& e) const {
    return e == nullptr ? 0 : static_cast<std::size_t>(StructuralHash(*e));
  }
};

/// Equality functor paired with ExprHash. Two nulls compare equal.
struct ExprEqual {
  bool operator()(const ExprPtr& a, const ExprPtr& b) const {
    if (a == b) return true;
    if (a == nullptr || b == nullptr) return false;
    return StructuralEqual(*a, *b);
  }
};

}  // namespace setalg::ra

#endif  // SETALG_RA_EXPR_H_
