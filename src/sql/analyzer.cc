#include "sql/analyzer.h"

#include <cctype>
#include <optional>
#include <utility>
#include <vector>

#include "sql/lexer.h"
#include "sql/parser.h"
#include "util/str.h"

namespace setalg::sql {
namespace {

using ra::ExprPtr;

template <typename T>
util::Result<T> Err(std::size_t line, std::size_t column, const std::string& message) {
  return util::Result<T>::Error(util::LocatedError(line, column, message));
}

// Decodes the positional column convention "c<N>" (1-based). Returns 0 for
// anything else.
std::size_t DecodeColumn(const std::string& name) {
  if (name.size() < 2 || (name[0] != 'c' && name[0] != 'C')) return 0;
  std::size_t n = 0;
  for (std::size_t i = 1; i < name.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(name[i]))) return 0;
    n = n * 10 + static_cast<std::size_t>(name[i] - '0');
  }
  return n;
}

/// One FROM table in scope: its alias, schema name, and the offset of its
/// first column in the SELECT's accumulated (FROM-concatenated) tuple.
struct Binding {
  std::string alias;
  std::string table;
  std::size_t offset = 0;
  std::size_t arity = 0;
  std::size_t index = 0;  // Position in the FROM list.
};

struct Scope {
  std::vector<Binding> bindings;
  const Scope* parent = nullptr;
};

/// A resolved column: which FROM table (in which scope) and the 1-based
/// positions, local to the table and global in the accumulated tuple.
struct ResolvedColumn {
  std::size_t table_index = 0;
  std::size_t local = 0;
  std::size_t global = 0;
  std::size_t depth = 0;  // 0 = local scope, 1 = immediately enclosing SELECT.
};

util::Result<ResolvedColumn> ResolveColumn(const ColumnRef& ref, const Scope& scope) {
  const std::size_t col = DecodeColumn(ref.column);
  if (col == 0) {
    return Err<ResolvedColumn>(
        ref.line, ref.column_pos,
        util::StrCat("unknown column '", ref.column,
                     "' (columns are positional: c1..cK)"));
  }
  std::size_t depth = 0;
  for (const Scope* s = &scope; s != nullptr; s = s->parent, ++depth) {
    const Binding* found = nullptr;
    if (ref.qualifier.empty()) {
      if (s->bindings.size() > 1 && depth == 0) {
        return Err<ResolvedColumn>(
            ref.line, ref.column_pos,
            util::StrCat("bare column '", ref.column,
                         "' is ambiguous with more than one table in scope; "
                         "qualify it with a table alias"));
      }
      if (!s->bindings.empty()) found = &s->bindings.front();
    } else {
      for (const Binding& b : s->bindings) {
        if (b.alias == ref.qualifier) {
          found = &b;
          break;
        }
      }
    }
    if (found != nullptr) {
      if (col > found->arity) {
        return Err<ResolvedColumn>(
            ref.line, ref.column_pos,
            util::StrCat("column '", ref.column, "' out of range: table '",
                         found->table, "' has arity ", found->arity));
      }
      return ResolvedColumn{found->index, col, found->offset + col, depth};
    }
  }
  return Err<ResolvedColumn>(
      ref.line, ref.column_pos,
      ref.qualifier.empty()
          ? util::StrCat("column '", ref.column, "' cannot be resolved")
          : util::StrCat("unknown table alias '", ref.qualifier, "'"));
}

// ---------------------------------------------------------------------------
// Single-table predicate composites (rules 1 of the header comment).
// ---------------------------------------------------------------------------

ExprPtr IdentityColumns(std::size_t n, std::vector<std::size_t>* out) {
  out->resize(n);
  for (std::size_t i = 0; i < n; ++i) (*out)[i] = i + 1;
  return nullptr;
}

ExprPtr ApplyColumnColumn(ExprPtr e, std::size_t i, ra::Cmp op, std::size_t j) {
  switch (op) {
    case ra::Cmp::kEq: return ra::SelectEq(e, i, j);
    case ra::Cmp::kLt: return ra::SelectLt(e, i, j);
    case ra::Cmp::kGt: return ra::SelectLt(e, j, i);
    case ra::Cmp::kNeq: return ra::Diff(e, ra::SelectEq(e, i, j));
  }
  return e;
}

ExprPtr ApplyColumnConst(ExprPtr e, std::size_t i, ra::Cmp op, core::Value c) {
  const std::size_t n = e->arity();
  std::vector<std::size_t> identity;
  IdentityColumns(n, &identity);
  switch (op) {
    case ra::Cmp::kEq: return ra::SelectConst(e, i, c);
    case ra::Cmp::kNeq: return ra::Diff(e, ra::SelectConst(e, i, c));
    case ra::Cmp::kLt:
      return ra::Project(ra::SelectLt(ra::Tag(e, c), i, n + 1), identity);
    case ra::Cmp::kGt:
      return ra::Project(ra::SelectLt(ra::Tag(e, c), n + 1, i), identity);
  }
  return e;
}

// ---------------------------------------------------------------------------
// The analyzer proper.
// ---------------------------------------------------------------------------

class Analyzer {
 public:
  explicit Analyzer(const core::Schema& schema) : schema_(schema) {}

  util::Result<ExprPtr> LowerQuery(const Query& query, const Scope* outer) {
    switch (query.op) {
      case Query::Op::kSelect:
        return LowerSelect(*query.select, outer, nullptr, nullptr);
      case Query::Op::kUnion:
      case Query::Op::kExcept:
      case Query::Op::kIntersect:
        break;
    }
    auto left = LowerQuery(*query.left, outer);
    if (!left.ok()) return left;
    auto right = LowerQuery(*query.right, outer);
    if (!right.ok()) return right;
    if ((*left)->arity() != (*right)->arity()) {
      return Err<ExprPtr>(
          query.line, query.column_pos,
          util::StrCat("set operation over mismatched arities (",
                       (*left)->arity(), " vs ", (*right)->arity(), ")"));
    }
    switch (query.op) {
      case Query::Op::kUnion: return ra::Union(*left, *right);
      case Query::Op::kExcept: return ra::Diff(*left, *right);
      case Query::Op::kIntersect:
        return ra::Diff(*left, ra::Diff(*left, *right));
      case Query::Op::kSelect: break;  // Unreachable.
    }
    return *left;
  }

 private:
  /// Lowers one SELECT. When the select is an EXISTS subquery,
  /// `correlations` receives its correlated conjuncts as outer-left join
  /// atoms (and `outer` is the enclosing scope chain); otherwise any
  /// reference leaving the local scope is an error.
  util::Result<ExprPtr> LowerSelect(const Select& select, const Scope* outer,
                                    std::vector<ra::JoinAtom>* correlations,
                                    std::size_t* subquery_arity) {
    if (auto division = RecognizeDivision(select, outer != nullptr)) {
      return *division;
    }

    // Scope construction (FROM list).
    Scope scope;
    scope.parent = outer;
    std::size_t offset = 0;
    for (const TableRef& ref : select.from) {
      if (!schema_.HasRelation(ref.table)) {
        return Err<ExprPtr>(ref.line, ref.column_pos,
                            util::StrCat("unknown table '", ref.table, "'"));
      }
      for (const Binding& b : scope.bindings) {
        if (b.alias == ref.alias) {
          return Err<ExprPtr>(ref.line, ref.column_pos,
                              util::StrCat("duplicate table alias '", ref.alias, "'"));
        }
      }
      const std::size_t arity = schema_.Arity(ref.table);
      scope.bindings.push_back(
          {ref.alias, ref.table, offset, arity, scope.bindings.size()});
      offset += arity;
    }

    // Classification pass over the WHERE conjuncts (rules 1-3).
    struct TableStep {  // One single-table predicate, in WHERE order.
      std::size_t local_i = 0;
      ra::Cmp op = ra::Cmp::kEq;
      bool is_const = false;
      std::size_t local_j = 0;
      core::Value constant = 0;
    };
    struct SubStep {  // One EXISTS / IN application, in WHERE order.
      bool negated = false;
      ExprPtr inner;
      std::vector<ra::JoinAtom> atoms;
    };
    std::vector<std::vector<TableStep>> table_steps(select.from.size());
    std::vector<std::vector<ra::JoinAtom>> join_atoms(select.from.size());
    std::vector<SubStep> sub_steps;

    for (const Predicate& pred : select.where) {
      switch (pred.kind) {
        case Predicate::Kind::kColumnColumn: {
          auto lhs = ResolveColumn(pred.lhs, scope);
          if (!lhs.ok()) return util::Result<ExprPtr>::Error(lhs.error());
          auto rhs = ResolveColumn(pred.rhs, scope);
          if (!rhs.ok()) return util::Result<ExprPtr>::Error(rhs.error());
          if (lhs->depth > 0 && rhs->depth > 0) {
            return Err<ExprPtr>(pred.line, pred.column_pos,
                                "predicate references only enclosing-query tables");
          }
          if (lhs->depth > 0 || rhs->depth > 0) {
            // Correlated conjunct: outer column on the left.
            const ResolvedColumn& outer_col = lhs->depth > 0 ? *lhs : *rhs;
            const ResolvedColumn& inner_col = lhs->depth > 0 ? *rhs : *lhs;
            const ra::Cmp op = lhs->depth > 0 ? pred.op : ra::MirrorCmp(pred.op);
            if (outer_col.depth > 1) {
              return Err<ExprPtr>(
                  pred.line, pred.column_pos,
                  "correlated reference crosses more than one subquery level");
            }
            if (correlations == nullptr) {
              return Err<ExprPtr>(pred.line, pred.column_pos,
                                  "correlated reference outside an EXISTS subquery");
            }
            correlations->push_back({outer_col.global, op, inner_col.global});
            break;
          }
          if (lhs->table_index == rhs->table_index) {
            table_steps[lhs->table_index].push_back(
                {lhs->local, pred.op, false, rhs->local, 0});
          } else {
            // Attach at the join that brings in the later table, oriented
            // earlier-table-left (rule 2).
            const ResolvedColumn& early =
                lhs->table_index < rhs->table_index ? *lhs : *rhs;
            const ResolvedColumn& later =
                lhs->table_index < rhs->table_index ? *rhs : *lhs;
            const ra::Cmp op = lhs->table_index < rhs->table_index
                                   ? pred.op
                                   : ra::MirrorCmp(pred.op);
            join_atoms[later.table_index].push_back(
                {early.global, op, later.local});
          }
          break;
        }
        case Predicate::Kind::kColumnConst: {
          auto lhs = ResolveColumn(pred.lhs, scope);
          if (!lhs.ok()) return util::Result<ExprPtr>::Error(lhs.error());
          if (lhs->depth > 0) {
            return Err<ExprPtr>(pred.line, pred.column_pos,
                                "literal comparison against an enclosing-query "
                                "column is not supported");
          }
          table_steps[lhs->table_index].push_back(
              {lhs->local, pred.op, true, 0, pred.constant});
          break;
        }
        case Predicate::Kind::kIn: {
          auto lhs = ResolveColumn(pred.lhs, scope);
          if (!lhs.ok()) return util::Result<ExprPtr>::Error(lhs.error());
          if (lhs->depth > 0) {
            return Err<ExprPtr>(pred.line, pred.column_pos,
                                "IN over an enclosing-query column is not supported");
          }
          auto sub = LowerQuery(*pred.subquery, nullptr);
          if (!sub.ok()) return sub;
          if ((*sub)->arity() != 1) {
            return Err<ExprPtr>(pred.line, pred.column_pos,
                                util::StrCat("IN subquery must produce one column, "
                                             "got ", (*sub)->arity()));
          }
          sub_steps.push_back(
              {pred.negated, *sub, {{lhs->global, ra::Cmp::kEq, std::size_t{1}}}});
          break;
        }
        case Predicate::Kind::kExists: {
          if (pred.subquery->op != Query::Op::kSelect) {
            return Err<ExprPtr>(pred.line, pred.column_pos,
                                "EXISTS subquery must be a plain SELECT");
          }
          const Select& sub_select = *pred.subquery->select;
          if (!sub_select.select_star) {
            return Err<ExprPtr>(sub_select.line, sub_select.column_pos,
                                "EXISTS subquery must be SELECT *");
          }
          std::vector<ra::JoinAtom> atoms;
          std::size_t sub_arity = 0;
          auto sub = LowerSelect(sub_select, &scope, &atoms, &sub_arity);
          if (!sub.ok()) return sub;
          sub_steps.push_back({pred.negated, *sub, std::move(atoms)});
          break;
        }
      }
    }

    // Rule 1: per-table subtrees.
    std::vector<ExprPtr> tables;
    for (std::size_t t = 0; t < select.from.size(); ++t) {
      ExprPtr e = ra::Rel(scope.bindings[t].table, scope.bindings[t].arity);
      for (const TableStep& step : table_steps[t]) {
        e = step.is_const ? ApplyColumnConst(e, step.local_i, step.op, step.constant)
                          : ApplyColumnColumn(e, step.local_i, step.op, step.local_j);
      }
      tables.push_back(std::move(e));
    }

    // Rule 2: left-deep join in FROM order.
    ExprPtr expr = tables[0];
    for (std::size_t t = 1; t < tables.size(); ++t) {
      expr = ra::Join(expr, tables[t], join_atoms[t]);
    }

    // Rule 3: subquery steps, in WHERE order.
    for (SubStep& step : sub_steps) {
      ExprPtr applied = ra::SemiJoin(expr, step.inner, step.atoms);
      expr = step.negated ? ra::Diff(expr, applied) : applied;
    }

    if (subquery_arity != nullptr) *subquery_arity = expr->arity();

    // Rule 4: final projection (none for SELECT *; DISTINCT is a no-op).
    if (!select.select_star) {
      std::vector<std::size_t> columns;
      for (const ColumnRef& ref : select.columns) {
        auto resolved = ResolveColumn(ref, scope);
        if (!resolved.ok()) return util::Result<ExprPtr>::Error(resolved.error());
        if (resolved->depth > 0) {
          return Err<ExprPtr>(ref.line, ref.column_pos,
                              "select list cannot reference enclosing-query tables");
        }
        columns.push_back(resolved->global);
      }
      expr = ra::Project(expr, columns);
    }
    return expr;
  }

  /// The FOR ALL-style division idiom (see the header comment). Returns
  /// nullopt when the select is not that exact shape — the generic rules
  /// then apply (and reject the two-level correlation with a located
  /// error, so near-misses fail loudly instead of silently changing
  /// meaning).
  std::optional<ExprPtr> RecognizeDivision(const Select& select, bool in_subquery) {
    if (in_subquery) return std::nullopt;
    if (select.from.size() != 1 || select.where.size() != 1 ||
        select.select_star || select.columns.size() != 1) {
      return std::nullopt;
    }
    const TableRef& outer = select.from[0];
    if (!schema_.HasRelation(outer.table) || schema_.Arity(outer.table) != 2) {
      return std::nullopt;
    }
    const ColumnRef& out_col = select.columns[0];
    if (DecodeColumn(out_col.column) != 1 ||
        (!out_col.qualifier.empty() && out_col.qualifier != outer.alias)) {
      return std::nullopt;
    }
    const Predicate& not_exists = select.where[0];
    if (not_exists.kind != Predicate::Kind::kExists || !not_exists.negated ||
        not_exists.subquery->op != Query::Op::kSelect) {
      return std::nullopt;
    }
    const Select& mid = *not_exists.subquery->select;
    if (!mid.select_star || mid.from.size() != 1 || mid.where.size() != 1 ||
        !schema_.HasRelation(mid.from[0].table) ||
        schema_.Arity(mid.from[0].table) != 1) {
      return std::nullopt;
    }
    const Predicate& inner_ne = mid.where[0];
    if (inner_ne.kind != Predicate::Kind::kExists || !inner_ne.negated ||
        inner_ne.subquery->op != Query::Op::kSelect) {
      return std::nullopt;
    }
    const Select& inner = *inner_ne.subquery->select;
    if (!inner.select_star || inner.from.size() != 1 || inner.where.size() != 2 ||
        inner.from[0].table != outer.table) {
      return std::nullopt;
    }
    // The two inner conjuncts must be {inner.c1 = outer.c1} and
    // {inner.c2 = mid.c1}, in either order and either direction.
    bool ties_outer = false;
    bool ties_mid = false;
    for (const Predicate& pred : inner.where) {
      if (pred.kind != Predicate::Kind::kColumnColumn || pred.op != ra::Cmp::kEq) {
        return std::nullopt;
      }
      const auto matches = [&](const ColumnRef& a, const ColumnRef& b) {
        // a must be the inner alias; b decides which tie this is.
        if (a.qualifier != inner.from[0].alias) return false;
        if (b.qualifier == outer.alias) {
          if (DecodeColumn(a.column) == 1 && DecodeColumn(b.column) == 1) {
            ties_outer = true;
            return true;
          }
        } else if (b.qualifier == mid.from[0].alias) {
          if (DecodeColumn(a.column) == 2 && DecodeColumn(b.column) == 1) {
            ties_mid = true;
            return true;
          }
        }
        return false;
      };
      if (!matches(pred.lhs, pred.rhs) && !matches(pred.rhs, pred.lhs)) {
        return std::nullopt;
      }
    }
    if (!ties_outer || !ties_mid) return std::nullopt;

    // pi_1(R) - pi_1((pi_1(R) x S) - R) — the planner's division pattern.
    const ExprPtr r = ra::Rel(outer.table, 2);
    const ExprPtr s = ra::Rel(mid.from[0].table, 1);
    const ExprPtr cand = ra::Project(r, {1});
    return ra::Diff(cand,
                    ra::Project(ra::Diff(ra::Product(cand, s), r), {1}));
  }

  const core::Schema& schema_;
};

}  // namespace

util::Result<ExprPtr> Lower(const Query& query, const core::Schema& schema) {
  Analyzer analyzer(schema);
  return analyzer.LowerQuery(query, nullptr);
}

util::Result<ExprPtr> Compile(const std::string& text, const core::Schema& schema) {
  auto parsed = Parse(text);
  if (!parsed.ok()) return util::Result<ExprPtr>::Error(parsed.error());
  return Lower(**parsed, schema);
}

}  // namespace setalg::sql
