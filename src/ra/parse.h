// Text format for algebra expressions (round-trips with Expr::ToString).
//
// Grammar (whitespace-insensitive):
//   expr     := IDENT                          relation reference
//             | 'union' '(' expr ',' expr ')'
//             | 'diff' '(' expr ',' expr ')'
//             | 'product' '(' expr ',' expr ')'
//             | 'join' '[' atoms ']' '(' expr ',' expr ')'
//             | 'semijoin' '[' atoms ']' '(' expr ',' expr ')'
//             | 'pi' '[' INT (',' INT)* ']' '(' expr ')'
//             | 'sigma' '[' INT ('='|'<') rhs ']' '(' expr ')'
//             | 'tag' '[' SINT ']' '(' expr ')'
//             | '(' expr ')'
//   atoms    := atom (';' atom)* | ε
//   atom     := INT ('='|'!='|'<'|'>') INT
//   rhs      := INT            column index
//             | '#' SINT       constant literal (σ_{i='c'} composite form)
//
// Column indices are 1-based. Relation arities come from the schema.
#ifndef SETALG_RA_PARSE_H_
#define SETALG_RA_PARSE_H_

#include <cstddef>
#include <string>

#include "core/schema.h"
#include "ra/expr.h"
#include "util/result.h"

namespace setalg::ra {

/// The deepest tree either text frontend builds, in levels. ra::Parse
/// counts nested expressions (parentheses included); sql::Parse counts
/// nested queries and parentheses plus the FROM items, conjuncts and
/// set-operation operands that lower to operators stacked on one path
/// (sql/parser.h). Text past it draws a located error before anything
/// deeper is built, so the recursive passes over a statement (parse,
/// analysis, planning, execution, destruction) stay within a session
/// thread's stack.
inline constexpr std::size_t kMaxExprDepth = 128;

/// Parses an expression; relation names are resolved against `schema`.
/// Errors are located like SQL ones (util::LocatedError): "line:column:
/// message", 1-based from the text's first byte.
util::Result<ExprPtr> Parse(const std::string& text, const core::Schema& schema);

}  // namespace setalg::ra

#endif  // SETALG_RA_PARSE_H_
