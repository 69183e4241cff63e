// Recursive-descent parser for the SQL subset.
//
// Grammar (case-insensitive keywords; whitespace-insensitive):
//   query     := term (('UNION' | 'EXCEPT' | 'INTERSECT') term)*
//   term      := select | '(' query ')'
//   select    := 'SELECT' ['DISTINCT'] selectList 'FROM' tableList
//                ['WHERE' conjunct ('AND' conjunct)*]
//   selectList:= '*' | columnRef (',' columnRef)*
//   tableList := IDENT [IDENT] (',' IDENT [IDENT])*
//   conjunct  := columnRef cmp (columnRef | NUMBER)
//              | NUMBER cmp columnRef
//              | columnRef ['NOT'] 'IN' '(' query ')'
//              | ['NOT'] 'EXISTS' '(' query ')'
//   columnRef := IDENT ['.' IDENT]
//   cmp       := '=' | '<>' | '!=' | '<' | '>'
//
// Pure syntax: names are not resolved here (sql/analyzer.h does that
// against a core::Schema). Every error is a located "line:column: ..."
// message; malformed input never crashes and never partially succeeds.
//
// Depth: a statement is at most ra::kMaxExprDepth levels deep. Each
// nested query or parenthesis, FROM item, conjunct and set-operation
// operand past the first adds a level to the path it lies on (each lowers
// to stacked operators: a left-deep join, the WHERE steps, a set-operation
// chain); subqueries in sibling conjuncts do not add up. The token that
// passes the bound draws the error.
#ifndef SETALG_SQL_PARSER_H_
#define SETALG_SQL_PARSER_H_

#include <string>

#include "sql/ast.h"
#include "util/result.h"

namespace setalg::sql {

/// Parses one statement. Trailing tokens after the query are an error.
util::Result<QueryPtr> Parse(const std::string& text);

/// True when `statement` reads as SQL (its first word, ignoring leading
/// parentheses, is SELECT) rather than the RA expression syntax of
/// ra/parse.h. The raq CLI and the setalgd server share this dispatch.
bool LooksLikeSql(const std::string& statement);

}  // namespace setalg::sql

#endif  // SETALG_SQL_PARSER_H_
