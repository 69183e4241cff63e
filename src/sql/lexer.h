// Tokenizer for the SQL subset (sql/parser.h). Keywords are recognized
// case-insensitively; identifiers keep their spelling. Every token carries
// the 1-based line/column it started at, so parse and analysis errors can
// point into the statement text — the structured-error contract the
// negative-path tests in tests/sql_test.cc lock down.
#ifndef SETALG_SQL_LEXER_H_
#define SETALG_SQL_LEXER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/value.h"
#include "util/result.h"

namespace setalg::sql {

enum class TokenKind {
  kIdent,      // bare identifier (table, alias, or column name)
  kNumber,     // signed integer literal
  kKeyword,    // upper-cased member of the keyword set
  kComma,      // ,
  kDot,        // .
  kLParen,     // (
  kRParen,     // )
  kStar,       // *
  kEq,         // =
  kNeq,        // <> or !=
  kLt,         // <
  kGt,         // >
  kEnd,        // end of input (always the last token)
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  /// Identifier spelling, upper-cased keyword, or operator text.
  std::string text;
  /// kNumber payload.
  core::Value number = 0;
  /// 1-based position of the token's first character.
  std::size_t line = 1;
  std::size_t column = 1;
};

/// Tokenizes `text`. The result always ends with a kEnd token; malformed
/// input (stray characters, bare '!' without '=') is a located error.
util::Result<std::vector<Token>> Lex(const std::string& text);

}  // namespace setalg::sql

#endif  // SETALG_SQL_LEXER_H_
