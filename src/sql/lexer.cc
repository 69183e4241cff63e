#include "sql/lexer.h"

#include <cctype>
#include <unordered_set>

#include "util/str.h"

namespace setalg::sql {
namespace {

// The keyword set of the supported subset. Anything else that lexes as a
// word is an identifier.
const std::unordered_set<std::string>& Keywords() {
  static const auto* keywords = new std::unordered_set<std::string>{
      "SELECT", "DISTINCT", "FROM", "WHERE", "AND", "NOT", "EXISTS",
      "IN",     "UNION",    "EXCEPT", "INTERSECT",
  };
  return *keywords;
}

std::string Upper(std::string s) {
  for (char& c : s) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return s;
}

}  // namespace

util::Result<std::vector<Token>> Lex(const std::string& text) {
  std::vector<Token> tokens;
  std::size_t line = 1;
  std::size_t column = 1;
  std::size_t i = 0;
  const auto advance = [&](std::size_t n) {
    for (std::size_t k = 0; k < n; ++k, ++i) {
      if (text[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
  };
  while (i < text.size()) {
    const char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      advance(1);
      continue;
    }
    Token token;
    token.line = line;
    token.column = column;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t j = i;
      while (j < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[j])) || text[j] == '_')) {
        ++j;
      }
      token.text = text.substr(i, j - i);
      const std::string upper = Upper(token.text);
      if (Keywords().count(upper) > 0) {
        token.kind = TokenKind::kKeyword;
        token.text = upper;
      } else {
        token.kind = TokenKind::kIdent;
      }
      advance(j - i);
    } else if (std::isdigit(static_cast<unsigned char>(c)) ||
               (c == '-' && i + 1 < text.size() &&
                std::isdigit(static_cast<unsigned char>(text[i + 1])))) {
      std::size_t j = i + 1;
      while (j < text.size() && std::isdigit(static_cast<unsigned char>(text[j]))) {
        ++j;
      }
      long long value = 0;
      if (!util::ParseInt64(text.substr(i, j - i), &value)) {
        return util::Result<std::vector<Token>>::Error(
            util::LocatedError(line, column,
                               util::StrCat("integer literal '", text.substr(i, j - i),
                                            "' out of range")));
      }
      token.kind = TokenKind::kNumber;
      token.number = static_cast<core::Value>(value);
      token.text = text.substr(i, j - i);
      advance(j - i);
    } else {
      switch (c) {
        case ',': token.kind = TokenKind::kComma; token.text = ","; advance(1); break;
        case '.': token.kind = TokenKind::kDot; token.text = "."; advance(1); break;
        case '(': token.kind = TokenKind::kLParen; token.text = "("; advance(1); break;
        case ')': token.kind = TokenKind::kRParen; token.text = ")"; advance(1); break;
        case '*': token.kind = TokenKind::kStar; token.text = "*"; advance(1); break;
        case '=': token.kind = TokenKind::kEq; token.text = "="; advance(1); break;
        case '<':
          if (i + 1 < text.size() && text[i + 1] == '>') {
            token.kind = TokenKind::kNeq;
            token.text = "<>";
            advance(2);
          } else {
            token.kind = TokenKind::kLt;
            token.text = "<";
            advance(1);
          }
          break;
        case '>': token.kind = TokenKind::kGt; token.text = ">"; advance(1); break;
        case '!':
          if (i + 1 < text.size() && text[i + 1] == '=') {
            token.kind = TokenKind::kNeq;
            token.text = "!=";
            advance(2);
          } else {
            return util::Result<std::vector<Token>>::Error(
                util::LocatedError(line, column, "stray '!' (did you mean '!='?)"));
          }
          break;
        default:
          return util::Result<std::vector<Token>>::Error(util::LocatedError(
              line, column,
              util::StrCat("unexpected character '", std::string(1, c), "'")));
      }
    }
    tokens.push_back(std::move(token));
  }
  Token end;
  end.kind = TokenKind::kEnd;
  end.text = "<end of statement>";
  end.line = line;
  end.column = column;
  tokens.push_back(std::move(end));
  return tokens;
}

}  // namespace setalg::sql
