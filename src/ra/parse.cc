#include "ra/parse.h"

#include <cctype>
#include <optional>

#include "util/str.h"

namespace setalg::ra {
namespace {

class Parser {
 public:
  Parser(const std::string& text, const core::Schema& schema)
      : text_(text), schema_(schema) {}

  util::Result<ExprPtr> Run() {
    auto expr = ParseExpr();
    if (!ok_) return util::Result<ExprPtr>::Error(error_);
    SkipSpace();
    if (pos_ != text_.size()) {
      return Fail<ExprPtr>("trailing input after expression");
    }
    return expr;
  }

 private:
  // Records the first error, located at pos_ like a SQL error: 1-based
  // line and column, counted from the text's first byte.
  template <typename T>
  util::Result<T> Fail(const std::string& message) {
    if (ok_) {
      ok_ = false;
      std::size_t line = 1;
      std::size_t column = 1;
      for (std::size_t i = 0; i < pos_; ++i) {
        if (text_[i] == '\n') {
          ++line;
          column = 1;
        } else {
          ++column;
        }
      }
      error_ = util::LocatedError(line, column, message);
    }
    return util::Result<T>::Error(error_);
  }

  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Peek(char c) {
    SkipSpace();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  bool Consume(char c) {
    if (Peek(c)) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool Expect(char c) {
    if (Consume(c)) return true;
    Fail<int>(util::StrCat("expected '", std::string(1, c), "'"));
    return false;
  }

  std::string ParseIdent() {
    SkipSpace();
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    return text_.substr(start, pos_ - start);
  }

  std::optional<long long> ParseInt(bool allow_sign) {
    SkipSpace();
    std::size_t start = pos_;
    if (allow_sign && pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    long long value = 0;
    if (pos_ == start || !util::ParseInt64(text_.substr(start, pos_ - start), &value)) {
      Fail<int>("expected integer");
      return std::nullopt;
    }
    return value;
  }

  std::optional<Cmp> ParseCmp() {
    SkipSpace();
    if (Consume('=')) return Cmp::kEq;
    if (Consume('<')) return Cmp::kLt;
    if (Consume('>')) return Cmp::kGt;
    if (pos_ + 1 < text_.size() && text_[pos_] == '!' && text_[pos_ + 1] == '=') {
      pos_ += 2;
      return Cmp::kNeq;
    }
    Fail<int>("expected comparison operator (=, !=, <, >)");
    return std::nullopt;
  }

  std::vector<JoinAtom> ParseAtoms() {
    std::vector<JoinAtom> atoms;
    if (!Expect('[')) return atoms;
    if (Consume(']')) return atoms;  // Empty θ (cartesian product).
    for (;;) {
      auto left = ParseInt(false);
      auto op = ParseCmp();
      auto right = ParseInt(false);
      if (!ok_) return atoms;
      atoms.push_back({static_cast<std::size_t>(*left), *op,
                       static_cast<std::size_t>(*right)});
      if (Consume(';')) continue;
      Expect(']');
      return atoms;
    }
  }

  util::Result<ExprPtr> ParseBinary(
      ExprPtr (*make)(ExprPtr, ExprPtr, std::vector<JoinAtom>),
      std::vector<JoinAtom> atoms) {
    if (!Expect('(')) return Fail<ExprPtr>("expected '('");
    auto left = ParseExpr();
    if (!ok_) return left;
    if (!Expect(',')) return Fail<ExprPtr>("expected ','");
    auto right = ParseExpr();
    if (!ok_) return right;
    if (!Expect(')')) return Fail<ExprPtr>("expected ')'");
    // Defer arity/column validation errors to CHECKs only after validating
    // here, so malformed text yields a parse error instead of an abort.
    const std::size_t n = left.value()->arity();
    const std::size_t m = right.value()->arity();
    for (const auto& atom : atoms) {
      if (atom.left < 1 || atom.left > n || atom.right < 1 || atom.right > m) {
        return Fail<ExprPtr>(util::StrCat("join atom column out of range: ", atom.left,
                                          CmpToString(atom.op), atom.right));
      }
    }
    return make(std::move(left).value(), std::move(right).value(), std::move(atoms));
  }

  util::Result<ExprPtr> ParseExpr() {
    SkipSpace();
    if (depth_ == kMaxExprDepth) {
      return Fail<ExprPtr>(
          util::StrCat("expression nested deeper than ", kMaxExprDepth, " levels"));
    }
    ++depth_;
    auto expr = ParseLevel();
    --depth_;
    return expr;
  }

  // One level of the grammar; ParseExpr counts the levels.
  util::Result<ExprPtr> ParseLevel() {
    if (Consume('(')) {
      auto inner = ParseExpr();
      if (!ok_) return inner;
      if (!Expect(')')) return Fail<ExprPtr>("expected ')'");
      return inner;
    }
    const std::string ident = ParseIdent();
    if (ident.empty()) return Fail<ExprPtr>("expected expression");

    if (ident == "union" || ident == "diff" || ident == "product") {
      if (!Expect('(')) return Fail<ExprPtr>("expected '('");
      auto left = ParseExpr();
      if (!ok_) return left;
      if (!Expect(',')) return Fail<ExprPtr>("expected ','");
      auto right = ParseExpr();
      if (!ok_) return right;
      if (!Expect(')')) return Fail<ExprPtr>("expected ')'");
      if (ident == "product") {
        return Product(std::move(left).value(), std::move(right).value());
      }
      if (left.value()->arity() != right.value()->arity()) {
        return Fail<ExprPtr>(util::StrCat(ident, " arity mismatch: ",
                                          left.value()->arity(), " vs ",
                                          right.value()->arity()));
      }
      return ident == "union" ? Union(std::move(left).value(), std::move(right).value())
                              : Diff(std::move(left).value(), std::move(right).value());
    }
    if (ident == "join" || ident == "semijoin") {
      auto atoms = ParseAtoms();
      if (!ok_) return util::Result<ExprPtr>::Error(error_);
      return ParseBinary(ident == "join" ? &Join : &SemiJoin, std::move(atoms));
    }
    if (ident == "pi") {
      if (!Expect('[')) return Fail<ExprPtr>("expected '['");
      std::vector<std::size_t> columns;
      if (!Consume(']')) {
        for (;;) {
          auto col = ParseInt(false);
          if (!ok_) return util::Result<ExprPtr>::Error(error_);
          columns.push_back(static_cast<std::size_t>(*col));
          if (Consume(',')) continue;
          if (!Expect(']')) return Fail<ExprPtr>("expected ']'");
          break;
        }
      }
      if (!Expect('(')) return Fail<ExprPtr>("expected '('");
      auto input = ParseExpr();
      if (!ok_) return input;
      if (!Expect(')')) return Fail<ExprPtr>("expected ')'");
      for (std::size_t c : columns) {
        if (c < 1 || c > input.value()->arity()) {
          return Fail<ExprPtr>(util::StrCat("projection column out of range: ", c));
        }
      }
      return Project(std::move(input).value(), std::move(columns));
    }
    if (ident == "sigma") {
      if (!Expect('[')) return Fail<ExprPtr>("expected '['");
      auto i = ParseInt(false);
      auto op = ParseCmp();
      if (!ok_) return util::Result<ExprPtr>::Error(error_);
      if (*op != Cmp::kEq && *op != Cmp::kLt) {
        return Fail<ExprPtr>("selection supports only '=' and '<'");
      }
      bool constant_rhs = Consume('#');
      auto j = ParseInt(constant_rhs);
      if (!ok_) return util::Result<ExprPtr>::Error(error_);
      if (!Expect(']')) return Fail<ExprPtr>("expected ']'");
      if (!Expect('(')) return Fail<ExprPtr>("expected '('");
      auto input = ParseExpr();
      if (!ok_) return input;
      if (!Expect(')')) return Fail<ExprPtr>("expected ')'");
      const std::size_t arity = input.value()->arity();
      if (*i < 1 || static_cast<std::size_t>(*i) > arity) {
        return Fail<ExprPtr>(util::StrCat("selection column out of range: ", *i));
      }
      if (constant_rhs) {
        if (*op != Cmp::kEq) {
          return Fail<ExprPtr>("constant selection supports only '='");
        }
        return SelectConst(std::move(input).value(), static_cast<std::size_t>(*i),
                           static_cast<core::Value>(*j));
      }
      if (*j < 1 || static_cast<std::size_t>(*j) > arity) {
        return Fail<ExprPtr>(util::StrCat("selection column out of range: ", *j));
      }
      return *op == Cmp::kEq
                 ? SelectEq(std::move(input).value(), static_cast<std::size_t>(*i),
                            static_cast<std::size_t>(*j))
                 : SelectLt(std::move(input).value(), static_cast<std::size_t>(*i),
                            static_cast<std::size_t>(*j));
    }
    if (ident == "tag") {
      if (!Expect('[')) return Fail<ExprPtr>("expected '['");
      auto value = ParseInt(true);
      if (!ok_) return util::Result<ExprPtr>::Error(error_);
      if (!Expect(']')) return Fail<ExprPtr>("expected ']'");
      if (!Expect('(')) return Fail<ExprPtr>("expected '('");
      auto input = ParseExpr();
      if (!ok_) return input;
      if (!Expect(')')) return Fail<ExprPtr>("expected ')'");
      return Tag(std::move(input).value(), static_cast<core::Value>(*value));
    }

    // Plain relation reference.
    if (!schema_.HasRelation(ident)) {
      pos_ -= ident.size();  // Located at the name.
      return Fail<ExprPtr>(util::StrCat("unknown relation: ", ident));
    }
    return Rel(ident, schema_.Arity(ident));
  }

  const std::string& text_;
  const core::Schema& schema_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // ParseExpr calls on the current path.
  bool ok_ = true;
  std::string error_;
};

}  // namespace

util::Result<ExprPtr> Parse(const std::string& text, const core::Schema& schema) {
  Parser parser(text, schema);
  return parser.Run();
}

}  // namespace setalg::ra
