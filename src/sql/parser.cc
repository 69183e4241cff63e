#include "sql/parser.h"

#include <algorithm>
#include <cctype>
#include <utility>

#include "ra/parse.h"
#include "sql/lexer.h"
#include "util/str.h"

namespace setalg::sql {
namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  util::Result<QueryPtr> ParseStatement() {
    std::size_t height = 0;
    auto query = ParseQuery(&height);
    if (!query.ok()) return query;
    if (Peek().kind != TokenKind::kEnd) {
      return Err(Peek(), util::StrCat("unexpected '", Peek().text,
                                      "' after the end of the query"));
    }
    return query;
  }

 private:
  const Token& Peek(std::size_t ahead = 0) const {
    const std::size_t i = pos_ + ahead;
    return tokens_[i < tokens_.size() ? i : tokens_.size() - 1];
  }
  const Token& Next() {
    const Token& t = Peek();
    if (pos_ + 1 < tokens_.size()) ++pos_;
    return t;
  }
  bool AtKeyword(const char* kw) const {
    return Peek().kind == TokenKind::kKeyword && Peek().text == kw;
  }
  bool EatKeyword(const char* kw) {
    if (!AtKeyword(kw)) return false;
    Next();
    return true;
  }
  bool Eat(TokenKind kind) {
    if (Peek().kind != kind) return false;
    Next();
    return true;
  }

  static util::Result<QueryPtr> Err(const Token& at, const std::string& message) {
    return util::Result<QueryPtr>::Error(LocatedError(at.line, at.column, message));
  }

  util::Result<QueryPtr> Expect(TokenKind kind, const char* what) {
    if (Peek().kind != kind) {
      return Err(Peek(), util::StrCat("expected ", what, ", got '", Peek().text, "'"));
    }
    Next();
    return QueryPtr();  // Dummy ok value; callers only check ok().
  }

  // Depth accounting. A node's height counts the levels its subtree
  // stacks: one per nested query or parenthesis, FROM item, conjunct and
  // set-operation operand past the first; sibling subqueries overlap
  // rather than add. depth_ holds the levels stacked above the node being
  // parsed, so checking depth_ + height at every step refuses a statement
  // at the token that takes it past ra::kMaxExprDepth, before anything
  // deeper is parsed.
  util::Result<QueryPtr> CheckDepth(std::size_t height, const Token& at) const {
    if (depth_ + height <= ra::kMaxExprDepth) return QueryPtr();
    return Err(at, util::StrCat("statement nested deeper than ", ra::kMaxExprDepth,
                                " levels"));
  }

  // Parses `( query )` one level below the node being parsed; *height
  // receives the level plus the query's height.
  util::Result<QueryPtr> ParseNested(std::size_t* height) {
    const Token& open = Peek();
    auto paren = Expect(TokenKind::kLParen, "'('");
    if (!paren.ok()) return paren;
    auto deep = CheckDepth(1, open);
    if (!deep.ok()) return deep;
    ++depth_;
    std::size_t inner_height = 0;
    auto inner = ParseQuery(&inner_height);
    --depth_;
    if (!inner.ok()) return inner;
    auto close = Expect(TokenKind::kRParen, "')'");
    if (!close.ok()) return close;
    *height = inner_height + 1;
    return inner;
  }

  util::Result<QueryPtr> ParseQuery(std::size_t* height) {
    auto left = ParseTerm(height);
    if (!left.ok()) return left;
    QueryPtr tree = std::move(*left);
    for (;;) {
      Query::Op op;
      if (AtKeyword("UNION")) {
        op = Query::Op::kUnion;
      } else if (AtKeyword("EXCEPT")) {
        op = Query::Op::kExcept;
      } else if (AtKeyword("INTERSECT")) {
        op = Query::Op::kIntersect;
      } else {
        break;
      }
      const Token& op_token = Next();
      // Each further operand stacks one more set operation on the chain.
      auto deep = CheckDepth(++*height, op_token);
      if (!deep.ok()) return deep;
      std::size_t right_height = 0;
      ++depth_;
      auto right = ParseTerm(&right_height);
      --depth_;
      if (!right.ok()) return right;
      *height = std::max(*height, right_height + 1);
      auto node = std::make_unique<Query>();
      node->op = op;
      node->left = std::move(tree);
      node->right = std::move(*right);
      node->line = op_token.line;
      node->column_pos = op_token.column;
      tree = std::move(node);
    }
    return tree;
  }

  util::Result<QueryPtr> ParseTerm(std::size_t* height) {
    if (Peek().kind == TokenKind::kLParen) return ParseNested(height);
    return ParseSelect(height);
  }

  util::Result<QueryPtr> ParseSelect(std::size_t* height) {
    if (!AtKeyword("SELECT")) {
      return Err(Peek(), util::StrCat("expected SELECT, got '", Peek().text, "'"));
    }
    const Token& select_token = Next();
    auto select = std::make_unique<Select>();
    select->line = select_token.line;
    select->column_pos = select_token.column;
    select->distinct = EatKeyword("DISTINCT");

    if (Eat(TokenKind::kStar)) {
      select->select_star = true;
    } else {
      for (;;) {
        auto column = ParseColumnRef();
        if (!column.ok()) return util::Result<QueryPtr>::Error(column.error());
        select->columns.push_back(std::move(*column));
        if (!Eat(TokenKind::kComma)) break;
      }
    }

    if (!EatKeyword("FROM")) {
      return Err(Peek(), util::StrCat("expected FROM, got '", Peek().text, "'"));
    }
    // The FROM items and conjuncts stack (a left-deep join, then the
    // WHERE steps); a conjunct's subquery nests under the items before it.
    std::size_t items = 0;
    std::size_t deepest = 0;  // Height of the highest subquery so far.
    for (;;) {
      if (Peek().kind != TokenKind::kIdent) {
        return Err(Peek(),
                   util::StrCat("expected a table name, got '", Peek().text, "'"));
      }
      auto deep = CheckDepth(++items, Peek());
      if (!deep.ok()) return deep;
      const Token& table = Next();
      TableRef ref;
      ref.table = table.text;
      ref.alias = table.text;
      ref.line = table.line;
      ref.column_pos = table.column;
      if (Peek().kind == TokenKind::kIdent) {
        ref.alias = Next().text;
      }
      select->from.push_back(std::move(ref));
      if (!Eat(TokenKind::kComma)) break;
    }

    if (EatKeyword("WHERE")) {
      for (;;) {
        auto deep = CheckDepth(++items + deepest, Peek());
        if (!deep.ok()) return deep;
        std::size_t nested = 0;
        depth_ += items;
        auto conjunct = ParseConjunct(&nested);
        depth_ -= items;
        if (!conjunct.ok()) return util::Result<QueryPtr>::Error(conjunct.error());
        deepest = std::max(deepest, nested);
        select->where.push_back(std::move(*conjunct));
        if (!EatKeyword("AND")) break;
      }
    }
    *height = items + deepest;

    auto query = std::make_unique<Query>();
    query->op = Query::Op::kSelect;
    query->line = select->line;
    query->column_pos = select->column_pos;
    query->select = std::move(select);
    return QueryPtr(std::move(query));
  }

  util::Result<ColumnRef> ParseColumnRef() {
    if (Peek().kind != TokenKind::kIdent) {
      return util::Result<ColumnRef>::Error(LocatedError(
          Peek().line, Peek().column,
          util::StrCat("expected a column reference, got '", Peek().text, "'")));
    }
    const Token& first = Next();
    ColumnRef ref;
    ref.line = first.line;
    ref.column_pos = first.column;
    if (Eat(TokenKind::kDot)) {
      if (Peek().kind != TokenKind::kIdent) {
        return util::Result<ColumnRef>::Error(LocatedError(
            Peek().line, Peek().column,
            util::StrCat("expected a column name after '", first.text, ".', got '",
                         Peek().text, "'")));
      }
      ref.qualifier = first.text;
      ref.column = Next().text;
    } else {
      ref.column = first.text;
    }
    return ref;
  }

  util::Result<ra::Cmp> ParseCmp() {
    switch (Peek().kind) {
      case TokenKind::kEq: Next(); return ra::Cmp::kEq;
      case TokenKind::kNeq: Next(); return ra::Cmp::kNeq;
      case TokenKind::kLt: Next(); return ra::Cmp::kLt;
      case TokenKind::kGt: Next(); return ra::Cmp::kGt;
      default:
        return util::Result<ra::Cmp>::Error(LocatedError(
            Peek().line, Peek().column,
            util::StrCat("expected a comparison operator, got '", Peek().text, "'")));
    }
  }

  // *nested receives the height of the conjunct's subquery (0 without one).
  util::Result<Predicate> ParseConjunct(std::size_t* nested) {
    Predicate pred;
    pred.line = Peek().line;
    pred.column_pos = Peek().column;

    // [NOT] EXISTS (query)
    const bool not_prefix = AtKeyword("NOT");
    if (not_prefix && Peek(1).kind == TokenKind::kKeyword && Peek(1).text == "EXISTS") {
      Next();
    }
    if (AtKeyword("EXISTS")) {
      Next();
      pred.kind = Predicate::Kind::kExists;
      pred.negated = not_prefix;
      auto sub = ParseNested(nested);
      if (!sub.ok()) return util::Result<Predicate>::Error(sub.error());
      pred.subquery = std::move(*sub);
      return pred;
    }
    if (not_prefix) {
      return util::Result<Predicate>::Error(LocatedError(
          Peek().line, Peek().column,
          util::StrCat("expected EXISTS after NOT, got '", Peek().text, "'")));
    }

    // NUMBER cmp columnRef — normalized to columnRef cmp' NUMBER.
    if (Peek().kind == TokenKind::kNumber) {
      const Token& literal = Next();
      auto cmp = ParseCmp();
      if (!cmp.ok()) return util::Result<Predicate>::Error(cmp.error());
      auto column = ParseColumnRef();
      if (!column.ok()) return util::Result<Predicate>::Error(column.error());
      pred.kind = Predicate::Kind::kColumnConst;
      pred.lhs = std::move(*column);
      pred.op = ra::MirrorCmp(*cmp);
      pred.constant = literal.number;
      return pred;
    }

    auto lhs = ParseColumnRef();
    if (!lhs.ok()) return util::Result<Predicate>::Error(lhs.error());
    pred.lhs = std::move(*lhs);

    // columnRef [NOT] IN (query)
    if (AtKeyword("NOT") || AtKeyword("IN")) {
      pred.negated = EatKeyword("NOT");
      if (!EatKeyword("IN")) {
        return util::Result<Predicate>::Error(LocatedError(
            Peek().line, Peek().column,
            util::StrCat("expected IN after NOT, got '", Peek().text, "'")));
      }
      pred.kind = Predicate::Kind::kIn;
      auto sub = ParseNested(nested);
      if (!sub.ok()) return util::Result<Predicate>::Error(sub.error());
      pred.subquery = std::move(*sub);
      return pred;
    }

    auto cmp = ParseCmp();
    if (!cmp.ok()) return util::Result<Predicate>::Error(cmp.error());
    pred.op = *cmp;
    if (Peek().kind == TokenKind::kNumber) {
      pred.kind = Predicate::Kind::kColumnConst;
      pred.constant = Next().number;
      return pred;
    }
    auto rhs = ParseColumnRef();
    if (!rhs.ok()) return util::Result<Predicate>::Error(rhs.error());
    pred.kind = Predicate::Kind::kColumnColumn;
    pred.rhs = std::move(*rhs);
    return pred;
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // Levels stacked above the node being parsed.
};

}  // namespace

util::Result<QueryPtr> Parse(const std::string& text) {
  auto tokens = Lex(text);
  if (!tokens.ok()) return util::Result<QueryPtr>::Error(tokens.error());
  Parser parser(std::move(*tokens));
  return parser.ParseStatement();
}

bool LooksLikeSql(const std::string& statement) {
  std::size_t i = 0;
  while (i < statement.size() &&
         (std::isspace(static_cast<unsigned char>(statement[i])) ||
          statement[i] == '(')) {
    ++i;
  }
  static constexpr char kSelect[] = "select";
  for (std::size_t k = 0; k < 6; ++k) {
    if (i + k >= statement.size() ||
        std::tolower(static_cast<unsigned char>(statement[i + k])) != kSelect[k]) {
      return false;
    }
  }
  // A following identifier character would make it a plain identifier
  // (e.g. an RA relation named "selection").
  const std::size_t after = i + 6;
  return after >= statement.size() ||
         (!std::isalnum(static_cast<unsigned char>(statement[after])) &&
          statement[after] != '_');
}

}  // namespace setalg::sql
