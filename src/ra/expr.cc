#include "ra/expr.h"

#include <algorithm>
#include <unordered_set>

#include "util/check.h"
#include "util/hash.h"
#include "util/str.h"

namespace setalg::ra {
namespace {

struct ExprDeleter {
  void operator()(Expr* e) const { delete e; }
};

}  // namespace

class ExprFactory {
 public:
  static ExprPtr Make(OpKind kind, std::size_t arity, std::vector<ExprPtr> children) {
    auto* e = new Expr();
    e->kind_ = kind;
    e->arity_ = arity;
    e->children_ = std::move(children);
    return ExprPtr(e);
  }
  static void SetRelationName(const ExprPtr& p, std::string name) {
    Mutable(p)->relation_name_ = std::move(name);
  }
  static void SetProjection(const ExprPtr& p, std::vector<std::size_t> columns) {
    Mutable(p)->projection_ = std::move(columns);
  }
  static void SetSelection(const ExprPtr& p, Cmp op, std::size_t i, std::size_t j) {
    Expr* e = Mutable(p);
    e->selection_op_ = op;
    e->selection_i_ = i;
    e->selection_j_ = j;
  }
  static void SetTagValue(const ExprPtr& p, core::Value c) {
    Mutable(p)->tag_value_ = c;
  }
  static void SetAtoms(const ExprPtr& p, std::vector<JoinAtom> atoms) {
    Mutable(p)->atoms_ = std::move(atoms);
  }

 private:
  static Expr* Mutable(const ExprPtr& p) { return const_cast<Expr*>(p.get()); }
};

const char* CmpToString(Cmp cmp) {
  switch (cmp) {
    case Cmp::kEq:
      return "=";
    case Cmp::kNeq:
      return "!=";
    case Cmp::kLt:
      return "<";
    case Cmp::kGt:
      return ">";
  }
  return "?";
}

const JoinAtom* FirstEqualityAtom(const std::vector<JoinAtom>& atoms) {
  for (const auto& atom : atoms) {
    if (atom.op == Cmp::kEq) return &atom;
  }
  return nullptr;
}

Cmp MirrorCmp(Cmp cmp) {
  switch (cmp) {
    case Cmp::kEq:
      return Cmp::kEq;
    case Cmp::kNeq:
      return Cmp::kNeq;
    case Cmp::kLt:
      return Cmp::kGt;
    case Cmp::kGt:
      return Cmp::kLt;
  }
  return cmp;
}

namespace {

void CheckColumn(std::size_t column, std::size_t arity, const char* what) {
  SETALG_CHECK_STREAM(column >= 1 && column <= arity)
      << what << " column " << column << " out of range 1.." << arity;
}

void CheckAtoms(const std::vector<JoinAtom>& atoms, std::size_t left_arity,
                std::size_t right_arity) {
  for (const auto& atom : atoms) {
    CheckColumn(atom.left, left_arity, "join-left");
    CheckColumn(atom.right, right_arity, "join-right");
  }
}

}  // namespace

ExprPtr Rel(const std::string& name, std::size_t arity) {
  SETALG_CHECK(!name.empty());
  auto e = ExprFactory::Make(OpKind::kRelation, arity, {});
  ExprFactory::SetRelationName(e, name);
  return e;
}

ExprPtr Union(ExprPtr left, ExprPtr right) {
  SETALG_CHECK_EQ(left->arity(), right->arity());
  const std::size_t arity = left->arity();
  return ExprFactory::Make(OpKind::kUnion, arity,
                           {std::move(left), std::move(right)});
}

ExprPtr Diff(ExprPtr left, ExprPtr right) {
  SETALG_CHECK_EQ(left->arity(), right->arity());
  const std::size_t arity = left->arity();
  return ExprFactory::Make(OpKind::kDifference, arity,
                           {std::move(left), std::move(right)});
}

ExprPtr Project(ExprPtr input, std::vector<std::size_t> columns) {
  for (std::size_t c : columns) CheckColumn(c, input->arity(), "projection");
  auto e = ExprFactory::Make(OpKind::kProjection, columns.size(), {std::move(input)});
  ExprFactory::SetProjection(e, std::move(columns));
  return e;
}

namespace {

ExprPtr MakeSelection(ExprPtr input, Cmp op, std::size_t i, std::size_t j) {
  CheckColumn(i, input->arity(), "selection");
  CheckColumn(j, input->arity(), "selection");
  const std::size_t arity = input->arity();
  auto e = ExprFactory::Make(OpKind::kSelection, arity, {std::move(input)});
  ExprFactory::SetSelection(e, op, i, j);
  return e;
}

}  // namespace

ExprPtr SelectEq(ExprPtr input, std::size_t i, std::size_t j) {
  return MakeSelection(std::move(input), Cmp::kEq, i, j);
}

ExprPtr SelectLt(ExprPtr input, std::size_t i, std::size_t j) {
  return MakeSelection(std::move(input), Cmp::kLt, i, j);
}

ExprPtr Tag(ExprPtr input, core::Value c) {
  const std::size_t arity = input->arity() + 1;
  auto e = ExprFactory::Make(OpKind::kConstTag, arity, {std::move(input)});
  ExprFactory::SetTagValue(e, c);
  return e;
}

ExprPtr Join(ExprPtr left, ExprPtr right, std::vector<JoinAtom> atoms) {
  CheckAtoms(atoms, left->arity(), right->arity());
  const std::size_t arity = left->arity() + right->arity();
  auto e = ExprFactory::Make(OpKind::kJoin, arity, {std::move(left), std::move(right)});
  ExprFactory::SetAtoms(e, std::move(atoms));
  return e;
}

ExprPtr SemiJoin(ExprPtr left, ExprPtr right, std::vector<JoinAtom> atoms) {
  CheckAtoms(atoms, left->arity(), right->arity());
  const std::size_t arity = left->arity();
  auto e = ExprFactory::Make(OpKind::kSemiJoin, arity,
                             {std::move(left), std::move(right)});
  ExprFactory::SetAtoms(e, std::move(atoms));
  return e;
}

ExprPtr Product(ExprPtr left, ExprPtr right) {
  return Join(std::move(left), std::move(right), {});
}

ExprPtr SelectConst(ExprPtr input, std::size_t i, core::Value c) {
  const std::size_t n = input->arity();
  CheckColumn(i, n, "selection");
  std::vector<std::size_t> keep(n);
  for (std::size_t k = 0; k < n; ++k) keep[k] = k + 1;
  return Project(SelectEq(Tag(std::move(input), c), i, n + 1), std::move(keep));
}

ExprPtr EquiJoin(ExprPtr left, ExprPtr right,
                 std::vector<std::pair<std::size_t, std::size_t>> pairs) {
  std::vector<JoinAtom> atoms;
  atoms.reserve(pairs.size());
  for (const auto& [i, j] : pairs) atoms.push_back({i, Cmp::kEq, j});
  return Join(std::move(left), std::move(right), std::move(atoms));
}

ExprPtr EquiSemiJoin(ExprPtr left, ExprPtr right,
                     std::vector<std::pair<std::size_t, std::size_t>> pairs) {
  std::vector<JoinAtom> atoms;
  atoms.reserve(pairs.size());
  for (const auto& [i, j] : pairs) atoms.push_back({i, Cmp::kEq, j});
  return SemiJoin(std::move(left), std::move(right), std::move(atoms));
}

std::size_t Expr::NumNodes() const {
  std::size_t count = 1;
  for (const auto& child : children_) count += child->NumNodes();
  return count;
}

std::string Expr::ToString() const {
  switch (kind_) {
    case OpKind::kRelation:
      return relation_name_;
    case OpKind::kUnion:
      return util::StrCat("union(", children_[0]->ToString(), ", ",
                          children_[1]->ToString(), ")");
    case OpKind::kDifference:
      return util::StrCat("diff(", children_[0]->ToString(), ", ",
                          children_[1]->ToString(), ")");
    case OpKind::kProjection: {
      std::vector<std::string> cols;
      cols.reserve(projection_.size());
      for (std::size_t c : projection_) cols.push_back(std::to_string(c));
      return util::StrCat("pi[", util::Join(cols, ","), "](",
                          children_[0]->ToString(), ")");
    }
    case OpKind::kSelection:
      return util::StrCat("sigma[", selection_i_, CmpToString(selection_op_),
                          selection_j_, "](", children_[0]->ToString(), ")");
    case OpKind::kConstTag:
      return util::StrCat("tag[", tag_value_, "](", children_[0]->ToString(), ")");
    case OpKind::kJoin:
    case OpKind::kSemiJoin: {
      std::vector<std::string> parts;
      parts.reserve(atoms_.size());
      for (const auto& atom : atoms_) {
        parts.push_back(
            util::StrCat(atom.left, CmpToString(atom.op), atom.right));
      }
      const char* op = kind_ == OpKind::kJoin ? "join" : "semijoin";
      return util::StrCat(op, "[", util::Join(parts, ";"), "](",
                          children_[0]->ToString(), ", ",
                          children_[1]->ToString(), ")");
    }
  }
  return "?";
}

namespace {

template <typename Pred>
bool AllNodes(const Expr& e, Pred&& pred) {
  if (!pred(e)) return false;
  for (const auto& child : e.children()) {
    if (!AllNodes(*child, pred)) return false;
  }
  return true;
}

bool AtomsAllEq(const Expr& e) {
  return std::all_of(e.atoms().begin(), e.atoms().end(),
                     [](const JoinAtom& a) { return a.op == Cmp::kEq; });
}

}  // namespace

bool IsRa(const Expr& e) {
  return AllNodes(e, [](const Expr& n) { return n.kind() != OpKind::kSemiJoin; });
}

bool IsRaEq(const Expr& e) {
  return AllNodes(e, [](const Expr& n) {
    if (n.kind() == OpKind::kSemiJoin) return false;
    if (n.kind() == OpKind::kJoin) return AtomsAllEq(n);
    return true;
  });
}

bool IsSa(const Expr& e) {
  return AllNodes(e, [](const Expr& n) { return n.kind() != OpKind::kJoin; });
}

bool IsSaEq(const Expr& e) {
  return AllNodes(e, [](const Expr& n) {
    if (n.kind() == OpKind::kJoin) return false;
    if (n.kind() == OpKind::kSemiJoin) return AtomsAllEq(n);
    return true;
  });
}

core::ConstantSet CollectConstants(const Expr& e) {
  core::ConstantSet constants;
  for (const Expr* node : PostOrder(e)) {
    if (node->kind() == OpKind::kConstTag) constants.push_back(node->tag_value());
  }
  std::sort(constants.begin(), constants.end());
  constants.erase(std::unique(constants.begin(), constants.end()), constants.end());
  return constants;
}

std::vector<std::string> CollectRelationNames(const Expr& e) {
  std::vector<std::string> names;
  for (const Expr* node : PostOrder(e)) {
    if (node->kind() == OpKind::kRelation) names.push_back(node->relation_name());
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

std::string ValidateAgainstSchema(const Expr& e, const core::Schema& schema) {
  for (const Expr* node : PostOrder(e)) {
    if (node->kind() != OpKind::kRelation) continue;
    if (!schema.HasRelation(node->relation_name())) {
      return util::StrCat("unknown relation: ", node->relation_name());
    }
    if (schema.Arity(node->relation_name()) != node->arity()) {
      return util::StrCat("arity mismatch for ", node->relation_name(), ": schema has ",
                          schema.Arity(node->relation_name()), ", expression has ",
                          node->arity());
    }
  }
  return "";
}

namespace {

// One structural fact per combine, mixed in order: the hash
// distinguishes e.g. pi[1,2] from pi[2,1] and join[1=2] from join[2=1].
// The child count is mixed in too, so trees whose flattened token
// streams coincide but whose shapes differ cannot collide even for a
// future variable-arity operator (today every kind has a fixed count).
std::uint64_t HashNode(const Expr& e) {
  std::uint64_t h = util::HashCombine(util::kFnvOffsetBasis,
                                      static_cast<std::uint64_t>(e.kind()));
  h = util::HashCombine(h, e.arity());
  h = util::HashCombine(h, e.children().size());
  switch (e.kind()) {
    case OpKind::kRelation:
      h = util::HashCombine(h, util::FnvHashString(e.relation_name()));
      break;
    case OpKind::kProjection:
      h = util::HashCombine(h, e.projection().size());
      for (std::size_t c : e.projection()) h = util::HashCombine(h, c);
      break;
    case OpKind::kSelection:
      h = util::HashCombine(h, static_cast<std::uint64_t>(e.selection_op()));
      h = util::HashCombine(h, e.selection_i());
      h = util::HashCombine(h, e.selection_j());
      break;
    case OpKind::kConstTag:
      h = util::HashCombine(h, static_cast<std::uint64_t>(e.tag_value()));
      break;
    case OpKind::kJoin:
    case OpKind::kSemiJoin:
      h = util::HashCombine(h, e.atoms().size());
      for (const auto& atom : e.atoms()) {
        h = util::HashCombine(h, atom.left);
        h = util::HashCombine(h, static_cast<std::uint64_t>(atom.op));
        h = util::HashCombine(h, atom.right);
      }
      break;
    case OpKind::kUnion:
    case OpKind::kDifference:
      break;
  }
  return h;
}

}  // namespace

std::uint64_t StructuralHash(const Expr& e) {
  std::uint64_t h = HashNode(e);
  for (const auto& child : e.children()) {
    h = util::HashCombine(h, StructuralHash(*child));
  }
  return h;
}

bool StructuralEqual(const Expr& a, const Expr& b) {
  if (&a == &b) return true;
  if (a.kind() != b.kind() || a.arity() != b.arity()) return false;
  switch (a.kind()) {
    case OpKind::kRelation:
      if (a.relation_name() != b.relation_name()) return false;
      break;
    case OpKind::kProjection:
      if (a.projection() != b.projection()) return false;
      break;
    case OpKind::kSelection:
      if (a.selection_op() != b.selection_op() || a.selection_i() != b.selection_i() ||
          a.selection_j() != b.selection_j()) {
        return false;
      }
      break;
    case OpKind::kConstTag:
      if (a.tag_value() != b.tag_value()) return false;
      break;
    case OpKind::kJoin:
    case OpKind::kSemiJoin:
      if (a.atoms() != b.atoms()) return false;
      break;
    case OpKind::kUnion:
    case OpKind::kDifference:
      break;
  }
  if (a.children().size() != b.children().size()) return false;
  for (std::size_t i = 0; i < a.children().size(); ++i) {
    if (!StructuralEqual(*a.child(i), *b.child(i))) return false;
  }
  return true;
}

std::vector<const Expr*> PostOrder(const Expr& e) {
  std::vector<const Expr*> order;
  std::unordered_set<const Expr*> seen;
  // Iterative post-order over the DAG; each distinct node appears once.
  struct Frame {
    const Expr* node;
    std::size_t next_child;
  };
  std::vector<Frame> stack;
  stack.push_back({&e, 0});
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next_child < top.node->children().size()) {
      const Expr* child = top.node->children()[top.next_child].get();
      ++top.next_child;
      if (seen.find(child) == seen.end()) stack.push_back({child, 0});
      continue;
    }
    if (seen.insert(top.node).second) order.push_back(top.node);
    stack.pop_back();
  }
  return order;
}

}  // namespace setalg::ra
