#include "engine/multiway.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "core/relation.h"
#include "engine/parallel.h"
#include "util/check.h"

namespace setalg::engine {
namespace {

// One input relation prepared for the generic-join kernel: columns
// permuted into ascending join-variable order (one column per distinct
// variable; rows where duplicate-variable columns disagree are dropped),
// then normalized — the flat sorted storage *is* the trie the leapfrog
// cursors walk.
struct PreparedInput {
  core::Relation relation{0};
  std::vector<std::size_t> vars;  // Ascending distinct variables.
};

PreparedInput PrepareInput(const core::Relation& input,
                           const std::vector<std::size_t>& column_vars) {
  PreparedInput prepared;
  const std::size_t arity = column_vars.size();
  prepared.vars = column_vars;
  std::sort(prepared.vars.begin(), prepared.vars.end());
  prepared.vars.erase(std::unique(prepared.vars.begin(), prepared.vars.end()),
                      prepared.vars.end());
  core::Relation out(prepared.vars.size());
  out.Reserve(input.size());
  // For each output column (a distinct variable), the first input column
  // bound to it; the remaining columns bound to it must agree row-wise.
  std::vector<std::size_t> pick(prepared.vars.size());
  for (std::size_t v = 0; v < prepared.vars.size(); ++v) {
    pick[v] = std::find(column_vars.begin(), column_vars.end(), prepared.vars[v]) -
              column_vars.begin();
  }
  const std::vector<core::Value>& flat = input.flat();
  std::vector<core::Value> row(prepared.vars.size());
  for (std::size_t i = 0; i < input.size(); ++i) {
    const core::Value* t = flat.data() + i * arity;
    bool consistent = true;
    for (std::size_t c = 0; c < arity && consistent; ++c) {
      consistent = t[c] == t[pick[std::lower_bound(prepared.vars.begin(),
                                                   prepared.vars.end(), column_vars[c]) -
                                 prepared.vars.begin()]];
    }
    if (!consistent) continue;
    for (std::size_t v = 0; v < prepared.vars.size(); ++v) row[v] = t[pick[v]];
    out.Add(core::TupleView(row.data(), row.size()));
  }
  out.Normalize();
  prepared.relation = std::move(out);
  return prepared;
}

// Galloping seek over one column of a flat sorted row-major range: the
// first row in [lo, hi) whose value in column `col` is not `before` the
// target. Within [lo, hi) all columns left of `col` are constant (the
// bound prefix), so column `col` is sorted there. The seek probes lo,
// lo+1, lo+3, lo+7, ... and binary-searches the last bracket, so moving
// the cursor d rows costs O(log d) comparisons, not O(log(hi - lo)): a
// leapfrog intersection is charged by its smaller side.
template <typename Before>
std::size_t GallopRow(const core::Value* flat, std::size_t arity, std::size_t col,
                      std::size_t lo, std::size_t hi, Before before) {
  std::size_t probe = lo;
  std::size_t step = 1;
  while (probe < hi && before(flat[probe * arity + col])) {
    lo = probe + 1;
    probe += step;
    step <<= 1;
  }
  hi = std::min(probe, hi);
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (before(flat[mid * arity + col])) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// The first row in [lo, hi) whose column `col` is >= v.
std::size_t LowerBoundRow(const core::Value* flat, std::size_t arity, std::size_t col,
                          std::size_t lo, std::size_t hi, core::Value v) {
  return GallopRow(flat, arity, col, lo, hi, [v](core::Value x) { return x < v; });
}

// The first row in [lo, hi) whose column `col` is > v.
std::size_t UpperBoundRow(const core::Value* flat, std::size_t arity, std::size_t col,
                          std::size_t lo, std::size_t hi, core::Value v) {
  return GallopRow(flat, arity, col, lo, hi, [v](core::Value x) { return x <= v; });
}

// The generic-join recursion over prepared inputs: binds variables in
// ascending order; at each level leapfrogs the relations containing the
// variable to their common values, each cursor galloping forward from
// where it stands (LowerBoundRow), and narrows each one's row range to the
// matching block (UpperBoundRow, from the same cursor) before recursing.
// Emits bindings in lexicographic order (each level iterates values
// ascending), so the output is born sorted and distinct.
class GenericJoin {
 public:
  GenericJoin(const std::vector<const PreparedInput*>& inputs, std::size_t num_vars,
              core::Relation* out)
      : num_vars_(num_vars), out_(out) {
    rels_.reserve(inputs.size());
    for (const PreparedInput* p : inputs) {
      rels_.push_back(Rel{p->relation.flat().data(), p->relation.arity(), 0,
                          p->relation.size()});
    }
    occupants_.resize(num_vars);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const auto& vars = inputs[i]->vars;
      for (std::size_t c = 0; c < vars.size(); ++c) {
        occupants_[vars[c]].push_back(Occupant{i, c});
      }
    }
    scratch_.resize(num_vars);
    for (std::size_t d = 0; d < num_vars; ++d) {
      scratch_[d].resize(occupants_[d].size());
    }
    binding_.resize(num_vars);
  }

  void Run() {
    for (std::size_t d = 0; d < num_vars_; ++d) {
      SETALG_CHECK(!occupants_[d].empty());  // Factory-validated coverage.
    }
    Search(0);
  }

 private:
  struct Rel {
    const core::Value* flat;
    std::size_t arity;
    std::size_t lo;
    std::size_t hi;
  };
  struct Occupant {
    std::size_t rel;
    std::size_t col;
  };
  struct Cursor {
    std::size_t saved_lo;
    std::size_t saved_hi;
    std::size_t pos;
    std::size_t end;
  };

  core::Value ValueAt(const Rel& r, std::size_t col, std::size_t row) const {
    return r.flat[row * r.arity + col];
  }

  void Search(std::size_t d) {
    if (d == num_vars_) {
      out_->Add(core::TupleView(binding_.data(), num_vars_));
      return;
    }
    const auto& occ = occupants_[d];
    auto& cur = scratch_[d];
    for (std::size_t j = 0; j < occ.size(); ++j) {
      Rel& r = rels_[occ[j].rel];
      cur[j] = Cursor{r.lo, r.hi, r.lo, r.lo};
      if (r.lo == r.hi) return;  // An empty range: no binding at this level.
    }
    // Leapfrog: seek every occupant to >= the current max value; when all
    // agree, recurse into the matching blocks and resume past them.
    core::Value v = ValueAt(rels_[occ[0].rel], occ[0].col, cur[0].pos);
    for (std::size_t j = 1; j < occ.size(); ++j) {
      v = std::max(v, ValueAt(rels_[occ[j].rel], occ[j].col, cur[j].pos));
    }
    bool exhausted = false;
    while (!exhausted) {
      std::size_t agree = 0;
      std::size_t j = 0;
      while (agree < occ.size()) {
        const Rel& r = rels_[occ[j].rel];
        cur[j].pos = LowerBoundRow(r.flat, r.arity, occ[j].col, cur[j].pos,
                                   cur[j].saved_hi, v);
        if (cur[j].pos == cur[j].saved_hi) {
          exhausted = true;
          break;
        }
        const core::Value val = ValueAt(r, occ[j].col, cur[j].pos);
        if (val > v) {
          v = val;
          agree = 1;
        } else {
          ++agree;
        }
        j = (j + 1) % occ.size();
      }
      if (exhausted) break;
      for (std::size_t i = 0; i < occ.size(); ++i) {
        Rel& r = rels_[occ[i].rel];
        cur[i].end = UpperBoundRow(r.flat, r.arity, occ[i].col, cur[i].pos,
                                   cur[i].saved_hi, v);
        r.lo = cur[i].pos;
        r.hi = cur[i].end;
      }
      binding_[d] = v;
      Search(d + 1);
      for (std::size_t i = 0; i < occ.size(); ++i) {
        Rel& r = rels_[occ[i].rel];
        r.lo = cur[i].saved_lo;  // Restore before the next value.
        r.hi = cur[i].saved_hi;
        cur[i].pos = cur[i].end;
        exhausted |= cur[i].pos == cur[i].saved_hi;
      }
      if (exhausted) break;
      v = ValueAt(rels_[occ[0].rel], occ[0].col, cur[0].pos);
      for (std::size_t i = 1; i < occ.size(); ++i) {
        v = std::max(v, ValueAt(rels_[occ[i].rel], occ[i].col, cur[i].pos));
      }
    }
    for (std::size_t i = 0; i < occ.size(); ++i) {
      Rel& r = rels_[occ[i].rel];
      r.lo = cur[i].saved_lo;
      r.hi = cur[i].saved_hi;
    }
  }

  std::size_t num_vars_;
  core::Relation* out_;
  std::vector<Rel> rels_;
  std::vector<std::vector<Occupant>> occupants_;
  std::vector<std::vector<Cursor>> scratch_;  // Per depth; recursion is
                                              // depth-sequential, so safe.
  std::vector<core::Value> binding_;
};

// Runs the kernel over one set of prepared inputs. Zero-ary inputs (no
// variables) act as booleans: an empty one empties the join, a non-empty
// one is the unit {()}.
core::Relation RunGenericJoin(const std::vector<const PreparedInput*>& prepared,
                              std::size_t num_vars) {
  core::Relation out(num_vars);
  for (const PreparedInput* p : prepared) {
    if (p->vars.empty() && p->relation.empty()) return out;
  }
  std::vector<const PreparedInput*> active;
  active.reserve(prepared.size());
  for (const PreparedInput* p : prepared) {
    if (!p->vars.empty()) active.push_back(p);
  }
  if (active.empty()) {  // All-boolean, all non-empty: the unit relation.
    out.Add(core::TupleView());
    return out;
  }
  GenericJoin(active, num_vars, &out).Run();
  out.Normalize();
  return out;
}

class MultiwayJoinOp;

// Blocking iterator: Open() materializes and prepares every input, runs
// the kernel (serial, or partitioned by variable 0 across the run's
// worker pool when the inputs binding it are large enough), and streams
// the normalized result.
class MultiwayIterator final : public BatchIterator {
 public:
  MultiwayIterator(ExecContext& ctx, std::vector<std::unique_ptr<BatchIterator>> inputs,
                   const MultiwayJoinOp* op)
      : ctx_(ctx), inputs_(std::move(inputs)), op_(op), result_(0) {}

  void Open() override;

  bool NextBatch(Batch& out) override {
    pos_ = StreamRelationRows(result_, pos_, &out);
    return !out.empty();
  }

  void Close() override {}
  bool distinct() const override { return true; }  // Normalized result.

 private:
  ExecContext& ctx_;
  std::vector<std::unique_ptr<BatchIterator>> inputs_;
  const MultiwayJoinOp* op_;
  core::Relation result_;
  std::size_t pos_ = 0;
};

class MultiwayJoinOp final : public PhysicalOp {
 public:
  MultiwayJoinOp(std::vector<PhysicalOpPtr> children,
                 std::vector<std::vector<std::size_t>> column_vars, std::size_t num_vars,
                 const ra::Expr* source)
      : PhysicalOp(num_vars, std::move(children), source),
        column_vars_(std::move(column_vars)), num_vars_(num_vars) {}

  std::string label() const override {
    return "multiway-join[k=" + std::to_string(children().size()) +
           ", vars=" + std::to_string(num_vars_) + "]";
  }

  std::unique_ptr<BatchIterator> MakeBatchIterator(
      ExecContext& ctx, std::vector<std::unique_ptr<BatchIterator>> inputs) const override {
    return std::make_unique<MultiwayIterator>(ctx, std::move(inputs), this);
  }

  PhysicalOpPtr WithChildren(std::vector<PhysicalOpPtr> new_children) const override {
    return MakeMultiwayJoin(std::move(new_children), column_vars_, num_vars_, source());
  }

  const std::vector<std::vector<std::size_t>>& column_vars() const {
    return column_vars_;
  }
  std::size_t num_vars() const { return num_vars_; }

 private:
  std::vector<std::vector<std::size_t>> column_vars_;
  std::size_t num_vars_;
};

void MultiwayIterator::Open() {
  const std::size_t k = inputs_.size();
  // Consume every input on the driving thread (the batch contract: each
  // stream consumed at most once, front to back).
  std::vector<MaterializedInput> materialized;
  materialized.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    materialized.push_back(MaterializedInput::From(
        inputs_[i].get(), op_->column_vars()[i].size(), ctx_.batch_size()));
  }
  std::vector<PreparedInput> prepared;
  prepared.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    prepared.push_back(PrepareInput(materialized[i].get(), op_->column_vars()[i]));
  }

  // Split every input containing variable 0 by its value (column 1 of
  // the prepared relation — variables are stored ascending, and
  // MakeMultiwayJoin checks that some input covers variable 0); share the
  // rest read-only. The width follows the rows split. Each binding's
  // variable-0 value routes it to exactly one partition, so the
  // per-partition outputs are disjoint and their ordered merge equals the
  // serial result bit for bit.
  const auto splits_on_key = [](const PreparedInput& p) {
    return !p.vars.empty() && p.vars[0] == 0;
  };
  std::size_t split_rows = 0;
  for (const PreparedInput& p : prepared) {
    if (splits_on_key(p)) split_rows += p.relation.size();
  }
  const std::size_t parts = PartitionCount(ctx_, split_rows);
  std::vector<std::vector<PreparedInput>> splits(k);
  if (parts > 1) {
    for (std::size_t i = 0; i < k; ++i) {
      if (!splits_on_key(prepared[i])) continue;
      std::vector<core::Relation> pieces =
          PartitionByColumn(prepared[i].relation, 1, parts);
      splits[i].reserve(parts);
      for (auto& piece : pieces) {
        splits[i].push_back(PreparedInput{std::move(piece), prepared[i].vars});
      }
    }
  }
  const std::size_t num_vars = op_->num_vars();
  std::vector<PartitionTask> tasks;
  tasks.reserve(parts);
  for (std::size_t p = 0; p < parts; ++p) {
    tasks.push_back([&, p] {
      // Shared (unsplit) inputs are pre-normalized on the driving
      // thread, so concurrent reads never race on lazy normalization.
      std::vector<const PreparedInput*> local;
      local.reserve(k);
      for (std::size_t i = 0; i < k; ++i) {
        local.push_back(splits[i].empty() ? &prepared[i] : &splits[i][p]);
      }
      return RunGenericJoin(local, num_vars);
    });
  }
  result_ = RunPartitionTasks(ctx_, num_vars, tasks);
  ctx_.CountJoinRows(result_.size());
  pos_ = 0;
}

}  // namespace

PhysicalOpPtr MakeMultiwayJoin(std::vector<PhysicalOpPtr> children,
                               std::vector<std::vector<std::size_t>> column_vars,
                               std::size_t num_vars, const ra::Expr* source) {
  SETALG_CHECK(children.size() >= 2);
  SETALG_CHECK(children.size() == column_vars.size());
  std::vector<bool> covered(num_vars, false);
  for (std::size_t i = 0; i < children.size(); ++i) {
    SETALG_CHECK(children[i]->arity() == column_vars[i].size());
    for (std::size_t v : column_vars[i]) {
      SETALG_CHECK(v < num_vars);
      covered[v] = true;
    }
  }
  for (std::size_t v = 0; v < num_vars; ++v) SETALG_CHECK(covered[v]);
  return std::make_shared<MultiwayJoinOp>(std::move(children), std::move(column_vars),
                                          num_vars, source);
}

}  // namespace setalg::engine
