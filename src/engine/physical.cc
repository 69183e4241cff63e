#include "engine/physical.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "core/index.h"
#include "engine/parallel.h"
#include "sa/fast_semijoin.h"
#include "setjoin/grouped.h"
#include "util/check.h"

namespace setalg::engine {

ExecContext::ExecContext(const core::DatabaseView* db, PlanStats* stats,
                         std::size_t batch_size, std::size_t threads)
    : db_(db), stats_(stats), batch_size_(batch_size == 0 ? 1 : batch_size),
      threads_(threads == 0 ? 1 : threads) {}

ExecContext::~ExecContext() = default;

WorkerPool& ExecContext::pool() {
  if (pool_ == nullptr) pool_ = std::make_unique<WorkerPool>(threads_);
  return *pool_;
}

namespace {

using core::Relation;
using core::TupleView;
using core::Value;

bool CompareValues(core::Value a, ra::Cmp op, core::Value b) {
  switch (op) {
    case ra::Cmp::kEq:
      return a == b;
    case ra::Cmp::kNeq:
      return a != b;
    case ra::Cmp::kLt:
      return a < b;
    case ra::Cmp::kGt:
      return a > b;
  }
  return false;
}

// Checks the non-equality conjuncts of θ against a pair of rows.
bool ResidualHolds(const std::vector<ra::JoinAtom>& residual, core::TupleView left,
                   core::TupleView right) {
  for (const auto& atom : residual) {
    if (!CompareValues(left[atom.left - 1], atom.op, right[atom.right - 1])) {
      return false;
    }
  }
  return true;
}

// Splits θ into its equality part (used for hashing) and the residual.
void SplitAtoms(const std::vector<ra::JoinAtom>& atoms, std::vector<ra::JoinAtom>* eq,
                std::vector<ra::JoinAtom>* residual) {
  for (const auto& atom : atoms) {
    (atom.op == ra::Cmp::kEq ? eq : residual)->push_back(atom);
  }
}

std::string AtomsToString(const std::vector<ra::JoinAtom>& atoms) {
  std::ostringstream out;
  for (std::size_t k = 0; k < atoms.size(); ++k) {
    if (k > 0) out << ",";
    out << atoms[k].left << ra::CmpToString(atoms[k].op) << atoms[k].right;
  }
  return out.str();
}

std::string ColumnsToString(const std::vector<std::size_t>& columns) {
  std::ostringstream out;
  for (std::size_t k = 0; k < columns.size(); ++k) {
    if (k > 0) out << ",";
    out << columns[k];
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// Generic iterator adapters.
// ---------------------------------------------------------------------------

// Streaming unary transform: pulls input rows one at a time, emits 0..1
// output rows per input row via Emit().
class StreamingUnaryIterator : public BatchIterator {
 public:
  StreamingUnaryIterator(std::unique_ptr<BatchIterator> input, std::size_t in_arity,
                         std::size_t batch_size)
      : input_(std::move(input)), cursor_(input_.get(), in_arity, batch_size) {}

  void Open() override { cursor_.Open(); }
  void Close() override { cursor_.Close(); }

  bool NextBatch(Batch& out) override {
    out.Clear();
    TupleView row;
    while (!out.full() && cursor_.Next(&row)) Emit(row, &out);
    return !out.empty();
  }

 protected:
  virtual void Emit(TupleView row, Batch* out) = 0;

 private:
  std::unique_ptr<BatchIterator> input_;
  RowCursor cursor_;
};

// ---------------------------------------------------------------------------
// Relational-algebra operators.
// ---------------------------------------------------------------------------

class ScanIterator final : public BatchIterator {
 public:
  ScanIterator(ExecContext& ctx, const std::string* name, std::size_t arity)
      : ctx_(ctx), name_(name), arity_(arity) {}

  void Open() override {
    Resolve();
    pos_ = 0;
  }

  bool NextBatch(Batch& out) override {
    pos_ = StreamRelationRows(*relation_, pos_, &out);
    return !out.empty();
  }

  void Close() override {}
  bool distinct() const override { return true; }  // Stored sets are normalized.

  // The stored relation itself. Normalized here, on the driving thread,
  // because lazy normalization writes storage.
  const Relation* TakeRelation() override {
    Resolve();
    relation_->Normalize();
    return relation_;
  }

 private:
  void Resolve() {
    SETALG_CHECK_STREAM(ctx_.db().schema().HasRelation(*name_))
        << "plan references unknown relation " << *name_;
    relation_ = &ctx_.db().relation(*name_);
    SETALG_CHECK_EQ(relation_->arity(), arity_);
  }

  ExecContext& ctx_;
  const std::string* name_;
  std::size_t arity_;
  const Relation* relation_ = nullptr;
  std::size_t pos_ = 0;
};

class ScanOp final : public PhysicalOp {
 public:
  ScanOp(std::string name, std::size_t arity, const ra::Expr* source)
      : PhysicalOp(arity, {}, source), name_(std::move(name)) {}

  std::string label() const override { return "scan " + name_; }

  std::unique_ptr<BatchIterator> MakeBatchIterator(
      ExecContext& ctx, std::vector<std::unique_ptr<BatchIterator>>) const override {
    return std::make_unique<ScanIterator>(ctx, &name_, arity());
  }

  const std::string* scan_relation() const override { return &name_; }
  bool sorted_output() const override { return true; }  // Normalized storage.

 private:
  std::string name_;
};

// Streams the left input's batches through untouched, then the right's;
// the overlap makes the stream non-distinct — downstream dedup restores
// set semantics.
class UnionIterator final : public BatchIterator {
 public:
  explicit UnionIterator(std::vector<std::unique_ptr<BatchIterator>> inputs)
      : inputs_(std::move(inputs)) {}

  void Open() override {
    inputs_[0]->Open();
    inputs_[1]->Open();
  }

  bool NextBatch(Batch& out) override {
    if (!left_done_) {
      if (inputs_[0]->NextBatch(out)) return true;
      left_done_ = true;
    }
    return inputs_[1]->NextBatch(out);
  }

  void Close() override {
    inputs_[0]->Close();
    inputs_[1]->Close();
  }

 private:
  std::vector<std::unique_ptr<BatchIterator>> inputs_;
  bool left_done_ = false;
};

class UnionOp final : public PhysicalOp {
 public:
  UnionOp(PhysicalOpPtr left, PhysicalOpPtr right, const ra::Expr* source)
      : PhysicalOp(left->arity(), {left, right}, source) {}

  std::string label() const override { return "union"; }

  std::unique_ptr<BatchIterator> MakeBatchIterator(
      ExecContext&,
      std::vector<std::unique_ptr<BatchIterator>> inputs) const override {
    return std::make_unique<UnionIterator>(std::move(inputs));
  }
};

// Anti-join by hash: the right side builds a row set on Open, the left
// side streams through it.
class DifferenceIterator final : public BatchIterator {
 public:
  DifferenceIterator(std::vector<std::unique_ptr<BatchIterator>> inputs,
                     std::size_t arity, std::size_t batch_size)
      : inputs_(std::move(inputs)),
        left_(inputs_[0].get(), arity, batch_size),
        right_(inputs_[1].get(), arity, batch_size),
        excluded_(arity) {}

  void Open() override {
    left_.Open();
    right_.Open();
    TupleView row;
    while (right_.Next(&row)) excluded_.Insert(row);
  }

  bool NextBatch(Batch& out) override {
    out.Clear();
    TupleView row;
    while (!out.full() && left_.Next(&row)) {
      if (!excluded_.Contains(row)) out.Add(row);
    }
    return !out.empty();
  }

  void Close() override {
    left_.Close();
    right_.Close();
  }

  bool distinct() const override { return true; }  // Subset of the left set.

 private:
  std::vector<std::unique_ptr<BatchIterator>> inputs_;
  RowCursor left_;
  RowCursor right_;
  RowSet excluded_;
};

class DifferenceOp final : public PhysicalOp {
 public:
  DifferenceOp(PhysicalOpPtr left, PhysicalOpPtr right, const ra::Expr* source)
      : PhysicalOp(left->arity(), {left, right}, source) {}

  std::string label() const override { return "difference"; }

  std::unique_ptr<BatchIterator> MakeBatchIterator(
      ExecContext& ctx,
      std::vector<std::unique_ptr<BatchIterator>> inputs) const override {
    return std::make_unique<DifferenceIterator>(std::move(inputs), arity(),
                                                ctx.batch_size());
  }
};

class ProjectIterator final : public StreamingUnaryIterator {
 public:
  ProjectIterator(std::unique_ptr<BatchIterator> input, std::size_t in_arity,
                  const std::vector<std::size_t>* columns, bool distinct,
                  std::size_t batch_size)
      : StreamingUnaryIterator(std::move(input), in_arity, batch_size),
        columns_(columns),
        distinct_(distinct),
        row_(columns->size()) {}

  bool distinct() const override { return distinct_; }

 protected:
  void Emit(TupleView t, Batch* out) override {
    for (std::size_t k = 0; k < columns_->size(); ++k) {
      row_[k] = t[(*columns_)[k] - 1];
    }
    out->Add(row_);
  }

 private:
  const std::vector<std::size_t>* columns_;
  bool distinct_;
  core::Tuple row_;
};

class ProjectOp final : public PhysicalOp {
 public:
  ProjectOp(PhysicalOpPtr input, std::vector<std::size_t> columns,
            const ra::Expr* source)
      : PhysicalOp(columns.size(), {std::move(input)}, source),
        columns_(std::move(columns)) {
    std::vector<bool> kept(child(0)->arity(), false);
    for (std::size_t c : columns_) kept[c - 1] = true;
    injective_ = std::find(kept.begin(), kept.end(), false) == kept.end();
  }

  std::string label() const override {
    return "project[" + ColumnsToString(columns_) + "]";
  }

  std::unique_ptr<BatchIterator> MakeBatchIterator(
      ExecContext& ctx,
      std::vector<std::unique_ptr<BatchIterator>> inputs) const override {
    // A projection keeping every input column maps distinct rows to
    // distinct rows; one that drops a column may merge them.
    const bool distinct = injective_ && inputs[0]->distinct();
    return std::make_unique<ProjectIterator>(std::move(inputs[0]), child(0)->arity(),
                                             &columns_, distinct, ctx.batch_size());
  }

  const std::vector<std::size_t>& columns() const { return columns_; }

 private:
  std::vector<std::size_t> columns_;
  bool injective_ = false;  // Every input column is kept.
};

class SelectIterator final : public StreamingUnaryIterator {
 public:
  SelectIterator(std::unique_ptr<BatchIterator> input, std::size_t in_arity,
                 ra::Cmp op, std::size_t i, std::size_t j, std::size_t batch_size)
      : StreamingUnaryIterator(std::move(input), in_arity, batch_size),
        op_(op),
        i_(i),
        j_(j) {}

  bool distinct() const override { return true; }  // Subset of a set input.

 protected:
  void Emit(TupleView t, Batch* out) override {
    if (CompareValues(t[i_ - 1], op_, t[j_ - 1])) out->Add(t);
  }

 private:
  ra::Cmp op_;
  std::size_t i_;
  std::size_t j_;
};

class SelectOp final : public PhysicalOp {
 public:
  SelectOp(PhysicalOpPtr input, ra::Cmp op, std::size_t i, std::size_t j,
           const ra::Expr* source)
      : PhysicalOp(input->arity(), {input}, source), op_(op), i_(i), j_(j) {}

  std::string label() const override {
    std::ostringstream out;
    out << "select[" << i_ << ra::CmpToString(op_) << j_ << "]";
    return out.str();
  }

  std::unique_ptr<BatchIterator> MakeBatchIterator(
      ExecContext& ctx,
      std::vector<std::unique_ptr<BatchIterator>> inputs) const override {
    return std::make_unique<SelectIterator>(std::move(inputs[0]), arity(), op_, i_, j_,
                                            ctx.batch_size());
  }

 private:
  ra::Cmp op_;
  std::size_t i_;
  std::size_t j_;
};

class ConstTagIterator final : public StreamingUnaryIterator {
 public:
  ConstTagIterator(std::unique_ptr<BatchIterator> input, std::size_t in_arity,
                   core::Value value, std::size_t batch_size)
      : StreamingUnaryIterator(std::move(input), in_arity, batch_size),
        value_(value),
        row_(in_arity + 1) {}

  bool distinct() const override { return true; }  // Injective on a set input.

 protected:
  void Emit(TupleView t, Batch* out) override {
    std::copy(t.begin(), t.end(), row_.begin());
    row_.back() = value_;
    out->Add(row_);
  }

 private:
  core::Value value_;
  core::Tuple row_;
};

class ConstTagOp final : public PhysicalOp {
 public:
  ConstTagOp(PhysicalOpPtr input, core::Value value, const ra::Expr* source)
      : PhysicalOp(input->arity() + 1, {input}, source), value_(value) {}

  std::string label() const override {
    std::ostringstream out;
    out << "tag[" << value_ << "]";
    return out.str();
  }

  std::unique_ptr<BatchIterator> MakeBatchIterator(
      ExecContext& ctx,
      std::vector<std::unique_ptr<BatchIterator>> inputs) const override {
    return std::make_unique<ConstTagIterator>(std::move(inputs[0]), arity() - 1,
                                              value_, ctx.batch_size());
  }

 private:
  core::Value value_;
};

// θ-join with a streaming probe side: Open() materializes the right
// (build) input and hashes its equality columns; NextBatch() probes one
// left row at a time, spilling past-capacity matches into a carry-over
// buffer so a single wide probe never loses rows.
class JoinIterator final : public BatchIterator {
 public:
  JoinIterator(ExecContext& ctx, std::vector<std::unique_ptr<BatchIterator>> inputs,
               const std::vector<ra::JoinAtom>* atoms, std::size_t left_arity,
               std::size_t right_arity)
      : ctx_(ctx),
        inputs_(std::move(inputs)),
        left_(inputs_[0].get(), left_arity, ctx.batch_size()),
        left_arity_(left_arity),
        right_arity_(right_arity),
        out_arity_(left_arity + right_arity),
        row_(out_arity_) {
    SplitAtoms(*atoms, &eq_, &residual_);
  }

  void Open() override {
    left_.Open();
    right_ = MaterializedInput::From(inputs_[1].get(), right_arity_,
                                     ctx_.batch_size());
    if (!eq_.empty()) {
      std::vector<std::size_t> right_cols;
      right_cols.reserve(eq_.size());
      for (const auto& atom : eq_) right_cols.push_back(atom.right - 1);
      index_.emplace(&right_.get(), std::move(right_cols));
      key_.resize(eq_.size());
    }
  }

  bool NextBatch(Batch& out) override {
    out.Clear();
    FlushPending(&out);
    const Relation& right = right_.get();
    TupleView lt;
    // After FlushPending either the spill is empty or `out` is full, so
    // this loop never interleaves spilled and fresh probes out of order.
    while (!out.full() && left_.Next(&lt)) {
      if (!eq_.empty()) {
        for (std::size_t k = 0; k < eq_.size(); ++k) key_[k] = lt[eq_[k].left - 1];
        index_->ForEachMatch(key_, [&](std::size_t r) {
          TupleView rt = right.tuple(r);
          if (ResidualHolds(residual_, lt, rt)) EmitRow(lt, rt, &out);
        });
      } else {
        // Pure inequality (or cartesian) join: nested loop over the build.
        for (std::size_t j = 0; j < right.size(); ++j) {
          TupleView rt = right.tuple(j);
          if (ResidualHolds(residual_, lt, rt)) EmitRow(lt, rt, &out);
        }
      }
    }
    return !out.empty();
  }

  void Close() override { left_.Close(); }

  // Distinct inputs make every (left, right) combination unique.
  bool distinct() const override { return true; }

 private:
  void EmitRow(TupleView lt, TupleView rt, Batch* out) {
    std::copy(lt.begin(), lt.end(), row_.begin());
    std::copy(rt.begin(), rt.end(),
              row_.begin() + static_cast<std::ptrdiff_t>(left_arity_));
    ctx_.CountJoinRows(1);
    if (!out->full()) {
      out->Add(row_);
    } else {
      pending_.insert(pending_.end(), row_.begin(), row_.end());
    }
  }

  void FlushPending(Batch* out) {
    while (pending_pos_ < pending_.size() && !out->full()) {
      out->Add(TupleView(pending_.data() + pending_pos_, out_arity_));
      pending_pos_ += out_arity_;
    }
    if (pending_pos_ >= pending_.size()) {
      pending_.clear();
      pending_pos_ = 0;
    }
  }

  ExecContext& ctx_;
  std::vector<std::unique_ptr<BatchIterator>> inputs_;
  RowCursor left_;
  std::size_t left_arity_;
  std::size_t right_arity_;
  std::size_t out_arity_;
  std::vector<ra::JoinAtom> eq_;
  std::vector<ra::JoinAtom> residual_;
  MaterializedInput right_;
  std::optional<core::HashIndex> index_;
  core::Tuple key_;
  core::Tuple row_;
  std::vector<Value> pending_;  // Rows overflowing a full output batch.
  std::size_t pending_pos_ = 0;
};

class JoinOp final : public PhysicalOp {
 public:
  JoinOp(PhysicalOpPtr left, PhysicalOpPtr right, std::vector<ra::JoinAtom> atoms,
         const ra::Expr* source)
      : PhysicalOp(left->arity() + right->arity(), {left, right}, source),
        atoms_(std::move(atoms)) {}

  std::string label() const override { return "join[" + AtomsToString(atoms_) + "]"; }

  std::unique_ptr<BatchIterator> MakeBatchIterator(
      ExecContext& ctx,
      std::vector<std::unique_ptr<BatchIterator>> inputs) const override {
    return std::make_unique<JoinIterator>(ctx, std::move(inputs), &atoms_,
                                          child(0)->arity(), child(1)->arity());
  }

 private:
  std::vector<ra::JoinAtom> atoms_;
};

// The generic (reference) semijoin with a streaming probe side: right is
// built on Open, each left row passes through at most once.
class GenericSemiJoinIterator final : public BatchIterator {
 public:
  GenericSemiJoinIterator(ExecContext& ctx,
                          std::vector<std::unique_ptr<BatchIterator>> inputs,
                          const std::vector<ra::JoinAtom>* atoms,
                          std::size_t left_arity, std::size_t right_arity)
      : ctx_(ctx),
        inputs_(std::move(inputs)),
        left_(inputs_[0].get(), left_arity, ctx.batch_size()),
        right_arity_(right_arity) {
    SplitAtoms(*atoms, &eq_, &residual_);
  }

  void Open() override {
    left_.Open();
    right_ = MaterializedInput::From(inputs_[1].get(), right_arity_,
                                     ctx_.batch_size());
    if (!eq_.empty()) {
      std::vector<std::size_t> right_cols;
      right_cols.reserve(eq_.size());
      for (const auto& atom : eq_) right_cols.push_back(atom.right - 1);
      index_.emplace(&right_.get(), std::move(right_cols));
      key_.resize(eq_.size());
    }
  }

  bool NextBatch(Batch& out) override {
    out.Clear();
    TupleView lt;
    while (!out.full() && left_.Next(&lt)) {
      if (Matches(lt)) out.Add(lt);
    }
    return !out.empty();
  }

  void Close() override { left_.Close(); }
  bool distinct() const override { return true; }  // Subset of the left set.

 private:
  bool Matches(TupleView lt) {
    const Relation& right = right_.get();
    if (!eq_.empty()) {
      for (std::size_t k = 0; k < eq_.size(); ++k) key_[k] = lt[eq_[k].left - 1];
      bool found = false;
      index_->ForEachMatch(key_, [&](std::size_t r) {
        if (!found && ResidualHolds(residual_, lt, right.tuple(r))) found = true;
      });
      return found;
    }
    if (residual_.empty()) {
      // θ empty: the left tuple survives iff the right side is nonempty.
      return !right.empty();
    }
    for (std::size_t j = 0; j < right.size(); ++j) {
      if (ResidualHolds(residual_, lt, right.tuple(j))) return true;
    }
    return false;
  }

  ExecContext& ctx_;
  std::vector<std::unique_ptr<BatchIterator>> inputs_;
  RowCursor left_;
  std::size_t right_arity_;
  std::vector<ra::JoinAtom> eq_;
  std::vector<ra::JoinAtom> residual_;
  MaterializedInput right_;
  std::optional<core::HashIndex> index_;
  core::Tuple key_;
};

class SemiJoinOp final : public PhysicalOp {
 public:
  SemiJoinOp(PhysicalOpPtr left, PhysicalOpPtr right, std::vector<ra::JoinAtom> atoms,
             SemijoinStrategy strategy, const ra::Expr* source)
      : PhysicalOp(left->arity(), {left, right}, source),
        atoms_(std::move(atoms)),
        strategy_(strategy) {}

  std::string label() const override {
    return std::string("semijoin[") + AtomsToString(atoms_) + "]" +
           (strategy_ == SemijoinStrategy::kFastKernel ? " (fast)" : " (generic)");
  }

  std::unique_ptr<BatchIterator> MakeBatchIterator(
      ExecContext& ctx,
      std::vector<std::unique_ptr<BatchIterator>> inputs) const override {
    if (strategy_ == SemijoinStrategy::kGeneric) {
      return std::make_unique<GenericSemiJoinIterator>(
          ctx, std::move(inputs), &atoms_, child(0)->arity(), child(1)->arity());
    }
    // The sa:: kernels pick their own access paths over whole relations,
    // so the fast strategy materializes both sides even when serial.
    // Co-partition both sides by the first equality atom: rows that can
    // match share that atom's value, hence a partition, so the disjoint
    // (left is partitioned) per-partition semijoins union to the serial
    // output. No equality atom → no co-partitioning key → one partition.
    const ra::JoinAtom* eq = ra::FirstEqualityAtom(atoms_);
    const std::size_t left_arity = child(0)->arity();
    const std::size_t right_arity = child(1)->arity();
    const auto* atoms = &atoms_;
    return std::make_unique<PartitionedIterator>(
        ctx, arity(), std::move(inputs),
        [&ctx, left_arity, right_arity, eq,
         atoms](std::vector<std::unique_ptr<BatchIterator>>& streams) {
          auto left = std::make_shared<const MaterializedInput>(
              MaterializedInput::From(streams[0].get(), left_arity, ctx.batch_size()));
          auto right = std::make_shared<const MaterializedInput>(
              MaterializedInput::From(streams[1].get(), right_arity, ctx.batch_size()));
          const std::size_t parts =
              eq == nullptr ? 1
                            : PartitionCount(ctx, left->get().size() + right->get().size());
          if (parts == 1) {
            return std::vector<PartitionTask>{[left, right, atoms] {
              return sa::Semijoin(left->get(), right->get(), *atoms);
            }};
          }
          auto left_parts = std::make_shared<std::vector<Relation>>(
              PartitionByColumn(left->get(), eq->left, parts));
          auto right_parts = std::make_shared<std::vector<Relation>>(
              PartitionByColumn(right->get(), eq->right, parts));
          std::vector<PartitionTask> tasks;
          tasks.reserve(parts);
          for (std::size_t p = 0; p < parts; ++p) {
            tasks.push_back([left_parts, right_parts, p, atoms] {
              return sa::Semijoin((*left_parts)[p], (*right_parts)[p], *atoms);
            });
          }
          return tasks;
        });
  }

 private:
  std::vector<ra::JoinAtom> atoms_;
  SemijoinStrategy strategy_;
};

// ---------------------------------------------------------------------------
// Division: one plan at every width (MakeDivision in physical.h).
// ---------------------------------------------------------------------------

class DivisionOp final : public PhysicalOp {
 public:
  DivisionOp(PhysicalOpPtr dividend, PhysicalOpPtr divisor,
             setjoin::DivisionAlgorithm algorithm, bool equality,
             const ra::Expr* source)
      : PhysicalOp(1, {std::move(dividend), std::move(divisor)}, source),
        algorithm_(algorithm),
        equality_(equality) {}

  std::string label() const override {
    return std::string(equality_ ? "division=[" : "division[") +
           setjoin::DivisionAlgorithmToString(algorithm_) + "]";
  }

  std::unique_ptr<BatchIterator> MakeBatchIterator(
      ExecContext& ctx,
      std::vector<std::unique_ptr<BatchIterator>> inputs) const override {
    const auto algorithm = algorithm_;
    const bool equality = equality_;
    const bool single_pass = algorithm == setjoin::DivisionAlgorithm::kHashDivision ||
                             algorithm == setjoin::DivisionAlgorithm::kAggregate;
    const bool scan = child(0)->scan_relation() != nullptr;
    return std::make_unique<PartitionedIterator>(
        ctx, arity(), std::move(inputs),
        [&ctx, scan, single_pass, algorithm,
         equality](std::vector<std::unique_ptr<BatchIterator>>& streams) {
          // The divisor (build side) is consumed first, on the driving
          // thread, and normalized here so workers only ever read it.
          auto divisor = std::make_shared<MaterializedInput>(
              MaterializedInput::From(streams[1].get(), 1, ctx.batch_size()));
          divisor->get().Normalize();
          BatchIterator* stream = streams[0].get();
          const Relation* whole = stream->TakeRelation();
          if (whole == nullptr && single_pass) {
            // A derived dividend feeds the single-pass kernel batch by
            // batch, in any order, in state sized by its groups and the
            // divisor: no drain, no sort and no split, at any width.
            auto kernel = std::make_shared<setjoin::SinglePassDivision>(
                divisor->get(), algorithm, equality);
            Batch batch(2, ctx.batch_size());
            stream->Open();
            while (stream->NextBatch(batch)) {
              kernel->Consume(batch.values().data(), batch.size());
            }
            stream->Close();
            return std::vector<PartitionTask>{[kernel] { return kernel->Finish(); }};
          }
          // Any other dividend is read sorted on column 1 and cut into key
          // ranges. Every group lies wholly in one range, so dividing each
          // range against the shared divisor yields key-disjoint slices of
          // the serial result, for every algorithm.
          auto dividend = whole != nullptr ? std::make_shared<const MaterializedInput>(
                                                 MaterializedInput::Borrow(*whole))
                                           : ReadSortedInput(ctx, stream, 2);
          return KeyRangeTasks(
              ctx, std::move(dividend), scan,
              [divisor, algorithm, equality](const Value* rows, std::size_t count) {
                return setjoin::DivideRows(rows, count, divisor->get(), algorithm,
                                           equality);
              });
        });
  }

  bool sorted_output() const override { return true; }  // Normalized keys.

 private:
  setjoin::DivisionAlgorithm algorithm_;
  bool equality_;
};

// ---------------------------------------------------------------------------
// Set joins. Grouping is inherently blocking (a group's elements may span
// the whole stream), so the three set joins are one operator that differs
// only in its label and kernel. Both inputs come through ReadSortedInput,
// sorted on column 1: the right side is grouped once on the driving
// thread and shared read-only, the left side is cut into key ranges
// (KeyRanges) and each range's task groups its own rows in place. The
// output is keyed on the left group in column 1, so per-range kernel
// outputs are disjoint and the fan-in reproduces the serial result; a
// serial run is the same plan with one range.
// ---------------------------------------------------------------------------

using SetJoinKernel = std::function<Relation(const setjoin::GroupedRelation&,
                                             const setjoin::GroupedRelation&)>;

class SetJoinOp final : public PhysicalOp {
 public:
  SetJoinOp(PhysicalOpPtr left, PhysicalOpPtr right, std::string label,
            SetJoinKernel kernel, const ra::Expr* source)
      : PhysicalOp(2, {std::move(left), std::move(right)}, source),
        label_(std::move(label)),
        kernel_(std::move(kernel)) {}

  std::string label() const override { return label_; }

  std::unique_ptr<BatchIterator> MakeBatchIterator(
      ExecContext& ctx,
      std::vector<std::unique_ptr<BatchIterator>> inputs) const override {
    const bool scan = child(0)->scan_relation() != nullptr;
    const SetJoinKernel* kernel = &kernel_;
    return std::make_unique<PartitionedIterator>(
        ctx, 2, std::move(inputs),
        [&ctx, scan, kernel](std::vector<std::unique_ptr<BatchIterator>>& streams) {
          auto left = ReadSortedInput(ctx, streams[0].get(), 2);
          auto right = std::make_shared<const setjoin::GroupedRelation>(
              ReadSortedInput(ctx, streams[1].get(), 2)->get());
          return KeyRangeTasks(ctx, std::move(left), scan,
                               [right, kernel](const Value* rows, std::size_t count) {
                                 return (*kernel)(setjoin::GroupedRelation(rows, count),
                                                  *right);
                               });
        });
  }

  bool sorted_output() const override { return true; }  // Normalized merge.

 private:
  std::string label_;
  SetJoinKernel kernel_;
};

void AppendTree(const PhysicalOp& op, std::size_t depth, std::string* out) {
  out->append(2 * depth, ' ');
  out->append(op.label());
  out->push_back('\n');
  for (const auto& child : op.children()) AppendTree(*child, depth + 1, out);
}

void CollectScans(const PhysicalOpPtr& op,
                  std::unordered_set<const PhysicalOp*>* seen,
                  std::vector<std::string>* names) {
  if (!seen->insert(op.get()).second) return;  // Shared subplans walk once.
  if (const std::string* name = op->scan_relation()) names->push_back(*name);
  for (const auto& child : op->children()) CollectScans(child, seen, names);
}

}  // namespace

const char* CacheOutcomeToString(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kUncached:
      return "uncached";
    case CacheOutcome::kMiss:
      return "miss";
    case CacheOutcome::kHit:
      return "hit";
    case CacheOutcome::kRevalidated:
      return "revalidated";
    case CacheOutcome::kRepicked:
      return "repicked";
    case CacheOutcome::kResultHit:
      return "result-hit";
  }
  return "?";
}

std::vector<std::string> CollectScanRelations(const PhysicalOpPtr& root) {
  std::vector<std::string> names;
  std::unordered_set<const PhysicalOp*> seen;
  if (root != nullptr) CollectScans(root, &seen, &names);
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

std::string PhysicalOp::ToString() const {
  std::string out;
  AppendTree(*this, 0, &out);
  return out;
}

PhysicalOpPtr MakeScan(std::string relation_name, std::size_t arity,
                       const ra::Expr* source) {
  return std::make_shared<ScanOp>(std::move(relation_name), arity, source);
}

PhysicalOpPtr MakeUnion(PhysicalOpPtr left, PhysicalOpPtr right,
                        const ra::Expr* source) {
  SETALG_CHECK_EQ(left->arity(), right->arity());
  return std::make_shared<UnionOp>(std::move(left), std::move(right), source);
}

PhysicalOpPtr MakeDifference(PhysicalOpPtr left, PhysicalOpPtr right,
                             const ra::Expr* source) {
  SETALG_CHECK_EQ(left->arity(), right->arity());
  return std::make_shared<DifferenceOp>(std::move(left), std::move(right), source);
}

PhysicalOpPtr MakeProject(PhysicalOpPtr input, std::vector<std::size_t> columns,
                          const ra::Expr* source) {
  for (std::size_t c : columns) {
    SETALG_CHECK_STREAM(c >= 1 && c <= input->arity())
        << "projection column " << c << " out of range for arity " << input->arity();
  }
  return std::make_shared<ProjectOp>(std::move(input), std::move(columns), source);
}

PhysicalOpPtr MakeSelect(PhysicalOpPtr input, ra::Cmp op, std::size_t i, std::size_t j,
                         const ra::Expr* source) {
  SETALG_CHECK_STREAM(i >= 1 && i <= input->arity() && j >= 1 && j <= input->arity())
      << "selection columns " << i << "," << j << " out of range";
  return std::make_shared<SelectOp>(std::move(input), op, i, j, source);
}

PhysicalOpPtr MakeConstTag(PhysicalOpPtr input, core::Value value,
                           const ra::Expr* source) {
  return std::make_shared<ConstTagOp>(std::move(input), value, source);
}

PhysicalOpPtr MakeJoin(PhysicalOpPtr left, PhysicalOpPtr right,
                       std::vector<ra::JoinAtom> atoms, const ra::Expr* source) {
  for (const auto& atom : atoms) {
    SETALG_CHECK_STREAM(atom.left >= 1 && atom.left <= left->arity() &&
                        atom.right >= 1 && atom.right <= right->arity())
        << "join atom out of range";
  }
  return std::make_shared<JoinOp>(std::move(left), std::move(right), std::move(atoms),
                                  source);
}

PhysicalOpPtr MakeSemiJoin(PhysicalOpPtr left, PhysicalOpPtr right,
                           std::vector<ra::JoinAtom> atoms, SemijoinStrategy strategy,
                           const ra::Expr* source) {
  for (const auto& atom : atoms) {
    SETALG_CHECK_STREAM(atom.left >= 1 && atom.left <= left->arity() &&
                        atom.right >= 1 && atom.right <= right->arity())
        << "semijoin atom out of range";
  }
  return std::make_shared<SemiJoinOp>(std::move(left), std::move(right),
                                      std::move(atoms), strategy, source);
}

PhysicalOpPtr MakeDivision(PhysicalOpPtr dividend, PhysicalOpPtr divisor,
                           setjoin::DivisionAlgorithm algorithm, bool equality,
                           const ra::Expr* source) {
  SETALG_CHECK_EQ(dividend->arity(), 2u);
  SETALG_CHECK_EQ(divisor->arity(), 1u);
  return std::make_shared<DivisionOp>(std::move(dividend), std::move(divisor),
                                      algorithm, equality, source);
}

PhysicalOpPtr MakeSetContainmentJoin(PhysicalOpPtr left, PhysicalOpPtr right,
                                     setjoin::ContainmentAlgorithm algorithm,
                                     const ra::Expr* source) {
  SETALG_CHECK_EQ(left->arity(), 2u);
  SETALG_CHECK_EQ(right->arity(), 2u);
  return std::make_shared<SetJoinOp>(
      std::move(left), std::move(right),
      std::string("set-containment-join[") +
          setjoin::ContainmentAlgorithmToString(algorithm) + "]",
      [algorithm](const setjoin::GroupedRelation& l, const setjoin::GroupedRelation& r) {
        return setjoin::SetContainmentJoin(l, r, algorithm);
      },
      source);
}

PhysicalOpPtr MakeSetEqualityJoin(PhysicalOpPtr left, PhysicalOpPtr right,
                                  setjoin::EqualityJoinAlgorithm algorithm,
                                  const ra::Expr* source) {
  SETALG_CHECK_EQ(left->arity(), 2u);
  SETALG_CHECK_EQ(right->arity(), 2u);
  return std::make_shared<SetJoinOp>(
      std::move(left), std::move(right),
      std::string("set-equality-join[") +
          setjoin::EqualityJoinAlgorithmToString(algorithm) + "]",
      [algorithm](const setjoin::GroupedRelation& l, const setjoin::GroupedRelation& r) {
        return setjoin::SetEqualityJoin(l, r, algorithm);
      },
      source);
}

PhysicalOpPtr MakeSetOverlapJoin(PhysicalOpPtr left, PhysicalOpPtr right,
                                 const ra::Expr* source) {
  SETALG_CHECK_EQ(left->arity(), 2u);
  SETALG_CHECK_EQ(right->arity(), 2u);
  return std::make_shared<SetJoinOp>(
      std::move(left), std::move(right), "set-overlap-join",
      [](const setjoin::GroupedRelation& l, const setjoin::GroupedRelation& r) {
        return setjoin::SetOverlapJoin(l, r);
      },
      source);
}

}  // namespace setalg::engine
