// The batched (vectorized) execution surface beneath the physical
// operators: fixed-capacity tuple batches and the Open/NextBatch/Close
// iterator contract.
//
// Every operator is implemented batch-at-a-time exactly once
// (PhysicalOp::MakeBatchIterator). Engine runs compose the per-operator
// iterators into a pipeline that never materializes the streaming
// operators' outputs; the materializing reference
// (engine::RunMaterialized) drives the same iterators one operator at a
// time, over relation streamers of its children's materialized outputs.
// The complexity currency of the paper is unchanged — PlanStats still
// counts the (distinct) tuples each operator produces — and a pipelined
// run buffers one batch per operator edge, plus the blocking operators'
// state, plus an O(distinct output) dedup set on each edge whose stream
// may repeat tuples (a projection that drops a column, a union): set
// semantics is preserved exactly, not approximated.
//
// Iterator contract:
//   - Open() is called exactly once before the first NextBatch(); blocking
//     operators may fully consume their build-side inputs here.
//   - NextBatch(out) clears `out` and fills it with up to out.capacity()
//     rows; it returns false exactly when the stream is exhausted and no
//     rows were produced (a true return carries at least one row).
//   - Each input stream is consumed at most once, front to back; operators
//     needing random access materialize internally.
//   - Close() is called exactly once after the last NextBatch().
//   - distinct() advertises that no tuple is emitted twice across the whole
//     stream; consumers use it to skip redundant dedup work.
//   - TakeRelation(), asked instead of Open(), may hand a consumer that
//     needs the whole input anyway the relation behind the stream; the
//     stream is then consumed without any of the calls above.
#ifndef SETALG_ENGINE_BATCH_H_
#define SETALG_ENGINE_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/relation.h"
#include "core/tuple.h"

namespace setalg::engine {

/// The default EngineOptions::batch_size (tuples per batch).
inline constexpr std::size_t kDefaultBatchSize = 1024;

/// A fixed-capacity, row-major buffer of same-arity tuples. Unlike
/// core::Relation it has multiset semantics and never sorts — it is the
/// unit of flow between operators, not a materialized intermediate.
class Batch {
 public:
  Batch() = default;
  Batch(std::size_t arity, std::size_t capacity) { Reset(arity, capacity); }

  /// Re-configures arity/capacity and clears the contents.
  void Reset(std::size_t arity, std::size_t capacity);

  void Clear() {
    values_.clear();
    rows_ = 0;
  }

  std::size_t arity() const { return arity_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }
  bool full() const { return rows_ >= capacity_; }

  /// The i-th row, in insertion order (no normalization).
  core::TupleView row(std::size_t i) const {
    return core::TupleView(values_.data() + i * arity_, arity_);
  }

  /// Appends a row; the batch must not be full.
  void Add(core::TupleView t);

  /// Bulk-appends `rows` tuples stored row-major at `data` (arity must be
  /// non-zero; the batch must have room for all of them).
  void AddRows(const core::Value* data, std::size_t rows);

  /// The flat row-major contents (size() * arity() values).
  const std::vector<core::Value>& values() const { return values_; }

  /// Content bytes currently in the batch (used for
  /// PlanStats::peak_batch_bytes); bounded by capacity() * arity() values.
  std::size_t memory_bytes() const { return values_.size() * sizeof(core::Value); }

 private:
  std::size_t arity_ = 0;
  std::size_t capacity_ = 0;
  std::size_t rows_ = 0;
  std::vector<core::Value> values_;
};

/// Appends every row of `batch` to `out` (same arity).
void AppendBatchTo(const Batch& batch, core::Relation* out);

/// Copies rows [pos, pos + out->capacity()) of a normalized relation into
/// `out` (bulk, memcpy-speed); returns the new position. The shared
/// kernel of every stream-a-relation iterator.
std::size_t StreamRelationRows(const core::Relation& relation, std::size_t pos,
                               Batch* out);

/// The pull-based batch stream interface (see the contract above).
class BatchIterator {
 public:
  virtual ~BatchIterator() = default;

  virtual void Open() = 0;
  virtual bool NextBatch(Batch& out) = 0;
  virtual void Close() = 0;

  /// True when no tuple is emitted twice across the stream's lifetime.
  virtual bool distinct() const { return false; }

  /// Hands the consumer the whole relation behind this stream — normalized,
  /// exactly the rows a full drain would produce — to read in place, or
  /// returns null and leaves the stream untouched. Asked instead of
  /// Open(), on the driving thread: on success the stream counts as
  /// consumed, no Open(), NextBatch() or Close() follows, and the relation
  /// stays valid and unchanged for the rest of the run. Stored scans and
  /// relation streamers hand theirs over; instrumented pipeline edges
  /// forward the call and account the rows, so per-operator PlanStats are
  /// the same whether the consumer read in place or drained. Default null.
  virtual const core::Relation* TakeRelation() { return nullptr; }
};

/// Opens `input`, drains it fully into a relation, and closes it.
core::Relation DrainToRelation(BatchIterator* input, std::size_t arity,
                               std::size_t batch_size);

/// Streams a materialized (hence normalized) relation in batches — a
/// re-streamed shared subplan, or an input of the materializing reference.
/// The relation must outlive and not mutate under the iterator; a
/// consumer that needs it whole takes it (TakeRelation) instead of
/// re-copying it batch by batch.
class RelationBatchIterator final : public BatchIterator {
 public:
  explicit RelationBatchIterator(const core::Relation* relation)
      : relation_(relation) {}

  void Open() override { pos_ = 0; }
  bool NextBatch(Batch& out) override;
  void Close() override {}
  bool distinct() const override { return true; }  // Normalized storage.

  const core::Relation* TakeRelation() override {
    relation_->Normalize();
    return relation_;
  }

 private:
  const core::Relation* relation_;
  std::size_t pos_ = 0;
};

/// A materialized view of an input stream: borrows the relation the
/// stream hands over (BatchIterator::TakeRelation — a stored scan, a
/// re-streamed shared subplan, an input of the materializing reference;
/// no copy) or drains the stream into an owned copy (every other
/// pipelined edge). Either way the stream counts as consumed.
class MaterializedInput {
 public:
  /// A borrowed relation stays valid for the run.
  static MaterializedInput From(BatchIterator* input, std::size_t arity,
                                std::size_t batch_size);

  /// A view of `relation`, which must outlive it.
  static MaterializedInput Borrow(const core::Relation& relation) {
    MaterializedInput view;
    view.borrowed_ = &relation;
    return view;
  }

  const core::Relation& get() const {
    return borrowed_ != nullptr ? *borrowed_ : owned_;
  }

 private:
  const core::Relation* borrowed_ = nullptr;
  core::Relation owned_{0};
};

/// Pull-one-row cursor over a batch stream: the convenience layer the
/// tuple-at-a-time operator kernels use to consume batched inputs.
class RowCursor {
 public:
  /// `input` must outlive the cursor; `arity` is the stream's tuple width.
  RowCursor(BatchIterator* input, std::size_t arity, std::size_t batch_size)
      : input_(input), batch_(arity, batch_size) {}

  void Open() { input_->Open(); }

  /// Fetches the next row into *row (valid until the next call). Returns
  /// false when the stream is exhausted.
  bool Next(core::TupleView* row) {
    while (pos_ >= batch_.size()) {
      if (done_ || !input_->NextBatch(batch_)) {
        done_ = true;
        return false;
      }
      pos_ = 0;
    }
    *row = batch_.row(pos_++);
    return true;
  }

  void Close() { input_->Close(); }

 private:
  BatchIterator* input_;
  Batch batch_;
  std::size_t pos_ = 0;
  bool done_ = false;
};

/// An incrementally-built set of rows: one flat open-addressing table
/// (linear probing, at most half full) of indices into flat row storage.
/// Each slot also stores the high half of its row's hash, so a probe
/// compares rows only on a tag match. Backs the streaming dedup filters
/// and the difference operator's build side.
class RowSet {
 public:
  explicit RowSet(std::size_t arity) : arity_(arity) {}

  /// Inserts the row; returns true iff it was not already present.
  bool Insert(core::TupleView row);

  bool Contains(core::TupleView row) const;

  std::size_t size() const { return size_; }

 private:
  struct Slot {
    std::uint32_t row = 0;  // 1 + the stored row's index; 0 marks empty.
    std::uint32_t tag = 0;  // High 32 bits of the row's hash.
  };

  core::TupleView StoredRow(std::size_t index) const {
    return core::TupleView(values_.data() + index * arity_, arity_);
  }

  /// The slot holding `row`, or the empty slot that ends its probe run.
  std::size_t Find(core::TupleView row, std::uint64_t hash) const;

  /// Doubles the table (16 slots at first) and re-inserts every row.
  void Grow();

  std::size_t arity_;
  std::size_t size_ = 0;
  std::vector<core::Value> values_;  // Inserted rows, flat row-major.
  std::vector<Slot> slots_;          // Power-of-two size.
};

}  // namespace setalg::engine

#endif  // SETALG_ENGINE_BATCH_H_
