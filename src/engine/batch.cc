#include "engine/batch.h"

#include <algorithm>

#include "util/check.h"

namespace setalg::engine {

void Batch::Reset(std::size_t arity, std::size_t capacity) {
  SETALG_CHECK(capacity > 0);
  arity_ = arity;
  capacity_ = capacity;
  values_.clear();
  values_.reserve(arity * capacity);
  rows_ = 0;
}

void Batch::Add(core::TupleView t) {
  SETALG_DCHECK(t.size() == arity_);
  SETALG_DCHECK(rows_ < capacity_);
  values_.insert(values_.end(), t.begin(), t.end());
  ++rows_;
}

void Batch::AddRows(const core::Value* data, std::size_t rows) {
  SETALG_DCHECK(arity_ > 0);
  SETALG_DCHECK(rows_ + rows <= capacity_);
  values_.insert(values_.end(), data, data + rows * arity_);
  rows_ += rows;
}

void AppendBatchTo(const Batch& batch, core::Relation* out) {
  if (batch.arity() == 0) {
    for (std::size_t i = 0; i < batch.size(); ++i) out->Add(batch.row(i));
    return;
  }
  out->AddRows(batch.values().data(), batch.size());
}

std::size_t StreamRelationRows(const core::Relation& relation, std::size_t pos,
                               Batch* out) {
  out->Clear();
  const std::size_t end = std::min(relation.size(), pos + out->capacity());
  if (relation.arity() == 0) {
    // Zero-ary rows have no flat storage; add them one by one.
    for (; pos < end; ++pos) out->Add(relation.tuple(pos));
    return pos;
  }
  if (pos < end) {
    out->AddRows(relation.flat().data() + pos * relation.arity(), end - pos);
  }
  return end;
}

bool RelationBatchIterator::NextBatch(Batch& out) {
  pos_ = StreamRelationRows(*relation_, pos_, &out);
  return !out.empty();
}

core::Relation DrainToRelation(BatchIterator* input, std::size_t arity,
                               std::size_t batch_size) {
  input->Open();
  Batch batch(arity, batch_size);
  core::Relation out(arity);
  while (input->NextBatch(batch)) AppendBatchTo(batch, &out);
  input->Close();
  return out;
}

MaterializedInput MaterializedInput::From(BatchIterator* input, std::size_t arity,
                                          std::size_t batch_size) {
  if (const core::Relation* whole = input->TakeRelation()) return Borrow(*whole);
  MaterializedInput view;
  view.owned_ = DrainToRelation(input, arity, batch_size);
  return view;
}

std::size_t RowSet::Find(core::TupleView row, std::uint64_t hash) const {
  const std::size_t mask = slots_.size() - 1;
  const auto tag = static_cast<std::uint32_t>(hash >> 32);
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.row == 0) return i;
    if (slot.tag == tag && core::TupleEquals(StoredRow(slot.row - 1), row)) return i;
  }
}

void RowSet::Grow() {
  slots_.assign(std::max<std::size_t>(16, 2 * slots_.size()), Slot{});
  const std::size_t mask = slots_.size() - 1;
  // Stored rows are distinct, so each needs only an empty slot.
  for (std::size_t index = 0; index < size_; ++index) {
    const std::uint64_t hash = core::HashTuple(StoredRow(index));
    std::size_t i = hash & mask;
    while (slots_[i].row != 0) i = (i + 1) & mask;
    slots_[i] = {static_cast<std::uint32_t>(index + 1),
                 static_cast<std::uint32_t>(hash >> 32)};
  }
}

bool RowSet::Insert(core::TupleView row) {
  SETALG_DCHECK(row.size() == arity_);
  if (2 * (size_ + 1) > slots_.size()) Grow();
  const std::uint64_t hash = core::HashTuple(row);
  Slot& slot = slots_[Find(row, hash)];
  if (slot.row != 0) return false;
  // Slots hold 32-bit indices; fail loudly rather than wrap past 2^32 rows.
  SETALG_CHECK(size_ < 0xFFFFFFFFu);
  slot = {static_cast<std::uint32_t>(size_ + 1), static_cast<std::uint32_t>(hash >> 32)};
  values_.insert(values_.end(), row.begin(), row.end());
  ++size_;
  return true;
}

bool RowSet::Contains(core::TupleView row) const {
  SETALG_DCHECK(row.size() == arity_);
  if (size_ == 0) return false;
  return slots_[Find(row, core::HashTuple(row))].row != 0;
}

}  // namespace setalg::engine
