#include "engine/parallel.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/hash.h"

namespace setalg::engine {
namespace {

// The partition PartitionByColumn routes a key to (Mix64 of the key, so
// consecutive keys spread).
std::size_t PartitionOfKey(core::Value key, std::size_t partitions) {
  return static_cast<std::size_t>(util::Mix64(static_cast<std::uint64_t>(key)) %
                                  partitions);
}

}  // namespace

std::size_t PartitionCount(const ExecContext& ctx, std::size_t rows) {
  return std::clamp<std::size_t>(rows / kMinPartitionRows, 1, ctx.threads());
}

WorkerPool::WorkerPool(std::size_t threads) {
  const std::size_t workers = threads <= 1 ? 0 : threads - 1;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void WorkerPool::Run(std::size_t count, const std::function<void(std::size_t)>& task) {
  if (count == 0) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    SETALG_CHECK(task_ == nullptr);  // One Run at a time, never recursive.
    task_ = &task;
    count_ = count;
    next_ = 0;
    completed_ = 0;
    ++generation_;
  }
  work_cv_.notify_all();
  // The calling thread works alongside the pool on the same index stream.
  for (;;) {
    std::size_t index;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (next_ >= count_) break;
      index = next_++;
    }
    task(index);
    std::lock_guard<std::mutex> lock(mutex_);
    ++completed_;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return completed_ == count_; });
  task_ = nullptr;
}

void WorkerPool::WorkerLoop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    while (next_ < count_) {
      const std::size_t index = next_++;
      const auto* task = task_;
      lock.unlock();
      (*task)(index);
      lock.lock();
      if (++completed_ == count_) done_cv_.notify_all();
    }
  }
}

std::vector<core::Relation> PartitionByColumn(const core::Relation& relation,
                                              std::size_t column,
                                              std::size_t partitions) {
  SETALG_CHECK(partitions >= 1);
  SETALG_CHECK(column >= 1 && column <= relation.arity());
  std::vector<core::Relation> out;
  out.reserve(partitions);
  for (std::size_t p = 0; p < partitions; ++p) out.emplace_back(relation.arity());
  for (std::size_t i = 0; i < relation.size(); ++i) {
    const core::TupleView row = relation.tuple(i);
    out[PartitionOfKey(row[column - 1], partitions)].Add(row);
  }
  // Rows were routed in sorted input order, so each partition is already
  // sorted and duplicate-free: normalization is the no-op fast path.
  for (auto& partition : out) partition.Normalize();
  return out;
}

std::vector<RowRange> KeyRanges(const core::Relation& sorted, std::size_t parts) {
  SETALG_CHECK(parts >= 1);
  SETALG_CHECK(sorted.arity() >= 1);
  const std::size_t arity = sorted.arity();
  const std::size_t n = sorted.size();
  const core::Value* rows = sorted.flat().data();
  const std::size_t target = (n + parts - 1) / parts;
  std::vector<RowRange> ranges;
  ranges.reserve(parts);
  std::size_t begin = 0;
  for (std::size_t p = 0; p < parts; ++p) {
    std::size_t end = p + 1 == parts ? n : std::min(n, begin + target);
    // Move the cut to the next key boundary, so no key spans two ranges.
    while (end < n && rows[end * arity] == rows[(end - 1) * arity]) ++end;
    ranges.push_back({begin, end});
    begin = end;
  }
  return ranges;
}

std::shared_ptr<const MaterializedInput> ReadSortedInput(ExecContext& ctx,
                                                         BatchIterator* stream,
                                                         std::size_t arity) {
  if (const core::Relation* whole = stream->TakeRelation()) {
    return std::make_shared<MaterializedInput>(MaterializedInput::Borrow(*whole));
  }
  auto input = std::make_shared<MaterializedInput>(
      MaterializedInput::From(stream, arity, ctx.batch_size()));
  input->get().Normalize();
  return input;
}

std::vector<PartitionTask> KeyRangeTasks(ExecContext& ctx,
                                         std::shared_ptr<const MaterializedInput> sorted,
                                         bool scan, RangeKernel kernel) {
  const core::Relation& input = sorted->get();
  const std::size_t parts = PartitionCount(ctx, input.size());
  if (parts > 1 && scan) ctx.CountSkippedPartitionPass();
  const core::Value* rows = input.flat().data();
  const std::size_t arity = input.arity();
  std::vector<PartitionTask> tasks;
  tasks.reserve(parts);
  for (const RowRange range : KeyRanges(input, parts)) {
    // `sorted` keeps the rows alive for the task.
    tasks.push_back([sorted, kernel, begin = rows + arity * range.begin,
                     count = range.size()] { return kernel(begin, count); });
  }
  return tasks;
}

core::Relation RunPartitionTasks(ExecContext& ctx, std::size_t arity,
                                 const std::vector<PartitionTask>& tasks) {
  if (tasks.size() == 1) {  // A serial run: nothing to fan out or merge.
    core::Relation result = tasks[0]();
    result.Normalize();
    return result;
  }
  std::vector<core::Relation> outputs;
  outputs.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) outputs.emplace_back(arity);
  // Fan-out: each task writes only its own pre-sized slot, so the output
  // vector needs no synchronization beyond Run()'s completion.
  ctx.pool().Run(tasks.size(), [&](std::size_t i) { outputs[i] = tasks[i](); });
  // Fan-in on the calling thread, in partition-index order: partitions
  // hold disjoint key sets, so the concatenation is duplicate-free and
  // the normalized merge is identical across runs and thread counts.
  std::size_t total = 0;
  for (const auto& output : outputs) total += output.size();
  core::Relation result(arity);
  result.Reserve(total);
  for (const auto& output : outputs) {
    if (!output.empty() && arity > 0) {
      result.AddRows(output.flat().data(), output.size());
    } else if (!output.empty()) {
      for (std::size_t i = 0; i < output.size(); ++i) result.Add(output.tuple(i));
    }
  }
  result.Normalize();
  ctx.CountPartitions(tasks.size());
  return result;
}

void PartitionedIterator::Open() {
  result_ = RunPartitionTasks(ctx_, arity_, plan_(inputs_));
  pos_ = 0;
}

}  // namespace setalg::engine
