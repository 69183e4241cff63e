// Parallel partitioned execution on the batch seam.
//
// The paper's fast division and set-join algorithms are embarrassingly
// partitionable by group key: split the grouped side so every group lands
// wholly in one partition, run the unchanged serial kernel on each
// partition, and concatenate the per-partition outputs — which are
// disjoint by construction, so the merged, normalized result (and hence
// every per-operator PlanStats row count) is bit-identical to the serial
// run. This header provides the pieces that make that a reusable
// execution strategy rather than per-operator thread code:
//
//   - PartitionCount: the one rule for fan-out width. An operator calls
//     it once its input is in hand, with the rows it splits, and gets
//     one partition per kMinPartitionRows rows, at most the run's
//     threads (EngineOptions::threads) and at least 1. Inputs under two
//     floors' worth of rows stay serial, however wide the pool.
//   - WorkerPool: a fixed pool of worker threads that runs one batch of
//     independent tasks at a time; the calling thread participates, so
//     `threads` is total parallelism. ExecContext starts it at the run's
//     first fan-out, so a run that never splits starts no thread.
//   - KeyRanges and ReadSortedInput: the one partition path of division
//     and the one input path of the set joins, serial runs included.
//     Their grouped input is sorted on column 1 — normalized storage
//     always is — so a cut between two keys is already a valid
//     partition: a relation the input stream hands over (a stored scan)
//     is read in place, any other input is drained and normalized, and
//     the sorted rows are cut into contiguous key ranges. No routing
//     function, no scatter, and the range outputs concatenate in key
//     order. A set join groups each range with one pass over its rows
//     (setjoin::GroupedRelation).
//   - PartitionByColumn: deterministic hash routing of a relation's rows
//     by one column, for the fast semijoin and the multiway join, whose
//     partitioning columns do not lead in general.
//   - RunPartitionTasks: the one fan-out/fan-in. It runs the tasks
//     across the pool and merges their outputs in partition-index order,
//     so repeated runs merge identically. One task is a serial run: it
//     runs inline and its output is the result, with no merge and no
//     partition counted.
//   - PartitionedIterator: the blocking BatchIterator around it, under
//     the ordinary Open/NextBatch/Close contract: Open() consumes the
//     input streams into per-partition tasks (serial), runs them through
//     RunPartitionTasks and streams the normalized result out in batches.
//     The set joins and the fast semijoin return it at every width, so a
//     serial run is the same plan with one task. Downstream consumers
//     cannot tell it from a serial operator; the differential harness in
//     tests/batch_exec_test.cc enforces exactly that.
//
// Threading discipline: inputs are consumed (and stored relations
// normalized) on the calling thread before the fan-out, tasks touch only
// their own partition's state plus shared read-only inputs, and the merge
// happens on the calling thread after every task has completed — so no
// PlanStats field, ExecContext, or core::Relation is ever written
// concurrently. Tasks must not throw.
#ifndef SETALG_ENGINE_PARALLEL_H_
#define SETALG_ENGINE_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/relation.h"
#include "engine/batch.h"
#include "engine/physical.h"

namespace setalg::engine {

/// The rows an operator must hold per partition it cuts. Set from the
/// fixed cost of one fan-out against the serial kernel's cost per row
/// (the measurement is in README, "Parallel execution").
inline constexpr std::size_t kMinPartitionRows = 3500;

/// The fan-out width of an operator that splits `rows` rows under `ctx`:
/// rows / kMinPartitionRows, clamped to [1, ctx.threads()]. 1 is a
/// serial run. Deterministic in the rows and the thread count, never in
/// load, so repeated runs count the same partitions.
std::size_t PartitionCount(const ExecContext& ctx, std::size_t rows);

/// A fixed pool of worker threads executing one batch of independent
/// tasks at a time. Constructed with the total parallelism `threads`
/// (>= 1); the pool spawns `threads - 1` workers and the thread calling
/// Run() works alongside them, so `threads == 1` degenerates to inline
/// serial execution with no threads spawned.
class WorkerPool {
 public:
  explicit WorkerPool(std::size_t threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Total parallelism (workers + the calling thread).
  std::size_t threads() const { return workers_.size() + 1; }

  /// Runs task(0) .. task(count - 1) across the pool and the calling
  /// thread; returns when all have completed. One Run at a time (the
  /// executors drive operators sequentially); tasks must not throw and
  /// must not call Run() recursively.
  void Run(std::size_t count, const std::function<void(std::size_t)>& task);

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* task_ = nullptr;  // Guarded by mutex_.
  std::size_t count_ = 0;
  std::size_t next_ = 0;
  std::size_t completed_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Hash-partitions the rows of a normalized relation by `column`
/// (1-based) into `partitions` relations. Every row with a given column
/// value lands in exactly one partition, partitions preserve the input's
/// sorted order (so they normalize for free), and the multiset union of
/// the partitions is the input. Co-partitions the semijoin's two sides and
/// the multiway join's inputs.
std::vector<core::Relation> PartitionByColumn(const core::Relation& relation,
                                              std::size_t column,
                                              std::size_t partitions);

/// Rows [begin, end) of a relation.
struct RowRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t size() const { return end - begin; }
};

/// Cuts a relation sorted on column 1 (arity >= 1) into exactly `parts`
/// (>= 1) contiguous row ranges, in order, covering [0, size()). Each
/// range aims at ceil(size() / parts) rows, and each cut moves forward to
/// the next key boundary, so no key is ever on both sides of a cut.
/// Trailing ranges may be empty (a heavy key, or fewer keys than parts).
std::vector<RowRange> KeyRanges(const core::Relation& sorted, std::size_t parts);

/// The input of a key-range partitioned operator, sorted on column 1, as
/// its tasks share it. A relation `stream` hands over
/// (BatchIterator::TakeRelation, which normalizes it on this thread) is
/// read in place; any other input is drained and normalized. An operator
/// whose stored scan input this reads in place counts the skipped
/// partition pass itself, once it has cut the input into more than one
/// range. Driving thread only; a borrowed relation is owned by the run's
/// database or executor, which outlive the tasks.
std::shared_ptr<const MaterializedInput> ReadSortedInput(ExecContext& ctx,
                                                         BatchIterator* stream,
                                                         std::size_t arity);

/// One partition's work: computes that partition's share of the
/// operator's output. Runs on a worker thread; must only touch state
/// captured at construction (its own partition plus shared read-only
/// inputs) and must not throw.
using PartitionTask = std::function<core::Relation()>;

/// Builds the partition tasks from the operator's input streams. Runs on
/// the calling thread during Open(): consume every input here (drain /
/// borrow via MaterializedInput or ReadSortedInput), partition, and
/// capture per-partition state into the returned tasks.
using PartitionPlanFn =
    std::function<std::vector<PartitionTask>(std::vector<std::unique_ptr<BatchIterator>>&)>;

/// Runs `tasks` across ctx's worker pool (started here at the run's first
/// fan-out) and returns their outputs concatenated in task order and
/// normalized; counts the tasks in PlanStats::partitions. A single task is
/// a serial run: it runs inline, its normalized output is the result, no
/// partition is counted and no pool is started. Driving thread only.
core::Relation RunPartitionTasks(ExecContext& ctx, std::size_t arity,
                                 const std::vector<PartitionTask>& tasks);

/// The blocking operator around RunPartitionTasks (see the file comment).
/// Output is normalized, hence distinct().
class PartitionedIterator final : public BatchIterator {
 public:
  PartitionedIterator(ExecContext& ctx, std::size_t arity,
                      std::vector<std::unique_ptr<BatchIterator>> inputs,
                      PartitionPlanFn plan)
      : ctx_(ctx), arity_(arity), inputs_(std::move(inputs)), plan_(std::move(plan)),
        result_(arity) {}

  void Open() override;

  bool NextBatch(Batch& out) override {
    pos_ = StreamRelationRows(result_, pos_, &out);
    return !out.empty();
  }

  void Close() override {}
  bool distinct() const override { return true; }  // Normalized merge.

 private:
  ExecContext& ctx_;
  std::size_t arity_;
  std::vector<std::unique_ptr<BatchIterator>> inputs_;
  PartitionPlanFn plan_;
  core::Relation result_;
  std::size_t pos_ = 0;
};

}  // namespace setalg::engine

#endif  // SETALG_ENGINE_PARALLEL_H_
