// Unit tests for the parallel partitioned-execution building blocks
// (engine/parallel.h): PartitionCount is the one width rule, the
// WorkerPool runs every task exactly once, hash partitioning is
// deterministic and lossless, key ranges cut only at key boundaries, and
// an operator fans out exactly as wide as the rows it holds allow.
// The end-to-end thread-differential harness lives in batch_exec_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/relation.h"
#include "engine/engine.h"
#include "engine/parallel.h"
#include "setjoin/division.h"
#include "test_util.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace setalg::engine {
namespace {

using core::Relation;
using core::Value;
using setalg::testing::MakeRel;

// One partition per kMinPartitionRows rows, at most the run's threads, at
// least one: under two floors' worth of rows an operator stays serial.
TEST(PartitionCount, RowsOverTheFloorClampedToThreads) {
  constexpr std::size_t kFloor = kMinPartitionRows;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{7}}) {
    const ExecContext ctx(nullptr, nullptr, kDefaultBatchSize, threads);
    const std::string context = "threads " + std::to_string(threads);
    EXPECT_EQ(ctx.threads(), threads) << context;
    EXPECT_EQ(PartitionCount(ctx, 0), 1u) << context;
    EXPECT_EQ(PartitionCount(ctx, 1), 1u) << context;
    EXPECT_EQ(PartitionCount(ctx, 2 * kFloor - 1), 1u) << context;
    EXPECT_EQ(PartitionCount(ctx, 2 * kFloor), std::min<std::size_t>(2, threads))
        << context;
    EXPECT_EQ(PartitionCount(ctx, 3 * kFloor - 1), std::min<std::size_t>(2, threads))
        << context;
    EXPECT_EQ(PartitionCount(ctx, threads * kFloor - 1),
              std::max<std::size_t>(1, threads - 1))
        << context;
    EXPECT_EQ(PartitionCount(ctx, threads * kFloor), threads) << context;
    EXPECT_EQ(PartitionCount(ctx, std::numeric_limits<std::size_t>::max()), threads)
        << context;
  }
  // A context asked for no threads is serial (EngineOptions::WithThreads
  // clamps the same way).
  const ExecContext none(nullptr, nullptr, kDefaultBatchSize, 0);
  EXPECT_EQ(none.threads(), 1u);
  EXPECT_EQ(PartitionCount(none, 100 * kFloor), 1u);
}

TEST(WorkerPool, RunsEveryTaskExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    WorkerPool pool(threads);
    EXPECT_EQ(pool.threads(), threads);
    constexpr std::size_t kTasks = 64;
    std::vector<std::atomic<int>> hits(kTasks);
    pool.Run(kTasks, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < kTasks; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "task " << i << " threads " << threads;
    }
  }
}

TEST(WorkerPool, ReusableAcrossRunsAndHandlesEmptyAndSingleton) {
  WorkerPool pool(3);
  std::atomic<int> total{0};
  pool.Run(0, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 0);
  pool.Run(1, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 1);
  // A second batch through the same pool: no stale generation state.
  pool.Run(10, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 11);
}

TEST(WorkerPool, TasksActuallyRunConcurrentlyWhenWorkersExist) {
  // Not a timing test: two tasks block until both have started, which can
  // only complete if two threads run them simultaneously.
  WorkerPool pool(2);
  std::mutex mutex;
  std::condition_variable cv;
  int started = 0;
  pool.Run(2, [&](std::size_t) {
    std::unique_lock<std::mutex> lock(mutex);
    ++started;
    cv.notify_all();
    cv.wait(lock, [&] { return started == 2; });
  });
  EXPECT_EQ(started, 2);
}

TEST(Partitioning, ByColumnIsLosslessDisjointAndDeterministic) {
  const Relation r = setalg::workload::UniformBinaryRelation(200, 17, 5);
  for (std::size_t parts : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    const auto a = PartitionByColumn(r, 1, parts);
    const auto b = PartitionByColumn(r, 1, parts);
    ASSERT_EQ(a.size(), parts);
    std::size_t total = 0;
    Relation merged(2);
    std::map<Value, std::size_t> partition_of_key;
    for (std::size_t p = 0; p < parts; ++p) {
      EXPECT_EQ(a[p], b[p]) << "partitioning must be deterministic";
      total += a[p].size();
      for (std::size_t i = 0; i < a[p].size(); ++i) {
        merged.Add(a[p].tuple(i));
        // Every row is routed by its column-1 value: a key lives in
        // exactly one partition.
        const Value key = a[p].tuple(i)[0];
        EXPECT_EQ(partition_of_key.emplace(key, p).first->second, p) << "key " << key;
      }
    }
    EXPECT_EQ(total, r.size()) << "no row may be dropped or duplicated";
    EXPECT_EQ(merged, r);
  }
}

// Oracle test of the key-range cutter: random relations sorted on
// column 1 (arity 2 and 3), int64 extremes among the keys, one key
// holding most rows, and fewer keys than parts. Every cut must give
// exactly `parts` ranges that cover [0, n) in order, with no key on both
// sides of a cut, and none larger than its aim unless a key forced it.
TEST(Partitioning, KeyRangesCutAtKeyBoundaries) {
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();
  util::Rng rng(0x5eed);
  struct Shape {
    std::size_t arity;
    std::size_t rows;
    std::size_t keys;   // Distinct keys drawn from (extremes included).
    double heavy;       // Share of rows on one key.
  };
  const std::vector<Shape> shapes = {
      {2, 0, 1, 0.0},    {2, 1, 1, 0.0},    {2, 300, 40, 0.0},
      {3, 300, 40, 0.0}, {2, 400, 25, 0.8}, {3, 400, 25, 0.8},
      {2, 200, 2, 0.0},  {3, 150, 3, 0.5},  {2, 500, 500, 0.0},
  };
  for (const Shape& shape : shapes) {
    std::vector<Value> keys = {kMin, kMax, 0, -1};
    while (keys.size() < shape.keys + 4) keys.push_back(static_cast<Value>(rng.Next()));
    keys.resize(std::max<std::size_t>(shape.keys, 1));
    const Value heavy_key = keys[keys.size() / 2];
    Relation r(shape.arity);
    core::Tuple row(shape.arity);
    for (std::size_t i = 0; i < shape.rows; ++i) {
      row[0] = rng.NextDouble() < shape.heavy ? heavy_key
                                              : keys[rng.NextBounded(keys.size())];
      for (std::size_t c = 1; c < shape.arity; ++c) {
        row[c] = static_cast<Value>(rng.Next());
      }
      r.Add(row);
    }
    const std::size_t n = r.size();
    for (std::size_t parts : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{7}, std::size_t{64}}) {
      const std::string context = "arity " + std::to_string(shape.arity) + " rows " +
                                  std::to_string(n) + " keys " +
                                  std::to_string(keys.size()) + " parts " +
                                  std::to_string(parts);
      const std::size_t aim = (n + parts - 1) / parts;
      const std::vector<RowRange> ranges = KeyRanges(r, parts);
      ASSERT_EQ(ranges.size(), parts) << context;
      std::size_t next = 0;
      for (const RowRange& range : ranges) {
        ASSERT_EQ(range.begin, next) << context;
        ASSERT_LE(range.begin, range.end) << context;
        next = range.end;
        if (range.begin > 0 && range.begin < n) {
          EXPECT_NE(r.tuple(range.begin - 1)[0], r.tuple(range.begin)[0])
              << context << ": a key spans the cut at row " << range.begin;
        }
        if (range.size() > aim) {
          // Only one key's run may carry a range past its aim.
          EXPECT_EQ(r.tuple(range.begin + aim - 1)[0], r.tuple(range.end - 1)[0])
              << context << ": range [" << range.begin << ", " << range.end << ")";
        }
      }
      EXPECT_EQ(next, n) << context;
    }
  }
}

TEST(Partitioning, MorePartitionsThanKeysLeavesSomeEmpty) {
  const Relation r = MakeRel(2, {{1, 5}, {2, 6}});
  const auto parts = PartitionByColumn(r, 1, 16);
  std::size_t non_empty = 0;
  for (const auto& p : parts) non_empty += p.empty() ? 0 : 1;
  EXPECT_LE(non_empty, 2u);
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  EXPECT_EQ(total, r.size());
}

// A dividend of `rows` rows (a multiple of 7) in groups of 7 consecutive
// elements starting at key % 3, over S = {1, 2}: keys with key % 3 < 2
// divide.
core::Database ShapedDivisionDb(std::size_t rows) {
  Relation r(2);
  for (std::size_t key = 0; key < rows / 7; ++key) {
    setalg::testing::AddGroup(&r, static_cast<Value>(key), static_cast<Value>(key % 3),
                              7);
  }
  return setalg::testing::DivisionDb(r, MakeRel(1, {{1}, {2}}));
}

// About 1000 stored rows are far below two floors, so a 4-thread run of
// the lowered division stays serial: no partition, no skipped pass, and
// the serial result.
TEST(PartitionedExecution, SmallDividendStaysSerialUnderAPool) {
  const auto db = ShapedDivisionDb(994);
  ASSERT_LT(db.relation("R").size(), 2 * kMinPartitionRows);
  const auto expr = setjoin::ClassicDivisionExpr("R", "S");
  auto serial = Engine().Run(expr, db);
  ASSERT_TRUE(serial.ok()) << serial.error();
  auto pooled = Engine(EngineOptions{}.WithThreads(4)).Run(expr, db);
  ASSERT_TRUE(pooled.ok()) << pooled.error();
  EXPECT_EQ(pooled->relation, serial->relation);
  EXPECT_EQ(pooled->stats.threads_used, 4u);
  EXPECT_EQ(pooled->stats.partitions, 0u) << "a small input must not fan out";
  EXPECT_EQ(pooled->stats.partition_passes_skipped, 0u);
}

// threads × kMinPartitionRows stored rows fan out exactly `threads` ways,
// and the stored dividend is cut in place: one skipped partition pass.
TEST(PartitionedExecution, DividendOfThreadsFloorsFansOutPoolWide) {
  for (std::size_t threads : {std::size_t{2}, std::size_t{3}, std::size_t{7}}) {
    const auto db = ShapedDivisionDb(threads * kMinPartitionRows);
    ASSERT_EQ(db.relation("R").size(), threads * kMinPartitionRows);
    const auto expr = setjoin::ClassicDivisionExpr("R", "S");
    auto serial = Engine().Run(expr, db);
    ASSERT_TRUE(serial.ok()) << serial.error();
    auto run = Engine(EngineOptions{}.WithThreads(threads)).Run(expr, db);
    ASSERT_TRUE(run.ok()) << run.error();
    EXPECT_EQ(run->relation, serial->relation) << "threads " << threads;
    EXPECT_EQ(run->stats.threads_used, threads);
    EXPECT_EQ(run->stats.partitions, threads);
    EXPECT_EQ(run->stats.partition_passes_skipped, 1u) << "threads " << threads;
  }
}

}  // namespace
}  // namespace setalg::engine
