// Unit tests for the parallel partitioned-execution building blocks
// (engine/parallel.h): the WorkerPool runs every task exactly once, hash
// partitioning is deterministic and lossless, key ranges cut only at key
// boundaries, and the fan-out/fan-in iterator reproduces serial results.
// The end-to-end thread-differential harness lives in batch_exec_test.cc.
#include <gtest/gtest.h>

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
#include "test_util.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace setalg::engine {
namespace {

using core::Relation;
using core::Value;
using setalg::testing::MakeRel;

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

// The fan-out/fan-in iterator through a real plan: an explicit partition
// count must reproduce the serial result at every width, pool or no pool.
TEST(PartitionedExecution, ExplicitPartitionCountsReproduceSerialResults) {
  workload::DivisionConfig config;
  config.num_groups = 40;
  config.group_size = 4;
  config.domain_size = 25;
  config.divisor_size = 3;
  config.match_fraction = 0.3;
  config.seed = 11;
  const auto instance = workload::MakeDivisionInstance(config);
  const auto db = setalg::testing::DivisionDb(instance.r, instance.s);

  PhysicalPlan serial;
  serial.root = MakeDivision(MakeScan("R", 2), MakeScan("S", 1),
                             setjoin::DivisionAlgorithm::kHashDivision,
                             /*equality=*/false, nullptr, /*partitions=*/1);
  const Engine engine;
  auto expected = engine.Run(serial, db);
  ASSERT_TRUE(expected.ok()) << expected.error();

  for (std::size_t partitions : {std::size_t{2}, std::size_t{5}, std::size_t{64}}) {
    for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      PhysicalPlan plan;
      plan.root = MakeDivision(MakeScan("R", 2), MakeScan("S", 1),
                               setjoin::DivisionAlgorithm::kHashDivision,
                               /*equality=*/false, nullptr, partitions);
      EngineOptions options;
      options.threads = threads;
      auto run = Engine(options).Run(plan, db);
      ASSERT_TRUE(run.ok()) << run.error();
      EXPECT_EQ(run->relation, expected->relation)
          << "partitions " << partitions << " threads " << threads;
      EXPECT_EQ(run->stats.partitions, partitions);
      EXPECT_EQ(run->stats.threads_used, threads);
    }
  }
}

// partitions=0 defers to the run's pool width; serial runs stay serial.
TEST(PartitionedExecution, AutoPartitioningFollowsTheWorkerPoolWidth) {
  const auto db = setalg::testing::DivisionDb(
      MakeRel(2, {{1, 7}, {1, 8}, {2, 7}, {3, 8}, {3, 7}, {3, 9}}),
      MakeRel(1, {{7}, {8}}));
  PhysicalPlan plan;
  plan.root = MakeDivision(MakeScan("R", 2), MakeScan("S", 1),
                           setjoin::DivisionAlgorithm::kAggregate,
                           /*equality=*/false);
  {
    auto run = Engine().Run(plan, db);
    ASSERT_TRUE(run.ok()) << run.error();
    EXPECT_EQ(run->stats.partitions, 0u) << "serial runs must not fan out";
    EXPECT_EQ(run->stats.threads_used, 1u);
  }
  {
    EngineOptions options;
    options.threads = 5;
    auto run = Engine(options).Run(plan, db);
    ASSERT_TRUE(run.ok()) << run.error();
    EXPECT_EQ(run->stats.partitions, 5u);
    EXPECT_EQ(run->stats.threads_used, 5u);
    EXPECT_EQ(run->relation, MakeRel(1, {{1}, {3}}));
  }
}

}  // namespace
}  // namespace setalg::engine
