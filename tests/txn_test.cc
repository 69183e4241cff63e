// Reader/writer stress harness for the MVCC snapshot subsystem
// (txn/snapshot.h) and the concurrency-grade shared caches it feeds.
//
// The property under test: a snapshot is a *frozen database*. However many
// writers keep committing to the head, and however a reader's run is
// served — planned fresh, through the process-wide shared plan cache, or
// replayed whole from the result cache — the result relation and the full
// PlanStats of every read must be bit-identical to a serial replay of the
// same expression against a plain core::Database holding exactly the
// contents of that snapshot's version. The harness runs N reader threads
// (each grabbing fresh snapshots between queries) against one continuously
// mutating head (point inserts, deletes, bulk loads, divisor swaps, and
// multi-relation WriteBatch commits), logs one database copy per published
// version, and replays every recorded read serially after the join.
//
// Like tests/plan_cache_test.cc, the suite reads SETALG_BATCH_SEED
// (default 1) as the base of its seed range; CI runs it under ASan/UBSan
// and TSan across a fixed seed matrix — TSan is the point: readers never
// lock anything after `snapshot()` returns.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <latch>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/database.h"
#include "core/relation.h"
#include "core/schema.h"
#include "engine/engine.h"
#include "engine/parallel.h"
#include "engine/result_cache.h"
#include "engine/shared_cache.h"
#include "gf/formula.h"
#include "gf/translate.h"
#include "ra/expr.h"
#include "setjoin/division.h"
#include "stats/stats.h"
#include "test_util.h"
#include "txn/snapshot.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace setalg::txn {
namespace {

using core::Relation;
using setalg::testing::ExpectSameRelationStats;
using setalg::testing::MakeRel;

std::uint64_t BaseSeed() {
  const char* env = std::getenv("SETALG_BATCH_SEED");
  if (env == nullptr) return 1;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(env, &end, 10);
  return (end == env || value == 0) ? 1 : static_cast<std::uint64_t>(value);
}

// Bit-identical PlanStats comparison: everything a run reports except the
// cache provenance field itself (a concurrent read may be a shared-cache
// hit or a whole-result replay; the serial replay never is).
void ExpectIdenticalStats(const engine::PlanStats& expected,
                          const engine::PlanStats& actual,
                          const std::string& context) {
  EXPECT_EQ(actual.max_intermediate, expected.max_intermediate) << context;
  EXPECT_EQ(actual.total_intermediate, expected.total_intermediate) << context;
  EXPECT_EQ(actual.join_rows_emitted, expected.join_rows_emitted) << context;
  EXPECT_EQ(actual.batch_size, expected.batch_size) << context;
  EXPECT_EQ(actual.batches_emitted, expected.batches_emitted) << context;
  EXPECT_EQ(actual.peak_batch_bytes, expected.peak_batch_bytes) << context;
  EXPECT_EQ(actual.threads_used, expected.threads_used) << context;
  EXPECT_EQ(actual.partitions, expected.partitions) << context;
  EXPECT_EQ(actual.rewrites, expected.rewrites) << context;
  ASSERT_EQ(actual.choices.size(), expected.choices.size()) << context;
  for (std::size_t i = 0; i < expected.choices.size(); ++i) {
    EXPECT_EQ(actual.choices[i].site, expected.choices[i].site)
        << context << " choice " << i;
    EXPECT_EQ(actual.choices[i].algorithm, expected.choices[i].algorithm)
        << context << " choice " << i;
  }
  ASSERT_EQ(actual.ops.size(), expected.ops.size()) << context;
  for (std::size_t i = 0; i < expected.ops.size(); ++i) {
    const engine::OpStats& want = expected.ops[i];
    const engine::OpStats& got = actual.ops[i];
    EXPECT_EQ(got.label, want.label) << context << " op " << i;
    EXPECT_EQ(got.source, want.source) << context << " op " << i;
    EXPECT_EQ(got.output_size, want.output_size)
        << context << " op " << i << " (" << want.label << ")";
    EXPECT_EQ(got.has_estimate, want.has_estimate) << context << " op " << i;
    EXPECT_DOUBLE_EQ(got.estimated_output, want.estimated_output)
        << context << " op " << i;
    EXPECT_DOUBLE_EQ(got.estimated_cost, want.estimated_cost)
        << context << " op " << i;
  }
}

core::Schema DivisionSchema() {
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 1);
  return schema;
}

// The query family every reader draws from: the two division shapes the
// paper centers on, one gf-generated guarded formula pushed through the
// Theorem 8 converse translation, and two random SA= expressions.
std::vector<ra::ExprPtr> QueryFamily(const core::Schema& schema,
                                     std::uint64_t seed) {
  std::vector<ra::ExprPtr> exprs;
  exprs.push_back(setjoin::ClassicDivisionExpr("R", "S"));
  exprs.push_back(setjoin::ClassicEqualityDivisionExpr("R", "S"));
  // φ(x) = ∃y [R(x,y) ∧ S(y)]: a guarded semijoin shape.
  gf::FormulaPtr guarded =
      gf::Exists(gf::Atom("R", {"x", "y"}), {"y"},
                 gf::And(gf::Atom("R", {"x", "y"}), gf::Atom("S", {"y"})));
  exprs.push_back(gf::GfToSaEq(*guarded, {"x"}, schema));
  setalg::testing::RandomSaEqGenerator gen(schema, {1, 2, 3}, seed * 977 + 5);
  exprs.push_back(gen.Generate(1, 2));
  exprs.push_back(gen.Generate(2, 2));
  return exprs;
}

// One randomized mutation applied identically to the serial mirror and
// (by the caller) to the versioned head. Returns the touched relations'
// fresh contents, copied out of the mirror.
std::vector<std::pair<std::string, Relation>> MutateMirror(
    core::Database* mirror, util::Rng* rng, std::uint64_t seed, int step) {
  switch (rng->NextBounded(5)) {
    case 0: {  // Point inserts into R.
      Relation r = mirror->relation("R");
      const std::size_t count = 1 + rng->NextBounded(4);
      for (std::size_t i = 0; i < count; ++i) {
        r.Add({static_cast<core::Value>(rng->NextBounded(30) + 1),
               static_cast<core::Value>(rng->NextBounded(20) + 1)});
      }
      mirror->SetRelation("R", r);
      return {{"R", std::move(r)}};
    }
    case 1: {  // Delete ~half of R.
      const Relation& r = mirror->relation("R");
      Relation kept(2);
      for (std::size_t i = 0; i < r.size(); ++i) {
        if (rng->NextBool()) kept.Add(r.tuple(i));
      }
      mirror->SetRelation("R", kept);
      return {{"R", std::move(kept)}};
    }
    case 2: {  // Bulk-load R with a different shape (flips cost choices).
      const std::size_t rows = 60 + 40 * rng->NextBounded(4);
      const std::size_t domain = 4 + rng->NextBounded(40);
      Relation r = workload::UniformBinaryRelation(
          rows, domain, seed * 1000 + static_cast<std::uint64_t>(step));
      mirror->SetRelation("R", r);
      return {{"R", std::move(r)}};
    }
    case 3: {  // Replace the divisor.
      Relation s(1);
      const std::size_t size = 1 + rng->NextBounded(6);
      for (std::size_t i = 0; i < size; ++i) {
        s.Add({static_cast<core::Value>(rng->NextBounded(20) + 1)});
      }
      mirror->SetRelation("S", s);
      return {{"S", std::move(s)}};
    }
    default: {  // Multi-relation batch: shrink R and re-derive S together.
      const Relation& r = mirror->relation("R");
      Relation kept(2);
      for (std::size_t i = 0; i < r.size(); ++i) {
        if (rng->NextBounded(4) != 0) kept.Add(r.tuple(i));
      }
      Relation s(1);
      const std::size_t size = 1 + rng->NextBounded(4);
      for (std::size_t i = 0; i < size; ++i) {
        s.Add({static_cast<core::Value>(rng->NextBounded(20) + 1)});
      }
      mirror->SetRelation("R", kept);
      mirror->SetRelation("S", s);
      return {{"R", std::move(kept)}, {"S", std::move(s)}};
    }
  }
}

TEST(SnapshotTest, SnapshotsAreImmutableAndVersioned) {
  VersionedDatabase head(DivisionSchema());
  const SnapshotPtr v0 = head.snapshot();
  EXPECT_EQ(v0->version(), 0u);
  EXPECT_EQ(v0->relation("R").size(), 0u);
  EXPECT_EQ(v0->relation_version("R"), 0u);
  EXPECT_EQ(v0->id(), head.id());

  const SnapshotPtr v1 =
      head.SetRelation("R", MakeRel(2, {{1, 2}, {3, 4}}));
  EXPECT_EQ(v1->version(), 1u);
  EXPECT_EQ(v1->relation("R").size(), 2u);
  EXPECT_EQ(v1->relation_version("R"), 1u);
  EXPECT_EQ(v1->relation_version("S"), 0u);
  // The old snapshot is untouched — and still readable.
  EXPECT_EQ(v0->relation("R").size(), 0u);
  EXPECT_EQ(v0->relation_version("R"), 0u);

  const SnapshotPtr v2 = head.Mutate("R", [](Relation& r) { r.Add({5, 6}); });
  EXPECT_EQ(v2->version(), 2u);
  EXPECT_EQ(v2->relation("R").size(), 3u);
  EXPECT_EQ(v2->relation_version("R"), 2u);
  EXPECT_EQ(v1->relation("R").size(), 2u);
  EXPECT_EQ(head.snapshot()->version(), 2u);

  // Distinct heads never share an id (cache keys can't collide).
  VersionedDatabase other(DivisionSchema());
  EXPECT_NE(other.id(), head.id());
  core::Database plain(DivisionSchema());
  EXPECT_NE(plain.id(), head.id());
}

TEST(SnapshotTest, WriteBatchPublishesOnce) {
  VersionedDatabase head(DivisionSchema());
  const SnapshotPtr before = head.snapshot();

  WriteBatch batch;
  batch.Set("R", MakeRel(2, {{1, 1}, {1, 2}}));
  batch.Set("S", MakeRel(1, {{1}, {2}}));
  batch.Set("S", MakeRel(1, {{2}}));  // Last write per name wins.
  const SnapshotPtr after = head.Commit(std::move(batch));

  EXPECT_EQ(after->version(), before->version() + 1);
  EXPECT_EQ(after->relation("R").size(), 2u);
  EXPECT_EQ(after->relation("S").flat(), MakeRel(1, {{2}}).flat());
  EXPECT_EQ(after->relation_version("R"), 1u);
  EXPECT_EQ(after->relation_version("S"), 1u);
  EXPECT_EQ(before->relation("R").size(), 0u);

  const stats::VersionVector versions = after->Versions();
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_TRUE(stats::VersionsMatch(*after, versions));
  EXPECT_FALSE(stats::VersionsMatch(*before, versions));
}

// Cost-based runs against a snapshot must match the same runs against a
// plain Database with identical contents: the snapshot's lazy thread-safe
// statistics provider feeds the cost model the same numbers.
TEST(SnapshotTest, SnapshotRunsMatchPlainDatabase) {
  const std::uint64_t seed = BaseSeed();
  core::Database db = setalg::testing::RandomDatabase(DivisionSchema(), 120, 12,
                                                      seed * 31 + 7);
  VersionedDatabase head(db);
  const SnapshotPtr snap = head.snapshot();

  const engine::Engine plain(engine::EngineOptions::CostBased());
  const engine::Engine mvcc(engine::EngineOptions::CostBased());
  for (const auto& expr : QueryFamily(db.schema(), seed)) {
    auto want = plain.Run(expr, db);
    auto got = mvcc.Run(expr, *snap);
    ASSERT_TRUE(want.ok()) << want.error();
    ASSERT_TRUE(got.ok()) << got.error();
    EXPECT_EQ(got->relation.flat(), want->relation.flat());
    ExpectIdenticalStats(want->stats, got->stats, "snapshot vs database");
  }
}

// Atomicity under fire: the writer keeps the invariant "S is exactly the
// set of second-column values of R" within every single WriteBatch, so any
// torn publication — readers seeing the new R with the old S — breaks the
// per-snapshot check.
TEST(SnapshotTest, ConcurrentReadersSeeAtomicCommits) {
  const std::uint64_t seed = BaseSeed();
  VersionedDatabase head(DivisionSchema());
  {
    WriteBatch init;
    init.Set("R", MakeRel(2, {{1, 1}}));
    init.Set("S", MakeRel(1, {{1}}));
    head.Commit(std::move(init));
  }

  constexpr int kCommits = 40;
  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&head, t] {
      std::uint64_t last = 0;
      for (int i = 0; i < 4 * kCommits; ++i) {
        const SnapshotPtr snap = head.snapshot();
        ASSERT_GE(snap->version(), last);  // Publication order is monotone.
        last = snap->version();
        const Relation& r = snap->relation("R");
        Relation derived(1);
        for (std::size_t row = 0; row < r.size(); ++row) {
          derived.Add({r.tuple(row)[1]});
        }
        ASSERT_EQ(snap->relation("S").flat(), derived.flat())
            << "torn commit seen by reader " << t << " at version "
            << snap->version();
      }
    });
  }

  util::Rng rng(seed * 131 + 3);
  for (int step = 0; step < kCommits; ++step) {
    Relation r = workload::UniformBinaryRelation(
        20 + rng.NextBounded(60), 4 + rng.NextBounded(10),
        seed * 10000 + static_cast<std::uint64_t>(step));
    Relation s(1);
    for (std::size_t row = 0; row < r.size(); ++row) s.Add({r.tuple(row)[1]});
    WriteBatch batch;
    batch.Set("R", std::move(r));
    batch.Set("S", std::move(s));
    head.Commit(std::move(batch));
  }
  for (auto& reader : readers) reader.join();
}

// Readers share a published relation without locking, so every write
// path must publish it normalized: a relation left to normalize on first
// read gets sorted by several readers at once. Each path below commits
// rows in reverse order with duplicates; four readers released by one
// latch then read the relation back.
TEST(SnapshotTest, CommitsPublishNormalizedRelations) {
  constexpr int kReaders = 4;
  constexpr core::Value kRows = 3000;
  // Rows (i, i % 7) for i in [from, to), descending and each added twice.
  auto add_unsorted = [](Relation* r, core::Value from, core::Value to) {
    for (core::Value i = to; i-- > from;) {
      r->Add({i, i % 7});
      r->Add({i, i % 7});
    }
  };
  auto sorted_flat = [](core::Value from, core::Value to) {
    std::vector<core::Value> flat;
    for (core::Value i = from; i < to; ++i) {
      flat.push_back(i);
      flat.push_back(i % 7);
    }
    return flat;
  };

  VersionedDatabase head(DivisionSchema());
  std::vector<std::pair<SnapshotPtr, std::vector<core::Value>>> published;
  {
    Relation r(2);
    add_unsorted(&r, 0, kRows);
    WriteBatch batch;
    batch.Set("R", std::move(r));
    published.emplace_back(head.Commit(std::move(batch)), sorted_flat(0, kRows));
  }
  {
    Relation r(2);
    add_unsorted(&r, kRows, 2 * kRows);
    published.emplace_back(head.SetRelation("R", std::move(r)),
                           sorted_flat(kRows, 2 * kRows));
  }
  // Mutate appends to the previous (sorted) R: its new rows all land
  // before the old ones.
  published.emplace_back(
      head.Mutate("R", [&](Relation& r) { add_unsorted(&r, 0, kRows); }),
      sorted_flat(0, 2 * kRows));

  for (const auto& entry : published) {
    const SnapshotPtr& snapshot = entry.first;
    const std::vector<core::Value>& want = entry.second;
    std::latch start(1);
    std::vector<std::thread> readers;
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back([&, t] {
        start.wait();
        const Relation& r = snapshot->relation("R");
        EXPECT_EQ(r.size(), want.size() / 2)
            << "reader " << t << " at version " << snapshot->version();
        EXPECT_TRUE(r.flat() == want)
            << "reader " << t << " at version " << snapshot->version();
      });
    }
    start.count_down();
    for (auto& reader : readers) reader.join();
  }
}

// A reader never waits on a writer's copy-modify-publish: a reader thread
// started inside the Mutate callback obtains the current snapshot while
// the callback is still running. Bounded by a timeout, so a reader
// blocked behind the writer fails the test instead of hanging it.
TEST(SnapshotTest, ReadersDoNotWaitOnMutate) {
  VersionedDatabase head(DivisionSchema());
  const SnapshotPtr before = head.SetRelation("R", MakeRel(2, {{1, 2}}));
  std::promise<SnapshotPtr> read;
  std::future<SnapshotPtr> result = read.get_future();
  std::thread reader;
  bool read_during_mutate = false;
  const SnapshotPtr after = head.Mutate("R", [&](Relation& r) {
    reader = std::thread([&] { read.set_value(head.snapshot()); });
    read_during_mutate =
        result.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
    r.Add({3, 4});
  });
  reader.join();
  EXPECT_TRUE(read_during_mutate) << "snapshot() blocked behind Mutate";
  // The reader saw the head as it was before the commit.
  EXPECT_EQ(result.get().get(), before.get());
  EXPECT_EQ(after->version(), before->version() + 1);
  EXPECT_EQ(after->relation("R").size(), 2u);
}

// Statistics belong to a relation version: a commit that leaves R alone
// hands the next snapshot R's statistics by pointer, and a commit that
// writes R gives it fresh statistics of the new contents.
TEST(SnapshotTest, UntouchedRelationsCarryTheirStatistics) {
  const std::uint64_t seed = BaseSeed();
  VersionedDatabase head(DivisionSchema());
  {
    WriteBatch init;
    init.Set("R", workload::UniformBinaryRelation(200, 12, seed * 7 + 1));
    init.Set("S", MakeRel(1, {{1}, {2}, {3}}));
    head.Commit(std::move(init));
  }
  const SnapshotPtr v1 = head.snapshot();
  const stats::RelationStats* r1 = v1->Get("R");
  const stats::RelationStats* s1 = v1->Get("S");
  ASSERT_NE(r1, nullptr);
  ASSERT_NE(s1, nullptr);
  EXPECT_EQ(v1->Get("T"), nullptr);  // Outside the schema.
  EXPECT_EQ(v1->Get("R"), r1);       // Computed once.

  // S-only commit: R's statistics carry over by pointer.
  const SnapshotPtr v2 = head.SetRelation("S", MakeRel(1, {{2}, {5}}));
  EXPECT_EQ(v2->Get("R"), r1);
  const stats::RelationStats* s2 = v2->Get("S");
  ASSERT_NE(s2, nullptr);
  EXPECT_NE(s2, s1);
  ExpectSameRelationStats(*s2, stats::ComputeRelationStats(v2->relation("S")),
                          "S after an S commit");
  // The old snapshot keeps its own S statistics.
  EXPECT_EQ(v1->Get("S"), s1);
  ExpectSameRelationStats(*s1, stats::ComputeRelationStats(v1->relation("S")),
                          "S before the S commit");

  // R commit: fresh R statistics of the new contents; S carries over.
  const SnapshotPtr v3 = head.Mutate("R", [](Relation& r) {
    r.Add({100, 1});
    r.Add({100, 2});
  });
  const stats::RelationStats* r3 = v3->Get("R");
  ASSERT_NE(r3, nullptr);
  EXPECT_NE(r3, r1);
  ExpectSameRelationStats(*r3, stats::ComputeRelationStats(v3->relation("R")),
                          "R after an R commit");
  EXPECT_EQ(r3->cardinality, r1->cardinality + 2);
  EXPECT_EQ(v3->Get("S"), s2);
  EXPECT_EQ(v2->Get("R"), r1);
}

// Readers ask successive snapshots for statistics while a writer
// alternates R and S commits: every answer equals the statistics of that
// snapshot's relation, and snapshots that carry the same version of a
// relation answer with the same pointer. Under TSan this checks the
// once-per-version computation shared across threads and snapshots.
TEST(SnapshotTest, ConcurrentStatisticsReadsAcrossCommits) {
  const std::uint64_t seed = BaseSeed();
  VersionedDatabase head(DivisionSchema());
  {
    WriteBatch init;
    init.Set("R", workload::UniformBinaryRelation(120, 10, seed * 3 + 1));
    init.Set("S", MakeRel(1, {{1}, {2}}));
    head.Commit(std::move(init));
  }
  constexpr int kCommits = 30;
  constexpr int kReaders = 3;
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&head, &done, t] {
      std::map<std::pair<std::string, std::uint64_t>, const stats::RelationStats*>
          seen;
      // At least one pass after the writer finishes.
      for (bool last = false; !last;) {
        last = done.load();
        const SnapshotPtr snap = head.snapshot();
        for (const std::string name : {"R", "S"}) {
          const stats::RelationStats* got = snap->Get(name);
          ASSERT_NE(got, nullptr);
          const std::string context = "reader " + std::to_string(t) + " " + name +
                                      " at version " +
                                      std::to_string(snap->version());
          ASSERT_EQ(got->cardinality, snap->relation(name).size()) << context;
          const auto key = std::make_pair(name, snap->relation_version(name));
          const auto [it, inserted] = seen.emplace(key, got);
          if (!inserted) {
            ASSERT_EQ(it->second, got) << context;
            continue;
          }
          ExpectSameRelationStats(
              *got, stats::ComputeRelationStats(snap->relation(name)), context);
        }
      }
    });
  }
  util::Rng rng(seed * 17 + 5);
  for (int step = 0; step < kCommits; ++step) {
    if (step % 2 == 0) {
      head.SetRelation("R", workload::UniformBinaryRelation(
                                60 + rng.NextBounded(120), 4 + rng.NextBounded(12),
                                seed * 100 + static_cast<std::uint64_t>(step)));
    } else {
      Relation s(1);
      const std::size_t size = 1 + rng.NextBounded(5);
      for (std::size_t i = 0; i < size; ++i) {
        s.Add({static_cast<core::Value>(rng.NextBounded(12) + 1)});
      }
      head.SetRelation("S", std::move(s));
    }
    std::this_thread::yield();
  }
  done.store(true);
  for (auto& reader : readers) reader.join();
}

// ---------------------------------------------------------------------------
// The headline harness: concurrent reads vs. serial replay.

struct ReadRecord {
  std::uint64_t version = 0;
  std::size_t expr_idx = 0;
  std::size_t arity = 0;
  std::vector<core::Value> flat;
  engine::PlanStats stats;
};

struct StressMode {
  std::string name;
  engine::EngineOptions options;  // Caches added by the harness.
};

std::vector<StressMode> StressModes() {
  return {{"cost-based", engine::EngineOptions::CostBased()},
          {"planned-batched", engine::EngineOptions{}.WithBatchSize(64)}};
}

void RunReaderWriterStress(const StressMode& mode, std::uint64_t seed) {
  const core::Schema schema = DivisionSchema();
  const std::vector<ra::ExprPtr> exprs = QueryFamily(schema, seed);

  core::Database mirror = setalg::testing::RandomDatabase(
      schema, 100, 10, seed * 53 + static_cast<std::uint64_t>(mode.name.size()));
  VersionedDatabase head(mirror);

  // One database copy per published version: the serial-replay key.
  std::map<std::uint64_t, core::Database> log;
  log.emplace(0, mirror);

  // The shared engine every session thread uses: process-wide striped
  // caches on.
  engine::EngineOptions options = mode.options;
  options.shared_plan_cache = std::make_shared<engine::SharedPlanCache>(64, 0);
  options.result_cache =
      std::make_shared<engine::ResultCache>(64, 8u << 20);
  const engine::Engine shared_engine(options);

  constexpr int kReaders = 3;
  constexpr int kReadsPerReader = 12;
  constexpr int kCommits = 10;

  std::vector<std::vector<ReadRecord>> records(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      util::Rng rng(seed * 7919 + static_cast<std::uint64_t>(t) * 17 + 1);
      std::uint64_t last = 0;
      for (int i = 0; i < kReadsPerReader; ++i) {
        const SnapshotPtr snap = head.snapshot();
        ASSERT_GE(snap->version(), last);
        last = snap->version();
        const std::size_t idx = rng.NextBounded(exprs.size());
        auto run = shared_engine.Run(exprs[idx], *snap);
        ASSERT_TRUE(run.ok())
            << mode.name << " reader " << t << ": " << run.error();
        ReadRecord record;
        record.version = snap->version();
        record.expr_idx = idx;
        record.arity = run->relation.arity();
        record.flat = run->relation.flat();
        record.stats = run->stats;
        records[static_cast<std::size_t>(t)].push_back(std::move(record));
      }
    });
  }

  // The writer: every commit is mirrored into `log` keyed by the version
  // it published, so each snapshot has exactly one serial counterpart.
  util::Rng wrng(seed * 331 + 11);
  for (int step = 0; step < kCommits; ++step) {
    auto writes = MutateMirror(&mirror, &wrng, seed, step);
    SnapshotPtr published;
    if (writes.size() == 1 && wrng.NextBool()) {
      published = head.SetRelation(writes[0].first, std::move(writes[0].second));
    } else {
      WriteBatch batch;
      for (auto& [name, relation] : writes) {
        batch.Set(name, std::move(relation));
      }
      published = head.Commit(std::move(batch));
    }
    ASSERT_EQ(published->version(), static_cast<std::uint64_t>(step) + 1);
    log.emplace(published->version(), mirror);
    std::this_thread::yield();
  }
  for (auto& reader : readers) reader.join();

  // Serial replay: a fresh, cache-free engine per mode over the logged
  // database of each read's version. Bit-identical or bust.
  engine::EngineOptions replay_options = mode.options;
  const engine::Engine replay_engine(replay_options);
  for (int t = 0; t < kReaders; ++t) {
    for (const ReadRecord& record : records[static_cast<std::size_t>(t)]) {
      const auto it = log.find(record.version);
      ASSERT_NE(it, log.end()) << "unlogged version " << record.version;
      auto want = replay_engine.Run(exprs[record.expr_idx], it->second);
      ASSERT_TRUE(want.ok()) << want.error();
      const std::string context = mode.name + " reader " + std::to_string(t) +
                                  " version " + std::to_string(record.version) +
                                  " expr " + std::to_string(record.expr_idx);
      EXPECT_EQ(record.arity, want->relation.arity()) << context;
      EXPECT_EQ(record.flat, want->relation.flat()) << context;
      ExpectIdenticalStats(want->stats, record.stats, context);
      // The replay itself agrees with the materializing reference.
      auto plan = replay_engine.Plan(exprs[record.expr_idx], it->second);
      ASSERT_TRUE(plan.ok()) << plan.error();
      EXPECT_EQ(engine::RunMaterialized(*plan, it->second).relation.flat(), record.flat)
          << context << " (reference)";
    }
  }
}

TEST(TxnStressTest, ConcurrentReadsMatchSerialReplay) {
  const std::uint64_t base = BaseSeed();
  for (const StressMode& mode : StressModes()) {
    for (std::uint64_t seed = base; seed < base + 3; ++seed) {
      SCOPED_TRACE(mode.name + " seed " + std::to_string(seed));
      RunReaderWriterStress(mode, seed);
    }
  }
}

// ---------------------------------------------------------------------------
// Key-range partitions over snapshot storage (engine/parallel.h).

// The differential over snapshots: every query family member over a plain
// snapshot — serial, 2 and 7 threads — must be bit-identical to the serial
// run over the core::Database it was seeded from, and serial runs never
// skip a partition pass.
TEST(KeyRangeTest, SnapshotRunsMatchSerialAcrossThreads) {
  const std::uint64_t seed = BaseSeed();
  const core::Schema schema = DivisionSchema();
  const core::Database db =
      setalg::testing::RandomDatabase(schema, 400, 16, seed * 41 + 9);
  const std::vector<ra::ExprPtr> exprs = QueryFamily(schema, seed);

  const engine::Engine reference{engine::EngineOptions{}};
  const VersionedDatabase head(db);
  const SnapshotPtr snap = head.snapshot();
  for (const int threads : {1, 2, 7}) {
    engine::EngineOptions options;
    options = options.WithThreads(static_cast<std::size_t>(threads));
    const engine::Engine engine(options);
    for (std::size_t q = 0; q < exprs.size(); ++q) {
      auto want = reference.Run(exprs[q], db);
      auto got = engine.Run(exprs[q], *snap);
      ASSERT_TRUE(want.ok()) << want.error();
      ASSERT_TRUE(got.ok()) << got.error();
      const std::string context =
          "threads=" + std::to_string(threads) + " expr=" + std::to_string(q);
      EXPECT_EQ(got->relation.arity(), want->relation.arity()) << context;
      EXPECT_EQ(got->relation.flat(), want->relation.flat()) << context;
      if (threads == 1) {
        EXPECT_EQ(got->stats.partition_passes_skipped, 0u) << context;
      }
    }
  }
}

// The textbook containment division over `r`: the planner rewrites it to
// one division operator whose dividend is `r`.
ra::ExprPtr ClassicDivisionOver(const ra::ExprPtr& r, const ra::ExprPtr& s) {
  const ra::ExprPtr candidates = ra::Project(r, {1});
  return ra::Diff(candidates,
                  ra::Project(ra::Diff(ra::Product(candidates, s), r), {1}));
}

// A dividend scanned from storage is cut into key ranges in place — on a
// core::Database and on a snapshot alike — and the skipped partition pass
// is counted. A computed dividend (the projection π_{2,1} of a stored
// transpose) is drained and sorted instead, and skips nothing. R holds 7
// floors of rows (engine::kMinPartitionRows), so both fan out pool-wide.
TEST(KeyRangeTest, StoredScanDivisionSkipsThePartitionPass) {
  const std::uint64_t seed = BaseSeed();
  util::Rng rng(seed * 43 + 3);
  Relation r(2);
  for (std::size_t key = 0; key < engine::kMinPartitionRows; ++key) {
    setalg::testing::AddGroup(&r, static_cast<core::Value>(key),
                              static_cast<core::Value>(rng.NextBounded(3)), 7);
  }
  ASSERT_EQ(r.size(), 7 * engine::kMinPartitionRows);
  core::Schema schema = DivisionSchema();
  schema.AddRelation("RT", 2);
  core::Database db(schema);
  db.SetRelation("R", r);
  db.SetRelation("S", MakeRel(1, {{1}, {2}}));
  Relation transpose(2);
  for (std::size_t i = 0; i < r.size(); ++i) {
    const core::TupleView row = r.tuple(i);
    transpose.Add({row[1], row[0]});
  }
  db.SetRelation("RT", std::move(transpose));
  const ra::ExprPtr stored = ClassicDivisionOver(ra::Rel("R", 2), ra::Rel("S", 1));
  const ra::ExprPtr computed = ClassicDivisionOver(
      ra::Project(ra::Rel("RT", 2), {2, 1}), ra::Rel("S", 1));

  const engine::Engine serial{engine::EngineOptions{}};
  auto want = serial.Run(stored, db);
  ASSERT_TRUE(want.ok()) << want.error();
  const VersionedDatabase head(db);
  const SnapshotPtr snap = head.snapshot();
  for (const int threads : {2, 7}) {
    engine::EngineOptions options;
    options = options.WithThreads(static_cast<std::size_t>(threads));
    const engine::Engine engine(options);
    const std::string context = "threads=" + std::to_string(threads);
    for (const core::DatabaseView* view :
         {static_cast<const core::DatabaseView*>(&db),
          static_cast<const core::DatabaseView*>(snap.get())}) {
      auto in_place = engine.Run(stored, *view);
      ASSERT_TRUE(in_place.ok()) << in_place.error();
      EXPECT_EQ(in_place->relation.flat(), want->relation.flat()) << context;
      EXPECT_EQ(in_place->stats.partition_passes_skipped, 1u) << context;
      EXPECT_EQ(in_place->stats.partitions, static_cast<std::size_t>(threads))
          << context;

      auto drained = engine.Run(computed, *view);
      ASSERT_TRUE(drained.ok()) << drained.error();
      EXPECT_EQ(drained->relation.flat(), want->relation.flat()) << context;
      EXPECT_EQ(drained->stats.partition_passes_skipped, 0u) << context;
      EXPECT_EQ(drained->stats.partitions, static_cast<std::size_t>(threads))
          << context;
    }
  }
}

}  // namespace
}  // namespace setalg::txn
