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

#include <cstdlib>
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
#include "engine/result_cache.h"
#include "engine/shared_cache.h"
#include "gf/formula.h"
#include "gf/translate.h"
#include "ra/expr.h"
#include "setjoin/division.h"
#include "setjoin/grouped.h"
#include "test_util.h"
#include "txn/sharded.h"
#include "txn/snapshot.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace setalg::txn {
namespace {

using core::Relation;
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

  // The shared engine every session thread uses: engine-local plan cache
  // off (the single-threaded path), process-wide striped caches on.
  engine::EngineOptions options = mode.options;
  options.plan_cache_entries = 0;
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
  replay_options.plan_cache_entries = 0;
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
// Sharded storage (txn/sharded.h).

TEST(ShardedTest, ShardsPartitionTheRelationByKeyHash) {
  const std::uint64_t seed = BaseSeed();
  const core::Database db = setalg::testing::RandomDatabase(
      DivisionSchema(), 150, 12, seed * 61 + 13);
  constexpr std::size_t kShards = 4;
  ShardedDatabase head(db, kShards);
  const SnapshotPtr snap = head.snapshot();

  const auto* sharded = dynamic_cast<const core::ShardedView*>(snap.get());
  ASSERT_NE(sharded, nullptr);
  EXPECT_EQ(sharded->shard_count(), kShards);
  EXPECT_EQ(sharded->shard_key_column("R"), 1u);
  EXPECT_EQ(sharded->shard_key_column("S"), 1u);

  for (const char* name : {"R", "S"}) {
    Relation merged(db.relation(name).arity());
    for (std::size_t s = 0; s < kShards; ++s) {
      const Relation& shard = sharded->shard(name, s);
      for (std::size_t i = 0; i < shard.size(); ++i) {
        const core::TupleView row = shard.tuple(i);
        EXPECT_EQ(setjoin::PartitionOfKey(row[0], kShards), s)
            << name << " shard " << s << " row " << i;
        merged.Add(row);
      }
    }
    merged.Normalize();
    EXPECT_EQ(merged.flat(), db.relation(name).flat()) << name;
  }
}

TEST(ShardedTest, CommitReusesUntouchedShardSlices) {
  const core::Database db = setalg::testing::RandomDatabase(
      DivisionSchema(), 80, 8, BaseSeed() * 67 + 1);
  ShardedDatabase head(db, 3);
  const SnapshotPtr v0 = head.snapshot();
  const auto* sharded0 = dynamic_cast<const core::ShardedView*>(v0.get());
  ASSERT_NE(sharded0, nullptr);
  const Relation* r_shard0 = &sharded0->shard("R", 0);

  head.SetRelation("S", MakeRel(1, {{1}, {2}}));
  const SnapshotPtr v1 = head.snapshot();
  const auto* sharded1 = dynamic_cast<const core::ShardedView*>(v1.get());
  ASSERT_NE(sharded1, nullptr);
  // The commit only touched S: R's slices are shared with the previous
  // snapshot, not recomputed.
  EXPECT_EQ(&sharded1->shard("R", 0), r_shard0);
  // And S was re-sliced from the new contents.
  Relation s_merged(1);
  for (std::size_t s = 0; s < 3; ++s) {
    const Relation& shard = sharded1->shard("S", s);
    for (std::size_t i = 0; i < shard.size(); ++i) s_merged.Add(shard.tuple(i));
  }
  s_merged.Normalize();
  EXPECT_EQ(s_merged.flat(), MakeRel(1, {{1}, {2}}).flat());
}

TEST(ShardedTest, MergedStatsMatchDirectComputation) {
  const core::Database db = setalg::testing::RandomDatabase(
      DivisionSchema(), 200, 15, BaseSeed() * 71 + 5);
  ShardedDatabase head(db, 5);
  const SnapshotPtr snap = head.snapshot();
  const stats::RelationStats direct = stats::ComputeRelationStats(db.relation("R"));
  const stats::RelationStats* merged = snap->Get("R");
  ASSERT_NE(merged, nullptr);
  // Key-disjoint shards merge these fields exactly.
  EXPECT_EQ(merged->cardinality, direct.cardinality);
  EXPECT_EQ(merged->columns[0].distinct, direct.columns[0].distinct);
  EXPECT_EQ(merged->groups.num_groups, direct.groups.num_groups);
  EXPECT_EQ(merged->groups.max_group_size, direct.groups.max_group_size);
  EXPECT_EQ(merged->groups.min_group_size, direct.groups.min_group_size);
}

// The tentpole differential: every query family member over a sharded
// snapshot — serial, 2 and 7 threads — must be bit-identical to the
// serial run over the plain unsharded database, and shard-aligned
// parallel runs must actually skip partition passes.
TEST(ShardedTest, ShardedRunsMatchUnshardedSerialAcrossThreads) {
  const std::uint64_t seed = BaseSeed();
  const core::Schema schema = DivisionSchema();
  const core::Database db =
      setalg::testing::RandomDatabase(schema, 400, 16, seed * 41 + 9);
  const std::vector<ra::ExprPtr> exprs = QueryFamily(schema, seed);

  const engine::Engine reference{engine::EngineOptions{}};
  for (const int shards : {2, 5}) {
    ShardedDatabase head(db, static_cast<std::size_t>(shards));
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
        const std::string context = "shards=" + std::to_string(shards) +
                                    " threads=" + std::to_string(threads) +
                                    " expr=" + std::to_string(q);
        EXPECT_EQ(got->relation.arity(), want->relation.arity()) << context;
        EXPECT_EQ(got->relation.flat(), want->relation.flat()) << context;
        if (threads == 1) {
          EXPECT_EQ(got->stats.partition_passes_skipped, 0u) << context;
        }
      }
    }
  }
}

TEST(ShardedTest, AlignedDivisionSkipsThePartitionPass) {
  const std::uint64_t seed = BaseSeed();
  const core::Schema schema = DivisionSchema();
  const core::Database db =
      setalg::testing::RandomDatabase(schema, 300, 12, seed * 43 + 3);
  const ra::ExprPtr division = setjoin::ClassicDivisionExpr("R", "S");

  const engine::Engine serial{engine::EngineOptions{}};
  auto want = serial.Run(division, db);
  ASSERT_TRUE(want.ok()) << want.error();

  ShardedDatabase sharded_head(db, 4);
  VersionedDatabase plain_head(db);
  const SnapshotPtr sharded_snap = sharded_head.snapshot();
  const SnapshotPtr plain_snap = plain_head.snapshot();
  for (const int threads : {2, 7}) {
    engine::EngineOptions options;
    options = options.WithThreads(static_cast<std::size_t>(threads));
    const engine::Engine engine(options);

    // Sharded on the dividend's group-key column: the partition pass is
    // skipped and the result is still bit-identical to the serial run.
    auto sharded_run = engine.Run(division, *sharded_snap);
    ASSERT_TRUE(sharded_run.ok()) << sharded_run.error();
    EXPECT_EQ(sharded_run->relation.flat(), want->relation.flat());
    EXPECT_GT(sharded_run->stats.partition_passes_skipped, 0u)
        << "threads=" << threads;

    // A plain (unsharded) snapshot keeps partitioning the classic way.
    auto plain_run = engine.Run(division, *plain_snap);
    ASSERT_TRUE(plain_run.ok()) << plain_run.error();
    EXPECT_EQ(plain_run->relation.flat(), want->relation.flat());
    EXPECT_EQ(plain_run->stats.partition_passes_skipped, 0u)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace setalg::txn
