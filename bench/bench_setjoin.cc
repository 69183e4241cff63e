// Experiments E10/E12: set-containment join algorithms (no sub-quadratic
// algorithm is known — all four stay superlinear, the heuristics win by
// constants) and the O(n log n + output) set-equality join.
//
// Also benches the worst-case-optimal multiway join on a skewed triangle
// query where the binary plan's intermediate blows past the AGM bound:
// binary vs multiway runtimes plus the recorded max intermediates and the
// AGM bound itself, so the regression gate can assert the bound holds.
//
// Emits BENCH_setjoin.json with the measured tables so the perf
// trajectory is tracked across PRs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/calibration.h"
#include "engine/cost.h"
#include "engine/engine.h"
#include "ra/expr.h"
#include "setjoin/setjoin.h"
#include "stats/stats.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workload/generators.h"

// Injected by CMake from `git rev-parse --short HEAD` at configure time.
#ifndef SETALG_GIT_SHA
#define SETALG_GIT_SHA "unknown"
#endif

namespace {

using namespace setalg;

// Best-of-`reps` wall time (see bench_division.cc: the CI regression gate
// compares table cells across runs, and the min of a few repeats is far
// less noisy than one shot).
template <typename Fn>
double BestOfMillis(Fn&& fn, int reps = 3) {
  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    util::WallTimer timer;
    fn();
    const double ms = timer.ElapsedMillis();
    if (i == 0 || ms < best) best = ms;
  }
  return best;
}

// The cost model consumes relation statistics; the set-join operators are
// hand-built (no logical pattern), so the bench invokes the model directly
// the way a caller assembling a physical plan would.
engine::ExprEstimate EstimateOf(const core::Relation& relation) {
  return engine::FromStats(stats::ComputeRelationStats(relation));
}

// Worker-pool width of the `parallel` columns (see bench_division.cc:
// hardware width clamped to [2, 4]; the JSON's hardware_threads field
// tells the regression gate whether the comparison is meaningful).
std::size_t ParallelThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(2u, std::min(4u, hw == 0 ? 2u : hw));
}

// Best-of-3 wall time of a hand-built set-join plan executed by the engine
// (batched/parallel columns; the engine run includes the scans and
// grouping the kernel-direct cells do outside the timer). `stats_out`,
// when non-null, receives the last run's stats.
double EnginePlanMillis(const core::DatabaseView& db, engine::PhysicalOpPtr root,
                        const char* what, const engine::EngineOptions& options,
                        engine::PlanStats* stats_out = nullptr) {
  engine::PhysicalPlan plan;
  plan.root = std::move(root);
  const engine::Engine engine(options);
  return BestOfMillis([&] {
    auto result = engine.Run(plan, db);
    benchmark::DoNotOptimize(result);
    if (!result.ok()) {
      std::fprintf(stderr, "%s engine run failed: %s\n", what,
                   result.error().c_str());
      std::exit(1);  // The tracked artifact must never hide a failure.
    }
    if (stats_out != nullptr) *stats_out = std::move(result->stats);
  });
}

// Best-of-3 wall time of the same plan through a prepared-statement
// handle (Engine::Prepare over the hand-built plan, then Run(handle)):
// the prepared hot path with per-run version-vector revalidation.
double PreparedPlanMillis(const core::Database& db, engine::PhysicalOpPtr root,
                          const char* what, const engine::EngineOptions& options) {
  engine::PhysicalPlan plan;
  plan.root = std::move(root);
  const engine::Engine engine(options);
  auto handle = engine.Prepare(std::move(plan), db);
  if (!handle.ok()) {
    std::fprintf(stderr, "%s prepare failed: %s\n", what, handle.error().c_str());
    std::exit(1);  // The tracked artifact must never hide a failure.
  }
  return BestOfMillis([&] {
    auto result = engine.Run(*handle, db);
    benchmark::DoNotOptimize(result);
    if (!result.ok()) {
      std::fprintf(stderr, "%s prepared run failed: %s\n", what,
                   result.error().c_str());
      std::exit(1);
    }
  });
}

workload::SetJoinInstance Instance(std::size_t groups, std::size_t set_size,
                                   double containment, std::uint64_t seed = 23) {
  workload::SetJoinConfig config;
  config.r_groups = groups;
  config.s_groups = groups;
  config.r_group_size = set_size;
  config.s_group_size = std::max<std::size_t>(2, set_size / 2);
  config.domain_size = std::max<std::size_t>(32, groups / 2);
  config.containment_fraction = containment;
  config.seed = seed;
  return workload::MakeSetJoinInstance(config);
}

struct ContainmentRow {
  std::size_t groups = 0;
  std::vector<std::pair<std::string, double>> cells;  // algorithm -> ms
  std::size_t matches = 0;
  std::string chosen;  // Algorithm the cost model picked.
  double chosen_ms = 0.0;
  double batched_ms = 0.0;   // Engine plan through the batch surface.
  double parallel_ms = 0.0;  // Same plan with a worker pool.
  double prepared_ms = 0.0;  // Same plan through a prepared handle.
  std::size_t threads = 0;
  std::size_t partitions = 0;
  // Partition passes the parallel run skipped; the regression gate
  // requires > 0 (the scanned left side must be cut into key ranges in
  // place, not drained).
  std::size_t parallel_skipped_passes = 0;
};

struct EqualityRow {
  std::size_t groups = 0;
  double nested_ms = 0.0;
  double hash_ms = 0.0;
  std::size_t matches = 0;
  std::string chosen;  // Algorithm the cost model picked.
  double chosen_ms = 0.0;
  double batched_ms = 0.0;   // Engine plan through the batch surface.
  double parallel_ms = 0.0;  // Same plan with a worker pool.
  double prepared_ms = 0.0;  // Same plan through a prepared handle.
  std::size_t threads = 0;
  std::size_t partitions = 0;
};

std::vector<ContainmentRow> PrintContainmentTable() {
  std::vector<ContainmentRow> rows;
  std::printf("== E10: set-containment join runtimes (ms), sets of ~8 ==\n");
  std::printf("%-8s", "groups");
  for (auto algorithm : setjoin::AllContainmentAlgorithms()) {
    std::printf("  %-22s", setjoin::ContainmentAlgorithmToString(algorithm));
  }
  std::printf("  %-22s  %-22s  %-22s  %-22s  matches\n", "cost-based",
              "batched", "parallel", "prepared");
  for (std::size_t groups : {250u, 500u, 1000u, 2000u}) {
    const auto instance = Instance(groups, 8, 0.05);
    const auto db = workload::SetJoinDatabase(instance);
    const auto r = setjoin::AsGrouped(instance.r);
    const auto s = setjoin::AsGrouped(instance.s);
    std::printf("%-8zu", groups);
    ContainmentRow row;
    row.groups = groups;
    for (auto algorithm : setjoin::AllContainmentAlgorithms()) {
      const double ms = BestOfMillis([&] {
        const auto result = setjoin::SetContainmentJoin(r, s, algorithm);
        benchmark::DoNotOptimize(result);
        row.matches = result.size();
      });
      std::printf("  %-22.3f", ms);
      row.cells.emplace_back(setjoin::ContainmentAlgorithmToString(algorithm), ms);
    }
    {
      const auto choice = engine::CostModel(nullptr).ChooseContainment(
          EstimateOf(instance.r), EstimateOf(instance.s));
      row.chosen = setjoin::ContainmentAlgorithmToString(choice.algorithm);
      row.chosen_ms = BestOfMillis([&] {
        benchmark::DoNotOptimize(setjoin::SetContainmentJoin(r, s, choice.algorithm));
      });
      std::printf("  %-22.3f", row.chosen_ms);
    }
    auto make_root = [] {
      return engine::MakeSetContainmentJoin(
          engine::MakeScan("R", 2), engine::MakeScan("S", 2),
          setjoin::ContainmentAlgorithm::kInvertedIndex);
    };
    row.batched_ms = EnginePlanMillis(db, make_root(), "containment",
                                      engine::EngineOptions{});
    std::printf("  %-22.3f", row.batched_ms);
    engine::PlanStats parallel_stats;
    row.parallel_ms =
        EnginePlanMillis(db, make_root(), "containment-parallel",
                         engine::EngineOptions{}.WithThreads(ParallelThreads()),
                         &parallel_stats);
    row.threads = parallel_stats.threads_used;
    row.partitions = parallel_stats.partitions;
    row.parallel_skipped_passes = parallel_stats.partition_passes_skipped;
    std::printf("  %-22.3f", row.parallel_ms);
    row.prepared_ms = PreparedPlanMillis(db, make_root(), "containment-prepared",
                                         engine::EngineOptions{});
    std::printf("  %-22.3f", row.prepared_ms);
    std::printf("  %zu\n", row.matches);
    rows.push_back(std::move(row));
  }
  std::printf("(expected shape: signatures/partitioning/inverted index beat the\n"
              " plain nested loop by constants, but every curve bends\n"
              " superlinearly — consistent with no known sub-quadratic\n"
              " algorithm for containment joins)\n\n");
  return rows;
}

std::vector<EqualityRow> PrintEqualityTable() {
  std::vector<EqualityRow> rows;
  std::printf("== E12: set-equality join, canonical hash vs nested loop (ms) ==\n");
  std::printf("%-8s  %-14s  %-14s  %-14s  %-14s  %-14s  %-14s  %-8s\n", "groups",
              "nested-loop", "canonical-hash", "cost-based", "batched", "parallel",
              "prepared", "matches");
  for (std::size_t groups : {250u, 500u, 1000u, 2000u, 4000u}) {
    workload::SetJoinConfig config;
    config.r_groups = groups;
    config.s_groups = groups;
    config.r_group_size = 4;
    config.s_group_size = 4;
    config.domain_size = 12;  // Small domain: equal sets occur.
    config.seed = 29;
    const auto instance = workload::MakeSetJoinInstance(config);
    const auto r = setjoin::AsGrouped(instance.r);
    const auto s = setjoin::AsGrouped(instance.s);
    EqualityRow row;
    row.groups = groups;
    row.nested_ms = BestOfMillis([&] {
      benchmark::DoNotOptimize(
          setjoin::SetEqualityJoin(r, s, setjoin::EqualityJoinAlgorithm::kNestedLoop));
    });
    row.hash_ms = BestOfMillis([&] {
      const auto fast = setjoin::SetEqualityJoin(
          r, s, setjoin::EqualityJoinAlgorithm::kCanonicalHash);
      benchmark::DoNotOptimize(fast);
      row.matches = fast.size();
    });
    const auto choice = engine::CostModel(nullptr).ChooseSetEquality(
        EstimateOf(instance.r), EstimateOf(instance.s));
    row.chosen = setjoin::EqualityJoinAlgorithmToString(choice.algorithm);
    row.chosen_ms = BestOfMillis([&] {
      benchmark::DoNotOptimize(setjoin::SetEqualityJoin(r, s, choice.algorithm));
    });
    const auto db = workload::SetJoinDatabase(instance);
    auto make_root = [] {
      return engine::MakeSetEqualityJoin(
          engine::MakeScan("R", 2), engine::MakeScan("S", 2),
          setjoin::EqualityJoinAlgorithm::kCanonicalHash);
    };
    row.batched_ms = EnginePlanMillis(db, make_root(), "equality",
                                      engine::EngineOptions{});
    engine::PlanStats parallel_stats;
    row.parallel_ms =
        EnginePlanMillis(db, make_root(), "equality-parallel",
                         engine::EngineOptions{}.WithThreads(ParallelThreads()),
                         &parallel_stats);
    row.threads = parallel_stats.threads_used;
    row.partitions = parallel_stats.partitions;
    row.prepared_ms = PreparedPlanMillis(db, make_root(), "equality-prepared",
                                         engine::EngineOptions{});
    std::printf("%-8zu  %-14.3f  %-14.3f  %-14.3f  %-14.3f  %-14.3f  %-14.3f  "
                "%-8zu\n",
                groups, row.nested_ms, row.hash_ms, row.chosen_ms, row.batched_ms,
                row.parallel_ms, row.prepared_ms, row.matches);
    rows.push_back(std::move(row));
  }
  std::printf("(expected shape: canonical hashing is ~n log n + output — the\n"
              " paper's footnote 1 — while the baseline is quadratic)\n\n");
  return rows;
}

struct CalibratedRow {
  std::size_t groups = 0;
  std::string uncalibrated_choice;
  std::string calibrated_choice;
  double uncalibrated_ms = 0.0;
  double calibrated_ms = 0.0;
  std::size_t matches = 0;
};

// Containment join on a zipf-skewed element domain: heavy elements make
// the inverted index's postings long, which the uniform nr/domain posting
// estimate cannot see. The calibrated model prices postings from the
// element histogram's expected frequency and picks a different kernel —
// the regression gate asserts calibrated <= uncalibrated.
std::vector<CalibratedRow> PrintCalibratedTable() {
  std::vector<CalibratedRow> rows;
  std::printf("== self-tuning: containment kernel choice under zipf skew (ms) ==\n");
  std::printf("%-8s  %-24s  %-24s  %-16s  %-16s  matches\n", "groups",
              "uncalibrated-choice", "calibrated-choice", "uncalibrated",
              "calibrated");
  for (std::size_t groups : {1000u, 2000u}) {
    workload::SetJoinConfig config;
    config.r_groups = groups;
    config.s_groups = groups;
    config.r_group_size = 24;
    config.s_group_size = 4;
    config.domain_size = 4000;
    config.containment_fraction = 0.05;
    config.zipf_skew = 1.5;
    config.seed = 41;
    const auto instance = workload::MakeSetJoinInstance(config);
    const auto r = setjoin::AsGrouped(instance.r);
    const auto s = setjoin::AsGrouped(instance.s);
    const auto r_est = EstimateOf(instance.r);
    const auto s_est = EstimateOf(instance.s);

    CalibratedRow row;
    row.groups = groups;
    const auto uncalibrated =
        engine::CostModel(nullptr).ChooseContainment(r_est, s_est);
    engine::CalibrationStore store;  // Cold: histograms alone do the work.
    const auto calibrated =
        engine::CostModel(nullptr, &store).ChooseContainment(r_est, s_est);
    row.uncalibrated_choice =
        setjoin::ContainmentAlgorithmToString(uncalibrated.algorithm);
    row.calibrated_choice =
        setjoin::ContainmentAlgorithmToString(calibrated.algorithm);
    row.uncalibrated_ms = BestOfMillis([&] {
      const auto result =
          setjoin::SetContainmentJoin(r, s, uncalibrated.algorithm);
      benchmark::DoNotOptimize(result);
      row.matches = result.size();
    });
    row.calibrated_ms = BestOfMillis([&] {
      benchmark::DoNotOptimize(
          setjoin::SetContainmentJoin(r, s, calibrated.algorithm));
    });
    std::printf("%-8zu  %-24s  %-24s  %-16.3f  %-16.3f  %zu\n", groups,
                row.uncalibrated_choice.c_str(), row.calibrated_choice.c_str(),
                row.uncalibrated_ms, row.calibrated_ms, row.matches);
    rows.push_back(std::move(row));
  }
  std::printf("(expected shape: the uniform model picks the inverted index,\n"
              " whose postings the skew makes long; the histogram-aware model\n"
              " picks a kernel that ignores posting lengths and runs faster)\n\n");
  return rows;
}

struct MultiwayRow {
  std::size_t n = 0;
  std::size_t d = 0;            // Middle-domain width of the skew.
  double binary_ms = 0.0;       // Planned binary hash-join chain.
  double multiway_ms = 0.0;     // Same query routed to the multiway operator.
  double agm_bound = 0.0;       // AGM bound recorded by the planner.
  std::size_t binary_max_intermediate = 0;
  std::size_t multiway_max_intermediate = 0;
  std::string chosen;           // join-chain routing label ("multiway[3]").
  std::size_t matches = 0;
};

// The triangle chain R(a,b) ⋈ S(b,c) ⋈ T(c,a), written the binary way —
// the planner collects the chain and routes it itself.
ra::ExprPtr TriangleChainExpr() {
  return ra::Join(
      ra::Join(ra::Rel("R", 2), ra::Rel("S", 2), {{2, ra::Cmp::kEq, 1}}),
      ra::Rel("T", 2), {{4, ra::Cmp::kEq, 1}, {1, ra::Cmp::kEq, 2}});
}

// Skewed triangle data (mirrors tests/batch_exec_test.cc): R = X×Y and
// S = Y×Z are complete bipartite through a d-element middle domain Y, so
// the binary R⋈S intermediate is n²/d tuples — far past the AGM bound
// n^1.5 — while T is n random (c, a) pairs keeping the output sparse.
// Disjoint value ranges per variable keep estimator distinct counts exact.
core::Database TriangleDatabase(std::size_t n, std::size_t d,
                                std::uint64_t seed = 37) {
  const std::size_t side = n / d;
  core::Relation r(2), s(2), t(2);
  for (std::size_t x = 0; x < side; ++x) {
    for (std::size_t y = 0; y < d; ++y) {
      r.Add({static_cast<core::Value>(1 + x),
             static_cast<core::Value>(1000001 + y)});
    }
  }
  for (std::size_t y = 0; y < d; ++y) {
    for (std::size_t z = 0; z < side; ++z) {
      s.Add({static_cast<core::Value>(1000001 + y),
             static_cast<core::Value>(2000001 + z)});
    }
  }
  util::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    t.Add({static_cast<core::Value>(2000001 + rng.NextBounded(side)),
           static_cast<core::Value>(1 + rng.NextBounded(side))});
  }
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 2);
  schema.AddRelation("T", 2);
  core::Database db(schema);
  db.SetRelation("R", std::move(r));
  db.SetRelation("S", std::move(s));
  db.SetRelation("T", std::move(t));
  return db;
}

// Best-of-3 wall time of a fully planned query (choice points, AGM bound
// and all — unlike EnginePlanMillis, which executes a hand-built root).
double PlannedQueryMillis(const engine::Engine& engine,
                          const engine::PhysicalPlan& plan,
                          const core::Database& db, const char* what,
                          engine::PlanStats* stats_out,
                          std::size_t* matches_out) {
  return BestOfMillis([&] {
    auto result = engine.Run(plan, db);
    benchmark::DoNotOptimize(result);
    if (!result.ok()) {
      std::fprintf(stderr, "%s engine run failed: %s\n", what,
                   result.error().c_str());
      std::exit(1);  // The tracked artifact must never hide a failure.
    }
    if (matches_out != nullptr) *matches_out = result->relation.size();
    if (stats_out != nullptr) *stats_out = std::move(result->stats);
  });
}

std::vector<MultiwayRow> PrintMultiwayTable() {
  std::vector<MultiwayRow> rows;
  std::printf("== worst-case-optimal triangle: binary chain vs multiway (ms) ==\n");
  std::printf("%-8s  %-4s  %-12s  %-12s  %-12s  %-14s  %-14s  %-14s  matches\n",
              "n", "d", "binary", "multiway", "chosen", "agm-bound",
              "binary-maxint", "multiway-maxint");
  const auto expr = TriangleChainExpr();
  for (const auto& [n, d] : {std::pair<std::size_t, std::size_t>{2000, 10},
                             std::pair<std::size_t, std::size_t>{16000, 32}}) {
    const auto db = TriangleDatabase(n, d);
    MultiwayRow row;
    row.n = n;
    row.d = d;

    const engine::Engine binary(engine::EngineOptions::CostBased());
    auto binary_plan = binary.Plan(expr, db);
    if (!binary_plan.ok()) {
      std::fprintf(stderr, "binary triangle plan failed: %s\n",
                   binary_plan.error().c_str());
      std::exit(1);
    }
    engine::PlanStats binary_stats;
    row.binary_ms = PlannedQueryMillis(binary, *binary_plan, db,
                                       "binary-triangle", &binary_stats,
                                       &row.matches);
    row.binary_max_intermediate = binary_stats.max_intermediate;

    const engine::Engine multiway(
        engine::EngineOptions::CostBased().WithMultiway());
    auto multiway_plan = multiway.Plan(expr, db);
    if (!multiway_plan.ok()) {
      std::fprintf(stderr, "multiway triangle plan failed: %s\n",
                   multiway_plan.error().c_str());
      std::exit(1);
    }
    for (const auto& choice : multiway_plan->choices) {
      if (choice.site == "join-chain") row.chosen = choice.algorithm;
    }
    engine::PlanStats multiway_stats;
    row.multiway_ms = PlannedQueryMillis(multiway, *multiway_plan, db,
                                         "multiway-triangle", &multiway_stats,
                                         nullptr);
    row.multiway_max_intermediate = multiway_stats.max_intermediate;
    row.agm_bound =
        multiway_stats.has_agm_bound ? multiway_stats.agm_bound : 0.0;

    std::printf("%-8zu  %-4zu  %-12.3f  %-12.3f  %-12s  %-14.0f  %-14zu  "
                "%-14zu  %zu\n",
                row.n, row.d, row.binary_ms, row.multiway_ms,
                row.chosen.c_str(), row.agm_bound, row.binary_max_intermediate,
                row.multiway_max_intermediate, row.matches);
    rows.push_back(std::move(row));
  }
  std::printf("(expected shape: the binary chain materializes the n²/d\n"
              " bipartite intermediate, past the AGM bound n^1.5; the\n"
              " multiway generic join stays under the bound and the cost\n"
              " model routes the chain to it at every listed size)\n\n");
  return rows;
}

void WriteJson(const std::vector<ContainmentRow>& containment,
               const std::vector<EqualityRow>& equality,
               const std::vector<MultiwayRow>& multiway,
               const std::vector<CalibratedRow>& calibrated) {
  util::JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value("setjoin");
  json.Key("hardware_threads")
      .Value(static_cast<std::size_t>(std::thread::hardware_concurrency()));
  json.Key("git_sha").Value(SETALG_GIT_SHA);
  json.Key("containment_ms").BeginArray();
  for (const auto& row : containment) {
    json.BeginObject();
    json.Key("groups").Value(row.groups);
    for (const auto& [name, ms] : row.cells) json.Key(name).Value(ms);
    json.Key("cost-based").Value(row.chosen_ms);
    json.Key("batched").Value(row.batched_ms);
    json.Key("parallel").Value(row.parallel_ms);
    json.Key("parallel_skipped_passes").Value(row.parallel_skipped_passes);
    json.Key("prepared").Value(row.prepared_ms);
    json.Key("chosen_containment").Value(row.chosen);
    json.Key("threads").Value(row.threads);
    json.Key("partitions").Value(row.partitions);
    json.Key("matches").Value(row.matches);
    json.EndObject();
  }
  json.EndArray();
  json.Key("equality_ms").BeginArray();
  for (const auto& row : equality) {
    json.BeginObject();
    json.Key("groups").Value(row.groups);
    json.Key("nested-loop").Value(row.nested_ms);
    json.Key("canonical-hash").Value(row.hash_ms);
    json.Key("cost-based").Value(row.chosen_ms);
    json.Key("batched").Value(row.batched_ms);
    json.Key("parallel").Value(row.parallel_ms);
    json.Key("prepared").Value(row.prepared_ms);
    json.Key("chosen_equality").Value(row.chosen);
    json.Key("threads").Value(row.threads);
    json.Key("partitions").Value(row.partitions);
    json.Key("matches").Value(row.matches);
    json.EndObject();
  }
  json.EndArray();
  json.Key("multiway_ms").BeginArray();
  for (const auto& row : multiway) {
    json.BeginObject();
    json.Key("n").Value(row.n);
    json.Key("d").Value(row.d);
    json.Key("binary").Value(row.binary_ms);
    json.Key("multiway").Value(row.multiway_ms);
    json.Key("agm_bound").Value(row.agm_bound);
    json.Key("binary_max_intermediate").Value(row.binary_max_intermediate);
    json.Key("multiway_max_intermediate").Value(row.multiway_max_intermediate);
    json.Key("chosen_join").Value(row.chosen);
    json.Key("matches").Value(row.matches);
    json.EndObject();
  }
  json.EndArray();
  json.Key("calibrated_ms").BeginArray();
  for (const auto& row : calibrated) {
    json.BeginObject();
    json.Key("groups").Value(row.groups);
    json.Key("uncalibrated").Value(row.uncalibrated_ms);
    json.Key("calibrated").Value(row.calibrated_ms);
    json.Key("uncalibrated_choice").Value(row.uncalibrated_choice);
    json.Key("calibrated_choice").Value(row.calibrated_choice);
    json.Key("matches").Value(row.matches);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  std::string error;
  if (util::WriteTextFile("BENCH_setjoin.json", json.TakeString(), &error)) {
    std::printf("wrote BENCH_setjoin.json\n\n");
  } else {
    std::fprintf(stderr, "BENCH_setjoin.json: %s\n", error.c_str());
  }
}

void BM_Containment(benchmark::State& state,
                    setjoin::ContainmentAlgorithm algorithm) {
  const auto instance = Instance(static_cast<std::size_t>(state.range(0)), 8, 0.05);
  const auto r = setjoin::AsGrouped(instance.r);
  const auto s = setjoin::AsGrouped(instance.s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(setjoin::SetContainmentJoin(r, s, algorithm));
  }
}
BENCHMARK_CAPTURE(BM_Containment, nested_loop,
                  setjoin::ContainmentAlgorithm::kNestedLoop)
    ->Arg(500)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Containment, signature,
                  setjoin::ContainmentAlgorithm::kSignatureNestedLoop)
    ->Arg(500)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Containment, partitioned,
                  setjoin::ContainmentAlgorithm::kPartitioned)
    ->Arg(500)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Containment, inverted_index,
                  setjoin::ContainmentAlgorithm::kInvertedIndex)
    ->Arg(500)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_SetEqualityCanonicalHash(benchmark::State& state) {
  workload::SetJoinConfig config;
  config.r_groups = static_cast<std::size_t>(state.range(0));
  config.s_groups = config.r_groups;
  config.r_group_size = 4;
  config.s_group_size = 4;
  config.domain_size = 12;
  const auto instance = workload::MakeSetJoinInstance(config);
  const auto r = setjoin::AsGrouped(instance.r);
  const auto s = setjoin::AsGrouped(instance.s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(setjoin::SetEqualityJoin(
        r, s, setjoin::EqualityJoinAlgorithm::kCanonicalHash));
  }
}
BENCHMARK(BM_SetEqualityCanonicalHash)
    ->Arg(1000)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond);

void BM_SetOverlapJoin(benchmark::State& state) {
  const auto instance = Instance(static_cast<std::size_t>(state.range(0)), 6, 0.0);
  const auto r = setjoin::AsGrouped(instance.r);
  const auto s = setjoin::AsGrouped(instance.s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(setjoin::SetOverlapJoin(r, s));
  }
}
BENCHMARK(BM_SetOverlapJoin)->Arg(1000)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const auto containment = PrintContainmentTable();
  const auto equality = PrintEqualityTable();
  const auto multiway = PrintMultiwayTable();
  const auto calibrated = PrintCalibratedTable();
  WriteJson(containment, equality, multiway, calibrated);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
