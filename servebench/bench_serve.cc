// bench_serve: setalgd's serving path measured end to end, with a traced
// per-layer breakdown.
//
//   bench_serve --workload div-hot --seed 1 --seconds 20 [--trace 1]
//               [--trace-out TRACE_serve.json]
//
// Hosts server::Server, the class setalgd wraps, in-process on
// 127.0.0.1:0 with setalgd's cache sizes, and drives it from two
// server::Client connections in a closed loop: a client sends its next
// statement only after the previous response has arrived. The churn
// workloads write through txn::VersionedDatabase::Commit in this process,
// because the wire protocol has no write verb.
//
// A run sets the workload up kSetups times (setup_s is the median), then
// measures --seconds of traffic with tracing off. With --trace 1 a single
// client then replays 300 statements; after each round trip the bench
// calls each layer's public function from outside, in pipeline order, on
// the snapshot the server read. The spans go to --trace-out. serve.py
// (next to this file) builds and runs this binary; README.md there
// describes workloads and metrics.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// the latency sample count, the first few errors, and every metric with
// its unit. Exit status 1 means set-up failed and nothing was measured.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/csv.h"
#include "core/database.h"
#include "engine/engine.h"
#include "engine/result_cache.h"
#include "engine/shared_cache.h"
#include "ra/parse.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "setjoin/division.h"
#include "sql/analyzer.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "stats/stats.h"
#include "txn/snapshot.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/str.h"
#include "workload/generators.h"

namespace {

using namespace setalg;
using Clock = std::chrono::steady_clock;

constexpr int kClients = 2;
constexpr int kSetups = 15;
constexpr std::size_t kTracedStatements = 300;
// p99 needs at least ten samples beyond it.
constexpr std::size_t kMinLatencySamples = 1000;
constexpr std::size_t kMaxReportedErrors = 5;

// The FOR ALL division idiom and its RA spelling; both lower to the
// textbook pattern the planner routes to the division operator.
constexpr char kDivisionSql[] =
    "SELECT r.c1 FROM R r WHERE NOT EXISTS (SELECT * FROM S s WHERE NOT "
    "EXISTS (SELECT * FROM R r2 WHERE r2.c1 = r.c1 AND r2.c2 = s.c1))";
constexpr char kDivisionRa[] =
    "diff(pi[1](R), pi[1](diff(product(pi[1](R), S), R)))";

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Nearest-rank quantile; NaN for an empty sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * values.size()));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

double Ratio(double part, double whole) { return whole > 0 ? part / whole : 0.0; }

/// One write step: `count` tuples of `relation` change per batch.
struct Toggle {
  std::string relation;
  std::size_t count = 0;
};

struct WorkloadSpec {
  core::Database db;
  /// Every client walks this list in order (from its own offset).
  std::vector<std::string> statements;
  /// Server options before the shared caches are wired in.
  engine::EngineOptions options;
  /// Cycled one batch per statement; empty for read-only workloads.
  std::vector<Toggle> writes;
  /// When non-zero, set-up drops the statements whose result holds more
  /// values (rows times arity) than this.
  std::size_t max_result_values = 0;
};

// bench_division's n = 16000 instance: |R| ~ 109k, |S| = 250.
core::Database DivisionDatabase(std::uint64_t seed) {
  workload::DivisionConfig config;
  config.num_groups = 2000;
  config.group_size = 8;
  config.domain_size = 4000;
  config.divisor_size = 250;
  config.match_fraction = 0.2;
  config.seed = seed;
  workload::DivisionInstance instance = workload::MakeDivisionInstance(config);
  core::Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 1);
  core::Database db(schema);
  db.SetRelation("R", std::move(instance.r));
  db.SetRelation("S", std::move(instance.s));
  return db;
}

std::optional<WorkloadSpec> MakeWorkload(const std::string& name, std::uint64_t seed) {
  WorkloadSpec spec;
  if (name == "div-hot" || name == "div-churn") {
    spec.db = DivisionDatabase(seed);
    spec.statements = {kDivisionSql, kDivisionRa};
    if (name == "div-churn") spec.writes = {{"R", 8}, {"S", 1}};
  } else if (name == "sql-mix") {
    spec.db = workload::SqlWorkloadDatabase(seed);
    for (auto& pair : workload::MakeSqlWorkload({500, seed})) {
      spec.statements.push_back(std::move(pair.sql));
    }
    // The few join blow-ups (5-7% of a corpus) spend their time encoding
    // thousands of rows, which triangle-churn measures. Which ones a seed
    // draws would otherwise decide this workload's tail latency.
    spec.max_result_values = 1000;
  } else if (name == "triangle-churn") {
    spec.db = workload::SqlTriangleDatabase(2000, 10, seed);
    spec.statements = {workload::TriangleSqlPair().sql};
    // What setalgd --mode cost --multiway configures.
    spec.options = engine::EngineOptions::CostBased().WithMultiway();
    spec.writes = {{"T", 4}};
  } else {
    return std::nullopt;
  }
  return spec;
}

/// Per-client write generator. Each batch removes `count` random tuples
/// of one relation and restores the ones this client's previous batch on
/// that relation removed, so relation sizes stay put.
class Writer {
 public:
  Writer(std::vector<Toggle> plan, std::uint64_t seed)
      : plan_(std::move(plan)), rng_(seed) {}

  bool empty() const { return plan_.empty(); }

  txn::WriteBatch Next(const txn::Snapshot& snapshot) {
    const Toggle& toggle = plan_[next_++ % plan_.size()];
    const core::Relation& current = snapshot.relation(toggle.relation);
    const std::size_t arity = current.arity();
    const std::size_t rows = current.size();
    std::vector<std::size_t> drop =
        rng_.SampleDistinct(std::min(toggle.count, rows), rows);
    std::sort(drop.begin(), drop.end());

    const core::Value* data = current.flat().data();
    std::vector<core::Value>& restore = removed_[toggle.relation];
    std::vector<core::Value> dropped;
    core::Relation next(arity);
    next.Reserve(rows + restore.size() / std::max<std::size_t>(arity, 1));
    std::size_t from = 0;
    for (const std::size_t row : drop) {
      next.AddRows(data + from * arity, row - from);
      dropped.insert(dropped.end(), data + row * arity, data + (row + 1) * arity);
      from = row + 1;
    }
    next.AddRows(data + from * arity, rows - from);
    next.AddRows(restore.data(), restore.size() / std::max<std::size_t>(arity, 1));
    // Commit publishes the relation as given and sessions read it from
    // several threads, so it must not be left to sort itself lazily.
    next.Normalize();
    restore = std::move(dropped);

    txn::WriteBatch batch;
    batch.Set(toggle.relation, std::move(next));
    return batch;
  }

 private:
  std::vector<Toggle> plan_;
  std::size_t next_ = 0;
  util::Rng rng_;
  std::unordered_map<std::string, std::vector<core::Value>> removed_;
};

/// The server's statement dispatch (server.cc): SQL or RA text.
util::Result<ra::ExprPtr> Compile(const std::string& statement,
                                  const core::Schema& schema) {
  return sql::LooksLikeSql(statement) ? sql::Compile(statement, schema)
                                      : ra::Parse(statement, schema);
}

/// The 1:1 classic-RA evaluation of a statement: the correctness oracle.
struct Reference {
  std::string digest;      // RelationDigest, as the server prints it.
  std::size_t values = 0;  // Rows times arity of the result.
};

util::Result<Reference> RunReference(const std::string& statement,
                                     const txn::Snapshot& snapshot) {
  auto expr = Compile(statement, snapshot.schema());
  if (!expr.ok()) return util::Result<Reference>::Error(expr.error());
  auto run = engine::Engine::Run(*expr, snapshot, engine::EngineOptions::Reference());
  if (!run.ok()) return util::Result<Reference>::Error(run.error());
  return Reference{server::DigestToHex(server::RelationDigest(run->relation)),
                   run->relation.size() * run->relation.arity()};
}

/// Empty when `response` is a well-formed OK answer whose digest matches
/// `expected` (when given); otherwise what is wrong with it.
std::string Verify(const util::Result<server::Client::Response>& response,
                   const std::string* expected) {
  if (!response.ok()) return util::StrCat("transport: ", response.error());
  const server::ResponseHeader& header = response->header;
  if (!header.ok) return util::StrCat("ERR ", header.error);
  if (header.rows != response->rows.size()) {
    return util::StrCat("header says ", header.rows, " rows, got ",
                        response->rows.size());
  }
  if (expected != nullptr && header.digest != *expected) {
    return util::StrCat("digest ", header.digest, " != reference ", *expected);
  }
  return "";
}

struct Deployment {
  WorkloadSpec spec;
  std::vector<std::string> requests;  // "QUERY <statement>", per statement.
  std::shared_ptr<txn::VersionedDatabase> head;
  std::shared_ptr<engine::SharedPlanCache> plans;
  std::shared_ptr<engine::ResultCache> results;
  /// Reference digest per distinct statement on the initial snapshot.
  std::unordered_map<std::string, std::string> reference;
  /// Serializes the bench's read-modify-commit of write batches.
  std::mutex write_mu;
  // Declared last: stopped (sessions joined) before the rest is freed.
  std::unique_ptr<server::Server> server;
};

/// Data generation, head construction, server start, reference digests
/// and one checked warm-up pass over the statement list — what setup_s
/// times.
util::Result<std::unique_ptr<Deployment>> SetUp(const std::string& name,
                                                std::uint64_t seed) {
  using Out = util::Result<std::unique_ptr<Deployment>>;
  auto spec = MakeWorkload(name, seed);
  if (!spec) return Out::Error(util::StrCat("unknown workload '", name, "'"));
  auto d = std::make_unique<Deployment>();
  d->spec = std::move(*spec);
  // Hand the head sorted storage: sessions read it concurrently.
  for (const auto& relation : d->spec.db.schema().Names()) {
    d->spec.db.relation(relation).Normalize();
  }
  d->head = std::make_shared<txn::VersionedDatabase>(d->spec.db);
  d->spec.db = core::Database();  // The head holds its own copy.

  const txn::SnapshotPtr initial = d->head->snapshot();
  std::vector<std::string> kept;
  for (auto& statement : d->spec.statements) {
    if (d->reference.count(statement) == 0) {
      auto reference = RunReference(statement, *initial);
      if (!reference.ok()) {
        return Out::Error(util::StrCat(reference.error(), " in: ", statement));
      }
      const std::size_t limit = d->spec.max_result_values;
      if (limit > 0 && reference->values > limit) continue;
      d->reference.emplace(statement, std::move(reference->digest));
    }
    d->requests.push_back(util::StrCat("QUERY ", statement));
    kept.push_back(std::move(statement));
  }
  d->spec.statements = std::move(kept);

  // The sizes server.cc picks when none are passed in.
  d->plans = std::make_shared<engine::SharedPlanCache>(256, 0);
  d->results = std::make_shared<engine::ResultCache>(256, std::size_t{64} << 20);
  d->server = std::make_unique<server::Server>(
      d->head, d->spec.options.WithSharedCaches(d->plans, d->results), nullptr);
  auto port = d->server->Start(0);
  if (!port.ok()) return Out::Error(port.error());

  auto client = server::Client::Connect("127.0.0.1", *port);
  if (!client.ok()) return Out::Error(client.error());
  for (std::size_t i = 0; i < d->spec.statements.size(); ++i) {
    const std::string& statement = d->spec.statements[i];
    const std::string problem =
        Verify(client->Roundtrip(d->requests[i]), &d->reference.at(statement));
    if (!problem.empty()) {
      return Out::Error(util::StrCat("warm-up: ", problem, " in: ", statement));
    }
  }
  client->Close();
  return Out(std::move(d));
}

/// Builds `writer`'s next batch from the head and commits it; returns when
/// the Commit call started and ended. Read-modify-commit holds write_mu:
/// Commit replaces whole relations, so a batch built from a stale
/// snapshot would undo another client's batch and the data would drift.
std::pair<Clock::time_point, Clock::time_point> CommitNext(Deployment& d,
                                                           Writer* writer) {
  std::lock_guard<std::mutex> lock(d.write_mu);
  txn::WriteBatch batch = writer->Next(*d.head->snapshot());
  const auto begin = Clock::now();
  d.head->Commit(std::move(batch));
  return {begin, Clock::now()};
}

// ---------------------------------------------------------------------------
// Timed closed loop (tracing off).
// ---------------------------------------------------------------------------

struct ClientLog {
  std::vector<double> latency_ms;  // Correct answers only.
  std::vector<double> commit_ms;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;  // The first few.
};

void NoteFailure(std::vector<std::string>* errors, std::string problem) {
  if (errors->size() < kMaxReportedErrors) errors->push_back(std::move(problem));
}

struct Start {
  std::latch ready{kClients};
  std::latch go{1};
  Clock::time_point deadline;  // Written before `go` opens.
};

void DriveClient(Deployment& d, int index, std::uint64_t seed, Start* start,
                 ClientLog* log) {
  const auto& statements = d.spec.statements;
  const bool read_only = d.spec.writes.empty();
  Writer writer(d.spec.writes, seed * 0x9e3779b97f4a7c15ULL + index + 1);
  std::size_t next = index * statements.size() / kClients;
  auto client = server::Client::Connect("127.0.0.1", d.server->port());
  start->ready.count_down();
  start->go.wait();
  while (client.ok() && Clock::now() < start->deadline) {
    if (!read_only) {
      const auto [begin, end] = CommitNext(d, &writer);
      log->commit_ms.push_back(Micros(end - begin) / 1e3);
    }
    const std::size_t i = next++ % statements.size();
    ++log->attempted;
    const auto begin = Clock::now();
    auto response = client->Roundtrip(d.requests[i]);
    const auto end = Clock::now();
    std::string problem =
        Verify(response, read_only ? &d.reference.at(statements[i]) : nullptr);
    if (problem.empty()) {
      log->latency_ms.push_back(Micros(end - begin) / 1e3);
      continue;
    }
    ++log->failed;
    NoteFailure(&log->errors, std::move(problem));
    if (!response.ok()) client = server::Client::Connect("127.0.0.1", d.server->port());
  }
  if (!client.ok()) {
    ++log->attempted;
    ++log->failed;
    NoteFailure(&log->errors, util::StrCat("connect: ", client.error()));
    return;
  }
  client->Close();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t samples = 0;
  bool correct = true;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
};

/// Returns memory set-up freed to the OS and restarts the kernel's
/// resident-set high-water mark, so that the peak read after the timed
/// run covers serving only. False when /proc/self/clear_refs is not
/// writable.
bool ResetPeakRss() {
  malloc_trim(0);
  std::FILE* file = std::fopen("/proc/self/clear_refs", "w");
  if (file == nullptr) return false;
  const bool written = std::fputs("5", file) >= 0;
  return std::fclose(file) == 0 && written;
}

/// VmHWM of /proc/self/status in MB; NaN when it cannot be read.
double PeakRssMb() {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) return std::nan("");
  double mb = std::nan("");
  char line[256];
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    long kib = 0;
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) mb = kib / 1024.0;
  }
  std::fclose(file);
  return mb;
}

void RunTimed(Deployment& d, std::uint64_t seed, double seconds, Report* report) {
  const auto plans_before = d.plans->stats();
  const auto results_before = d.results->stats();

  Start start;
  std::vector<ClientLog> logs(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back(DriveClient, std::ref(d), c, seed, &start, &logs[c]);
  }
  start.ready.wait();
  if (!ResetPeakRss()) {
    report->correct = false;
    NoteFailure(&report->errors, "cannot reset the peak RSS via /proc/self/clear_refs");
  }
  const auto begin = Clock::now();
  start.deadline = begin + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  start.go.count_down();
  for (auto& client : clients) client.join();
  const double elapsed_s = Micros(Clock::now() - begin) / 1e6;
  const double peak_rss_mb = PeakRssMb();

  std::vector<double> latency_ms;
  std::vector<double> commit_ms;
  for (auto& log : logs) {
    latency_ms.insert(latency_ms.end(), log.latency_ms.begin(), log.latency_ms.end());
    commit_ms.insert(commit_ms.end(), log.commit_ms.begin(), log.commit_ms.end());
    report->attempted += log.attempted;
    report->failed += log.failed;
    for (auto& error : log.errors) NoteFailure(&report->errors, std::move(error));
  }
  report->samples = latency_ms.size();
  if (report->samples < kMinLatencySamples) {
    report->correct = false;
    NoteFailure(&report->errors,
                util::StrCat("only ", report->samples, " latency samples; p99 needs ",
                             kMinLatencySamples));
  }

  auto& m = report->metrics;
  m.push_back({"throughput_sps", latency_ms.size() / elapsed_s, "1/s"});
  m.push_back({"latency_p50_ms", Quantile(latency_ms, 0.50), "ms"});
  m.push_back({"latency_p99_ms", Quantile(latency_ms, 0.99), "ms"});
  if (!commit_ms.empty()) m.push_back({"commit_p50_ms", Quantile(commit_ms, 0.50), "ms"});
  m.push_back({"error_rate", Ratio(report->failed, report->attempted), "ratio"});
  m.push_back({"peak_rss_mb", peak_rss_mb, "MB"});

  // Cache behaviour over the timed run only (set-up traffic excluded).
  const auto plans = d.plans->stats();
  const auto results = d.results->stats();
  const double result_hits = results.hits - results_before.hits;
  const double result_lookups = result_hits + (results.misses - results_before.misses);
  const double plan_hits = plans.hits - plans_before.hits;
  const double plan_revalidations = plans.revalidations - plans_before.revalidations;
  const double plan_lookups =
      plan_hits + plan_revalidations + (plans.misses - plans_before.misses);
  m.push_back({"cache.result_hit_rate", Ratio(result_hits, result_lookups), "ratio"});
  m.push_back({"cache.plan_hit_rate", Ratio(plan_hits, plan_lookups), "ratio"});
  m.push_back({"cache.plan_revalidate_rate", Ratio(plan_revalidations, plan_lookups),
               "ratio"});
  m.push_back({"cache.evictions",
               static_cast<double>(plans.evictions - plans_before.evictions +
                                   results.evictions - results_before.evictions),
               "count"});
}

// ---------------------------------------------------------------------------
// Traced pass: one client, each layer called from outside in pipeline order.
// ---------------------------------------------------------------------------

struct Span {
  std::size_t statement = 0;
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
};

struct Trace {
  std::vector<Span> spans;
  /// Per-layer metric name -> one value per statement that used the layer.
  std::map<std::string, std::vector<double>> samples;
  std::vector<std::string> errors;
  std::size_t failed = 0;
};

/// Runs `fn` inside a span named `name` and stores its duration in `*us`.
template <typename Fn>
auto Timed(Trace* trace, std::size_t statement, const char* name, double* us, Fn&& fn) {
  const auto start = Clock::now();
  auto out = fn();
  const auto end = Clock::now();
  trace->spans.push_back({statement, name, start, end});
  *us = Micros(end - start);
  return out;
}

/// The plan's division operator when both its inputs are stored
/// relations, so the raw kernel can run on the same data.
const engine::ChoicePoint* DivisionOnRelations(const engine::PhysicalPlan& plan) {
  for (const auto& point : plan.choice_points) {
    if (point.kind == engine::ChoicePoint::Kind::kDivision &&
        point.left->kind() == ra::OpKind::kRelation &&
        point.right->kind() == ra::OpKind::kRelation) {
      return &point;
    }
  }
  return nullptr;
}

void TraceStatement(Deployment& d, const engine::Engine& outside,
                    std::uint64_t fingerprint, server::Client* client, Writer* writer,
                    std::size_t id, std::size_t index, Trace* trace) {
  const std::string& statement = d.spec.statements[index];
  auto& samples = trace->samples;
  const auto fail = [&](const std::string& problem) {
    ++trace->failed;
    NoteFailure(&trace->errors,
                util::StrCat("traced statement ", id, ": ", problem, " in: ", statement));
  };
  const auto statement_start = Clock::now();
  double us = 0.0;

  if (!writer->empty()) {
    const auto [begin, end] = CommitNext(d, writer);
    trace->spans.push_back({id, "txn.commit", begin, end});
    samples["txn.commit_us"].push_back(Micros(end - begin));
  }
  const txn::SnapshotPtr snapshot =
      Timed(trace, id, "txn.snapshot", &us, [&] { return d.head->snapshot(); });
  samples["txn.snapshot_us"].push_back(us);

  // The server goes first. Nothing else writes during the traced pass, so
  // its session reads this same snapshot object and pays for whatever is
  // cold on it (statistics after a commit, the result-cache miss). The
  // calls below only read what it leaves behind.
  double roundtrip_us = 0.0;
  auto response = Timed(trace, id, "server.roundtrip", &roundtrip_us,
                        [&] { return client->Roundtrip(d.requests[index]); });
  std::string problem = Verify(response, nullptr);
  if (problem.empty() && response->header.version != snapshot->version()) {
    problem = util::StrCat("served version ", response->header.version,
                           ", pinned version ", snapshot->version());
  }
  if (!problem.empty()) return fail(problem);
  const server::ResponseHeader& header = response->header;

  double frontend_us = 0.0;
  util::Result<ra::ExprPtr> expr = util::Result<ra::ExprPtr>::Error("not compiled");
  if (sql::LooksLikeSql(statement)) {
    double lex_us = 0.0;
    double parse_us = 0.0;
    double analyze_us = 0.0;
    auto tokens = Timed(trace, id, "sql.lex", &lex_us, [&] { return sql::Lex(statement); });
    auto parsed =
        Timed(trace, id, "sql.parse", &parse_us, [&] { return sql::Parse(statement); });
    if (!tokens.ok()) return fail(tokens.error());
    if (!parsed.ok()) return fail(parsed.error());
    expr = Timed(trace, id, "sql.analyze", &analyze_us,
                 [&] { return sql::Lower(**parsed, snapshot->schema()); });
    samples["sql.lex_us"].push_back(lex_us);
    // sql::Parse lexes the text itself, so this includes a second lex.
    samples["sql.parse_us"].push_back(parse_us);
    samples["sql.analyze_us"].push_back(analyze_us);
    frontend_us = parse_us + analyze_us;
  } else {
    expr = Timed(trace, id, "ra.parse", &frontend_us,
                 [&] { return ra::Parse(statement, snapshot->schema()); });
    samples["ra.parse_us"].push_back(frontend_us);
  }
  if (!expr.ok()) return fail(expr.error());

  // A hit: the server has just hit or inserted this entry, so it already
  // heads the LRU order and the lookup leaves the cache as it was.
  double lookup_us = 0.0;
  Timed(trace, id, "cache.lookup", &lookup_us,
        [&] { return d.results->Lookup(*expr, *snapshot, fingerprint).has_value(); });
  samples["cache.lookup_us"].push_back(lookup_us);

  // Computed apart from the snapshot's own statistics, which the server
  // has filled: what a session pays on a fresh snapshot.
  double stats_us = 0.0;
  Timed(trace, id, "stats.build", &stats_us, [&] {
    for (const auto& name : ra::CollectRelationNames(**expr)) {
      stats::ComputeRelationStats(snapshot->relation(name));
    }
    return 0;
  });
  samples["stats.build_us"].push_back(stats_us);

  double plan_us = 0.0;
  auto plan = Timed(trace, id, "engine.plan", &plan_us,
                    [&] { return outside.Plan(*expr, *snapshot); });
  if (!plan.ok()) return fail(plan.error());
  samples["engine.plan_us"].push_back(plan_us);

  double exec_us = 0.0;
  auto run = Timed(trace, id, "engine.exec", &exec_us,
                   [&] { return outside.Run(*plan, *snapshot); });
  if (!run.ok()) return fail(run.error());
  samples["engine.exec_us"].push_back(exec_us);
  samples["engine.max_intermediate"].push_back(run->stats.max_intermediate);
  samples["engine.intermediate_per_row"].push_back(
      static_cast<double>(run->stats.total_intermediate) /
      static_cast<double>(std::max<std::size_t>(run->relation.size(), 1)));

  if (const engine::ChoicePoint* division = DivisionOnRelations(*plan)) {
    const core::Relation& dividend = snapshot->relation(division->left->relation_name());
    const core::Relation& divisor = snapshot->relation(division->right->relation_name());
    double kernel_us = 0.0;
    Timed(trace, id, "setjoin.kernel", &kernel_us, [&] {
      return division->equality
                 ? setjoin::DivideEqual(dividend, divisor, division->division_algorithm)
                 : setjoin::Divide(dividend, divisor, division->division_algorithm);
    });
    samples["setjoin.kernel_us"].push_back(kernel_us);
    samples["engine.overhead_ratio"].push_back(exec_us / kernel_us);
  }

  double encode_us = 0.0;
  std::uint64_t digest = 0;
  const std::string csv = Timed(trace, id, "server.encode", &encode_us, [&] {
    digest = server::RelationDigest(run->relation);
    return core::WriteRelationCsv(run->relation, nullptr);
  });
  samples["server.encode_us"].push_back(encode_us);
  trace->spans.push_back({id, "statement", statement_start, Clock::now()});

  const std::string expected = server::DigestToHex(digest);
  if (header.digest != expected) {
    return fail(util::StrCat("served digest ", header.digest, " != ", expected));
  }
  // The oracle: the 1:1 classic-RA lowering on the pinned snapshot. The
  // initial reference still holds while nothing has been written.
  util::Result<Reference> reference =
      writer->empty() ? util::Result<Reference>(Reference{d.reference.at(statement)})
                      : RunReference(statement, *snapshot);
  if (!reference.ok()) return fail(reference.error());
  if (reference->digest != expected) {
    return fail(util::StrCat("digest ", expected, " != reference ", reference->digest));
  }

  samples["server.roundtrip_us"].push_back(roundtrip_us);
  samples["server.response_bytes"].push_back(
      server::FormatOkHeader(header.rows, header.version, digest, header.cache).size() +
      1 + csv.size() + 2);
  // The phases the server ran for this statement, as far as the bench
  // timed them from outside. Statistics are cold only on a snapshot a
  // commit has just made. The remainder (wire, session loop, plan-cache
  // acquire or revalidation, result-cache miss and insert) is the residual.
  double accounted = frontend_us + encode_us;
  if (header.cache == "result-hit") {
    accounted += lookup_us;
  } else {
    accounted += exec_us;
    if (!writer->empty()) accounted += stats_us;
    if (header.cache == "miss") accounted += plan_us;
  }
  samples["server.residual_us"].push_back(roundtrip_us - accounted);
}

const char* UnitOf(const std::string& metric) {
  if (metric.ends_with("_us")) return "us";
  if (metric.ends_with("_bytes")) return "bytes";
  if (metric.ends_with("max_intermediate")) return "count";
  return "ratio";
}

bool WriteTrace(const Trace& trace, const std::vector<std::string>& statements,
                const std::string& workload, std::uint64_t seed,
                const std::string& path) {
  const Clock::time_point origin =
      trace.spans.empty() ? Clock::now() : trace.spans.front().start;
  const auto ns = [&](Clock::time_point t) {
    return static_cast<std::int64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin).count());
  };
  util::JsonWriter json;
  json.BeginObject();
  json.Key("workload").Value(workload);
  json.Key("seed").Value(seed);
  json.Key("statements").BeginArray();
  for (const auto& statement : statements) json.Value(statement);
  json.EndArray();
  // Spans of one traced statement share `id`; every layer span's parent
  // is that statement's "statement" span.
  json.Key("spans").BeginArray();
  for (const auto& span : trace.spans) {
    json.BeginObject();
    json.Key("id").Value(span.statement);
    json.Key("name").Value(span.name);
    if (std::string_view(span.name) != "statement") json.Key("parent").Value("statement");
    json.Key("start_ns").Value(ns(span.start));
    json.Key("end_ns").Value(ns(span.end));
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  std::string error;
  if (!util::WriteTextFile(path, json.TakeString(), &error)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  return true;
}

void RunTraced(Deployment& d, const std::string& workload, std::uint64_t seed,
               const std::string& trace_out, Report* report) {
  // The outside engine plans and executes like a session engine, but
  // without the shared caches.
  const engine::Engine outside(d.spec.options);
  const std::uint64_t fingerprint = engine::OptionsFingerprint(d.spec.options);
  Writer writer(d.spec.writes, seed * 0x2545f4914f6cdd1dULL);
  Trace trace;
  std::vector<std::string> traced;
  auto client = server::Client::Connect("127.0.0.1", d.server->port());
  if (!client.ok()) {
    report->correct = false;
    NoteFailure(&report->errors, util::StrCat("traced connect: ", client.error()));
    return;
  }
  for (std::size_t id = 0; id < kTracedStatements; ++id) {
    const std::size_t index = id % d.spec.statements.size();
    traced.push_back(d.spec.statements[index]);
    TraceStatement(d, outside, fingerprint, &*client, &writer, id, index, &trace);
  }
  client->Close();

  report->attempted += kTracedStatements;
  report->failed += trace.failed;
  for (auto& error : trace.errors) NoteFailure(&report->errors, std::move(error));
  for (const auto& [name, values] : trace.samples) {
    report->metrics.push_back({name, Quantile(values, 0.5), UnitOf(name)});
  }
  if (!trace_out.empty() && !WriteTrace(trace, traced, workload, seed, trace_out)) {
    report->correct = false;
  }
}

std::string JsonString(const std::string& text) {
  util::JsonWriter json;
  json.Value(text);
  return json.TakeString();
}

void PrintReport(const Report& report, const std::string& workload, std::uint64_t seed,
                 long long seconds) {
  std::string out = util::StrCat(
      "{\"workload\": ", JsonString(workload), ", \"seed\": ", seed,
      ", \"seconds\": ", seconds, ", \"clients\": ", kClients,
      ", \"correct\": ", report.correct && report.failed == 0 ? "true" : "false",
      ", \"attempted\": ", report.attempted, ", \"failed\": ", report.failed,
      ", \"samples\": ", report.samples, ", \"errors\": [");
  for (std::size_t i = 0; i < report.errors.size(); ++i) {
    out += util::StrCat(i == 0 ? "" : ", ", JsonString(report.errors[i]));
  }
  out += "], \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& metric = report.metrics[i];
    char value[64];
    // Every digit as measured; NaN (an empty sample) becomes null.
    if (std::isfinite(metric.value)) {
      std::snprintf(value, sizeof(value), "%.17g", metric.value);
    } else {
      std::snprintf(value, sizeof(value), "null");
    }
    out += util::StrCat(i == 0 ? "" : ", ", JsonString(metric.name),
                        ": {\"value\": ", value, ", \"unit\": ", JsonString(metric.unit),
                        "}");
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_serve --workload div-hot|div-churn|sql-mix|triangle-churn "
               "[--seed N] [--seconds N] [--trace 0|1] [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  long long seed = 1;
  long long seconds = 20;
  long long trace = 0;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else if (arg == "--seed") {
      if (!util::ParseInt64(value, &seed) || seed < 0) return Usage();
    } else if (arg == "--seconds") {
      if (!util::ParseInt64(value, &seconds) || seconds < 1) return Usage();
    } else if (arg == "--trace") {
      if (!util::ParseInt64(value, &trace) || trace < 0 || trace > 1) return Usage();
    } else {
      return Usage();
    }
  }
  if (workload.empty()) return Usage();

  // Set up several times; setup_s is the median, the last one is measured.
  std::unique_ptr<Deployment> deployment;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    deployment.reset();
    const auto begin = Clock::now();
    auto made = SetUp(workload, static_cast<std::uint64_t>(seed));
    if (!made.ok()) {
      std::fprintf(stderr, "bench_serve: set-up failed: %s\n", made.error().c_str());
      return 1;
    }
    setup_s.push_back(Micros(Clock::now() - begin) / 1e6);
    deployment = std::move(*made);
  }

  Report report;
  report.metrics.push_back({"setup_s", Quantile(setup_s, 0.5), "s"});
  RunTimed(*deployment, static_cast<std::uint64_t>(seed), static_cast<double>(seconds),
           &report);
  if (trace == 1) {
    RunTraced(*deployment, workload, static_cast<std::uint64_t>(seed), trace_out,
              &report);
  }
  deployment.reset();
  PrintReport(report, workload, static_cast<std::uint64_t>(seed), seconds);
  return 0;
}
