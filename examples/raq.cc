// raq — a tiny query tool over CSV files, speaking both algebra text and
// the SQL subset.
//
//   build/examples/raq R=2:r.csv S=1:s.csv -- 'pi[1](join[2=1](R, S))'
//   build/examples/raq R=2:r.csv S=1:s.csv -- 'SELECT c1 FROM R WHERE c2 = 5'
//
// Each positional argument NAME=ARITY:PATH loads a CSV file (one tuple per
// line; non-integer fields are interned as strings). Statements after `--`
// are parsed against the loaded schema — SELECT-led statements through the
// SQL frontend (sql/analyzer.h), everything else through the RA/SA
// expression grammar — then planned and executed by engine::Engine, and the
// result is printed as CSV. With -v the physical plan, planner rewrites,
// cost-based algorithm choices (with their estimates), the AGM output bound
// of any collected join chain, and per-operator actual intermediate sizes
// (beside their estimates when the plan was priced) are reported too.
//
// Planning is selected by one --mode flag plus orthogonal knobs:
//   --mode reference   1:1 lowering, no planner rewrites
//   --mode planned     rewrite-enabled planning (the default)
//   --mode cost        statistics-driven algorithm selection
// Every mode executes through the engine's one pipelined executor.
// --threads N lets the partitioned operators split inputs of at least two
// engine::kMinPartitionRows floors across up to N workers (-v prints the
// partition tasks), --batch-size N sets the pipeline's batch granularity, and
// --multiway lets the planner collect equality-join chains and route them
// to the worst-case-optimal multiway operator when they beat the binary
// plan; --plan-cache [N] attaches a plan cache (engine::SharedPlanCache of N
// entries, default 64) and runs the expression twice — the second run is
// served from the cache, and -v reports the outcome (miss then hit) plus
// cache tallies, so the prepared-statement hot path is observable from the
// CLI.
//
// Concurrent serving: several statements may follow `--`, and
// --sessions N runs that query list from N threads against one shared
// engine and one snapshot of a txn::VersionedDatabase head, through the
// process-wide shared plan cache and result cache. Each session prints a
// digest line per query (server::RelationDigest, version 2) — sessions on
// one snapshot always print identical digests, which makes this the
// smoke entry point for the MVCC serving path.
//
// Client mode: --connect HOST:PORT skips the local engine entirely and
// sends every statement to a running setalgd (examples/setalgd.cc) as
// QUERY requests — one connection per session — printing the same
// per-session digest lines from the server's OK headers, so local and
// served runs diff directly. A response whose row count differs from its
// header's rows= is reported as an error (exit 1).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/csv.h"
#include "core/database.h"
#include "engine/calibration.h"
#include "engine/engine.h"
#include "engine/result_cache.h"
#include "engine/shared_cache.h"
#include "ra/parse.h"
#include "server/client.h"
#include "server/protocol.h"
#include "sql/analyzer.h"
#include "sql/parser.h"
#include "txn/snapshot.h"
#include "util/str.h"

int main(int argc, char** argv) {
  using namespace setalg;

  const std::vector<std::string> args(argv + 1, argv + argc);
  std::vector<std::string> relation_specs;
  std::vector<std::string> expressions;
  bool verbose = false;
  std::string mode = "planned";
  std::string connect;
  bool multiway = false;
  bool calibrate = false;
  long long batch_size = static_cast<long long>(engine::kDefaultBatchSize);
  long long threads = 1;
  long long plan_cache_entries = 0;
  long long sessions = 0;
  bool after_separator = false;
  const std::size_t nargs = args.size();
  for (std::size_t i = 0; i < nargs; ++i) {
    const std::string& arg = args[i];
    if (arg == "--") {
      after_separator = true;
    } else if (arg == "-v") {
      verbose = true;
    } else if (arg == "--mode") {
      if (i + 1 >= nargs) {
        std::fprintf(stderr, "--mode needs one of reference|planned|cost\n");
        return 2;
      }
      mode = args[++i];
    } else if (arg == "--connect") {
      if (i + 1 >= nargs) {
        std::fprintf(stderr, "--connect needs HOST:PORT\n");
        return 2;
      }
      connect = args[++i];
    } else if (arg == "--multiway") {
      multiway = true;
    } else if (arg == "--calibrate") {
      calibrate = true;
    } else if (arg == "--plan-cache") {
      plan_cache_entries = 64;
      // Optional capacity operand (the next token, when numeric).
      if (i + 1 < nargs && util::ParseInt64(args[i + 1], &plan_cache_entries)) {
        if (plan_cache_entries < 1) {
          std::fprintf(stderr, "--plan-cache needs a positive entry count\n");
          return 2;
        }
        ++i;
      }
    } else if (arg == "--batch-size") {
      if (i + 1 >= nargs || !util::ParseInt64(args[i + 1], &batch_size) ||
          batch_size < 1) {
        std::fprintf(stderr, "--batch-size needs a positive integer\n");
        return 2;
      }
      ++i;
    } else if (arg == "--threads") {
      if (i + 1 >= nargs || !util::ParseInt64(args[i + 1], &threads) || threads < 1) {
        std::fprintf(stderr, "--threads needs a positive integer\n");
        return 2;
      }
      ++i;
    } else if (arg == "--sessions") {
      if (i + 1 >= nargs || !util::ParseInt64(args[i + 1], &sessions) || sessions < 1) {
        std::fprintf(stderr, "--sessions needs a positive integer\n");
        return 2;
      }
      ++i;
    } else if (after_separator) {
      expressions.push_back(arg);
    } else {
      relation_specs.push_back(arg);
    }
  }
  if ((relation_specs.empty() && connect.empty()) || expressions.empty()) {
    std::fprintf(stderr,
                 "usage: raq NAME=ARITY:PATH [NAME=ARITY:PATH ...] [-v] "
                 "[--mode reference|planned|cost] [--multiway] "
                 "[--calibrate] [--threads N] [--batch-size N] "
                 "[--plan-cache [N]] "
                 "[--sessions N] [--connect HOST:PORT] -- STMT [STMT ...]\n"
                 "example: raq R=2:r.csv S=1:s.csv -- 'pi[1](join[2=1](R, S))'\n");
    return 2;
  }

  if (!connect.empty()) {
    // Client mode: every statement goes to a running setalgd verbatim (the
    // server does the SQL-vs-RA dispatch); one connection per session.
    const auto colon = connect.rfind(':');
    long long port = 0;
    if (colon == std::string::npos ||
        !util::ParseInt64(connect.substr(colon + 1), &port) || port < 1 ||
        port > 65535) {
      std::fprintf(stderr, "--connect needs HOST:PORT, got '%s'\n", connect.c_str());
      return 2;
    }
    const std::string host = connect.substr(0, colon);
    const std::size_t n = sessions > 0 ? static_cast<std::size_t>(sessions) : 1;
    std::vector<std::vector<std::string>> reports(n);
    std::atomic<bool> failed{false};
    std::vector<std::thread> workers;
    workers.reserve(n);
    for (std::size_t s = 0; s < n; ++s) {
      workers.emplace_back([&, s] {
        auto client = server::Client::Connect(host, static_cast<int>(port));
        if (!client.ok()) {
          reports[s].push_back(util::StrCat("session ", s + 1, ": ", client.error()));
          failed.store(true);
          return;
        }
        for (std::size_t q = 0; q < expressions.size(); ++q) {
          auto response = client->Roundtrip(util::StrCat("QUERY ", expressions[q]));
          if (!response.ok()) {
            reports[s].push_back(util::StrCat("session ", s + 1, " Q", q + 1,
                                              ": transport error: ",
                                              response.error()));
            failed.store(true);
            return;
          }
          if (!response->header.ok) {
            reports[s].push_back(util::StrCat("session ", s + 1, " Q", q + 1,
                                              ": error: ", response->header.error));
            failed.store(true);
            return;
          }
          if (response->rows.size() != response->header.rows) {
            reports[s].push_back(util::StrCat(
                "session ", s + 1, " Q", q + 1, ": error: header says rows=",
                response->header.rows, " but ", response->rows.size(),
                " rows arrived"));
            failed.store(true);
            return;
          }
          reports[s].push_back(util::StrCat(
              "session ", s + 1, " Q", q + 1, ": digest=", response->header.digest,
              " rows=", response->header.rows, " cache=", response->header.cache));
        }
        client->Close();
      });
    }
    for (auto& worker : workers) worker.join();
    for (const auto& session_lines : reports) {
      for (const auto& line : session_lines) std::printf("%s\n", line.c_str());
    }
    return failed.load() ? 1 : 0;
  }

  core::NameMap names;
  core::Schema schema;
  std::vector<std::pair<std::string, core::Relation>> loaded;
  for (const auto& spec : relation_specs) {
    const auto eq = spec.find('=');
    const auto colon = spec.find(':', eq == std::string::npos ? 0 : eq);
    if (eq == std::string::npos || colon == std::string::npos) {
      std::fprintf(stderr, "bad relation spec '%s' (want NAME=ARITY:PATH)\n",
                   spec.c_str());
      return 2;
    }
    const std::string name = spec.substr(0, eq);
    long long arity = 0;
    if (!util::ParseInt64(spec.substr(eq + 1, colon - eq - 1), &arity) || arity < 0) {
      std::fprintf(stderr, "bad arity in '%s'\n", spec.c_str());
      return 2;
    }
    auto relation = core::ReadRelationCsvFile(spec.substr(colon + 1), &names);
    if (!relation.ok()) {
      std::fprintf(stderr, "failed to load %s: %s\n", name.c_str(),
                   relation.error().c_str());
      return 1;
    }
    if (relation->arity() != static_cast<std::size_t>(arity)) {
      std::fprintf(stderr, "%s: declared arity %lld but file has %zu columns\n",
                   name.c_str(), arity, relation->arity());
      return 1;
    }
    schema.AddRelation(name, relation->arity());
    loaded.emplace_back(name, std::move(*relation));
  }

  core::Database db(schema);
  for (auto& [name, relation] : loaded) db.SetRelation(name, std::move(relation));

  std::vector<ra::ExprPtr> parsed_list;
  for (const auto& expression : expressions) {
    auto parsed = sql::LooksLikeSql(expression) ? sql::Compile(expression, schema)
                                                : ra::Parse(expression, schema);
    if (!parsed.ok()) {
      std::fprintf(stderr, "parse error in '%s': %s\n", expression.c_str(),
                   parsed.error().c_str());
      return 1;
    }
    parsed_list.push_back(std::move(*parsed));
  }

  // One preset per --mode, with the orthogonal knobs composed on top.
  engine::EngineOptions options;
  if (mode == "reference") {
    options = engine::EngineOptions::Reference();
  } else if (mode == "planned") {
    options = engine::EngineOptions{};
  } else if (mode == "cost") {
    options = engine::EngineOptions::CostBased();
  } else {
    std::fprintf(stderr, "unknown --mode '%s' (want reference|planned|cost)\n",
                 mode.c_str());
    return 2;
  }
  options = options.WithBatchSize(static_cast<std::size_t>(batch_size))
                .WithThreads(static_cast<std::size_t>(threads));
  if (multiway) options = options.WithMultiway();
  // Statements run in order through one engine, so later statements plan
  // with whatever the earlier ones taught the store.
  if (calibrate) options = options.WithCalibration();
  if (plan_cache_entries > 0) {
    options.shared_plan_cache = std::make_shared<engine::SharedPlanCache>(
        static_cast<std::size_t>(plan_cache_entries), 0);
  }

  if (sessions > 0) {
    // Concurrent serving: N session threads share one engine and one
    // snapshot of a versioned head, through the process-wide caches.
    options.shared_plan_cache = std::make_shared<engine::SharedPlanCache>(256, 0);
    options.result_cache =
        std::make_shared<engine::ResultCache>(256, std::size_t{64} << 20);
    const engine::Engine engine(options);
    const txn::VersionedDatabase head(db);
    const txn::SnapshotPtr snapshot = head.snapshot();

    const std::size_t n = static_cast<std::size_t>(sessions);
    std::vector<std::vector<std::string>> reports(n);
    std::atomic<bool> failed{false};
    std::vector<std::thread> workers;
    workers.reserve(n);
    for (std::size_t s = 0; s < n; ++s) {
      workers.emplace_back([&, s] {
        for (std::size_t q = 0; q < parsed_list.size(); ++q) {
          auto run = engine.Run(parsed_list[q], *snapshot);
          if (!run.ok()) {
            reports[s].push_back(util::StrCat("session ", s + 1, " Q", q + 1,
                                              ": error: ", run.error()));
            failed.store(true);
            return;
          }
          reports[s].push_back(util::StrCat(
              "session ", s + 1, " Q", q + 1, ": digest=",
              server::DigestToHex(server::RelationDigest(run->relation)),
              " rows=", run->relation.size(), " cache=",
              engine::CacheOutcomeToString(run->stats.cache)));
        }
      });
    }
    for (auto& worker : workers) worker.join();
    for (const auto& session_lines : reports) {
      for (const auto& line : session_lines) std::printf("%s\n", line.c_str());
    }
    if (verbose) {
      const auto plan_stats = options.shared_plan_cache->stats();
      const auto result_stats = options.result_cache->stats();
      std::fprintf(stderr,
                   "-- shared plan cache: %zu entr%s; %zu hit(s), %zu miss(es), "
                   "%zu revalidation(s), %zu repick(s)\n",
                   options.shared_plan_cache->size(),
                   options.shared_plan_cache->size() == 1 ? "y" : "ies",
                   plan_stats.hits, plan_stats.misses, plan_stats.revalidations,
                   plan_stats.repicks);
      std::fprintf(stderr,
                   "-- result cache: %zu entr%s, ~%zu bytes; %zu hit(s), "
                   "%zu miss(es), %zu invalidation(s)\n",
                   options.result_cache->size(),
                   options.result_cache->size() == 1 ? "y" : "ies",
                   options.result_cache->bytes(), result_stats.hits,
                   result_stats.misses, result_stats.invalidations);
    }
    return failed.load() ? 1 : 0;
  }

  const engine::Engine engine(options);
  int exit_code = 0;
  for (const auto& parsed : parsed_list) {
    auto run = engine.Run(parsed, db);
    if (run.ok() && plan_cache_entries > 0) {
      // Second execution: served from the cache (a hit on the unchanged
      // database), so the CLI demonstrates the prepared hot path end to end.
      run = engine.Run(parsed, db);
    }
    if (!run.ok()) {
      std::fprintf(stderr, "eval error: %s\n", run.error().c_str());
      exit_code = 1;
      continue;
    }
    std::fputs(core::WriteRelationCsv(run->relation, &names).c_str(), stdout);
    if (verbose) {
      // Only a priced plan (cost mode, --multiway, --calibrate) carries
      // estimates; a planned-mode plan lists actual sizes alone.
      const bool priced =
          std::any_of(run->stats.ops.begin(), run->stats.ops.end(),
                      [](const engine::OpStats& op) { return op.has_estimate; });
      std::fprintf(stderr,
                   "-- %zu tuple(s); max intermediate %zu; operators "
                   "(actual%s):\n",
                   run->relation.size(), run->stats.max_intermediate,
                   priced ? " / estimated" : "");
      if (run->stats.has_agm_bound) {
        // The worst-case-optimal output bound of the collected join chain;
        // the routing itself (multiway vs binary) shows up in the
        // cost-based choice lines below as the "join-chain" site.
        std::fprintf(stderr, "-- AGM bound: %.0f row(s); max intermediate %s it\n",
                     run->stats.agm_bound,
                     static_cast<double>(run->stats.max_intermediate) <=
                             run->stats.agm_bound
                         ? "within"
                         : "exceeds");
      }
      std::fprintf(stderr,
                   "-- batches: %zu-tuple batches, %llu emitted, peak batch "
                   "%zu bytes\n",
                   run->stats.batch_size,
                   static_cast<unsigned long long>(run->stats.batches_emitted),
                   run->stats.peak_batch_bytes);
      if (run->stats.threads_used > 1) {
        std::fprintf(stderr,
                     "-- parallel: %zu threads, %zu partition task(s), "
                     "%zu partition pass(es) skipped\n",
                     run->stats.threads_used, run->stats.partitions,
                     run->stats.partition_passes_skipped);
      }
      if (const auto* cache = engine.plan_cache()) {
        const auto tallies = cache->stats();
        std::fprintf(stderr,
                     "-- plan-cache: %s (%zu entr%s, ~%zu bytes; %zu hit(s), "
                     "%zu miss(es), %zu revalidation(s), %zu repick(s))\n",
                     engine::CacheOutcomeToString(run->stats.cache), cache->size(),
                     cache->size() == 1 ? "y" : "ies", cache->bytes(), tallies.hits,
                     tallies.misses, tallies.revalidations, tallies.repicks);
      }
      for (const auto& op : run->stats.ops) {
        if (op.has_estimate) {
          std::fprintf(stderr, "   %6zu  est=%-8.0f %s\n", op.output_size,
                       op.estimated_output, op.label.c_str());
        } else {
          std::fprintf(stderr, "   %6zu  %s\n", op.output_size, op.label.c_str());
        }
      }
      for (const auto& rewrite : run->stats.rewrites) {
        std::fprintf(stderr, "-- rewrite: %s\n", rewrite.c_str());
      }
      for (const auto& choice : run->stats.choices) {
        std::fprintf(stderr, "-- cost-based: %s → %s (est cost %.0f, est rows %.0f)\n",
                     choice.site.c_str(), choice.algorithm.c_str(),
                     choice.estimate.cost, choice.estimate.output_size);
      }
    }
  }
  if (verbose && options.calibration != nullptr) {
    std::fprintf(stderr, "-- %s\n", options.calibration->Summary().c_str());
  }
  return exit_code;
}
