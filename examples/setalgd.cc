// setalgd — the query server over the engine's MVCC serving path.
//
//   build/examples/setalgd R=2:r.csv S=1:s.csv --port 7411
//
// Loads CSV relations exactly like raq (NAME=ARITY:PATH), seeds a
// txn::VersionedDatabase head from them, and serves the line protocol of
// server/protocol.h on 127.0.0.1 (--port 0, the default, picks a free
// port). Each connection is a session with its own engine and prepared-
// statement namespace; every statement — SQL (SELECT ...) or RA text
// ('pi[1](join[2=1](R, S))') — runs against a fresh snapshot through the
// process-wide shared plan and result caches. raq --connect host:port is
// the matching client.
//
// Prints "setalgd listening on 127.0.0.1:<port>" once ready (stdout,
// flushed — scripts wait for this line), then serves until SIGINT or
// SIGTERM, shuts down gracefully and exits 0.
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/csv.h"
#include "core/database.h"
#include "engine/engine.h"
#include "server/server.h"
#include "txn/sharded.h"
#include "txn/snapshot.h"
#include "util/str.h"

int main(int argc, char** argv) {
  using namespace setalg;

  std::vector<std::string> relation_specs;
  std::string mode = "planned";
  bool multiway = false;
  bool calibrate = false;
  long long threads = 1;
  long long shards = 1;
  long long port = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port") {
      if (i + 1 >= argc || !util::ParseInt64(argv[i + 1], &port) || port < 0 ||
          port > 65535) {
        std::fprintf(stderr, "--port needs a port number\n");
        return 2;
      }
      ++i;
    } else if (arg == "--mode") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--mode needs one of reference|planned|cost\n");
        return 2;
      }
      mode = argv[++i];
    } else if (arg == "--multiway") {
      multiway = true;
    } else if (arg == "--calibrate") {
      calibrate = true;
    } else if (arg == "--threads") {
      if (i + 1 >= argc || !util::ParseInt64(argv[i + 1], &threads) || threads < 1) {
        std::fprintf(stderr, "--threads needs a positive integer\n");
        return 2;
      }
      ++i;
    } else if (arg == "--shards") {
      if (i + 1 >= argc || !util::ParseInt64(argv[i + 1], &shards) || shards < 1) {
        std::fprintf(stderr, "--shards needs a positive integer\n");
        return 2;
      }
      ++i;
    } else {
      relation_specs.push_back(arg);
    }
  }
  if (relation_specs.empty()) {
    std::fprintf(stderr,
                 "usage: setalgd NAME=ARITY:PATH [NAME=ARITY:PATH ...] "
                 "[--port N] [--mode reference|planned|cost] "
                 "[--multiway] [--threads N] [--shards K] [--calibrate]\n");
    return 2;
  }

  auto names = std::make_shared<core::NameMap>();
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
    auto relation = core::ReadRelationCsvFile(spec.substr(colon + 1), names.get());
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

  engine::EngineOptions options;
  if (mode == "reference") {
    options = engine::EngineOptions::Reference();
  } else if (mode == "planned") {
    options = engine::EngineOptions{};
  } else if (mode == "cost") {
    options = engine::EngineOptions::CostBased();
  } else {
    std::fprintf(stderr, "unknown --mode '%s'\n", mode.c_str());
    return 2;
  }
  options = options.WithThreads(static_cast<std::size_t>(threads));
  if (multiway) options = options.WithMultiway();
  // One store for the whole process: every session the server spawns
  // shares it, so each session's traffic tunes the others' plans.
  if (calibrate) options = options.WithCalibration();

  core::Database db(schema);
  for (auto& [name, relation] : loaded) db.SetRelation(name, std::move(relation));
  // --shards K serves from a sharded head: every relation's rows are
  // hash-routed into K per-relation shards on column 1, and the parallel
  // operators skip their partition pass when their partitioning column
  // matches (see README "Sharded storage"). K=1 keeps the plain head.
  std::shared_ptr<txn::VersionedDatabase> head;
  if (shards > 1) {
    head = std::make_shared<txn::ShardedDatabase>(
        db, static_cast<std::size_t>(shards));
  } else {
    head = std::make_shared<txn::VersionedDatabase>(db);
  }

  // Block the termination signals before any thread spawns, so the accept
  // and session threads inherit the mask and sigwait below is the only
  // consumer.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  server::Server server(head, options, names);
  auto bound = server.Start(static_cast<int>(port));
  if (!bound.ok()) {
    std::fprintf(stderr, "failed to start: %s\n", bound.error().c_str());
    return 1;
  }
  std::printf("setalgd listening on 127.0.0.1:%d\n", *bound);
  std::fflush(stdout);

  int signal_number = 0;
  sigwait(&signals, &signal_number);
  std::fprintf(stderr, "setalgd: shutting down (signal %d)\n", signal_number);
  server.Stop();
  return 0;
}
