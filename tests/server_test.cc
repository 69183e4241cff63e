// Concurrency soak for the setalgd serving path (src/server/).
//
// The property under test mirrors tests/txn_test.cc, one layer up: a
// response's `version` field pins exactly which published snapshot the
// statement saw, so every (statement, version, digest) a client records
// must be reproducible by a serial, cache-free replay of that statement
// against the snapshot published under that version — while N client
// threads hammer one server over loopback with mixed QUERY / PREPARE /
// EXECUTE traffic and a writer keeps committing randomized batches to
// the shared txn::VersionedDatabase head. All sessions share the
// process-wide plan and result caches; the replay uses neither, so any
// cross-session cache pollution or snapshot tearing shows up as a
// digest mismatch.
//
// Functional coverage rides along: ad-hoc parity with a local engine
// run, PREPARE/EXECUTE (including revalidation across commits), ERR
// responses that keep the session usable (a statement past the depth
// bound among them), PING/CLOSE, graceful Stop() mid-traffic, large
// answers streamed byte-identical through the session's output buffer, a
// client that hangs up mid-answer, and the client's line reader against a
// raw peer (line cap, one byte per send).
//
// Reads SETALG_BATCH_SEED (default 1); CI runs the seed matrix under
// ASan/UBSan and TSan — TSan is the point for the soak.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/csv.h"
#include "core/database.h"
#include "core/relation.h"
#include "engine/engine.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "sql/analyzer.h"
#include "sql/parser.h"
#include "ra/parse.h"
#include "txn/snapshot.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/str.h"
#include "workload/generators.h"

namespace setalg {
namespace {

std::uint64_t BaseSeed() {
  const char* env = std::getenv("SETALG_BATCH_SEED");
  if (env == nullptr || *env == '\0') return 1;
  char* end = nullptr;
  const std::uint64_t seed = std::strtoull(env, &end, 10);
  return (end == env) ? 1 : seed;
}

/// The statements the soak sends — a mix of SQL (division idiom,
/// semijoin, join) and RA text, all over SqlWorkloadDatabase's schema
/// {R/2, S/1, T/2, U/2}.
std::vector<std::string> SoakStatements() {
  return {
      "SELECT * FROM R",
      "SELECT c1 FROM S",
      "SELECT r.c1 FROM R r WHERE NOT EXISTS (SELECT * FROM S s WHERE "
      "NOT EXISTS (SELECT * FROM R r2 WHERE r2.c1 = r.c1 AND r2.c2 = s.c1))",
      "SELECT t.c1, u.c2 FROM T t, U u WHERE t.c2 = u.c1",
      "SELECT r.c1 FROM R r WHERE EXISTS (SELECT * FROM S s WHERE "
      "s.c1 = r.c2)",
      "SELECT c1 FROM T WHERE c1 < c2",
      "SELECT c1 FROM R UNION SELECT c1 FROM S",
      "pi[1](R)",
      "diff(pi[1](R), pi[1](join[2=1](R, S)))",
  };
}

/// Compiles a soak statement the way the server does.
ra::ExprPtr MustCompile(const std::string& statement,
                        const core::Schema& schema) {
  auto expr = sql::LooksLikeSql(statement) ? sql::Compile(statement, schema)
                                           : ra::Parse(statement, schema);
  SETALG_CHECK_STREAM(expr.ok()) << statement << ": " << expr.error();
  return *expr;
}

struct ServerFixture {
  std::shared_ptr<txn::VersionedDatabase> head;
  std::unique_ptr<server::Server> server;
  int port = 0;

  explicit ServerFixture(const engine::EngineOptions& options,
                         std::uint64_t seed)
      : ServerFixture(options, workload::SqlWorkloadDatabase(seed)) {}

  ServerFixture(const engine::EngineOptions& options, const core::Database& db) {
    head = std::make_shared<txn::VersionedDatabase>(db);
    server = std::make_unique<server::Server>(head, options, nullptr);
    auto bound = server->Start(0);
    SETALG_CHECK_STREAM(bound.ok()) << bound.error();
    port = *bound;
  }
};

/// {W/6, S/1}: W holds 20,000 rows of wide values, so `SELECT * FROM W`
/// answers with well over ten 64 KiB flushes of CSV text; S is small.
core::Database LargeResultDatabase(std::uint64_t seed) {
  core::Schema schema;
  schema.AddRelation("W", 6);
  schema.AddRelation("S", 1);
  core::Database db(schema);
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 5);
  core::Relation w(6);
  core::Tuple row(6);
  for (std::size_t i = 0; i < 20000; ++i) {
    row[0] = static_cast<core::Value>(i);
    for (std::size_t j = 1; j < row.size(); ++j) {
      row[j] = static_cast<core::Value>(rng.NextBounded(20000000)) - 10000000;
    }
    w.Add(row);
  }
  db.SetRelation("W", std::move(w));
  db.SetRelation("S", core::Relation::FromRows(1, {{3}, {1}, {2}}));
  return db;
}

/// Connects a plain TCP socket to 127.0.0.1:`port`; -1 on failure.
int ConnectRaw(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads one '\n'-terminated request line, byte by byte.
std::string RecvLine(int fd) {
  std::string line;
  char c = 0;
  while (::recv(fd, &c, 1, 0) == 1 && c != '\n') line += c;
  return line;
}

/// A one-connection listener on 127.0.0.1 that runs `serve` on the
/// accepted socket in its own thread. It stands in for setalgd where a
/// test needs responses the server never sends.
class RawPeer {
 public:
  explicit RawPeer(std::function<void(int fd)> serve) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    SETALG_CHECK(listen_fd_ >= 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    SETALG_CHECK(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)) == 0);
    SETALG_CHECK(::listen(listen_fd_, 1) == 0);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, serve = std::move(serve)] {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      serve(fd);
      ::close(fd);
    });
  }

  /// Joins the peer; a peer still waiting in accept is woken first.
  ~RawPeer() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    thread_.join();
    ::close(listen_fd_);
  }

  RawPeer(const RawPeer&) = delete;
  RawPeer& operator=(const RawPeer&) = delete;

  int port() const { return port_; }

 private:
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread thread_;
};

/// Blocks until the other end closes `fd`, or 10 s pass.
void AwaitPeerClose(int fd) {
  timeval timeout{};
  timeout.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  char chunk[4096];
  while (::recv(fd, chunk, sizeof(chunk), 0) > 0) {
  }
}

TEST(ServerTest, AdHocParityWithLocalEngine) {
  const std::uint64_t seed = BaseSeed();
  ServerFixture fixture(engine::EngineOptions::CostBased(), seed);
  auto client = server::Client::Connect("127.0.0.1", fixture.port);
  ASSERT_TRUE(client.ok()) << client.error();

  const engine::Engine local{engine::EngineOptions::CostBased()};
  const auto snapshot = fixture.head->snapshot();
  for (const auto& statement : SoakStatements()) {
    auto response = client->Roundtrip("QUERY " + statement);
    ASSERT_TRUE(response.ok()) << statement << ": " << response.error();
    ASSERT_TRUE(response->header.ok) << statement << ": "
                                     << response->header.error;
    EXPECT_EQ(response->header.version, snapshot->version()) << statement;

    auto expr = MustCompile(statement, snapshot->schema());
    auto run = local.Run(expr, *snapshot);
    ASSERT_TRUE(run.ok()) << statement;
    EXPECT_EQ(response->header.rows, run->relation.size()) << statement;
    EXPECT_EQ(response->header.digest,
              server::DigestToHex(server::RelationDigest(run->relation)))
        << statement;
    EXPECT_EQ(response->rows.size(), run->relation.size()) << statement;
  }
  client->Close();
}

TEST(ServerTest, PrepareExecuteAndRevalidationAcrossCommits) {
  const std::uint64_t seed = BaseSeed();
  ServerFixture fixture(engine::EngineOptions::CostBased(), seed);
  auto client = server::Client::Connect("127.0.0.1", fixture.port);
  ASSERT_TRUE(client.ok()) << client.error();

  const std::string statement = "SELECT c1 FROM R UNION SELECT c1 FROM S";
  auto prepared = client->Roundtrip("PREPARE q1 " + statement);
  ASSERT_TRUE(prepared.ok()) << prepared.error();
  ASSERT_TRUE(prepared->header.ok) << prepared->header.error;
  EXPECT_EQ(prepared->header.verb, "PREPARED");
  EXPECT_EQ(prepared->header.name, "q1");

  auto direct = client->Roundtrip("QUERY " + statement);
  auto executed = client->Roundtrip("EXECUTE q1");
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(executed.ok());
  ASSERT_TRUE(executed->header.ok) << executed->header.error;
  EXPECT_EQ(executed->header.digest, direct->header.digest);
  EXPECT_EQ(executed->header.version, direct->header.version);

  // Commit a change to R; the prepared handle must revalidate and serve
  // the new version with the new answer.
  core::Relation r(2);
  r.Add({7, 8});
  const auto published = fixture.head->SetRelation("R", std::move(r));
  auto after = client->Roundtrip("EXECUTE q1");
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(after->header.ok) << after->header.error;
  EXPECT_EQ(after->header.version, published->version());
  EXPECT_NE(after->header.digest, executed->header.digest);

  const engine::Engine local{engine::EngineOptions::CostBased()};
  auto replay = local.Run(MustCompile(statement, published->schema()),
                          *published);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(after->header.digest,
            server::DigestToHex(server::RelationDigest(replay->relation)));

  // EXECUTE of an unknown name is an error that keeps the session open.
  auto unknown = client->Roundtrip("EXECUTE nope");
  ASSERT_TRUE(unknown.ok());
  EXPECT_FALSE(unknown->header.ok);
  auto ping = client->Roundtrip("PING");
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping->header.verb, "PONG");
  client->Close();
}

// Sessions share one plan cache, prepared handles included: session A's
// PREPARE lowers the plan session B's QUERY then hits. After a commit,
// A's EXECUTE revalidates the shared entry and publishes the copy, so B's
// next QUERY hits again — with the answer a fresh local run gives on the
// published snapshot.
TEST(ServerTest, PreparedPlanIsSharedAcrossSessions) {
  const std::uint64_t seed = BaseSeed();
  ServerFixture fixture(engine::EngineOptions::CostBased(), seed);
  auto a = server::Client::Connect("127.0.0.1", fixture.port);
  auto b = server::Client::Connect("127.0.0.1", fixture.port);
  ASSERT_TRUE(a.ok()) << a.error();
  ASSERT_TRUE(b.ok()) << b.error();

  const std::string statement = SoakStatements()[2];  // NOT EXISTS division.
  auto prepared = a->Roundtrip("PREPARE div " + statement);
  ASSERT_TRUE(prepared.ok()) << prepared.error();
  ASSERT_TRUE(prepared->header.ok) << prepared->header.error;

  auto first = b->Roundtrip("QUERY " + statement);
  ASSERT_TRUE(first.ok()) << first.error();
  ASSERT_TRUE(first->header.ok) << first->header.error;
  EXPECT_EQ(first->header.cache, "hit");

  const auto published = fixture.head->SetRelation(
      "R", workload::UniformBinaryRelation(200, 24, seed * 31 + 7));
  auto executed = a->Roundtrip("EXECUTE div");
  ASSERT_TRUE(executed.ok()) << executed.error();
  ASSERT_TRUE(executed->header.ok) << executed->header.error;
  EXPECT_EQ(executed->header.version, published->version());
  EXPECT_TRUE(executed->header.cache == "revalidated" ||
              executed->header.cache == "repicked")
      << executed->header.cache;

  auto second = b->Roundtrip("QUERY " + statement);
  ASSERT_TRUE(second.ok()) << second.error();
  ASSERT_TRUE(second->header.ok) << second->header.error;
  EXPECT_EQ(second->header.version, published->version());
  EXPECT_EQ(second->header.cache, "hit");
  EXPECT_EQ(second->header.digest, executed->header.digest);

  const engine::Engine local{engine::EngineOptions::CostBased()};
  auto replay = local.Run(MustCompile(statement, published->schema()), *published);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(second->header.digest,
            server::DigestToHex(server::RelationDigest(replay->relation)));
  a->Close();
  b->Close();
}

TEST(ServerTest, ErrorsAreLocatedAndSessionSurvives) {
  ServerFixture fixture(engine::EngineOptions{}, BaseSeed());
  auto client = server::Client::Connect("127.0.0.1", fixture.port);
  ASSERT_TRUE(client.ok()) << client.error();

  const char* bad[] = {
      "QUERY SELECT * FROM Nope",
      "QUERY SELECT c9 FROM R",
      "QUERY SELECT * FROM R WHERE",
      "QUERY pi[9](R)",
      "FROBNICATE",
      "PREPARE onlyname",
  };
  for (const char* request : bad) {
    auto response = client->Roundtrip(request);
    ASSERT_TRUE(response.ok()) << request << ": " << response.error();
    EXPECT_FALSE(response->header.ok) << request;
    EXPECT_EQ(response->header.verb, "ERR") << request;
    EXPECT_FALSE(response->header.error.empty()) << request;
  }
  // Compile errors from statements carry a location.
  auto located = client->Roundtrip("QUERY SELECT * FROM Nope");
  ASSERT_TRUE(located.ok());
  std::size_t line = 0, column = 0;
  EXPECT_TRUE(util::ParseErrorLocation(located->header.error, &line, &column))
      << located->header.error;

  // The session is still fully usable.
  auto good = client->Roundtrip("QUERY SELECT * FROM R");
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good->header.ok) << good->header.error;
  client->Close();
}

// An RA statement's parse error is located like a SQL one, "ERR
// <line>:<column>: <message>", counted from the statement's first byte,
// and the session serves on.
TEST(ServerTest, RaParseErrorIsLocatedAndSessionSurvives) {
  ServerFixture fixture(engine::EngineOptions{}, BaseSeed());
  auto client = server::Client::Connect("127.0.0.1", fixture.port);
  ASSERT_TRUE(client.ok()) << client.error();
  auto bad = client->Roundtrip("QUERY pi[1](R");
  ASSERT_TRUE(bad.ok()) << bad.error();
  EXPECT_EQ(bad->header.verb, "ERR");
  std::size_t line = 0, column = 0;
  ASSERT_TRUE(util::ParseErrorLocation(bad->header.error, &line, &column))
      << bad->header.error;
  EXPECT_EQ(line, 1u);
  EXPECT_EQ(column, 8u) << "the error points past the unclosed input";
  EXPECT_NE(bad->header.error.find("expected ')'"), std::string::npos)
      << bad->header.error;
  auto pong = client->Roundtrip("PING");
  ASSERT_TRUE(pong.ok()) << pong.error();
  EXPECT_EQ(pong->header.verb, "PONG");
  client->Close();
}

// A session holds at most kMaxPreparedPerSession prepared statements: the
// next new name draws an ERR located at that name and the session stays
// usable. Re-PREPARE of a held name and EXECUTE still work, and another
// session has a budget of its own.
TEST(ServerTest, PreparedStatementsPerSessionAreBounded) {
  ServerFixture fixture(engine::EngineOptions{}, BaseSeed());
  auto client = server::Client::Connect("127.0.0.1", fixture.port);
  ASSERT_TRUE(client.ok()) << client.error();
  for (std::size_t i = 0; i < server::kMaxPreparedPerSession; ++i) {
    auto prepared = client->Roundtrip("PREPARE q" + std::to_string(i) + " pi[1](R)");
    ASSERT_TRUE(prepared.ok()) << prepared.error();
    ASSERT_TRUE(prepared->header.ok) << i << ": " << prepared->header.error;
  }
  auto refused = client->Roundtrip("PREPARE extra pi[1](R)");
  ASSERT_TRUE(refused.ok()) << refused.error();
  EXPECT_FALSE(refused->header.ok);
  EXPECT_EQ(refused->header.verb, "ERR");
  std::size_t line = 0, column = 0;
  ASSERT_TRUE(util::ParseErrorLocation(refused->header.error, &line, &column))
      << refused->header.error;
  EXPECT_EQ(line, 1u);
  EXPECT_EQ(column, 9u) << "the error points at the refused name";
  EXPECT_NE(refused->header.error.find(std::to_string(server::kMaxPreparedPerSession)),
            std::string::npos)
      << refused->header.error;
  auto missing = client->Roundtrip("EXECUTE extra");
  ASSERT_TRUE(missing.ok()) << missing.error();
  EXPECT_FALSE(missing->header.ok);

  auto replaced = client->Roundtrip("PREPARE q0 SELECT c1 FROM S");
  ASSERT_TRUE(replaced.ok()) << replaced.error();
  ASSERT_TRUE(replaced->header.ok) << replaced->header.error;
  const auto snapshot = fixture.head->snapshot();
  const std::pair<std::string, ra::ExprPtr> expected[] = {
      {"q0", ra::Rel("S", 1)}, {"q255", ra::Project(ra::Rel("R", 2), {1})}};
  for (const auto& [name, expr] : expected) {
    auto executed = client->Roundtrip("EXECUTE " + name);
    ASSERT_TRUE(executed.ok()) << executed.error();
    ASSERT_TRUE(executed->header.ok) << name << ": " << executed->header.error;
    auto want = engine::Engine().Run(expr, *snapshot);
    ASSERT_TRUE(want.ok()) << want.error();
    EXPECT_EQ(executed->header.digest,
              server::DigestToHex(server::RelationDigest(want->relation)))
        << name;
  }

  auto other = server::Client::Connect("127.0.0.1", fixture.port);
  ASSERT_TRUE(other.ok()) << other.error();
  auto fresh = other->Roundtrip("PREPARE extra pi[1](R)");
  ASSERT_TRUE(fresh.ok()) << fresh.error();
  EXPECT_TRUE(fresh->header.ok) << fresh->header.error;
  client->Close();
  other->Close();
}

// The soak. Clients record (statement, version, digest); a writer keeps
// publishing randomized commits; afterwards every record is replayed
// serially (fresh engine, no caches) against the snapshot that was
// published under that version.
TEST(ServerTest, ConcurrencySoakReplaysBitIdentical) {
  const std::uint64_t seed = BaseSeed();
  constexpr int kClients = 4;
  constexpr int kStatementsPerClient = 48;
  constexpr int kCommits = 40;

  ServerFixture fixture(engine::EngineOptions::CostBased(), seed);
  const auto statements = SoakStatements();

  // version -> snapshot published under it, maintained by the writer.
  std::mutex log_mu;
  std::map<std::uint64_t, txn::SnapshotPtr> published;
  {
    const auto initial = fixture.head->snapshot();
    published[initial->version()] = initial;
  }

  struct Record {
    std::string statement;
    std::uint64_t version = 0;
    std::string digest;
    std::size_t rows = 0;
  };
  std::vector<std::vector<Record>> records(kClients);
  std::vector<std::string> failures;

  // Paces the writer with the clients: commit c waits until c/kCommits of
  // all statements are answered, or every client is done. An unpaced
  // writer can publish all its commits before the first client connects.
  std::mutex pace_mu;
  std::condition_variable pace_cv;
  int answered = 0;              // Guarded by pace_mu.
  bool clients_finished = false;  // Guarded by pace_mu.

  std::thread writer([&] {
    util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
    for (int c = 0; c < kCommits; ++c) {
      {
        const int due = c * kClients * kStatementsPerClient / kCommits;
        std::unique_lock<std::mutex> lock(pace_mu);
        pace_cv.wait(lock, [&] { return answered >= due || clients_finished; });
      }
      txn::SnapshotPtr snap;
      if (rng.Next() % 3 == 0) {
        // Multi-relation batch: replace T and U together.
        txn::WriteBatch batch;
        batch.Set("T", workload::UniformBinaryRelation(
                           80 + rng.Next() % 80, 24, rng.Next()));
        batch.Set("U", workload::UniformBinaryRelation(
                           60 + rng.Next() % 80, 24, rng.Next()));
        snap = fixture.head->Commit(std::move(batch));
      } else if (rng.Next() % 2 == 0) {
        // Divisor swap: S gets a fresh small set.
        core::Relation s(1);
        const std::size_t n = 2 + rng.Next() % 4;
        for (std::size_t i = 0; i < n; ++i) {
          s.Add({static_cast<core::Value>(1 + rng.Next() % 24)});
        }
        snap = fixture.head->SetRelation("S", std::move(s));
      } else {
        // Point mutation on R.
        snap = fixture.head->Mutate("R", [&](core::Relation& r) {
          r.Add({static_cast<core::Value>(1 + rng.Next() % 40),
                 static_cast<core::Value>(1 + rng.Next() % 24)});
        });
      }
      {
        std::lock_guard<std::mutex> lock(log_mu);
        published[snap->version()] = snap;
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = server::Client::Connect("127.0.0.1", fixture.port);
      if (!client.ok()) {
        std::lock_guard<std::mutex> lock(log_mu);
        failures.push_back("connect: " + client.error());
        return;
      }
      util::Rng rng(seed + 1000 + static_cast<std::uint64_t>(c));
      // Each client prepares one statement under its own name.
      const std::string prepared_statement =
          statements[static_cast<std::size_t>(c) % statements.size()];
      const std::string name = "p" + std::to_string(c);
      auto prep = client->Roundtrip("PREPARE " + name + " " +
                                    prepared_statement);
      if (!prep.ok() || !prep->header.ok) {
        std::lock_guard<std::mutex> lock(log_mu);
        failures.push_back("prepare: " +
                           (prep.ok() ? prep->header.error : prep.error()));
        return;
      }
      for (int q = 0; q < kStatementsPerClient; ++q) {
        std::string statement;
        std::string request;
        if (q % 5 == 4) {
          statement = prepared_statement;
          request = "EXECUTE " + name;
        } else {
          statement = statements[rng.Next() % statements.size()];
          request = "QUERY " + statement;
        }
        auto response = client->Roundtrip(request);
        if (!response.ok() || !response->header.ok) {
          std::lock_guard<std::mutex> lock(log_mu);
          failures.push_back(request + ": " +
                             (response.ok() ? response->header.error
                                            : response.error()));
          return;
        }
        records[static_cast<std::size_t>(c)].push_back(
            {statement, response->header.version, response->header.digest,
             response->header.rows});
        {
          std::lock_guard<std::mutex> lock(pace_mu);
          ++answered;
        }
        pace_cv.notify_one();
      }
      client->Close();
    });
  }
  for (auto& thread : clients) thread.join();
  {
    std::lock_guard<std::mutex> lock(pace_mu);
    clients_finished = true;
  }
  pace_cv.notify_one();
  writer.join();
  ASSERT_TRUE(failures.empty()) << failures.front();

  // Serial replay: no shared caches, no plan cache, fresh engine.
  const engine::Engine replayer{engine::EngineOptions::CostBased()};
  const core::Schema& schema = fixture.head->snapshot()->schema();
  std::map<std::string, ra::ExprPtr> compiled;
  for (const auto& statement : statements) {
    compiled[statement] = MustCompile(statement, schema);
  }
  std::size_t replayed = 0;
  std::size_t distinct_versions_seen = 0;
  {
    std::map<std::uint64_t, bool> seen;
    for (const auto& log : records) {
      for (const auto& record : log) seen[record.version] = true;
    }
    distinct_versions_seen = seen.size();
  }
  for (const auto& log : records) {
    ASSERT_EQ(log.size(), static_cast<std::size_t>(kStatementsPerClient));
    for (const auto& record : log) {
      auto it = published.find(record.version);
      ASSERT_NE(it, published.end())
          << "response pinned unpublished version " << record.version;
      auto run = replayer.Run(compiled.at(record.statement), *it->second);
      ASSERT_TRUE(run.ok()) << record.statement;
      EXPECT_EQ(record.digest,
                server::DigestToHex(server::RelationDigest(run->relation)))
          << record.statement << " @v" << record.version;
      EXPECT_EQ(record.rows, run->relation.size())
          << record.statement << " @v" << record.version;
      ++replayed;
    }
  }
  EXPECT_EQ(replayed,
            static_cast<std::size_t>(kClients * kStatementsPerClient));
  // The writer really raced the readers: responses span multiple
  // versions (the paced writer spreads its 40 commits over the 192
  // statements).
  EXPECT_GT(distinct_versions_seen, 1u);
  EXPECT_EQ(fixture.server->sessions_accepted(),
            static_cast<std::size_t>(kClients));
}

// Sequential connect/query/close cycles must not accumulate session
// state: the accept loop reaps finished sessions, so the tracked count
// stays bounded by live connections, not total connections served.
TEST(ServerTest, ConnectionChurnKeepsSessionListBounded) {
  ServerFixture fixture(engine::EngineOptions{}, BaseSeed());
  constexpr std::size_t kCycles = 32;
  for (std::size_t i = 0; i < kCycles; ++i) {
    auto client = server::Client::Connect("127.0.0.1", fixture.port);
    ASSERT_TRUE(client.ok()) << client.error();
    auto response = client->Roundtrip("QUERY SELECT * FROM R");
    ASSERT_TRUE(response.ok()) << response.error();
    EXPECT_TRUE(response->header.ok) << response->header.error;
    client->Close();
  }
  EXPECT_EQ(fixture.server->sessions_accepted(), kCycles);

  // Reaping happens on the accept path, and a just-closed client's
  // session thread needs a moment to observe EOF — so probe with fresh
  // connections (each accept sweeps) until the backlog drains to at most
  // the probe's own not-yet-reaped session.
  std::size_t live = kCycles;
  for (int attempt = 0; attempt < 200 && live > 1; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    auto probe = server::Client::Connect("127.0.0.1", fixture.port);
    ASSERT_TRUE(probe.ok()) << probe.error();
    auto ping = probe->Roundtrip("PING");
    ASSERT_TRUE(ping.ok()) << ping.error();
    probe->Close();
    live = fixture.server->live_sessions();
  }
  EXPECT_LE(live, 1u);
}

// A request line past the 1 MiB cap draws "ERR line too long" and a
// dropped connection; the per-session read buffer stays bounded. Uses a
// raw socket because Client::Roundtrip always appends the newline this
// test must withhold. The payload is exactly one byte over the cap so
// the server consumes all of it before erroring — the close is then a
// clean FIN (an unread tail would turn it into an RST that could race
// ahead of the error response).
// 40,000 nested projections make a 360,007-byte request line, under the
// line cap. Parsing it once overflowed the session thread's stack and took
// setalgd down; the depth bound answers ERR, and the session serves on.
TEST(ServerTest, DeepStatementGetsErrorAndSessionSurvives) {
  ServerFixture fixture(engine::EngineOptions{}, BaseSeed());
  auto client = server::Client::Connect("127.0.0.1", fixture.port);
  ASSERT_TRUE(client.ok()) << client.error();
  std::string line = "QUERY ";
  for (int i = 0; i < 40000; ++i) line += "pi[1,2](";
  line += "R" + std::string(40000, ')');
  ASSERT_EQ(line.size(), 360007u);

  auto deep = client->Roundtrip(line);
  ASSERT_TRUE(deep.ok()) << deep.error();
  EXPECT_EQ(deep->header.verb, "ERR");
  EXPECT_NE(deep->header.error.find("nested deeper than"), std::string::npos)
      << deep->header.error;
  std::size_t error_line = 0, error_column = 0;
  EXPECT_TRUE(util::ParseErrorLocation(deep->header.error, &error_line, &error_column))
      << deep->header.error;
  auto pong = client->Roundtrip("PING");
  ASSERT_TRUE(pong.ok()) << pong.error();
  EXPECT_EQ(pong->header.verb, "PONG");
  auto good = client->Roundtrip("QUERY SELECT * FROM R");
  ASSERT_TRUE(good.ok()) << good.error();
  EXPECT_TRUE(good->header.ok) << good->header.error;
  EXPECT_GT(good->header.rows, 0u);
  client->Close();
}

TEST(ServerTest, OversizedLineGetsErrorAndDisconnect) {
  ServerFixture fixture(engine::EngineOptions{}, BaseSeed());
  const int fd = ConnectRaw(fixture.port);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, std::string(server::kMaxLineBytes + 1, 'x')));
  std::string received;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    received.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(received.find("ERR"), std::string::npos) << received;
  EXPECT_NE(received.find("line too long"), std::string::npos) << received;
}

// An OK answer far larger than the server's 64 KiB output buffer
// arrives whole and byte-identical to the local CSV text, and the
// connection frames the next statements correctly.
TEST(ServerTest, LargeResponseStreamsByteIdentical) {
  ServerFixture fixture(engine::EngineOptions{}, LargeResultDatabase(BaseSeed()));
  auto client = server::Client::Connect("127.0.0.1", fixture.port);
  ASSERT_TRUE(client.ok()) << client.error();

  const std::string statement = "SELECT * FROM W";
  const auto snapshot = fixture.head->snapshot();
  const engine::Engine local{engine::EngineOptions{}};
  auto run = local.Run(MustCompile(statement, snapshot->schema()), *snapshot);
  ASSERT_TRUE(run.ok());
  const std::string text = core::WriteRelationCsv(run->relation, nullptr);
  ASSERT_GE(run->relation.size(), 20000u);
  ASSERT_GE(text.size(), std::size_t{10} * (std::size_t{64} << 10));

  auto response = client->Roundtrip("QUERY " + statement);
  ASSERT_TRUE(response.ok()) << response.error();
  ASSERT_TRUE(response->header.ok) << response->header.error;
  EXPECT_EQ(response->header.rows, run->relation.size());
  EXPECT_EQ(response->rows.size(), response->header.rows);
  EXPECT_EQ(response->header.digest,
            server::DigestToHex(server::RelationDigest(run->relation)));
  std::string joined;
  joined.reserve(text.size());
  for (const auto& row : response->rows) {
    joined += row;
    joined += '\n';
  }
  ASSERT_EQ(joined.size(), text.size());
  EXPECT_TRUE(joined == text) << "streamed rows differ from WriteRelationCsv";

  auto small = client->Roundtrip("QUERY SELECT c1 FROM S");
  ASSERT_TRUE(small.ok()) << small.error();
  ASSERT_TRUE(small->header.ok) << small->header.error;
  EXPECT_EQ(small->header.rows, 3u);
  EXPECT_EQ(small->rows, (std::vector<std::string>{"1", "2", "3"}));
  auto ping = client->Roundtrip("PING");
  ASSERT_TRUE(ping.ok()) << ping.error();
  EXPECT_EQ(ping->header.verb, "PONG");
  EXPECT_TRUE(ping->rows.empty());
  client->Close();
}

// A client that sends a large QUERY, reads a few bytes and hangs up ends
// its own session only: the next client gets the whole answer, and the
// session list still drains to the live connections.
TEST(ServerTest, ClientVanishingMidResponseEndsOnlyItsSession) {
  ServerFixture fixture(engine::EngineOptions{}, LargeResultDatabase(BaseSeed()));
  const int fd = ConnectRaw(fixture.port);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, "QUERY SELECT * FROM W\n"));
  char head[16];
  ASSERT_GT(::recv(fd, head, sizeof(head), 0), 0);
  ::close(fd);

  auto client = server::Client::Connect("127.0.0.1", fixture.port);
  ASSERT_TRUE(client.ok()) << client.error();
  auto response = client->Roundtrip("QUERY SELECT * FROM W");
  ASSERT_TRUE(response.ok()) << response.error();
  ASSERT_TRUE(response->header.ok) << response->header.error;
  EXPECT_EQ(response->header.rows, 20000u);
  EXPECT_EQ(response->rows.size(), response->header.rows);
  const auto snapshot = fixture.head->snapshot();
  EXPECT_EQ(response->header.digest,
            server::DigestToHex(server::RelationDigest(snapshot->relation("W"))));
  client->Close();

  // As in ConnectionChurnKeepsSessionListBounded: each probe's accept
  // reaps finished sessions, until at most the probe's own is left.
  std::size_t live = fixture.server->live_sessions();
  for (int attempt = 0; attempt < 200 && live > 1; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    auto probe = server::Client::Connect("127.0.0.1", fixture.port);
    ASSERT_TRUE(probe.ok()) << probe.error();
    auto ping = probe->Roundtrip("PING");
    ASSERT_TRUE(ping.ok()) << ping.error();
    probe->Close();
    live = fixture.server->live_sessions();
  }
  EXPECT_LE(live, 1u);
  EXPECT_GE(fixture.server->sessions_accepted(), 2u);
}

// The client reads with the server's line cap: a peer that sends a
// header and then 1 MiB + 1 bytes without a newline gets an error back
// from Roundtrip while it keeps the connection open, rather than a client
// buffer that grows for as long as the bytes keep coming.
TEST(ServerTest, ClientCapsResponseLines) {
  RawPeer peer([](int fd) {
    RecvLine(fd);
    const std::string header = server::FormatOkHeader(1, 1, 0, "miss") + "\n";
    if (!SendAll(fd, header + std::string(server::kMaxLineBytes + 1, 'x'))) return;
    AwaitPeerClose(fd);
  });
  auto client = server::Client::Connect("127.0.0.1", peer.port());
  ASSERT_TRUE(client.ok()) << client.error();
  auto response = client->Roundtrip("QUERY SELECT * FROM R");
  ASSERT_FALSE(response.ok());
  EXPECT_NE(response.error().find("longer than"), std::string::npos)
      << response.error();
}

// Framing does not depend on how the bytes are cut into segments: a
// response sent one byte per send (CR LF line ends included) parses
// exactly, and bytes that arrive ahead of the next request (here the
// whole PONG response) wait in the reader for the next Roundtrip.
TEST(ServerTest, ClientParsesResponseSentOneBytePerSend) {
  const std::string header = server::FormatOkHeader(2, 7, 0x0123456789abcdefULL, "miss");
  RawPeer peer([&](int fd) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    RecvLine(fd);
    const std::string bytes = header + "\r\n1,2\r\n-3,40\n.\nPONG\n.\n";
    for (const char c : bytes) {
      if (!SendAll(fd, std::string(1, c))) return;
    }
    AwaitPeerClose(fd);
  });
  auto client = server::Client::Connect("127.0.0.1", peer.port());
  ASSERT_TRUE(client.ok()) << client.error();
  auto response = client->Roundtrip("QUERY SELECT * FROM R");
  ASSERT_TRUE(response.ok()) << response.error();
  ASSERT_TRUE(response->header.ok);
  EXPECT_EQ(response->header.rows, 2u);
  EXPECT_EQ(response->header.version, 7u);
  EXPECT_EQ(response->header.digest, "0123456789abcdef");
  EXPECT_EQ(response->header.cache, "miss");
  EXPECT_EQ(response->rows, (std::vector<std::string>{"1,2", "-3,40"}));
  auto pong = client->Roundtrip("PING");
  ASSERT_TRUE(pong.ok()) << pong.error();
  EXPECT_EQ(pong->header.verb, "PONG");
  EXPECT_TRUE(pong->rows.empty());
}

TEST(ServerTest, GracefulStopMidTraffic) {
  ServerFixture fixture(engine::EngineOptions{}, BaseSeed());
  auto client = server::Client::Connect("127.0.0.1", fixture.port);
  ASSERT_TRUE(client.ok()) << client.error();
  auto ok = client->Roundtrip("QUERY SELECT * FROM R");
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok->header.ok);

  fixture.server->Stop();
  // The session socket is shut down: the next roundtrip fails cleanly.
  auto after = client->Roundtrip("PING");
  EXPECT_FALSE(after.ok());
  // Stop is idempotent.
  fixture.server->Stop();
  // And new connections are refused.
  auto late = server::Client::Connect("127.0.0.1", fixture.port);
  if (late.ok()) {
    auto response = late->Roundtrip("PING");
    EXPECT_FALSE(response.ok());
  }
}

}  // namespace
}  // namespace setalg
