// Hostile text on every input surface of setalgd: the statement depth
// bound (ra::kMaxExprDepth) and a deterministic fuzz leg.
//
// DepthBound: each deep shape that once overflowed a session thread's
// stack compiles, plans and is destroyed at the bound, on a default-stack
// thread as in a setalgd session, and one level more draws a located
// error. The statements setalgd's benchmark serves stay far under it.
//
// Fuzz: fixed seeds and a bounded count, no dependency beyond GoogleTest.
// Random bytes, mutations of a seed corpus (request lines, response
// headers, the SQL workload, the division and triangle statements) and
// the deep shapes at random sizes go through ParseRequest,
// ParseResponseHeader, sql::Compile and ra::Parse; LineReader reads
// random chunkings of random lines over a socketpair. A crash, a
// sanitizer report or a SETALG_CHECK abort fails the leg; CI runs it
// under ASan/UBSan.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "ra/parse.h"
#include "server/line_reader.h"
#include "server/protocol.h"
#include "sql/analyzer.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "test_util.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace setalg {
namespace {

constexpr std::size_t kBound = ra::kMaxExprDepth;

std::string Repeat(const std::string& piece, std::size_t times) {
  std::string out;
  out.reserve(piece.size() * times);
  for (std::size_t i = 0; i < times; ++i) out += piece;
  return out;
}

/// {R/2, S/1}, one row each.
core::Database TinyDatabase() {
  return testing::DivisionDb(testing::MakeRel(2, {{1, 1}}), testing::MakeRel(1, {{1}}));
}

/// Compiles `statement` as setalgd does and plans it under planned and
/// cost-based multiway options, on a fresh default-stack thread like a
/// setalgd session's; the tree and its plans are destroyed there too.
/// Returns the compile error, or "" when the statement compiled.
std::string CompileAndPlanOnSessionThread(const std::string& statement) {
  std::string error;
  std::thread session([&] {
    const core::Database db = TinyDatabase();
    auto expr = sql::LooksLikeSql(statement) ? sql::Compile(statement, db.schema())
                                             : ra::Parse(statement, db.schema());
    if (!expr.ok()) {
      error = expr.error();
      return;
    }
    for (const auto& options : {engine::EngineOptions{},
                                engine::EngineOptions::CostBased().WithMultiway()}) {
      auto plan = engine::Engine(options).Plan(*expr, db);
      EXPECT_TRUE(plan.ok()) << plan.error();
    }
  });
  session.join();
  return error;
}

/// A statement shape whose depth grows with `size`; `bound` is the
/// largest size within kBound levels.
struct Shape {
  const char* name;
  std::function<std::string(std::size_t)> make;
  std::size_t bound;
};

std::vector<Shape> DeepShapes() {
  return {
      // RA: one level per nested expression.
      {"ra projections",
       [](std::size_t n) { return Repeat("pi[1,2](", n) + "R" + Repeat(")", n); },
       kBound - 1},
      {"ra unions",
       [](std::size_t n) { return Repeat("union(", n) + "R" + Repeat(", R)", n); },
       kBound - 1},
      {"ra parentheses",
       [](std::size_t n) { return Repeat("(", n) + "R" + Repeat(")", n); }, kBound - 1},
      // SQL: a FROM item, a conjunct and the subquery's parentheses per
      // level, plus the innermost FROM item and conjunct.
      {"sql nested EXISTS",
       [](std::size_t n) {
         return "SELECT * FROM R r WHERE " +
                Repeat("EXISTS (SELECT * FROM R r WHERE ", n) + "r.c1 = 1" +
                Repeat(")", n);
       },
       (kBound - 2) / 3},
      {"sql FROM list",
       [](std::size_t n) {
         std::string sql = "SELECT * FROM R r0";
         for (std::size_t i = 1; i < n; ++i) sql += ", R r" + std::to_string(i);
         return sql;
       },
       kBound},
      {"sql conjuncts",
       [](std::size_t n) {
         std::string sql = "SELECT * FROM R WHERE c1 < 0";
         for (std::size_t i = 1; i < n; ++i) sql += " AND c1 < " + std::to_string(i);
         return sql;
       },
       kBound - 1},
      {"sql UNIONs",
       [](std::size_t n) {
         std::string sql = "SELECT * FROM R";
         for (std::size_t i = 1; i < n; ++i) sql += " UNION SELECT * FROM R";
         return sql;
       },
       kBound},
      {"sql parentheses",
       [](std::size_t n) { return Repeat("(", n) + "SELECT * FROM R" + Repeat(")", n); },
       kBound - 1},
      // A subquery first, then n conjuncts stacked above it, all in
      // parentheses under a UNION: n + 8 levels. Counting only the levels
      // above each token would pass n + 1 here.
      {"sql mixed",
       [](std::size_t n) {
         std::string sql =
             "(SELECT * FROM R a WHERE EXISTS (SELECT * FROM R b, R c WHERE b.c1 = c.c1)";
         for (std::size_t i = 0; i < n; ++i) sql += " AND a.c1 < " + std::to_string(i);
         return sql + ") UNION SELECT * FROM R";
       },
       kBound - 8},
  };
}

TEST(DepthBound, EveryShapeFitsAtTheBoundAndFailsPastIt) {
  for (const Shape& shape : DeepShapes()) {
    EXPECT_EQ(CompileAndPlanOnSessionThread(shape.make(shape.bound)), "") << shape.name;
    const std::string past = shape.make(shape.bound + 1);
    const std::string error = CompileAndPlanOnSessionThread(past);
    EXPECT_NE(error.find("nested deeper than"), std::string::npos)
        << shape.name << ": " << error;
    if (sql::LooksLikeSql(past)) {
      std::size_t line = 0, column = 0;
      EXPECT_TRUE(sql::ParseErrorLocation(error, &line, &column)) << error;
    } else {
      EXPECT_EQ(error.rfind("parse error at offset ", 0), 0u) << error;
    }
  }
}

TEST(DepthBound, ServedStatementsStayUnderIt) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const core::Schema schema = workload::SqlWorkloadDatabase(seed).schema();
    for (const auto& pair : workload::MakeSqlWorkload({500, seed})) {
      auto compiled = sql::Compile(pair.sql, schema);
      EXPECT_TRUE(compiled.ok()) << pair.sql << ": " << compiled.error();
    }
  }
  core::Schema triangle;
  for (const char* name : {"R", "S", "T"}) triangle.AddRelation(name, 2);
  EXPECT_TRUE(sql::Compile(workload::TriangleSqlPair().sql, triangle).ok());
  const core::Schema division = TinyDatabase().schema();
  EXPECT_TRUE(sql::Compile("SELECT r.c1 FROM R r WHERE NOT EXISTS (SELECT * FROM S s "
                           "WHERE NOT EXISTS (SELECT * FROM R r2 WHERE r2.c1 = r.c1 "
                           "AND r2.c2 = s.c1))",
                           division)
                  .ok());
  EXPECT_TRUE(
      ra::Parse("diff(pi[1](R), pi[1](diff(product(pi[1](R), S), R)))", division).ok());
}

// --- The fuzz leg ----------------------------------------------------------

std::vector<std::string> SeedCorpus() {
  std::vector<std::string> corpus = {
      "QUERY SELECT * FROM R",
      "QUERY pi[1](R)",
      "PREPARE q1 SELECT c1 FROM S",
      "EXECUTE q1",
      "PING",
      "CLOSE",
      server::FormatOkHeader(12, 34, 0x0123456789abcdefULL, "miss"),
      server::FormatErrHeader("1:5: unknown table 'Nope'"),
      server::FormatPreparedHeader("q1"),
      "PONG",
      "BYE",
      "SELECT r.c1 FROM R r WHERE NOT EXISTS (SELECT * FROM S s WHERE NOT EXISTS "
      "(SELECT * FROM R r2 WHERE r2.c1 = r.c1 AND r2.c2 = s.c1))",
      "diff(pi[1](R), pi[1](diff(product(pi[1](R), S), R)))",
      workload::TriangleSqlPair().sql,
  };
  for (auto& pair : workload::MakeSqlWorkload({500, 1})) {
    corpus.push_back(std::move(pair.sql));
  }
  return corpus;
}

std::string RandomBytes(util::Rng* rng, std::size_t size) {
  std::string bytes(size, '\0');
  for (char& c : bytes) c = static_cast<char>(rng->NextBounded(256));
  return bytes;
}

/// One to three mutations of a corpus entry: flip a bit, insert bytes,
/// delete a span, duplicate a span, or splice with another entry.
std::string Mutate(const std::vector<std::string>& corpus, util::Rng* rng) {
  std::string text = corpus[rng->NextBounded(corpus.size())];
  const std::size_t rounds = 1 + rng->NextBounded(3);
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::size_t at = rng->NextBounded(text.size() + 1);
    const std::size_t span = std::min<std::size_t>(text.size() - at, rng->NextBounded(16));
    switch (rng->NextBounded(5)) {
      case 0:
        if (!text.empty()) {
          text[at % text.size()] ^= static_cast<char>(1 << rng->NextBounded(8));
        }
        break;
      case 1:
        text.insert(at, RandomBytes(rng, 1 + rng->NextBounded(4)));
        break;
      case 2:
        text.erase(at, span);
        break;
      case 3:
        text.insert(at, text.substr(at, span));
        break;
      default: {
        const std::string& other = corpus[rng->NextBounded(corpus.size())];
        text = text.substr(0, at) + other.substr(rng->NextBounded(other.size() + 1));
        break;
      }
    }
  }
  return text;
}

void FeedEveryTarget(const std::string& text, const core::Schema& schema) {
  server::ParseRequest(text);
  server::ParseResponseHeader(text);
  auto sql = sql::Compile(text, schema);
  if (!sql.ok()) {
    std::size_t line = 0, column = 0;
    EXPECT_TRUE(sql::ParseErrorLocation(sql.error(), &line, &column))
        << sql.error() << "\ninput: " << text;
  }
  ra::Parse(text, schema);
}

TEST(Fuzz, FrontendsAndProtocolParsersSurviveHostileText) {
  const core::Schema schema = workload::SqlWorkloadDatabase(1).schema();
  const std::vector<std::string> corpus = SeedCorpus();
  const std::vector<Shape> shapes = DeepShapes();
  for (std::uint64_t seed : {11, 12, 13}) {
    util::Rng rng(seed);
    for (std::size_t i = 0; i < 4000; ++i) FeedEveryTarget(Mutate(corpus, &rng), schema);
    for (std::size_t i = 0; i < 500; ++i) {
      FeedEveryTarget(RandomBytes(&rng, rng.NextBounded(200)), schema);
    }
    for (std::size_t i = 0; i < 40; ++i) {
      const Shape& shape = shapes[rng.NextBounded(shapes.size())];
      // Mostly around the bound, sometimes far past it.
      const std::size_t size = rng.NextBool(0.1) ? 30000 + rng.NextBounded(10000)
                                                 : 1 + rng.NextBounded(3 * kBound);
      FeedEveryTarget(shape.make(size), schema);
    }
  }
}

/// One line a LineReader case writes: its bytes and its terminator.
struct WrittenLine {
  std::string text;
  bool crlf = false;
};

TEST(Fuzz, LineReaderReturnsExactlyTheLinesWrittenOrOverflows) {
  util::Rng rng(21);
  for (std::size_t round = 0; round < 40; ++round) {
    std::vector<WrittenLine> lines(1 + rng.NextBounded(8));
    for (WrittenLine& line : lines) {
      std::size_t size = rng.NextBounded(300);
      if (rng.NextBool(0.15)) {  // Around the cap, on both sides.
        size = server::kMaxLineBytes - 2 + rng.NextBounded(4);
      }
      line.text = RandomBytes(&rng, size);
      std::replace(line.text.begin(), line.text.end(), '\n', ' ');
      if (!line.text.empty() && line.text.back() == '\r') line.text.back() = ' ';
      line.crlf = rng.NextBool(0.3);
    }
    std::string wire;
    for (const WrittenLine& line : lines) {
      wire += line.text;
      wire += line.crlf ? "\r\n" : "\n";
    }

    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::thread writer([&, chunk_seed = rng.Next()] {
      util::Rng chunks(chunk_seed);
      for (std::size_t sent = 0; sent < wire.size();) {
        const std::size_t want = std::min<std::size_t>(
            wire.size() - sent,
            1 + chunks.NextBounded(chunks.NextBool(0.5) ? 16 : std::size_t{1} << 17));
        const ssize_t n = ::send(fds[1], wire.data() + sent, want, MSG_NOSIGNAL);
        if (n <= 0) break;  // The reader stopped at an overlong line.
        sent += static_cast<std::size_t>(n);
      }
      ::shutdown(fds[1], SHUT_WR);
    });

    server::LineReader reader;
    std::string got;
    std::size_t read = 0;
    bool overflowed = false;
    for (const WrittenLine& line : lines) {
      const std::size_t raw = line.text.size() + (line.crlf ? 1 : 0);
      if (raw > server::kMaxLineBytes) {
        EXPECT_FALSE(reader.ReadLine(fds[0], &got)) << "round " << round;
        EXPECT_TRUE(reader.overflowed()) << "round " << round;
        overflowed = true;
        break;
      }
      ASSERT_TRUE(reader.ReadLine(fds[0], &got)) << "round " << round << " line " << read;
      EXPECT_EQ(got, line.text) << "round " << round << " line " << read;
      ++read;
    }
    if (!overflowed) {
      EXPECT_FALSE(reader.ReadLine(fds[0], &got)) << "round " << round;
      EXPECT_FALSE(reader.overflowed()) << "round " << round;
    }
    ::close(fds[0]);  // Unblocks a writer still sending past an overflow.
    writer.join();
    ::close(fds[1]);
  }
}

}  // namespace
}  // namespace setalg
