// Tests for the setalgd line protocol (server/protocol.h): request and
// response-header parsing, including the field-level negatives — most
// importantly empty-valued OK fields like "digest=", which the parser
// used to misfile as unknown fields.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "server/protocol.h"
#include "test_util.h"
#include "util/str.h"

namespace setalg::server {
namespace {

using setalg::testing::MakeRel;

TEST(ParseRequest, RecognizesEveryVerb) {
  auto query = ParseRequest("QUERY pi[1](R)");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->kind, Request::Kind::kQuery);
  EXPECT_EQ(query->statement, "pi[1](R)");

  auto prepare = ParseRequest("PREPARE q1 div(R, S)");
  ASSERT_TRUE(prepare.ok());
  EXPECT_EQ(prepare->kind, Request::Kind::kPrepare);
  EXPECT_EQ(prepare->name, "q1");
  EXPECT_EQ(prepare->statement, "div(R, S)");

  auto execute = ParseRequest("EXECUTE q1");
  ASSERT_TRUE(execute.ok());
  EXPECT_EQ(execute->kind, Request::Kind::kExecute);
  EXPECT_EQ(execute->name, "q1");

  EXPECT_EQ(ParseRequest("PING")->kind, Request::Kind::kPing);
  EXPECT_EQ(ParseRequest("CLOSE")->kind, Request::Kind::kClose);
}

TEST(ParseRequest, RejectsMissingOperandsAndUnknownVerbs) {
  EXPECT_FALSE(ParseRequest("QUERY").ok());
  EXPECT_FALSE(ParseRequest("PREPARE q1").ok());
  EXPECT_FALSE(ParseRequest("EXECUTE q1 extra").ok());
  EXPECT_FALSE(ParseRequest("query lowercase").ok());
  EXPECT_FALSE(ParseRequest("").ok());
}

// Every request-line error is located on line 1: at the offending word,
// or one column past the line's end when an operand is missing.
TEST(ParseRequest, ErrorsAreLocatedOnTheRequestLine) {
  const struct {
    const char* line;
    std::size_t column;
  } cases[] = {
      {"QUERY", 6},
      {"QUERY   ", 9},
      {"PREPARE", 8},
      {"PREPARE q1", 11},
      {"PREPARE q1   ", 14},
      {"EXECUTE", 8},
      {"EXECUTE q1 extra", 12},
      {"FROB x", 1},
      {"  query lowercase", 3},
      {"", 1},
  };
  for (const auto& c : cases) {
    auto request = ParseRequest(c.line);
    ASSERT_FALSE(request.ok()) << "'" << c.line << "'";
    std::size_t line = 0, column = 0;
    ASSERT_TRUE(util::ParseErrorLocation(request.error(), &line, &column))
        << request.error();
    EXPECT_EQ(line, 1u) << request.error();
    EXPECT_EQ(column, c.column) << "'" << c.line << "': " << request.error();
  }
  // The name's column, for the server's refusals that point at it.
  EXPECT_EQ(ParseRequest("PREPARE  q7 pi[1](R)")->name_column, 10u);
  EXPECT_EQ(ParseRequest(" EXECUTE q7")->name_column, 10u);
}

TEST(ParseResponseHeader, RoundTripsTheFormatters) {
  const std::string ok = FormatOkHeader(12, 34, 0xdeadbeefu, "plan-hit");
  auto header = ParseResponseHeader(ok);
  ASSERT_TRUE(header.ok()) << header.error();
  EXPECT_TRUE(header->ok);
  EXPECT_EQ(header->rows, 12u);
  EXPECT_EQ(header->version, 34u);
  EXPECT_EQ(header->digest, DigestToHex(0xdeadbeefu));
  EXPECT_EQ(header->cache, "plan-hit");

  auto prepared = ParseResponseHeader(FormatPreparedHeader("q2"));
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(prepared->name, "q2");

  auto err = ParseResponseHeader(FormatErrHeader("1:5: bad\nthing"));
  ASSERT_TRUE(err.ok());
  EXPECT_FALSE(err->ok);
  EXPECT_EQ(err->error, "1:5: bad thing");
}

TEST(ParseResponseHeader, EmptyValuedFieldsAreReportedPrecisely) {
  // "digest=" is a present key with an empty value — a malformed server
  // response, but it must be diagnosed as such, not as an unknown field
  // (the old parser required at least one value character to match the
  // key at all).
  auto digest = ParseResponseHeader("OK rows=1 version=2 digest= cache=miss");
  ASSERT_FALSE(digest.ok());
  EXPECT_NE(digest.error().find("empty digest field"), std::string::npos)
      << digest.error();

  auto cache = ParseResponseHeader("OK rows=1 version=2 digest=00ff cache=");
  ASSERT_FALSE(cache.ok());
  EXPECT_NE(cache.error().find("empty cache field"), std::string::npos)
      << cache.error();

  // Empty numeric values flow into the numeric-field diagnostics.
  auto rows = ParseResponseHeader("OK rows= version=2");
  ASSERT_FALSE(rows.ok());
  EXPECT_NE(rows.error().find("bad rows field"), std::string::npos)
      << rows.error();

  auto version = ParseResponseHeader("OK rows=1 version=");
  ASSERT_FALSE(version.ok());
  EXPECT_NE(version.error().find("bad version field"), std::string::npos)
      << version.error();

  // Genuinely unknown fields still say so.
  auto unknown = ParseResponseHeader("OK rows=1 wat=1");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.error().find("unknown OK field 'wat=1'"), std::string::npos)
      << unknown.error();
}

TEST(ParseResponseHeader, RejectsMalformedNumericFields) {
  EXPECT_FALSE(ParseResponseHeader("OK rows=abc").ok());
  EXPECT_FALSE(ParseResponseHeader("OK rows=-3").ok());
  EXPECT_FALSE(ParseResponseHeader("OK version=1x").ok());
  EXPECT_FALSE(ParseResponseHeader("PREPARED").ok());
  EXPECT_FALSE(ParseResponseHeader("HELLO world").ok());
}

// Golden digest v2 values. An independent XXH64 implementation (seed 0,
// over the values as little-endian 8-byte words) followed by the two
// HashCombine steps reproduces every one.
TEST(RelationDigest, V2GoldenValues) {
  core::Relation empty(0);
  core::Relation unit(0);
  unit.Add(core::TupleView());
  EXPECT_EQ(DigestToHex(RelationDigest(empty)), "fd3d051a12468024");
  EXPECT_EQ(DigestToHex(RelationDigest(unit)), "ecbbc43ef5737326");
  EXPECT_EQ(DigestToHex(RelationDigest(MakeRel(1, {{42}}))), "aebd0104e97860e3");
  // Nine values: two rounds through all four lanes, then one tail value.
  EXPECT_EQ(DigestToHex(RelationDigest(MakeRel(3, {{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}))),
            "06e79632936bb707");
  constexpr core::Value kMin = std::numeric_limits<core::Value>::min();
  constexpr core::Value kMax = std::numeric_limits<core::Value>::max();
  EXPECT_EQ(DigestToHex(RelationDigest(MakeRel(2, {{kMin, kMax}, {0, -1}}))),
            "02c0553938c72ce2");
}

TEST(RelationDigest, EverySingleBitFlipIsDistinct) {
  const std::vector<std::vector<core::Value>> base = {{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
  const auto digest_of = [](const std::vector<std::vector<core::Value>>& rows) {
    core::Relation r(3);
    for (const auto& row : rows) r.Add(core::TupleView(row.data(), row.size()));
    return RelationDigest(r);
  };
  std::set<std::uint64_t> seen = {digest_of(base)};
  for (std::size_t row = 0; row < 3; ++row) {
    for (std::size_t col = 0; col < 3; ++col) {
      for (int bit = 0; bit < 64; ++bit) {
        auto flipped = base;
        flipped[row][col] = static_cast<core::Value>(
            static_cast<std::uint64_t>(flipped[row][col]) ^ (std::uint64_t{1} << bit));
        EXPECT_TRUE(seen.insert(digest_of(flipped)).second)
            << "row " << row << " column " << col << " bit " << bit;
      }
    }
  }
  EXPECT_EQ(seen.size(), 1u + 576u);
}

TEST(RelationDigest, SensitiveToContentArityAndOrder) {
  const auto a = MakeRel(2, {{1, 2}, {3, 4}});
  const auto b = MakeRel(2, {{1, 2}, {3, 5}});
  EXPECT_NE(RelationDigest(a), RelationDigest(b));
  // The same values per column, the rows' tails swapped: every lane sees
  // the same inputs in another order.
  EXPECT_NE(RelationDigest(MakeRel(4, {{1, 2, 3, 4}, {5, 6, 7, 8}})),
            RelationDigest(MakeRel(4, {{1, 6, 7, 8}, {5, 2, 3, 4}})));
  // The same flat values 1..6 read at four arities.
  const std::set<std::uint64_t> digests = {
      RelationDigest(MakeRel(1, {{1}, {2}, {3}, {4}, {5}, {6}})),
      RelationDigest(MakeRel(2, {{1, 2}, {3, 4}, {5, 6}})),
      RelationDigest(MakeRel(3, {{1, 2, 3}, {4, 5, 6}})),
      RelationDigest(MakeRel(6, {{1, 2, 3, 4, 5, 6}}))};
  EXPECT_EQ(digests.size(), 4u);
  EXPECT_EQ(DigestToHex(0).size(), 16u);
  EXPECT_EQ(DigestToHex(0xabcdefu), "0000000000abcdef");
}

}  // namespace
}  // namespace setalg::server
