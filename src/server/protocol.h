// The setalgd wire protocol: line-oriented, one request per line, one
// framed response per request.
//
// Requests (first word is the verb, case-sensitive):
//   QUERY <statement>           run one statement (SQL or RA text)
//   PREPARE <name> <statement>  compile + prepare under a session name
//                               (up to kMaxPreparedPerSession a session; server.h)
//   EXECUTE <name>              run a prepared statement
//   PING                        liveness probe
//   CLOSE                       end the session
//
// Every response is one header line, zero or more CSV data rows, and a
// terminating "." line:
//   OK rows=<n> version=<v> digest=<16 hex> cache=<outcome>   (+ n rows)
//   PREPARED <name>
//   PONG
//   BYE
//   ERR <line>:<column>: <message>
//
// Every ERR is located (util::LocatedError). Request-line errors and the
// server's refusals point into the request line; frontend errors point
// into the statement, counted from its first byte; errors of a whole
// run (an intermediate budget, say) read 1:1; and "line too long" reads
// 1:<kMaxLineBytes + 1>, the first byte past the cap.
//
// Framing is by lines alone: a response is complete at its "." line,
// however the bytes were cut into TCP segments. setalgd streams a large
// OK answer in 64 KiB pieces, so one response may arrive in many
// segments and a reader must buffer until each '\n' (server/line_reader.h
// does, under a 1 MiB line cap).
//
// Statements are dispatched on sql::LooksLikeSql: SELECT-led text goes
// through the SQL frontend (sql/analyzer.h), anything else through the
// RA expression grammar (ra/parse.h). `version` is the MVCC snapshot the
// statement ran against (txn::Snapshot::version()), `digest` the
// RelationDigest of the result — the invariant the server soak test
// leans on: equal (version, statement) implies equal digest. The digest
// is version 2 (below); version 1, a byte-wise FNV-1a, gave other values
// for the same results.
#ifndef SETALG_SERVER_PROTOCOL_H_
#define SETALG_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "core/relation.h"
#include "util/result.h"

namespace setalg::server {

/// The response terminator line.
inline constexpr char kTerminator[] = ".";

/// Digest version 2 of a relation: the digest raq prints in --sessions
/// mode and setalgd returns in every OK header. Over the normalized flat
/// storage v[0..n) (a zero-ary relation holding its row stores one 0):
///   - h = XXH64 with seed 0 of the values as 64-bit words: each full
///     group of four values feeds four lanes (value i takes an XXH64
///     round, multiply-rotate-multiply, in lane i mod 4) and the lanes
///     merge; the n mod 4 values after the last full group fold in, in
///     order; the XXH64 avalanche ends it;
///   - then h = HashCombine(HashCombine(h, arity), rows) (util/hash.h).
/// It hashes values, not bytes, so it does not depend on byte order; on
/// a little-endian host h equals XXH64 of the storage's bytes.
std::uint64_t RelationDigest(const core::Relation& relation);

/// 16-character lowercase hex rendering of a digest.
std::string DigestToHex(std::uint64_t digest);

/// One parsed request line.
struct Request {
  enum class Kind { kQuery, kPrepare, kExecute, kPing, kClose };
  Kind kind = Kind::kPing;
  std::string name;             // PREPARE / EXECUTE target.
  std::size_t name_column = 0;  // 1-based column of `name` in the line.
  std::string statement;        // QUERY / PREPARE payload.
};

/// Parses one request line. Unknown verbs and missing operands are
/// errors (the server answers ERR and keeps the session open), located
/// on line 1 like every ERR: at the offending word, or one column past
/// the line's end when an operand is missing.
util::Result<Request> ParseRequest(const std::string& line);

/// One parsed response header line.
struct ResponseHeader {
  std::string verb;  // "OK", "PREPARED", "PONG", "BYE" or "ERR".
  bool ok = false;   // True for every verb except ERR.
  std::size_t rows = 0;       // OK only.
  std::uint64_t version = 0;  // OK only.
  std::string digest;         // OK only (16 hex chars).
  std::string cache;          // OK only (CacheOutcomeToString spelling).
  std::string name;           // PREPARED only.
  std::string error;          // ERR only (located "line:column: ..." text).
};

/// Parses a response header line (the counterpart used by raq --connect
/// and the server tests).
util::Result<ResponseHeader> ParseResponseHeader(const std::string& line);

/// Header formatters — the exact lines the server writes.
std::string FormatOkHeader(std::size_t rows, std::uint64_t version,
                           std::uint64_t digest, const std::string& cache);
std::string FormatPreparedHeader(const std::string& name);
std::string FormatErrHeader(const std::string& error);

}  // namespace setalg::server

#endif  // SETALG_SERVER_PROTOCOL_H_
