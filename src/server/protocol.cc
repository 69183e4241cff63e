#include "server/protocol.h"

#include <bit>
#include <cctype>
#include <cstdio>
#include <optional>
#include <vector>

#include "core/value.h"
#include "util/hash.h"
#include "util/str.h"

namespace setalg::server {
namespace {

/// Splits off the first whitespace-delimited word of `text` starting at
/// `*pos`; advances `*pos` past it and any following spaces.
std::string NextWord(const std::string& text, std::size_t* pos) {
  while (*pos < text.size() && std::isspace(static_cast<unsigned char>(text[*pos]))) {
    ++*pos;
  }
  const std::size_t start = *pos;
  while (*pos < text.size() && !std::isspace(static_cast<unsigned char>(text[*pos]))) {
    ++*pos;
  }
  std::string word = text.substr(start, *pos - start);
  while (*pos < text.size() && std::isspace(static_cast<unsigned char>(text[*pos]))) {
    ++*pos;
  }
  return word;
}

/// Value of a "key=value" field, or nullopt when the key does not match.
/// A present key with an empty value ("digest=") returns an empty string
/// — distinct from nullopt, so callers can report it precisely instead
/// of misfiling the word as an unknown field.
std::optional<std::string> FieldValue(const std::string& word, const char* key) {
  const std::size_t n = std::string(key).size();
  if (word.size() >= n + 1 && word.compare(0, n, key) == 0 && word[n] == '=') {
    return word.substr(n + 1);
  }
  return std::nullopt;
}

// The XXH64 primes and round (Yann Collet's xxHash64).
constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

constexpr std::uint64_t XxRound(std::uint64_t acc, std::uint64_t value) {
  return std::rotl(acc + value * kPrime2, 31) * kPrime1;
}

constexpr std::uint64_t XxMergeLane(std::uint64_t h, std::uint64_t lane) {
  return (h ^ XxRound(0, lane)) * kPrime1 + kPrime4;
}

}  // namespace

std::uint64_t RelationDigest(const core::Relation& relation) {
  const std::vector<core::Value>& flat = relation.flat();
  const std::size_t n = flat.size();
  std::size_t i = 0;
  std::uint64_t h = kPrime5;
  if (n >= 4) {
    // Four independent lanes, seeded as XXH64 seeds them for seed 0:
    // value i feeds lane i mod 4, so the four multiply chains overlap
    // instead of waiting on one another.
    std::uint64_t lane[4] = {kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1};
    for (; i + 4 <= n; i += 4) {
      for (std::size_t j = 0; j < 4; ++j) {
        lane[j] = XxRound(lane[j], static_cast<std::uint64_t>(flat[i + j]));
      }
    }
    h = std::rotl(lane[0], 1) + std::rotl(lane[1], 7) + std::rotl(lane[2], 12) +
        std::rotl(lane[3], 18);
    for (const std::uint64_t l : lane) h = XxMergeLane(h, l);
  }
  h += static_cast<std::uint64_t>(n) * sizeof(core::Value);
  for (; i < n; ++i) {  // The tail values, in order.
    h ^= XxRound(0, static_cast<std::uint64_t>(flat[i]));
    h = std::rotl(h, 27) * kPrime1 + kPrime4;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  h = util::HashCombine(h, relation.arity());
  return util::HashCombine(h, relation.size());
}

std::string DigestToHex(std::uint64_t digest) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(digest));
  return std::string(buffer);
}

util::Result<Request> ParseRequest(const std::string& line) {
  std::size_t pos = 0;
  const std::string verb = NextWord(line, &pos);
  Request request;
  if (verb == "QUERY") {
    request.kind = Request::Kind::kQuery;
    request.statement = line.substr(pos);
    if (request.statement.empty()) {
      return util::Result<Request>::Error("QUERY needs a statement");
    }
    return request;
  }
  if (verb == "PREPARE") {
    request.kind = Request::Kind::kPrepare;
    request.name = NextWord(line, &pos);
    request.statement = line.substr(pos);
    if (request.name.empty() || request.statement.empty()) {
      return util::Result<Request>::Error("PREPARE needs a name and a statement");
    }
    return request;
  }
  if (verb == "EXECUTE") {
    request.kind = Request::Kind::kExecute;
    request.name = NextWord(line, &pos);
    if (request.name.empty() || pos < line.size()) {
      return util::Result<Request>::Error("EXECUTE needs exactly one name");
    }
    return request;
  }
  if (verb == "PING") {
    request.kind = Request::Kind::kPing;
    return request;
  }
  if (verb == "CLOSE") {
    request.kind = Request::Kind::kClose;
    return request;
  }
  return util::Result<Request>::Error(
      util::StrCat("unknown request verb '", verb,
                   "' (want QUERY, PREPARE, EXECUTE, PING or CLOSE)"));
}

util::Result<ResponseHeader> ParseResponseHeader(const std::string& line) {
  std::size_t pos = 0;
  ResponseHeader header;
  header.verb = NextWord(line, &pos);
  if (header.verb == "OK") {
    header.ok = true;
    while (pos < line.size()) {
      const std::string word = NextWord(line, &pos);
      if (auto v = FieldValue(word, "rows")) {
        long long rows = 0;
        if (!util::ParseInt64(*v, &rows) || rows < 0) {
          return util::Result<ResponseHeader>::Error(
              util::StrCat("bad rows field '", word, "'"));
        }
        header.rows = static_cast<std::size_t>(rows);
      } else if (auto v2 = FieldValue(word, "version")) {
        long long version = 0;
        if (!util::ParseInt64(*v2, &version) || version < 0) {
          return util::Result<ResponseHeader>::Error(
              util::StrCat("bad version field '", word, "'"));
        }
        header.version = static_cast<std::uint64_t>(version);
      } else if (auto v3 = FieldValue(word, "digest")) {
        if (v3->empty()) {
          return util::Result<ResponseHeader>::Error(
              util::StrCat("empty digest field '", word, "'"));
        }
        header.digest = *v3;
      } else if (auto v4 = FieldValue(word, "cache")) {
        if (v4->empty()) {
          return util::Result<ResponseHeader>::Error(
              util::StrCat("empty cache field '", word, "'"));
        }
        header.cache = *v4;
      } else {
        return util::Result<ResponseHeader>::Error(
            util::StrCat("unknown OK field '", word, "'"));
      }
    }
    return header;
  }
  if (header.verb == "PREPARED") {
    header.ok = true;
    header.name = NextWord(line, &pos);
    if (header.name.empty()) {
      return util::Result<ResponseHeader>::Error("PREPARED without a name");
    }
    return header;
  }
  if (header.verb == "PONG" || header.verb == "BYE") {
    header.ok = true;
    return header;
  }
  if (header.verb == "ERR") {
    header.ok = false;
    header.error = line.substr(pos);
    return header;
  }
  return util::Result<ResponseHeader>::Error(
      util::StrCat("unrecognized response header '", line, "'"));
}

std::string FormatOkHeader(std::size_t rows, std::uint64_t version,
                           std::uint64_t digest, const std::string& cache) {
  return util::StrCat("OK rows=", rows, " version=", version,
                      " digest=", DigestToHex(digest), " cache=", cache);
}

std::string FormatPreparedHeader(const std::string& name) {
  return util::StrCat("PREPARED ", name);
}

std::string FormatErrHeader(const std::string& error) {
  // Keep the response single-line whatever the message contains.
  std::string flat = error;
  for (char& c : flat) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return util::StrCat("ERR ", flat);
}

}  // namespace setalg::server
