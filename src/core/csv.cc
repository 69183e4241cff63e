#include "core/csv.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <sstream>

#include "util/check.h"
#include "util/str.h"

namespace setalg::core {
namespace {

/// Characters in the decimal rendering of `value`. The bit width gives
/// floor(log10) up to one (1233 / 4096 is just above log10(2)); one
/// comparison with a power of ten settles it.
std::size_t DecimalChars(Value value) {
  static constexpr std::uint64_t kPowersOf10[] = {
      1ULL, 10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL, 1000000ULL,
      10000000ULL, 100000000ULL, 1000000000ULL, 10000000000ULL, 100000000000ULL,
      1000000000000ULL, 10000000000000ULL, 100000000000000ULL,
      1000000000000000ULL, 10000000000000000ULL, 100000000000000000ULL,
      1000000000000000000ULL, 10000000000000000000ULL,
  };
  const std::uint64_t magnitude = value < 0 ? 0 - static_cast<std::uint64_t>(value)
                                            : static_cast<std::uint64_t>(value);
  const std::size_t guess =
      (static_cast<std::size_t>(std::bit_width(magnitude | 1)) * 1233) >> 12;
  const std::size_t digits = guess + 1 - (magnitude < kPowersOf10[guess]);
  return digits + (value < 0);
}

/// Null when `names` holds no name: the caller then writes decimal only.
const NameMap* UsableNames(const NameMap* names) {
  return names != nullptr && names->size() > 0 ? names : nullptr;
}

}  // namespace

util::Result<Relation> ReadRelationCsv(const std::string& text, NameMap* names) {
  std::vector<Tuple> rows;
  std::size_t arity = 0;
  bool arity_known = false;
  std::size_t line_number = 0;
  for (const auto& raw_line : util::Split(text, '\n')) {
    ++line_number;
    const auto line = util::StripWhitespace(raw_line);
    if (line.empty()) continue;
    Tuple row;
    for (const auto& raw_field : util::Split(std::string(line), ',')) {
      const auto field = util::StripWhitespace(raw_field);
      long long value = 0;
      if (util::ParseInt64(field, &value)) {
        if (names != nullptr && IsNameCode(static_cast<Value>(value))) {
          return util::Result<Relation>::Error(util::StrCat(
              "line ", line_number, ": integer field '", std::string(field),
              "' lies in the range reserved for interned names (below -2^63 + 2^32)"));
        }
        row.push_back(static_cast<Value>(value));
      } else if (names != nullptr) {
        row.push_back(names->Intern(std::string(field)));
      } else {
        return util::Result<Relation>::Error(util::StrCat(
            "line ", line_number, ": non-integer field '", std::string(field),
            "' and no name map provided"));
      }
    }
    if (!arity_known) {
      arity = row.size();
      arity_known = true;
    } else if (row.size() != arity) {
      return util::Result<Relation>::Error(
          util::StrCat("line ", line_number, ": expected ", arity, " fields, got ",
                       row.size()));
    }
    rows.push_back(std::move(row));
  }
  if (!arity_known) {
    return util::Result<Relation>::Error("empty input: cannot infer arity");
  }
  return Relation::FromRows(arity, rows);
}

util::Result<Relation> ReadRelationCsvFile(const std::string& path, NameMap* names) {
  std::ifstream in(path);
  if (!in) {
    return util::Result<Relation>::Error(util::StrCat("cannot open file: ", path));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ReadRelationCsv(buffer.str(), names);
}

std::string WriteRelationCsv(const Relation& relation, const NameMap* names) {
  names = UsableNames(names);
  const std::size_t rows = relation.size();
  const std::size_t arity = relation.arity();
  // One separator or newline per value, and a newline per zero-ary row.
  std::size_t bytes = arity == 0 ? rows : rows * arity;
  for (const Value value : relation.flat()) {
    const std::string* name = names != nullptr ? names->Find(value) : nullptr;
    bytes += name != nullptr ? name->size() : DecimalChars(value);
  }
  std::string out;
  out.reserve(bytes);
  AppendRelationCsv(relation, 0, rows, names, &out);
  SETALG_DCHECK(out.size() == bytes);
  return out;
}

void AppendRelationCsv(const Relation& relation, std::size_t begin,
                       std::size_t end, const NameMap* names, std::string* out) {
  SETALG_CHECK(begin <= end && end <= relation.size());
  names = UsableNames(names);
  const std::size_t arity = relation.arity();
  // Text collects in a stack block and reaches `out` in block-sized
  // appends.
  char block[4096];
  char* const block_end = block + sizeof(block);
  char* p = block;
  const auto flush = [&] {
    out->append(block, static_cast<std::size_t>(p - block));
    p = block;
  };
  const Value* row = relation.flat().data() + begin * arity;
  for (std::size_t i = begin; i < end; ++i, row += arity) {
    for (std::size_t j = 0; j < arity; ++j) {
      if (static_cast<std::size_t>(block_end - p) < kMaxCsvValueBytes) flush();
      if (j > 0) *p++ = ',';
      const std::string* name = names != nullptr ? names->Find(row[j]) : nullptr;
      if (name == nullptr) {
        p = std::to_chars(p, block_end, row[j]).ptr;
      } else if (name->size() <= static_cast<std::size_t>(block_end - p)) {
        p = std::copy(name->begin(), name->end(), p);
      } else {
        flush();
        out->append(*name);
      }
    }
    if (p == block_end) flush();
    *p++ = '\n';
  }
  flush();
}

}  // namespace setalg::core
