// CSV import/export for relations, used by the raq CLI example and tests.
//
// Fields that parse as integers become those integer values; other fields
// are interned through a caller-supplied NameMap (arrival order, codes in
// NameMap's reserved range, which integer fields may then not use).
#ifndef SETALG_CORE_CSV_H_
#define SETALG_CORE_CSV_H_

#include <cstddef>
#include <iosfwd>
#include <string>

#include "core/name_map.h"
#include "core/relation.h"
#include "util/result.h"

namespace setalg::core {

/// The most bytes one value takes in CSV text when it is written in
/// decimal: 20 characters ("-9223372036854775808") and a separator.
inline constexpr std::size_t kMaxCsvValueBytes = 21;

/// Parses CSV text (one tuple per line, comma-separated, no header) into a
/// relation. All rows must have the same width. Empty lines are skipped.
/// `names` may be nullptr, in which case non-integer fields are an error.
/// With a name map, an integer field inside the range reserved for name
/// codes (core::IsNameCode) is an error, so names and integers never
/// share a value.
util::Result<Relation> ReadRelationCsv(const std::string& text, NameMap* names);

/// Reads a relation from a file; see ReadRelationCsv.
util::Result<Relation> ReadRelationCsvFile(const std::string& path, NameMap* names);

/// Writes one tuple per line, values comma-separated; values that have
/// interned names are written as those names when `names` is non-null,
/// all others in decimal. The string is sized exactly before it is
/// written.
std::string WriteRelationCsv(const Relation& relation, const NameMap* names);

/// Appends rows [begin, end) of `relation` to `*out` in WriteRelationCsv's
/// format, so consecutive ranges concatenate to its text. Nothing is
/// allocated beyond `*out`'s own growth: a caller that clears and reuses
/// one string streams a large relation through a bounded buffer.
void AppendRelationCsv(const Relation& relation, std::size_t begin,
                       std::size_t end, const NameMap* names, std::string* out);

}  // namespace setalg::core

#endif  // SETALG_CORE_CSV_H_
