// String interning for string-valued example databases.
//
// The paper's universe is totally ordered; Fig. 6 uses lexicographically
// ordered strings. InternSorted assigns integer codes in lexicographic
// order so that Value comparison agrees with string comparison.
#ifndef SETALG_CORE_NAME_MAP_H_
#define SETALG_CORE_NAME_MAP_H_

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/value.h"

namespace setalg::core {

/// The codes Intern hands out: the lowest 2^32 values of int64,
/// [kFirstNameCode, kFirstNameCode + kNameCodeCount), in arrival order
/// from kFirstNameCode. A reader that interns names beside integers
/// (core::ReadRelationCsv) rejects integers inside this range, so a name
/// and an integer never share a Value.
inline constexpr Value kFirstNameCode = std::numeric_limits<Value>::min();
inline constexpr std::uint64_t kNameCodeCount = std::uint64_t{1} << 32;

/// True iff `value` lies in Intern's reserved code range.
inline bool IsNameCode(Value value) {
  return static_cast<std::uint64_t>(value) - static_cast<std::uint64_t>(kFirstNameCode) <
         kNameCodeCount;
}

/// Bidirectional string <-> Value mapping.
class NameMap {
 public:
  /// Interns all strings at once, assigning codes (base, base+1, ...) in
  /// lexicographic order of the distinct strings. This is the only way to
  /// get order-compatible codes; it must be called before any lookup and
  /// at most once.
  void InternSorted(std::vector<std::string> names, Value base = 0);

  /// Interns one string incrementally: codes count up from
  /// kFirstNameCode in arrival order (the code order then has no relation
  /// to lexicographic order). Returns the code. Does not mix with
  /// InternSorted on one map.
  Value Intern(const std::string& name);

  /// True iff the string has been interned.
  bool Has(const std::string& name) const;

  /// Code lookup; the string must be interned.
  Value Code(const std::string& name) const;

  /// Reverse lookup; falls back to the decimal rendering of the value for
  /// codes that were never interned.
  std::string Name(Value code) const;

  /// The interned name of `code`, or null when `code` was never interned.
  /// The pointer stays valid as long as the map does.
  const std::string* Find(Value code) const;

  std::size_t size() const { return codes_.size(); }

 private:
  std::unordered_map<std::string, Value> codes_;
  std::unordered_map<Value, std::string> names_;
};

}  // namespace setalg::core

#endif  // SETALG_CORE_NAME_MAP_H_
