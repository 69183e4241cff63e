// String interning for string-valued example databases.
//
// The paper's universe is totally ordered; Fig. 6 uses lexicographically
// ordered strings. InternSorted assigns integer codes in lexicographic
// order so that Value comparison agrees with string comparison.
#ifndef SETALG_CORE_NAME_MAP_H_
#define SETALG_CORE_NAME_MAP_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "core/value.h"

namespace setalg::core {

/// Bidirectional string <-> Value mapping.
class NameMap {
 public:
  /// Interns all strings at once, assigning codes (base, base+1, ...) in
  /// lexicographic order of the distinct strings. This is the only way to
  /// get order-compatible codes; it must be called before any lookup and
  /// at most once.
  void InternSorted(std::vector<std::string> names, Value base = 0);

  /// Interns one string incrementally (codes in arrival order — the code
  /// order then has no relation to lexicographic order). Returns the code.
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
  Value next_code_ = 0;
};

}  // namespace setalg::core

#endif  // SETALG_CORE_NAME_MAP_H_
