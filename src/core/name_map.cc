#include "core/name_map.h"

#include <algorithm>

#include "util/check.h"

namespace setalg::core {

void NameMap::InternSorted(std::vector<std::string> names, Value base) {
  SETALG_CHECK_STREAM(codes_.empty()) << "InternSorted on a non-empty NameMap";
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  Value code = base;
  for (auto& name : names) {
    names_[code] = name;
    codes_[std::move(name)] = code;
    ++code;
  }
}

Value NameMap::Intern(const std::string& name) {
  auto it = codes_.find(name);
  if (it != codes_.end()) return it->second;
  SETALG_CHECK_STREAM(codes_.size() < kNameCodeCount) << "more than 2^32 interned names";
  const Value code = kFirstNameCode + static_cast<Value>(codes_.size());
  SETALG_CHECK_STREAM(names_.find(code) == names_.end()) << "Intern after InternSorted";
  codes_[name] = code;
  names_[code] = name;
  return code;
}

bool NameMap::Has(const std::string& name) const {
  return codes_.find(name) != codes_.end();
}

Value NameMap::Code(const std::string& name) const {
  auto it = codes_.find(name);
  SETALG_CHECK_STREAM(it != codes_.end()) << "name not interned: " << name;
  return it->second;
}

std::string NameMap::Name(Value code) const {
  const std::string* name = Find(code);
  return name != nullptr ? *name : std::to_string(code);
}

const std::string* NameMap::Find(Value code) const {
  auto it = names_.find(code);
  return it != names_.end() ? &it->second : nullptr;
}

}  // namespace setalg::core
