#include "util/str.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace setalg::util {

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      parts.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

std::string_view StripWhitespace(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
  return text.substr(begin, end - begin);
}

bool ParseInt64(std::string_view text, long long* out) {
  text = StripWhitespace(text);
  if (text.empty()) return false;
  std::string buffer(text);
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(buffer.c_str(), &end, 10);
  if (errno != 0 || end != buffer.c_str() + buffer.size()) return false;
  *out = value;
  return true;
}

std::string LocatedError(std::size_t line, std::size_t column,
                         const std::string& message) {
  return StrCat(line, ":", column, ": ", message);
}

bool ParseErrorLocation(const std::string& error, std::size_t* line,
                        std::size_t* column) {
  std::size_t i = 0;
  std::size_t l = 0;
  while (i < error.size() && std::isdigit(static_cast<unsigned char>(error[i]))) {
    l = l * 10 + static_cast<std::size_t>(error[i] - '0');
    ++i;
  }
  if (i == 0 || i >= error.size() || error[i] != ':') return false;
  std::size_t j = ++i;
  std::size_t c = 0;
  while (j < error.size() && std::isdigit(static_cast<unsigned char>(error[j]))) {
    c = c * 10 + static_cast<std::size_t>(error[j] - '0');
    ++j;
  }
  if (j == i || j >= error.size() || error[j] != ':') return false;
  if (line != nullptr) *line = l;
  if (column != nullptr) *column = c;
  return true;
}

}  // namespace setalg::util
