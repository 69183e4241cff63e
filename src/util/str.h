// Small string helpers (the toolchain's libstdc++ predates std::format).
#ifndef SETALG_UTIL_STR_H_
#define SETALG_UTIL_STR_H_

#include <cstddef>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace setalg::util {

/// Concatenates the streamable arguments into one string.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream out;
  (out << ... << args);
  return out.str();
}

/// Joins the elements of `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `text` on `sep` (keeping empty fields).
std::vector<std::string> Split(std::string_view text, char sep);

/// Strips ASCII whitespace from both ends.
std::string_view StripWhitespace(std::string_view text);

/// Parses a signed 64-bit integer; returns false on any malformed input.
bool ParseInt64(std::string_view text, long long* out);

/// Formats "line:column: message", the one spelling of every error that
/// points into a statement's text (both frontends and the server's
/// refusals), so callers and tests can recover the location mechanically.
/// Lines and columns are 1-based, counted from the statement's first byte.
std::string LocatedError(std::size_t line, std::size_t column,
                         const std::string& message);

/// Recovers the "line:column: " prefix of a LocatedError message. Returns
/// false when `error` does not carry one.
bool ParseErrorLocation(const std::string& error, std::size_t* line,
                        std::size_t* column);

}  // namespace setalg::util

#endif  // SETALG_UTIL_STR_H_
