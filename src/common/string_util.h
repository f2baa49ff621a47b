// Small string helpers shared across modules.

#ifndef RDFDB_COMMON_STRING_UTIL_H_
#define RDFDB_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rdfdb {

/// True if `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True if `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// Copy of `s` with leading/trailing ASCII whitespace removed.
std::string Trim(std::string_view s);

/// Split on `sep`; empty fields are preserved.
std::vector<std::string> Split(std::string_view s, char sep);

/// Split on runs of ASCII whitespace; empty fields are dropped.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Join `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// ASCII lower-case copy.
std::string ToLower(std::string_view s);

/// ASCII upper-case copy.
std::string ToUpper(std::string_view s);

/// Position of the first byte at or after `from` (at most s.size())
/// that is a control character (< 0x20), '"' or '\\' — every byte a
/// JSON string escapes, and a superset of those an N-Triples literal
/// escapes — or s.size() when there is none. Tests eight bytes per
/// step, so text that needs no escape is passed over quickly.
size_t FindEscapable(std::string_view s, size_t from = 0);

/// Parse a signed decimal integer; returns false on any non-numeric input.
bool ParseInt64(std::string_view s, int64_t* out);

/// Parse a floating-point number; returns false on any non-numeric input.
bool ParseDouble(std::string_view s, double* out);

}  // namespace rdfdb

#endif  // RDFDB_COMMON_STRING_UTIL_H_
