#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <cstring>

namespace rdfdb {

namespace {

/// High bit of every byte of `x` that is zero (exact for the first such
/// byte, which is all FindEscapable needs).
constexpr uint64_t ZeroBytes(uint64_t x) {
  return (x - 0x0101010101010101ULL) & ~x & 0x8080808080808080ULL;
}

/// Does the 8-byte word at `p` hold a byte below 0x20, a '"' or a '\\'?
/// (Each test is exact about whether the word holds such a byte.)
bool WordHasEscapable(const char* p) {
  uint64_t x;
  std::memcpy(&x, p, 8);
  return (((x - 0x2020202020202020ULL) & ~x & 0x8080808080808080ULL) |
          ZeroBytes(x ^ 0x2222222222222222ULL) |
          ZeroBytes(x ^ 0x5c5c5c5c5c5c5c5cULL)) != 0;
}

bool IsEscapable(char c) {
  return static_cast<unsigned char>(c) < 0x20 || c == '"' || c == '\\';
}

}  // namespace

size_t FindEscapable(std::string_view s, size_t from) {
  size_t i = from;
  while (i + 8 <= s.size() && !WordHasEscapable(s.data() + i)) i += 8;
  // Fewer than 8 bytes left and the text is long enough: the last whole
  // word (overlapping bytes already cleared) settles it in one test.
  if (i + 8 > s.size() && s.size() - from >= 8 &&
      !WordHasEscapable(s.data() + s.size() - 8)) {
    return s.size();
  }
  while (i < s.size() && !IsEscapable(s[i])) ++i;
  return i;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string Trim(std::string_view s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return std::string(s.substr(begin, end - begin));
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> SplitWhitespace(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

bool ParseInt64(std::string_view s, int64_t* out) {
  if (s.empty()) return false;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  if (*begin == '+') ++begin;  // std::from_chars rejects a leading '+'
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

bool ParseDouble(std::string_view s, double* out) {
  if (s.empty()) return false;
  std::string buf(s);
  char* endptr = nullptr;
  *out = std::strtod(buf.c_str(), &endptr);
  return endptr == buf.c_str() + buf.size();
}

}  // namespace rdfdb
