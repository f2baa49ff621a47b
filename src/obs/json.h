// Minimal JSON string escaping shared by the observability sinks
// (event-log JSONL lines, Chrome trace-event export, /varz rendering)
// and the server's /query bodies.
// Full JSON parsing is deliberately out of scope — the library only
// *emits* JSON, and every consumer (jq, chrome://tracing, Prometheus
// scrapers) parses it on the other side.

#ifndef RDFDB_OBS_JSON_H_
#define RDFDB_OBS_JSON_H_

#include <cstdio>
#include <string>
#include <string_view>

#include "common/string_util.h"

namespace rdfdb::obs {

/// Append `value` to `out` as a double-quoted JSON string, escaping
/// quotes, backslashes and control characters. Runs that need no escape
/// are found eight bytes at a time and copied whole.
inline void AppendJsonString(std::string_view value, std::string* out) {
  out->push_back('"');
  for (size_t run = 0;;) {
    const size_t i = FindEscapable(value, run);
    out->append(value.data() + run, i - run);
    if (i == value.size()) break;
    run = i + 1;
    switch (const char c = value[i]) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(c)));
        out->append(buf);
      }
    }
  }
  out->push_back('"');
}

inline std::string JsonString(const std::string& value) {
  std::string out;
  out.reserve(value.size() + 2);
  AppendJsonString(value, &out);
  return out;
}

}  // namespace rdfdb::obs

#endif  // RDFDB_OBS_JSON_H_
