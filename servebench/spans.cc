#include "spans.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace servebench {

bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs,
                      int64_t origin_ns, size_t max_spans) {
  // Each log keeps its earliest spans up to an equal share of the cap,
  // so the short set-up and write-probe lanes always appear.
  const size_t per_log = logs.empty() ? 0 : max_spans / logs.size();
  std::vector<const Span*> all;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    for (size_t i = 0; i < spans.size() && i < per_log; ++i) {
      all.push_back(&spans[i]);
    }
  }
  std::sort(all.begin(), all.end(), [](const Span* a, const Span* b) {
    return a->start_ns < b->start_ns;
  });

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = *all[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"servebench\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"request_id\": %" PRIu64
                 ", \"parent\": \"%s\"}}%s\n",
                 s.name, s.lane,
                 static_cast<double>(s.start_ns - origin_ns) / 1e3,
                 static_cast<double>(s.dur_ns) / 1e3, s.request_id, s.parent,
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace servebench
