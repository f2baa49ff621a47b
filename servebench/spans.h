// In-memory spans for the traced run, written out once at the end as
// Chrome trace-event JSON (load it in chrome://tracing or Perfetto).
//
// Every span is recorded by the benchmark around a call into one of the
// program's public functions; nothing inside the program is
// instrumented. Spans of one request share its request id.

#ifndef SERVEBENCH_SPANS_H_
#define SERVEBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;    ///< layer.call, e.g. "query.match"
  const char* parent;  ///< enclosing span's name, "" for a root
  uint64_t request_id;
  uint32_t lane;       ///< client index (Chrome "tid")
  int64_t start_ns;
  int64_t dur_ns;
};

/// One lane's spans; each client thread owns one, so recording takes no
/// lock.
class SpanLog {
 public:
  explicit SpanLog(uint32_t lane) : lane_(lane) {}
  void Add(const char* name, const char* parent, uint64_t request_id,
           int64_t start_ns, int64_t dur_ns) {
    spans_.push_back(Span{name, parent, request_id, lane_, start_ns, dur_ns});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t lane_;
  std::vector<Span> spans_;
};

/// Write the spans of `logs` as a Chrome trace-event file, at most
/// `max_spans` in all: each log's earliest, up to an equal share. Times
/// are relative to `origin_ns`. Returns false when the file cannot be
/// written.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs,
                      int64_t origin_ns, size_t max_spans);

}  // namespace servebench

#endif  // SERVEBENCH_SPANS_H_
