// Lock-free metrics instruments and a per-store registry.
//
// Every instrument writes through relaxed std::atomic operations only,
// so the hot paths (rdf_value$ interning, rdf_link$ inserts, pattern
// matching) can bump counters from lock-free snapshot readers and the
// writer alike without introducing a new synchronisation point. The registry itself takes a mutex only on registration and on
// dump — never on the instrument write path.
//
// Naming scheme (see DESIGN.md §8): Prometheus conventions —
// `rdfdb_<subsystem>_<what>_total` for counters,
// `rdfdb_<subsystem>_<what>` for gauges, and `rdfdb_<subsystem>_<what>_ns`
// for latency histograms (nanosecond unit, matching Timer::ElapsedNanos).

#ifndef RDFDB_OBS_METRICS_H_
#define RDFDB_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <mutex>

#include "common/timer.h"

namespace rdfdb::obs {

/// Monotonically increasing event count. All operations are wait-free.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Point-in-time signed value (queue depths, cache sizes). Set/Add are
/// wait-free; SetMax is lock-free (CAS loop) and is what pipeline
/// stages use to publish a high-water mark.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  /// Raise the gauge to `v` if `v` is larger than the current value.
  void SetMax(int64_t v) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram with cumulative-on-render semantics (the
/// stored per-bucket counts are disjoint; RenderPrometheus emits the
/// cumulative `le` form). Bucket bounds are immutable after
/// construction, so Observe touches only atomics.
class Histogram {
 public:
  /// `upper_bounds` must be sorted ascending; an implicit +Inf bucket
  /// is appended.
  explicit Histogram(std::vector<uint64_t> upper_bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(uint64_t value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<uint64_t>& bounds() const { return bounds_; }
  /// Disjoint count for bucket `i`; `i == bounds().size()` is +Inf.
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::vector<uint64_t> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// Default latency bucket bounds in nanoseconds: powers of four from
/// 1 µs to ~1.07 s. Eleven buckets cover a sub-microsecond intern probe
/// through a multi-hundred-millisecond bulk load with one series.
std::vector<uint64_t> DefaultLatencyBucketsNs();

/// Estimate the q-quantile (q in [0, 1]) of a histogram from its
/// *disjoint* bucket counts (`counts.size() == bounds.size() + 1`, the
/// layout Histogram stores), linearly interpolating within the landing
/// bucket. Observations in the +Inf bucket clamp to the last finite
/// bound (the estimate is a floor there, not a value). Returns 0 when
/// the histogram is empty. The interval-snapshot machinery calls this
/// on bucket *deltas* to get per-interval quantiles.
double QuantileFromBuckets(const std::vector<uint64_t>& bounds,
                           const std::vector<uint64_t>& counts, double q);

/// Convenience over a live instrument's current counts.
double HistogramQuantile(const Histogram& histogram, double q);

/// Owns the instruments for one store. Registration hands back a
/// stable pointer that callers cache (StoreMetrics does exactly this),
/// so steady-state operation never performs a name lookup.
/// Re-registering an existing name with the same kind returns the
/// existing instrument; a kind mismatch returns nullptr.
class MetricsRegistry {
 public:
  enum class Kind { kCounter, kGauge, kHistogram };

  /// Read-only view of one registered instrument (exactly one of the
  /// three pointers is non-null, per `kind`). Valid only during ForEach.
  struct InstrumentView {
    const std::string* name;
    const std::string* help;
    Kind kind;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const Histogram* histogram = nullptr;
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* RegisterCounter(const std::string& name, const std::string& help);
  Gauge* RegisterGauge(const std::string& name, const std::string& help);
  Histogram* RegisterHistogram(const std::string& name,
                               const std::string& help,
                               std::vector<uint64_t> upper_bounds);

  /// nullptr when the name is absent or registered as another kind.
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;

  /// Visit every instrument in lexicographic name order under the
  /// registry mutex (the interval-snapshot API is built on this; `fn`
  /// must not call back into the registry).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, entry] : entries_) {
      InstrumentView view;
      view.name = &name;
      view.help = &entry.help;
      view.kind = entry.kind;
      view.counter = entry.counter.get();
      view.gauge = entry.gauge.get();
      view.histogram = entry.histogram.get();
      fn(view);
    }
  }

  /// Prometheus text exposition format (# HELP / # TYPE / samples),
  /// instruments in lexicographic name order. Histograms additionally
  /// carry summary-style p50/p95/p99 quantile lines estimated from the
  /// bucket counts.
  std::string RenderPrometheus() const;
  /// One JSON object keyed by metric name; histograms carry
  /// cumulative buckets plus sum, count, and p50/p95/p99 estimates.
  std::string RenderJson() const;

 private:
  struct Entry {
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;  // sorted => deterministic dumps
};

/// RAII nanosecond span: adds the elapsed time to `*sink_ns` (if
/// non-null) and observes it into `histogram` (if non-null) on
/// destruction. Null sinks make tracing strictly opt-in with a single
/// branch on the cold path.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram* histogram, int64_t* sink_ns = nullptr)
      : histogram_(histogram), sink_ns_(sink_ns) {}
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;
  ~ScopedLatency() {
    if (histogram_ == nullptr && sink_ns_ == nullptr) return;
    const int64_t ns = timer_.ElapsedNanos();
    if (sink_ns_ != nullptr) *sink_ns_ += ns;
    if (histogram_ != nullptr) histogram_->Observe(static_cast<uint64_t>(ns));
  }

 private:
  Histogram* histogram_;
  int64_t* sink_ns_;
  Timer timer_;
};

}  // namespace rdfdb::obs

#endif  // RDFDB_OBS_METRICS_H_
