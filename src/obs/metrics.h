// MetricsRegistry: thread-safe, low-overhead named counters, gauges, and
// fixed-bucket histograms for the retrieval pipeline.
//
// Design:
//  * Collection is off by default. Every write checks one relaxed atomic
//    bool and returns immediately when disabled, so instrumented hot
//    paths (Gram build, SMO, ranking, per-frame segmentation) pay a
//    single predictable branch.
//  * When enabled, writes go to per-thread shards (cache-line padded,
//    relaxed atomics) so concurrent request workers never contend on a
//    shared line. Metrics never feed back into computation.
//  * Snapshot() aggregates the shards; it is safe to call concurrently
//    with writers (reads are atomic; a snapshot taken mid-update simply
//    misses in-flight increments).
//  * Metric objects live for the process lifetime: handles returned by
//    GetCounter/GetGauge/GetHistogram stay valid forever, which is what
//    lets call sites hoist the name lookup into a function-local static
//    (the MIVID_METRIC_* macros below).
//
// Histograms use fixed exponential buckets (factor 2 from 1e-6), wide
// enough for seconds-scale latencies and iteration counts alike;
// percentiles are interpolated within the bucket.

#ifndef MIVID_OBS_METRICS_H_
#define MIVID_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mivid {

/// Turns metric collection on or off (off by default). Cheap to call;
/// flipping does not clear previously collected values.
void EnableMetrics(bool enabled);

/// True when metric writes are being recorded.
inline bool MetricsEnabled();

namespace obs_internal {

extern std::atomic<bool> g_metrics_enabled;

/// Number of per-thread shards per metric (power of two). Threads hash to
/// a shard via a thread-local ticket, so concurrent writers virtually
/// never share a cache line.
constexpr int kShards = 16;

/// Stable per-thread shard index in [0, kShards).
int ThreadShard();

/// value += delta on an atomic double (CAS loop; works on toolchains
/// without std::atomic<double>::fetch_add).
void AtomicAddDouble(std::atomic<double>* target, double delta);
void AtomicMinDouble(std::atomic<double>* target, double value);
void AtomicMaxDouble(std::atomic<double>* target, double value);

}  // namespace obs_internal

inline bool MetricsEnabled() {
  return obs_internal::g_metrics_enabled.load(std::memory_order_relaxed);
}

/// Monotonic counter.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    if (!MetricsEnabled()) return;
    shards_[obs_internal::ThreadShard()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  uint64_t Value() const;
  void Reset();

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  Shard shards_[obs_internal::kShards];
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double value) {
    if (!MetricsEnabled()) return;
    value_.store(value, std::memory_order_relaxed);
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Aggregated view of one histogram at snapshot time.
struct HistogramStats {
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< 0 when count == 0
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  /// Raw per-bucket counts (Histogram::kBuckets + 1 entries, last =
  /// overflow). Carried so snapshots from different processes can be
  /// merged exactly — same bounds everywhere, so merging is a
  /// bucket-wise sum. Empty in legacy snapshots; percentiles above are
  /// then the only distribution view.
  std::vector<uint64_t> buckets;

  double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }
};

/// Recomputes p50/p95/p99 from stats->buckets (count/sum/min/max must
/// already be set). Shared by Histogram::Stats() and the cross-process
/// merge path so a merged histogram reports percentiles computed exactly
/// the way a single process would over the union of observations.
void RecomputeHistogramPercentiles(HistogramStats* stats);

/// Fixed-bucket histogram of non-negative values.
class Histogram {
 public:
  /// Exponential bucket bounds: bound[i] = 1e-6 * 2^i, i in [0, kBuckets);
  /// one overflow bucket past the last bound.
  static constexpr int kBuckets = 40;

  void Observe(double value);
  HistogramStats Stats() const;
  void Reset();

  /// Upper bound of bucket `i` (i == kBuckets => +inf).
  static double BucketBound(int i);

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> count{0};
    std::atomic<double> sum{0.0};
    // +/-inf sentinels; shards with count == 0 are skipped at snapshot.
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};
    std::atomic<uint64_t> buckets[kBuckets + 1] = {};
  };
  Shard shards_[obs_internal::kShards];
};

/// Everything the registry held at one instant.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramStats> histograms;
};

/// Process-wide named-metric registry.
class MetricsRegistry {
 public:
  /// The process singleton (leaked so hoisted handles outlive exit paths).
  static MetricsRegistry& Global();

  /// Returns the metric registered under `name`, creating it on first
  /// use. The reference is valid for the process lifetime. A name may be
  /// registered as only one metric kind.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// Aggregates every metric. Safe under concurrent writes.
  MetricsSnapshot Snapshot() const;

  /// Zeroes every metric (handles stay valid). Test/bench convenience.
  void Reset();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Measures wall time from construction to destruction into a histogram
/// (seconds). Reads the clock only while metrics are enabled.
class ScopedHistogramTimer {
 public:
  explicit ScopedHistogramTimer(Histogram& histogram);
  ~ScopedHistogramTimer();

  ScopedHistogramTimer(const ScopedHistogramTimer&) = delete;
  ScopedHistogramTimer& operator=(const ScopedHistogramTimer&) = delete;

 private:
  Histogram* histogram_ = nullptr;  ///< null when metrics were disabled
  uint64_t begin_ns_ = 0;
};

// Call-site macros: hoist the registry lookup into a function-local
// static so the steady-state cost is one enabled-check.
#define MIVID_OBS_CONCAT_INNER(a, b) a##b
#define MIVID_OBS_CONCAT(a, b) MIVID_OBS_CONCAT_INNER(a, b)

#define MIVID_METRIC_COUNT(name, delta)                         \
  do {                                                          \
    static ::mivid::Counter& mivid_obs_counter =                \
        ::mivid::MetricsRegistry::Global().GetCounter(name);    \
    mivid_obs_counter.Increment(delta);                         \
  } while (0)

#define MIVID_METRIC_GAUGE_SET(name, value)                     \
  do {                                                          \
    static ::mivid::Gauge& mivid_obs_gauge =                    \
        ::mivid::MetricsRegistry::Global().GetGauge(name);      \
    mivid_obs_gauge.Set(value);                                 \
  } while (0)

#define MIVID_METRIC_OBSERVE(name, value)                       \
  do {                                                          \
    static ::mivid::Histogram& mivid_obs_histogram =            \
        ::mivid::MetricsRegistry::Global().GetHistogram(name);  \
    mivid_obs_histogram.Observe(value);                         \
  } while (0)

// Dynamic-name variants: no static hoist, so the metric name may be
// computed at the call site (e.g. per-worker cluster metrics like
// "cluster/worker/<id>/requests"). Each call pays one registry lookup —
// fine off the hot path; prefer the hoisted macros above for fixed
// names in inner loops.
#define MIVID_METRIC_COUNT_DYN(name, delta)                        \
  do {                                                             \
    if (::mivid::MetricsEnabled()) {                               \
      ::mivid::MetricsRegistry::Global().GetCounter(name).Increment(delta); \
    }                                                              \
  } while (0)

#define MIVID_METRIC_OBSERVE_DYN(name, value)                      \
  do {                                                             \
    if (::mivid::MetricsEnabled()) {                               \
      ::mivid::MetricsRegistry::Global().GetHistogram(name).Observe(value); \
    }                                                              \
  } while (0)

/// Times the enclosing scope into histogram `name` (seconds).
#define MIVID_SCOPED_TIMER(name)                                          \
  static ::mivid::Histogram& MIVID_OBS_CONCAT(mivid_obs_timer_hist_,      \
                                              __LINE__) =                 \
      ::mivid::MetricsRegistry::Global().GetHistogram(name);              \
  ::mivid::ScopedHistogramTimer MIVID_OBS_CONCAT(mivid_obs_timer_,        \
                                                 __LINE__)(               \
      MIVID_OBS_CONCAT(mivid_obs_timer_hist_, __LINE__))

}  // namespace mivid

#endif  // MIVID_OBS_METRICS_H_
