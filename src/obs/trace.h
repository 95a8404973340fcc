// Scoped tracing spans with Chrome trace_event export.
//
//   MIVID_TRACE_SPAN("svm/smo");
//
// records one complete ("ph":"X") event — begin timestamp, duration,
// thread — into a per-thread buffer when tracing is enabled. Buffers are
// append-only rings bounded at SetTraceCapacity() events per thread
// (events past the cap are counted as dropped, never overwritten, so a
// concurrent reader can safely walk [0, size) under acquire/release).
//
// Exports:
//  * TraceToChromeJson() — a {"traceEvents":[...]} document loadable by
//    chrome://tracing / Perfetto, with thread_name metadata rows naming
//    each recording thread by its trace tid ("thread 3").
//  * AggregateSpans() / FormatSpanReport() — per-span-name latency table
//    (count, total, p50, p95, max) computed exactly from the recorded
//    durations, rendered with ascii_plot.
//
// Overhead when disabled: one relaxed atomic load per span; the clock is
// never read. Span names must be string literals (or otherwise outlive
// the trace), which is what keeps recording allocation-free.

#ifndef MIVID_OBS_TRACE_H_
#define MIVID_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace mivid {

/// Turns span recording on or off (off by default).
void EnableTracing(bool enabled);
bool TracingEnabled();

/// Caps the number of events each thread retains (default 65536). Takes
/// effect for buffers created after the call; call before EnableTracing.
void SetTraceCapacity(size_t events_per_thread);

/// Discards every recorded event (buffers stay registered).
void ResetTrace();

/// One recorded span occurrence.
struct TraceEventData {
  const char* name = nullptr;
  uint64_t begin_us = 0;  ///< microseconds since the process trace epoch
  uint64_t dur_us = 0;
  uint32_t tid = 0;           ///< stable per-buffer id (see thread_label)
  std::string thread_label;   ///< "thread <tid>"
};

/// Every retained event, ordered by (tid, record order). Within one tid
/// the end timestamps (begin + dur) are monotonically non-decreasing —
/// spans are recorded when they close.
std::vector<TraceEventData> CollectTraceEvents();

/// Total events dropped across all threads since the last ResetTrace().
uint64_t TraceDroppedEvents();

/// Chrome trace_event JSON: {"traceEvents":[...]} with "M" thread-name
/// metadata plus one "X" complete event per span. Also emits a
/// "clock_sync" metadata event carrying the wall-clock time of the
/// process trace epoch (args.wall_epoch_us) and the process label, which
/// is what lets the stitcher rebase traces from different processes onto
/// one timeline.
std::string TraceToChromeJson();

// ---------------------------------------------------------------------------
// Distributed trace context.
//
// A request that crosses the coordinator/worker boundary carries a
// TraceContext on the wire ("trace" = whole-request id, "span" = the
// sender's span id, which becomes the receiver's parent). ContextSpan is
// the request-scoped counterpart of TraceSpan: it mints a span id,
// records the (trace, span, parent) triple with the timing, and exposes
// the context so it can be stamped onto downstream requests. Context
// spans are request-frequency (a handful per request, not per-frame), so
// they use a mutex-guarded side channel instead of the lock-free ring —
// the hot-path MIVID_TRACE_SPAN cost is unchanged.
// ---------------------------------------------------------------------------

/// Wire identity of one span in a distributed trace. Ids are 16 lowercase
/// hex chars; empty means "absent".
struct TraceContext {
  std::string trace_id;   ///< shared by every span of one request
  std::string span_id;    ///< this span
  std::string parent_id;  ///< sender's span id; empty at the root
};

/// Fresh process-unique 16-hex id (used for both trace and span ids).
std::string NewSpanId();

/// Wall-clock time (microseconds since the Unix epoch) of trace ts == 0
/// for this process. Pinned together with the steady-clock epoch.
uint64_t TraceWallEpochMicros();

/// One recorded context span occurrence.
struct ContextSpanData {
  const char* name = nullptr;
  TraceContext context;
  uint64_t begin_us = 0;
  uint64_t dur_us = 0;
  uint32_t tid = 0;
  std::string thread_label;
};

/// Every retained context span, in close order.
std::vector<ContextSpanData> CollectContextSpans();

namespace obs_internal {
void RecordContextSpan(const char* name, const TraceContext& context,
                       uint64_t begin_us, uint64_t end_us);
}  // namespace obs_internal

/// RAII request-scoped span carrying a distributed trace context.
/// `name` must be a string literal. When `trace_id` is empty a fresh
/// trace is started (this span is the root); otherwise the span joins
/// the existing trace under `parent_id`. Inert when tracing is off:
/// no ids are minted and the clock is never read.
class ContextSpan {
 public:
  ContextSpan(const char* name, const std::string& trace_id,
              const std::string& parent_id);
  ~ContextSpan();

  ContextSpan(const ContextSpan&) = delete;
  ContextSpan& operator=(const ContextSpan&) = delete;

  /// True when tracing was enabled at construction.
  bool active() const { return name_ != nullptr; }
  /// The minted context ({} when inactive). Stamp context().trace_id /
  /// context().span_id onto requests forwarded from inside this span.
  const TraceContext& context() const { return context_; }

 private:
  const char* name_ = nullptr;
  TraceContext context_;
  uint64_t begin_us_ = 0;
};

/// Aggregated latency statistics for one span name.
struct SpanStats {
  std::string name;
  uint64_t count = 0;
  double total_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double max_ms = 0.0;
};

/// Exact per-name aggregates (sorted by descending total time).
std::vector<SpanStats> AggregateSpans();

/// The aggregate table plus a total-time bar chart, rendered as text.
std::string FormatSpanReport();

namespace obs_internal {
extern std::atomic<bool> g_tracing_enabled;
void RecordSpan(const char* name, uint64_t begin_us, uint64_t end_us);
uint64_t TraceNowMicros();
}  // namespace obs_internal

inline bool TracingEnabled() {
  return obs_internal::g_tracing_enabled.load(std::memory_order_relaxed);
}

/// RAII span. Prefer the MIVID_TRACE_SPAN macro.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (TracingEnabled()) {
      name_ = name;
      begin_us_ = obs_internal::TraceNowMicros();
    }
  }
  ~TraceSpan() {
    if (name_ != nullptr) {
      obs_internal::RecordSpan(name_, begin_us_,
                               obs_internal::TraceNowMicros());
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;
  uint64_t begin_us_ = 0;
};

#define MIVID_TRACE_CONCAT_INNER(a, b) a##b
#define MIVID_TRACE_CONCAT(a, b) MIVID_TRACE_CONCAT_INNER(a, b)

/// Opens a span covering the rest of the enclosing scope. `name` must be
/// a string literal.
#define MIVID_TRACE_SPAN(name) \
  ::mivid::TraceSpan MIVID_TRACE_CONCAT(mivid_trace_span_, __LINE__)(name)

}  // namespace mivid

#endif  // MIVID_OBS_TRACE_H_
