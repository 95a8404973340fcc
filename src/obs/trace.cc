#include "obs/trace.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/json.h"
#include "common/ascii_plot.h"

namespace mivid {

namespace obs_internal {

std::atomic<bool> g_tracing_enabled{false};

namespace {

struct StoredEvent {
  const char* name;
  uint64_t begin_us;
  uint64_t end_us;
};

/// Append-only per-thread event buffer. The writer fills slot `size_`
/// then publishes with a release store; readers acquire `size_` and walk
/// only published slots, so collection is race-free while spans are
/// still being recorded. Slots are never overwritten (events past the
/// capacity are dropped and counted) — that is what makes the
/// publish/consume protocol this simple.
class ThreadTraceBuffer {
 public:
  ThreadTraceBuffer(uint32_t tid, std::string label, size_t capacity)
      : tid_(tid), label_(std::move(label)), events_(capacity) {}

  void Append(const char* name, uint64_t begin_us, uint64_t end_us) {
    const size_t n = size_.load(std::memory_order_relaxed);
    if (n >= events_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    events_[n] = {name, begin_us, end_us};
    size_.store(n + 1, std::memory_order_release);
  }

  void Collect(std::vector<TraceEventData>* out) const {
    const size_t n = size_.load(std::memory_order_acquire);
    for (size_t i = 0; i < n; ++i) {
      const StoredEvent& e = events_[i];
      out->push_back(
          {e.name, e.begin_us, e.end_us - e.begin_us, tid_, label_});
    }
  }

  void Clear() { size_.store(0, std::memory_order_release); }

  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  void ResetDropped() { dropped_.store(0, std::memory_order_relaxed); }

  uint32_t tid() const { return tid_; }
  const std::string& label() const { return label_; }

 private:
  uint32_t tid_;
  std::string label_;
  std::vector<StoredEvent> events_;
  std::atomic<size_t> size_{0};
  std::atomic<uint64_t> dropped_{0};
};

struct TraceState {
  std::mutex mu;
  // shared_ptr so buffers outlive their threads (a closed connection's
  // thread exits, but its recorded spans must survive until export).
  std::vector<std::shared_ptr<ThreadTraceBuffer>> buffers;
  uint32_t next_tid = 0;
  size_t capacity = 1 << 16;
  // Request-scoped context spans (see ContextSpan): recorded under the
  // mutex because they carry heap strings and happen a handful of times
  // per request, never inside per-frame loops.
  std::vector<ContextSpanData> context_events;
  uint64_t context_dropped = 0;
};

TraceState& State() {
  static TraceState* state = new TraceState();  // leaked
  return *state;
}

ThreadTraceBuffer& LocalBuffer() {
  thread_local std::shared_ptr<ThreadTraceBuffer> buffer = [] {
    TraceState& state = State();
    std::lock_guard<std::mutex> lock(state.mu);
    const uint32_t tid = state.next_tid++;
    auto b = std::make_shared<ThreadTraceBuffer>(
        tid, StrFormat("thread %u", tid), state.capacity);
    state.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

// Steady-clock origin of trace timestamps, pinned together with the wall
// clock at the same instant so multi-process traces can be rebased onto
// a common timeline by the stitcher.
struct TraceEpoch {
  uint64_t steady_ns;
  uint64_t wall_us;
};

const TraceEpoch& ProcessEpoch() {
  static const TraceEpoch epoch = [] {
    TraceEpoch e;
    e.steady_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
    e.wall_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    return e;
  }();
  return epoch;
}

uint64_t ProcessEpochNanos() { return ProcessEpoch().steady_ns; }

// splitmix64 finalizer: cheap, well-mixed 64-bit hash for span ids.
uint64_t MixBits(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t TraceNowMicros() {
  const uint64_t now = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return (now - ProcessEpochNanos()) / 1000;
}

void RecordSpan(const char* name, uint64_t begin_us, uint64_t end_us) {
  LocalBuffer().Append(name, begin_us, end_us);
}

void RecordContextSpan(const char* name, const TraceContext& context,
                       uint64_t begin_us, uint64_t end_us) {
  // Resolve the thread identity before taking the state mutex —
  // LocalBuffer() may itself lock it on first use.
  ThreadTraceBuffer& local = LocalBuffer();
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.context_events.size() >= state.capacity) {
    ++state.context_dropped;
    return;
  }
  ContextSpanData event;
  event.name = name;
  event.context = context;
  event.begin_us = begin_us;
  event.dur_us = end_us - begin_us;
  event.tid = local.tid();
  event.thread_label = local.label();
  state.context_events.push_back(std::move(event));
}

}  // namespace obs_internal

std::string NewSpanId() {
  using obs_internal::MixBits;
  static const uint64_t process_seed = [] {
    uint64_t seed = obs_internal::ProcessEpoch().steady_ns;
    seed = MixBits(seed ^ (static_cast<uint64_t>(getpid()) << 32));
    seed = MixBits(seed ^ obs_internal::ProcessEpoch().wall_us);
    return seed;
  }();
  static std::atomic<uint64_t> counter{0};
  const uint64_t id = MixBits(
      process_seed + counter.fetch_add(1, std::memory_order_relaxed));
  return StrFormat("%016llx", static_cast<unsigned long long>(id));
}

uint64_t TraceWallEpochMicros() {
  return obs_internal::ProcessEpoch().wall_us;
}

std::vector<ContextSpanData> CollectContextSpans() {
  auto& state = obs_internal::State();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.context_events;
}

ContextSpan::ContextSpan(const char* name, const std::string& trace_id,
                         const std::string& parent_id) {
  if (!TracingEnabled()) return;
  name_ = name;
  context_.trace_id = trace_id.empty() ? NewSpanId() : trace_id;
  context_.span_id = NewSpanId();
  context_.parent_id = parent_id;
  begin_us_ = obs_internal::TraceNowMicros();
}

ContextSpan::~ContextSpan() {
  if (name_ == nullptr) return;
  obs_internal::RecordContextSpan(name_, context_, begin_us_,
                                  obs_internal::TraceNowMicros());
}

void EnableTracing(bool enabled) {
  if (enabled) (void)obs_internal::TraceNowMicros();  // pin the epoch
  obs_internal::g_tracing_enabled.store(enabled, std::memory_order_relaxed);
}

void SetTraceCapacity(size_t events_per_thread) {
  auto& state = obs_internal::State();
  std::lock_guard<std::mutex> lock(state.mu);
  state.capacity = std::max<size_t>(1, events_per_thread);
}

void ResetTrace() {
  auto& state = obs_internal::State();
  std::lock_guard<std::mutex> lock(state.mu);
  for (auto& buffer : state.buffers) {
    buffer->Clear();
    buffer->ResetDropped();
  }
  state.context_events.clear();
  state.context_dropped = 0;
}

std::vector<TraceEventData> CollectTraceEvents() {
  std::vector<std::shared_ptr<obs_internal::ThreadTraceBuffer>> buffers;
  {
    auto& state = obs_internal::State();
    std::lock_guard<std::mutex> lock(state.mu);
    buffers = state.buffers;
  }
  std::vector<TraceEventData> events;
  for (const auto& buffer : buffers) buffer->Collect(&events);
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEventData& a, const TraceEventData& b) {
                     return a.tid < b.tid;
                   });
  return events;
}

uint64_t TraceDroppedEvents() {
  auto& state = obs_internal::State();
  std::lock_guard<std::mutex> lock(state.mu);
  uint64_t total = state.context_dropped;
  for (const auto& buffer : state.buffers) total += buffer->dropped();
  return total;
}

std::string TraceToChromeJson() {
  const std::vector<TraceEventData> events = CollectTraceEvents();
  const std::vector<ContextSpanData> context_events = CollectContextSpans();
  const std::string& identity = GetLogIdentity();
  const std::string process = identity.empty() ? "mivid" : identity;
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto append = [&](const std::string& piece) {
    if (!first) out += ",";
    first = false;
    out += piece;
  };
  append(StrFormat(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"%s\"}}",
      JsonEscape(process).c_str()));
  // Wall-clock anchor: trace ts 0 == this wall time. The stitcher uses
  // it to rebase traces from different processes onto one timeline.
  append(StrFormat(
      "{\"name\":\"clock_sync\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"wall_epoch_us\":%llu,\"process\":\"%s\"}}",
      static_cast<unsigned long long>(TraceWallEpochMicros()),
      JsonEscape(process).c_str()));
  uint32_t labeled_tid = UINT32_MAX;
  for (const auto& e : events) {
    if (e.tid != labeled_tid) {
      labeled_tid = e.tid;
      append(StrFormat(
          "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
          "\"args\":{\"name\":\"%s\"}}",
          e.tid, e.thread_label.c_str()));
    }
    append(StrFormat(
        "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
        "\"ts\":%llu,\"dur\":%llu}",
        e.name, e.tid, static_cast<unsigned long long>(e.begin_us),
        static_cast<unsigned long long>(e.dur_us)));
  }
  // Context spans go on their own tid rows (offset past the ring tids)
  // so the request timeline renders as a separate track per thread and
  // per-tid end-timestamp monotonicity still holds within each track.
  constexpr uint32_t kContextTidBase = 1000;
  std::vector<uint32_t> labeled;
  for (const auto& e : context_events) {
    const uint32_t tid = kContextTidBase + e.tid;
    if (std::find(labeled.begin(), labeled.end(), tid) == labeled.end()) {
      labeled.push_back(tid);
      append(StrFormat(
          "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
          "\"args\":{\"name\":\"requests:%s\"}}",
          tid, e.thread_label.c_str()));
    }
    append(StrFormat(
        "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
        "\"ts\":%llu,\"dur\":%llu,\"args\":{\"trace\":\"%s\",\"span\":\"%s\","
        "\"parent\":\"%s\"}}",
        e.name, tid, static_cast<unsigned long long>(e.begin_us),
        static_cast<unsigned long long>(e.dur_us),
        e.context.trace_id.c_str(), e.context.span_id.c_str(),
        e.context.parent_id.c_str()));
  }
  out += "]}";
  return out;
}

std::vector<SpanStats> AggregateSpans() {
  const std::vector<TraceEventData> events = CollectTraceEvents();
  std::map<std::string, std::vector<uint64_t>> durations;
  for (const auto& e : events) durations[e.name].push_back(e.dur_us);
  for (const auto& e : CollectContextSpans()) {
    durations[e.name].push_back(e.dur_us);
  }

  std::vector<SpanStats> stats;
  for (auto& [name, durs] : durations) {
    std::sort(durs.begin(), durs.end());
    SpanStats s;
    s.name = name;
    s.count = durs.size();
    uint64_t total = 0;
    for (uint64_t d : durs) total += d;
    s.total_ms = static_cast<double>(total) / 1000.0;
    auto quantile = [&](double q) {
      const size_t index = std::min(
          durs.size() - 1,
          static_cast<size_t>(q * static_cast<double>(durs.size())));
      return static_cast<double>(durs[index]) / 1000.0;
    };
    s.p50_ms = quantile(0.50);
    s.p95_ms = quantile(0.95);
    s.max_ms = static_cast<double>(durs.back()) / 1000.0;
    stats.push_back(std::move(s));
  }
  std::sort(stats.begin(), stats.end(),
            [](const SpanStats& a, const SpanStats& b) {
              if (a.total_ms != b.total_ms) return a.total_ms > b.total_ms;
              return a.name < b.name;
            });
  return stats;
}

std::string FormatSpanReport() {
  const std::vector<SpanStats> stats = AggregateSpans();
  if (stats.empty()) return "no spans recorded\n";

  std::vector<std::vector<std::string>> rows;
  std::vector<std::pair<std::string, double>> bars;
  for (const auto& s : stats) {
    rows.push_back({s.name, StrFormat("%llu",
                                      static_cast<unsigned long long>(s.count)),
                    StrFormat("%.3f", s.total_ms), StrFormat("%.3f", s.p50_ms),
                    StrFormat("%.3f", s.p95_ms), StrFormat("%.3f", s.max_ms)});
    bars.emplace_back(s.name, s.total_ms);
  }
  std::string out = AsciiTable(
      {"span", "count", "total_ms", "p50_ms", "p95_ms", "max_ms"}, rows);
  out += AsciiBarChart(bars, "span total time (ms)");
  const uint64_t dropped = TraceDroppedEvents();
  if (dropped > 0) {
    out += StrFormat("(%llu events dropped at the per-thread capacity)\n",
                     static_cast<unsigned long long>(dropped));
  }
  return out;
}

}  // namespace mivid
