// Observability subsystem: metric semantics, JSON export and parsing,
// trace export, logging macros.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mivid {
namespace {

/// Every test starts from a clean, enabled registry and leaves the
/// subsystem disabled so unrelated tests pay the off-path only.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().Reset();
    ResetTrace();
    EnableMetrics(true);
    EnableTracing(true);
  }
  void TearDown() override {
    EnableMetrics(false);
    EnableTracing(false);
    MetricsRegistry::Global().Reset();
    ResetTrace();
  }
};

TEST_F(ObsTest, CounterIncrementsAndResets) {
  Counter& c = MetricsRegistry::Global().GetCounter("test/counter");
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST_F(ObsTest, GaugeLastWriteWins) {
  Gauge& g = MetricsRegistry::Global().GetGauge("test/gauge");
  g.Set(1.5);
  g.Set(-2.25);
  EXPECT_DOUBLE_EQ(g.Value(), -2.25);
}

TEST_F(ObsTest, RegistryReturnsSameMetricForSameName) {
  Counter& a = MetricsRegistry::Global().GetCounter("test/same");
  Counter& b = MetricsRegistry::Global().GetCounter("test/same");
  EXPECT_EQ(&a, &b);
  a.Increment();
  EXPECT_EQ(b.Value(), 1u);
}

TEST_F(ObsTest, HistogramStatsAreExactForCountSumMinMax) {
  Histogram& h = MetricsRegistry::Global().GetHistogram("test/hist");
  const std::vector<double> values = {0.001, 0.002, 0.004, 0.1, 1.0};
  double sum = 0.0;
  for (double v : values) {
    h.Observe(v);
    sum += v;
  }
  const HistogramStats stats = h.Stats();
  EXPECT_EQ(stats.count, values.size());
  EXPECT_DOUBLE_EQ(stats.sum, sum);
  EXPECT_DOUBLE_EQ(stats.min, 0.001);
  EXPECT_DOUBLE_EQ(stats.max, 1.0);
  EXPECT_DOUBLE_EQ(stats.mean(), sum / static_cast<double>(values.size()));
  // Percentiles are interpolated within exponential buckets: they must be
  // monotone and inside [min, max].
  EXPECT_GE(stats.p50, stats.min);
  EXPECT_LE(stats.p50, stats.p95);
  EXPECT_LE(stats.p95, stats.p99);
  EXPECT_LE(stats.p99, stats.max);
}

TEST_F(ObsTest, HistogramSingleValuePercentilesCollapse) {
  Histogram& h = MetricsRegistry::Global().GetHistogram("test/hist1");
  h.Observe(0.125);
  const HistogramStats stats = h.Stats();
  EXPECT_EQ(stats.count, 1u);
  // With one sample the interpolation clamps to [min, max] = [v, v].
  EXPECT_DOUBLE_EQ(stats.p50, 0.125);
  EXPECT_DOUBLE_EQ(stats.p99, 0.125);
}

TEST_F(ObsTest, DisabledMetricsAreNoOps) {
  EnableMetrics(false);
  Counter& c = MetricsRegistry::Global().GetCounter("test/off");
  Histogram& h = MetricsRegistry::Global().GetHistogram("test/off_hist");
  Gauge& g = MetricsRegistry::Global().GetGauge("test/off_gauge");
  c.Increment(100);
  h.Observe(1.0);
  g.Set(3.0);
  EXPECT_EQ(c.Value(), 0u);
  EXPECT_EQ(h.Stats().count, 0u);
  EXPECT_DOUBLE_EQ(g.Value(), 0.0);
}

TEST_F(ObsTest, SnapshotContainsAllRegisteredMetrics) {
  MIVID_METRIC_COUNT("snap/counter", 3);
  MIVID_METRIC_GAUGE_SET("snap/gauge", 7.5);
  MIVID_METRIC_OBSERVE("snap/hist", 0.25);
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  ASSERT_TRUE(snapshot.counters.count("snap/counter"));
  EXPECT_EQ(snapshot.counters.at("snap/counter"), 3u);
  ASSERT_TRUE(snapshot.gauges.count("snap/gauge"));
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("snap/gauge"), 7.5);
  ASSERT_TRUE(snapshot.histograms.count("snap/hist"));
  EXPECT_EQ(snapshot.histograms.at("snap/hist").count, 1u);
}

TEST_F(ObsTest, ScopedTimerObservesElapsedSeconds) {
  {
    MIVID_SCOPED_TIMER("timer/test_seconds");
    // Any nonzero amount of work; the assertion is only count + sign.
    volatile double x = 0;
    for (int i = 0; i < 1000; ++i) x = x + i;
  }
  Histogram& h =
      MetricsRegistry::Global().GetHistogram("timer/test_seconds");
  const HistogramStats stats = h.Stats();
  EXPECT_EQ(stats.count, 1u);
  EXPECT_GE(stats.sum, 0.0);
}

TEST_F(ObsTest, MetricsJsonParsesAndContainsSections) {
  MIVID_METRIC_COUNT("json/counter", 5);
  MIVID_METRIC_OBSERVE("json/hist", 0.5);
  const std::string json = MetricsToJson();
  Result<JsonValue> doc = ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(doc->is_object());
  const JsonValue* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* counter = counters->Find("json/counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_DOUBLE_EQ(counter->number, 5.0);
  const JsonValue* hists = doc->Find("histograms");
  ASSERT_NE(hists, nullptr);
  const JsonValue* hist = hists->Find("json/hist");
  ASSERT_NE(hist, nullptr);
  ASSERT_NE(hist->Find("count"), nullptr);
  EXPECT_DOUBLE_EQ(hist->Find("count")->number, 1.0);
  ASSERT_NE(doc->Find("gauges"), nullptr);
  ASSERT_NE(doc->Find("spans"), nullptr);
}

TEST_F(ObsTest, TraceEventsRecordedAndOrdered) {
  for (int i = 0; i < 5; ++i) {
    MIVID_TRACE_SPAN("test/outer");
    MIVID_TRACE_SPAN("test/inner");
  }
  const std::vector<TraceEventData> events = CollectTraceEvents();
  ASSERT_EQ(events.size(), 10u);
  // Within one tid, events are recorded at span close, so end timestamps
  // must be monotonically non-decreasing.
  for (size_t i = 1; i < events.size(); ++i) {
    if (events[i].tid != events[i - 1].tid) continue;
    EXPECT_GE(events[i].begin_us + events[i].dur_us,
              events[i - 1].begin_us + events[i - 1].dur_us);
  }
  EXPECT_EQ(TraceDroppedEvents(), 0u);
}

TEST_F(ObsTest, TraceChromeJsonIsValid) {
  { MIVID_TRACE_SPAN("test/json_span"); }
  const std::string json = TraceToChromeJson();
  Result<JsonValue> doc = ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  bool found_span = false, found_meta = false;
  for (const JsonValue& e : events->array) {
    const JsonValue* ph = e.Find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "X") {
      const JsonValue* name = e.Find("name");
      ASSERT_NE(name, nullptr);
      if (name->string == "test/json_span") found_span = true;
      ASSERT_NE(e.Find("ts"), nullptr);
      ASSERT_NE(e.Find("dur"), nullptr);
      ASSERT_NE(e.Find("tid"), nullptr);
    } else if (ph->string == "M") {
      found_meta = true;
    }
  }
  EXPECT_TRUE(found_span);
  EXPECT_TRUE(found_meta);
}

TEST_F(ObsTest, AggregateSpansComputesCounts) {
  for (int i = 0; i < 3; ++i) {
    MIVID_TRACE_SPAN("test/agg");
  }
  const std::vector<SpanStats> stats = AggregateSpans();
  bool found = false;
  for (const SpanStats& s : stats) {
    if (s.name != "test/agg") continue;
    found = true;
    EXPECT_EQ(s.count, 3u);
    EXPECT_LE(s.p50_ms, s.p95_ms);
    EXPECT_LE(s.p95_ms, s.max_ms);
  }
  EXPECT_TRUE(found);
  EXPECT_FALSE(FormatSpanReport().empty());
}

TEST_F(ObsTest, DisabledTracingRecordsNothing) {
  EnableTracing(false);
  { MIVID_TRACE_SPAN("test/never"); }
  for (const TraceEventData& e : CollectTraceEvents()) {
    EXPECT_STRNE(e.name, "test/never");
  }
}

TEST(JsonParserTest, ParsesScalarsAndNesting) {
  Result<JsonValue> doc =
      ParseJson(R"({"a": 1.5, "b": [true, null, "x\n\"y\""], "c": {}})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_DOUBLE_EQ(doc->Find("a")->number, 1.5);
  const JsonValue* b = doc->Find("b");
  ASSERT_TRUE(b->is_array());
  ASSERT_EQ(b->array.size(), 3u);
  EXPECT_TRUE(b->array[0].bool_value);
  EXPECT_EQ(b->array[1].type, JsonValue::Type::kNull);
  EXPECT_EQ(b->array[2].string, "x\n\"y\"");
  EXPECT_TRUE(doc->Find("c")->is_object());
}

TEST(JsonParserTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1, 2,]").ok());
  EXPECT_FALSE(ParseJson("{} trailing").ok());
  EXPECT_FALSE(ParseJson("'single'").ok());
  EXPECT_FALSE(ParseJson("").ok());
}

// The number grammar of ParseDouble and of ParseJson, which hands it
// every number token. Every row keeps the strtod-based reader's answer
// except the subnormal rows: strtod reports ERANGE for a subnormal
// result, so that reader refused values its own %.17g writer emits.
TEST(JsonParserTest, NumberGrammarTable) {
  struct Row {
    const char* text;
    bool accepted;
    double value;
  };
  const Row kRows[] = {
      {"+1", true, 1.0},
      {"-0", true, -0.0},
      {"1.", true, 1.0},
      {"-.5", true, -0.5},
      {"00012", true, 12.0},
      {"1E5", true, 1e5},
      {"1e+5", true, 1e5},
      {" -1e3 ", true, -1e3},
      {"1e400", false, 0.0},
      {"1e-400", false, 0.0},
      {"1e", false, 0.0},
      {"-", false, 0.0},
      {"+-1", false, 0.0},
      {"1.5x", false, 0.0},
      {"", false, 0.0},
      // Subnormals: refused by the strtod reader.
      {"1e-310", true, 1e-310},
      {"4.9e-324", true, 4.9e-324},
      {"-2.2250738585072009e-308", true, -2.2250738585072009e-308},
  };
  auto bits = [](double v) {
    uint64_t b = 0;
    std::memcpy(&b, &v, sizeof(b));
    return b;
  };
  for (const Row& row : kRows) {
    SCOPED_TRACE(row.text);
    double v = 12345.0;
    EXPECT_EQ(ParseDouble(row.text, &v), row.accepted);
    if (row.accepted) {
      EXPECT_EQ(bits(v), bits(row.value));
    }
    if (row.text[0] == '\0') continue;  // "[]" is an array, not a number
    Result<JsonValue> doc = ParseJson(std::string("[") + row.text + "]");
    EXPECT_EQ(doc.ok(), row.accepted);
    if (doc.ok()) {
      EXPECT_EQ(bits(doc->array.at(0).number), bits(row.value));
    }
  }
}

TEST(JsonParserTest, EscapeRoundTrips) {
  const std::string raw = "tab\t quote\" backslash\\ newline\n";
  const std::string doc = "\"" + JsonEscape(raw) + "\"";
  Result<JsonValue> parsed = ParseJson(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->string, raw);
}

TEST(LoggingTest, EveryNTickFiresOnScheduledOccurrences) {
  std::atomic<uint64_t> counter{0};
  std::vector<int> fired;
  for (int i = 1; i <= 10; ++i) {
    if (internal::EveryNTick(&counter, 4)) fired.push_back(i);
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 5, 9}));
  std::atomic<uint64_t> always{0};
  EXPECT_TRUE(internal::EveryNTick(&always, 0));
  EXPECT_TRUE(internal::EveryNTick(&always, 1));
}

TEST(LoggingTest, LogEveryNEmitsFirstAndNth) {
  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kDebug);
  ::testing::internal::CaptureStderr();
  for (int i = 0; i < 7; ++i) {
    MIVID_LOG_EVERY_N(Warn, 3) << "tick " << i;
  }
  const std::string captured = ::testing::internal::GetCapturedStderr();
  SetLogLevel(saved);
  EXPECT_NE(captured.find("tick 0"), std::string::npos);
  EXPECT_EQ(captured.find("tick 1"), std::string::npos);
  EXPECT_EQ(captured.find("tick 2"), std::string::npos);
  EXPECT_NE(captured.find("tick 3"), std::string::npos);
  EXPECT_NE(captured.find("tick 6"), std::string::npos);
}

TEST(LoggingTest, ShouldLogRespectsThresholdExceptFatal) {
  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_FALSE(internal::ShouldLog(LogLevel::kInfo));
  EXPECT_TRUE(internal::ShouldLog(LogLevel::kError));
  EXPECT_TRUE(internal::ShouldLog(LogLevel::kFatal));
  SetLogLevel(LogLevel::kOff);
  EXPECT_FALSE(internal::ShouldLog(LogLevel::kError));
  EXPECT_TRUE(internal::ShouldLog(LogLevel::kFatal));
  SetLogLevel(saved);
}

TEST(LoggingDeathTest, FatalEmitsEvenAtLogLevelOff) {
  // The satellite fix under test: FATAL must report and abort even when
  // the threshold suppresses everything else.
  EXPECT_DEATH(
      {
        SetLogLevel(LogLevel::kOff);
        MIVID_LOG(Fatal) << "fatal boom";
      },
      "fatal boom");
}

TEST_F(ObsTest, FormatMetricsReportMentionsMetrics) {
  MIVID_METRIC_COUNT("report/counter", 2);
  { MIVID_TRACE_SPAN("report/span"); }
  const std::string report = FormatMetricsReport();
  EXPECT_NE(report.find("report/counter"), std::string::npos);
  EXPECT_NE(report.find("report/span"), std::string::npos);
}

}  // namespace
}  // namespace mivid
