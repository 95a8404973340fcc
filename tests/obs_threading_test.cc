// Concurrency tests for the observability subsystem: exact counting from
// concurrent threads, snapshot-under-load, concurrent tracing, and
// log-line atomicity. Lives in mivid_threading_tests so CI also runs it
// under TSan.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/access_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mivid {
namespace {

/// Runs `body(i)` for every i in [0, items) split across `kWriters`
/// threads, each taking a contiguous slice.
template <typename Body>
void RunOnThreads(size_t items, const Body& body) {
  constexpr size_t kWriters = 4;
  std::vector<std::thread> threads;
  threads.reserve(kWriters);
  for (size_t t = 0; t < kWriters; ++t) {
    threads.emplace_back([&body, items, t] {
      for (size_t i = items * t / kWriters; i < items * (t + 1) / kWriters;
           ++i) {
        body(i);
      }
    });
  }
  for (auto& thread : threads) thread.join();
}

class ObsThreadingTest : public ::testing::Test {
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

TEST_F(ObsThreadingTest, ConcurrentCounterIncrementsSumExactly) {
  Counter& c = MetricsRegistry::Global().GetCounter("thr/counter");
  constexpr size_t kItems = 100000;
  RunOnThreads(kItems, [&](size_t) { c.Increment(); });
  EXPECT_EQ(c.Value(), kItems);
}

TEST_F(ObsThreadingTest, ConcurrentHistogramObservesCountExactly) {
  Histogram& h = MetricsRegistry::Global().GetHistogram("thr/hist");
  constexpr size_t kItems = 50000;
  RunOnThreads(kItems, [&](size_t i) {
    h.Observe(1e-3 * static_cast<double>(i % 100 + 1));
  });
  const HistogramStats stats = h.Stats();
  EXPECT_EQ(stats.count, kItems);
  EXPECT_DOUBLE_EQ(stats.min, 1e-3);
  EXPECT_DOUBLE_EQ(stats.max, 0.1);
}

TEST_F(ObsThreadingTest, SnapshotUnderLoadIsConsistent) {
  Counter& c = MetricsRegistry::Global().GetCounter("thr/load_counter");
  Histogram& h = MetricsRegistry::Global().GetHistogram("thr/load_hist");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      c.Increment();
      h.Observe(0.01);
    }
  });
  // Snapshots taken while a writer is running must stay internally sane:
  // monotone counter reads, histogram count never exceeding a later read.
  uint64_t last_count = 0;
  for (int i = 0; i < 100; ++i) {
    const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
    const uint64_t count = snapshot.counters.at("thr/load_counter");
    EXPECT_GE(count, last_count);
    last_count = count;
    const HistogramStats stats = snapshot.histograms.at("thr/load_hist");
    if (stats.count > 0) {
      EXPECT_DOUBLE_EQ(stats.min, 0.01);
      EXPECT_DOUBLE_EQ(stats.max, 0.01);
    }
  }
  stop.store(true);
  writer.join();
}

TEST_F(ObsThreadingTest, ConcurrentSpansAllRetained) {
  constexpr size_t kItems = 2000;
  RunOnThreads(kItems, [](size_t) { MIVID_TRACE_SPAN("thr/span"); });
  const std::vector<TraceEventData> events = CollectTraceEvents();
  size_t ours = 0;
  for (const TraceEventData& e : events) {
    if (std::string(e.name) == "thr/span") ++ours;
  }
  EXPECT_EQ(ours + TraceDroppedEvents(), kItems);
}

TEST_F(ObsThreadingTest, CollectWhileRecordingIsSafe) {
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      MIVID_TRACE_SPAN("thr/live");
    }
  });
  for (int i = 0; i < 50; ++i) {
    const std::vector<TraceEventData> events = CollectTraceEvents();
    for (size_t j = 1; j < events.size(); ++j) {
      if (events[j].tid != events[j - 1].tid) continue;
      EXPECT_GE(events[j].begin_us + events[j].dur_us,
                events[j - 1].begin_us + events[j - 1].dur_us);
    }
  }
  stop.store(true);
  writer.join();
}

TEST(ThreadPoolIndexTest, WorkerIndexVisibleInsidePoolOnly) {
  EXPECT_EQ(ThreadPool::CurrentWorkerIndex(), -1);
  constexpr int kTasks = 1000;
  std::atomic<int> in_range{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&in_range] {
        const int idx = ThreadPool::CurrentWorkerIndex();
        if (idx >= 0 && idx < 4) in_range.fetch_add(1);
      });
    }
  }  // the destructor drains the queue
  EXPECT_EQ(in_range.load(), kTasks);
  EXPECT_EQ(ThreadPool::CurrentWorkerIndex(), -1);
}

TEST(LogThreadingTest, ConcurrentLogLinesDoNotInterleave) {
  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kWarn);
  ::testing::internal::CaptureStderr();
  constexpr int kThreads = 4;
  constexpr int kLines = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kLines; ++i) {
        MIVID_LOG(Warn) << "BEGIN t" << t << " line " << i << " END";
      }
    });
  }
  for (auto& t : threads) t.join();
  const std::string captured = ::testing::internal::GetCapturedStderr();
  SetLogLevel(saved);

  // Every emitted line must be intact: exactly one BEGIN and one END, in
  // that order. Interleaved writes would split or merge the markers.
  size_t lines = 0;
  size_t pos = 0;
  while (pos < captured.size()) {
    size_t eol = captured.find('\n', pos);
    if (eol == std::string::npos) eol = captured.size();
    const std::string line = captured.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    ++lines;
    const size_t begin = line.find("BEGIN");
    const size_t end = line.rfind("END");
    ASSERT_NE(begin, std::string::npos) << line;
    ASSERT_NE(end, std::string::npos) << line;
    EXPECT_EQ(line.find("BEGIN", begin + 1), std::string::npos) << line;
    EXPECT_EQ(line.find("END"), end) << line;
  }
  EXPECT_EQ(lines, static_cast<size_t>(kThreads * kLines));
}

TEST(AccessLogThreadingTest, ConcurrentWritesNeverTearLines) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() /
       ("mivid_access_tsan." + std::to_string(getpid())))
          .string();
  fs::remove_all(dir);
  fs::create_directories(dir);

  AccessLog log;
  AccessLog::Options options;
  options.path = dir + "/access.log";
  options.slow_path = dir + "/slow.log";
  options.slow_threshold_ms = 5.0;  // half the writes are slow
  ASSERT_TRUE(log.Open(options).ok());

  constexpr int kThreads = 8;
  constexpr int kWrites = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      // Each writer also installs its own audit scope: phase timers on
      // one thread must never bleed into another's record.
      RequestAudit audit;
      RequestAuditScope scope(&audit);
      AccessRecord record;
      record.role = "worker";
      record.node = "w" + std::to_string(t);
      record.cmd = "rank";
      record.session = "tsan" + std::to_string(t);
      record.status = "OK";
      record.cameras = {"cam0"};
      for (int i = 0; i < kWrites; ++i) {
        AuditPhaseTimer timer(&RequestAudit::rank_ms);
        record.total_ms = (i % 2) ? 10.0 : 1.0;
        log.Write(record);
      }
    });
  }
  for (auto& t : threads) t.join();
  log.Close();

  // Every line is intact JSON-shaped output: starts with the ts_ms key,
  // ends with the slow flag, and contains exactly one opening brace.
  auto check_file = [](const std::string& path, size_t expected) {
    std::ifstream in(path);
    std::string line;
    size_t count = 0;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      ++count;
      EXPECT_EQ(line.compare(0, 9, "{\"ts_ms\":"), 0) << line;
      EXPECT_TRUE(line.find("\"slow\":") != std::string::npos) << line;
      EXPECT_EQ(line.back(), '}') << line;
      EXPECT_EQ(std::count(line.begin(), line.end(), '{'), 1) << line;
    }
    EXPECT_EQ(count, expected) << path;
  };
  check_file(options.path, static_cast<size_t>(kThreads * kWrites));
  check_file(options.slow_path, static_cast<size_t>(kThreads * kWrites / 2));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mivid
