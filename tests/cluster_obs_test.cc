// Tests for fleet-wide observability: exact cross-process metrics
// aggregation (N worker snapshots merge bit-identically to the snapshot
// one process would have produced over the union of observations),
// distributed trace propagation through the coordinator (client-supplied
// ids on the passthrough path, coordinator-minted ids on scatter-gather),
// and the structured access/slow-query log schema.

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/coordinator.h"
#include "db/video_db.h"
#include "obs/access_log.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/metrics_wire.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "trafficsim/scenarios.h"

namespace mivid {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const char* name)
      : path_((fs::temp_directory_path() /
               (std::string(name) + "." + std::to_string(getpid())))
                  .string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

JsonValue Parse(const std::string& text) {
  Result<JsonValue> doc = ParseJson(text);
  EXPECT_TRUE(doc.ok()) << text;
  return doc.ok() ? std::move(doc).value() : JsonValue{};
}

bool IsOk(const JsonValue& doc) {
  const JsonValue* ok = doc.Find("ok");
  return ok != nullptr && ok->type == JsonValue::Type::kBool && ok->bool_value;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// Flips metrics/tracing on for one test and restores the previous state
/// (the binary may run several tests in one process).
class ScopedObsEnabled {
 public:
  ScopedObsEnabled() {
    EnableMetrics(true);
    EnableTracing(true);
    ResetTrace();
  }
  ~ScopedObsEnabled() {
    EnableMetrics(false);
    EnableTracing(false);
    ResetTrace();
  }
};

// ---------------------------------------------------------------------------
// Exact metrics aggregation

TEST(MetricsMergeTest, CountersAndGaugesSumExactly) {
  MetricsSnapshot a, b, c;
  a.counters["serve/requests"] = 7;
  b.counters["serve/requests"] = 11;
  c.counters["serve/requests"] = 5;
  b.counters["serve/rejected"] = 3;  // present in only one input
  a.gauges["serve/corpora_cached"] = 2.0;
  b.gauges["serve/corpora_cached"] = 1.0;
  c.gauges["serve/queue_depth"] = 4.0;

  const MetricsSnapshot fleet = MergeMetricsSnapshots({a, b, c});
  EXPECT_EQ(fleet.counters.at("serve/requests"), 23u);
  EXPECT_EQ(fleet.counters.at("serve/rejected"), 3u);
  EXPECT_EQ(fleet.gauges.at("serve/corpora_cached"), 3.0);
  EXPECT_EQ(fleet.gauges.at("serve/queue_depth"), 4.0);
}

TEST(MetricsMergeTest, HistogramMergeMatchesSingleProcessBitExactly) {
  ScopedObsEnabled obs;

  // Dyadic values (k/1024) keep every partial sum exact in a double, so
  // "bit-identical" is a meaningful assertion on `sum` as well.
  std::vector<double> values;
  for (int i = 1; i <= 300; ++i) {
    values.push_back(static_cast<double>(i * 13 % 997) / 1024.0);
  }

  // One process observing everything...
  Histogram all;
  for (double v : values) all.Observe(v);

  // ...vs three workers each observing a partition.
  Histogram parts[3];
  for (size_t i = 0; i < values.size(); ++i) {
    parts[i % 3].Observe(values[i]);
  }
  std::vector<MetricsSnapshot> snapshots(3);
  for (int i = 0; i < 3; ++i) {
    snapshots[i].histograms["serve/request_seconds"] = parts[i].Stats();
  }

  const MetricsSnapshot fleet = MergeMetricsSnapshots(snapshots);
  const HistogramStats& merged = fleet.histograms.at("serve/request_seconds");
  const HistogramStats single = all.Stats();

  EXPECT_EQ(merged.count, single.count);
  EXPECT_EQ(merged.min, single.min);
  EXPECT_EQ(merged.max, single.max);
  EXPECT_EQ(merged.sum, single.sum);
  ASSERT_EQ(merged.buckets.size(), single.buckets.size());
  for (size_t i = 0; i < merged.buckets.size(); ++i) {
    EXPECT_EQ(merged.buckets[i], single.buckets[i]) << "bucket " << i;
  }
  // Percentiles go through the same interpolation either way.
  EXPECT_EQ(merged.p50, single.p50);
  EXPECT_EQ(merged.p95, single.p95);
  EXPECT_EQ(merged.p99, single.p99);

  // The strongest form: identical wire serialization.
  MetricsSnapshot single_snap;
  single_snap.histograms["serve/request_seconds"] = single;
  EXPECT_EQ(MetricsSnapshotToWireJson(fleet),
            MetricsSnapshotToWireJson(single_snap));
}

TEST(MetricsMergeTest, WireRoundTripIsLossless) {
  ScopedObsEnabled obs;
  Histogram h;
  for (int i = 1; i <= 50; ++i) h.Observe(static_cast<double>(i) / 256.0);

  MetricsSnapshot snap;
  snap.counters["serve/requests"] = 42;
  snap.counters["cluster/scatter"] = 7;
  snap.gauges["serve/queue_depth"] = 3.0;
  snap.histograms["serve/rank_seconds"] = h.Stats();

  const std::string wire = MetricsSnapshotToWireJson(snap);
  Result<MetricsSnapshot> parsed = MetricsSnapshotFromWireJson(Parse(wire));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(MetricsSnapshotToWireJson(parsed.value()), wire);
}

TEST(MetricsMergeTest, MergeOfOneSnapshotIsIdentity) {
  ScopedObsEnabled obs;
  Histogram h;
  h.Observe(0.25);
  h.Observe(0.5);
  MetricsSnapshot snap;
  snap.counters["x"] = 9;
  snap.histograms["h"] = h.Stats();
  EXPECT_EQ(MetricsSnapshotToWireJson(MergeMetricsSnapshots({snap})),
            MetricsSnapshotToWireJson(snap));
}

// ---------------------------------------------------------------------------
// Access log

TEST(AccessLogTest, FormatRoundTripsThroughJsonParser) {
  AccessRecord record;
  record.role = "coordinator";
  record.node = "coord";
  record.cmd = "rank";
  record.session = "s\"1";  // exercises escaping
  record.engine = "milrf";
  record.status = "OK";
  record.trace_id = "00f00dcafe0000ff";
  record.cameras = {"cam0", "cam1"};
  record.bytes_in = 64;
  record.bytes_out = 4096;
  record.total_ms = 12.5;
  record.audit.queue_ms = 0.25;
  record.audit.corpus_ms = 1.5;
  record.audit.rank_ms = 8.0;
  record.audit.fanout_ms = 9.5;
  record.audit.merge_ms = 2.0;
  record.audit.serialize_ms = 0.75;
  record.audit.journal_ms = 0.125;
  record.audit.snapshot_hit = true;

  const JsonValue doc = Parse(FormatAccessRecord(record, 1754600000123, true));
  EXPECT_EQ(doc.Find("ts_ms")->number, 1754600000123.0);
  EXPECT_EQ(doc.Find("role")->string, "coordinator");
  EXPECT_EQ(doc.Find("node")->string, "coord");
  EXPECT_EQ(doc.Find("cmd")->string, "rank");
  EXPECT_EQ(doc.Find("session")->string, "s\"1");
  EXPECT_EQ(doc.Find("engine")->string, "milrf");
  EXPECT_EQ(doc.Find("status")->string, "OK");
  EXPECT_EQ(doc.Find("trace")->string, "00f00dcafe0000ff");
  const JsonValue* cameras = doc.Find("cameras");
  ASSERT_TRUE(cameras != nullptr && cameras->is_array());
  ASSERT_EQ(cameras->array.size(), 2u);
  EXPECT_EQ(cameras->array[0].string, "cam0");
  EXPECT_EQ(cameras->array[1].string, "cam1");
  EXPECT_EQ(doc.Find("bytes_in")->number, 64.0);
  EXPECT_EQ(doc.Find("bytes_out")->number, 4096.0);
  EXPECT_EQ(doc.Find("total_ms")->number, 12.5);
  EXPECT_EQ(doc.Find("queue_ms")->number, 0.25);
  EXPECT_EQ(doc.Find("corpus_ms")->number, 1.5);
  EXPECT_EQ(doc.Find("rank_ms")->number, 8.0);
  EXPECT_EQ(doc.Find("fanout_ms")->number, 9.5);
  EXPECT_EQ(doc.Find("merge_ms")->number, 2.0);
  EXPECT_EQ(doc.Find("serialize_ms")->number, 0.75);
  EXPECT_EQ(doc.Find("journal_ms")->number, 0.125);
  EXPECT_TRUE(doc.Find("snapshot_hit")->bool_value);
  EXPECT_TRUE(doc.Find("slow")->bool_value);
}

TEST(AccessLogTest, SlowRequestsMirrorToSlowLog) {
  TempDir dir("mivid_access_log_test");
  AccessLog log;
  AccessLog::Options options;
  options.path = dir.path() + "/access.log";
  options.slow_path = dir.path() + "/slow.log";
  options.slow_threshold_ms = 10.0;
  ASSERT_TRUE(log.Open(options).ok());
  EXPECT_TRUE(log.enabled());
  EXPECT_EQ(log.slow_threshold_ms(), 10.0);

  AccessRecord fast;
  fast.cmd = "ping";
  fast.total_ms = 1.0;
  AccessRecord slow;
  slow.cmd = "rank";
  slow.total_ms = 50.0;
  log.Write(fast);
  log.Write(slow);
  log.Close();

  const auto access = ReadLines(options.path);
  ASSERT_EQ(access.size(), 2u);
  EXPECT_FALSE(Parse(access[0]).Find("slow")->bool_value);
  EXPECT_TRUE(Parse(access[1]).Find("slow")->bool_value);

  const auto slow_lines = ReadLines(options.slow_path);
  ASSERT_EQ(slow_lines.size(), 1u);
  const JsonValue entry = Parse(slow_lines[0]);
  EXPECT_EQ(entry.Find("cmd")->string, "rank");
  EXPECT_TRUE(entry.Find("slow")->bool_value);
}

TEST(AccessLogTest, RotationKeepsEveryLineWellFormed) {
  TempDir dir("mivid_access_rotate_test");
  AccessLog log;
  AccessLog::Options options;
  options.path = dir.path() + "/access.log";
  options.slow_threshold_ms = 1e9;  // nothing is slow
  options.rotate_bytes = 1000;      // a couple of lines per file
  ASSERT_TRUE(log.Open(options).ok());

  AccessRecord record;
  record.cmd = "rank";
  record.session = "rotate";
  for (int i = 0; i < 20; ++i) {
    record.total_ms = static_cast<double>(i);
    log.Write(record);
  }
  log.Close();

  ASSERT_TRUE(fs::exists(options.path + ".1"));
  size_t total = 0;
  for (const std::string& path : {options.path, options.path + ".1"}) {
    for (const std::string& line : ReadLines(path)) {
      const JsonValue doc = Parse(line);
      EXPECT_EQ(doc.Find("cmd")->string, "rank");
      ++total;
    }
  }
  // Rotation replaces ".1", so the two files bound retention — between
  // them every retained line is intact (no torn lines at the boundary).
  EXPECT_GT(total, 2u);
  EXPECT_LE(total, 20u);
}

TEST(AccessLogTest, SlowThresholdResolvesFromEnvironment) {
  ::setenv("MIVID_SLOW_QUERY_MS", "25", 1);
  EXPECT_EQ(AccessLog::SlowThresholdFromEnv(500.0), 25.0);
  ::setenv("MIVID_SLOW_QUERY_MS", "garbage", 1);
  EXPECT_EQ(AccessLog::SlowThresholdFromEnv(500.0), 500.0);
  ::unsetenv("MIVID_SLOW_QUERY_MS");
  EXPECT_EQ(AccessLog::SlowThresholdFromEnv(500.0), 500.0);

  // An explicit non-negative option beats the environment.
  ::setenv("MIVID_SLOW_QUERY_MS", "25", 1);
  TempDir dir("mivid_access_env_test");
  AccessLog log;
  AccessLog::Options options;
  options.path = dir.path() + "/access.log";
  options.slow_threshold_ms = 75.0;
  ASSERT_TRUE(log.Open(options).ok());
  EXPECT_EQ(log.slow_threshold_ms(), 75.0);
  log.Close();
  ::unsetenv("MIVID_SLOW_QUERY_MS");
}

TEST(AccessLogTest, AuditPhaseTimerIsInertWithoutScope) {
  // No RequestAuditScope installed: the timer must not touch anything.
  EXPECT_EQ(CurrentRequestAudit(), nullptr);
  { AuditPhaseTimer timer(&RequestAudit::rank_ms); }

  RequestAudit audit;
  {
    RequestAuditScope scope(&audit);
    ASSERT_EQ(CurrentRequestAudit(), &audit);
    AuditPhaseTimer timer(&RequestAudit::rank_ms);
  }
  EXPECT_EQ(CurrentRequestAudit(), nullptr);
  EXPECT_GE(audit.rank_ms, 0.0);
}

// ---------------------------------------------------------------------------
// Worker access log end to end

TEST(ServerAccessLogTest, HandleLineWritesSchemaCompleteEntries) {
  TempDir dir("mivid_serve_access_test");
  VideoDbOptions db_options;
  db_options.create_if_missing = true;
  auto opened = VideoDb::Open(dir.path() + "/db", db_options);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<VideoDb> db = std::move(opened).value();
  {
    TunnelScenarioOptions scenario_options;
    scenario_options.total_frames = 700;
    scenario_options.num_wall_crashes = 1;
    scenario_options.num_sudden_stops = 1;
    scenario_options.num_speeding = 0;
    scenario_options.num_uturns = 0;
    const ScenarioSpec scenario = MakeTunnelScenario(scenario_options);
    TrafficWorld world(scenario);
    const GroundTruth gt = world.Run();
    ClipInfo info;
    info.camera_id = "cam0";
    info.total_frames = scenario.total_frames;
    ASSERT_TRUE(db->IngestClip(info, gt.tracks, gt.incidents).ok());
  }

  ServeOptions options;
  options.worker_id = "w9";
  options.access_log_path = dir.path() + "/access.log";
  options.slow_log_path = dir.path() + "/slow.log";
  options.slow_threshold_ms = 0.0;  // every request is "slow"
  RetrievalServer server(db.get(), options);

  ASSERT_TRUE(IsOk(Parse(server.HandleLine(
      R"({"cmd":"open","session":"al1","camera":"cam0"})"))));
  ASSERT_TRUE(IsOk(Parse(server.HandleLine(
      R"({"cmd":"rank","session":"al1","top":5})"))));
  // A failing request must log its wire error code.
  EXPECT_FALSE(IsOk(Parse(server.HandleLine(
      R"({"cmd":"rank","session":"nosuch"})"))));
  ASSERT_TRUE(IsOk(Parse(server.HandleLine(
      R"({"cmd":"close","session":"al1","discard":true})"))));

  const auto lines = ReadLines(options.access_log_path);
  ASSERT_EQ(lines.size(), 4u);
  const JsonValue rank = Parse(lines[1]);
  EXPECT_EQ(rank.Find("role")->string, "worker");
  EXPECT_EQ(rank.Find("node")->string, "w9");
  EXPECT_EQ(rank.Find("cmd")->string, "rank");
  EXPECT_EQ(rank.Find("session")->string, "al1");
  EXPECT_EQ(rank.Find("status")->string, "OK");
  ASSERT_TRUE(rank.Find("cameras")->is_array());
  ASSERT_EQ(rank.Find("cameras")->array.size(), 1u);
  EXPECT_EQ(rank.Find("cameras")->array[0].string, "cam0");
  EXPECT_GT(rank.Find("bytes_in")->number, 0.0);
  EXPECT_GT(rank.Find("bytes_out")->number, 0.0);
  EXPECT_GE(rank.Find("total_ms")->number,
            rank.Find("rank_ms")->number);
  EXPECT_TRUE(rank.Find("slow")->bool_value);

  const JsonValue failed = Parse(lines[2]);
  EXPECT_EQ(failed.Find("status")->string, "NOT_FOUND");

  // Threshold 0 mirrors everything to the slow log.
  EXPECT_EQ(ReadLines(options.slow_log_path).size(), 4u);
}

// ---------------------------------------------------------------------------
// Distributed trace propagation through a real fleet (loopback TCP).

struct ObsFleetEnv {
  TempDir dir{"mivid_cluster_obs_test"};
  std::unique_ptr<VideoDb> db;
};

ObsFleetEnv& FleetEnv() {
  static ObsFleetEnv* env = [] {
    auto* e = new ObsFleetEnv();
    VideoDbOptions options;
    options.create_if_missing = true;
    auto opened = VideoDb::Open(e->dir.path() + "/db", options);
    if (!opened.ok()) std::abort();
    e->db = std::move(opened).value();
    for (int i = 0; i < 2; ++i) {
      TunnelScenarioOptions scenario_options;
      scenario_options.total_frames = 700;
      scenario_options.num_wall_crashes = 1;
      scenario_options.num_sudden_stops = 1;
      scenario_options.num_speeding = 0;
      scenario_options.num_uturns = 0;
      const ScenarioSpec scenario = MakeTunnelScenario(scenario_options);
      TrafficWorld world(scenario);
      const GroundTruth gt = world.Run();
      ClipInfo info;
      info.camera_id = "cam" + std::to_string(i);
      info.total_frames = scenario.total_frames;
      if (!e->db->IngestClip(info, gt.tracks, gt.incidents).ok()) std::abort();
    }
    return e;
  }();
  return *env;
}

struct ObsFleet {
  std::vector<std::unique_ptr<RetrievalServer>> workers;
  std::vector<std::string> endpoints;
  std::unique_ptr<Coordinator> coord;

  explicit ObsFleet(const std::string& coord_access_log = "") {
    for (int i = 0; i < 2; ++i) {
      ServeOptions options;
      options.tcp_port = 0;
      options.worker_id = "w" + std::to_string(i);
      auto server =
          std::make_unique<RetrievalServer>(FleetEnv().db.get(), options);
      if (!server->Start().ok()) std::abort();
      endpoints.push_back("127.0.0.1:" + std::to_string(server->tcp_port()));
      workers.push_back(std::move(server));
    }
    CoordinatorOptions options;
    options.tcp_port = 0;
    options.workers = endpoints;
    options.access_log_path = coord_access_log;
    options.slow_threshold_ms = coord_access_log.empty() ? -1.0 : 1e9;
    coord = std::make_unique<Coordinator>(options);
    if (!coord->Start().ok()) std::abort();
  }

  ~ObsFleet() {
    coord->Stop();
    for (auto& worker : workers) worker->Stop();
  }

  std::string Call(const std::string& line) { return coord->HandleLine(line); }
};

/// Context spans of one trace, keyed by span name.
std::vector<ContextSpanData> SpansOfTrace(const std::string& trace_id) {
  std::vector<ContextSpanData> out;
  for (const ContextSpanData& span : CollectContextSpans()) {
    if (span.context.trace_id == trace_id) out.push_back(span);
  }
  return out;
}

const ContextSpanData* FindSpan(const std::vector<ContextSpanData>& spans,
                                const std::string& name) {
  for (const ContextSpanData& span : spans) {
    if (span.name != nullptr && name == span.name) return &span;
  }
  return nullptr;
}

TEST(ClusterTraceTest, ClientTraceIdPropagatesThroughPassthrough) {
  ScopedObsEnabled obs;
  ObsFleet fleet;
  ASSERT_TRUE(IsOk(Parse(fleet.Call(
      R"({"cmd":"open","session":"tr1","camera":"cam0"})"))));

  ResetTrace();
  const std::string trace_id = "00000000deadbeef";
  ASSERT_TRUE(IsOk(Parse(fleet.Call(
      R"({"cmd":"rank","session":"tr1","top":3,)"
      R"("trace":"00000000deadbeef","span":"0000000000000abc"})"))));

  // Workers run in-process here, so one CollectContextSpans() sees both
  // sides of the wire. The coordinator span joins the client's trace
  // under the client's span. The relay is byte-identical passthrough —
  // the client already stamped a context, so the worker (reached over a
  // real TCP hop) sees the client's span as its parent too.
  const auto spans = SpansOfTrace(trace_id);
  const ContextSpanData* coord_rank = FindSpan(spans, "coord/rank");
  ASSERT_NE(coord_rank, nullptr);
  EXPECT_EQ(coord_rank->context.parent_id, "0000000000000abc");
  const ContextSpanData* worker_rank = FindSpan(spans, "serve/rank");
  ASSERT_NE(worker_rank, nullptr);
  EXPECT_EQ(worker_rank->context.parent_id, "0000000000000abc");

  ASSERT_TRUE(IsOk(Parse(
      fleet.Call(R"({"cmd":"close","session":"tr1","discard":true})"))));
}

TEST(ClusterTraceTest, ScatterGatherSharesOneCoordinatorMintedTrace) {
  ScopedObsEnabled obs;
  TempDir dir("mivid_coord_access_test");
  const std::string coord_log = dir.path() + "/coord.access.log";
  ObsFleet fleet(coord_log);
  ASSERT_TRUE(IsOk(Parse(fleet.Call(
      R"({"cmd":"open","session":"tr2","cameras":["cam0","cam1"]})"))));

  ResetTrace();
  ASSERT_TRUE(IsOk(Parse(
      fleet.Call(R"({"cmd":"rank","session":"tr2","top":4})"))));

  // The rank carried no client trace, so the coordinator roots one.
  const auto all = CollectContextSpans();
  const ContextSpanData* root = FindSpan(all, "coord/rank");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->context.parent_id, "");
  EXPECT_EQ(root->context.trace_id.size(), 16u);

  const auto spans = SpansOfTrace(root->context.trace_id);
  const ContextSpanData* scatter = FindSpan(spans, "coord/scatter");
  ASSERT_NE(scatter, nullptr);
  EXPECT_EQ(scatter->context.parent_id, root->context.span_id);

  // Every per-camera worker rank parents under the scatter span and
  // shares the root's trace id.
  int worker_ranks = 0;
  for (const ContextSpanData& span : spans) {
    if (span.name != nullptr && std::string(span.name) == "serve/rank") {
      EXPECT_EQ(span.context.parent_id, scatter->context.span_id);
      ++worker_ranks;
    }
  }
  EXPECT_EQ(worker_ranks, 2);

  // The k-way merge is traced as a sibling of the scatter.
  const ContextSpanData* merge = FindSpan(spans, "coord/merge");
  ASSERT_NE(merge, nullptr);
  EXPECT_EQ(merge->context.parent_id, root->context.span_id);

  ASSERT_TRUE(IsOk(Parse(
      fleet.Call(R"({"cmd":"close","session":"tr2","discard":true})"))));

  // The coordinator access log carries the same trace id and the full
  // camera fan-out for the rank.
  const JsonValue* rank_entry = nullptr;
  std::vector<JsonValue> docs;
  for (const std::string& line : ReadLines(coord_log)) {
    docs.push_back(Parse(line));
  }
  for (const JsonValue& doc : docs) {
    if (doc.Find("cmd")->string == "rank") rank_entry = &doc;
  }
  ASSERT_NE(rank_entry, nullptr);
  EXPECT_EQ(rank_entry->Find("role")->string, "coordinator");
  EXPECT_EQ(rank_entry->Find("trace")->string, root->context.trace_id);
  EXPECT_EQ(rank_entry->Find("cameras")->array.size(), 2u);
  EXPECT_GE(rank_entry->Find("merge_ms")->number, 0.0);
}

TEST(ClusterAccessLogTest, MultiCameraRankAttributesFanout) {
  // The scatter-gather to the workers is the bulk of a multi-camera rank;
  // the coordinator's line must time it, inside the request's total.
  TempDir dir("mivid_coord_fanout_test");
  const std::string coord_log = dir.path() + "/coord.access.log";
  ObsFleet fleet(coord_log);
  ASSERT_TRUE(IsOk(Parse(fleet.Call(
      R"({"cmd":"open","session":"fo1","cameras":["cam0","cam1"]})"))));
  ASSERT_TRUE(IsOk(Parse(
      fleet.Call(R"({"cmd":"rank","session":"fo1","top":4})"))));
  ASSERT_TRUE(IsOk(Parse(
      fleet.Call(R"({"cmd":"close","session":"fo1","discard":true})"))));

  int ranks = 0;
  for (const std::string& line : ReadLines(coord_log)) {
    const JsonValue doc = Parse(line);
    if (doc.Find("cmd")->string != "rank") continue;
    ++ranks;
    EXPECT_EQ(doc.Find("cameras")->array.size(), 2u);
    const double fanout = doc.Find("fanout_ms")->number;
    EXPECT_GT(fanout, 0.0);
    EXPECT_LE(fanout, doc.Find("total_ms")->number);
  }
  EXPECT_EQ(ranks, 1);
}

TEST(ClusterTraceTest, TracingDisabledLeavesRequestsUnstamped) {
  // Tracing off: no spans recorded, responses still fine, and the wire
  // lines the coordinator relays carry no trace fields (verified via the
  // stamping primitive directly plus an end-to-end call).
  ObsFleet fleet;
  ResetTrace();
  ASSERT_TRUE(IsOk(Parse(fleet.Call(
      R"({"cmd":"open","session":"tr3","camera":"cam1"})"))));
  ASSERT_TRUE(IsOk(Parse(
      fleet.Call(R"({"cmd":"rank","session":"tr3","top":2})"))));
  EXPECT_TRUE(CollectContextSpans().empty());
  ASSERT_TRUE(IsOk(Parse(
      fleet.Call(R"({"cmd":"close","session":"tr3","discard":true})"))));
}

TEST(ClusterTraceTest, StampTraceContextPreservesTheLine) {
  const std::string line = R"({"cmd":"rank","session":"s1","top":5})";
  const std::string stamped =
      StampTraceContext(line, "0123456789abcdef", "fedcba9876543210");
  Result<ServeRequest> parsed = ParseServeRequest(stamped);
  ASSERT_TRUE(parsed.ok()) << stamped;
  EXPECT_EQ(parsed.value().trace_id, "0123456789abcdef");
  EXPECT_EQ(parsed.value().parent_span, "fedcba9876543210");
  EXPECT_EQ(parsed.value().session_id, "s1");
  EXPECT_EQ(parsed.value().top, 5);
}

}  // namespace
}  // namespace mivid
