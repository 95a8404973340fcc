// Validates the observability exports the pipeline binaries write with
// --metrics-json and --trace, so CI can assert the instrumentation stays
// wired end to end.
//
//   check_obs_outputs <metrics.json> <trace.json>
//       validate existing export files
//   check_obs_outputs --selftest
//       run a miniature end-to-end experiment in-process with metrics and
//       tracing enabled, export to a temp directory, then validate (this
//       mode is registered as the tier-1 ctest `obs_output_check`)
//   check_obs_outputs --stitched-trace <trace.json> [min_procs]
//       validate a stitched cluster trace (a trace-merge output or a
//       coordinator trace_dump response line): one trace id must span at
//       least min_procs distinct pids (default 2) under a covering root
//       span
//   check_obs_outputs --cluster-stats <stats.json>
//       validate a cluster_stats response line: the fleet rollup must be
//       the exact merge of the per-worker snapshots
//
// Validation rules:
//   metrics.json  parses; has counters/gauges/histograms/spans objects;
//                 counters are non-negative; histogram and span stats are
//                 internally consistent (count>0 => min<=p50<=p95<=max).
//   trace.json    parses; has a traceEvents array; every "X" event has
//                 name/ts/dur/tid; per-tid end timestamps are monotone.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "eval/experiment.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/metrics_wire.h"
#include "obs/trace.h"

using namespace mivid;

namespace {

int g_failures = 0;

void Fail(const std::string& message) {
  std::fprintf(stderr, "FAIL: %s\n", message.c_str());
  ++g_failures;
}

void Expect(bool condition, const std::string& message) {
  if (!condition) Fail(message);
}

Result<JsonValue> ParseFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError(StrFormat("cannot read %s", path.c_str()));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseJson(buffer.str());
}

/// `stats` must look like an exported histogram/span stats object:
/// required numeric fields present, quantiles ordered when count > 0.
void CheckStatsObject(const std::string& label, const JsonValue& stats,
                      const char* lo_key, const char* mid_key,
                      const char* hi_key) {
  const JsonValue* count = stats.Find("count");
  if (count == nullptr || !count->is_number()) {
    Fail(label + ": missing numeric count");
    return;
  }
  Expect(count->number >= 0, label + ": negative count");
  const JsonValue* lo = stats.Find(lo_key);
  const JsonValue* mid = stats.Find(mid_key);
  const JsonValue* hi = stats.Find(hi_key);
  if (lo == nullptr || mid == nullptr || hi == nullptr) {
    Fail(label + StrFormat(": missing %s/%s/%s", lo_key, mid_key, hi_key));
    return;
  }
  if (count->number > 0) {
    Expect(lo->number <= mid->number,
           label + StrFormat(": %s > %s", lo_key, mid_key));
    Expect(mid->number <= hi->number,
           label + StrFormat(": %s > %s", mid_key, hi_key));
  }
}

void CheckMetricsJson(const std::string& path) {
  Result<JsonValue> doc = ParseFile(path);
  if (!doc.ok()) {
    Fail("metrics: " + doc.status().ToString());
    return;
  }
  if (!doc->is_object()) {
    Fail("metrics: top level is not an object");
    return;
  }
  for (const char* section : {"counters", "gauges", "histograms", "spans"}) {
    const JsonValue* s = doc->Find(section);
    if (s == nullptr || !s->is_object()) {
      Fail(StrFormat("metrics: missing object section \"%s\"", section));
    }
  }
  if (const JsonValue* counters = doc->Find("counters")) {
    for (const auto& [name, value] : counters->object) {
      Expect(value.is_number() && value.number >= 0,
             "metrics: counter " + name + " is not a non-negative number");
    }
  }
  if (const JsonValue* hists = doc->Find("histograms")) {
    for (const auto& [name, stats] : hists->object) {
      if (!stats.is_object()) {
        Fail("metrics: histogram " + name + " is not an object");
        continue;
      }
      CheckStatsObject("metrics: histogram " + name, stats, "min", "p50",
                       "max");
      CheckStatsObject("metrics: histogram " + name, stats, "p50", "p95",
                       "p99");
    }
  }
  if (const JsonValue* spans = doc->Find("spans")) {
    for (const auto& [name, stats] : spans->object) {
      if (!stats.is_object()) {
        Fail("metrics: span " + name + " is not an object");
        continue;
      }
      CheckStatsObject("metrics: span " + name, stats, "p50_ms", "p95_ms",
                       "max_ms");
    }
  }
}

void CheckTraceJson(const std::string& path) {
  Result<JsonValue> doc = ParseFile(path);
  if (!doc.ok()) {
    Fail("trace: " + doc.status().ToString());
    return;
  }
  const JsonValue* events =
      doc->is_object() ? doc->Find("traceEvents") : nullptr;
  if (events == nullptr || !events->is_array()) {
    Fail("trace: missing traceEvents array");
    return;
  }
  std::map<double, double> last_end_by_tid;
  size_t spans = 0;
  for (const JsonValue& e : events->array) {
    const JsonValue* ph = e.Find("ph");
    if (ph == nullptr || !ph->is_string()) {
      Fail("trace: event without \"ph\"");
      continue;
    }
    if (ph->string == "M") continue;  // metadata (process/thread names)
    if (ph->string != "X") {
      Fail("trace: unexpected event phase \"" + ph->string + "\"");
      continue;
    }
    ++spans;
    const JsonValue* name = e.Find("name");
    const JsonValue* ts = e.Find("ts");
    const JsonValue* dur = e.Find("dur");
    const JsonValue* tid = e.Find("tid");
    if (name == nullptr || !name->is_string() || ts == nullptr ||
        !ts->is_number() || dur == nullptr || !dur->is_number() ||
        tid == nullptr || !tid->is_number()) {
      Fail("trace: X event missing name/ts/dur/tid");
      continue;
    }
    Expect(ts->number >= 0 && dur->number >= 0,
           "trace: negative ts/dur on " + name->string);
    // Spans are recorded when they close, so within one tid the end
    // timestamps must be monotone in file order.
    const double end = ts->number + dur->number;
    auto [it, inserted] = last_end_by_tid.emplace(tid->number, end);
    if (!inserted) {
      Expect(end >= it->second,
             StrFormat("trace: tid %g end timestamps went backwards",
                       tid->number));
      it->second = end;
    }
  }
  Expect(spans > 0, "trace: no spans recorded");
}

/// Validates a stitched cluster trace: either a raw Chrome document (as
/// written by `mivid_cli trace-merge`) or a coordinator trace_dump
/// response line, whose stitched document lives under "trace". The trace
/// id covering the most distinct pids must span at least `min_procs`
/// processes, and a single root span must cover every other span that
/// shares its id (small tolerance for cross-process clock pinning skew).
void CheckStitchedTrace(const std::string& path, int min_procs) {
  Result<JsonValue> doc = ParseFile(path);
  if (!doc.ok()) {
    Fail("stitched trace: " + doc.status().ToString());
    return;
  }
  const JsonValue* root = doc->is_object() ? &doc.value() : nullptr;
  if (root != nullptr && root->Find("traceEvents") == nullptr) {
    const JsonValue* inner = root->Find("trace");
    if (inner != nullptr && inner->is_object()) root = inner;
  }
  const JsonValue* events =
      root != nullptr ? root->Find("traceEvents") : nullptr;
  if (events == nullptr || !events->is_array()) {
    Fail("stitched trace: missing traceEvents array");
    return;
  }

  struct SpanRow {
    double pid;
    double ts;
    double dur;
    std::string name;
  };
  std::map<std::string, std::vector<SpanRow>> by_trace_id;
  size_t spans = 0;
  for (const JsonValue& e : events->array) {
    const JsonValue* ph = e.Find("ph");
    if (ph == nullptr || !ph->is_string()) {
      Fail("stitched trace: event without \"ph\"");
      continue;
    }
    if (ph->string == "M") continue;
    if (ph->string != "X") {
      Fail("stitched trace: unexpected event phase \"" + ph->string + "\"");
      continue;
    }
    ++spans;
    const JsonValue* name = e.Find("name");
    const JsonValue* ts = e.Find("ts");
    const JsonValue* dur = e.Find("dur");
    const JsonValue* pid = e.Find("pid");
    if (name == nullptr || !name->is_string() || ts == nullptr ||
        !ts->is_number() || dur == nullptr || !dur->is_number() ||
        pid == nullptr || !pid->is_number()) {
      Fail("stitched trace: X event missing name/ts/dur/pid");
      continue;
    }
    const JsonValue* args = e.Find("args");
    const JsonValue* id = args != nullptr ? args->Find("trace") : nullptr;
    if (id != nullptr && id->is_string() && !id->string.empty()) {
      by_trace_id[id->string].push_back(
          SpanRow{pid->number, ts->number, dur->number, name->string});
    }
  }
  Expect(spans > 0, "stitched trace: no spans recorded");
  if (by_trace_id.empty()) {
    Fail("stitched trace: no span carries a trace id");
    return;
  }

  // The request trace is the id with the widest process coverage.
  const std::vector<SpanRow>* best = nullptr;
  std::string best_id;
  size_t best_pids = 0;
  for (const auto& [id, rows] : by_trace_id) {
    std::set<double> pids;
    for (const SpanRow& row : rows) pids.insert(row.pid);
    if (pids.size() > best_pids) {
      best_pids = pids.size();
      best = &rows;
      best_id = id;
    }
  }
  Expect(static_cast<int>(best_pids) >= min_procs,
         StrFormat("stitched trace: widest trace id spans %zu process(es), "
                   "expected >= %d",
                   best_pids, min_procs));

  // One span must cover all the others sharing the id — the
  // coordinator's admission span opens before any worker starts and
  // closes after the merge. Allow a little slack for the skew between
  // each process's steady/wall clock pinning.
  constexpr double kSkewToleranceUs = 2000.0;
  const SpanRow* cover = nullptr;
  for (const SpanRow& row : *best) {
    if (cover == nullptr || row.dur > cover->dur) cover = &row;
  }
  for (const SpanRow& row : *best) {
    Expect(row.ts >= cover->ts - kSkewToleranceUs &&
               row.ts + row.dur <= cover->ts + cover->dur + kSkewToleranceUs,
           StrFormat("stitched trace: span \"%s\" escapes the root span "
                     "\"%s\" of trace %s",
                     row.name.c_str(), cover->name.c_str(), best_id.c_str()));
  }
}

/// Validates a cluster_stats response line: schema, then exactness — the
/// reported fleet rollup must serialize identically to a fresh merge of
/// the per-worker snapshots it claims to aggregate.
void CheckClusterStats(const std::string& path) {
  Result<JsonValue> doc = ParseFile(path);
  if (!doc.ok()) {
    Fail("cluster_stats: " + doc.status().ToString());
    return;
  }
  if (!doc->is_object()) {
    Fail("cluster_stats: top level is not an object");
    return;
  }
  const JsonValue* ok = doc->Find("ok");
  Expect(ok != nullptr && ok->type == JsonValue::Type::kBool &&
             ok->bool_value,
         "cluster_stats: response is not ok");
  const JsonValue* cmd = doc->Find("cmd");
  Expect(cmd != nullptr && cmd->is_string() &&
             cmd->string == "cluster_stats",
         "cluster_stats: cmd is not \"cluster_stats\"");
  const JsonValue* workers = doc->Find("workers");
  if (workers == nullptr || !workers->is_array()) {
    Fail("cluster_stats: missing workers array");
    return;
  }
  const JsonValue* fleet = doc->Find("fleet");
  if (fleet == nullptr || !fleet->is_object()) {
    Fail("cluster_stats: missing fleet object");
    return;
  }

  std::vector<MetricsSnapshot> snapshots;
  size_t with_metrics = 0;
  for (const JsonValue& worker : workers->array) {
    const JsonValue* metrics = worker.Find("metrics");
    if (metrics == nullptr) continue;
    Result<MetricsSnapshot> snapshot = MetricsSnapshotFromWireJson(*metrics);
    if (!snapshot.ok()) {
      Fail("cluster_stats: worker snapshot: " +
           snapshot.status().ToString());
      continue;
    }
    snapshots.push_back(std::move(snapshot).value());
    ++with_metrics;
  }
  Expect(with_metrics > 0, "cluster_stats: no worker carries a snapshot");

  Result<MetricsSnapshot> reported = MetricsSnapshotFromWireJson(*fleet);
  if (!reported.ok()) {
    Fail("cluster_stats: fleet snapshot: " + reported.status().ToString());
    return;
  }
  // Bit-exact aggregation check: same wire serialization, so counters,
  // bucket vectors, and interpolated percentiles all match.
  const std::string remerged =
      MetricsSnapshotToWireJson(MergeMetricsSnapshots(snapshots));
  const std::string fleet_wire =
      MetricsSnapshotToWireJson(reported.value());
  Expect(remerged == fleet_wire,
         "cluster_stats: fleet rollup is not the exact merge of the "
         "per-worker snapshots");

  if (const JsonValue* hists = fleet->Find("histograms")) {
    for (const auto& [name, stats] : hists->object) {
      if (!stats.is_object()) {
        Fail("cluster_stats: fleet histogram " + name + " is not an object");
        continue;
      }
      CheckStatsObject("cluster_stats: fleet histogram " + name, stats,
                       "min", "p50", "max");
      CheckStatsObject("cluster_stats: fleet histogram " + name, stats,
                       "p50", "p95", "p99");
    }
  }
}

/// Runs a miniature retrieval experiment with collection enabled and
/// validates what the exporters wrote.
int SelfTest() {
  EnableMetrics(true);
  EnableTracing(true);

  TunnelScenarioOptions scenario_options;
  scenario_options.total_frames = 200;
  scenario_options.num_wall_crashes = 1;
  scenario_options.num_sudden_stops = 1;
  scenario_options.num_speeding = 0;
  scenario_options.num_uturns = 0;
  const ScenarioSpec scenario = MakeTunnelScenario(scenario_options);
  ExperimentOptions options;
  options.pipeline = PipelineMode::kVisionTracks;
  options.feedback_rounds = 2;
  Result<ExperimentResult> result = RunRfExperiment(scenario, options);
  if (!result.ok()) {
    Fail("selftest experiment: " + result.status().ToString());
    return 1;
  }
  Expect(!result->mil_summary.rounds.empty(),
         "selftest: RunSummary recorded no training rounds");
  for (const MilRoundStats& round : result->mil_summary.rounds) {
    Expect(round.nu > 0.0 && round.nu < 1.0,
           StrFormat("selftest: round %d nu %g outside (0,1)", round.round,
                     round.nu));
    Expect(round.support_vectors > 0,
           StrFormat("selftest: round %d has no support vectors",
                     round.round));
    Expect(round.support_vectors <= round.training_size,
           StrFormat("selftest: round %d more SVs than training points",
                     round.round));
  }

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "mivid_obs_selftest";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  ObsOptions obs;
  obs.metrics_json_path = (dir / "metrics.json").string();
  obs.trace_path = (dir / "trace.json").string();
  const Status written = WriteObsOutputs(obs);
  if (!written.ok()) {
    Fail("selftest export: " + written.ToString());
    return 1;
  }
  CheckMetricsJson(obs.metrics_json_path);
  CheckTraceJson(obs.trace_path);

  // The full pipeline must have touched every instrumented layer.
  Result<JsonValue> doc = ParseFile(obs.metrics_json_path);
  if (doc.ok()) {
    const JsonValue* counters = doc->Find("counters");
    for (const char* name :
         {"segment/frames", "track/frames", "window/vs", "gram/builds",
          "rank/calls", "mil/learn_calls"}) {
      const JsonValue* c = counters ? counters->Find(name) : nullptr;
      Expect(c != nullptr && c->number > 0,
             StrFormat("selftest: counter \"%s\" missing or zero", name));
    }
    const JsonValue* hists = doc->Find("histograms");
    for (const char* name :
         {"segment/frame_seconds", "svm/smo_iterations",
          "svm/support_vectors", "rank/seconds"}) {
      const JsonValue* h = hists ? hists->Find(name) : nullptr;
      const JsonValue* count = h ? h->Find("count") : nullptr;
      Expect(count != nullptr && count->number > 0,
             StrFormat("selftest: histogram \"%s\" missing or empty", name));
    }
  }
  std::filesystem::remove_all(dir, ec);
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: check_obs_outputs <metrics.json> <trace.json>\n"
      "       check_obs_outputs --selftest\n"
      "       check_obs_outputs --stitched-trace <trace.json> [min_procs]\n"
      "       check_obs_outputs --cluster-stats <stats.json>\n");
  return 2;
}

int Report(const char* what) {
  if (g_failures > 0) {
    std::fprintf(stderr, "check_obs_outputs: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("check_obs_outputs: %s OK\n", what);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--selftest") {
    if (SelfTest() != 0 || g_failures > 0) {
      std::fprintf(stderr, "check_obs_outputs: %d failure(s)\n", g_failures);
      return 1;
    }
    std::printf("check_obs_outputs: selftest OK\n");
    return 0;
  }
  if ((argc == 3 || argc == 4) &&
      std::string(argv[1]) == "--stitched-trace") {
    int min_procs = 2;
    if (argc == 4) {
      int64_t v = 0;
      if (!ParseInt64(argv[3], &v) || v < 1) return Usage();
      min_procs = static_cast<int>(v);
    }
    CheckStitchedTrace(argv[2], min_procs);
    return Report(argv[2]);
  }
  if (argc == 3 && std::string(argv[1]) == "--cluster-stats") {
    CheckClusterStats(argv[2]);
    return Report(argv[2]);
  }
  if (argc != 3) return Usage();
  CheckMetricsJson(argv[1]);
  CheckTraceJson(argv[2]);
  if (g_failures > 0) {
    std::fprintf(stderr, "check_obs_outputs: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("check_obs_outputs: %s and %s OK\n", argv[1], argv[2]);
  return 0;
}
