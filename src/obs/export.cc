#include "obs/export.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/ascii_plot.h"
#include "common/file_io.h"
#include "common/string_util.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mivid {

namespace {

/// JSON number rendering that never emits NaN/inf (both invalid JSON).
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  return StrFormat("%.12g", v);
}

std::string HistogramJson(const HistogramStats& h) {
  return StrFormat(
      "{\"count\":%llu,\"sum\":%s,\"min\":%s,\"max\":%s,\"mean\":%s,"
      "\"p50\":%s,\"p95\":%s,\"p99\":%s}",
      static_cast<unsigned long long>(h.count), JsonNumber(h.sum).c_str(),
      JsonNumber(h.min).c_str(), JsonNumber(h.max).c_str(),
      JsonNumber(h.mean()).c_str(), JsonNumber(h.p50).c_str(),
      JsonNumber(h.p95).c_str(), JsonNumber(h.p99).c_str());
}

}  // namespace

std::string MetricsToJson() {
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    if (!first) out += ",";
    first = false;
    out += StrFormat("\"%s\":%llu", JsonEscape(name).c_str(),
                     static_cast<unsigned long long>(value));
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    if (!first) out += ",";
    first = false;
    out += StrFormat("\"%s\":%s", JsonEscape(name).c_str(),
                     JsonNumber(value).c_str());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, stats] : snapshot.histograms) {
    if (!first) out += ",";
    first = false;
    out += StrFormat("\"%s\":%s", JsonEscape(name).c_str(),
                     HistogramJson(stats).c_str());
  }
  out += "},\"spans\":{";
  first = true;
  for (const auto& s : AggregateSpans()) {
    if (!first) out += ",";
    first = false;
    out += StrFormat(
        "\"%s\":{\"count\":%llu,\"total_ms\":%s,\"p50_ms\":%s,"
        "\"p95_ms\":%s,\"max_ms\":%s}",
        JsonEscape(s.name).c_str(), static_cast<unsigned long long>(s.count),
        JsonNumber(s.total_ms).c_str(), JsonNumber(s.p50_ms).c_str(),
        JsonNumber(s.p95_ms).c_str(), JsonNumber(s.max_ms).c_str());
  }
  out += "}}";
  return out;
}

std::string FormatMetricsReport() {
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  std::string out;

  if (!snapshot.counters.empty() || !snapshot.gauges.empty()) {
    std::vector<std::vector<std::string>> rows;
    for (const auto& [name, value] : snapshot.counters) {
      rows.push_back({name, "counter",
                      StrFormat("%llu", static_cast<unsigned long long>(value))});
    }
    for (const auto& [name, value] : snapshot.gauges) {
      rows.push_back({name, "gauge", StrFormat("%.6g", value)});
    }
    out += AsciiTable({"metric", "kind", "value"}, rows);
  }
  if (!snapshot.histograms.empty()) {
    std::vector<std::vector<std::string>> rows;
    for (const auto& [name, h] : snapshot.histograms) {
      rows.push_back({name,
                      StrFormat("%llu", static_cast<unsigned long long>(h.count)),
                      StrFormat("%.6g", h.sum), StrFormat("%.6g", h.mean()),
                      StrFormat("%.6g", h.p50), StrFormat("%.6g", h.p95),
                      StrFormat("%.6g", h.max)});
    }
    out += AsciiTable({"histogram", "count", "sum", "mean", "p50", "p95", "max"},
                      rows);
  }
  out += FormatSpanReport();
  return out;
}

Result<ObsOptions> ExtractObsFlags(int* argc, char** argv) {
  ObsOptions options;
  int kept = 0;
  for (int i = 0; i < *argc; ++i) {
    const char* arg = argv[i];
    auto take_value = [&](const char* flag, std::string* out) -> Result<bool> {
      const size_t flag_len = std::strlen(flag);
      if (std::strncmp(arg, flag, flag_len) == 0 && arg[flag_len] == '=') {
        *out = arg + flag_len + 1;
        return true;
      }
      if (std::strcmp(arg, flag) == 0) {
        if (i + 1 >= *argc) {
          return Status::InvalidArgument(
              StrFormat("%s requires a path argument", flag));
        }
        *out = argv[++i];
        return true;
      }
      return false;
    };
    if (std::strcmp(arg, "--metrics-report") == 0) {
      options.report = true;
      continue;
    }
    Result<bool> took = take_value("--metrics-json", &options.metrics_json_path);
    if (!took.ok()) return took.status();
    if (took.value()) continue;
    took = take_value("--trace", &options.trace_path);
    if (!took.ok()) return took.status();
    if (took.value()) continue;
    argv[kept++] = argv[i];
  }
  *argc = kept;

  // Long-running daemons (mivid_serve / mivid_coord) want live
  // collection without an at-exit export file: MIVID_METRICS=1 /
  // MIVID_TRACE=1 enable collection for the `metrics` / `trace_dump`
  // protocol commands to read back over the wire.
  auto env_on = [](const char* name) {
    const char* value = std::getenv(name);
    return value != nullptr && value[0] != '\0' &&
           std::strcmp(value, "0") != 0;
  };
  if (options.report || !options.metrics_json_path.empty() ||
      env_on("MIVID_METRICS")) {
    EnableMetrics(true);
  }
  if (!options.trace_path.empty() || options.report ||
      env_on("MIVID_TRACE")) {
    EnableTracing(true);
  }
  return options;
}

Status WriteObsOutputs(const ObsOptions& options) {
  if (!options.metrics_json_path.empty()) {
    MIVID_RETURN_IF_ERROR(
        WriteFileAtomic(options.metrics_json_path, MetricsToJson()));
  }
  if (!options.trace_path.empty()) {
    MIVID_RETURN_IF_ERROR(
        WriteFileAtomic(options.trace_path, TraceToChromeJson()));
  }
  if (options.report) {
    const std::string report = FormatMetricsReport();
    std::fwrite(report.data(), 1, report.size(), stdout);
  }
  return Status::OK();
}

const char* ObsFlagsHelp() {
  return "  [--metrics-json <path>] [--trace <path>] [--metrics-report]";
}

}  // namespace mivid
