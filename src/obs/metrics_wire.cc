#include "obs/metrics_wire.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/string_util.h"

namespace mivid {

namespace {

// AppendDouble (%.17g's bytes) round-trips doubles exactly; JSON
// forbids NaN/inf, and metric values are finite by construction
// (observations are finite wall times and counts), so a plain format is
// safe here.
std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  std::string out;
  AppendDouble(&out, v);
  return out;
}

}  // namespace

std::string MetricsSnapshotToWireJson(const MetricsSnapshot& snapshot) {
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
                     Number(value).c_str());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, stats] : snapshot.histograms) {
    if (!first) out += ",";
    first = false;
    out += StrFormat(
        "\"%s\":{\"count\":%llu,\"sum\":%s,\"min\":%s,\"max\":%s,"
        "\"p50\":%s,\"p95\":%s,\"p99\":%s,\"buckets\":[",
        JsonEscape(name).c_str(), static_cast<unsigned long long>(stats.count),
        Number(stats.sum).c_str(), Number(stats.min).c_str(),
        Number(stats.max).c_str(), Number(stats.p50).c_str(),
        Number(stats.p95).c_str(), Number(stats.p99).c_str());
    for (size_t i = 0; i < stats.buckets.size(); ++i) {
      if (i) out += ",";
      out += StrFormat("%llu",
                       static_cast<unsigned long long>(stats.buckets[i]));
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

Result<MetricsSnapshot> MetricsSnapshotFromWireJson(const JsonValue& doc) {
  if (!doc.is_object()) {
    return Status::InvalidArgument("metrics snapshot: not a JSON object");
  }
  MetricsSnapshot snapshot;
  if (const JsonValue* counters = doc.Find("counters")) {
    if (!counters->is_object()) {
      return Status::InvalidArgument("metrics snapshot: counters not object");
    }
    for (const auto& [name, value] : counters->object) {
      const std::optional<uint64_t> count = value.Int<uint64_t>();
      if (!count) {
        return Status::InvalidArgument(
            StrFormat("metrics snapshot: counter %s not a non-negative number",
                      name.c_str()));
      }
      snapshot.counters[name] = *count;
    }
  }
  if (const JsonValue* gauges = doc.Find("gauges")) {
    if (!gauges->is_object()) {
      return Status::InvalidArgument("metrics snapshot: gauges not object");
    }
    for (const auto& [name, value] : gauges->object) {
      if (!value.is_number()) {
        return Status::InvalidArgument(StrFormat(
            "metrics snapshot: gauge %s not a number", name.c_str()));
      }
      snapshot.gauges[name] = value.number;
    }
  }
  if (const JsonValue* histograms = doc.Find("histograms")) {
    if (!histograms->is_object()) {
      return Status::InvalidArgument(
          "metrics snapshot: histograms not object");
    }
    for (const auto& [name, value] : histograms->object) {
      if (!value.is_object()) {
        return Status::InvalidArgument(StrFormat(
            "metrics snapshot: histogram %s not an object", name.c_str()));
      }
      HistogramStats stats;
      auto number = [&value](const char* key, double fallback) {
        const JsonValue* member = value.Find(key);
        return member != nullptr && member->is_number() ? member->number
                                                        : fallback;
      };
      if (const JsonValue* count = value.Find("count")) {
        const std::optional<uint64_t> n = count->Int<uint64_t>();
        if (!n) {
          return Status::InvalidArgument(StrFormat(
              "metrics snapshot: histogram %s has a bad count", name.c_str()));
        }
        stats.count = *n;
      }
      stats.sum = number("sum", 0);
      stats.min = number("min", 0);
      stats.max = number("max", 0);
      // Merging clamps percentiles into [min, max], which needs min <= max
      // once the histogram holds a value.
      if (stats.count > 0 && stats.min > stats.max) {
        return Status::InvalidArgument(StrFormat(
            "metrics snapshot: histogram %s has min > max", name.c_str()));
      }
      stats.p50 = number("p50", 0);
      stats.p95 = number("p95", 0);
      stats.p99 = number("p99", 0);
      if (const JsonValue* buckets = value.Find("buckets")) {
        if (!buckets->is_array()) {
          return Status::InvalidArgument(StrFormat(
              "metrics snapshot: histogram %s buckets not an array",
              name.c_str()));
        }
        stats.buckets.reserve(buckets->array.size());
        for (const JsonValue& b : buckets->array) {
          const std::optional<uint64_t> n = b.Int<uint64_t>();
          if (!n) {
            return Status::InvalidArgument(StrFormat(
                "metrics snapshot: histogram %s has a bad bucket count",
                name.c_str()));
          }
          stats.buckets.push_back(*n);
        }
      }
      snapshot.histograms[name] = std::move(stats);
    }
  }
  return snapshot;
}

MetricsSnapshot MergeMetricsSnapshots(
    const std::vector<MetricsSnapshot>& snapshots) {
  MetricsSnapshot merged;
  for (const MetricsSnapshot& snapshot : snapshots) {
    for (const auto& [name, value] : snapshot.counters) {
      merged.counters[name] += value;
    }
    for (const auto& [name, value] : snapshot.gauges) {
      merged.gauges[name] += value;
    }
    for (const auto& [name, stats] : snapshot.histograms) {
      HistogramStats& into = merged.histograms[name];
      if (stats.count == 0) {
        // Still materialize the series so the rollup lists it.
        continue;
      }
      if (into.count == 0) {
        into = stats;
        continue;
      }
      into.min = std::min(into.min, stats.min);
      into.max = std::max(into.max, stats.max);
      into.count += stats.count;
      into.sum += stats.sum;
      if (into.buckets.size() < stats.buckets.size()) {
        into.buckets.resize(stats.buckets.size(), 0);
      }
      for (size_t i = 0; i < stats.buckets.size(); ++i) {
        into.buckets[i] += stats.buckets[i];
      }
    }
  }
  for (auto& [name, stats] : merged.histograms) {
    RecomputeHistogramPercentiles(&stats);
  }
  return merged;
}

}  // namespace mivid
