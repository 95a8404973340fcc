// Wire form of a MetricsSnapshot, for fleet-wide aggregation.
//
// A worker answering the `metrics` protocol command serializes its
// registry snapshot with MetricsSnapshotToWireJson; the coordinator
// parses each worker's snapshot back and merges them *exactly*:
//
//  * counters     — sum
//  * gauges       — sum (they are last-write-wins locally, but every
//                   gauge the serve path exports — queue depth, cached
//                   corpora — is a per-process quantity whose fleet
//                   meaning is the total; documented in
//                   docs/observability.md)
//  * histograms   — every process uses the same exponential bucket
//                   boundaries (Histogram::BucketBound), so merging is a
//                   bucket-wise sum plus count/sum adds and min/max
//                   folds; percentiles are then recomputed from the
//                   merged buckets by the exact same interpolation a
//                   single process would use. An aggregate of N worker
//                   snapshots is therefore bit-identical to the snapshot
//                   one process would have produced over the union of
//                   observations.
//
// The wire format is a JSON object:
//   {"counters":{name:int,...},
//    "gauges":{name:num,...},
//    "histograms":{name:{"count":int,"sum":num,"min":num,"max":num,
//                        "p50":num,"p95":num,"p99":num,
//                        "buckets":[int x (kBuckets+1)]},...}}

#ifndef MIVID_OBS_METRICS_WIRE_H_
#define MIVID_OBS_METRICS_WIRE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace mivid {

/// Serializes `snapshot` to the wire JSON object described above.
std::string MetricsSnapshotToWireJson(const MetricsSnapshot& snapshot);

/// Parses a wire JSON object (as produced by MetricsSnapshotToWireJson)
/// back into a snapshot. Histograms missing "buckets" parse with empty
/// buckets and merge by count/sum/min/max only. A counter, histogram
/// "count" or bucket that is not a uint64 (JsonValue::Int) is
/// InvalidArgument.
Result<MetricsSnapshot> MetricsSnapshotFromWireJson(const JsonValue& doc);

/// Merges per-process snapshots into one fleet snapshot (semantics in
/// the header comment). Metric names present in any input appear in the
/// output.
MetricsSnapshot MergeMetricsSnapshots(
    const std::vector<MetricsSnapshot>& snapshots);

}  // namespace mivid

#endif  // MIVID_OBS_METRICS_WIRE_H_
