// Wire protocol of the mivid_serve daemon: newline-delimited JSON over a
// Unix-domain stream socket. One request line in, one response line out,
// in order, per connection.
//
// Requests:
//   {"cmd":"open","session":"s1","camera":"cam0","engine":"milrf"}
//   {"cmd":"rank","session":"s1","top":20}
//   {"cmd":"feedback","session":"s1",
//    "labels":[{"bag":3,"label":"relevant"},{"bag":9,"label":"irrelevant"}]}
//   {"cmd":"save","session":"s1"}
//   {"cmd":"close","session":"s1","discard":false}
//   {"cmd":"stats"}
//   {"cmd":"ping"}
//   {"cmd":"shutdown"}
//
// Streaming ingestion (docs/ingest.md):
//   {"cmd":"ingest","camera":"cam0",
//    "frames":[{"frame":0,"obs":[{"track":1,"x":12.5,"y":3.0}]}],
//    "incidents":[{"type":"sudden_stop","begin":40,"end":80,
//                  "vehicles":[1]}],
//    "cut":false,"publish":false}
//   {"cmd":"refresh","session":"s1"}   re-pin the session's epoch
//   {"cmd":"publish","camera":"cam0"}  publish staged bags as an epoch
//
// Versioning: requests may carry "v" — an integer major or a
// "major[.minor]" string. A major this server does not speak is
// rejected with INVALID_ARGUMENT; minors are additive and ignored.
// Absent "v" means v1. Responses to "ping" report the server's
// "protocol_version".
//
// Cluster extensions (understood by the mivid_coord coordinator; plain
// workers ignore them):
//   open may carry "cameras":["cam0","cam1",...] to span a session over
//   several corpora; feedback label entries may then carry "camera" to
//   address a bag within one corpus. "ping" is the health probe the
//   coordinator uses to watch its workers — the response reports the
//   worker id and the shards (cameras) it currently holds.
//
// Responses always carry "ok"; failures add "code" (UPPER_SNAKE status
// code, e.g. "RESOURCE_EXHAUSTED") and "error" (message). See
// docs/serving.md for the full specification.

#ifndef MIVID_SERVE_PROTOCOL_H_
#define MIVID_SERVE_PROTOCOL_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "ingest/stream_types.h"
#include "mil/bag.h"
#include "trajectory/trajectory.h"

namespace mivid {

/// Protocol version this server speaks. Majors gate wire compatibility
/// (a request whose "v" major differs is rejected); minors are additive
/// — 1.1 added ingest/refresh/publish and the "epoch" response field.
constexpr int kProtocolMajor = 1;
constexpr int kProtocolMinor = 1;
constexpr const char* kProtocolVersion = "1.1";

/// Protocol commands.
enum class ServeCmd : uint8_t {
  kOpen = 0,
  kRank = 1,
  kFeedback = 2,
  kSave = 3,
  kClose = 4,
  kStats = 5,
  kShutdown = 6,
  kPing = 7,
  kMetrics = 8,       ///< raw MetricsRegistry snapshot (wire form)
  kClusterStats = 9,  ///< fleet rollup + per-worker breakdown
  kTraceDump = 10,    ///< Chrome trace (stitched fleet-wide on the coord)
  kIngest = 11,       ///< stream frames/incidents into a live camera
  kRefresh = 12,      ///< re-pin a session onto the latest epoch
  kPublish = 13,      ///< publish a camera's staged bags as a new epoch
};

/// Hard bound on one request line. Longer lines are rejected with
/// InvalidArgument, and the transport hangs up on a connection that
/// streams this much without a newline.
constexpr size_t kMaxRequestBytes = 1u << 20;

/// One parsed request line.
struct ServeRequest {
  ServeCmd cmd = ServeCmd::kStats;
  std::string session_id;
  std::string camera_id;
  std::string engine;  ///< empty = server default (open only)
  int top = 0;         ///< rank: 0 = session top_n, -1 = full ranking
  bool discard = false;  ///< close: drop unsaved feedback
  std::vector<std::pair<int, BagLabel>> labels;  ///< feedback
  /// Per-label camera qualifier, parallel to `labels` ("" when absent).
  /// Used by the coordinator to address bags in multi-camera sessions;
  /// single-corpus workers ignore it.
  std::vector<std::string> label_cameras;
  /// Multi-camera open (coordinator extension); empty otherwise.
  std::vector<std::string> cameras;
  /// Distributed trace context ("trace"/"span" fields): trace_id names
  /// the whole request, parent_span is the sender's span id. Stamped by
  /// the coordinator onto relayed/fanned-out requests; clients may also
  /// supply their own. Empty when untraced.
  std::string trace_id;
  std::string parent_span;
  /// Remaining per-request budget in milliseconds at send time
  /// ("deadline_ms" field); 0 = no deadline. Workers shed requests whose
  /// budget was already spent waiting in the dispatch queue, and the
  /// coordinator clamps its own per-hop budget to the client's.
  int64_t deadline_ms = 0;
  /// Streaming ingestion (`ingest` only): per-frame observations in
  /// absolute stream frames, strictly ascending.
  std::vector<FrameObservations> frames;
  /// Incident annotations riding on `ingest` (absolute stream frames).
  std::vector<IncidentRecord> incidents;
  bool cut = false;      ///< ingest: cut the open clip after the frames
  bool publish = false;  ///< ingest: also publish a new epoch after the cut
};

/// Parses one request line. InvalidArgument on malformed JSON, unknown
/// commands, unknown labels, or missing required fields.
Result<ServeRequest> ParseServeRequest(std::string_view line);

/// Replays stored tracks as the per-frame observation stream a live
/// tracker front end would deliver: one entry per frame of the clip,
/// shifted by `frame_offset` into absolute stream frames.
std::vector<FrameObservations> FramesFromTracks(
    const std::vector<Track>& tracks, int total_frames, int frame_offset = 0);

/// Writes one `ingest` request line, the inverse of ParseServeRequest's
/// ingest fields. Numbers go through AppendDouble, whose JSON round-trip
/// is bit-exact, so a streamed corpus matches a batch rebuild bitwise
/// (docs/ingest.md).
std::string IngestRequestLine(const std::string& camera,
                              const std::vector<FrameObservations>& frames,
                              const std::vector<IncidentRecord>& incidents,
                              bool cut, bool publish);

/// Wire spelling of a command ("open", "cluster_stats", ...).
const char* ServeCmdWireName(ServeCmd cmd);

/// Stable span name for tracing one command on a worker ("serve/rank").
const char* ServeCmdSpanName(ServeCmd cmd);

/// Stable span name for tracing one command on the coordinator
/// ("coord/rank").
const char* ServeCmdCoordSpanName(ServeCmd cmd);

/// Returns `line` with `"trace"`/`"span"` members appended to the
/// top-level object — the coordinator uses it to stamp a trace context
/// onto a request it relays verbatim. The caller must only stamp lines
/// whose parsed request had no trace context (JSON duplicate keys would
/// otherwise shadow the client's). Returns `line` unchanged when it is
/// not a JSON object line.
std::string StampTraceContext(const std::string& line,
                              const std::string& trace_id,
                              const std::string& span_id);

/// Returns `line` with `"deadline_ms":<ms>` appended to the top-level
/// object — the coordinator stamps its remaining per-hop budget onto
/// relayed lines. As with StampTraceContext, only stamp lines whose
/// parsed request carried no deadline of its own.
std::string StampDeadlineMs(const std::string& line, int64_t ms);

/// Canonical label spelling on the wire ("relevant", ...).
const char* BagLabelWireName(BagLabel label);

/// UPPER_SNAKE wire spelling of a status code ("RESOURCE_EXHAUSTED", ...).
const char* StatusCodeWireName(StatusCode code);

/// Wire status code of a response line, for access logging: "OK" for
/// success lines (they always start {"ok":true), else the "code" value.
std::string ResponseStatusCode(const std::string& response);

/// {"ok":false,"code":...,"error":...} for a failed request.
std::string ErrorResponse(const Status& status);

/// Incremental single-line JSON object writer for responses. Values are
/// escaped; numbers go through AppendDouble/AppendInt
/// (common/string_util.h), the one wire-number writer; Raw trusts the
/// caller (nested arrays/objects).
class JsonLineBuilder {
 public:
  JsonLineBuilder& Str(std::string_view key, std::string_view value);
  JsonLineBuilder& Int(std::string_view key, int64_t value);
  JsonLineBuilder& Num(std::string_view key, double value);
  JsonLineBuilder& Bool(std::string_view key, bool value);
  /// A JSON array of strings, each escaped.
  JsonLineBuilder& StrList(std::string_view key,
                           const std::vector<std::string>& values);
  JsonLineBuilder& Raw(std::string_view key, std::string_view json);
  std::string Build() &&;

 private:
  void Key(std::string_view key);
  std::string out_ = "{";
  bool first_ = true;
};

/// True when `id` is a safe session identifier: 1..64 chars drawn from
/// [A-Za-z0-9._-] (session ids become journal file names).
bool ValidSessionId(std::string_view id);

}  // namespace mivid

#endif  // MIVID_SERVE_PROTOCOL_H_
