#include "serve/protocol.h"

#include <cmath>
#include <iterator>
#include <optional>

#include "common/string_util.h"
#include "obs/json.h"

namespace mivid {

namespace {

Status FieldError(std::string_view field, std::string_view why) {
  return Status::InvalidArgument("request field '" + std::string(field) +
                                 "' " + std::string(why));
}

/// Fetches an optional string member; InvalidArgument if present but not
/// a string.
Result<std::string> GetString(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return std::string();
  if (!v->is_string()) return FieldError(key, "must be a string");
  return v->string;
}

Result<int> GetInt(const JsonValue& obj, std::string_view key, int fallback) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return fallback;
  const std::optional<int> value = v->Int<int>();
  if (!value) return FieldError(key, "must be an integer");
  return *value;
}

Result<bool> GetBool(const JsonValue& obj, std::string_view key,
                     bool fallback) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return fallback;
  if (v->type != JsonValue::Type::kBool) {
    return FieldError(key, "must be a boolean");
  }
  return v->bool_value;
}

Result<BagLabel> ParseWireLabel(std::string_view name) {
  if (name == "relevant") return BagLabel::kRelevant;
  if (name == "irrelevant") return BagLabel::kIrrelevant;
  if (name == "unlabeled") return BagLabel::kUnlabeled;
  return Status::InvalidArgument(
      "unknown label '" + std::string(name) +
      "' (expected relevant|irrelevant|unlabeled)");
}

struct CmdName {
  const char* name;
  ServeCmd cmd;
  bool needs_session;
};

constexpr CmdName kCommands[] = {
    {"open", ServeCmd::kOpen, true},
    {"rank", ServeCmd::kRank, true},
    {"feedback", ServeCmd::kFeedback, true},
    {"save", ServeCmd::kSave, true},
    {"close", ServeCmd::kClose, true},
    {"stats", ServeCmd::kStats, false},
    {"shutdown", ServeCmd::kShutdown, false},
    {"ping", ServeCmd::kPing, false},
    {"metrics", ServeCmd::kMetrics, false},
    {"cluster_stats", ServeCmd::kClusterStats, false},
    {"trace_dump", ServeCmd::kTraceDump, false},
    {"ingest", ServeCmd::kIngest, false},
    {"refresh", ServeCmd::kRefresh, true},
    {"publish", ServeCmd::kPublish, false},
};

// Parallel to ServeCmd values: wire names and the span names used when
// tracing the execution of each command on a worker and on the
// coordinator (literals — span names must outlive the trace).
constexpr const char* kWireNames[] = {
    "open", "rank", "feedback", "save", "close", "stats",
    "shutdown", "ping", "metrics", "cluster_stats", "trace_dump",
    "ingest", "refresh", "publish",
};
constexpr const char* kSpanNames[] = {
    "serve/open", "serve/rank", "serve/feedback", "serve/save",
    "serve/close", "serve/stats", "serve/shutdown", "serve/ping",
    "serve/metrics", "serve/cluster_stats", "serve/trace_dump",
    "serve/ingest", "serve/refresh", "serve/publish",
};
constexpr const char* kCoordSpanNames[] = {
    "coord/open", "coord/rank", "coord/feedback", "coord/save",
    "coord/close", "coord/stats", "coord/shutdown", "coord/ping",
    "coord/metrics", "coord/cluster_stats", "coord/trace_dump",
    "coord/ingest", "coord/refresh", "coord/publish",
};
static_assert(std::size(kSpanNames) == std::size(kWireNames) &&
              std::size(kCoordSpanNames) == std::size(kWireNames));

/// `table[cmd]`, or `fallback` for a value outside the table.
template <size_t N>
const char* NameOf(const char* const (&table)[N], ServeCmd cmd,
                   const char* fallback) {
  const size_t index = static_cast<size_t>(cmd);
  return index < N ? table[index] : fallback;
}

/// Validates the optional "v" protocol version field: an integer major
/// or a "major[.minor]" string. Majors must match (different major =
/// incompatible wire format); minors are additive and ignored. Absent
/// "v" means v1, the original protocol.
Status CheckProtocolVersion(const JsonValue& doc) {
  const JsonValue* ver = doc.Find("v");
  if (ver == nullptr) return Status::OK();
  constexpr const char* kShape =
      "must be an integer or \"major[.minor]\" string";
  int major = 0;
  if (ver->is_number()) {
    const std::optional<int> value = ver->Int<int>();
    if (!value) return FieldError("v", kShape);
    major = *value;
  } else if (ver->is_string()) {
    const std::string& s = ver->string;
    const size_t dot = s.find('.');
    const std::string_view head =
        std::string_view(s).substr(0, dot == std::string::npos ? s.size()
                                                               : dot);
    if (head.empty() || head.size() > 9) return FieldError("v", kShape);
    for (char c : head) {
      if (c < '0' || c > '9') return FieldError("v", kShape);
      major = major * 10 + (c - '0');
    }
  } else {
    return FieldError("v", kShape);
  }
  if (major != kProtocolMajor) {
    return Status::InvalidArgument(
        "unsupported protocol major version " + std::to_string(major) +
        ": this server speaks " + std::string(kProtocolVersion) +
        " (see docs/serving.md)");
  }
  return Status::OK();
}

/// Fetches a required finite number member.
Result<double> GetNum(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return FieldError(key, "is required");
  if (!v->is_number() || !std::isfinite(v->number)) {
    return FieldError(key, "must be a finite number");
  }
  return v->number;
}

/// Parses the `ingest` payload: "frames", "incidents", "cut",
/// "publish".
Status ParseIngestFields(const JsonValue& doc, ServeRequest* req) {
  if (const JsonValue* frames = doc.Find("frames"); frames != nullptr) {
    if (!frames->is_array()) return FieldError("frames", "must be an array");
    req->frames.reserve(frames->array.size());
    for (const JsonValue& entry : frames->array) {
      if (!entry.is_object()) {
        return FieldError("frames", "entries must be objects");
      }
      MIVID_ASSIGN_OR_RETURN(int frame, GetInt(entry, "frame", -1));
      if (frame < 0) return FieldError("frames[].frame", "is required");
      FrameObservations fo;
      fo.frame = frame;
      if (const JsonValue* obs = entry.Find("obs"); obs != nullptr) {
        if (!obs->is_array()) {
          return FieldError("frames[].obs", "must be an array");
        }
        fo.observations.reserve(obs->array.size());
        for (const JsonValue& o : obs->array) {
          if (!o.is_object()) {
            return FieldError("frames[].obs", "entries must be objects");
          }
          TrackObservation track;
          MIVID_ASSIGN_OR_RETURN(track.track_id, GetInt(o, "track", -1));
          if (track.track_id < 0) {
            return FieldError("frames[].obs[].track", "is required");
          }
          MIVID_ASSIGN_OR_RETURN(track.centroid.x, GetNum(o, "x"));
          MIVID_ASSIGN_OR_RETURN(track.centroid.y, GetNum(o, "y"));
          // Optional bbox [x0,y0,x1,y1]; defaults to the centroid point.
          if (const JsonValue* box = o.Find("bbox"); box != nullptr) {
            if (!box->is_array() || box->array.size() != 4) {
              return FieldError("frames[].obs[].bbox",
                                "must be an array of 4 numbers");
            }
            double edge[4];
            for (size_t i = 0; i < 4; ++i) {
              const JsonValue& e = box->array[i];
              if (!e.is_number() || !std::isfinite(e.number)) {
                return FieldError("frames[].obs[].bbox",
                                  "must be an array of 4 numbers");
              }
              edge[i] = e.number;
            }
            track.bbox = BBox(edge[0], edge[1], edge[2], edge[3]);
          } else {
            track.bbox = BBox(track.centroid.x, track.centroid.y,
                              track.centroid.x, track.centroid.y);
          }
          fo.observations.push_back(track);
        }
      }
      req->frames.push_back(std::move(fo));
    }
  }

  if (const JsonValue* incidents = doc.Find("incidents");
      incidents != nullptr) {
    if (!incidents->is_array()) {
      return FieldError("incidents", "must be an array");
    }
    req->incidents.reserve(incidents->array.size());
    for (const JsonValue& entry : incidents->array) {
      if (!entry.is_object()) {
        return FieldError("incidents", "entries must be objects");
      }
      MIVID_ASSIGN_OR_RETURN(std::string type_name,
                             GetString(entry, "type"));
      if (type_name.empty()) {
        return FieldError("incidents[].type", "is required");
      }
      IncidentRecord incident;
      MIVID_ASSIGN_OR_RETURN(incident.type, IncidentTypeFromName(type_name));
      MIVID_ASSIGN_OR_RETURN(incident.begin_frame,
                             GetInt(entry, "begin", -1));
      MIVID_ASSIGN_OR_RETURN(incident.end_frame, GetInt(entry, "end", -1));
      if (incident.begin_frame < 0 ||
          incident.end_frame < incident.begin_frame) {
        return FieldError("incidents[].begin/end",
                          "must satisfy 0 <= begin <= end");
      }
      if (const JsonValue* vehicles = entry.Find("vehicles");
          vehicles != nullptr) {
        if (!vehicles->is_array()) {
          return FieldError("incidents[].vehicles", "must be an array");
        }
        for (const JsonValue& v : vehicles->array) {
          const std::optional<int> id = v.Int<int>();
          if (!id) {
            return FieldError("incidents[].vehicles",
                              "entries must be integers");
          }
          incident.vehicle_ids.push_back(*id);
        }
      }
      req->incidents.push_back(std::move(incident));
    }
  }

  MIVID_ASSIGN_OR_RETURN(req->cut, GetBool(doc, "cut", false));
  MIVID_ASSIGN_OR_RETURN(req->publish, GetBool(doc, "publish", false));
  return Status::OK();
}

}  // namespace

bool ValidSessionId(std::string_view id) {
  if (id.empty() || id.size() > 64) return false;
  for (char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

Result<ServeRequest> ParseServeRequest(std::string_view line) {
  if (line.size() > kMaxRequestBytes) {
    return Status::InvalidArgument(
        "request line exceeds " + std::to_string(kMaxRequestBytes) +
        " bytes (" + std::to_string(line.size()) + ")");
  }
  MIVID_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(line));
  if (!doc.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }

  MIVID_RETURN_IF_ERROR(CheckProtocolVersion(doc));
  MIVID_ASSIGN_OR_RETURN(std::string cmd_name, GetString(doc, "cmd"));
  if (cmd_name.empty()) return FieldError("cmd", "is required");

  ServeRequest req;
  const CmdName* found = nullptr;
  for (const CmdName& c : kCommands) {
    if (cmd_name == c.name) {
      found = &c;
      break;
    }
  }
  if (found == nullptr) {
    return Status::InvalidArgument("unknown command '" + cmd_name + "'");
  }
  req.cmd = found->cmd;

  MIVID_ASSIGN_OR_RETURN(req.session_id, GetString(doc, "session"));
  if (found->needs_session) {
    if (req.session_id.empty()) return FieldError("session", "is required");
    if (!ValidSessionId(req.session_id)) {
      return FieldError("session",
                        "must be 1..64 chars of [A-Za-z0-9._-]");
    }
  }
  MIVID_ASSIGN_OR_RETURN(req.camera_id, GetString(doc, "camera"));
  MIVID_ASSIGN_OR_RETURN(req.engine, GetString(doc, "engine"));
  MIVID_ASSIGN_OR_RETURN(req.top, GetInt(doc, "top", 0));
  MIVID_ASSIGN_OR_RETURN(req.discard, GetBool(doc, "discard", false));
  MIVID_ASSIGN_OR_RETURN(req.trace_id, GetString(doc, "trace"));
  MIVID_ASSIGN_OR_RETURN(req.parent_span, GetString(doc, "span"));
  MIVID_ASSIGN_OR_RETURN(int deadline_ms, GetInt(doc, "deadline_ms", 0));
  if (deadline_ms < 0) return FieldError("deadline_ms", "must be >= 0");
  req.deadline_ms = deadline_ms;

  if (const JsonValue* cameras = doc.Find("cameras"); cameras != nullptr) {
    if (!cameras->is_array()) return FieldError("cameras", "must be an array");
    req.cameras.reserve(cameras->array.size());
    for (const JsonValue& entry : cameras->array) {
      if (!entry.is_string() || entry.string.empty()) {
        return FieldError("cameras", "entries must be non-empty strings");
      }
      req.cameras.push_back(entry.string);
    }
  }

  if (req.cmd == ServeCmd::kFeedback) {
    const JsonValue* labels = doc.Find("labels");
    if (labels == nullptr || !labels->is_array()) {
      return FieldError("labels", "must be an array");
    }
    if (labels->array.empty()) return FieldError("labels", "must be non-empty");
    req.labels.reserve(labels->array.size());
    for (const JsonValue& entry : labels->array) {
      if (!entry.is_object()) {
        return FieldError("labels", "entries must be objects");
      }
      MIVID_ASSIGN_OR_RETURN(int bag, GetInt(entry, "bag", -1));
      if (bag < 0) return FieldError("labels[].bag", "is required");
      MIVID_ASSIGN_OR_RETURN(std::string name, GetString(entry, "label"));
      if (name.empty()) return FieldError("labels[].label", "is required");
      MIVID_ASSIGN_OR_RETURN(BagLabel label, ParseWireLabel(name));
      MIVID_ASSIGN_OR_RETURN(std::string camera, GetString(entry, "camera"));
      req.labels.emplace_back(bag, label);
      req.label_cameras.push_back(std::move(camera));
    }
  }

  if (req.cmd == ServeCmd::kIngest || req.cmd == ServeCmd::kPublish) {
    if (req.camera_id.empty()) return FieldError("camera", "is required");
  }
  if (req.cmd == ServeCmd::kIngest) {
    MIVID_RETURN_IF_ERROR(ParseIngestFields(doc, &req));
  }
  return req;
}

const char* ServeCmdWireName(ServeCmd cmd) {
  return NameOf(kWireNames, cmd, "?");
}

const char* ServeCmdSpanName(ServeCmd cmd) {
  return NameOf(kSpanNames, cmd, "serve/other");
}

const char* ServeCmdCoordSpanName(ServeCmd cmd) {
  return NameOf(kCoordSpanNames, cmd, "coord/other");
}

namespace {

// Inserts `members` (already-serialized "key":value pairs) before the
// closing brace of a one-line JSON object; `line` unchanged when it is
// not an object line.
std::string StampTopLevel(const std::string& line,
                          const std::string& members) {
  const size_t close = line.find_last_of('}');
  if (close == std::string::npos) return line;
  std::string stamped = line.substr(0, close);
  // Empty object ("{}") needs no separating comma.
  const size_t open = stamped.find_first_of('{');
  const bool empty_object =
      open != std::string::npos &&
      stamped.find_first_not_of(" \t", open + 1) == std::string::npos;
  if (!empty_object) stamped += ',';
  stamped += members;
  stamped += line.substr(close);
  return stamped;
}

}  // namespace

std::string StampTraceContext(const std::string& line,
                              const std::string& trace_id,
                              const std::string& span_id) {
  return StampTopLevel(line, "\"trace\":\"" + JsonEscape(trace_id) +
                                 "\",\"span\":\"" + JsonEscape(span_id) +
                                 "\"");
}

std::string StampDeadlineMs(const std::string& line, int64_t ms) {
  return StampTopLevel(line, "\"deadline_ms\":" + std::to_string(ms));
}

const char* BagLabelWireName(BagLabel label) {
  switch (label) {
    case BagLabel::kRelevant:
      return "relevant";
    case BagLabel::kIrrelevant:
      return "irrelevant";
    case BagLabel::kUnlabeled:
      return "unlabeled";
  }
  return "unlabeled";
}

const char* StatusCodeWireName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kAlreadyExists:
      return "ALREADY_EXISTS";
    case StatusCode::kIOError:
      return "IO_ERROR";
    case StatusCode::kCorruption:
      return "CORRUPTION";
    case StatusCode::kNotSupported:
      return "NOT_SUPPORTED";
    case StatusCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kDataLoss:
      return "DATA_LOSS";
    case StatusCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
  }
  return "INTERNAL";
}

std::string ResponseStatusCode(const std::string& response) {
  if (response.compare(0, 11, "{\"ok\":true,") == 0 ||
      response.compare(0, 11, "{\"ok\":true}") == 0) {
    return "OK";
  }
  const size_t pos = response.find("\"code\":\"");
  if (pos == std::string::npos) return "OK";
  const size_t start = pos + 8;
  const size_t end = response.find('"', start);
  return end == std::string::npos ? "?" : response.substr(start, end - start);
}

std::string ErrorResponse(const Status& status) {
  JsonLineBuilder out;
  out.Bool("ok", false)
      .Str("code", StatusCodeWireName(status.code()))
      .Str("error", status.message());
  return std::move(out).Build();
}

void JsonLineBuilder::Key(std::string_view key) {
  if (!first_) out_ += ',';
  first_ = false;
  out_ += '"';
  out_ += JsonEscape(key);
  out_ += "\":";
}

JsonLineBuilder& JsonLineBuilder::Str(std::string_view key,
                                      std::string_view value) {
  Key(key);
  out_ += '"';
  out_ += JsonEscape(value);
  out_ += '"';
  return *this;
}

JsonLineBuilder& JsonLineBuilder::Int(std::string_view key, int64_t value) {
  Key(key);
  AppendInt(&out_, value);
  return *this;
}

JsonLineBuilder& JsonLineBuilder::Num(std::string_view key, double value) {
  Key(key);
  // AppendDouble is the one wire-number writer (%.17g's bytes): doubles
  // round-trip exactly, so client-side scores compare bit-identical to
  // in-process rankings.
  AppendDouble(&out_, value);
  return *this;
}

JsonLineBuilder& JsonLineBuilder::Bool(std::string_view key, bool value) {
  Key(key);
  out_ += value ? "true" : "false";
  return *this;
}

JsonLineBuilder& JsonLineBuilder::StrList(
    std::string_view key, const std::vector<std::string>& values) {
  Key(key);
  out_ += '[';
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out_ += ',';
    out_ += '"';
    out_ += JsonEscape(values[i]);
    out_ += '"';
  }
  out_ += ']';
  return *this;
}

JsonLineBuilder& JsonLineBuilder::Raw(std::string_view key,
                                      std::string_view json) {
  Key(key);
  out_ += json;
  return *this;
}

std::string JsonLineBuilder::Build() && {
  out_ += '}';
  return std::move(out_);
}

}  // namespace mivid
