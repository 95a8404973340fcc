#include "obs/access_log.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "serve/protocol.h"

namespace mivid {

namespace {

thread_local RequestAudit* t_current_audit = nullptr;

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int64_t WallMillis() {
  return static_cast<int64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

RequestAudit* CurrentRequestAudit() { return t_current_audit; }

RequestAuditScope::RequestAuditScope(RequestAudit* audit)
    : previous_(t_current_audit) {
  t_current_audit = audit;
}

RequestAuditScope::~RequestAuditScope() { t_current_audit = previous_; }

AuditPhaseTimer::AuditPhaseTimer(double RequestAudit::* field)
    : field_(field) {
  audit_ = t_current_audit;
  if (audit_ != nullptr) begin_ns_ = NowNanos();
}

AuditPhaseTimer::~AuditPhaseTimer() {
  if (audit_ == nullptr) return;
  audit_->*field_ += static_cast<double>(NowNanos() - begin_ns_) * 1e-6;
}

std::string FormatAccessRecord(const AccessRecord& record, int64_t wall_ms,
                               bool slow) {
  std::string cameras = "[";
  for (size_t i = 0; i < record.cameras.size(); ++i) {
    if (i) cameras += ",";
    cameras += "\"" + JsonEscape(record.cameras[i]) + "\"";
  }
  cameras += "]";
  return StrFormat(
      "{\"ts_ms\":%lld,\"role\":\"%s\",\"node\":\"%s\",\"cmd\":\"%s\","
      "\"session\":\"%s\",\"engine\":\"%s\",\"status\":\"%s\","
      "\"trace\":\"%s\",\"cameras\":%s,\"bytes_in\":%llu,"
      "\"bytes_out\":%llu,\"total_ms\":%.3f,\"queue_ms\":%.3f,"
      "\"corpus_ms\":%.3f,\"rank_ms\":%.3f,\"fanout_ms\":%.3f,"
      "\"merge_ms\":%.3f,\"serialize_ms\":%.3f,\"journal_ms\":%.3f,"
      "\"snapshot_hit\":%s,\"slow\":%s}",
      static_cast<long long>(wall_ms), JsonEscape(record.role).c_str(),
      JsonEscape(record.node).c_str(), JsonEscape(record.cmd).c_str(),
      JsonEscape(record.session).c_str(), JsonEscape(record.engine).c_str(),
      JsonEscape(record.status).c_str(), JsonEscape(record.trace_id).c_str(),
      cameras.c_str(), static_cast<unsigned long long>(record.bytes_in),
      static_cast<unsigned long long>(record.bytes_out), record.total_ms,
      record.audit.queue_ms, record.audit.corpus_ms, record.audit.rank_ms,
      record.audit.fanout_ms, record.audit.merge_ms, record.audit.serialize_ms,
      record.audit.journal_ms,
      record.audit.snapshot_hit ? "true" : "false", slow ? "true" : "false");
}

AccessLog::~AccessLog() { Close(); }

double AccessLog::SlowThresholdFromEnv(double fallback_ms) {
  const char* env = std::getenv("MIVID_SLOW_QUERY_MS");
  if (env == nullptr || *env == '\0') return fallback_ms;
  char* end = nullptr;
  const double value = std::strtod(env, &end);
  if (end == env || *end != '\0' || value < 0) return fallback_ms;
  return value;
}

Status AccessLog::Open(const Options& options) {
  std::lock_guard<std::mutex> lock(mu_);
  rotate_bytes_ = options.rotate_bytes;
  slow_threshold_ms_ = options.slow_threshold_ms >= 0
                           ? options.slow_threshold_ms
                           : SlowThresholdFromEnv(500.0);
  auto open_sink = [](Sink* sink, const std::string& path) -> Status {
    sink->path = path;
    sink->file = std::fopen(path.c_str(), "a");
    if (sink->file == nullptr) {
      return Status::IOError("cannot open access log: " + path);
    }
    // "a" mode leaves the reported position unspecified until the first
    // write; seek explicitly so rotation accounting includes prior runs.
    std::fseek(sink->file, 0, SEEK_END);
    const long at = std::ftell(sink->file);
    sink->bytes = at > 0 ? static_cast<size_t>(at) : 0;
    return Status::OK();
  };
  if (!options.path.empty()) {
    MIVID_RETURN_IF_ERROR(open_sink(&access_, options.path));
  }
  if (!options.slow_path.empty()) {
    MIVID_RETURN_IF_ERROR(open_sink(&slow_, options.slow_path));
  }
  enabled_ = access_.file != nullptr || slow_.file != nullptr;
  return Status::OK();
}

void AccessLog::OpenOrWarn(const Options& options) {
  Status opened = Open(options);
  if (!opened.ok()) {
    MIVID_LOG(Warn) << "access log disabled: " << opened.ToString();
  }
}

void AccessLog::AppendLine(Sink* sink, const std::string& line) {
  if (sink->file == nullptr) return;
  if (sink->bytes + line.size() > rotate_bytes_ && sink->bytes > 0) {
    std::fclose(sink->file);
    const std::string rotated = sink->path + ".1";
    std::remove(rotated.c_str());
    std::rename(sink->path.c_str(), rotated.c_str());
    sink->file = std::fopen(sink->path.c_str(), "a");
    sink->bytes = 0;
    if (sink->file == nullptr) return;
  }
  // Single fwrite per line: stdio locks the stream per call, so lines
  // from concurrent request threads never interleave.
  std::fwrite(line.data(), 1, line.size(), sink->file);
  std::fflush(sink->file);
  sink->bytes += line.size();
}

void AccessLog::Write(const AccessRecord& record) {
  if (!enabled_) return;
  const bool slow = record.total_ms >= slow_threshold_ms_;
  const std::string line =
      FormatAccessRecord(record, WallMillis(), slow) + "\n";
  std::lock_guard<std::mutex> lock(mu_);
  AppendLine(&access_, line);
  if (slow) AppendLine(&slow_, line);
}

void AccessLog::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (access_.file != nullptr) std::fclose(access_.file);
  if (slow_.file != nullptr) std::fclose(slow_.file);
  access_ = Sink{};
  slow_ = Sink{};
  enabled_ = false;
}

AccessEnvelope::AccessEnvelope(AccessLog* log)
    : log_(log->enabled() ? log : nullptr) {
  if (log_ != nullptr) start_ = std::chrono::steady_clock::now();
}

void AccessEnvelope::Write(
    const char* role, const std::string& node, const ServeRequest& req,
    const ContextSpan& span, const std::string& line,
    const std::string& response,
    const std::function<SessionIdentity(const std::string&)>&
        resolve_session) {
  if (log_ == nullptr) return;
  AccessRecord record;
  record.role = role;
  record.node = node;
  record.cmd = ServeCmdWireName(req.cmd);
  record.session = req.session_id;
  record.engine = req.engine;
  record.status = ResponseStatusCode(response);
  record.trace_id = span.active() ? span.context().trace_id : req.trace_id;
  record.cameras = req.cameras;
  if (record.cameras.empty() && !req.camera_id.empty()) {
    record.cameras.push_back(req.camera_id);
  }
  // Session-addressed requests (rank, feedback, ...) name no camera on
  // the wire; resolve it from the live session so the log can answer
  // "which corpus was this slow query against" on its own.
  if ((record.cameras.empty() || record.engine.empty()) &&
      !req.session_id.empty()) {
    SessionIdentity session = resolve_session(req.session_id);
    if (record.cameras.empty()) record.cameras = std::move(session.cameras);
    if (record.engine.empty()) record.engine = std::move(session.engine);
  }
  record.bytes_in = line.size();
  record.bytes_out = response.size();
  record.total_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
  record.audit = audit_;
  log_->Write(record);
}

}  // namespace mivid
