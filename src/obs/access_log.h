// Structured per-request access log + slow-query log.
//
// Workers and the coordinator append one JSON line per request with the
// full latency breakdown (queue wait, corpus load, rank, fan-out, merge,
// serialize, journal), the session/camera/engine identity, byte counts,
// status, and the distributed trace id — enough to answer "where did this
// slow multi-camera query spend its time?" from the log alone. Requests
// slower than a threshold (MIVID_SLOW_QUERY_MS or an explicit option)
// are additionally appended to a separate slow-query log.
//
// Properties:
//  * One fwrite per line → lines from concurrent request threads never
//    interleave mid-line.
//  * Rotation-safe: when the log exceeds rotate_bytes it is renamed to
//    "<path>.1" (replacing any previous rotation) and a fresh file is
//    opened, so a long-lived daemon is bounded at ~2x rotate_bytes.
//  * Disabled (no path configured) the server skips the audit entirely:
//    no clocks are read and no thread-local is installed, preserving the
//    <2%-when-disabled overhead budget.
//
// RequestAudit is the collection half: a thread-local pointer installed
// for the duration of one request (on the thread that executes it —
// requests hop from the connection thread to a pool worker, so the
// scope is installed inside the pool task). Phase timers deep in the
// stack (corpus load, rank, merge) write into it without plumbing a
// context parameter through every layer; when no audit is installed
// they cost one thread-local null check.

#ifndef MIVID_OBS_ACCESS_LOG_H_
#define MIVID_OBS_ACCESS_LOG_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace mivid {

class ContextSpan;    // obs/trace.h
struct ServeRequest;  // serve/protocol.h

/// Latency breakdown of one request, filled by phase timers as the
/// request moves through the stack. All times in milliseconds.
struct RequestAudit {
  double queue_ms = 0.0;      ///< admission to execution start
  double corpus_ms = 0.0;     ///< corpus load (0 on cache hit)
  double rank_ms = 0.0;       ///< engine ranking
  double fanout_ms = 0.0;     ///< coordinator: first sub-request sent to
                              ///< last worker reply taken
  double merge_ms = 0.0;      ///< coordinator k-way merge
  double serialize_ms = 0.0;  ///< response building
  double journal_ms = 0.0;    ///< session journal append (feedback, save)
  bool snapshot_hit = false;  ///< corpus came from an mmap snapshot
};

/// The audit installed on this thread, or nullptr.
RequestAudit* CurrentRequestAudit();

/// Installs `audit` as the thread's current audit for the scope (null
/// restores "no audit"). Nests: the previous audit is restored on exit.
class RequestAuditScope {
 public:
  explicit RequestAuditScope(RequestAudit* audit);
  ~RequestAuditScope();

  RequestAuditScope(const RequestAuditScope&) = delete;
  RequestAuditScope& operator=(const RequestAuditScope&) = delete;

 private:
  RequestAudit* previous_;
};

/// Adds the scope's wall time to one RequestAudit field. Inert (no
/// clock read) when no audit is installed on this thread.
class AuditPhaseTimer {
 public:
  explicit AuditPhaseTimer(double RequestAudit::* field);
  ~AuditPhaseTimer();

  AuditPhaseTimer(const AuditPhaseTimer&) = delete;
  AuditPhaseTimer& operator=(const AuditPhaseTimer&) = delete;

 private:
  RequestAudit* audit_ = nullptr;
  double RequestAudit::* field_;
  uint64_t begin_ns_ = 0;
};

/// One access-log entry.
struct AccessRecord {
  std::string role;     ///< "worker" | "coordinator"
  std::string node;     ///< worker id / "coord"
  std::string cmd;
  std::string session;  ///< may be empty (ping, stats, ...)
  std::string engine;   ///< may be empty
  std::string status;   ///< "OK" or the wire error code
  std::string trace_id; ///< distributed trace id; empty when untraced
  std::vector<std::string> cameras;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  double total_ms = 0.0;
  RequestAudit audit;
};

/// Serializes `record` to its JSON line (no trailing newline). Exposed
/// for tests; `wall_ms` is the entry timestamp (Unix milliseconds).
std::string FormatAccessRecord(const AccessRecord& record, int64_t wall_ms,
                               bool slow);

/// Appends JSON lines to an access log and mirrors slow requests to a
/// slow-query log. Thread-safe; all methods may be called concurrently.
class AccessLog {
 public:
  struct Options {
    std::string path;          ///< access log; empty = access log off
    std::string slow_path;     ///< slow-query log; empty = slow log off
    /// Requests with total_ms >= threshold also go to slow_path.
    /// Negative = resolve from MIVID_SLOW_QUERY_MS (default 500 ms).
    double slow_threshold_ms = -1.0;
    size_t rotate_bytes = 64u << 20;  ///< per-file rotation size
  };

  AccessLog() = default;
  ~AccessLog();

  AccessLog(const AccessLog&) = delete;
  AccessLog& operator=(const AccessLog&) = delete;

  /// Opens the configured files (creating them). A no-path Options
  /// leaves the log disabled and Write a no-op.
  Status Open(const Options& options);

  /// Open for daemons: a file that cannot be opened leaves the log
  /// disabled with a warning, so the daemon still serves.
  void OpenOrWarn(const Options& options);

  /// True when at least one of the two logs is open.
  bool enabled() const { return enabled_; }

  /// The resolved slow threshold in milliseconds.
  double slow_threshold_ms() const { return slow_threshold_ms_; }

  /// Appends `record` (stamped with the current wall clock).
  void Write(const AccessRecord& record);

  /// Flushes and closes both files.
  void Close();

  /// MIVID_SLOW_QUERY_MS as a double, or `fallback_ms` when unset or
  /// unparsable.
  static double SlowThresholdFromEnv(double fallback_ms);

 private:
  struct Sink {
    std::FILE* file = nullptr;
    std::string path;
    size_t bytes = 0;
  };

  void AppendLine(Sink* sink, const std::string& line);

  std::mutex mu_;
  Sink access_;
  Sink slow_;
  size_t rotate_bytes_ = 64u << 20;
  double slow_threshold_ms_ = 500.0;
  bool enabled_ = false;
};

/// A session-addressed request's cameras and engine, read from the
/// daemon's live session state (the wire names neither).
struct SessionIdentity {
  std::vector<std::string> cameras;
  std::string engine;
};

/// The access-log envelope both daemons wrap around one parsed request:
/// it starts the clock, owns the audit the phase timers fill, and writes
/// the request's line once the response is built. Inert (no clock read)
/// when the log is disabled.
class AccessEnvelope {
 public:
  explicit AccessEnvelope(AccessLog* log);

  AccessEnvelope(const AccessEnvelope&) = delete;
  AccessEnvelope& operator=(const AccessEnvelope&) = delete;

  /// The audit to install for the request; nullptr when not logging.
  RequestAudit* audit() { return log_ != nullptr ? &audit_ : nullptr; }

  /// Writes the line for `req`, received as `line` and answered by
  /// `response`, under the daemon's `role` and `node`. The trace id is
  /// the request span's (or the wire's when tracing is off). When the
  /// request names no camera or engine and addresses a session,
  /// `resolve_session` fills the missing ones.
  void Write(const char* role, const std::string& node,
             const ServeRequest& req, const ContextSpan& span,
             const std::string& line, const std::string& response,
             const std::function<SessionIdentity(const std::string&)>&
                 resolve_session);

 private:
  AccessLog* log_;  ///< null when the log is disabled
  RequestAudit audit_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace mivid

#endif  // MIVID_OBS_ACCESS_LOG_H_
