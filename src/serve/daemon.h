// LineDaemon: the shell of both line daemons, the retrieval worker
// (RetrievalServer, `mivid_cli serve`) and the cluster coordinator
// (Coordinator, `mivid_cli coord`). It owns the listeners
// (LineTransport), the request envelope (count, parse, root
// ContextSpan, access-log audit and line) and the lifecycle. A role
// derives from it, names itself in a DaemonRole and fills the hooks. Its
// destructor calls Stop(), so no connection thread reaches a hook of a
// half-destroyed role.

#ifndef MIVID_SERVE_DAEMON_H_
#define MIVID_SERVE_DAEMON_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "obs/access_log.h"
#include "obs/metrics.h"
#include "serve/line_transport.h"
#include "serve/protocol.h"

namespace mivid {

class ContextSpan;  // obs/trace.h

/// Listeners and logs of one daemon, whichever its role.
struct DaemonOptions {
  std::string socket_path;  ///< Unix-domain listener; "" = none
  std::string tcp_host = "127.0.0.1";  ///< TCP bind address
  int tcp_port = -1;  ///< TCP listener; <0 = off, 0 = kernel-assigned
  /// Per-request JSON-lines access log (obs/access_log.h); "" = off.
  std::string access_log_path;
  /// Slow-query log: requests >= the slow threshold; "" = off.
  std::string slow_log_path;
  /// Slow threshold in ms; negative = MIVID_SLOW_QUERY_MS env (or 500).
  double slow_threshold_ms = -1.0;
};

/// What a role tells the shell about itself. Each role keeps its own
/// metric names; the shell resolves them once, at construction.
struct DaemonRole {
  const char* log_role;  ///< access-log "role": "worker" | "coordinator"
  std::string node;      ///< access-log "node"
  const char* (*span_name)(ServeCmd);  ///< the request's root span name
  const char* requests_metric;  ///< counter of every line received
  const char* errors_metric;    ///< counter of lines that do not parse
  const char* seconds_metric;   ///< histogram of line wall time; null = none
};

/// One parsed request, as the shell hands it to the role.
struct DaemonRequest {
  const ServeRequest& req;
  const std::string& line;  ///< the bytes as received
  const ContextSpan& span;  ///< the request's root span
  /// Before the parse: a wire deadline is spent from here.
  std::chrono::steady_clock::time_point arrival;
};

class LineDaemon {
 public:
  virtual ~LineDaemon();

  LineDaemon(const LineDaemon&) = delete;
  LineDaemon& operator=(const LineDaemon&) = delete;

  /// Runs Prepare, binds the configured listeners and starts accepting.
  Status Start();

  /// Closes the listeners and every connection, joins their threads,
  /// then runs OnStop. Idempotent.
  void Stop();

  /// Handles one request line and returns one response line (no
  /// trailing newline). Thread-safe: connection threads and in-process
  /// tests call it alike.
  std::string HandleLine(const std::string& line);

  /// The bound TCP port after Start() (resolves --tcp-port=0), or -1.
  int tcp_port() const;

  /// Asks the process to shut down (the `shutdown` command).
  void RequestShutdown();

  /// Waits up to `timeout_ms` for a shutdown request or Stop(); true when
  /// one came. A main loop interleaves its own checks with the wait.
  bool WaitForShutdownFor(int timeout_ms);

 protected:
  LineDaemon(DaemonOptions options, DaemonRole role);

  /// Seconds since construction.
  int64_t UptimeSeconds() const;

  /// Answers the `shutdown` command: requests shutdown and says so.
  std::string ShutdownReply();

  /// Validates the role's options (the listeners through
  /// ValidateListeners) and readies what requests need.
  virtual Status Prepare() = 0;
  /// Answers one parsed request, with its access-log audit installed.
  virtual std::string Handle(const DaemonRequest& request) = 0;
  /// A live session's cameras and engine, for the access log of a request
  /// that names neither.
  virtual SessionIdentity ResolveSession(const std::string& session_id) = 0;
  virtual void OnIdle() {}
  virtual void OnStop() {}

 private:
  const DaemonOptions options_;
  const DaemonRole role_;
  Counter& requests_;
  Counter& errors_;
  Histogram* const request_seconds_;  ///< null when the role is untimed
  AccessLog access_log_;
  std::unique_ptr<LineTransport> transport_;
  const std::chrono::steady_clock::time_point start_time_ =
      std::chrono::steady_clock::now();
  std::atomic<bool> stopped_{false};

  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
};

}  // namespace mivid

#endif  // MIVID_SERVE_DAEMON_H_
