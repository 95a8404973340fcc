#include "serve/daemon.h"

#include <optional>
#include <utility>

#include "obs/trace.h"

namespace mivid {

LineDaemon::LineDaemon(DaemonOptions options, DaemonRole role)
    : options_(std::move(options)),
      role_(std::move(role)),
      requests_(MetricsRegistry::Global().GetCounter(role_.requests_metric)),
      errors_(MetricsRegistry::Global().GetCounter(role_.errors_metric)),
      request_seconds_(
          role_.seconds_metric != nullptr
              ? &MetricsRegistry::Global().GetHistogram(role_.seconds_metric)
              : nullptr) {
  access_log_.OpenOrWarn({options_.access_log_path, options_.slow_log_path,
                          options_.slow_threshold_ms});
}

LineDaemon::~LineDaemon() { Stop(); }

Status LineDaemon::Start() {
  MIVID_RETURN_IF_ERROR(Prepare());
  transport_ = std::make_unique<LineTransport>(
      LineTransportOptions{.uds_path = options_.socket_path,
                           .tcp_host = options_.tcp_host,
                           .tcp_port = options_.tcp_port},
      [this](const std::string& line) { return HandleLine(line); },
      [this] { OnIdle(); });
  Status started = transport_->Start();
  if (!started.ok()) transport_.reset();
  return started;
}

void LineDaemon::Stop() {
  if (stopped_.exchange(true)) return;
  RequestShutdown();
  if (transport_ != nullptr) transport_->Stop();
  OnStop();
}

std::string LineDaemon::HandleLine(const std::string& line) {
  std::optional<ScopedHistogramTimer> timer;
  if (request_seconds_ != nullptr) timer.emplace(*request_seconds_);
  requests_.Increment();
  const std::chrono::steady_clock::time_point arrival =
      std::chrono::steady_clock::now();

  Result<ServeRequest> parsed = ParseServeRequest(line);
  if (!parsed.ok()) {
    errors_.Increment();
    return ErrorResponse(parsed.status());
  }
  const ServeRequest& req = parsed.value();

  // The request's root span: joins the context the sender stamped onto
  // the line (a client, or the coordinator relaying to a worker), or
  // roots a fresh trace. Inert when tracing is off.
  ContextSpan span(role_.span_name(req.cmd), req.trace_id, req.parent_span);

  // The audit (latency breakdown) only runs when an access log is
  // configured; disabled it costs one bool read and no clock reads.
  AccessEnvelope envelope(&access_log_);
  std::string response;
  {
    RequestAuditScope audit_scope(envelope.audit());
    response = Handle(DaemonRequest{req, line, span, arrival});
  }
  envelope.Write(role_.log_role, role_.node, req, span, line, response,
                 [this](const std::string& session_id) {
                   return ResolveSession(session_id);
                 });
  return response;
}

int LineDaemon::tcp_port() const {
  return transport_ != nullptr ? transport_->tcp_port() : -1;
}

void LineDaemon::RequestShutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  shutdown_requested_ = true;
  shutdown_cv_.notify_all();
}

bool LineDaemon::WaitForShutdownFor(int timeout_ms) {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  return shutdown_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                               [this] { return shutdown_requested_; });
}

std::string LineDaemon::ShutdownReply() {
  RequestShutdown();
  JsonLineBuilder out;
  out.Bool("ok", true).Str("cmd", "shutdown").Bool("shutting_down", true);
  return std::move(out).Build();
}

int64_t LineDaemon::UptimeSeconds() const {
  return std::chrono::duration_cast<std::chrono::seconds>(
             std::chrono::steady_clock::now() - start_time_)
      .count();
}

}  // namespace mivid
