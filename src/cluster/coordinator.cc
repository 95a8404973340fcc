#include "cluster/coordinator.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <future>
#include <optional>
#include <set>

#include "cluster/merger.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/version.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/metrics_wire.h"
#include "obs/trace.h"
#include "obs/trace_stitch.h"

namespace mivid {

namespace {

/// The trace context of the request being handled on this thread (set by
/// HandleLine for the duration of one request). Fan-out lines built deep
/// in the command handlers read it instead of threading a parameter
/// through every layer.
thread_local const TraceContext* t_request_trace = nullptr;

struct RequestTraceScope {
  const TraceContext* previous;
  explicit RequestTraceScope(const TraceContext* context)
      : previous(t_request_trace) {
    if (context != nullptr) t_request_trace = context;
  }
  ~RequestTraceScope() { t_request_trace = previous; }
};

/// Stamps the current request's trace context onto a fan-out line under
/// construction, so the worker's span parents under the coordinator's.
void StampRequestTrace(JsonLineBuilder& line) {
  if (t_request_trace != nullptr) {
    line.Str("trace", t_request_trace->trace_id)
        .Str("span", t_request_trace->span_id);
  }
}

/// A child span of the request being handled on this thread, installed
/// as the request's trace context for its lifetime: fan-out lines built
/// inside it parent their worker spans under it. Inert when untraced.
struct RequestChildSpan {
  ContextSpan span;
  RequestTraceScope scope;
  explicit RequestChildSpan(const char* name)
      : span(name,
             t_request_trace != nullptr ? t_request_trace->trace_id
                                        : std::string(),
             t_request_trace != nullptr ? t_request_trace->span_id
                                        : std::string()),
        scope(span.active() ? &span.context() : nullptr) {}
};

/// The line the coordinator builds for one sub-session:
/// {"cmd":<wire>,"session":<sub_id>,<fields>...}, stamped with the
/// request's trace context and, when `deadline` is finite, its remaining
/// budget (so the worker can shed the line if it expires in the queue).
std::string SubLine(
    ServeCmd cmd, const std::string& sub_id, const Deadline& deadline,
    const std::function<void(JsonLineBuilder&)>& fields = nullptr) {
  JsonLineBuilder line;
  line.Str("cmd", ServeCmdWireName(cmd)).Str("session", sub_id);
  if (fields) fields(line);
  StampRequestTrace(line);
  if (!deadline.infinite()) {
    const int64_t remaining = deadline.remaining_ms();
    line.Int("deadline_ms", remaining > 0 ? remaining : 1);
  }
  return std::move(line).Build();
}

/// Unwraps one sub-session's reply to `cmd`. A reply that is not
/// {"ok":true,...} fails as "<cmd> on camera '<camera>' failed: <worker
/// error>" (open keeps its own wording and code).
Result<JsonValue> UnwrapSubReply(ServeCmd cmd, const std::string& camera,
                                 WorkerReply reply) {
  if (reply.ok) return std::move(reply.doc);
  if (cmd == ServeCmd::kOpen) {
    return Status::FailedPrecondition("open of camera '" + camera +
                                      "' failed: " + reply.error);
  }
  return Status::Internal(std::string(ServeCmdWireName(cmd)) +
                          " on camera '" + camera + "' failed: " +
                          reply.error);
}

/// reply[key] as a count: an int, 0 when absent or not an int. Counts
/// are read as int (bag ids are ints, so no count exceeds one) so that
/// summing them over a session's cameras cannot overflow int64_t.
int64_t CountOf(const JsonValue& reply, std::string_view key) {
  const JsonValue* v = reply.Find(key);
  return v != nullptr ? v->Int<int>().value_or(0) : 0;
}

/// reply[key] is the boolean true.
bool IsTrue(const JsonValue& reply, std::string_view key) {
  const JsonValue* v = reply.Find(key);
  return v != nullptr && v->type == JsonValue::Type::kBool && v->bool_value;
}

}  // namespace

WorkerReply ReadWorkerReply(std::string line) {
  WorkerReply reply;
  reply.line = std::move(line);
  Result<JsonValue> doc = ParseJson(reply.line);
  if (doc.ok()) {
    reply.parsed = true;
    reply.doc = std::move(doc).value();
    reply.ok = IsTrue(reply.doc, "ok");
  }
  if (reply.ok) {
    reply.code = "OK";
    return reply;
  }
  const JsonValue* code = reply.doc.Find("code");
  const JsonValue* error = reply.doc.Find("error");
  reply.code = code != nullptr && code->is_string() ? code->string : "";
  reply.error =
      error != nullptr && error->is_string() ? error->string : reply.line;
  return reply;
}

Status ReadRankReply(const JsonValue& reply, const std::string& camera,
                     std::vector<ClusterScoredBag>* part, int64_t* total) {
  *total += CountOf(reply, "total");
  const JsonValue* ranking = reply.Find("ranking");
  if (ranking == nullptr || !ranking->is_array()) return Status::OK();
  part->reserve(part->size() + ranking->array.size());
  for (size_t i = 0; i < ranking->array.size(); ++i) {
    const JsonValue& item = ranking->array[i];
    const JsonValue* bag = item.Find("bag");
    const JsonValue* score = item.Find("score");
    const std::optional<int> bag_id =
        bag != nullptr ? bag->Int<int>() : std::nullopt;
    if (!bag_id || score == nullptr || !score->is_number() ||
        !std::isfinite(score->number)) {
      return Status::DataLoss(StrFormat(
          "rank on camera '%s' failed: ranking item %zu has no int bag and "
          "finite score",
          camera.c_str(), i));
    }
    part->push_back(ClusterScoredBag{camera, *bag_id, score->number});
  }
  return Status::OK();
}

Status ValidateCoordinatorOptions(const CoordinatorOptions& options) {
  MIVID_RETURN_IF_ERROR(
      ValidateListeners(options.daemon.socket_path, options.daemon.tcp_port));
  if (options.workers.empty()) {
    return Status::InvalidArgument(
        "a coordinator needs at least one worker endpoint (--workers)");
  }
  std::set<std::string> seen;
  for (const std::string& endpoint : options.workers) {
    if (endpoint.empty()) {
      return Status::InvalidArgument("empty worker endpoint");
    }
    if (!seen.insert(endpoint).second) {
      return Status::InvalidArgument("duplicate worker endpoint: " +
                                     endpoint);
    }
  }
  if (options.top_n <= 0) {
    return Status::InvalidArgument("top_n must be positive");
  }
  if (options.heartbeat_ms < 0) {
    return Status::InvalidArgument("heartbeat_ms must be >= 0");
  }
  if (options.rpc_deadline_ms < 0) {
    return Status::InvalidArgument("rpc_deadline_ms must be >= 0");
  }
  if (options.replication < 1) {
    return Status::InvalidArgument("replication must be >= 1");
  }
  return Status::OK();
}

Coordinator::Coordinator(CoordinatorOptions options)
    : LineDaemon(options.daemon,
                 {"coordinator",
                  GetLogIdentity().empty() ? "coord" : GetLogIdentity(),
                  ServeCmdCoordSpanName, "cluster/requests", "cluster/errors",
                  /*seconds_metric=*/nullptr}),
      options_(std::move(options)),
      registry_(options_.workers),
      ring_(options_.virtual_nodes),
      last_heartbeat_(std::chrono::steady_clock::now()) {}

Coordinator::~Coordinator() { Stop(); }

Status Coordinator::Prepare() {
  MIVID_RETURN_IF_ERROR(ValidateCoordinatorOptions(options_));
  MIVID_RETURN_IF_ERROR(registry_.ConnectAll());
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    for (const std::string& endpoint : options_.workers) {
      ring_.Add(endpoint);
    }
  }
  MIVID_METRIC_GAUGE_SET("cluster/workers_alive", WorkersAlive());
  return Status::OK();
}

size_t Coordinator::session_count() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return sessions_.size();
}

std::string Coordinator::Handle(const DaemonRequest& request) {
  const ServeRequest& req = request.req;
  const ContextSpan& span = request.span;
  // The root span is the cluster-wide parent of everything the request
  // touches. When the client supplied no context, every line relayed or
  // fanned out below is stamped with it, so worker spans nest under the
  // coordinator's in the stitched fleet timeline.
  RequestTraceScope trace_scope(span.active() ? &span.context() : nullptr);
  const std::string* relay = &request.line;
  std::string stamped;
  if (span.active() && req.trace_id.empty()) {
    // Only lines that carried no context are stamped: a duplicate
    // "trace" key would shadow the client's ids (Find returns the first
    // member), so client-supplied contexts are relayed untouched.
    stamped = StampTraceContext(request.line, span.context().trace_id,
                                span.context().span_id);
    relay = &stamped;
  }

  // Effective budget for every worker hop this request makes: the
  // smaller of the client's own deadline and the coordinator's per-hop
  // ceiling. Relayed lines that carried no deadline are stamped with the
  // ceiling so workers can shed the request if it expires in their queue.
  const Deadline deadline = HopDeadline().ClampedToMs(req.deadline_ms);
  if (req.deadline_ms == 0 && options_.rpc_deadline_ms > 0) {
    stamped = StampDeadlineMs(*relay, options_.rpc_deadline_ms);
    relay = &stamped;
  }
  return Route(req, *relay, deadline);
}

SessionIdentity Coordinator::ResolveSession(const std::string& session_id) {
  // Session-addressed requests name no camera on the wire; recover the
  // fan-out from the routed session so a slow multi-camera rank logs
  // which corpora it touched. (The request is already answered — this
  // lock is uncontended bookkeeping, and close has simply dropped the
  // session, leaving the list empty.)
  SessionIdentity identity;
  if (std::shared_ptr<CoordSession> session = FindSession(session_id)) {
    std::lock_guard<std::mutex> session_lock(session->mu);
    identity.engine = session->engine;
    identity.cameras = session->cameras();
  }
  return identity;
}

std::string Coordinator::Route(const ServeRequest& req,
                               const std::string& line,
                               const Deadline& deadline) {
  switch (req.cmd) {
    case ServeCmd::kOpen:
      return CmdOpen(req, line, deadline);
    case ServeCmd::kRank: {
      MIVID_SCOPED_TIMER("cluster/rank_seconds");
      return CmdSession(req, line, deadline);
    }
    case ServeCmd::kFeedback:
    case ServeCmd::kSave:
    case ServeCmd::kClose:
    case ServeCmd::kRefresh:
      return CmdSession(req, line, deadline);
    case ServeCmd::kIngest:
    case ServeCmd::kPublish:
      return CmdCameraForward(req, line, deadline);
    case ServeCmd::kStats:
      return CmdStats();
    case ServeCmd::kPing:
      return CmdPing();
    case ServeCmd::kMetrics: {
      // The coordinator's own registry snapshot (fleet rollup lives
      // under cluster_stats).
      JsonLineBuilder out;
      out.Bool("ok", true)
          .Str("cmd", "metrics")
          .Str("role", "coordinator")
          .Str("version", kMividVersion)
          .Bool("metrics_enabled", MetricsEnabled())
          .Int("uptime_s", UptimeSeconds())
          .Raw("metrics", MetricsSnapshotToWireJson(
                              MetricsRegistry::Global().Snapshot()));
      return std::move(out).Build();
    }
    case ServeCmd::kClusterStats:
      return CmdClusterStats();
    case ServeCmd::kTraceDump:
      return CmdTraceDump();
    case ServeCmd::kShutdown:
      return ShutdownReply();
  }
  return ErrorResponse(Status::Internal("unhandled command"));
}

std::shared_ptr<Coordinator::CoordSession> Coordinator::FindSession(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

std::string Coordinator::OpenLineFor(const CoordSession& session,
                                     const SubSession& sub) const {
  return SubLine(ServeCmd::kOpen, sub.sub_id, Deadline(),
                 [&](JsonLineBuilder& line) {
                   line.Str("camera", sub.camera);
                   if (!session.engine.empty()) {
                     line.Str("engine", session.engine);
                   }
                 });
}

Result<std::vector<std::string>> Coordinator::PlaceCamera(
    const std::string& camera) {
  std::lock_guard<std::mutex> lock(ring_mu_);
  std::vector<std::string> owners =
      ring_.Owners(camera, static_cast<size_t>(options_.replication));
  if (owners.empty()) {
    return Status::FailedPrecondition("placement ring has no live workers");
  }
  return owners;
}

Result<WorkerReply> Coordinator::CallWorker(WorkerConn& worker,
                                            const std::string& line,
                                            const Deadline& deadline) {
  MIVID_ASSIGN_OR_RETURN(std::string bytes,
                         registry_.Call(worker, line, deadline));
  return ReadWorkerReply(std::move(bytes));
}

Result<WorkerReply> Coordinator::CallSub(CoordSession& session,
                                         SubSession& sub,
                                         const std::string& line,
                                         const Deadline& deadline,
                                         bool prefer_fastest) {
  bool saw_malformed = false;
  bool prior_deadline_miss = false;
  bool resume_attempted = false;
  const auto out_of_budget = [&sub] {
    return Status::DeadlineExceeded(
        "deadline exhausted while failing over camera '" + sub.camera + "'");
  };
  // `which` says what was searched for: live replicas or usable owners.
  const auto no_replica = [&sub, &saw_malformed](const char* which) {
    return saw_malformed
               ? Status::DataLoss("camera '" + sub.camera + "' has no " +
                                  which +
                                  " replica and the last reply was corrupt")
               : Status::FailedPrecondition(
                     "no live workers left for camera '" + sub.camera + "'");
  };
  for (;;) {
    // This round's candidates: the sub's live replicas, primary-first
    // (or fastest-first for rank — EWMA is a relaxed read, so ties and
    // staleness only cost a slightly worse ordering).
    std::vector<WorkerConn*> live;
    for (const std::string& endpoint : sub.workers) {
      WorkerConn* worker = registry_.Find(endpoint);
      if (worker != nullptr &&
          worker->alive.load(std::memory_order_acquire)) {
        live.push_back(worker);
      }
    }
    if (prefer_fastest && live.size() > 1) {
      std::stable_sort(live.begin(), live.end(),
                       [](WorkerConn* a, WorkerConn* b) {
                         return a->ewma_us.load(std::memory_order_relaxed) <
                                b->ewma_us.load(std::memory_order_relaxed);
                       });
    }

    for (size_t i = 0; i < live.size(); ++i) {
      WorkerConn* worker = live[i];
      if (deadline.expired()) return out_of_budget();
      // Split the remaining budget evenly over the replicas not yet
      // tried, plus one share held in reserve for failover: a hung
      // replica burns one slice, never the whole budget, so the hedged
      // retry — or a re-open on a fresh owner — still has time to
      // answer.
      Deadline attempt = deadline;
      if (!deadline.infinite()) {
        int64_t slice = deadline.remaining_ms() /
                        static_cast<int64_t>(live.size() - i + 1);
        if (slice < 10) slice = 10;
        attempt = deadline.ClampedToMs(slice);
      }
      if (prior_deadline_miss && prefer_fastest) {
        MIVID_METRIC_COUNT("cluster/hedged_ranks", 1);
      }
      prior_deadline_miss = false;
      Result<WorkerReply> response = CallWorker(*worker, line, attempt);
      if (response.ok()) {
        // A reply we cannot parse means the stream is corrupt
        // (truncated write, desynced framing): treat the worker like a
        // dead one, but remember that bytes were lost in case no
        // replica can answer.
        if (response->parsed) {
          // A live worker answering NOT_FOUND for a session the
          // coordinator is actively routing has restarted since the
          // sub-session was opened (a supervised respawn on the same
          // endpoint): its process is fresh, its in-memory sessions are
          // gone. Re-open in place — journal replay reconstructs the
          // exact pre-crash state — and retry the request once.
          if (!resume_attempted && response->code == "NOT_FOUND") {
            resume_attempted = true;
            Result<WorkerReply> reopened =
                CallWorker(*worker, OpenLineFor(session, sub), attempt);
            if (reopened.ok() && reopened->ok) {
              MIVID_METRIC_COUNT("cluster/sessions_resumed", 1);
              MIVID_LOG(Info)
                  << "session '" << sub.sub_id
                  << "' resumed on restarted worker " << worker->endpoint;
              Result<WorkerReply> retried = CallWorker(*worker, line, attempt);
              if (retried.ok() && retried->parsed) return retried;
            }
          }
          return response;
        }
        MIVID_LOG(Warn) << "worker " << worker->endpoint
                        << " sent a malformed reply; marking dead";
        MIVID_METRIC_COUNT("cluster/malformed_replies", 1);
        registry_.MarkDead(*worker);
        saw_malformed = true;
      } else if (response.status().IsDeadlineExceeded()) {
        prior_deadline_miss = true;
      }
      // The replica is unusable (dead, timed out, or desynced): drop it
      // from the ring so placement stops handing it out. The heartbeat
      // re-admits it when it answers again.
      DropFromRing(worker->endpoint);
    }
    MIVID_METRIC_GAUGE_SET("cluster/workers_alive", WorkersAlive());

    // Every current replica is gone. Re-place the camera on the ring
    // and resume the sub-session on the new owners: workers share one
    // database, so a new owner replays the feedback journal and
    // reconstructs the exact pre-crash session state.
    if (deadline.expired()) return out_of_budget();
    Result<std::vector<std::string>> placed = PlaceCamera(sub.camera);
    if (!placed.ok()) return no_replica("live");
    std::vector<std::string> owners = std::move(placed).value();
    // Drop owners we already burned this round (all of sub.workers).
    owners.erase(std::remove_if(owners.begin(), owners.end(),
                                [&sub](const std::string& endpoint) {
                                  return std::find(sub.workers.begin(),
                                                   sub.workers.end(),
                                                   endpoint) !=
                                         sub.workers.end();
                                }),
                 owners.end());
    if (owners.empty()) return no_replica("usable");
    const std::string open_line = OpenLineFor(session, sub);
    std::vector<std::string> reopened;
    for (const std::string& endpoint : owners) {
      // Dialing a healthy worker with an exhausted budget would make it
      // look dead; report the timeout instead of spreading it.
      if (deadline.expired()) return out_of_budget();
      WorkerConn* next = registry_.Find(endpoint);
      if (next == nullptr) continue;
      Result<WorkerReply> opened = CallWorker(*next, open_line, deadline);
      if (!opened.ok()) {
        DropFromRing(endpoint);
        continue;
      }
      if (!opened->parsed) {
        // Corrupt re-open reply: same treatment as a corrupt call reply.
        MIVID_METRIC_COUNT("cluster/malformed_replies", 1);
        registry_.MarkDead(*next);
        saw_malformed = true;
        DropFromRing(endpoint);
        continue;
      }
      if (!opened->ok) {
        return Status::FailedPrecondition("failover re-open of '" +
                                          sub.sub_id + "' on " + endpoint +
                                          " failed: " + opened->error);
      }
      reopened.push_back(endpoint);
    }
    if (reopened.empty()) continue;  // keep walking the ring
    MIVID_LOG(Warn) << "session " << sub.sub_id << " failed over "
                    << (sub.workers.empty() ? std::string("<none>")
                                            : sub.workers[0])
                    << " -> " << reopened[0];
    sub.workers = std::move(reopened);
    MIVID_METRIC_COUNT("cluster/sessions_failed_over", 1);
    // Loop retries the original request on the new home.
  }
}

Result<WorkerReply> Coordinator::MirrorSub(CoordSession& session,
                                          SubSession& sub,
                                          const std::string& line,
                                          const Deadline& deadline) {
  Result<WorkerReply> primary = CallSub(session, sub, line, deadline);
  if (!primary.ok()) return primary;
  // Best-effort mirror keeps the other replicas' in-memory session state
  // in sync so rank can be served from any of them. Journaling is
  // idempotent (each replica appends the same full-state record to the
  // shared journal, whose last whole record is what resumes), so
  // replaying the same write on every replica converges. A
  // replica that cannot keep up is dropped from the sub's replica set;
  // the next failover re-places the camera and re-opens it.
  for (size_t i = 1; i < sub.workers.size();) {
    WorkerConn* worker = registry_.Find(sub.workers[i]);
    Result<WorkerReply> mirrored =
        worker != nullptr && worker->alive.load(std::memory_order_acquire)
            ? CallWorker(*worker, line, deadline)
            : Result<WorkerReply>(
                  Status::IOError("replica is not connected"));
    if (mirrored.ok() && mirrored->ok) {
      ++i;
      continue;
    }
    MIVID_LOG(Warn) << "dropping replica " << sub.workers[i] << " of "
                    << sub.sub_id << ": mirror failed ("
                    << (mirrored.ok() ? mirrored->error
                                      : mirrored.status().message())
                    << ")";
    MIVID_METRIC_COUNT("cluster/mirror_failures", 1);
    sub.workers.erase(sub.workers.begin() + static_cast<long>(i));
  }
  return primary;
}

std::string Coordinator::CmdOpen(const ServeRequest& req,
                                 const std::string& line,
                                 const Deadline& deadline) {
  const bool multi = !req.cameras.empty();
  if (!multi && req.camera_id.empty()) {
    return ErrorResponse(
        Status::InvalidArgument("open requires a camera (or cameras)"));
  }

  std::shared_ptr<CoordSession> session;
  std::unique_lock<std::mutex> session_lock;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      std::shared_ptr<CoordSession>& slot = sessions_[req.session_id];
      if (slot == nullptr) {
        slot = std::make_shared<CoordSession>();
        slot->id = req.session_id;
        slot->engine = req.engine;
        slot->multi = multi;
      }
      session = slot;
    }
    session_lock = std::unique_lock<std::mutex>(session->mu);
    if (FindSession(req.session_id) == session) break;
    // A failed open or a close dropped the session while this request
    // waited for it: start over with a fresh one.
    session_lock.unlock();
  }
  if (session->multi != multi) {
    return ErrorResponse(Status::AlreadyExists(
        "session '" + req.session_id +
        "' is already open with a different camera layout"));
  }

  if (!multi) {
    // Single-camera: passthrough. The worker's response is relayed
    // byte-for-byte, so clients cannot tell the fleet from one process.
    // The same open line is mirrored to the camera's other replicas so
    // any of them can serve rank.
    if (session->subs.empty()) {
      Result<std::vector<std::string>> placed = PlaceCamera(req.camera_id);
      if (!placed.ok()) {
        DropSession(*session);
        return ErrorResponse(placed.status());
      }
      session->subs.push_back(SubSession{
          req.camera_id, std::move(placed).value(), req.session_id});
    } else if (session->subs[0].camera != req.camera_id) {
      return ErrorResponse(Status::AlreadyExists(
          "session '" + req.session_id + "' is already open on camera '" +
          session->subs[0].camera + "'"));
    }
    Result<WorkerReply> response =
        MirrorSub(*session, session->subs[0], line, deadline);
    if (!response.ok()) {
      DropSession(*session);
      return ErrorResponse(response.status());
    }
    if (!response->ok) DropSession(*session);
    return std::move(response->line);
  }

  // Multi-camera: one sub-session per camera on that camera's owners.
  if (session->subs.empty()) {
    for (const std::string& camera : req.cameras) {
      const std::string sub_id = req.session_id + "-" + camera;
      if (!ValidSessionId(sub_id)) {
        DropSession(*session);
        return ErrorResponse(Status::InvalidArgument(
            "camera '" + camera + "' does not yield a valid sub-session "
            "id ('" + sub_id + "' must be 1..64 chars of [A-Za-z0-9._-])"));
      }
      Result<std::vector<std::string>> placed = PlaceCamera(camera);
      if (!placed.ok()) {
        DropSession(*session);
        return ErrorResponse(placed.status());
      }
      session->subs.push_back(
          SubSession{camera, std::move(placed).value(), sub_id});
    }
  }

  Result<std::vector<JsonValue>> replies = FanOut(
      *session, ServeCmd::kOpen,
      [&](const SubSession& sub) { return OpenLineFor(*session, sub); },
      deadline);
  if (!replies.ok()) {
    DropSession(*session);
    return ErrorResponse(replies.status());
  }
  int64_t total_bags = 0;
  bool resumed = false;
  for (const JsonValue& reply : replies.value()) {
    total_bags += CountOf(reply, "bags");
    resumed = resumed || IsTrue(reply, "resumed");
  }

  JsonLineBuilder out;
  out.Bool("ok", true)
      .Str("cmd", "open")
      .Str("session", session->id)
      .StrList("cameras", session->cameras())
      .Str("engine", session->engine)
      .Int("bags", total_bags)
      .Bool("resumed", resumed);
  return std::move(out).Build();
}

std::string Coordinator::CmdSession(const ServeRequest& req,
                                    const std::string& line,
                                    const Deadline& deadline) {
  std::shared_ptr<CoordSession> session = FindSession(req.session_id);
  std::unique_lock<std::mutex> session_lock;
  if (session != nullptr) {
    session_lock = std::unique_lock<std::mutex>(session->mu);
  }
  // An open that could not place its cameras is visible here until it
  // drops the session again, and a request that found a session just
  // before a close drop gets it after the drop: both have no subs.
  if (session == nullptr || session->subs.empty()) {
    return ErrorResponse(
        Status::NotFound("session '" + req.session_id + "' is not open"));
  }

  if (session->multi) {
    switch (req.cmd) {
      case ServeCmd::kRank:
        return MultiRank(req, *session, deadline);
      case ServeCmd::kFeedback:
        return MultiFeedback(req, *session, deadline);
      case ServeCmd::kRefresh:
        return MultiRefresh(*session, deadline);
      default:
        return MultiSaveOrClose(req, *session, deadline);
    }
  }
  // Single-camera: the line is relayed byte-for-byte. rank goes to the
  // fastest live replica; the writes — and refresh, which re-pins
  // in-memory state — are mirrored to every replica, keeping rank
  // consistent whichever replica answers.
  Result<WorkerReply> relayed =
      req.cmd == ServeCmd::kRank
          ? CallSub(*session, session->subs[0], line, deadline,
                    /*prefer_fastest=*/true)
          : MirrorSub(*session, session->subs[0], line, deadline);
  if (!relayed.ok()) return ErrorResponse(relayed.status());
  if (req.cmd == ServeCmd::kClose && relayed->ok) DropSession(*session);
  return std::move(relayed->line);
}

Result<std::vector<JsonValue>> Coordinator::FanOut(
    CoordSession& session, ServeCmd cmd,
    const std::function<std::string(const SubSession&)>& line_for,
    const Deadline& deadline) {
  AuditPhaseTimer fanout_phase(&RequestAudit::fanout_ms);
  std::vector<JsonValue> replies(session.subs.size());
  for (size_t i = 0; i < session.subs.size(); ++i) {
    SubSession& sub = session.subs[i];
    const std::string line = line_for(sub);
    if (line.empty()) continue;
    Result<WorkerReply> response = MirrorSub(session, sub, line, deadline);
    if (!response.ok()) return response.status();
    MIVID_ASSIGN_OR_RETURN(
        replies[i],
        UnwrapSubReply(cmd, sub.camera, std::move(response).value()));
  }
  return replies;
}

void Coordinator::DropSession(CoordSession& session) {
  session.subs.clear();
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(session.id);
  if (it != sessions_.end() && it->second.get() == &session) {
    sessions_.erase(it);
  }
}

std::string Coordinator::MultiRank(const ServeRequest& req,
                                   CoordSession& session,
                                   const Deadline& deadline) {
  // Scatter: every sub-session ranks its own corpus in parallel (calls
  // to distinct workers overlap; the per-worker connection mutex
  // serializes subs that share a worker). Each worker returns its exact
  // per-corpus top-k, so merging and truncating is exact (cluster/merger.h).
  const size_t k = req.top == 0   ? static_cast<size_t>(options_.top_n)
                   : req.top > 0 ? static_cast<size_t>(req.top)
                                 : 0;  // full ranking
  const int64_t top = req.top < 0 ? -1 : static_cast<int64_t>(k);
  MIVID_METRIC_COUNT("cluster/fanout_requests",
                     static_cast<int64_t>(session.subs.size()));
  std::vector<std::vector<ClusterScoredBag>> parts;
  parts.reserve(session.subs.size());
  std::vector<std::string> missing_cameras;
  int64_t total = 0;
  {
    // The scatter-gather half of the request gets its own child span;
    // fan-out lines are stamped with it, so per-worker rank spans nest
    // under coord/scatter in the stitched timeline.
    RequestChildSpan scatter_span("coord/scatter");
    AuditPhaseTimer fanout_phase(&RequestAudit::fanout_ms);
    std::vector<std::future<Result<WorkerReply>>> futures;
    futures.reserve(session.subs.size());
    for (SubSession& sub : session.subs) {
      futures.push_back(std::async(
          std::launch::async,
          [this, &session, &sub, deadline,
           request = SubLine(ServeCmd::kRank, sub.sub_id, deadline,
                             [top](JsonLineBuilder& line) {
                               line.Int("top", top);
                             })] {
            return CallSub(session, sub, request, deadline,
                           /*prefer_fastest=*/true);
          }));
    }

    for (size_t i = 0; i < futures.size(); ++i) {
      Result<WorkerReply> response = futures[i].get();
      const std::string& camera = session.subs[i].camera;
      if (!response.ok()) {
        // Every replica of this camera is gone (or out of budget).
        // Degrade instead of failing the whole request: the surviving
        // cameras' merged ranking is still exact for the corpora it
        // covers, and the response says which cameras are missing.
        MIVID_LOG(Warn) << "rank degrading without camera '" << camera
                        << "': " << response.status().ToString();
        missing_cameras.push_back(camera);
        continue;
      }
      Result<JsonValue> doc =
          UnwrapSubReply(ServeCmd::kRank, camera, std::move(response).value());
      std::vector<ClusterScoredBag> part;
      Status read = doc.ok() ? ReadRankReply(doc.value(), camera, &part, &total)
                             : doc.status();
      if (!read.ok()) {
        for (size_t j = i + 1; j < futures.size(); ++j) futures[j].wait();
        return ErrorResponse(read);
      }
      parts.push_back(std::move(part));
    }
  }
  if (missing_cameras.size() == session.subs.size()) {
    return ErrorResponse(Status::FailedPrecondition(
        "no live workers left for any camera of session '" + session.id +
        "'"));
  }

  std::vector<ClusterScoredBag> merged;
  {
    RequestChildSpan merge_span("coord/merge");
    AuditPhaseTimer merge_phase(&RequestAudit::merge_ms);
    merged = MergeTopK(std::move(parts), k);
  }

  AuditPhaseTimer serialize_phase(&RequestAudit::serialize_ms);
  std::string items = "[";
  for (size_t i = 0; i < merged.size(); ++i) {
    if (i > 0) items += ',';
    items += "{\"camera\":\"";
    items += JsonEscape(merged[i].camera);
    items += "\",\"bag\":";
    AppendInt(&items, merged[i].bag_id);
    items += ",\"score\":";
    AppendDouble(&items, merged[i].score);
    items += '}';
  }
  items += ']';

  JsonLineBuilder out;
  out.Bool("ok", true)
      .Str("cmd", "rank")
      .Str("session", session.id)
      .Int("cameras", static_cast<int64_t>(session.subs.size()))
      .Int("total", total)
      .Raw("ranking", items);
  if (!missing_cameras.empty()) {
    MIVID_METRIC_COUNT("cluster/degraded_responses", 1);
    JsonLineBuilder degraded;
    degraded.StrList("missing_cameras", missing_cameras);
    out.Raw("degraded", std::move(degraded).Build());
  }
  return std::move(out).Build();
}

std::string Coordinator::MultiFeedback(const ServeRequest& req,
                                       CoordSession& session,
                                       const Deadline& deadline) {
  // Group labels by camera, preserving input order within each group,
  // and check every camera before any sub-session is touched.
  std::map<std::string, std::string> per_camera;  // camera -> label items
  for (size_t i = 0; i < req.labels.size(); ++i) {
    const std::string& camera = req.label_cameras[i];
    if (camera.empty()) {
      return ErrorResponse(Status::InvalidArgument(
          "label entries in a multi-camera session need a \"camera\""));
    }
    std::string& items = per_camera[camera];
    if (!items.empty()) items += ',';
    items += StrFormat("{\"bag\":%d,\"label\":\"%s\"}", req.labels[i].first,
                       BagLabelWireName(req.labels[i].second));
  }
  const std::vector<std::string> cameras = session.cameras();
  for (const auto& [camera, items] : per_camera) {
    if (std::find(cameras.begin(), cameras.end(), camera) == cameras.end()) {
      return ErrorResponse(Status::InvalidArgument(
          "camera '" + camera + "' is not part of session '" + session.id +
          "'"));
    }
  }

  Result<std::vector<JsonValue>> replies = FanOut(
      session, ServeCmd::kFeedback,
      [&](const SubSession& sub) {
        auto it = per_camera.find(sub.camera);
        if (it == per_camera.end()) return std::string();
        return SubLine(ServeCmd::kFeedback, sub.sub_id, deadline,
                       [&](JsonLineBuilder& line) {
                         line.Raw("labels", "[" + it->second + "]");
                       });
      },
      deadline);
  if (!replies.ok()) return ErrorResponse(replies.status());
  int64_t labeled = 0;
  for (const JsonValue& reply : replies.value()) {
    labeled += CountOf(reply, "labeled");
  }

  JsonLineBuilder out;
  out.Bool("ok", true)
      .Str("cmd", "feedback")
      .Str("session", session.id)
      .Int("labeled", labeled)
      .Bool("journaled", true);
  return std::move(out).Build();
}

std::string Coordinator::MultiSaveOrClose(const ServeRequest& req,
                                          CoordSession& session,
                                          const Deadline& deadline) {
  const bool closing = req.cmd == ServeCmd::kClose;
  Result<std::vector<JsonValue>> replies = FanOut(
      session, req.cmd,
      [&](const SubSession& sub) {
        return SubLine(req.cmd, sub.sub_id, deadline,
                       [&](JsonLineBuilder& line) {
                         if (closing) line.Bool("discard", req.discard);
                       });
      },
      deadline);
  if (!replies.ok()) return ErrorResponse(replies.status());
  JsonLineBuilder out;
  out.Bool("ok", true)
      .Str("cmd", ServeCmdWireName(req.cmd))
      .Str("session", session.id)
      .Int("cameras", static_cast<int64_t>(session.subs.size()));
  if (closing) {
    out.Bool("journaled", !req.discard);
    DropSession(session);
  }
  return std::move(out).Build();
}

std::string Coordinator::MultiRefresh(CoordSession& session,
                                      const Deadline& deadline) {
  Result<std::vector<JsonValue>> replies = FanOut(
      session, ServeCmd::kRefresh,
      [&](const SubSession& sub) {
        return SubLine(ServeCmd::kRefresh, sub.sub_id, deadline);
      },
      deadline);
  if (!replies.ok()) return ErrorResponse(replies.status());
  int64_t total_bags = 0;
  bool refreshed = false;
  JsonLineBuilder epochs;  // camera -> the epoch its sub-session now pins
  for (size_t i = 0; i < session.subs.size(); ++i) {
    const JsonValue& reply = replies.value()[i];
    const JsonValue* epoch = reply.Find("epoch");
    epochs.Int(session.subs[i].camera,
               epoch != nullptr ? epoch->Int<int64_t>().value_or(0) : 0);
    total_bags += CountOf(reply, "bags");
    refreshed = refreshed || IsTrue(reply, "refreshed");
  }

  JsonLineBuilder out;
  out.Bool("ok", true)
      .Str("cmd", "refresh")
      .Str("session", session.id)
      .Int("cameras", static_cast<int64_t>(session.subs.size()))
      .Int("bags", total_bags)
      .Bool("refreshed", refreshed)
      .Raw("epochs", std::move(epochs).Build());
  return std::move(out).Build();
}

std::string Coordinator::CmdCameraForward(const ServeRequest& req,
                                          const std::string& line,
                                          const Deadline& deadline) {
  MIVID_METRIC_COUNT("cluster/camera_relays", 1);
  for (;;) {
    if (deadline.expired()) {
      return ErrorResponse(Status::DeadlineExceeded(
          "deadline exhausted relaying " +
          std::string(ServeCmdWireName(req.cmd)) + " for camera '" +
          req.camera_id + "'"));
    }
    Result<std::vector<std::string>> placed = PlaceCamera(req.camera_id);
    if (!placed.ok()) return ErrorResponse(placed.status());
    const std::string primary = placed.value()[0];
    WorkerConn* worker = registry_.Find(primary);
    if (worker == nullptr ||
        !worker->alive.load(std::memory_order_acquire)) {
      DropFromRing(primary);
      continue;
    }
    Result<WorkerReply> response = CallWorker(*worker, line, deadline);
    if (response.ok() && response->parsed) return std::move(response->line);
    if (response.ok()) {
      MIVID_METRIC_COUNT("cluster/malformed_replies", 1);
      registry_.MarkDead(*worker);
    }
    DropFromRing(primary);
    MIVID_METRIC_GAUGE_SET("cluster/workers_alive", WorkersAlive());
    MIVID_LOG(Warn) << "camera '" << req.camera_id << "' "
                    << ServeCmdWireName(req.cmd) << " failing over from "
                    << primary;
    // Loop re-places the camera: the next ring owner becomes the
    // stream's new home (a fresh ingestor — the db-persisted clips are
    // intact, only the open clip's frames are lost with the worker).
  }
}

std::string Coordinator::CmdStats() {
  std::string workers = "[";
  bool first = true;
  std::vector<std::string> placed;
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    placed = ring_.Workers();
  }
  for (const auto& worker : registry_.workers()) {
    if (!first) workers += ',';
    first = false;
    const bool on_ring =
        std::find(placed.begin(), placed.end(), worker->endpoint) !=
        placed.end();
    workers += StrFormat(
        "{\"endpoint\":\"%s\",\"alive\":%s,\"on_ring\":%s,"
        "\"requests\":%llu,\"failures\":%llu,\"ewma_us\":%lld}",
        JsonEscape(worker->endpoint).c_str(),
        worker->alive.load(std::memory_order_acquire) ? "true" : "false",
        on_ring ? "true" : "false",
        static_cast<unsigned long long>(
            worker->requests.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            worker->failures.load(std::memory_order_relaxed)),
        static_cast<long long>(
            worker->ewma_us.load(std::memory_order_relaxed)));
  }
  workers += ']';

  std::vector<std::string> ids;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const auto& [id, session] : sessions_) ids.push_back(id);
  }

  JsonLineBuilder out;
  out.Bool("ok", true)
      .Str("cmd", "stats")
      .Str("role", "coordinator")
      .Int("workers_alive", WorkersAlive())
      .Raw("workers", workers)
      .Int("sessions_open", static_cast<int64_t>(ids.size()))
      .StrList("sessions", ids);
  return std::move(out).Build();
}

std::string Coordinator::CmdPing() {
  JsonLineBuilder out;
  out.Bool("ok", true)
      .Str("cmd", "ping")
      .Str("role", "coordinator")
      .Str("version", kMividVersion)
      .Str("protocol_version", kProtocolVersion)
      .Int("uptime_s", UptimeSeconds())
      .Int("workers_alive", WorkersAlive())
      .Int("sessions_open", static_cast<int64_t>(session_count()));
  return std::move(out).Build();
}

std::string Coordinator::CmdClusterStats() {
  // Scrape every live worker's registry snapshot and merge them exactly
  // (obs/metrics_wire.h): counters/gauges sum, histograms merge
  // bucket-wise, so fleet percentiles are what one process observing the
  // union would have reported. Per-worker snapshots are kept alongside
  // the rollup, tagged by worker id, for per-node drill-down.
  std::vector<MetricsSnapshot> snapshots;
  std::string workers_json = "[";
  bool first = true;
  int64_t scraped = 0;
  for (const auto& worker : registry_.workers()) {
    if (!first) workers_json += ',';
    first = false;
    JsonLineBuilder entry;
    entry.Str("endpoint", worker->endpoint);
    if (!worker->alive.load(std::memory_order_acquire)) {
      entry.Bool("alive", false);
      workers_json += std::move(entry).Build();
      continue;
    }
    Result<WorkerReply> response =
        CallWorker(*worker, "{\"cmd\":\"metrics\"}", HopDeadline());
    if (!response.ok()) {
      entry.Bool("alive", false).Str("error",
                                     response.status().message());
      workers_json += std::move(entry).Build();
      continue;
    }
    if (!response->ok) {
      entry.Bool("alive", true)
          .Str("error", "bad metrics response: " + response->error);
      workers_json += std::move(entry).Build();
      continue;
    }
    const JsonValue& obj = response->doc;
    entry.Bool("alive", true);
    if (const JsonValue* id = obj.Find("worker");
        id != nullptr && id->is_string()) {
      entry.Str("worker_id", id->string);
    }
    if (const JsonValue* version = obj.Find("version");
        version != nullptr && version->is_string()) {
      entry.Str("version", version->string);
    }
    for (const char* field :
         {"uptime_s", "sessions_open", "requests_served",
          "requests_rejected"}) {
      if (const JsonValue* v = obj.Find(field)) {
        if (const std::optional<int64_t> n = v->Int<int64_t>()) {
          entry.Int(field, *n);
        }
      }
    }
    const JsonValue* metrics = obj.Find("metrics");
    if (metrics == nullptr) {
      entry.Str("error", "metrics response without a metrics member");
      workers_json += std::move(entry).Build();
      continue;
    }
    Result<MetricsSnapshot> snapshot = MetricsSnapshotFromWireJson(*metrics);
    if (!snapshot.ok()) {
      entry.Str("error", snapshot.status().message());
      workers_json += std::move(entry).Build();
      continue;
    }
    snapshots.push_back(std::move(snapshot).value());
    ++scraped;
    // Re-serialized (not relayed) so every snapshot in the response uses
    // one canonical formatting, including the fleet rollup.
    entry.Raw("metrics", MetricsSnapshotToWireJson(snapshots.back()));
    workers_json += std::move(entry).Build();
  }
  workers_json += ']';

  const MetricsSnapshot fleet = MergeMetricsSnapshots(snapshots);
  JsonLineBuilder out;
  out.Bool("ok", true)
      .Str("cmd", "cluster_stats")
      .Str("role", "coordinator")
      .Str("version", kMividVersion)
      .Int("uptime_s", UptimeSeconds())
      .Int("workers_alive", WorkersAlive())
      .Int("workers_scraped", scraped)
      .Raw("workers", workers_json)
      .Raw("fleet", MetricsSnapshotToWireJson(fleet))
      .Raw("coordinator", MetricsSnapshotToWireJson(
                              MetricsRegistry::Global().Snapshot()));
  return std::move(out).Build();
}

std::string Coordinator::CmdTraceDump() {
  // Gather every process's Chrome trace and stitch them into one
  // cluster timeline (obs/trace_stitch.h). The coordinator's own trace
  // goes first (pid 1); workers follow in registration order.
  std::vector<ProcessTrace> inputs;
  {
    ProcessTrace own;
    own.label = GetLogIdentity().empty() ? "coord" : GetLogIdentity();
    Result<JsonValue> doc = ParseJson(TraceToChromeJson());
    if (doc.ok()) {
      own.doc = std::move(doc).value();
      inputs.push_back(std::move(own));
    }
  }
  int64_t workers_dumped = 0;
  for (const auto& worker : registry_.workers()) {
    if (!worker->alive.load(std::memory_order_acquire)) continue;
    Result<WorkerReply> response =
        CallWorker(*worker, "{\"cmd\":\"trace_dump\"}", HopDeadline());
    if (!response.ok() || !response->ok) continue;
    const JsonValue* trace = response->doc.Find("trace");
    if (trace == nullptr || !trace->is_object()) continue;
    ProcessTrace input;
    const JsonValue* id = response->doc.Find("worker");
    input.label = (id != nullptr && id->is_string() && !id->string.empty())
                      ? id->string
                      : worker->endpoint;
    input.doc = *trace;
    inputs.push_back(std::move(input));
    ++workers_dumped;
  }
  Result<std::string> stitched = StitchChromeTraces(inputs);
  if (!stitched.ok()) return ErrorResponse(stitched.status());
  JsonLineBuilder out;
  out.Bool("ok", true)
      .Str("cmd", "trace_dump")
      .Str("role", "coordinator")
      .Bool("tracing_enabled", TracingEnabled())
      .Int("processes", static_cast<int64_t>(inputs.size()))
      .Int("workers_dumped", workers_dumped)
      .Raw("trace", stitched.value());
  return std::move(out).Build();
}

int64_t Coordinator::WorkersAlive() const {
  return static_cast<int64_t>(registry_.AliveEndpoints().size());
}

void Coordinator::DropFromRing(const std::string& endpoint) {
  std::lock_guard<std::mutex> lock(ring_mu_);
  ring_.Remove(endpoint);
}

Deadline Coordinator::HopDeadline() const {
  return Deadline().ClampedToMs(options_.rpc_deadline_ms);
}

void Coordinator::HeartbeatSweep() {
  if (options_.heartbeat_ms <= 0) return;
  const auto now = std::chrono::steady_clock::now();
  if (now - last_heartbeat_ <
      std::chrono::milliseconds(options_.heartbeat_ms)) {
    return;
  }
  last_heartbeat_ = now;
  // Probes are deadline-bounded so a hung worker cannot stall the sweep
  // (and with it the accept loop's idle callback) indefinitely.
  const Deadline probe_deadline = HopDeadline();
  for (const auto& worker : registry_.workers()) {
    if (worker->alive.load(std::memory_order_acquire)) {
      if (!registry_.Ping(*worker, probe_deadline)) {
        DropFromRing(worker->endpoint);
      }
    } else if (registry_.Reconnect(*worker).ok() &&
               registry_.Ping(*worker, probe_deadline)) {
      // A restarted worker on the same endpoint rejoins the ring; its
      // cameras re-home to it on the next placement lookup.
      std::lock_guard<std::mutex> lock(ring_mu_);
      ring_.Add(worker->endpoint);
      MIVID_LOG(Info) << "worker " << worker->endpoint
                      << " rejoined the ring";
    }
  }
  MIVID_METRIC_GAUGE_SET("cluster/workers_alive", WorkersAlive());
}

}  // namespace mivid
