#include "serve/server.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>
#include <thread>

#include "common/fault.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/version.h"
#include "linalg/simd.h"
#include "obs/metrics.h"
#include "obs/metrics_wire.h"
#include "obs/trace.h"
#include "retrieval/engine_registry.h"

namespace mivid {

namespace {

/// Milliseconds between poll() wakeups in the accept loop; bounds both
/// shutdown latency and the idle-eviction sweep interval.
constexpr int kAcceptPollMs = 100;

/// Releases one admission slot on scope exit.
struct AdmissionSlot {
  std::atomic<int>* in_flight;
  ~AdmissionSlot() {
    const int depth =
        in_flight->fetch_sub(1, std::memory_order_acq_rel) - 1;
    MIVID_METRIC_GAUGE_SET("serve/queue_depth", depth);
  }
};

/// Checks a worker fault point both scoped to this worker's id
/// ("w1/worker.rank.hang") and unscoped — the scoped form lets a test
/// or a fleet sharing one MIVID_FAULTS environment fault exactly one
/// worker. Only called behind FaultsArmed().
bool WorkerFaultFires(const std::string& worker_id, const std::string& point,
                      int64_t* param_ms) {
  if (!worker_id.empty() && FaultInjected(worker_id + "/" + point, param_ms)) {
    return true;
  }
  return FaultInjected(point, param_ms);
}

/// worker.<cmd>.crash kills the process mid-request (as if SIGKILLed);
/// worker.<cmd>.hang stalls it for the point's param (default 30s) —
/// long enough to trip any reasonable RPC deadline, short enough that a
/// test process still unwinds.
void MaybeInjectWorkerFault(const std::string& worker_id, ServeCmd cmd) {
  const std::string base = std::string("worker.") + ServeCmdWireName(cmd);
  if (WorkerFaultFires(worker_id, base + ".crash", nullptr)) {
    _exit(134);
  }
  int64_t hang_ms = 30 * 1000;
  if (WorkerFaultFires(worker_id, base + ".hang", &hang_ms)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(hang_ms));
  }
}

}  // namespace

Status ValidateServeOptions(const ServeOptions& options, bool will_listen) {
  if (will_listen && options.socket_path.empty() && options.tcp_port < 0) {
    return Status::InvalidArgument(
        "no listener configured: set a socket path and/or --tcp-port");
  }
  if (options.tcp_port > 65535) {
    return Status::InvalidArgument("tcp_port out of range: " +
                                   std::to_string(options.tcp_port));
  }
  if (options.top_n == 0) {
    return Status::InvalidArgument("top_n must be positive");
  }
  if (options.idle_timeout_ms < 0) {
    return Status::InvalidArgument("idle_timeout_ms must be >= 0, got " +
                                   std::to_string(options.idle_timeout_ms));
  }
  if (options.max_sessions == 0 && options.idle_timeout_ms > 0) {
    return Status::InvalidArgument(
        "idle_timeout_ms with max_sessions=0 (unbounded) would let the "
        "session table grow faster than the idle sweep can shed it; set a "
        "session bound or disable the timeout");
  }
  if (!options.default_engine.empty() &&
      !EngineRegistered(options.default_engine)) {
    return Status::InvalidArgument(
        "unknown default engine '" + options.default_engine +
        "' (registered: " + Join(RegisteredEngineNames(), ", ") + ")");
  }
  if (!options.worker_id.empty() && !ValidSessionId(options.worker_id)) {
    return Status::InvalidArgument(
        "worker_id must be 1..64 chars of [A-Za-z0-9._-], got '" +
        options.worker_id + "'");
  }
  if (options.ingest_retire_frames < 1) {
    return Status::InvalidArgument(
        "ingest_retire_frames must be >= 1, got " +
        std::to_string(options.ingest_retire_frames));
  }
  if (!options.corpus_snapshot_dir.empty()) {
    // Probe now: an unwritable snapshot dir would otherwise degrade every
    // cold corpus load into a mid-request warning.
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(options.corpus_snapshot_dir, ec);
    if (ec) {
      return Status::IOError("corpus_snapshot_dir '" +
                             options.corpus_snapshot_dir +
                             "' cannot be created: " + ec.message());
    }
    const fs::path probe =
        fs::path(options.corpus_snapshot_dir) / ".mivid_write_probe";
    std::FILE* f = std::fopen(probe.string().c_str(), "wb");
    if (f == nullptr) {
      return Status::IOError("corpus_snapshot_dir '" +
                             options.corpus_snapshot_dir +
                             "' is not writable");
    }
    std::fclose(f);
    fs::remove(probe, ec);
  }
  return Status::OK();
}

RetrievalServer::RetrievalServer(VideoDb* db, ServeOptions options)
    : db_(db),
      options_(std::move(options)),
      corpora_(db, options_.query, options_.corpus_snapshot_dir),
      sessions_(db, &corpora_,
                SessionManagerOptions{options_.default_engine,
                                      options_.max_sessions,
                                      options_.idle_timeout_ms,
                                      options_.top_n}) {
  access_log_.OpenOrWarn({options_.access_log_path, options_.slow_log_path,
                          options_.slow_threshold_ms});
}

RetrievalServer::~RetrievalServer() { Stop(); }

std::string RetrievalServer::HandleLine(const std::string& line) {
  MIVID_SCOPED_TIMER("serve/request_seconds");
  MIVID_METRIC_COUNT("serve/requests", 1);
  // Anchor the request's "deadline_ms" budget at arrival: whatever part
  // of it is spent waiting for a dispatch slot is gone for good.
  const std::chrono::steady_clock::time_point arrival =
      std::chrono::steady_clock::now();

  Result<ServeRequest> parsed = ParseServeRequest(line);
  if (!parsed.ok()) {
    MIVID_METRIC_COUNT("serve/errors", 1);
    return ErrorResponse(parsed.status());
  }
  const ServeRequest& req = parsed.value();

  // Distributed trace span for the whole request: joins the context the
  // sender stamped onto the line (coordinator or client), or roots a
  // fresh trace. Inert when tracing is off.
  ContextSpan span(ServeCmdSpanName(req.cmd), req.trace_id, req.parent_span);

  // The audit (latency breakdown) only runs when an access log is
  // configured; disabled it costs one bool read and no clock reads.
  AccessEnvelope envelope(&access_log_);

  // Bounded admission: hold one in-flight slot for the request lifetime,
  // or reject right away so callers see backpressure instead of latency.
  const int depth = in_flight_.fetch_add(1, std::memory_order_acq_rel) + 1;
  AdmissionSlot slot{&in_flight_};
  MIVID_METRIC_GAUGE_SET("serve/queue_depth", depth);
  std::string response;
  if (options_.max_pending > 0 &&
      depth > static_cast<int>(options_.max_pending)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    MIVID_METRIC_COUNT("serve/requests_rejected", 1);
    response = ErrorResponse(Status::ResourceExhausted(
        "request queue full (" + std::to_string(options_.max_pending) +
        " in flight); retry later"));
  } else {
    if (options_.admission_hook) options_.admission_hook(req);
    response = Dispatch(req, envelope.audit(), arrival);
    served_.fetch_add(1, std::memory_order_relaxed);
  }

  // camera_id and engine are immutable after Build, so reading them
  // without the session mutex is safe.
  envelope.Write(
      "worker", options_.worker_id.empty() ? "serve" : options_.worker_id, req,
      span, line, response, [this](const std::string& session_id) {
        SessionIdentity identity;
        Result<std::shared_ptr<ServeSession>> live = sessions_.Get(session_id);
        if (live.ok()) {
          if (!live.value()->camera_id.empty()) {
            identity.cameras.push_back(live.value()->camera_id);
          }
          identity.engine = live.value()->engine;
        }
        return identity;
      });
  // worker.reply.truncate hands the client half a response line — the
  // shape of a worker dying mid-write — to exercise the coordinator's
  // malformed-reply handling.
  if (FaultsArmed() &&
      WorkerFaultFires(options_.worker_id, "worker.reply.truncate", nullptr)) {
    response.resize(response.size() / 2);
  }
  return response;
}

std::string RetrievalServer::Dispatch(
    const ServeRequest& req, RequestAudit* audit,
    std::chrono::steady_clock::time_point arrival) {
  // Sheds a request whose wire deadline lapsed before execution started
  // (typically while queued behind slower work): answering it late would
  // only feed a coordinator that already failed over.
  auto deadline_spent = [&] {
    if (req.deadline_ms <= 0) return false;
    const int64_t waited_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - arrival)
            .count();
    return waited_ms >= req.deadline_ms;
  };
  auto shed = [&] {
    MIVID_METRIC_COUNT("serve/deadline_shed", 1);
    return ErrorResponse(Status::DeadlineExceeded(
        "deadline of " + std::to_string(req.deadline_ms) +
        "ms expired before dispatch; shedding"));
  };
  ThreadPool* pool = GlobalPool();
  if (pool == nullptr || ThreadPool::InWorkerThread()) {
    // Serial build (MIVID_THREADS=1) or already on a worker: run inline.
    if (deadline_spent()) return shed();
    RequestAuditScope scope(audit);
    return Execute(req);
  }
  // Hand the work to the shared pool; the connection thread blocks until
  // its request's turn comes and finishes, which keeps responses on one
  // connection strictly ordered. The audit scope is installed inside the
  // task — Execute runs on a pool worker, not this thread — and the gap
  // between submit and task start is the queue wait.
  std::chrono::steady_clock::time_point submitted;
  if (audit != nullptr) submitted = std::chrono::steady_clock::now();
  std::packaged_task<std::string()> task(
      [this, &req, audit, submitted, &deadline_spent, &shed] {
        if (audit != nullptr) {
          audit->queue_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - submitted)
                                .count();
        }
        if (deadline_spent()) return shed();
        RequestAuditScope scope(audit);
        return Execute(req);
      });
  std::future<std::string> done = task.get_future();
  pool->Submit([&task] { task(); });
  return done.get();
}

std::string RetrievalServer::Execute(const ServeRequest& req) {
  if (FaultsArmed()) MaybeInjectWorkerFault(options_.worker_id, req.cmd);
  switch (req.cmd) {
    case ServeCmd::kOpen:
      return CmdOpen(req);
    case ServeCmd::kRank:
      return CmdRank(req);
    case ServeCmd::kFeedback:
      return CmdFeedback(req);
    case ServeCmd::kSave:
      return CmdSave(req);
    case ServeCmd::kClose:
      return CmdClose(req);
    case ServeCmd::kStats:
      return CmdStats(req);
    case ServeCmd::kShutdown:
      return CmdShutdown(req);
    case ServeCmd::kPing:
      return CmdPing(req);
    case ServeCmd::kMetrics:
      return CmdMetrics(req);
    case ServeCmd::kClusterStats:
      return CmdClusterStats(req);
    case ServeCmd::kTraceDump:
      return CmdTraceDump(req);
    case ServeCmd::kIngest:
      return CmdIngest(req);
    case ServeCmd::kRefresh:
      return CmdRefresh(req);
    case ServeCmd::kPublish:
      return CmdPublish(req);
  }
  return ErrorResponse(Status::Internal("unhandled command"));
}

std::string RetrievalServer::CmdOpen(const ServeRequest& req) {
  if (!req.engine.empty() && !EngineRegistered(req.engine)) {
    return ErrorResponse(Status::InvalidArgument(
        "unknown engine '" + req.engine + "' (registered: " +
        Join(RegisteredEngineNames(), ", ") + ")"));
  }
  Result<SessionManager::OpenResult> opened =
      sessions_.Open(req.session_id, req.camera_id, req.engine);
  if (!opened.ok()) return ErrorResponse(opened.status());
  const SessionManager::OpenResult& result = opened.value();
  ServeSession& s = *result.session;
  std::lock_guard<std::mutex> lock(s.mu);
  JsonLineBuilder out;
  out.Bool("ok", true)
      .Str("cmd", "open")
      .Str("session", s.id)
      .Str("camera", s.camera_id)
      .Str("engine", s.engine)
      .Int("round", s.session->round())
      .Int("bags", static_cast<int64_t>(s.session->dataset().bags().size()))
      .Int("epoch",
           static_cast<int64_t>(s.epoch != nullptr ? s.epoch->id : 0))
      .Bool("resumed", result.resumed)
      .Bool("already_open", result.already_open);
  return std::move(out).Build();
}

std::string RetrievalServer::CmdRank(const ServeRequest& req) {
  // Serve-path rank latency on its own histogram: this is the query the
  // cluster's p99 target is stated against (bench/micro_perf.cc reports
  // its p99 into BENCH_micro.json).
  MIVID_SCOPED_TIMER("serve/rank_seconds");
  Result<std::shared_ptr<ServeSession>> got = sessions_.Get(req.session_id);
  if (!got.ok()) return ErrorResponse(got.status());
  ServeSession& s = *got.value();
  std::lock_guard<std::mutex> lock(s.mu);

  // Every ranking (engine or heuristic) covers the whole corpus, so the
  // limit and the reported total are known before ranking; the served
  // list is the session's full ranking truncated to the limit.
  const size_t total = s.session->dataset().bags().size();
  size_t limit = total;
  if (req.top == 0) {
    limit = s.session->top_n();
  } else if (req.top > 0) {
    limit = static_cast<size_t>(req.top);
  }
  limit = std::min(limit, total);
  const std::vector<ScoredBag> ranking = [&] {
    AuditPhaseTimer rank_phase(&RequestAudit::rank_ms);
    return s.session->CurrentTopK(limit);
  }();

  AuditPhaseTimer serialize_phase(&RequestAudit::serialize_ms);
  std::string items = "[";
  for (size_t i = 0; i < limit && i < ranking.size(); ++i) {
    if (i > 0) items += ',';
    items += "{\"bag\":";
    AppendInt(&items, ranking[i].bag_id);
    items += ",\"score\":";
    AppendDouble(&items, ranking[i].score);
    items += '}';
  }
  items += ']';

  JsonLineBuilder out;
  out.Bool("ok", true)
      .Str("cmd", "rank")
      .Str("session", s.id)
      .Int("round", s.session->round())
      .Bool("trained", s.session->engine().trained())
      .Int("epoch",
           static_cast<int64_t>(s.epoch != nullptr ? s.epoch->id : 0))
      .Int("total", static_cast<int64_t>(total))
      .Raw("ranking", items);
  return std::move(out).Build();
}

std::string RetrievalServer::CmdFeedback(const ServeRequest& req) {
  Result<std::shared_ptr<ServeSession>> got = sessions_.Get(req.session_id);
  if (!got.ok()) return ErrorResponse(got.status());
  ServeSession& s = *got.value();
  std::lock_guard<std::mutex> lock(s.mu);

  Status applied = s.session->SubmitFeedback(req.labels);
  if (!applied.ok()) {
    MIVID_METRIC_COUNT("serve/errors", 1);
    return ErrorResponse(applied);
  }
  // Journal every feedback round: a crash (or eviction) after this point
  // resumes the session at exactly this state.
  Status journaled = [&] {
    AuditPhaseTimer journal_phase(&RequestAudit::journal_ms);
    return sessions_.Save(s);
  }();
  if (!journaled.ok()) {
    MIVID_METRIC_COUNT("serve/errors", 1);
    return ErrorResponse(journaled);
  }
  MIVID_METRIC_COUNT("serve/feedback_rounds", 1);

  JsonLineBuilder out;
  out.Bool("ok", true)
      .Str("cmd", "feedback")
      .Str("session", s.id)
      .Int("round", s.session->round())
      .Bool("trained", s.session->engine().trained())
      .Int("labeled", static_cast<int64_t>(s.session->LabeledBags().size()))
      .Bool("journaled", true);
  return std::move(out).Build();
}

std::string RetrievalServer::CmdSave(const ServeRequest& req) {
  Result<std::shared_ptr<ServeSession>> got = sessions_.Get(req.session_id);
  if (!got.ok()) return ErrorResponse(got.status());
  ServeSession& s = *got.value();
  std::lock_guard<std::mutex> lock(s.mu);
  Status saved = [&] {
    AuditPhaseTimer journal_phase(&RequestAudit::journal_ms);
    return sessions_.Save(s);
  }();
  if (!saved.ok()) return ErrorResponse(saved);
  JsonLineBuilder out;
  out.Bool("ok", true).Str("cmd", "save").Str("session", s.id).Int(
      "round", s.session->round());
  return std::move(out).Build();
}

std::string RetrievalServer::CmdClose(const ServeRequest& req) {
  Status closed = sessions_.Close(req.session_id, req.discard);
  if (!closed.ok()) return ErrorResponse(closed);
  JsonLineBuilder out;
  out.Bool("ok", true)
      .Str("cmd", "close")
      .Str("session", req.session_id)
      .Bool("journaled", !req.discard);
  return std::move(out).Build();
}

std::string RetrievalServer::CmdStats(const ServeRequest&) {
  const CorpusManager::Stats corpus = corpora_.stats();
  JsonLineBuilder out;
  out.Bool("ok", true)
      .Str("cmd", "stats")
      .Str("worker", options_.worker_id)
      .Int("sessions_open", static_cast<int64_t>(sessions_.open_count()))
      .StrList("sessions", sessions_.open_ids())
      .Int("corpora_cached", static_cast<int64_t>(corpus.cached))
      .Int("corpus_cache_hits", static_cast<int64_t>(corpus.hits))
      .Int("corpus_cache_misses", static_cast<int64_t>(corpus.misses))
      .Int("epoch_publishes", static_cast<int64_t>(corpus.publishes))
      .Int("tail_clips", static_cast<int64_t>(corpus.tail_clips))
      .Int("requests_served", static_cast<int64_t>(served_.load()))
      .Int("requests_rejected", static_cast<int64_t>(rejected_.load()))
      .Int("in_flight", in_flight_.load());
  return std::move(out).Build();
}

std::string RetrievalServer::CmdShutdown(const ServeRequest&) {
  RequestShutdown();
  JsonLineBuilder out;
  out.Bool("ok", true).Str("cmd", "shutdown").Bool("shutting_down", true);
  return std::move(out).Build();
}

std::string RetrievalServer::CmdPing(const ServeRequest&) {
  // Health probe for the cluster coordinator and fleet dashboard:
  // identity, build/SIMD tier/uptime (what is running, not just that it
  // runs), plus the shards (cameras) this worker currently holds.
  const CorpusManager::Stats corpus = corpora_.stats();
  JsonLineBuilder out;
  out.Bool("ok", true)
      .Str("cmd", "ping")
      .Str("worker", options_.worker_id)
      .Str("role", "worker")
      .Str("version", kMividVersion)
      .Str("protocol_version", kProtocolVersion)
      .Str("simd", SimdTierName(ActiveSimdTier()))
      .Int("uptime_s", UptimeSeconds())
      .Int("sessions_open", static_cast<int64_t>(sessions_.open_count()))
      .StrList("cameras", corpora_.cached_cameras())
      .Int("corpora_cached", static_cast<int64_t>(corpus.cached))
      .Int("snapshot_hits", static_cast<int64_t>(corpus.snapshot_hits))
      .Int("snapshot_writes", static_cast<int64_t>(corpus.snapshot_writes))
      .Int("in_flight", in_flight_.load());
  return std::move(out).Build();
}

std::string RetrievalServer::CmdMetrics(const ServeRequest&) {
  // Raw registry snapshot in wire form, scraped by the coordinator's
  // cluster_stats aggregation (obs/metrics_wire.h).
  JsonLineBuilder out;
  out.Bool("ok", true)
      .Str("cmd", "metrics")
      .Str("worker", options_.worker_id)
      .Str("role", "worker")
      .Str("version", kMividVersion)
      .Bool("metrics_enabled", MetricsEnabled())
      .Int("uptime_s", UptimeSeconds())
      .Int("sessions_open", static_cast<int64_t>(sessions_.open_count()))
      .Int("requests_served", static_cast<int64_t>(served_.load()))
      .Int("requests_rejected", static_cast<int64_t>(rejected_.load()))
      .Raw("metrics",
           MetricsSnapshotToWireJson(MetricsRegistry::Global().Snapshot()));
  return std::move(out).Build();
}

std::string RetrievalServer::CmdClusterStats(const ServeRequest&) {
  // A lone worker answers cluster_stats as a fleet of one, so the fleet
  // dashboard (mivid_cli top) works against single-node deployments too.
  const std::string wire =
      MetricsSnapshotToWireJson(MetricsRegistry::Global().Snapshot());
  JsonLineBuilder entry;
  entry.Str("worker_id", options_.worker_id)
      .Str("endpoint", "")
      .Bool("alive", true)
      .Str("version", kMividVersion)
      .Int("uptime_s", UptimeSeconds())
      .Int("sessions_open", static_cast<int64_t>(sessions_.open_count()))
      .Int("requests_served", static_cast<int64_t>(served_.load()))
      .Int("requests_rejected", static_cast<int64_t>(rejected_.load()))
      .Raw("metrics", wire);
  JsonLineBuilder out;
  out.Bool("ok", true)
      .Str("cmd", "cluster_stats")
      .Str("role", "worker")
      .Int("workers_alive", 1)
      .Raw("workers", "[" + std::move(entry).Build() + "]")
      .Raw("fleet", wire);
  return std::move(out).Build();
}

std::string RetrievalServer::CmdTraceDump(const ServeRequest&) {
  // This worker's Chrome trace, inline. The embedded clock_sync metadata
  // carries the wall-clock anchor the coordinator-side stitcher uses to
  // rebase it onto the fleet timeline.
  JsonLineBuilder out;
  out.Bool("ok", true)
      .Str("cmd", "trace_dump")
      .Str("worker", options_.worker_id)
      .Str("role", "worker")
      .Bool("tracing_enabled", TracingEnabled())
      .Raw("trace", TraceToChromeJson());
  return std::move(out).Build();
}

std::shared_ptr<CameraIngestor> RetrievalServer::IngestorFor(
    const std::string& camera_id) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  auto it = ingestors_.find(camera_id);
  if (it != ingestors_.end()) return it->second;
  IngestOptions ingest;
  ingest.query = options_.query;
  ingest.clip_frames = options_.ingest_clip_frames;
  ingest.retire_after_frames = options_.ingest_retire_frames;
  auto created =
      std::make_shared<CameraIngestor>(camera_id, db_, &corpora_, ingest);
  ingestors_.emplace(camera_id, created);
  return created;
}

std::string RetrievalServer::CmdIngest(const ServeRequest& req) {
  MIVID_SCOPED_TIMER("serve/ingest_seconds");
  std::shared_ptr<CameraIngestor> ingestor = IngestorFor(req.camera_id);

  int64_t frames = 0;
  int64_t late = 0;
  int64_t clips_cut = 0;
  for (const FrameObservations& frame : req.frames) {
    Result<CameraIngestor::FrameResult> observed = ingestor->Observe(frame);
    if (!observed.ok()) return ErrorResponse(observed.status());
    ++frames;
    late += observed.value().late_observations;
    clips_cut += observed.value().clips_cut;
  }
  for (const IncidentRecord& incident : req.incidents) {
    Status annotated =
        ingestor->AddIncident(incident.type, incident.begin_frame,
                              incident.end_frame, incident.vehicle_ids);
    if (!annotated.ok()) return ErrorResponse(annotated);
  }

  int clip_id = -1;
  int64_t bags_staged = 0;
  if (req.cut || req.publish) {
    Result<CameraIngestor::CutResult> cut = ingestor->Cut();
    if (!cut.ok()) return ErrorResponse(cut.status());
    clip_id = cut.value().clip_id;
    bags_staged = static_cast<int64_t>(cut.value().bags_staged);
    if (clip_id >= 0) ++clips_cut;
  }

  int64_t epoch = 0;
  bool published = false;
  if (req.publish) {
    Result<std::shared_ptr<const CorpusEpoch>> swapped =
        corpora_.Publish(req.camera_id);
    if (!swapped.ok()) return ErrorResponse(swapped.status());
    epoch = static_cast<int64_t>(swapped.value()->id);
    published = true;
  }

  const CameraIngestor::Stats stats = ingestor->stats();
  JsonLineBuilder out;
  out.Bool("ok", true)
      .Str("cmd", "ingest")
      .Str("camera", req.camera_id)
      .Int("frames", frames)
      .Int("late_observations", late)
      .Int("clips_cut", clips_cut)
      .Int("clip", clip_id)
      .Int("bags_staged", bags_staged)
      .Int("stream_frame", stats.stream_frame)
      .Int("lag_frames", stats.lag_frames)
      .Bool("published", published);
  if (published) out.Int("epoch", epoch);
  return std::move(out).Build();
}

std::string RetrievalServer::CmdRefresh(const ServeRequest& req) {
  Result<std::shared_ptr<ServeSession>> got = sessions_.Get(req.session_id);
  if (!got.ok()) return ErrorResponse(got.status());
  ServeSession& s = *got.value();
  std::lock_guard<std::mutex> lock(s.mu);
  const uint64_t before = s.epoch != nullptr ? s.epoch->id : 0;
  Status refreshed = sessions_.Refresh(&s);
  if (!refreshed.ok()) return ErrorResponse(refreshed);
  JsonLineBuilder out;
  out.Bool("ok", true)
      .Str("cmd", "refresh")
      .Str("session", s.id)
      .Str("camera", s.camera_id)
      .Int("epoch", static_cast<int64_t>(s.epoch->id))
      .Bool("refreshed", s.epoch->id != before)
      .Int("round", s.session->round())
      .Int("bags", static_cast<int64_t>(s.session->dataset().bags().size()));
  return std::move(out).Build();
}

std::string RetrievalServer::CmdPublish(const ServeRequest& req) {
  Result<std::shared_ptr<const CorpusEpoch>> swapped =
      corpora_.Publish(req.camera_id);
  if (!swapped.ok()) return ErrorResponse(swapped.status());
  const CorpusEpoch& epoch = *swapped.value();
  JsonLineBuilder out;
  out.Bool("ok", true)
      .Str("cmd", "publish")
      .Str("camera", req.camera_id)
      .Int("epoch", static_cast<int64_t>(epoch.id))
      .Int("bags", static_cast<int64_t>(epoch.bag_count()));
  return std::move(out).Build();
}

int64_t RetrievalServer::UptimeSeconds() const {
  return std::chrono::duration_cast<std::chrono::seconds>(
             std::chrono::steady_clock::now() - start_time_)
      .count();
}

void RetrievalServer::RequestShutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  shutdown_requested_ = true;
  shutdown_cv_.notify_all();
}

void RetrievalServer::WaitForShutdown() {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  shutdown_cv_.wait(lock, [this] {
    return shutdown_requested_ || stopping_.load(std::memory_order_acquire);
  });
}

bool RetrievalServer::WaitForShutdownFor(int timeout_ms) {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  return shutdown_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                               [this] {
                                 return shutdown_requested_ ||
                                        stopping_.load(
                                            std::memory_order_acquire);
                               });
}

Status RetrievalServer::Start() {
  MIVID_RETURN_IF_ERROR(ValidateServeOptions(options_, /*will_listen=*/true));
  LineTransportOptions transport;
  transport.uds_path = options_.socket_path;
  transport.tcp_host = options_.tcp_host;
  transport.tcp_port = options_.tcp_port;
  transport.poll_ms = kAcceptPollMs;
  transport_ = std::make_unique<LineTransport>(
      std::move(transport),
      [this](const std::string& line) { return HandleLine(line); },
      [this] { sessions_.EvictIdle(); });
  Status started = transport_->Start();
  if (!started.ok()) {
    transport_.reset();
    return started;
  }
  MIVID_LOG(Info) << "mivid_serve listening on "
                  << (options_.socket_path.empty() ? "<no uds>"
                                                   : options_.socket_path)
                  << (transport_->tcp_port() >= 0
                          ? " and " + options_.tcp_host + ":" +
                                std::to_string(transport_->tcp_port())
                          : "");
  return Status::OK();
}

int RetrievalServer::tcp_port() const {
  return transport_ != nullptr ? transport_->tcp_port() : -1;
}

void RetrievalServer::Stop() {
  if (stopped_) return;
  stopping_.store(true, std::memory_order_release);
  RequestShutdown();
  if (transport_ != nullptr) transport_->Stop();
  Status saved = sessions_.SaveAll();
  if (!saved.ok()) {
    MIVID_LOG(Warn) << "failed to journal sessions on shutdown: "
                    << saved.message();
  }
  stopped_ = true;
}

}  // namespace mivid
