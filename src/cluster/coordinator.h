// Coordinator: the front door of a sharded retrieval fleet.
//
// A fleet is N mivid_serve workers (each owning the camera corpora the
// placement ring assigns it) behind one mivid_coord process speaking the
// same NDJSON protocol as a single worker. It is the coordinator role of
// the daemon shell (serve/daemon.h), which owns its listeners, request
// envelope and lifecycle. Clients do not know the fleet exists:
//
//  * A session lives on its camera's home worker — the consistent-hash
//    owner of the camera. open with "cameras":[...] spans a session over
//    several corpora: one sub-session per camera (id "<id>-<cam>") on
//    that camera's owner.
//  * Every session-addressed command (rank, feedback, save, close,
//    refresh) follows one rule. On a single-camera session the line is
//    relayed byte-for-byte and so is the worker's reply, so a client
//    sees exactly what a single-process mivid_serve would have sent. On
//    a multi-camera session feedback, save, close and refresh fan out
//    to the sub-sessions one after another, mirrored like every write;
//    rank scatters to them in parallel and merges the exact per-corpus
//    top-k (cluster/merger.h) into one camera-tagged ranking.
//  * ingest and publish name a camera, not a session: they go to the
//    camera's primary owner only.
//
// Failover: a transport error marks the worker dead and removes it from
// the ring. Affected sessions are not touched eagerly — the next
// request that reaches a dead home re-places the camera on the ring and
// re-opens the sub-session on the new owner, which replays the worker's
// crash-safe feedback journal (workers share one VideoDb). Replay is
// deterministic, so the resumed session ranks bit-identically to the
// pre-crash one. The optional heartbeat also re-dials dead workers, so
// a restarted process on the same endpoint rejoins the ring.
//
// Robustness (see docs/robustness.md):
//  * Deadlines: every coordinator->worker hop is bounded by
//    rpc_deadline_ms (and by the client's own "deadline_ms" when
//    smaller). A worker that does not answer in time is treated exactly
//    like a dead one — marked dead, dropped from the ring, failed over —
//    so a hung worker costs one budget slice, not a stuck fleet.
//  * Replication: with replication > 1 each camera's sub-session is
//    opened on that many distinct ring owners. Writes (open, feedback,
//    save, close, refresh) go to the primary and are mirrored
//    best-effort to the other replicas; since replicas share the db and
//    feedback journaling rewrites the full deterministic session state,
//    mirrored writes are idempotent. rank routes to the fastest live
//    replica (EWMA latency) and retries the next one when a slice of the
//    budget expires — a hedged retry.
//  * Degraded responses: a multi-camera rank whose camera has no live
//    replica left returns the merged ranking of the surviving cameras
//    plus "degraded":{"missing_cameras":[...]} instead of failing the
//    whole request.

#ifndef MIVID_CLUSTER_COORDINATOR_H_
#define MIVID_CLUSTER_COORDINATOR_H_

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/merger.h"
#include "cluster/placement.h"
#include "cluster/worker_registry.h"
#include "common/deadline.h"
#include "common/status.h"
#include "obs/json.h"
#include "serve/daemon.h"
#include "serve/protocol.h"

namespace mivid {

struct CoordinatorOptions {
  DaemonOptions daemon;     ///< listeners and logs
  std::vector<std::string> workers;  ///< worker endpoints (host:port / UDS)
  int top_n = 20;           ///< default rank depth when "top" is absent
  size_t virtual_nodes = 64;  ///< ring points per worker
  int heartbeat_ms = 0;     ///< 0 = no active health probing (lazy only)

  /// Per-hop budget for coordinator->worker calls in ms; 0 disables
  /// deadline enforcement (a hung worker then blocks its caller).
  int rpc_deadline_ms = 30000;
  /// Distinct workers holding each camera's sub-session (>= 1). Clamped
  /// to the fleet size at placement time.
  int replication = 1;
};

/// Rejects an inconsistent option set before any socket is bound.
Status ValidateCoordinatorOptions(const CoordinatorOptions& options);

/// One worker reply, parsed once where the coordinator receives it. The
/// bytes travel with their parse: single-camera commands relay `line`
/// byte-for-byte, multi-camera handlers read `doc`.
struct WorkerReply {
  std::string line;    ///< the reply bytes as received
  bool parsed = false; ///< `line` is one JSON document
  JsonValue doc;       ///< its parse (null when !parsed)
  bool ok = false;     ///< doc is {"ok":true,...}
  /// "OK" when ok, else the reply's "code" string ("" when it has none).
  std::string code;
  /// When not ok: the reply's "error" string, or the whole line when it
  /// has none. Empty when ok.
  std::string error;
};

/// Parses `line` (ParseJson, once) and reads "ok", "code" and "error".
/// Never fails: bytes that are not JSON come back with parsed == false.
WorkerReply ReadWorkerReply(std::string line);

/// Reads one worker's rank reply for `camera`: its ranking items,
/// camera-tagged, into `part`, and its "total" added to `*total`. Every
/// item needs an int "bag" (JsonValue::Int) and a finite number "score";
/// the first that has not is DataLoss, so an unreadable item is never
/// ranked. A missing "ranking" or "total" reads as empty / 0.
Status ReadRankReply(const JsonValue& reply, const std::string& camera,
                     std::vector<ClusterScoredBag>* part, int64_t* total);

class Coordinator : public LineDaemon {
 public:
  explicit Coordinator(CoordinatorOptions options);
  ~Coordinator() override;

  /// Sessions currently routed by this coordinator.
  size_t session_count() const;

 private:
  /// One camera's slice of a session: which workers hold the
  /// sub-session under which id.
  struct SubSession {
    std::string camera;
    /// Replica endpoints, [0] = primary. All replicas hold the same
    /// sub_id (they share the db, so they share the journal). Entries
    /// may go stale until the next failover re-places the camera.
    std::vector<std::string> workers;
    std::string sub_id;  ///< session id on the workers
  };

  /// One client-visible session.
  struct CoordSession {
    std::string id;
    std::string engine;  ///< as requested at open ("" = worker default)
    bool multi = false;  ///< true when opened with "cameras":[...]
    /// One per camera, open order. Empty until open places the cameras,
    /// and again once the session is dropped: such a session is not open.
    std::vector<SubSession> subs;
    std::mutex mu;  ///< serializes requests touching this session

    std::vector<std::string> cameras() const {
      std::vector<std::string> names;
      for (const SubSession& sub : subs) names.push_back(sub.camera);
      return names;
    }
  };

  /// Validates the options, dials every worker, builds the placement
  /// ring.
  Status Prepare() override;
  /// Installs the request's trace context for fan-out lines, stamps the
  /// relay form of the line (trace context and deadline, when the
  /// incoming line carried none), then routes it.
  std::string Handle(const DaemonRequest& request) override;
  SessionIdentity ResolveSession(const std::string& session_id) override;
  void OnIdle() override { HeartbeatSweep(); }

  /// Routes one parsed request. `line` is the relay form. `deadline`
  /// bounds every worker hop made on behalf of this request.
  std::string Route(const ServeRequest& req, const std::string& line,
                    const Deadline& deadline);

  std::string CmdOpen(const ServeRequest& req, const std::string& line,
                      const Deadline& deadline);
  /// Every session-addressed command (rank, feedback, save, close,
  /// refresh): one lookup (NOT_FOUND unless the session has placed
  /// subs) under the session's mutex, then the single-camera relay —
  /// the line byte-for-byte to the camera's worker, rank via CallSub,
  /// the rest via MirrorSub — or the command's multi-camera handler.
  /// A successful close drops the session.
  std::string CmdSession(const ServeRequest& req, const std::string& line,
                         const Deadline& deadline);

  // Multi-camera handlers, called by CmdSession with `session.mu` held;
  // each keeps only its own aggregation of the sub-sessions' replies
  // (and MultiSaveOrClose drops the session after a successful close).
  std::string MultiRank(const ServeRequest& req, CoordSession& session,
                        const Deadline& deadline);
  std::string MultiFeedback(const ServeRequest& req, CoordSession& session,
                            const Deadline& deadline);
  std::string MultiSaveOrClose(const ServeRequest& req,
                               CoordSession& session,
                               const Deadline& deadline);
  std::string MultiRefresh(CoordSession& session, const Deadline& deadline);

  /// Sequential mirrored fan-out over `session.subs` in open order: each
  /// sub for which `line_for` returns a non-empty line gets it through
  /// MirrorSub (built right before its send, so a stamped budget is
  /// current). Returns the parsed replies, index-aligned with the subs
  /// (null for skipped subs), or the first failure: the transport
  /// status, or "<cmd> on camera '<cam>' failed: ...". Its wall time is
  /// the request's audited `fanout_ms`.
  Result<std::vector<JsonValue>> FanOut(
      CoordSession& session, ServeCmd cmd,
      const std::function<std::string(const SubSession&)>& line_for,
      const Deadline& deadline);

  /// Unregisters `session` (caller holds `session.mu`) and clears its
  /// subs, so requests that looked it up just before answer NOT_FOUND.
  void DropSession(CoordSession& session);

  /// Camera-addressed, sessionless relay (ingest, publish): the line
  /// goes to the camera's primary ring owner only. Replicas share the
  /// db, so mirroring an ingest would double-persist every clip; they
  /// see the new bags at their next cold load or refresh.
  std::string CmdCameraForward(const ServeRequest& req,
                               const std::string& line,
                               const Deadline& deadline);
  std::string CmdStats();
  std::string CmdPing();
  std::string CmdClusterStats();
  std::string CmdTraceDump();

  int64_t WorkersAlive() const;
  /// Stops placement from handing out `endpoint` (the heartbeat
  /// re-admits it when it answers again).
  void DropFromRing(const std::string& endpoint);

  /// Budget of one coordinator-originated worker call: rpc_deadline_ms
  /// from now, or infinite when that is 0.
  Deadline HopDeadline() const;

  /// Sends `line` to one of `sub`'s replicas, walking them in order
  /// ([0]-first, or fastest-EWMA-first when `prefer_fastest`). With a
  /// finite `deadline` each attempt gets an even slice of the remaining
  /// budget so a hung replica cannot starve the retries (a rank retry
  /// after a deadline miss is a hedge, counted in
  /// cluster/hedged_ranks). A replica that fails its transport (or its
  /// deadline) is marked dead and dropped from the ring; a replica that
  /// answers garbage is treated the same and remembered as data loss.
  /// When every current replica is gone the camera is re-placed on the
  /// ring, the sub-session re-opened on the new owners (journal
  /// resume), and the call retried there — until a live owner answers
  /// or the ring is empty. The reply returned is always parsed.
  Result<WorkerReply> CallSub(CoordSession& session, SubSession& sub,
                              const std::string& line,
                              const Deadline& deadline,
                              bool prefer_fastest = false);

  /// Write-path fan-out: `line` must succeed on `sub`'s primary
  /// (failover rules as CallSub) and is then mirrored best-effort to
  /// the other replicas. A replica that fails its mirror is dropped
  /// from the sub's replica set (re-picked at the next failover).
  Result<WorkerReply> MirrorSub(CoordSession& session, SubSession& sub,
                                const std::string& line,
                                const Deadline& deadline);

  /// registry_.Call plus ReadWorkerReply: every worker reply the
  /// coordinator reads arrives through here, parsed once. Transport
  /// errors are registry_.Call's; a reply that is not JSON comes back
  /// with parsed == false for the caller to judge.
  Result<WorkerReply> CallWorker(WorkerConn& worker, const std::string& line,
                                 const Deadline& deadline);

  /// Places `camera` on up to `options_.replication` distinct live
  /// workers. FailedPrecondition when the ring is empty.
  Result<std::vector<std::string>> PlaceCamera(const std::string& camera);

  /// {"cmd":"open",...} line that (re)creates `sub` on its worker, for
  /// a multi-camera open and for failover re-open. It carries no
  /// deadline_ms.
  std::string OpenLineFor(const CoordSession& session,
                          const SubSession& sub) const;

  std::shared_ptr<CoordSession> FindSession(const std::string& id) const;

  void HeartbeatSweep();

  const CoordinatorOptions options_;
  WorkerRegistry registry_;

  mutable std::mutex ring_mu_;
  PlacementRing ring_;

  mutable std::mutex sessions_mu_;
  std::map<std::string, std::shared_ptr<CoordSession>> sessions_;

  std::chrono::steady_clock::time_point last_heartbeat_;
};

}  // namespace mivid

#endif  // MIVID_CLUSTER_COORDINATOR_H_
