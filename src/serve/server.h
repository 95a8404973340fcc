// RetrievalServer: the mivid_serve daemon core, and the worker role of
// a mivid_coord cluster.
//
// A long-lived process hosting many concurrent interactive retrieval
// sessions over one database. Clients speak newline-delimited JSON over
// a Unix-domain stream socket and/or a TCP socket (see
// serve/line_transport.h and serve/protocol.h); every request dispatches
// through the RetrievalEngine interface, so each session can run any
// registered learner. With a `worker_id` and a TCP port set, the same
// process serves as one worker of a coordinator/worker fleet
// (src/cluster/): the coordinator routes sessions here by consistent-hash
// placement of their cameras and probes liveness with `ping`.
//
// Concurrency model:
//  * One accept thread; one thread per connection reading lines
//    (LineTransport).
//  * A request executes on the connection thread that read it, so the
//    connections bound the concurrency. Admission is bounded too: when
//    `max_pending` requests are already in flight the server answers
//    RESOURCE_EXHAUSTED immediately instead of queueing without bound —
//    explicit backpressure the client can see and retry on.
//  * Per-session mutexes serialize commands against one session; requests
//    on different sessions run in parallel over shared immutable corpora.
//
// It is the worker role of the daemon shell (serve/daemon.h), whose
// HandleLine() tests drive in-process without a socket.

#ifndef MIVID_SERVE_SERVER_H_
#define MIVID_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ingest/camera_ingestor.h"
#include "serve/corpus_manager.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "serve/session_manager.h"

namespace mivid {

/// Daemon configuration.
struct ServeOptions {
  DaemonOptions daemon;     ///< listeners and logs
  std::string worker_id;    ///< fleet identity reported by ping/stats
  std::string default_engine = "milrf";
  size_t max_pending = 64;   ///< in-flight request bound; 0 = unbounded
  size_t max_sessions = 64;  ///< live session bound; 0 = unbounded
  int64_t idle_timeout_ms = 0;  ///< journal+evict idle sessions; 0 = never
  size_t top_n = 20;            ///< results per round
  QueryOptions query;           ///< corpus extraction parameters
  std::string corpus_snapshot_dir;  ///< packed-corpus snapshot cache (see
                                    ///< CorpusManager); "" disables it

  /// Streaming ingestion (the `ingest` command): auto-cut clip length in
  /// stream frames (<= 0 = clips end only on an explicit "cut") and the
  /// track-retirement gap (see IngestOptions in ingest/stream_types.h).
  int ingest_clip_frames = 0;
  int ingest_retire_frames = 25;

  /// Test-only: runs after a request is admitted (slot held) and before
  /// it executes. Blocking here holds the slot, which lets tests fill the
  /// admission window deterministically.
  std::function<void(const ServeRequest&)> admission_hook;
};

/// Startup validation of one option bundle: every listener/limit/path
/// combination that can only fail mid-request later is rejected here with
/// a clear message instead. `will_listen` additionally requires at least
/// one configured listener (in-process HandleLine tests pass false).
/// Probes `corpus_snapshot_dir` for writability (creating it if absent).
Status ValidateServeOptions(const ServeOptions& options,
                            bool will_listen = true);

class RetrievalServer : public LineDaemon {
 public:
  /// `db` must outlive the server.
  RetrievalServer(VideoDb* db, ServeOptions options);
  /// Stops, which journals every live session.
  ~RetrievalServer() override;

  SessionManager& sessions() { return sessions_; }
  CorpusManager& corpora() { return corpora_; }
  const ServeOptions& options() const { return options_; }
  uint64_t requests_served() const { return served_.load(); }
  uint64_t requests_rejected() const { return rejected_.load(); }

 private:
  Status Prepare() override;
  /// Bounded admission, the wire-deadline shed, then the command; the
  /// worker.reply.truncate fault cuts the reply it returns.
  std::string Handle(const DaemonRequest& request) override;
  SessionIdentity ResolveSession(const std::string& session_id) override;
  void OnIdle() override { sessions_.EvictIdle(); }
  /// Journals every live session once the transport has stopped.
  void OnStop() override;

  std::string Execute(const ServeRequest& req);
  std::string CmdOpen(const ServeRequest& req);
  std::string CmdRank(const ServeRequest& req);
  std::string CmdFeedback(const ServeRequest& req);
  std::string CmdSave(const ServeRequest& req);
  std::string CmdClose(const ServeRequest& req);
  std::string CmdStats(const ServeRequest& req);
  std::string CmdPing(const ServeRequest& req);
  std::string CmdMetrics(const ServeRequest& req);
  std::string CmdClusterStats(const ServeRequest& req);
  std::string CmdTraceDump(const ServeRequest& req);
  std::string CmdIngest(const ServeRequest& req);
  std::string CmdRefresh(const ServeRequest& req);
  std::string CmdPublish(const ServeRequest& req);

  /// The camera's live ingestor, created on first use.
  std::shared_ptr<CameraIngestor> IngestorFor(const std::string& camera_id);

  VideoDb* db_;
  const ServeOptions options_;
  CorpusManager corpora_;
  SessionManager sessions_;
  std::mutex ingest_mu_;  ///< guards ingestors_ (not the ingestors)
  std::map<std::string, std::shared_ptr<CameraIngestor>> ingestors_;

  std::atomic<int> in_flight_{0};
  std::atomic<uint64_t> served_{0};
  std::atomic<uint64_t> rejected_{0};
};

}  // namespace mivid

#endif  // MIVID_SERVE_SERVER_H_
