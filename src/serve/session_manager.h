// SessionManager: the live sessions hosted by mivid_serve.
//
// Each ServeSession pairs a RetrievalSession (private labels, private
// engine) with a shared immutable corpus from the CorpusManager. Commands
// against one session serialize on its own mutex, so concurrent clients
// on distinct sessions never contend while two clients sharing a session
// see a consistent feedback/rank order.
//
// Persistence is journal-based and crash-safe: every feedback round
// appends the session's full SessionState to its journal "serve_<id>"
// before the reply goes out (one O_APPEND write; a journal grown past
// four times its last record is compacted to that record through an
// atomic temp + rename). Opening a session whose journal exists — after
// an eviction, a clean restart, or a crash — rebuilds it from the last
// whole record, reproducing the exact ranking the client last saw; a
// record torn by a crash mid-append costs only that round.

#ifndef MIVID_SERVE_SESSION_MANAGER_H_
#define MIVID_SERVE_SESSION_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "db/video_db.h"
#include "serve/corpus_manager.h"

namespace mivid {

/// One hosted session. Command handlers lock `mu` for the duration of a
/// request; `last_used_ms` (steady-clock) feeds idle eviction.
///
/// The session pins the corpus epoch it opened on: concurrent ingest and
/// epoch publishes never change its rankings. `refresh` re-pins onto the
/// latest epoch by appending its new bags to the session's dataset and
/// replaying the session's labels (bag ids are stable across epochs, so
/// feedback keeps its meaning).
struct ServeSession {
  std::string id;
  std::string camera_id;
  std::string engine;
  std::shared_ptr<const CorpusEpoch> epoch;
  std::unique_ptr<RetrievalSession> session;
  std::mutex mu;
  std::atomic<int64_t> last_used_ms{0};
};

struct SessionManagerOptions {
  std::string default_engine = "milrf";
  size_t max_sessions = 64;      ///< hosted at once; 0 = unlimited
  int64_t idle_timeout_ms = 0;   ///< journal + evict after; 0 = never
  size_t top_n = 20;             ///< results per round for new sessions
};

class SessionManager {
 public:
  /// `db` and `corpora` must outlive the manager.
  SessionManager(VideoDb* db, CorpusManager* corpora,
                 SessionManagerOptions options)
      : db_(db), corpora_(corpora), options_(std::move(options)) {}

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  struct OpenResult {
    std::shared_ptr<ServeSession> session;
    bool resumed = false;       ///< rebuilt from a journal
    bool already_open = false;  ///< was live in memory
  };

  /// Opens (or re-attaches to) session `id`. Resolution order: live in
  /// memory -> journal on disk -> fresh. `camera_id`/`engine` may be
  /// empty when a journal or live session supplies them; a non-empty
  /// value that contradicts the existing session is InvalidArgument.
  /// ResourceExhausted when the session table is full of busy sessions.
  Result<OpenResult> Open(const std::string& id, const std::string& camera_id,
                          const std::string& engine);

  /// The live session, or NotFound (clients re-open to resume).
  Result<std::shared_ptr<ServeSession>> Get(const std::string& id);

  /// Journals `session`'s current state. Caller holds session.mu.
  Status Save(const ServeSession& session);

  /// Re-pins `session` onto its camera's latest published epoch: appends
  /// the epoch's bags past the session's own (RetrievalSession::Extend),
  /// rebuilds the engine and replays the session's labels. No-op when the
  /// session already pins the latest epoch; Internal, with the session
  /// unchanged, when the epoch does not extend the session's bags. A
  /// failed replay keeps the old epoch pinned, and the next refresh
  /// retries it. Caller holds session->mu.
  Status Refresh(ServeSession* session);

  /// Closes a live session: journals it (unless `discard`) and drops it
  /// from memory. The journal remains, so the id can be re-opened.
  Status Close(const std::string& id, bool discard);

  /// Journals and drops sessions idle past the timeout. Sessions whose
  /// lock is held (a request in flight) are skipped. Returns the number
  /// evicted.
  size_t EvictIdle();

  /// Journals every live session (graceful shutdown).
  Status SaveAll();

  size_t open_count() const;
  std::vector<std::string> open_ids() const;
  const SessionManagerOptions& options() const { return options_; }

  /// Monotonic milliseconds used for idle accounting.
  static int64_t NowMs();

 private:
  /// Builds a live session over its corpus, replaying `restore` if given.
  Result<std::shared_ptr<ServeSession>> Build(const std::string& id,
                                              const std::string& camera_id,
                                              const std::string& engine,
                                              const SessionState* restore);
  std::string JournalName(const std::string& id) const { return "serve_" + id; }

  VideoDb* db_;
  CorpusManager* corpora_;
  const SessionManagerOptions options_;
  mutable std::mutex mu_;  ///< guards sessions_ (not the sessions)
  std::map<std::string, std::shared_ptr<ServeSession>> sessions_;
};

}  // namespace mivid

#endif  // MIVID_SERVE_SESSION_MANAGER_H_
