#include "serve/session_manager.h"

#include <algorithm>
#include <chrono>

#include "obs/metrics.h"
#include "serve/protocol.h"

namespace mivid {

int64_t SessionManager::NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Result<std::shared_ptr<ServeSession>> SessionManager::Build(
    const std::string& id, const std::string& camera_id,
    const std::string& engine, const SessionState* restore) {
  MIVID_ASSIGN_OR_RETURN(std::shared_ptr<const CorpusEpoch> epoch,
                         corpora_->Snapshot(camera_id));

  // Mirrors QueryEngine::BuildCorpus consumers so a served session ranks
  // exactly like an in-process one over the same database and options.
  SessionOptions session_options = SessionOptionsFor(corpora_->query());
  session_options.engine = engine;
  session_options.top_n = options_.top_n;

  MIVID_ASSIGN_OR_RETURN(RetrievalSession session,
                         RetrievalSession::Create(epoch->Dataset(),
                                                  std::move(session_options)));

  auto serve = std::make_shared<ServeSession>();
  serve->id = id;
  serve->camera_id = camera_id;
  serve->engine = engine;
  serve->epoch = std::move(epoch);
  serve->session = std::make_unique<RetrievalSession>(std::move(session));
  serve->last_used_ms.store(NowMs(), std::memory_order_relaxed);
  if (restore != nullptr && !restore->labels.empty()) {
    MIVID_RETURN_IF_ERROR(
        serve->session->Restore(restore->labels, restore->round));
  }
  return serve;
}

Result<SessionManager::OpenResult> SessionManager::Open(
    const std::string& id, const std::string& camera_id,
    const std::string& engine) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(id);
    if (it != sessions_.end()) {
      ServeSession& live = *it->second;
      if (!camera_id.empty() && camera_id != live.camera_id) {
        return Status::InvalidArgument("session '" + id + "' is open on camera '" +
                                       live.camera_id + "', not '" + camera_id +
                                       "'");
      }
      if (!engine.empty() && engine != live.engine) {
        return Status::InvalidArgument("session '" + id +
                                       "' is open with engine '" + live.engine +
                                       "', not '" + engine + "'");
      }
      live.last_used_ms.store(NowMs(), std::memory_order_relaxed);
      return OpenResult{it->second, /*resumed=*/false, /*already_open=*/true};
    }
  }

  // Not live: consult the journal. The load runs outside mu_ (corpus
  // extraction can take seconds); the insert below re-checks for a racing
  // open of the same id.
  Result<SessionState> journal = db_->LoadSession(JournalName(id));
  const bool resumed = journal.ok();
  std::string camera = camera_id;
  std::string eng = engine;
  if (resumed) {
    const SessionState& state = journal.value();
    if (!camera.empty() && camera != state.camera_id) {
      return Status::InvalidArgument("session '" + id +
                                     "' was journaled on camera '" +
                                     state.camera_id + "', not '" + camera +
                                     "'");
    }
    if (!eng.empty() && eng != state.engine) {
      return Status::InvalidArgument("session '" + id +
                                     "' was journaled with engine '" +
                                     state.engine + "', not '" + eng + "'");
    }
    camera = state.camera_id;
    eng = state.engine;
  } else if (!journal.status().IsNotFound()) {
    return journal.status();  // corrupt journal: surface, don't clobber
  }
  if (camera.empty()) {
    return Status::InvalidArgument("'camera' is required to open session '" +
                                   id + "'");
  }
  if (eng.empty()) eng = options_.default_engine;

  MIVID_ASSIGN_OR_RETURN(
      std::shared_ptr<ServeSession> built,
      Build(id, camera, eng, resumed ? &journal.value() : nullptr));

  std::vector<std::shared_ptr<ServeSession>> evicted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = sessions_.emplace(id, built);
    if (!inserted) {
      // A concurrent open won the race; adopt its session (both opens see
      // the same state either way — the journal was identical).
      it->second->last_used_ms.store(NowMs(), std::memory_order_relaxed);
      return OpenResult{it->second, /*resumed=*/false, /*already_open=*/true};
    }
    if (options_.max_sessions > 0 &&
        sessions_.size() > options_.max_sessions) {
      // Over capacity: shed idle sessions; if every other session is busy
      // or fresh, refuse this open.
      evicted = DetachIdleLocked(built.get());
      if (sessions_.size() > options_.max_sessions) {
        sessions_.erase(id);
        MIVID_METRIC_COUNT("serve/opens_rejected", 1);
        return Status::ResourceExhausted(
            "session table full (" + std::to_string(options_.max_sessions) +
            " live sessions)");
      }
    }
    if (resumed) MIVID_METRIC_COUNT("serve/sessions_resumed", 1);
    MIVID_METRIC_GAUGE_SET("serve/sessions_open", sessions_.size());
  }
  JournalEvicted(evicted);
  return OpenResult{built, resumed, /*already_open=*/false};
}

Result<std::shared_ptr<ServeSession>> SessionManager::Get(
    const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound("session '" + id +
                            "' is not open (open it to resume)");
  }
  it->second->last_used_ms.store(NowMs(), std::memory_order_relaxed);
  return it->second;
}

Status SessionManager::Save(const ServeSession& session) {
  SessionState state;
  state.camera_id = session.camera_id;
  state.engine = session.engine;
  state.round = session.session->round();
  state.labels = session.session->LabeledBags();
  MIVID_METRIC_COUNT("serve/journal_writes", 1);
  return db_->SaveSession(JournalName(session.id), state);
}

Status SessionManager::Refresh(ServeSession* session) {
  MIVID_ASSIGN_OR_RETURN(std::shared_ptr<const CorpusEpoch> epoch,
                         corpora_->Snapshot(session->camera_id));
  if (session->epoch != nullptr && epoch->id == session->epoch->id) {
    return Status::OK();  // already pinned to the latest epoch
  }

  // A camera's epochs only grow by Publish appending bags with
  // continuing ids, so the session's own dataset takes the new epoch's
  // tail bags, and its labels replay over the rebuilt engine: the same
  // state a fresh open on the new epoch restores, at the cost of the new
  // bags instead of a copy of the whole corpus. Extend refuses (with the
  // session unchanged) an epoch that does not extend the session's bags.
  MIVID_RETURN_IF_ERROR(session->session->Extend(epoch->datasets()));
  session->epoch = std::move(epoch);
  MIVID_METRIC_COUNT("serve/session_refreshes", 1);
  return Status::OK();
}

Status SessionManager::Close(const std::string& id, bool discard) {
  std::shared_ptr<ServeSession> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return Status::NotFound("session '" + id + "' is not open");
    }
    session = it->second;
    sessions_.erase(it);
    MIVID_METRIC_GAUGE_SET("serve/sessions_open", sessions_.size());
  }
  // Out of mu_: an in-flight request on this session finishes first, and
  // its final state is what gets journaled.
  std::lock_guard<std::mutex> session_lock(session->mu);
  if (discard) return Status::OK();
  return Save(*session);
}

std::vector<std::shared_ptr<ServeSession>> SessionManager::DetachIdleLocked(
    const ServeSession* keep) {
  std::vector<std::shared_ptr<ServeSession>> evicted;
  if (options_.idle_timeout_ms <= 0) return evicted;
  const int64_t now = NowMs();
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    ServeSession& s = *it->second;
    const int64_t idle = now - s.last_used_ms.load(std::memory_order_relaxed);
    if (&s != keep && idle >= options_.idle_timeout_ms && s.mu.try_lock()) {
      s.mu.unlock();  // nobody mid-request; safe to detach
      evicted.push_back(it->second);
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
  if (!evicted.empty()) {
    MIVID_METRIC_GAUGE_SET("serve/sessions_open", sessions_.size());
  }
  return evicted;
}

void SessionManager::JournalEvicted(
    const std::vector<std::shared_ptr<ServeSession>>& evicted) {
  for (const auto& session : evicted) {
    std::lock_guard<std::mutex> session_lock(session->mu);
    (void)Save(*session);
    MIVID_METRIC_COUNT("serve/sessions_evicted", 1);
  }
}

size_t SessionManager::EvictIdle() {
  std::vector<std::shared_ptr<ServeSession>> evicted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    evicted = DetachIdleLocked(nullptr);
  }
  JournalEvicted(evicted);
  return evicted.size();
}

Status SessionManager::SaveAll() {
  std::vector<std::shared_ptr<ServeSession>> live;
  {
    std::lock_guard<std::mutex> lock(mu_);
    live.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) live.push_back(session);
  }
  Status result = Status::OK();
  for (const auto& session : live) {
    std::lock_guard<std::mutex> session_lock(session->mu);
    Status s = Save(*session);
    if (!s.ok() && result.ok()) result = std::move(s);
  }
  return result;
}

size_t SessionManager::open_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

std::vector<std::string> SessionManager::open_ids() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> ids;
  ids.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) ids.push_back(id);
  return ids;
}

}  // namespace mivid
