// RetrievalSession: the interactive loop of Fig. 6/7.
//
// Round 0 ranks by the event-model heuristic. Each SubmitFeedback call
// records bag labels (cumulative across rounds), retrains the session's
// RetrievalEngine, and advances to the next round, whose ranking comes
// from the engine once it has trained. The engine is selected by name
// from the registry ("milrf" by default) or injected via a factory, so
// the session drives any learner through the same protocol. This is the
// object a UI (or the evaluation oracle, or the mivid_serve daemon)
// drives.

#ifndef MIVID_RETRIEVAL_SESSION_H_
#define MIVID_RETRIEVAL_SESSION_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "retrieval/engine_registry.h"

namespace mivid {

/// Session configuration.
struct SessionOptions {
  size_t top_n = 20;     ///< results shown per round (paper: 20)
  std::string engine = "milrf";  ///< registry key of the learner
  MilRfOptions mil;      ///< "milrf" config; mil.base_dim is also the
                         ///< corpus feature dimension the heuristic and
                         ///< the weighted engine use
  WeightedRfOptions weighted;
  RocchioOptions rocchio;
  MiSvmOptions misvm;
  CitationKnnOptions cknn;
  EventModel query_model;  ///< initial-query heuristic (default: accident)

  /// The per-engine bundle the registry consumes, with the corpus
  /// dimension propagated into every engine that needs it.
  EngineConfig engine_config() const;
};

/// Builds an engine over the session's dataset; used to inject a custom
/// (e.g. unregistered) engine into RetrievalSession.
using EngineFactory =
    std::function<std::unique_ptr<RetrievalEngine>(MilDataset*)>;

/// One user's interactive retrieval session over a corpus.
class RetrievalSession {
 public:
  /// The session owns a copy of the dataset (labels are per-session
  /// state) and builds its engine from options.engine; an unknown name
  /// falls back to "milrf" (use Create() to surface the error instead).
  RetrievalSession(MilDataset dataset, SessionOptions options);

  /// Same, but the engine comes from `factory` (options.engine ignored).
  RetrievalSession(MilDataset dataset, SessionOptions options,
                   const EngineFactory& factory);

  /// Validating constructor: InvalidArgument on an unknown engine name.
  static Result<RetrievalSession> Create(MilDataset dataset,
                                         SessionOptions options);

  /// Full ranking for the current round (heuristic at round 0, the
  /// engine once it has trained).
  std::vector<ScoredBag> CurrentRanking() const;

  /// CurrentRanking() truncated to its first `k` entries, so served and
  /// in-process top-k are exact prefixes of the one ranking.
  std::vector<ScoredBag> CurrentTopK(size_t k) const;

  /// The top-n bag ids presented to the user this round.
  std::vector<int> TopBags() const;

  /// Applies the user's labels for this round's results and retrains.
  /// Labels accumulate; re-labeling a bag overwrites its previous label.
  /// Until the engine's cold-start preconditions are met (e.g. no bag
  /// labeled relevant yet), the session stays on the heuristic ranking
  /// (matching the paper's cold-start behavior).
  Status SubmitFeedback(const std::vector<std::pair<int, BagLabel>>& labels);

  /// Exports the session's accumulated feedback (for persistence).
  std::vector<std::pair<int, BagLabel>> LabeledBags() const;

  /// Re-applies a previously exported feedback set and retrains once;
  /// `round` restores the round counter.
  Status Restore(const std::vector<std::pair<int, BagLabel>>& labels,
                 int round);

  /// Grows the session's corpus to `grown`, the concatenation of the
  /// given datasets, which must extend it: at least as many bags, and
  /// the same bag id at this corpus's last index (Internal otherwise,
  /// with the session unchanged). Appends bags [size(), grown size),
  /// rebuilds the engine over the grown dataset and replays the labels
  /// through Restore, so the session ranks as one created over `grown`
  /// with the same feedback restored (round 0 when no bag is labeled).
  /// If the replay fails, the session keeps the grown corpus and its
  /// labels, like a failed feedback round.
  Status Extend(const std::vector<const MilDataset*>& grown);

  int round() const { return round_; }
  size_t top_n() const { return options_.top_n; }
  const MilDataset& dataset() const { return *dataset_; }
  const RetrievalEngine& engine() const { return *engine_; }

 private:
  /// (Re)builds engine_ over dataset_ from factory_, or from the
  /// registry when no factory was given.
  void BuildEngine();

  // Held behind stable pointers so the session stays movable: the engine
  // references the dataset by address.
  std::unique_ptr<MilDataset> dataset_;
  SessionOptions options_;
  EngineFactory factory_;
  std::unique_ptr<RetrievalEngine> engine_;
  int round_ = 0;
};

}  // namespace mivid

#endif  // MIVID_RETRIEVAL_SESSION_H_
