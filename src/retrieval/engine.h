// RetrievalEngine: the common interface every relevance-feedback ranker
// implements (the proposed MIL one-class SVM and the four baselines).
//
// The interactive loop (RetrievalSession, eval/experiment.cc, and the
// mivid_serve daemon) drives engines exclusively through this interface:
// labels go in via SetLabels, Retrain absorbs them, Rank produces the
// next round's ordering. Retrain is cold-start aware — until an engine's
// own preconditions are met (e.g. MI-SVM needs a negative label) it
// returns OK without training, and the caller keeps ranking with the
// initial-query heuristic while trained() stays false.

#ifndef MIVID_RETRIEVAL_ENGINE_H_
#define MIVID_RETRIEVAL_ENGINE_H_

#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "mil/dataset.h"
#include "retrieval/heuristic.h"

namespace mivid {

/// Training statistics for one relevance-feedback round, recorded by
/// engines that train models so library users get the numbers without
/// scraping logs.
struct MilRoundStats {
  int round = 0;               ///< 1-based feedback round (Learn() call)
  double nu = 0.0;             ///< Eq. 9 delta actually used
  double sigma = 0.0;          ///< RBF bandwidth after auto-tuning
  size_t relevant_bags = 0;    ///< h: bags labeled relevant
  size_t training_size = 0;    ///< H: flattened training instances
  size_t support_vectors = 0;
  int smo_iterations = 0;
  /// Fraction of training instances the trained model rejects; Eq. 9
  /// targets this at delta, so the gap measures how well nu was realized.
  double achieved_outlier_fraction = 0.0;
  uint64_t cache_hits = 0;     ///< always 0; read by the e2ebench harness
  uint64_t cache_misses = 0;   ///< always 0; read by the e2ebench harness
  double learn_seconds = 0.0;
};

/// Aggregated per-session statistics surfaced by run_summary().
struct RunSummary {
  std::vector<MilRoundStats> rounds;
  size_t rank_calls = 0;
  double total_rank_seconds = 0.0;
};

/// Abstract relevance-feedback ranker over a labeled MilDataset.
class RetrievalEngine {
 public:
  /// `dataset` must outlive the engine; the engine owns the labels on it
  /// (SetLabels) but never adds or removes bags.
  explicit RetrievalEngine(MilDataset* dataset) : dataset_(dataset) {}
  virtual ~RetrievalEngine() = default;

  /// The registry key this engine was built under ("milrf", ...).
  virtual std::string_view name() const = 0;

  /// Applies feedback labels to the corpus. Labels accumulate across
  /// calls; re-labeling a bag overwrites its previous label. Fails with
  /// NotFound on an unknown bag id (earlier pairs stay applied).
  Status SetLabels(const std::vector<std::pair<int, BagLabel>>& labels);

  /// Retrains from the accumulated labels. Returns OK without training
  /// while the engine's cold-start preconditions are not met yet.
  virtual Status Retrain() = 0;

  /// True once Retrain() has produced a usable ranking model. Callers
  /// fall back to the initial-query heuristic while this is false.
  virtual bool trained() const = 0;

  /// Full ranking of every bag, best first (requires trained()).
  virtual std::vector<ScoredBag> Rank() const = 0;

  /// Per-round training stats plus ranking totals; engines without
  /// instrumentation return an empty summary.
  virtual const RunSummary& run_summary() const;

  const MilDataset& dataset() const { return *dataset_; }

 protected:
  MilDataset* dataset_;
};

}  // namespace mivid

#endif  // MIVID_RETRIEVAL_ENGINE_H_
