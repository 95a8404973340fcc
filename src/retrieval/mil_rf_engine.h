// The proposed method: MIL relevance feedback with One-class SVM
// (paper Sec. 5.2-5.3).
//
// After each feedback round the engine assembles the training set from the
// bags labeled relevant so far, sets the outlier fraction per Eq. 9
//   delta = 1 - (h/H + z)
// (h = number of relevant bags, H = number of training instances,
// z = 0.05), trains a One-class SVM on the flattened TS vectors, and ranks
// every bag by the maximum decision value over its instances.

#ifndef MIVID_RETRIEVAL_MIL_RF_ENGINE_H_
#define MIVID_RETRIEVAL_MIL_RF_ENGINE_H_

#include <optional>
#include <vector>

#include "common/status.h"
#include "event/event_model.h"
#include "mil/dataset.h"
#include "retrieval/engine.h"
#include "retrieval/heuristic.h"
#include "svm/kernel.h"
#include "svm/one_class_svm.h"

namespace mivid {

/// Which instances of the relevant bags enter the training set
/// (the paper: "collecting the highest scored TSs in the relevant VSs").
enum class TrainingSetPolicy : uint8_t {
  /// The highest-scored TSs of each relevant VS: every TS whose heuristic
  /// score reaches `top_score_fraction` of its bag's best (so the extra
  /// participants of multi-vehicle accidents are collected too, which is
  /// what Eq. 9's z compensates for). Paper-faithful default.
  kTopScoredInstances = 0,
  /// Every TS of every relevant VS (ablation: at least h of H are truly
  /// relevant, the rest are outliers for Eq. 9 to absorb).
  kAllInstances = 1,
  /// Exactly one top TS per relevant VS (ablation: smallest training set;
  /// Eq. 9 degenerates to the nu floor).
  kTopInstancePerBag = 2,
};

/// Engine configuration.
struct MilRfOptions {
  KernelParams kernel;        ///< RBF sigma 0.5 over [0,1]-normalized dims
  bool auto_sigma = true;     ///< set RBF sigma from the median pairwise
                              ///< training distance each round (self-tuning
                              ///< bandwidth; ignored for non-RBF kernels)
  double sigma_scale = 0.3;   ///< auto sigma = scale * median distance;
                              ///< < 1 biases toward nearest-neighbor locality
  double z = 0.05;            ///< Eq. 9 adjustment (paper: 0.05 works well)
  double min_nu = 0.02;       ///< clamp for degenerate label counts
  double max_nu = 0.95;
  TrainingSetPolicy policy = TrainingSetPolicy::kTopScoredInstances;
  double top_score_fraction = 0.5;  ///< kTopScoredInstances threshold
  double min_training_score = 0.0;  ///< drop training TSs whose heuristic
                                    ///< score is below this fraction of the
                                    ///< best score across all relevant bags
                                    ///< (guards against feature-less but
                                    ///< technically-relevant windows, e.g.
                                    ///< a crashed car sitting still; 0=off)
  size_t base_dim = 3;        ///< checkpoint feature dimension
  EventModel tie_break_model; ///< heuristic used by kTopInstancePerBag
};

/// One-class-SVM MIL ranker over a labeled MilDataset (the proposed
/// method; registry key "milrf").
class MilRfEngine : public RetrievalEngine {
 public:
  /// `dataset` must outlive the engine.
  MilRfEngine(MilDataset* dataset, MilRfOptions options);

  std::string_view name() const override { return "milrf"; }

  /// (Re)trains from the bags currently labeled relevant in the dataset.
  /// Fails with FailedPrecondition when no relevant bag exists yet.
  Status Learn();

  /// Cold-start-aware Learn(): a no-op until a relevant label exists.
  Status Retrain() override;

  /// True once Learn() has succeeded at least once.
  bool trained() const override { return model_.has_value(); }

  /// Ranks all bags by max-instance decision value (requires trained()).
  std::vector<ScoredBag> Rank() const override;

  /// The nu (delta) used by the last Learn() call.
  double last_nu() const { return last_nu_; }
  size_t last_training_size() const { return last_training_size_; }
  const OneClassSvmModel* model() const {
    return model_ ? &*model_ : nullptr;
  }

  /// Per-round training stats plus ranking totals for this session.
  const RunSummary& run_summary() const override { return summary_; }

 private:
  MilRfOptions options_;
  std::optional<OneClassSvmModel> model_;
  /// Mutable: Rank() is logically const but contributes timing totals.
  mutable RunSummary summary_;
  double last_nu_ = 0.0;
  size_t last_training_size_ = 0;
};

}  // namespace mivid

#endif  // MIVID_RETRIEVAL_MIL_RF_ENGINE_H_
