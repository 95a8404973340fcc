#include "retrieval/mil_rf_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace mivid {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

namespace {

/// A training candidate: the instance vector and its heuristic score.
struct TrainingCandidate {
  Vec features;
  double score = 0.0;
};

}  // namespace

MilRfEngine::MilRfEngine(MilDataset* dataset, MilRfOptions options)
    : RetrievalEngine(dataset), options_(options) {
  if (options_.tie_break_model.weights.empty()) {
    options_.tie_break_model = EventModel::Accident(options_.base_dim);
  }
}

Status MilRfEngine::Retrain() {
  if (dataset_->CountLabel(BagLabel::kRelevant) == 0) return Status::OK();
  return Learn();
}

Status MilRfEngine::Learn() {
  MIVID_TRACE_SPAN("mil/learn");
  MIVID_SCOPED_TIMER("mil/learn_seconds");
  const auto learn_start = std::chrono::steady_clock::now();
  const std::vector<const MilBag*> relevant =
      dataset_->BagsWithLabel(BagLabel::kRelevant);
  if (relevant.empty()) {
    return Status::FailedPrecondition(
        "no relevant feedback yet; use the initial heuristic ranking");
  }

  // Assemble the training set (each candidate with its heuristic score so
  // the global floor below can be applied).
  std::vector<TrainingCandidate> candidates;
  for (const MilBag* bag : relevant) {
    if (bag->empty()) continue;
    std::vector<double> scores;
    scores.reserve(bag->instances.size());
    double best_score = -1.0;
    for (const auto& inst : bag->instances) {
      scores.push_back(HeuristicInstanceScore(
          inst.raw_features, options_.tie_break_model, options_.base_dim));
      best_score = std::max(best_score, scores.back());
    }
    auto add = [&](size_t i) {
      candidates.push_back({bag->instances[i].features, scores[i]});
    };
    if (options_.policy == TrainingSetPolicy::kAllInstances) {
      for (size_t i = 0; i < scores.size(); ++i) add(i);
    } else if (options_.policy == TrainingSetPolicy::kTopInstancePerBag) {
      for (size_t i = 0; i < scores.size(); ++i) {
        if (scores[i] == best_score) {
          add(i);
          break;
        }
      }
    } else {  // kTopScoredInstances
      const double cutoff = best_score * options_.top_score_fraction;
      for (size_t i = 0; i < scores.size(); ++i) {
        if (scores[i] >= cutoff) add(i);
      }
    }
  }
  // Global floor: a relevant bag whose best TS still looks like normal
  // driving (a crashed car parked against the wall) would anchor the
  // support region at the feature origin; drop such anchors.
  if (options_.min_training_score > 0.0) {
    double global_best = 0.0;
    for (const auto& c : candidates) {
      global_best = std::max(global_best, c.score);
    }
    const double floor = options_.min_training_score * global_best;
    std::vector<TrainingCandidate> kept;
    for (auto& c : candidates) {
      if (c.score >= floor) kept.push_back(std::move(c));
    }
    if (!kept.empty()) candidates.swap(kept);
  }
  std::vector<Vec> training;
  training.reserve(candidates.size());
  for (auto& c : candidates) training.push_back(std::move(c.features));
  if (training.empty()) {
    return Status::FailedPrecondition("relevant bags contain no instances");
  }
  // Validate dimensions before any pairwise work: the distance kernels
  // index both vectors by the same coordinate.
  for (const auto& t : training) {
    if (t.size() != training[0].size()) {
      return Status::InvalidArgument(
          "relevant bags contain instances of inconsistent dimension");
    }
  }

  // Eq. 9: delta = 1 - (h/H + z).
  const double h = static_cast<double>(relevant.size());
  const double big_h = static_cast<double>(training.size());
  const double nu =
      std::clamp(1.0 - (h / big_h + options_.z), options_.min_nu,
                 options_.max_nu);

  OneClassSvmOptions svm_options;
  svm_options.kernel = options_.kernel;
  const bool rbf = svm_options.kernel.type == KernelType::kRbf;

  // RBF rounds compute the training set's pairwise distances once; they
  // feed both the bandwidth heuristic and the Gram.
  std::optional<Matrix> d2;
  if (rbf) d2 = PairwiseSquaredDistances(training);
  if (options_.auto_sigma && rbf && training.size() >= 2) {
    // Median-distance bandwidth heuristic: wide enough to generalize
    // across the relevant cluster, narrow enough to exclude the rest.
    std::vector<double> dists;
    dists.reserve(training.size() * (training.size() - 1) / 2);
    for (size_t i = 0; i < training.size(); ++i) {
      for (size_t j = i + 1; j < training.size(); ++j) {
        dists.push_back(std::sqrt(d2->At(i, j)));
      }
    }
    std::nth_element(dists.begin(), dists.begin() + dists.size() / 2,
                     dists.end());
    const double median = dists[dists.size() / 2];
    if (median > 1e-9) {
      svm_options.kernel.sigma = options_.sigma_scale * median;
    }
  }
  svm_options.nu = nu;
  OneClassSvmTrainer trainer(svm_options);
  OneClassSvmModel model;
  if (rbf) {
    const GramMatrix gram(svm_options.kernel, *d2);
    MIVID_ASSIGN_OR_RETURN(model, trainer.Train(training, gram));
  } else {
    MIVID_ASSIGN_OR_RETURN(model, trainer.Train(training));
  }

  model_ = std::move(model);
  last_nu_ = nu;
  last_training_size_ = training.size();

  MilRoundStats stats;
  stats.round = static_cast<int>(summary_.rounds.size()) + 1;
  stats.nu = nu;
  stats.sigma = svm_options.kernel.sigma;
  stats.relevant_bags = relevant.size();
  stats.training_size = training.size();
  stats.support_vectors = model_->num_support_vectors();
  stats.smo_iterations = model_->iterations_used();
  stats.achieved_outlier_fraction = model_->training_outlier_fraction();
  stats.learn_seconds = SecondsSince(learn_start);
  summary_.rounds.push_back(stats);

  MIVID_METRIC_GAUGE_SET("mil/last_nu", nu);
  MIVID_METRIC_GAUGE_SET("mil/last_sigma", stats.sigma);
  MIVID_METRIC_GAUGE_SET("mil/last_training_size",
                         static_cast<double>(training.size()));
  MIVID_METRIC_COUNT("mil/learn_calls", 1);
  return Status::OK();
}

std::vector<ScoredBag> MilRfEngine::Rank() const {
  MIVID_TRACE_SPAN("mil/rank");
  MIVID_SCOPED_TIMER("rank/seconds");
  const auto rank_start = std::chrono::steady_clock::now();
  std::vector<ScoredBag> ranking;
  if (!model_) return ranking;

  // Score every instance of every bag in one batch over the corpus's
  // cached SoA lowering, then take per-bag maxima.
  const std::vector<MilBag>& bags = dataset_->bags();
  const std::shared_ptr<const PackedCorpus> packed = dataset_->EnsurePacked();
  const std::vector<double> values = model_->DecisionValues(packed->features);
  const std::vector<size_t>& bag_begin = packed->bag_begin;

  ranking.reserve(bags.size());
  for (size_t b = 0; b < bags.size(); ++b) {
    double best = -1e18;
    for (size_t q = bag_begin[b]; q < bag_begin[b + 1]; ++q) {
      best = std::max(best, values[q]);
    }
    ranking.push_back({bags[b].id, best});
  }
  std::stable_sort(ranking.begin(), ranking.end(),
                   [](const ScoredBag& a, const ScoredBag& b) {
                     if (a.score != b.score) return a.score > b.score;
                     return a.bag_id < b.bag_id;
                   });
  ++summary_.rank_calls;
  summary_.total_rank_seconds += SecondsSince(rank_start);
  MIVID_METRIC_COUNT("rank/bags", ranking.size());
  MIVID_METRIC_COUNT("rank/calls", 1);
  return ranking;
}

}  // namespace mivid
