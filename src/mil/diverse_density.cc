#include "mil/diverse_density.h"

#include <algorithm>
#include <cmath>

#include "linalg/simd.h"

namespace mivid {

namespace {

constexpr double kEps = 1e-12;

/// Gaussian instance likelihood P(t|x) = exp(-gamma |x-t|^2) with
/// gamma = 1/s^2. Phrased exactly like rbf_from_d2_row (multiply by the
/// reciprocal, DetExp) so the packed row paths below and this pointwise
/// form produce bit-identical likelihoods.
double InstanceP(const Vec& x, const Vec& t, double scale) {
  const double gamma = 1.0 / (scale * scale);
  return DetExp(-(gamma * SquaredDistance(x, t)));
}

/// Likelihood row: P(t|x_j) for every instance of one packed-corpus bag.
void InstancePRow(const Vec& t, double scale, const PackedFeatureMatrix& feat,
                  size_t begin, size_t count, double* d2, double* p) {
  const SimdOpsTable& ops = SimdOps();
  ops.direct_d2_row(t.data(), feat.dim(), feat.data() + begin, feat.stride(),
                    count, d2);
  ops.rbf_from_d2_row(1.0 / (scale * scale), d2, count, p);
}

}  // namespace

DiverseDensityEngine::DiverseDensityEngine(const MilDataset* dataset,
                                           DiverseDensityOptions options)
    : dataset_(dataset), options_(options) {}

double DiverseDensityEngine::LogDd(
    const Vec& t, const std::vector<const MilBag*>& positive,
    const std::vector<const MilBag*>& negative) const {
  const auto packed = dataset_->EnsurePacked();
  std::vector<double> d2, p;
  const MilBag* base = dataset_->bags().data();
  // Likelihoods per bag: one SIMD row over the packed corpus.
  auto likelihoods = [&](const MilBag* bag) -> const double* {
    const size_t count = bag->instances.size();
    d2.resize(count);
    p.resize(count);
    const size_t bi = static_cast<size_t>(bag - base);
    InstancePRow(t, options_.scale, packed->features, packed->bag_begin[bi],
                 count, d2.data(), p.data());
    return p.data();
  };
  double log_dd = 0.0;
  for (const MilBag* bag : positive) {
    const double* ps = likelihoods(bag);
    double log_none = 0.0;  // log prod (1 - P_i)
    for (size_t i = 0; i < bag->instances.size(); ++i) {
      log_none += std::log(std::max(1.0 - ps[i], kEps));
    }
    const double p_bag = 1.0 - std::exp(log_none);
    log_dd += std::log(std::max(p_bag, kEps));
  }
  for (const MilBag* bag : negative) {
    const double* ps = likelihoods(bag);
    for (size_t i = 0; i < bag->instances.size(); ++i) {
      log_dd += std::log(std::max(1.0 - ps[i], kEps));
    }
  }
  return log_dd;
}

Status DiverseDensityEngine::Learn() {
  const auto positive = dataset_->BagsWithLabel(BagLabel::kRelevant);
  const auto negative = dataset_->BagsWithLabel(BagLabel::kIrrelevant);
  if (positive.empty()) {
    return Status::FailedPrecondition(
        "diverse density needs at least one relevant bag");
  }

  // Candidate starts: instances of the positive bags.
  std::vector<const Vec*> starts;
  for (const MilBag* bag : positive) {
    for (const auto& inst : bag->instances) starts.push_back(&inst.features);
  }
  if (starts.empty()) {
    return Status::FailedPrecondition("relevant bags contain no instances");
  }
  if (starts.size() > options_.max_starts) {
    // Deterministic stride subsample.
    std::vector<const Vec*> sampled;
    const double step =
        static_cast<double>(starts.size()) / options_.max_starts;
    for (size_t i = 0; i < options_.max_starts; ++i) {
      sampled.push_back(starts[static_cast<size_t>(i * step)]);
    }
    starts.swap(sampled);
  }

  const double s2 = options_.scale * options_.scale;
  Vec best_t;
  double best_obj = -1e300;

  for (const Vec* start : starts) {
    Vec t = *start;

    if (!options_.use_em) {
      // Plain DD: gradient ascent on log DD.
      for (int step = 0; step < options_.max_gradient_steps; ++step) {
        Vec grad(t.size(), 0.0);
        for (const MilBag* bag : positive) {
          // p_bag = 1 - prod(1 - P_i); gradient via the noisy-or.
          double log_none = 0.0;
          std::vector<double> ps(bag->instances.size());
          for (size_t i = 0; i < bag->instances.size(); ++i) {
            ps[i] = InstanceP(bag->instances[i].features, t, options_.scale);
            log_none += std::log(std::max(1.0 - ps[i], kEps));
          }
          const double none = std::exp(log_none);
          const double p_bag = std::max(1.0 - none, kEps);
          for (size_t i = 0; i < bag->instances.size(); ++i) {
            const double outer =
                none / std::max(1.0 - ps[i], kEps) / p_bag;  // d logp / dP_i
            const Vec& x = bag->instances[i].features;
            for (size_t d = 0; d < t.size(); ++d) {
              grad[d] += outer * ps[i] * 2.0 * (x[d] - t[d]) / s2;
            }
          }
        }
        for (const MilBag* bag : negative) {
          for (const auto& inst : bag->instances) {
            const double p = InstanceP(inst.features, t, options_.scale);
            const double outer = -p / std::max(1.0 - p, kEps);
            for (size_t d = 0; d < t.size(); ++d) {
              grad[d] += outer * 2.0 * (inst.features[d] - t[d]) / s2;
            }
          }
        }
        double gnorm = Norm(grad);
        if (gnorm < 1e-9) break;
        // Trust-region step: cap the move so the ascent cannot diverge.
        double lr_step = options_.learning_rate;
        const double kMaxStep = 0.1;
        if (lr_step * gnorm > kMaxStep) lr_step = kMaxStep / gnorm;
        for (size_t d = 0; d < t.size(); ++d) {
          t[d] += lr_step * grad[d];
        }
      }
    } else {
      // EM-DD: alternate responsible-instance selection and single-
      // instance likelihood maximization.
      for (int em = 0; em < options_.max_em_iterations; ++em) {
        // E-step: responsible instance per positive bag.
        std::vector<const Vec*> responsible;
        for (const MilBag* bag : positive) {
          const Vec* best_inst = nullptr;
          double best_p = -1.0;
          for (const auto& inst : bag->instances) {
            const double p = InstanceP(inst.features, t, options_.scale);
            if (p > best_p) {
              best_p = p;
              best_inst = &inst.features;
            }
          }
          if (best_inst != nullptr) responsible.push_back(best_inst);
        }
        // M-step objective: sum log P(t|x_r) + sum_neg log(1 - P).
        // The positive part's optimum ignores negatives' pull only weakly;
        // run a few gradient steps on the joint objective.
        Vec prev_t = t;
        for (int step = 0; step < options_.max_gradient_steps / 4; ++step) {
          Vec grad(t.size(), 0.0);
          for (const Vec* x : responsible) {
            // d log P / dt = 2 (x - t) / s^2.
            for (size_t d = 0; d < t.size(); ++d) {
              grad[d] += 2.0 * ((*x)[d] - t[d]) / s2;
            }
          }
          for (const MilBag* bag : negative) {
            for (const auto& inst : bag->instances) {
              const double p = InstanceP(inst.features, t, options_.scale);
              const double outer = -p / std::max(1.0 - p, kEps);
              for (size_t d = 0; d < t.size(); ++d) {
                grad[d] += outer * 2.0 * (inst.features[d] - t[d]) / s2;
              }
            }
          }
          const double gnorm = Norm(grad);
          if (gnorm < 1e-9) break;
          double lr_step = options_.learning_rate;
          const double kMaxStep = 0.1;
          if (lr_step * gnorm > kMaxStep) lr_step = kMaxStep / gnorm;
          for (size_t d = 0; d < t.size(); ++d) {
            t[d] += lr_step * grad[d];
          }
        }
        if (std::sqrt(SquaredDistance(prev_t, t)) < 1e-6) break;
      }
    }

    const double obj = LogDd(t, positive, negative);
    if (obj > best_obj) {
      best_obj = obj;
      best_t = t;
    }
  }

  concept_ = std::move(best_t);
  best_log_dd_ = best_obj;
  return Status::OK();
}

std::vector<ScoredBag> DiverseDensityEngine::Rank() const {
  std::vector<ScoredBag> ranking;
  if (!concept_) return ranking;
  ranking.reserve(dataset_->size());
  const auto packed = dataset_->EnsurePacked();
  std::vector<double> d2, p;
  for (size_t b = 0; b < dataset_->size(); ++b) {
    const MilBag& bag = dataset_->bag(b);
    double best = 0.0;
    const size_t count = bag.instances.size();
    d2.resize(count);
    p.resize(count);
    InstancePRow(*concept_, options_.scale, packed->features,
                 packed->bag_begin[b], count, d2.data(), p.data());
    for (size_t i = 0; i < count; ++i) best = std::max(best, p[i]);
    ranking.push_back({bag.id, best});
  }
  std::stable_sort(ranking.begin(), ranking.end(),
                   [](const ScoredBag& a, const ScoredBag& b) {
                     if (a.score != b.score) return a.score > b.score;
                     return a.bag_id < b.bag_id;
                   });
  return ranking;
}

}  // namespace mivid
