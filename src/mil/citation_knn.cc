#include "mil/citation_knn.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/simd.h"

namespace mivid {

namespace {

/// BagToBagDistance over the packed corpus: one SIMD distance row per
/// query instance instead of an instance-pair double loop. The min/max
/// folds run in the same instance order as the Vec formula and
/// direct_d2_row matches SquaredDistance bit-for-bit, so the result is
/// identical. `scratch` must hold at least the larger bag's instance
/// count.
double PackedBagDistance(const MilBag& a, size_t a_begin, const MilBag& b,
                         size_t b_begin, const PackedFeatureMatrix& feat,
                         BagDistance distance, double* scratch) {
  if (a.instances.empty() || b.instances.empty()) {
    return std::numeric_limits<double>::infinity();
  }
  const SimdOpsTable& ops = SimdOps();
  auto directed_min = [&](const MilBag& from, const MilBag& to,
                          size_t to_begin, bool take_max) {
    double result = take_max ? 0.0 : 1e300;
    const size_t to_count = to.instances.size();
    for (const auto& x : from.instances) {
      ops.direct_d2_row(x.features.data(), feat.dim(),
                        feat.data() + to_begin, feat.stride(), to_count,
                        scratch);
      double nearest = 1e300;
      for (size_t y = 0; y < to_count; ++y) {
        nearest = std::min(nearest, scratch[y]);
      }
      result = take_max ? std::max(result, nearest)
                        : std::min(result, nearest);
    }
    return result;
  };
  if (distance == BagDistance::kMinimalHausdorff) {
    return std::sqrt(directed_min(a, b, b_begin, /*take_max=*/false));
  }
  return std::sqrt(std::max(directed_min(a, b, b_begin, /*take_max=*/true),
                            directed_min(b, a, a_begin, /*take_max=*/true)));
}

}  // namespace

double BagToBagDistance(const MilBag& a, const MilBag& b,
                        BagDistance distance) {
  if (a.instances.empty() || b.instances.empty()) {
    return std::numeric_limits<double>::infinity();
  }
  auto directed_min = [](const MilBag& from, const MilBag& to,
                         bool take_max) {
    double result = take_max ? 0.0 : 1e300;
    for (const auto& x : from.instances) {
      double nearest = 1e300;
      for (const auto& y : to.instances) {
        if (x.features.size() != y.features.size()) continue;
        nearest = std::min(nearest, SquaredDistance(x.features, y.features));
      }
      result = take_max ? std::max(result, nearest)
                        : std::min(result, nearest);
    }
    return result;
  };
  if (distance == BagDistance::kMinimalHausdorff) {
    return std::sqrt(directed_min(a, b, /*take_max=*/false));
  }
  return std::sqrt(std::max(directed_min(a, b, /*take_max=*/true),
                            directed_min(b, a, /*take_max=*/true)));
}

CitationKnnEngine::CitationKnnEngine(MilDataset* dataset,
                                     CitationKnnOptions options)
    : RetrievalEngine(dataset), options_(options) {}

Status CitationKnnEngine::Retrain() {
  if (dataset_->CountLabel(BagLabel::kRelevant) == 0) return Status::OK();
  return Learn();
}

Status CitationKnnEngine::Learn() {
  labeled_.clear();
  for (const auto& bag : dataset_->bags()) {
    if (bag.label != BagLabel::kUnlabeled && !bag.empty()) {
      labeled_.push_back(&bag);
    }
  }
  size_t relevant = 0;
  for (const MilBag* bag : labeled_) {
    relevant += bag->label == BagLabel::kRelevant ? 1 : 0;
  }
  if (relevant == 0) {
    labeled_.clear();
    return Status::FailedPrecondition(
        "citation-kNN needs at least one relevant labeled bag");
  }
  return Status::OK();
}

std::vector<ScoredBag> CitationKnnEngine::Rank() const {
  std::vector<ScoredBag> ranking;
  if (labeled_.empty()) return ranking;

  // Pairwise distances query-bag -> labeled bag.
  const size_t n = dataset_->size();
  const size_t m = labeled_.size();
  std::vector<std::vector<double>> dist(n, std::vector<double>(m));
  const auto packed = dataset_->EnsurePacked();
  // Labeled bags point into the dataset, so their packed slice is found
  // by index.
  const MilBag* base = dataset_->bags().data();
  size_t max_count = 0;
  for (const auto& bag : dataset_->bags()) {
    max_count = std::max(max_count, bag.instances.size());
  }
  std::vector<double> scratch(max_count);
  for (size_t q = 0; q < n; ++q) {
    for (size_t l = 0; l < m; ++l) {
      const size_t li = static_cast<size_t>(labeled_[l] - base);
      dist[q][l] = PackedBagDistance(
          dataset_->bag(q), packed->bag_begin[q], *labeled_[l],
          packed->bag_begin[li], packed->features, options_.distance,
          scratch.data());
    }
  }

  // Citers: labeled bag l cites query q when q is among l's C nearest
  // query bags (rank computed over all bags).
  const size_t c = static_cast<size_t>(std::max(1, options_.citers));
  std::vector<std::vector<size_t>> citers_of(n);
  for (size_t l = 0; l < m; ++l) {
    std::vector<size_t> order(n);
    for (size_t q = 0; q < n; ++q) order[q] = q;
    std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
      return dist[x][l] < dist[y][l];
    });
    for (size_t rank = 0; rank < c && rank < n; ++rank) {
      citers_of[order[rank]].push_back(l);
    }
  }

  const size_t r = static_cast<size_t>(std::max(1, options_.references));
  ranking.reserve(n);
  for (size_t q = 0; q < n; ++q) {
    // References: the R nearest labeled bags.
    std::vector<size_t> order(m);
    for (size_t l = 0; l < m; ++l) order[l] = l;
    std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
      return dist[q][x] < dist[q][y];
    });
    double pos = 0, total = 0;
    for (size_t rank = 0; rank < r && rank < m; ++rank) {
      pos += labeled_[order[rank]]->label == BagLabel::kRelevant ? 1 : 0;
      ++total;
    }
    for (size_t l : citers_of[q]) {
      pos += labeled_[l]->label == BagLabel::kRelevant ? 1 : 0;
      ++total;
    }
    // Tie-break equal vote fractions by proximity to the nearest relevant
    // reference (smooth, keeps the ranking informative).
    double nearest_rel = 1e300;
    for (size_t l = 0; l < m; ++l) {
      if (labeled_[l]->label == BagLabel::kRelevant) {
        nearest_rel = std::min(nearest_rel, dist[q][l]);
      }
    }
    const double vote = total > 0 ? pos / total : 0.0;
    ranking.push_back(
        {dataset_->bag(q).id, vote - 1e-3 * std::tanh(nearest_rel)});
  }
  std::stable_sort(ranking.begin(), ranking.end(),
                   [](const ScoredBag& a, const ScoredBag& b) {
                     if (a.score != b.score) return a.score > b.score;
                     return a.bag_id < b.bag_id;
                   });
  return ranking;
}

}  // namespace mivid
