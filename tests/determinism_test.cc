// Determinism regression tests: the whole experiment does not depend on
// the thread count, and the kernel cache does not change a Gram matrix
// or depend on its own history. The bits of each numeric kernel are
// pinned in simd_kernels_test.cc.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "eval/experiment.h"
#include "retrieval/heuristic.h"
#include "svm/kernel_cache.h"
#include "svm/one_class_svm.h"
#include "trafficsim/scenarios.h"

namespace mivid {
namespace {

std::vector<Vec> RandomPoints(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec> points(n, Vec(dim));
  for (auto& p : points) {
    for (auto& v : p) v = rng.Uniform();
  }
  return points;
}

/// Runs `fn` once at 1 thread and once at 8, restoring the default after.
template <typename Fn>
void AtThreadCounts(const Fn& fn, decltype(fn()) * serial,
                    decltype(fn()) * parallel) {
  SetGlobalThreadCount(1);
  *serial = fn();
  SetGlobalThreadCount(8);
  *parallel = fn();
  SetGlobalThreadCount(0);
}

TEST(DeterminismTest, CachedGramMatchesUncached) {
  const auto points = RandomPoints(48, 9, 21);
  std::vector<InstanceKey> ids(points.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = {static_cast<int>(i / 4), static_cast<int>(i % 4)};
  }
  KernelParams params;  // RBF
  const GramMatrix uncached(params, points);

  KernelCache cache;
  // Two passes: the second is served entirely from the cache.
  (void)cache.PairwiseSquaredDistances(points, ids);
  const Matrix d2 = cache.PairwiseSquaredDistances(points, ids);
  EXPECT_GT(cache.hits(), 0u);
  const GramMatrix cached(params, d2);

  ASSERT_EQ(cached.size(), uncached.size());
  for (size_t i = 0; i < cached.size(); ++i) {
    for (size_t j = 0; j < cached.size(); ++j) {
      EXPECT_EQ(cached.At(i, j), uncached.At(i, j)) << i << "," << j;
    }
  }
}

TEST(DeterminismTest, ExperimentIdenticalAcrossThreadCounts) {
  // End-to-end through the *vision* pipeline: render -> background ->
  // SPCPE -> refinement -> tracking -> MIL feedback rounds. The thread
  // count only sizes the request pool; no result may depend on it.
  TunnelScenarioOptions scenario_options;
  scenario_options.total_frames = 400;
  scenario_options.num_wall_crashes = 1;
  scenario_options.num_sudden_stops = 1;
  scenario_options.num_speeding = 0;
  scenario_options.num_uturns = 0;
  const ScenarioSpec scenario = MakeTunnelScenario(scenario_options);
  ExperimentOptions options;
  options.pipeline = PipelineMode::kVisionTracks;
  options.feedback_rounds = 2;

  struct Outcome {
    std::vector<std::vector<double>> curves;
    std::vector<int> top20;
    bool operator==(const Outcome&) const = default;
  };
  auto run = [&] {
    Outcome out;
    auto analysis = AnalyzeScenario(scenario, options);
    EXPECT_TRUE(analysis.ok());
    auto result = RunRfExperimentOnAnalysis(*analysis, scenario.name,
                                            scenario.total_frames, options);
    EXPECT_TRUE(result.ok());
    for (const auto& curve : result->curves) {
      out.curves.push_back(curve.accuracy);
    }
    // Top-20 of the final MIL ranking, rebuilt explicitly.
    MilDataset dataset = analysis->dataset;
    MilRfOptions mil = options.mil;
    mil.base_dim = analysis->scaler.dimension();
    MilRfEngine engine(&dataset, mil);
    const EventModel heuristic =
        EventModel::Accident(analysis->scaler.dimension());
    const auto initial =
        HeuristicRanking(dataset, heuristic, mil.base_dim);
    for (size_t i = 0; i < initial.size() && i < 20; ++i) {
      (void)dataset.SetLabel(
          initial[i].bag_id,
          analysis->truth.count(initial[i].bag_id)
              ? analysis->truth.at(initial[i].bag_id)
              : BagLabel::kIrrelevant);
    }
    EXPECT_TRUE(engine.Learn().ok());
    out.top20 = TopIds(engine.Rank(), 20);
    return out;
  };
  Outcome serial, parallel;
  AtThreadCounts(run, &serial, &parallel);
  EXPECT_EQ(serial.curves, parallel.curves);
  EXPECT_EQ(serial.top20, parallel.top20);
  ASSERT_FALSE(serial.curves.empty());
  ASSERT_FALSE(serial.top20.empty());
}

TEST(DeterminismTest, KernelCacheAccumulatesAcrossRounds) {
  // Feedback rounds grow the training set; previously seen pairs must be
  // cache hits and the resulting model must not depend on cache history.
  const auto points = RandomPoints(30, 6, 55);
  std::vector<InstanceKey> ids(points.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = {static_cast<int>(i), 0};
  }
  KernelCache cache;
  std::vector<Vec> round1(points.begin(), points.begin() + 20);
  std::vector<InstanceKey> ids1(ids.begin(), ids.begin() + 20);
  (void)cache.PairwiseSquaredDistances(round1, ids1);
  const uint64_t misses_after_round1 = cache.misses();
  EXPECT_EQ(misses_after_round1, 20u * 19u / 2u);

  const Matrix d2 = cache.PairwiseSquaredDistances(points, ids);
  // Round 2 adds 10 instances: only pairs touching them are new.
  EXPECT_EQ(cache.misses() - misses_after_round1,
            30u * 29u / 2u - 20u * 19u / 2u);
  EXPECT_EQ(cache.hits(), 20u * 19u / 2u);

  KernelCache fresh;
  const Matrix d2_fresh = fresh.PairwiseSquaredDistances(points, ids);
  EXPECT_EQ(d2.MaxAbsDiff(d2_fresh), 0.0);
}

}  // namespace
}  // namespace mivid
