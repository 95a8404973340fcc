// Tests for retrieval/ and baseline/: heuristic ranking, the MIL engine
// (training-set policies, Eq. 9), the session loop, weighted RF.

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "baseline/weighted_rf.h"
#include "common/rng.h"
#include "retrieval/session.h"

namespace mivid {
namespace {

/// Builds a synthetic corpus: `n_bags` bags; bags whose id is in
/// `hot_bags` contain one "incident" instance (large feature values at one
/// checkpoint) plus normal instances; others contain only normal ones.
/// Feature layout: 3 checkpoints x 3 features, both views identical.
MilDataset MakeCorpus(int n_bags, const std::set<int>& hot_bags,
                      uint64_t seed) {
  Rng rng(seed);
  MilDataset ds;
  for (int b = 0; b < n_bags; ++b) {
    MilBag bag;
    bag.id = b;
    const int n_inst = 1 + static_cast<int>(rng.UniformInt(0, 2));
    for (int i = 0; i < n_inst; ++i) {
      MilInstance inst;
      inst.bag_id = b;
      inst.instance_id = i;
      inst.features.assign(9, 0.0);
      for (auto& v : inst.features) v = std::fabs(rng.Gaussian(0.05, 0.03));
      if (hot_bags.count(b) && i == 0) {
        // Incident signature at the middle checkpoint.
        inst.features[3] = 0.8 + rng.Uniform(0, 0.2);
        inst.features[4] = 0.7 + rng.Uniform(0, 0.2);
        inst.features[5] = 0.6 + rng.Uniform(0, 0.2);
      }
      inst.raw_features = inst.features;
      bag.instances.push_back(std::move(inst));
    }
    ds.AddBag(std::move(bag));
  }
  return ds;
}

TEST(HeuristicTest, InstanceScoreIsMaxCheckpointSquareSum) {
  const EventModel m = EventModel::Accident(3);
  const Vec flat{0.1, 0.0, 0.0,   // checkpoint 1: 0.01
                 0.5, 0.5, 0.0,   // checkpoint 2: 0.5
                 0.2, 0.2, 0.2};  // checkpoint 3: 0.12
  EXPECT_NEAR(HeuristicInstanceScore(flat, m, 3), 0.5, 1e-12);
}

TEST(HeuristicTest, RankingIsDescendingAndComplete) {
  const MilDataset ds = MakeCorpus(30, {3, 7, 11}, 5);
  const auto ranking = HeuristicRanking(ds, EventModel::Accident(3), 3);
  ASSERT_EQ(ranking.size(), 30u);
  for (size_t i = 1; i < ranking.size(); ++i) {
    EXPECT_GE(ranking[i - 1].score, ranking[i].score);
  }
  // Hot bags occupy the top 3.
  std::set<int> top{ranking[0].bag_id, ranking[1].bag_id, ranking[2].bag_id};
  EXPECT_EQ(top, (std::set<int>{3, 7, 11}));
  EXPECT_EQ(TopIds(ranking, 2).size(), 2u);
}

TEST(MilRfEngineTest, RequiresRelevantFeedback) {
  MilDataset ds = MakeCorpus(10, {1}, 7);
  MilRfOptions options;
  MilRfEngine engine(&ds, options);
  EXPECT_TRUE(engine.Learn().IsFailedPrecondition());
  EXPECT_FALSE(engine.trained());
  EXPECT_TRUE(engine.Rank().empty());
}

TEST(MilRfEngineTest, LearnsAndRanksHotBagsHigh) {
  std::set<int> hot{2, 5, 8, 12, 15, 18};
  MilDataset ds = MakeCorpus(40, hot, 9);
  // Label half of the hot bags relevant, a few cold ones irrelevant.
  for (int b : {2, 5, 8}) ASSERT_TRUE(ds.SetLabel(b, BagLabel::kRelevant).ok());
  for (int b : {0, 1, 3}) {
    ASSERT_TRUE(ds.SetLabel(b, BagLabel::kIrrelevant).ok());
  }
  MilRfOptions options;
  MilRfEngine engine(&ds, options);
  ASSERT_TRUE(engine.Learn().ok());
  EXPECT_TRUE(engine.trained());
  const auto ranking = engine.Rank();
  ASSERT_EQ(ranking.size(), 40u);
  // All six hot bags should rank in the top 10.
  std::set<int> top10;
  for (size_t i = 0; i < 10; ++i) top10.insert(ranking[i].bag_id);
  for (int b : hot) EXPECT_TRUE(top10.count(b)) << "hot bag " << b;
}

TEST(MilRfEngineTest, Equation9NuComputation) {
  // 3 relevant bags; with kAllInstances the training set is all their
  // instances; nu = 1 - (3/H + 0.05), clamped.
  std::set<int> hot{0, 1, 2};
  MilDataset ds = MakeCorpus(6, hot, 11);
  for (int b : hot) ASSERT_TRUE(ds.SetLabel(b, BagLabel::kRelevant).ok());
  size_t h_total = 0;
  for (int b : hot) h_total += ds.FindBag(b)->instances.size();

  MilRfOptions options;
  options.policy = TrainingSetPolicy::kAllInstances;
  MilRfEngine engine(&ds, options);
  ASSERT_TRUE(engine.Learn().ok());
  EXPECT_EQ(engine.last_training_size(), h_total);
  const double expected =
      std::clamp(1.0 - (3.0 / static_cast<double>(h_total) + 0.05),
                 options.min_nu, options.max_nu);
  EXPECT_NEAR(engine.last_nu(), expected, 1e-12);
}

TEST(MilRfEngineTest, TopScoredPolicyShrinksTrainingSet) {
  std::set<int> hot{0, 1, 2, 3};
  MilDataset ds = MakeCorpus(8, hot, 13);
  for (int b : hot) ASSERT_TRUE(ds.SetLabel(b, BagLabel::kRelevant).ok());

  MilRfOptions all;
  all.policy = TrainingSetPolicy::kAllInstances;
  MilRfEngine engine_all(&ds, all);
  ASSERT_TRUE(engine_all.Learn().ok());

  MilRfOptions top;
  top.policy = TrainingSetPolicy::kTopScoredInstances;
  MilRfEngine engine_top(&ds, top);
  ASSERT_TRUE(engine_top.Learn().ok());

  MilRfOptions one;
  one.policy = TrainingSetPolicy::kTopInstancePerBag;
  MilRfEngine engine_one(&ds, one);
  ASSERT_TRUE(engine_one.Learn().ok());

  EXPECT_LE(engine_top.last_training_size(), engine_all.last_training_size());
  EXPECT_EQ(engine_one.last_training_size(), 4u);
  EXPECT_GE(engine_top.last_training_size(), 4u);
}

TEST(MilRfEngineTest, AutoSigmaAdaptsToTrainingSpread) {
  std::set<int> hot{0, 1, 2, 3, 4};
  MilDataset ds = MakeCorpus(10, hot, 17);
  for (int b : hot) ASSERT_TRUE(ds.SetLabel(b, BagLabel::kRelevant).ok());
  MilRfOptions options;
  options.auto_sigma = true;
  MilRfEngine engine(&ds, options);
  ASSERT_TRUE(engine.Learn().ok());
  // Sigma was replaced by a data-driven value, not the 0.5 default.
  EXPECT_NE(engine.model()->kernel().sigma, options.kernel.sigma);
  EXPECT_GT(engine.model()->kernel().sigma, 0.0);

  options.auto_sigma = false;
  MilRfEngine fixed(&ds, options);
  ASSERT_TRUE(fixed.Learn().ok());
  EXPECT_DOUBLE_EQ(fixed.model()->kernel().sigma, options.kernel.sigma);
}

TEST(SessionTest, ColdStartUsesHeuristicThenSwitchesToSvm) {
  SessionOptions options;
  options.top_n = 5;
  RetrievalSession session(MakeCorpus(30, {3, 7, 11, 19}, 19), options);
  EXPECT_EQ(session.round(), 0);

  const auto top0 = session.TopBags();
  ASSERT_EQ(top0.size(), 5u);
  EXPECT_FALSE(session.engine().trained());

  // All-irrelevant feedback keeps the heuristic ranking.
  std::vector<std::pair<int, BagLabel>> labels;
  for (int id : top0) labels.emplace_back(id, BagLabel::kIrrelevant);
  labels[0].second = BagLabel::kIrrelevant;
  ASSERT_TRUE(session.SubmitFeedback(labels).ok());
  EXPECT_EQ(session.round(), 1);
  EXPECT_FALSE(session.engine().trained());

  // One relevant label triggers learning.
  ASSERT_TRUE(
      session.SubmitFeedback({{3, BagLabel::kRelevant}}).ok());
  EXPECT_TRUE(session.engine().trained());
  EXPECT_EQ(session.round(), 2);
  EXPECT_EQ(session.TopBags().size(), 5u);
}

TEST(SessionTest, TopKIsExactPrefixOfCurrentRanking) {
  constexpr size_t kBags = 60;
  RetrievalSession session(MakeCorpus(kBags, {3, 17, 29, 41}, 9001),
                           SessionOptions{});
  auto expect_prefix = [&](const char* phase) {
    const std::vector<ScoredBag> full = session.CurrentRanking();
    ASSERT_EQ(full.size(), kBags) << phase;
    for (size_t k : {size_t{0}, size_t{1}, size_t{5}, size_t{20}, kBags - 1,
                     kBags, kBags + 40}) {
      const std::vector<ScoredBag> topk = session.CurrentTopK(k);
      ASSERT_EQ(topk.size(), std::min(k, kBags)) << phase << " k=" << k;
      for (size_t i = 0; i < topk.size(); ++i) {
        EXPECT_EQ(topk[i].bag_id, full[i].bag_id)
            << phase << " k=" << k << " i=" << i;
        // Same bits, not just close.
        EXPECT_EQ(std::bit_cast<uint64_t>(topk[i].score),
                  std::bit_cast<uint64_t>(full[i].score))
            << phase << " k=" << k << " i=" << i;
      }
    }
  };

  ASSERT_FALSE(session.engine().trained());
  expect_prefix("heuristic");
  ASSERT_TRUE(session
                  .SubmitFeedback({{3, BagLabel::kRelevant},
                                   {17, BagLabel::kRelevant},
                                   {5, BagLabel::kIrrelevant}})
                  .ok());
  ASSERT_TRUE(session.engine().trained());
  expect_prefix("trained");
}

TEST(SessionTest, FeedbackForUnknownBagFails) {
  RetrievalSession session(MakeCorpus(5, {}, 23), SessionOptions{});
  EXPECT_TRUE(
      session.SubmitFeedback({{999, BagLabel::kRelevant}}).IsNotFound());
}

TEST(WeightedRfTest, InitialWeightsAreUniformOnes) {
  MilDataset ds = MakeCorpus(10, {2}, 29);
  WeightedRfEngine engine(&ds, WeightedRfOptions{});
  EXPECT_EQ(engine.weights(), (Vec{1.0, 1.0, 1.0}));
  // Round-0 ranking equals the accident heuristic ranking.
  const auto wr = engine.Rank();
  const auto hr = HeuristicRanking(ds, EventModel::Accident(3), 3);
  ASSERT_EQ(wr.size(), hr.size());
  for (size_t i = 0; i < wr.size(); ++i) {
    EXPECT_EQ(wr[i].bag_id, hr[i].bag_id);
  }
}

TEST(WeightedRfTest, LearnUpdatesWeightsFromRelevantBags) {
  MilDataset ds = MakeCorpus(20, {1, 2, 3, 4}, 31);
  for (int b : {1, 2, 3, 4}) {
    ASSERT_TRUE(ds.SetLabel(b, BagLabel::kRelevant).ok());
  }
  WeightedRfOptions options;
  options.normalization = WeightNormalization::kPercentage;
  WeightedRfEngine engine(&ds, options);
  ASSERT_TRUE(engine.Learn().ok());
  const Vec& w = engine.weights();
  ASSERT_EQ(w.size(), 3u);
  double total = 0;
  for (double x : w) {
    EXPECT_GE(x, 0.0);
    total += x;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);  // percentage normalization
}

TEST(WeightedRfTest, NormalizationModes) {
  MilDataset ds = MakeCorpus(20, {1, 2, 3}, 37);
  for (int b : {1, 2, 3}) ASSERT_TRUE(ds.SetLabel(b, BagLabel::kRelevant).ok());

  WeightedRfOptions none;
  none.normalization = WeightNormalization::kNone;
  WeightedRfEngine e_none(&ds, none);
  ASSERT_TRUE(e_none.Learn().ok());

  WeightedRfOptions linear;
  linear.normalization = WeightNormalization::kLinear;
  WeightedRfEngine e_lin(&ds, linear);
  ASSERT_TRUE(e_lin.Learn().ok());
  double lo = 1e18, hi = -1e18;
  for (double x : e_lin.weights()) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  EXPECT_NEAR(lo, 0.0, 1e-12);  // linear maps min weight to 0
  EXPECT_NEAR(hi, 1.0, 1e-12);

  // Raw weights are 1/std and unnormalized.
  for (double x : e_none.weights()) EXPECT_GT(x, 0.0);
  EXPECT_STREQ(WeightNormalizationName(WeightNormalization::kPercentage),
               "percentage");
}

TEST(WeightedRfTest, NoRelevantFeedbackKeepsWeights) {
  MilDataset ds = MakeCorpus(10, {}, 41);
  WeightedRfEngine engine(&ds, WeightedRfOptions{});
  ASSERT_TRUE(engine.Learn().ok());
  EXPECT_EQ(engine.weights(), (Vec{1.0, 1.0, 1.0}));
}

}  // namespace
}  // namespace mivid
