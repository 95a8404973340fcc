// Assorted edge-case coverage: degenerate SVM configurations, session
// bounds, query-engine options, scaler dimensions, experiment smoothing
// option, and whole-experiment determinism.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "retrieval/session.h"
#include "svm/one_class_svm.h"

namespace mivid {
namespace {

TEST(SvmEdgeTest, PolyKernelOneClassWorks) {
  Rng rng(3);
  std::vector<Vec> train;
  for (int i = 0; i < 30; ++i) {
    train.push_back({rng.Gaussian(2, 0.3), rng.Gaussian(2, 0.3)});
  }
  OneClassSvmOptions options;
  options.nu = 0.2;
  options.kernel.type = KernelType::kPoly;
  options.kernel.poly_degree = 2;
  Result<OneClassSvmModel> model = OneClassSvmTrainer(options).Train(train);
  ASSERT_TRUE(model.ok());
  // Polynomial kernels are not localized, so no in-ball geometry can be
  // asserted in input space; the nu-property must still hold.
  EXPECT_LE(model->training_outlier_fraction(), options.nu + 0.1);
  EXPECT_GE(model->num_support_vectors(), 1u);
}

TEST(SvmEdgeTest, TinySigmaMemorizesLargeSigmaBlurs) {
  std::vector<Vec> train{{0.0, 0.0}, {1.0, 1.0}};
  OneClassSvmOptions tiny;
  tiny.nu = 0.5;
  tiny.kernel.sigma = 0.01;
  Result<OneClassSvmModel> m_tiny = OneClassSvmTrainer(tiny).Train(train);
  ASSERT_TRUE(m_tiny.ok());
  // With a tiny bandwidth the midpoint is far outside the support.
  EXPECT_LT(m_tiny->DecisionValue({0.5, 0.5}),
            m_tiny->DecisionValue({0.0, 0.0}));

  OneClassSvmOptions wide;
  wide.nu = 0.5;
  wide.kernel.sigma = 100.0;
  Result<OneClassSvmModel> m_wide = OneClassSvmTrainer(wide).Train(train);
  ASSERT_TRUE(m_wide.ok());
  // With a huge bandwidth everything nearby looks the same.
  EXPECT_NEAR(m_wide->DecisionValue({0.5, 0.5}),
              m_wide->DecisionValue({0.0, 0.0}), 1e-3);
}

MilDataset TinyCorpus(int n) {
  MilDataset ds;
  Rng rng(5);
  for (int b = 0; b < n; ++b) {
    MilBag bag;
    bag.id = b;
    MilInstance inst;
    inst.bag_id = b;
    inst.instance_id = 0;
    inst.features = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
    inst.raw_features = inst.features;
    bag.instances.push_back(inst);
    ds.AddBag(std::move(bag));
  }
  return ds;
}

TEST(SessionEdgeTest, TopNLargerThanCorpus) {
  SessionOptions options;
  options.top_n = 100;
  RetrievalSession session(TinyCorpus(5), options);
  EXPECT_EQ(session.TopBags().size(), 5u);
}

TEST(SessionEdgeTest, EmptyFeedbackAdvancesRound) {
  RetrievalSession session(TinyCorpus(5), SessionOptions{});
  ASSERT_TRUE(session.SubmitFeedback({}).ok());
  EXPECT_EQ(session.round(), 1);
  EXPECT_FALSE(session.engine().trained());
}

TEST(SessionEdgeTest, RestoreOnEmptyLabelsIsHarmless) {
  RetrievalSession session(TinyCorpus(5), SessionOptions{});
  ASSERT_TRUE(session.Restore({}, 7).ok());
  EXPECT_EQ(session.round(), 7);
}

TEST(ExperimentEdgeTest, SmoothedPipelineRuns) {
  TunnelScenarioOptions scenario_options;
  scenario_options.total_frames = 600;
  scenario_options.num_wall_crashes = 1;
  scenario_options.num_sudden_stops = 1;
  scenario_options.num_speeding = 0;
  scenario_options.num_uturns = 0;
  const ScenarioSpec scenario = MakeTunnelScenario(scenario_options);
  ExperimentOptions options;
  options.pipeline = PipelineMode::kGroundTruthTracks;
  options.smooth_tracks = true;
  options.feedback_rounds = 1;
  options.top_n = 5;
  Result<ExperimentResult> result = RunRfExperiment(scenario, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->num_windows, 0u);
}

TEST(ExperimentEdgeTest, IncludeVelocityFourDimPipeline) {
  TunnelScenarioOptions scenario_options;
  scenario_options.total_frames = 600;
  const ScenarioSpec scenario = MakeTunnelScenario(scenario_options);
  ExperimentOptions options;
  options.pipeline = PipelineMode::kGroundTruthTracks;
  options.features.include_velocity = true;
  options.feedback_rounds = 1;
  Result<ClipAnalysis> analysis = AnalyzeScenario(scenario, options);
  ASSERT_TRUE(analysis.ok());
  EXPECT_EQ(analysis->scaler.dimension(), 4u);
  for (const auto& bag : analysis->dataset.bags()) {
    for (const auto& inst : bag.instances) {
      EXPECT_EQ(inst.features.size(), 12u);  // 3 checkpoints x 4 features
    }
  }
  Result<ExperimentResult> result = RunRfExperimentOnAnalysis(
      *analysis, scenario.name, scenario.total_frames, options);
  ASSERT_TRUE(result.ok());
}

TEST(ExperimentEdgeTest, FullProtocolIsDeterministic) {
  TunnelScenarioOptions scenario_options;
  scenario_options.total_frames = 800;
  const ScenarioSpec scenario = MakeTunnelScenario(scenario_options);
  ExperimentOptions options;
  options.pipeline = PipelineMode::kVisionTracks;
  options.feedback_rounds = 2;
  Result<ExperimentResult> a = RunRfExperiment(scenario, options);
  Result<ExperimentResult> b = RunRfExperiment(scenario, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->curves.size(), b->curves.size());
  for (size_t i = 0; i < a->curves.size(); ++i) {
    EXPECT_EQ(a->curves[i].accuracy, b->curves[i].accuracy);
  }
}

TEST(MilRfEdgeTest, TrainingScoreFloorDropsFeaturelessBags) {
  // Two relevant bags: one with a strong signature, one whose best TS is
  // featureless. With the floor, only the strong one trains the model.
  MilDataset ds;
  for (int b = 0; b < 3; ++b) {
    MilBag bag;
    bag.id = b;
    MilInstance inst;
    inst.bag_id = b;
    inst.instance_id = 0;
    inst.features = b == 0 ? Vec{0.9, 0.8, 0.7} : Vec{0.001, 0.001, 0.001};
    inst.raw_features = inst.features;
    bag.instances.push_back(inst);
    ds.AddBag(std::move(bag));
  }
  (void)ds.SetLabel(0, BagLabel::kRelevant);
  (void)ds.SetLabel(1, BagLabel::kRelevant);

  MilRfOptions with_floor;
  with_floor.min_training_score = 0.1;
  MilRfEngine floored(&ds, with_floor);
  ASSERT_TRUE(floored.Learn().ok());
  EXPECT_EQ(floored.last_training_size(), 1u);

  MilRfOptions no_floor;
  MilRfEngine unfloored(&ds, no_floor);
  ASSERT_TRUE(unfloored.Learn().ok());
  EXPECT_EQ(unfloored.last_training_size(), 2u);
}

TEST(MilRfEdgeTest, AutoSigmaDegenerateTrainingKeepsDefault) {
  // All relevant instances identical: median pairwise distance is zero,
  // so the configured sigma must survive.
  MilDataset ds;
  for (int b = 0; b < 4; ++b) {
    MilBag bag;
    bag.id = b;
    MilInstance inst;
    inst.bag_id = b;
    inst.instance_id = 0;
    inst.features = {0.5, 0.5, 0.5};
    inst.raw_features = inst.features;
    bag.instances.push_back(inst);
    ds.AddBag(std::move(bag));
  }
  for (int b = 0; b < 3; ++b) (void)ds.SetLabel(b, BagLabel::kRelevant);
  MilRfOptions options;
  options.kernel.sigma = 0.77;
  MilRfEngine engine(&ds, options);
  ASSERT_TRUE(engine.Learn().ok());
  EXPECT_DOUBLE_EQ(engine.model()->kernel().sigma, 0.77);
}

}  // namespace
}  // namespace mivid
