// Determinism regression test: the whole experiment gives the same bits
// every time it runs in one process, so no cache, static or leftover state
// of an earlier run leaks into a later one. The bits of each numeric
// kernel are pinned in simd_kernels_test.cc.

#include <gtest/gtest.h>

#include "eval/experiment.h"
#include "retrieval/heuristic.h"
#include "retrieval/mil_rf_engine.h"
#include "trafficsim/scenarios.h"

namespace mivid {
namespace {

TEST(DeterminismTest, ExperimentIdenticalAcrossRuns) {
  // End-to-end through the *vision* pipeline: render -> background ->
  // SPCPE -> refinement -> tracking -> MIL feedback rounds.
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
  const Outcome first = run();
  const Outcome second = run();
  EXPECT_EQ(first.curves, second.curves);
  EXPECT_EQ(first.top20, second.top20);
  ASSERT_FALSE(first.curves.empty());
  ASSERT_FALSE(first.top20.empty());
}

}  // namespace
}  // namespace mivid
