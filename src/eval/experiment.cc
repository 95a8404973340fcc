#include "eval/experiment.h"

#include <algorithm>

#include "common/ascii_plot.h"
#include "common/string_util.h"
#include "eval/metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "segment/segmenter.h"
#include "track/tracker.h"
#include "trajectory/smoothing.h"
#include "trafficsim/renderer.h"

namespace mivid {

namespace {

/// Runs the full vision path: render every frame, segment, track.
std::vector<Track> VisionTracks(const ScenarioSpec& scenario) {
  TrafficWorld world(scenario);
  Renderer renderer(world.spec().layout);
  VehicleSegmenter segmenter;
  Tracker tracker;
  while (!world.Done()) {
    world.Step();
    tracker.Observe(world.frame() - 1,
                    segmenter.Process(renderer.Render(world.vehicles())));
  }
  return tracker.Finish();
}

/// Drives one engine through the feedback protocol and records accuracy.
template <typename RankFn, typename LearnFn>
MethodCurve RunProtocol(const std::string& name, const ClipAnalysis& analysis,
                        const ExperimentOptions& options, RankFn rank,
                        LearnFn learn) {
  MethodCurve curve;
  curve.method = name;
  std::map<int, BagLabel> given;  // cumulative feedback
  for (int round = 0; round <= options.feedback_rounds; ++round) {
    const std::vector<ScoredBag> ranking = rank();
    const std::vector<int> ids = RankingIds(ranking);
    curve.accuracy.push_back(AccuracyAtN(ids, analysis.truth, options.top_n));
    if (MetricsEnabled()) {
      MetricsRegistry::Global()
          .GetGauge(StrFormat("eval/accuracy@%zu/%s/round%d", options.top_n,
                              name.c_str(), round))
          .Set(curve.accuracy.back());
    }
    if (round == options.feedback_rounds) break;

    // The oracle labels this round's top-n; labels accumulate.
    for (size_t i = 0; i < ids.size() && i < options.top_n; ++i) {
      auto it = analysis.truth.find(ids[i]);
      given[ids[i]] =
          it != analysis.truth.end() ? it->second : BagLabel::kIrrelevant;
    }
    learn(given);
  }
  return curve;
}

}  // namespace

Result<ClipAnalysis> AnalyzeScenario(const ScenarioSpec& scenario,
                                     const ExperimentOptions& options) {
  MIVID_TRACE_SPAN("eval/analyze");
  MIVID_SCOPED_TIMER("eval/analyze_seconds");
  ClipAnalysis analysis;

  // Ground truth (incidents + perfect tracks) always comes from a
  // deterministic run of the world.
  {
    TrafficWorld world(scenario);
    analysis.ground_truth = world.Run();
  }

  analysis.tracks = options.pipeline == PipelineMode::kVisionTracks
                        ? VisionTracks(scenario)
                        : analysis.ground_truth.tracks;
  if (options.smooth_tracks) {
    analysis.tracks = SmoothTracks(analysis.tracks);
  }

  analysis.features = ComputeTrackFeatures(analysis.tracks, options.features);
  analysis.scaler =
      FeatureScaler::Fit(analysis.features, options.features.include_velocity);
  analysis.windows = ExtractWindows(analysis.features, scenario.total_frames,
                                    options.features, options.windows);
  analysis.dataset = MilDataset::FromVideoSequences(
      analysis.windows, analysis.scaler, options.features.include_velocity);

  FeedbackOracle oracle(&analysis.ground_truth, options.relevant_types);
  analysis.truth = oracle.LabelAll(analysis.windows);
  analysis.num_relevant = 0;
  for (const auto& [id, label] : analysis.truth) {
    (void)id;
    analysis.num_relevant += label == BagLabel::kRelevant ? 1 : 0;
  }
  if (analysis.windows.empty()) {
    return Status::FailedPrecondition("scenario produced no windows");
  }
  return analysis;
}

Result<ExperimentResult> RunRfExperimentOnAnalysis(
    const ClipAnalysis& analysis, const std::string& scenario_name,
    int total_frames, const ExperimentOptions& options) {
  ExperimentResult result;
  result.scenario = scenario_name;
  result.total_frames = total_frames;
  result.num_windows = analysis.windows.size();
  result.num_ts = CountTrajectorySequences(analysis.windows);
  result.num_relevant_vs = analysis.num_relevant;

  const size_t base_dim = analysis.scaler.dimension();
  const EventModel heuristic = EventModel::Accident(base_dim);

  EngineConfig config;
  config.mil = options.mil;
  config.mil.base_dim = base_dim;
  config.weighted = options.weighted;
  config.weighted.base_dim = base_dim;

  // The paper's two curves, both driven through the RetrievalEngine
  // interface; adding a registry key here adds a curve.
  const std::pair<const char*, const char*> methods[] = {
      {"MIL_OneClassSVM", "milrf"},
      {"Weighted_RF", "weighted"},
  };
  for (const auto& [curve_name, engine_name] : methods) {
    MilDataset dataset = analysis.dataset;  // session-local labels
    Result<std::unique_ptr<RetrievalEngine>> made =
        MakeRetrievalEngine(engine_name, &dataset, config);
    RetrievalEngine& engine = *made.value();
    auto rank = [&]() {
      // Engines rank once trained; before that the paper's square-sum
      // heuristic orders the initial screen.
      return engine.trained()
                 ? engine.Rank()
                 : HeuristicRanking(dataset, heuristic, base_dim);
    };
    auto learn = [&](const std::map<int, BagLabel>& given) {
      std::vector<std::pair<int, BagLabel>> labels(given.begin(), given.end());
      (void)engine.SetLabels(labels);
      (void)engine.Retrain();  // cold rounds stay on the heuristic ranking
    };
    result.curves.push_back(
        RunProtocol(curve_name, analysis, options, rank, learn));
    if (std::string_view(engine_name) == "milrf") {
      result.mil_summary = engine.run_summary();
    }
  }

  return result;
}

Result<ExperimentResult> RunRfExperiment(const ScenarioSpec& scenario,
                                         const ExperimentOptions& options) {
  MIVID_ASSIGN_OR_RETURN(ClipAnalysis analysis,
                         AnalyzeScenario(scenario, options));
  return RunRfExperimentOnAnalysis(analysis, scenario.name,
                                   scenario.total_frames, options);
}

std::string FormatExperimentResult(const ExperimentResult& result) {
  std::string out;
  out += StrFormat(
      "scenario=%s frames=%d windows(VS)=%zu TS=%zu relevant_VS=%zu\n",
      result.scenario.c_str(), result.total_frames, result.num_windows,
      result.num_ts, result.num_relevant_vs);

  std::vector<std::string> header{"round"};
  size_t rounds = 0;
  for (const auto& c : result.curves) {
    header.push_back(c.method);
    rounds = std::max(rounds, c.accuracy.size());
  }
  std::vector<std::vector<std::string>> rows;
  static const char* kRoundNames[] = {"Initial", "First", "Second", "Third",
                                      "Fourth", "Fifth", "Sixth"};
  for (size_t r = 0; r < rounds; ++r) {
    std::vector<std::string> row;
    row.push_back(r < 7 ? kRoundNames[r] : StrFormat("R%zu", r));
    for (const auto& c : result.curves) {
      row.push_back(r < c.accuracy.size()
                        ? StrFormat("%.1f%%", 100.0 * c.accuracy[r])
                        : "-");
    }
    rows.push_back(std::move(row));
  }
  out += AsciiTable(header, rows);

  std::vector<PlotSeries> series;
  const char glyphs[] = {'*', 'o', '+', 'x'};
  for (size_t i = 0; i < result.curves.size(); ++i) {
    PlotSeries s;
    s.name = result.curves[i].method;
    s.glyph = glyphs[i % sizeof(glyphs)];
    for (size_t r = 0; r < result.curves[i].accuracy.size(); ++r) {
      s.xs.push_back(static_cast<double>(r));
      s.ys.push_back(100.0 * result.curves[i].accuracy[r]);
    }
    series.push_back(std::move(s));
  }
  PlotOptions plot;
  plot.title = "accuracy@20 (%) vs feedback round";
  plot.x_label = "feedback round";
  plot.y_from_zero = true;
  plot.height = 16;
  out += AsciiLinePlot(series, plot);
  return out;
}

}  // namespace mivid
