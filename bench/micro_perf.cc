// Micro benchmarks (google-benchmark) for the compute-heavy components:
// one-class SMO training, kernel/Gram evaluation, segmentation throughput,
// tracking association, polynomial fitting, codec, and the serve and
// ingest paths.

#include <benchmark/benchmark.h>

#include <filesystem>

#include "common/rng.h"
#include "db/feature_store.h"
#include "ingest/camera_ingestor.h"
#include "linalg/simd.h"
#include "db/video_db.h"
#include "serve/corpus_manager.h"
#include "obs/metrics.h"
#include "segment/segmenter.h"
#include "serve/server.h"
#include "svm/one_class_svm.h"
#include "track/assignment.h"
#include "trafficsim/renderer.h"
#include "trafficsim/scenarios.h"
#include "trafficsim/world.h"
#include "trajectory/polyfit.h"

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

void BM_OneClassSvmTrain(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto points = RandomPoints(n, 9, 11);
  OneClassSvmOptions options;
  options.nu = 0.2;
  options.kernel.sigma = 0.5;
  OneClassSvmTrainer trainer(options);
  for (auto _ : state) {
    auto model = trainer.Train(points);
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_OneClassSvmTrain)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_OneClassSvmPredict(benchmark::State& state) {
  const auto points = RandomPoints(256, 9, 13);
  OneClassSvmOptions options;
  options.nu = 0.3;
  auto model = OneClassSvmTrainer(options).Train(points);
  const auto queries = RandomPoints(100, 9, 17);
  size_t qi = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.value().DecisionValue(queries[qi++ % queries.size()]));
  }
}
BENCHMARK(BM_OneClassSvmPredict);

void BM_GramMatrix(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto points = RandomPoints(n, 9, 19);
  KernelParams params;
  for (auto _ : state) {
    GramMatrix gram(params, points);
    benchmark::DoNotOptimize(gram.At(0, 0));
  }
}
BENCHMARK(BM_GramMatrix)->Arg(64)->Arg(256)->Arg(1024);

/// The hot inner primitive on its own: one RBF kernel row (squared
/// distances via the expanded form, then the deterministic exp) against
/// n packed points, under the active dispatch tier.
void BM_RbfKernelRow(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t dim = 9;
  const auto points = RandomPoints(n, dim, 29);
  std::vector<const Vec*> ptrs;
  for (const auto& p : points) ptrs.push_back(&p);
  const PackedFeatureMatrix packed =
      PackedFeatureMatrix::FromPoints(ptrs, dim);
  const Vec& query = points[0];
  const double query_norm = Dot(query, query);
  const double gamma = 1.0 / (2.0 * 0.5 * 0.5);
  std::vector<double> d2(n), row(n);
  const SimdOpsTable& ops = SimdOps();
  for (auto _ : state) {
    ops.expanded_d2_row(query.data(), query_norm, dim, packed.data(),
                        packed.stride(), packed.squared_norms(), n,
                        d2.data());
    ops.rbf_from_d2_row(gamma, d2.data(), n, row.data());
    benchmark::DoNotOptimize(row.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  state.SetLabel(SimdTierName(ActiveSimdTier()));
}
BENCHMARK(BM_RbfKernelRow)->Arg(256)->Arg(4096);

void BM_SegmentFrame(benchmark::State& state) {
  const RoadLayout layout = MakeTunnelLayout();
  Renderer renderer(layout);
  VehicleState v;
  v.id = 0;
  v.mode = MotionMode::kLaneFollow;
  v.position = {160, 110};
  v.shade = 220;
  VehicleSegmenter segmenter;
  // Warm the background model.
  for (int i = 0; i < 15; ++i) {
    (void)segmenter.Process(renderer.Render({}));
  }
  const Frame frame = renderer.Render({v});
  for (auto _ : state) {
    benchmark::DoNotOptimize(segmenter.Process(frame));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(frame.size()));
}
BENCHMARK(BM_SegmentFrame);

void BM_HungarianAssign(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(23);
  Matrix cost(n, n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) cost.At(r, c) = rng.Uniform();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(HungarianAssign(cost, 1e9));
  }
}
BENCHMARK(BM_HungarianAssign)->Arg(8)->Arg(32)->Arg(128);

void BM_PolyFit(benchmark::State& state) {
  Rng rng(29);
  Track track;
  for (int f = 0; f <= 500; f += 5) {
    track.points.push_back(
        {f, {f * 0.6 + rng.Gaussian(), 100 + 20 * std::sin(f * 0.01)}, {}});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(FitTrack(track, 4));
  }
}
BENCHMARK(BM_PolyFit);

void BM_TracksCodecRoundtrip(benchmark::State& state) {
  Rng rng(31);
  std::vector<Track> tracks(20);
  for (size_t t = 0; t < tracks.size(); ++t) {
    tracks[t].id = static_cast<int>(t);
    for (int f = 0; f < 500; ++f) {
      tracks[t].points.push_back(
          {f, {rng.Uniform(0, 320), rng.Uniform(0, 240)},
           BBox(0, 0, 16, 8)});
    }
  }
  for (auto _ : state) {
    const std::string bytes = SerializeTracks(tracks);
    auto back = DeserializeTracks(bytes);
    benchmark::DoNotOptimize(back);
    state.counters["bytes"] = static_cast<double>(bytes.size());
  }
}
BENCHMARK(BM_TracksCodecRoundtrip);

/// The serve path end to end minus the socket: RetrievalServer::HandleLine
/// parsing, admission, session lookup, rank, and JSON response encoding.
/// Reports the serve/rank_seconds histogram's p99 (from the metrics
/// registry, i.e. exactly what a production /stats scrape would see) so
/// BENCH_micro.json tracks tail latency, not just the mean.
void BM_ServeRank(benchmark::State& state) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "mivid_bench_serve").string();
  fs::remove_all(dir);
  VideoDbOptions db_options;
  db_options.create_if_missing = true;
  auto opened = VideoDb::Open(dir, db_options);
  if (!opened.ok()) {
    state.SkipWithError(opened.status().ToString().c_str());
    return;
  }
  std::unique_ptr<VideoDb> db = std::move(opened).value();
  TunnelScenarioOptions scenario_options;
  scenario_options.total_frames = 700;
  scenario_options.num_wall_crashes = 1;
  scenario_options.num_sudden_stops = 1;
  scenario_options.num_speeding = 0;
  scenario_options.num_uturns = 0;
  const ScenarioSpec scenario = MakeTunnelScenario(scenario_options);
  TrafficWorld world(scenario);
  const GroundTruth gt = world.Run();
  ClipInfo info;
  info.camera_id = "camA";
  info.total_frames = scenario.total_frames;
  if (!db->IngestClip(info, gt.tracks, gt.incidents).ok()) {
    state.SkipWithError("clip ingest failed");
    return;
  }

  {
    RetrievalServer server(db.get(), ServeOptions{});
    const std::string open_response = server.HandleLine(
        R"({"cmd":"open","session":"bench","camera":"camA"})");
    if (open_response.find("\"ok\":true") == std::string::npos) {
      state.SkipWithError(("open failed: " + open_response).c_str());
      return;
    }
    // The rank_seconds histogram only fills while metrics are on; the
    // registry is process-global, so restore the prior state afterwards.
    const bool metrics_were_enabled = MetricsEnabled();
    EnableMetrics(true);
    MetricsRegistry::Global().GetHistogram("serve/rank_seconds").Reset();
    const std::string rank_line =
        R"({"cmd":"rank","session":"bench","top":20})";
    for (auto _ : state) {
      const std::string response = server.HandleLine(rank_line);
      benchmark::DoNotOptimize(response);
    }
    const HistogramStats rank_stats = MetricsRegistry::Global()
                                          .GetHistogram("serve/rank_seconds")
                                          .Stats();
    state.counters["p50_rank_seconds"] = rank_stats.p50;
    state.counters["p99_rank_seconds"] = rank_stats.p99;
    state.counters["max_rank_seconds"] = rank_stats.max;
    EnableMetrics(metrics_were_enabled);
    server.HandleLine(R"({"cmd":"close","session":"bench"})");
  }
  db.reset();
  fs::remove_all(dir);
}
BENCHMARK(BM_ServeRank)->Unit(benchmark::kMillisecond);

std::vector<FrameObservations> BenchFramesFromTracks(
    const std::vector<Track>& tracks, int total_frames) {
  std::vector<FrameObservations> frames(total_frames);
  for (int f = 0; f < total_frames; ++f) frames[f].frame = f;
  for (const Track& track : tracks) {
    for (const TrackPoint& point : track.points) {
      if (point.frame < 0 || point.frame >= total_frames) continue;
      TrackObservation obs;
      obs.track_id = track.id;
      obs.centroid = point.centroid;
      obs.bbox = point.bbox;
      frames[point.frame].observations.push_back(obs);
    }
  }
  return frames;
}

/// Live-ingest throughput: per-frame Observe over a simulated clip plus
/// the final Cut (incremental window extraction, normalization at the
/// cut, clip persistence, bag staging). items/s is stream frames/s — the
/// ceiling on how many cameras one ingest thread can keep live.
void BM_IngestObserve(benchmark::State& state) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "mivid_bench_ingest").string();
  fs::remove_all(dir);
  VideoDbOptions db_options;
  db_options.create_if_missing = true;
  auto opened = VideoDb::Open(dir, db_options);
  if (!opened.ok()) {
    state.SkipWithError(opened.status().ToString().c_str());
    return;
  }
  std::unique_ptr<VideoDb> db = std::move(opened).value();

  TunnelScenarioOptions scenario_options;
  scenario_options.total_frames = static_cast<int>(state.range(0));
  scenario_options.num_wall_crashes = 1;
  scenario_options.num_sudden_stops = 1;
  scenario_options.num_speeding = 0;
  scenario_options.num_uturns = 0;
  TrafficWorld world(MakeTunnelScenario(scenario_options));
  const GroundTruth gt = world.Run();
  const std::vector<FrameObservations> frames =
      BenchFramesFromTracks(gt.tracks, gt.total_frames);

  const QueryOptions query;
  IngestOptions ingest_options;
  ingest_options.query = query;
  for (auto _ : state) {
    // Fresh ingestor + manager per iteration: stream frames restart at 0
    // and nothing staged accumulates across iterations.
    CorpusManager corpora(db.get(), query);
    CameraIngestor ingestor("camB", db.get(), &corpora, ingest_options);
    for (const FrameObservations& frame : frames) {
      auto observed = ingestor.Observe(frame);
      benchmark::DoNotOptimize(observed);
    }
    auto cut = ingestor.Cut();
    benchmark::DoNotOptimize(cut);
  }
  state.SetItemsProcessed(state.iterations() * gt.total_frames);
  db.reset();
  fs::remove_all(dir);
}
BENCHMARK(BM_IngestObserve)->Arg(400)->Arg(1200);

/// Epoch-publish latency: staging happens off the clock; the timed
/// region is CorpusManager::Publish alone (base + staged tail -> new
/// immutable epoch). Iterations are fixed so the corpus grows to a
/// known size instead of scaling with timer resolution; the histogram
/// counters report what a production /stats scrape would see.
void BM_EpochPublish(benchmark::State& state) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "mivid_bench_publish").string();
  fs::remove_all(dir);
  VideoDbOptions db_options;
  db_options.create_if_missing = true;
  auto opened = VideoDb::Open(dir, db_options);
  if (!opened.ok()) {
    state.SkipWithError(opened.status().ToString().c_str());
    return;
  }
  std::unique_ptr<VideoDb> db = std::move(opened).value();

  const QueryOptions query;
  CorpusManager corpora(db.get(), query);
  IngestOptions ingest_options;
  ingest_options.query = query;
  CameraIngestor ingestor("camP", db.get(), &corpora, ingest_options);

  const bool metrics_were_enabled = MetricsEnabled();
  EnableMetrics(true);
  MetricsRegistry::Global()
      .GetHistogram("serve/epoch_publish_seconds")
      .Reset();

  int offset = 0;
  uint64_t seed = 31;
  for (auto _ : state) {
    state.PauseTiming();
    TunnelScenarioOptions scenario_options;
    scenario_options.total_frames = 300;
    scenario_options.num_wall_crashes = 1;
    scenario_options.num_sudden_stops = 0;
    scenario_options.num_speeding = 1;
    scenario_options.num_uturns = 0;
    scenario_options.seed = seed++;
    TrafficWorld world(MakeTunnelScenario(scenario_options));
    const GroundTruth gt = world.Run();
    std::vector<FrameObservations> frames =
        BenchFramesFromTracks(gt.tracks, gt.total_frames);
    for (FrameObservations& frame : frames) {
      frame.frame += offset;
      if (!ingestor.Observe(frame).ok()) {
        state.SkipWithError("observe failed");
        return;
      }
    }
    offset += gt.total_frames;
    if (!ingestor.Cut().ok()) {
      state.SkipWithError("cut failed");
      return;
    }
    state.ResumeTiming();
    auto epoch = corpora.Publish("camP");
    benchmark::DoNotOptimize(epoch);
  }
  const HistogramStats publish_stats =
      MetricsRegistry::Global()
          .GetHistogram("serve/epoch_publish_seconds")
          .Stats();
  state.counters["p50_publish_seconds"] = publish_stats.p50;
  state.counters["p99_publish_seconds"] = publish_stats.p99;
  const auto last = corpora.Snapshot("camP");
  if (last.ok()) {
    state.counters["final_epoch"] = static_cast<double>(last.value()->id);
    state.counters["final_bags"] =
        static_cast<double>(last.value()->bag_count());
  }
  EnableMetrics(metrics_were_enabled);
  db.reset();
  fs::remove_all(dir);
}
BENCHMARK(BM_EpochPublish)->Unit(benchmark::kMillisecond)->Iterations(24);

}  // namespace
}  // namespace mivid

int main(int argc, char** argv) {
  // Stamp the report with whether THIS binary (not the benchmark
  // library, whose own build type is out of our hands) was compiled
  // optimized; bench/run_micro_bench.sh refuses to record numbers
  // without the "optimized" stamp.
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  benchmark::AddCustomContext("mivid_build", "optimized");
#else
  benchmark::AddCustomContext("mivid_build", "unoptimized");
#endif
  benchmark::AddCustomContext(
      "mivid_simd", mivid::SimdTierName(mivid::ActiveSimdTier()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
