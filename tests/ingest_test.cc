// Tests for the streaming ingestion pipeline (src/ingest/) and the
// epoch-snapshot corpus API it feeds (serve/corpus_manager.h):
//
//  * the streamed-equals-batch bit-identity guarantee — the incremental
//    extractor's windows and scaler match the batch pipeline bitwise on
//    simulated scenarios, and an ingest->publish corpus matches
//    QueryEngine::BuildCorpus over the same stored clips bitwise,
//  * epoch pinning over the wire — a session's rank responses are
//    byte-identical across a concurrent ingest+publish, and refresh
//    makes the new bags visible while preserving the feedback round,
//  * epoch manifest/segment cold restore,
//  * protocol versioning ("v" field) and ingest command validation.

#include <unistd.h>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "db/epoch_manifest.h"
#include "db/query_engine.h"
#include "db/video_db.h"
#include "event/features.h"
#include "event/sliding_window.h"
#include "ingest/camera_ingestor.h"
#include "ingest/clip_extractor.h"
#include "ingest/track_builder.h"
#include "obs/json.h"
#include "serve/corpus_manager.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "trafficsim/scenarios.h"
#include "ingest_lines.h"

namespace mivid {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const char* name)
      : path_((fs::temp_directory_path() /
               (std::string(name) + "." + std::to_string(getpid())))
                  .string()) {
    fs::remove_all(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

GroundTruth SimulateTunnel(int total_frames, uint64_t seed) {
  TunnelScenarioOptions options;
  options.total_frames = total_frames;
  options.num_wall_crashes = 1;
  options.num_sudden_stops = 1;
  options.num_speeding = 1;
  options.num_uturns = 0;
  options.seed = seed;
  TrafficWorld world(MakeTunnelScenario(options));
  return world.Run();
}

using test::FramesFromTracks;
using test::IngestLine;

/// The epoch's parts merged into one corpus, provenance and truth
/// included, for bitwise comparison with a batch build.
CameraCorpus Merged(const CorpusEpoch& epoch) {
  CameraCorpus out;
  out.camera_id = epoch.camera_id;
  out.dataset = epoch.Dataset();
  for (const auto& part : epoch.parts) {
    out.bag_refs.insert(part->bag_refs.begin(), part->bag_refs.end());
    out.truth.insert(part->truth.begin(), part->truth.end());
  }
  return out;
}

void ExpectPointBitIdentical(const SamplingPointFeatures& got,
                             const SamplingPointFeatures& want) {
  EXPECT_EQ(got.frame, want.frame);
  EXPECT_EQ(got.centroid.x, want.centroid.x);
  EXPECT_EQ(got.centroid.y, want.centroid.y);
  EXPECT_EQ(got.speed, want.speed);
  EXPECT_EQ(got.inv_mdist, want.inv_mdist);
  EXPECT_EQ(got.vdiff, want.vdiff);
  EXPECT_EQ(got.theta, want.theta);
}

void ExpectWindowsBitIdentical(const std::vector<VideoSequence>& got,
                               const std::vector<VideoSequence>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t w = 0; w < want.size(); ++w) {
    SCOPED_TRACE("window " + std::to_string(w));
    EXPECT_EQ(got[w].vs_id, want[w].vs_id);
    EXPECT_EQ(got[w].begin_frame, want[w].begin_frame);
    EXPECT_EQ(got[w].end_frame, want[w].end_frame);
    ASSERT_EQ(got[w].ts.size(), want[w].ts.size());
    for (size_t t = 0; t < want[w].ts.size(); ++t) {
      SCOPED_TRACE("ts " + std::to_string(t));
      EXPECT_EQ(got[w].ts[t].track_id, want[w].ts[t].track_id);
      EXPECT_EQ(got[w].ts[t].vs_id, want[w].ts[t].vs_id);
      ASSERT_EQ(got[w].ts[t].points.size(), want[w].ts[t].points.size());
      for (size_t p = 0; p < want[w].ts[t].points.size(); ++p) {
        ExpectPointBitIdentical(got[w].ts[t].points[p],
                                want[w].ts[t].points[p]);
      }
    }
  }
}

void ExpectScalerBitIdentical(const FeatureScaler& got,
                              const FeatureScaler& want) {
  ASSERT_EQ(got.dimension(), want.dimension());
  for (size_t d = 0; d < want.dimension(); ++d) {
    EXPECT_EQ(got.lower()[d], want.lower()[d]) << "dim " << d;
    EXPECT_EQ(got.upper()[d], want.upper()[d]) << "dim " << d;
  }
}

void ExpectCorpusBitIdentical(const CameraCorpus& got,
                              const CameraCorpus& want) {
  ASSERT_EQ(got.dataset.size(), want.dataset.size());
  for (size_t b = 0; b < want.dataset.size(); ++b) {
    SCOPED_TRACE("bag " + std::to_string(b));
    const MilBag& gb = got.dataset.bag(b);
    const MilBag& wb = want.dataset.bag(b);
    EXPECT_EQ(gb.id, wb.id);
    ASSERT_EQ(gb.instances.size(), wb.instances.size());
    for (size_t i = 0; i < wb.instances.size(); ++i) {
      SCOPED_TRACE("instance " + std::to_string(i));
      EXPECT_EQ(gb.instances[i].bag_id, wb.instances[i].bag_id);
      EXPECT_EQ(gb.instances[i].instance_id, wb.instances[i].instance_id);
      ASSERT_EQ(gb.instances[i].features.size(),
                wb.instances[i].features.size());
      for (size_t d = 0; d < wb.instances[i].features.size(); ++d) {
        EXPECT_EQ(gb.instances[i].features[d], wb.instances[i].features[d]);
      }
      ASSERT_EQ(gb.instances[i].raw_features.size(),
                wb.instances[i].raw_features.size());
      for (size_t d = 0; d < wb.instances[i].raw_features.size(); ++d) {
        EXPECT_EQ(gb.instances[i].raw_features[d],
                  wb.instances[i].raw_features[d]);
      }
    }
  }
  ASSERT_EQ(got.bag_refs.size(), want.bag_refs.size());
  for (const auto& [id, ref] : want.bag_refs) {
    auto it = got.bag_refs.find(id);
    ASSERT_NE(it, got.bag_refs.end()) << "bag_ref " << id;
    EXPECT_EQ(it->second.clip_id, ref.clip_id);
    EXPECT_EQ(it->second.local_vs_id, ref.local_vs_id);
    EXPECT_EQ(it->second.begin_frame, ref.begin_frame);
    EXPECT_EQ(it->second.end_frame, ref.end_frame);
  }
  EXPECT_EQ(got.truth, want.truth);
}

// ---------------------------------------------------------------------------
// Incremental extractor vs batch pipeline

void RunExtractorVsBatch(const FeatureOptions& features,
                         const WindowOptions& windows) {
  const GroundTruth gt = SimulateTunnel(500, /*seed=*/77);
  ASSERT_FALSE(gt.tracks.empty());

  // Batch reference: the exact pipeline QueryEngine's ExtractClip runs.
  const auto track_features = ComputeTrackFeatures(gt.tracks, features);
  const FeatureScaler batch_scaler =
      FeatureScaler::Fit(track_features, features.include_velocity);
  const auto batch_windows =
      ExtractWindows(track_features, gt.total_frames, features, windows);

  // Streamed: one Observe per frame, tracks resolved only by Finish.
  IncrementalClipExtractor extractor(features, windows);
  const auto frames = FramesFromTracks(gt.tracks, gt.total_frames);
  for (const FrameObservations& frame : frames) {
    extractor.Observe(frame.frame, frame.observations);
  }
  // Mid-stream the watermark must trail the head (eligibility of live
  // tracks is unresolved) without stalling at the start.
  EXPECT_GE(extractor.lag_frames(), 0);
  IncrementalClipExtractor::Output out = extractor.Finish(gt.total_frames);

  ExpectWindowsBitIdentical(out.windows, batch_windows);
  ExpectScalerBitIdentical(out.scaler, batch_scaler);
}

TEST(IncrementalExtractorTest, MatchesBatchBitwiseDefaultOptions) {
  RunExtractorVsBatch(FeatureOptions{}, WindowOptions{});
}

TEST(IncrementalExtractorTest, MatchesBatchBitwiseOverlappingWindows) {
  WindowOptions windows;
  windows.stride = 1;  // maximally overlapping windows
  RunExtractorVsBatch(FeatureOptions{}, windows);
}

TEST(IncrementalExtractorTest, MatchesBatchBitwiseWithVelocity) {
  FeatureOptions features;
  features.include_velocity = true;
  features.sampling_rate = 4;
  WindowOptions windows;
  windows.window_size = 4;
  windows.stride = 2;
  RunExtractorVsBatch(features, windows);
}

TEST(IncrementalExtractorTest, MatchesBatchBitwiseKeepingEmptyWindows) {
  // Empty windows are decided by the shared slicer in both drivers; this
  // clip keeps 17 empty windows of 33.
  WindowOptions windows;
  windows.keep_empty = true;
  RunExtractorVsBatch(FeatureOptions{}, windows);
}

TEST(IncrementalExtractorTest, MidStreamRetirementMatchesBatch) {
  // Retiring tracks as a LiveTrackBuilder would (as soon as their last
  // observation ages out) must not change the output: retirement only
  // resolves eligibility earlier.
  const GroundTruth gt = SimulateTunnel(400, /*seed=*/99);
  const FeatureOptions features;
  const WindowOptions windows;

  const auto track_features = ComputeTrackFeatures(gt.tracks, features);
  const auto batch_windows =
      ExtractWindows(track_features, gt.total_frames, features, windows);

  IncrementalClipExtractor extractor(features, windows);
  LiveTrackBuilder builder(/*retire_after_frames=*/10);
  const auto frames = FramesFromTracks(gt.tracks, gt.total_frames);
  for (const FrameObservations& frame : frames) {
    extractor.Observe(frame.frame, frame.observations);
    const auto observed = builder.Observe(frame.frame, frame.observations);
    for (int id : observed.retired) extractor.Retire(id);
  }
  IncrementalClipExtractor::Output out = extractor.Finish(gt.total_frames);
  ExpectWindowsBitIdentical(out.windows, batch_windows);
}

// ---------------------------------------------------------------------------
// RollingStats (the ingest activity gauges)

TEST(RollingStatsTest, TracksLastCapacityObservations) {
  RollingStats stats(4);
  EXPECT_TRUE(stats.empty());
  EXPECT_EQ(stats.Mean(), 0.0);
  for (double v : {1.0, 2.0, 3.0, 4.0}) stats.Observe(v);
  EXPECT_EQ(stats.size(), 4u);
  EXPECT_EQ(stats.Min(), 1.0);
  EXPECT_EQ(stats.Max(), 4.0);
  EXPECT_EQ(stats.Mean(), 2.5);
  // A fifth observation evicts the oldest (1.0).
  stats.Observe(10.0);
  EXPECT_EQ(stats.size(), 4u);
  EXPECT_EQ(stats.Min(), 2.0);
  EXPECT_EQ(stats.Max(), 10.0);
  EXPECT_EQ(stats.Mean(), (2.0 + 3.0 + 4.0 + 10.0) / 4);
}

// ---------------------------------------------------------------------------
// LiveTrackBuilder

TEST(LiveTrackBuilderTest, RetiresGapsAndDropsLateObservations) {
  LiveTrackBuilder builder(/*retire_after_frames=*/5);
  TrackObservation obs;
  obs.track_id = 7;
  obs.centroid = Point2(1.0, 2.0);

  auto r0 = builder.Observe(0, {obs});
  EXPECT_TRUE(r0.retired.empty());
  EXPECT_EQ(builder.live_count(), 1u);

  // Silent for 5 frames: the track retires.
  auto r5 = builder.Observe(5, {});
  ASSERT_EQ(r5.retired.size(), 1u);
  EXPECT_EQ(r5.retired[0], 7);
  EXPECT_EQ(builder.live_count(), 0u);

  // A later observation for the retired id is dropped, not resurrected.
  auto r6 = builder.Observe(6, {obs});
  EXPECT_EQ(r6.late_observations, 1);
  EXPECT_EQ(builder.live_count(), 0u);

  const auto tracks = builder.Finish();
  ASSERT_EQ(tracks.size(), 1u);
  EXPECT_EQ(tracks[0].id, 7);
  ASSERT_EQ(tracks[0].points.size(), 1u);
  EXPECT_EQ(tracks[0].points[0].frame, 0);
}

// ---------------------------------------------------------------------------
// Ingest -> publish equals batch corpus

TEST(CameraIngestorTest, StreamedPublishMatchesBatchCorpusBitwise) {
  TempDir dir("mivid_ingest_e2e");
  VideoDbOptions db_options;
  db_options.create_if_missing = true;
  auto opened = VideoDb::Open(dir.path(), db_options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<VideoDb> db = std::move(opened).value();

  const QueryOptions query;
  CorpusManager corpora(db.get(), query);
  IngestOptions ingest;
  ingest.query = query;
  CameraIngestor ingestor("camS", db.get(), &corpora, ingest);

  // Clip 1 streamed before the camera's first snapshot: the cold load
  // triggered by Publish covers it from the db, so the staged duplicate
  // must be dropped instead of published twice.
  const GroundTruth gt1 = SimulateTunnel(500, /*seed=*/41);
  for (const auto& frame : FramesFromTracks(gt1.tracks, gt1.total_frames)) {
    ASSERT_TRUE(ingestor.Observe(frame).ok());
  }
  for (const IncidentRecord& incident : gt1.incidents) {
    ASSERT_TRUE(ingestor
                    .AddIncident(incident.type, incident.begin_frame,
                                 incident.end_frame, incident.vehicle_ids)
                    .ok());
  }
  auto cut1 = ingestor.Cut();
  ASSERT_TRUE(cut1.ok()) << cut1.status().ToString();
  EXPECT_GE(cut1.value().clip_id, 0);
  EXPECT_GT(cut1.value().bags_staged, 0u);

  auto epoch1 = corpora.Publish("camS");
  ASSERT_TRUE(epoch1.ok()) << epoch1.status().ToString();
  EXPECT_EQ(epoch1.value()->id, 1u);  // cold load already covered clip 1
  EXPECT_EQ(corpora.stats().publishes, 0u);
  EXPECT_EQ(corpora.stats().tail_clips, 0u);

  // Clip 2 streamed after the snapshot exists: the real epoch bump.
  const GroundTruth gt2 = SimulateTunnel(400, /*seed=*/42);
  const int offset = ingestor.stats().stream_frame + 1;
  for (const auto& frame :
       FramesFromTracks(gt2.tracks, gt2.total_frames, offset)) {
    ASSERT_TRUE(ingestor.Observe(frame).ok());
  }
  for (const IncidentRecord& incident : gt2.incidents) {
    ASSERT_TRUE(ingestor
                    .AddIncident(incident.type, offset + incident.begin_frame,
                                 offset + incident.end_frame,
                                 incident.vehicle_ids)
                    .ok());
  }
  auto cut2 = ingestor.Cut();
  ASSERT_TRUE(cut2.ok()) << cut2.status().ToString();
  ASSERT_GE(cut2.value().clip_id, 0);

  auto epoch2 = corpora.Publish("camS");
  ASSERT_TRUE(epoch2.ok()) << epoch2.status().ToString();
  EXPECT_EQ(epoch2.value()->id, 2u);
  EXPECT_EQ(corpora.stats().publishes, 1u);
  EXPECT_GT(epoch2.value()->bag_count(), epoch1.value()->bag_count());
  // Epoch 2 shares epoch 1's part and adds the new clip's bags as one.
  ASSERT_EQ(epoch2.value()->parts.size(), epoch1.value()->parts.size() + 1);
  EXPECT_EQ(epoch2.value()->parts[0], epoch1.value()->parts[0]);

  // The published epoch must equal a from-scratch batch build over the
  // same stored clips, bitwise: same bags, ids, features, provenance,
  // and oracle truth.
  QueryEngine engine(db.get());
  auto batch = engine.BuildCorpus("camS", query);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ExpectCorpusBitIdentical(Merged(*epoch2.value()), batch.value());

  // The pinned epoch-1 corpus is a strict prefix of epoch 2 (bag ids
  // never change meaning across epochs).
  const MilDataset old_bags = epoch1.value()->Dataset();
  const MilDataset new_bags = epoch2.value()->Dataset();
  for (size_t b = 0; b < old_bags.size(); ++b) {
    EXPECT_EQ(old_bags.bag(b).id, new_bags.bag(b).id);
  }

  // Re-publishing with nothing staged is an idempotent no-op.
  auto epoch2_again = corpora.Publish("camS");
  ASSERT_TRUE(epoch2_again.ok());
  EXPECT_EQ(epoch2_again.value().get(), epoch2.value().get());
}

TEST(CorpusManagerTest, AppendValidatesClips) {
  TempDir dir("mivid_ingest_append");
  VideoDbOptions db_options;
  db_options.create_if_missing = true;
  auto opened = VideoDb::Open(dir.path(), db_options);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<VideoDb> db = std::move(opened).value();

  const GroundTruth gt = SimulateTunnel(400, /*seed=*/5);
  ClipInfo info;
  info.camera_id = "camV";
  info.total_frames = gt.total_frames;
  auto clip_id = db->IngestClip(info, gt.tracks, gt.incidents);
  ASSERT_TRUE(clip_id.ok());

  const QueryOptions query;
  CorpusManager corpora(db.get(), query);
  // Unpersisted clip ids are rejected outright.
  EXPECT_TRUE(corpora.Append("camV", ClipExtraction{}).IsInvalidArgument());

  // A clip covered by the published epoch cannot be staged again.
  ASSERT_TRUE(corpora.Snapshot("camV").ok());
  auto record = db->LoadClip(clip_id.value());
  ASSERT_TRUE(record.ok());
  ClipExtraction extraction = ExtractClip(record.value(), query);
  extraction.clip_id = clip_id.value();
  EXPECT_TRUE(corpora.Append("camV", extraction).IsAlreadyExists());

  // Staging the same (new) clip twice is also rejected.
  extraction.clip_id = clip_id.value() + 100;
  EXPECT_TRUE(corpora.Append("camV", extraction).ok());
  EXPECT_TRUE(corpora.Append("camV", extraction).IsAlreadyExists());
}

// ---------------------------------------------------------------------------
// Epoch manifest / segment cold restore

TEST(CorpusManagerTest, ColdRestoreFromSegmentsMatchesExtraction) {
  TempDir db_dir("mivid_ingest_restore_db");
  TempDir snap_dir("mivid_ingest_restore_snap");
  // The server creates the snapshot dir in ValidateServeOptions; a
  // directly constructed manager expects it to exist.
  fs::create_directories(snap_dir.path());
  VideoDbOptions db_options;
  db_options.create_if_missing = true;
  auto opened = VideoDb::Open(db_dir.path(), db_options);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<VideoDb> db = std::move(opened).value();

  const GroundTruth gt = SimulateTunnel(500, /*seed=*/13);
  ClipInfo info;
  info.camera_id = "camR";
  info.total_frames = gt.total_frames;
  ASSERT_TRUE(db->IngestClip(info, gt.tracks, gt.incidents).ok());

  const QueryOptions query;
  std::shared_ptr<const CorpusEpoch> published;
  {
    // First manager: cold extraction, writes segment + manifest.
    CorpusManager corpora(db.get(), query, snap_dir.path());
    auto epoch = corpora.Snapshot("camR");
    ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
    EXPECT_EQ(corpora.stats().snapshot_hits, 0u);
    EXPECT_GE(corpora.stats().snapshot_writes, 1u);

    // Stage + publish a second clip so the manifest grows to two
    // segments.
    const GroundTruth gt2 = SimulateTunnel(400, /*seed=*/14);
    ClipInfo info2;
    info2.camera_id = "camR";
    info2.total_frames = gt2.total_frames;
    auto clip2 = db->IngestClip(info2, gt2.tracks, gt2.incidents);
    ASSERT_TRUE(clip2.ok());
    auto record2 = db->LoadClip(clip2.value());
    ASSERT_TRUE(record2.ok());
    ASSERT_TRUE(
        corpora.Append("camR", ExtractClip(record2.value(), query)).ok());
    auto epoch2 = corpora.Publish("camR");
    ASSERT_TRUE(epoch2.ok()) << epoch2.status().ToString();
    EXPECT_EQ(epoch2.value()->id, 2u);
    published = epoch2.value();
  }

  // Second manager, same snapshot dir: the cold load must restore from
  // the manifest's segments (no re-extraction) and reproduce the
  // published corpus bitwise.
  CorpusManager restored(db.get(), query, snap_dir.path());
  auto epoch = restored.Snapshot("camR");
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(restored.stats().snapshot_hits, 1u);
  ExpectCorpusBitIdentical(Merged(*epoch.value()), Merged(*published));

  // A fresh manager without the snapshot dir re-extracts; the result
  // must still be bitwise identical (segments are a cache, not a fork).
  CorpusManager scratch(db.get(), query);
  auto extracted = scratch.Snapshot("camR");
  ASSERT_TRUE(extracted.ok());
  ExpectCorpusBitIdentical(Merged(*extracted.value()), Merged(*published));
}

// Finding: ReadEpochManifest took any segment "file", so a manifest
// naming "../<dir>/<seg>" made the cold load read a segment from outside
// the snapshot dir. Such a manifest is now corrupt: the camera's clips
// are extracted again, and the segment outside is never read.
TEST(CorpusManagerTest, ManifestSegmentOutsideSnapshotDirIsReExtracted) {
  TempDir db_dir("mivid_ingest_escape_db");
  TempDir snap_dir("mivid_ingest_escape_snap");
  TempDir outside("mivid_ingest_escape_outside");
  fs::create_directories(snap_dir.path());
  fs::create_directories(outside.path());
  VideoDbOptions db_options;
  db_options.create_if_missing = true;
  auto opened = VideoDb::Open(db_dir.path(), db_options);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<VideoDb> db = std::move(opened).value();
  const GroundTruth gt = SimulateTunnel(400, /*seed=*/15);
  ClipInfo info;
  info.camera_id = "camE";
  info.total_frames = gt.total_frames;
  ASSERT_TRUE(db->IngestClip(info, gt.tracks, gt.incidents).ok());

  const QueryOptions query;
  {
    CorpusManager corpora(db.get(), query, snap_dir.path());
    ASSERT_TRUE(corpora.Snapshot("camE").ok());
  }
  const std::string manifest_path = snap_dir.path() + "/camE.manifest.json";
  auto manifest = ReadEpochManifest(manifest_path);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_EQ(manifest->segments.size(), 1u);
  // Move the (valid) segment out of the snapshot dir and point the
  // manifest at it through "..".
  EpochManifest escaped = manifest.value();
  EpochSegment& seg = escaped.segments[0];
  const std::string outside_name =
      fs::path(outside.path()).filename().string() + "/" + seg.file;
  fs::rename(snap_dir.path() + "/" + seg.file,
             outside.path() + "/" + seg.file);
  seg.file = "../" + outside_name;
  ASSERT_TRUE(WriteEpochManifest(escaped, manifest_path).ok());
  EXPECT_TRUE(ReadEpochManifest(manifest_path).status().IsCorruption());

  CorpusManager restored(db.get(), query, snap_dir.path());
  auto epoch = restored.Snapshot("camE");
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(restored.stats().snapshot_hits, 0u);
  CorpusManager scratch(db.get(), query);
  auto extracted = scratch.Snapshot("camE");
  ASSERT_TRUE(extracted.ok());
  ExpectCorpusBitIdentical(Merged(*epoch.value()), Merged(*extracted.value()));
}

TEST(CorpusManagerTest, PublishRefusesClipsOfAnotherInstanceDimension) {
  TempDir dir("mivid_ingest_dim");
  VideoDbOptions db_options;
  db_options.create_if_missing = true;
  auto opened = VideoDb::Open(dir.path(), db_options);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<VideoDb> db = std::move(opened).value();
  auto store = [&](uint64_t seed) {
    const GroundTruth gt = SimulateTunnel(400, seed);
    ClipInfo info;
    info.camera_id = "camD";
    info.total_frames = gt.total_frames;
    auto clip = db->IngestClip(info, gt.tracks, gt.incidents);
    EXPECT_TRUE(clip.ok());
    auto record = db->LoadClip(clip.ok() ? clip.value() : -1);
    EXPECT_TRUE(record.ok());
    return record.ok() ? record.value() : ClipRecord{};
  };
  store(21);
  const QueryOptions query;
  CorpusManager corpora(db.get(), query);
  auto epoch1 = corpora.Snapshot("camD");
  ASSERT_TRUE(epoch1.ok()) << epoch1.status().ToString();

  // Four checkpoints per window instead of three: longer instances.
  QueryOptions wide = query;
  wide.windows.window_size = 4;
  wide.windows.stride = 4;
  const ClipExtraction other = ExtractClip(store(22), wide);
  ASSERT_FALSE(other.windows.empty());
  ASSERT_TRUE(corpora.Append("camD", other).ok());
  EXPECT_TRUE(corpora.Publish("camD").status().IsInvalidArgument());
  auto unchanged = corpora.Snapshot("camD");
  ASSERT_TRUE(unchanged.ok());
  EXPECT_EQ(unchanged.value().get(), epoch1.value().get());

  // The refused clips are dropped; a matching clip publishes next.
  ASSERT_TRUE(corpora.Append("camD", ExtractClip(store(23), query)).ok());
  auto epoch2 = corpora.Publish("camD");
  ASSERT_TRUE(epoch2.ok()) << epoch2.status().ToString();
  EXPECT_EQ(epoch2.value()->id, 2u);
  EXPECT_GT(epoch2.value()->bag_count(), epoch1.value()->bag_count());
}

// ---------------------------------------------------------------------------
// Protocol versioning

TEST(ServeProtocolTest, AcceptsKnownProtocolVersions) {
  EXPECT_TRUE(ParseServeRequest(R"({"cmd":"stats","v":1})").ok());
  EXPECT_TRUE(ParseServeRequest(R"({"cmd":"stats","v":"1"})").ok());
  EXPECT_TRUE(ParseServeRequest(R"({"cmd":"stats","v":"1.0"})").ok());
  // Unknown minors are additive: the server must accept them.
  EXPECT_TRUE(ParseServeRequest(R"({"cmd":"stats","v":"1.99"})").ok());
  // Absent "v" means v1 (pre-versioning clients).
  EXPECT_TRUE(ParseServeRequest(R"({"cmd":"stats"})").ok());
}

TEST(ServeProtocolTest, RejectsUnknownProtocolMajor) {
  auto v2 = ParseServeRequest(R"({"cmd":"stats","v":2})");
  ASSERT_TRUE(v2.status().IsInvalidArgument());
  EXPECT_NE(v2.status().message().find("unsupported protocol major"),
            std::string::npos);
  EXPECT_TRUE(ParseServeRequest(R"({"cmd":"stats","v":"2.0"})")
                  .status()
                  .IsInvalidArgument());
  // The version gate runs before command lookup: a wrong-major client
  // gets the version error even for commands this server never had.
  EXPECT_NE(ParseServeRequest(R"({"cmd":"future-cmd","v":3})")
                .status()
                .message()
                .find("unsupported protocol major"),
            std::string::npos);
  // Malformed versions.
  EXPECT_TRUE(ParseServeRequest(R"({"cmd":"stats","v":1.5})")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseServeRequest(R"({"cmd":"stats","v":"abc"})")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseServeRequest(R"({"cmd":"stats","v":true})")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseServeRequest(R"({"cmd":"stats","v":"12345678901"})")
                  .status()
                  .IsInvalidArgument());
}

TEST(ServeProtocolTest, ParsesIngestCommand) {
  auto req = ParseServeRequest(
      R"({"cmd":"ingest","camera":"camA","v":"1.1",)"
      R"("frames":[{"frame":0,"obs":[{"track":3,"x":1.5,"y":2.5}]},)"
      R"({"frame":1,"obs":[{"track":3,"x":2.0,"y":3.0,)"
      R"("bbox":[1.0,2.0,3.0,4.0]}]}],)"
      R"("incidents":[{"type":"wall_crash","begin":0,"end":1,)"
      R"("vehicles":[3]}],"cut":true,"publish":true})");
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->cmd, ServeCmd::kIngest);
  EXPECT_EQ(req->camera_id, "camA");
  ASSERT_EQ(req->frames.size(), 2u);
  EXPECT_EQ(req->frames[0].frame, 0);
  ASSERT_EQ(req->frames[0].observations.size(), 1u);
  EXPECT_EQ(req->frames[0].observations[0].track_id, 3);
  EXPECT_EQ(req->frames[0].observations[0].centroid.x, 1.5);
  // bbox defaults to the centroid point when absent.
  EXPECT_EQ(req->frames[0].observations[0].bbox.min_x, 1.5);
  EXPECT_EQ(req->frames[1].observations[0].bbox.max_y, 4.0);
  ASSERT_EQ(req->incidents.size(), 1u);
  EXPECT_EQ(req->incidents[0].type, IncidentType::kWallCrash);
  EXPECT_EQ(req->incidents[0].vehicle_ids, std::vector<int>{3});
  EXPECT_TRUE(req->cut);
  EXPECT_TRUE(req->publish);
}

TEST(ServeProtocolTest, RejectsMalformedIngest) {
  // camera is required
  EXPECT_TRUE(ParseServeRequest(R"({"cmd":"ingest"})")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseServeRequest(R"({"cmd":"publish"})")
                  .status()
                  .IsInvalidArgument());
  // missing obs coordinates
  EXPECT_TRUE(ParseServeRequest(
                  R"({"cmd":"ingest","camera":"c",)"
                  R"("frames":[{"frame":0,"obs":[{"track":1,"x":1}]}]})")
                  .status()
                  .IsInvalidArgument());
  // missing frame index
  EXPECT_TRUE(ParseServeRequest(
                  R"({"cmd":"ingest","camera":"c","frames":[{"obs":[]}]})")
                  .status()
                  .IsInvalidArgument());
  // unknown incident type
  EXPECT_TRUE(ParseServeRequest(
                  R"({"cmd":"ingest","camera":"c",)"
                  R"("incidents":[{"type":"alien","begin":0,"end":1}]})")
                  .status()
                  .IsInvalidArgument());
  // inverted incident range
  EXPECT_TRUE(ParseServeRequest(
                  R"({"cmd":"ingest","camera":"c",)"
                  R"("incidents":[{"type":"u_turn","begin":5,"end":1}]})")
                  .status()
                  .IsInvalidArgument());
  // malformed bbox
  EXPECT_TRUE(ParseServeRequest(
                  R"({"cmd":"ingest","camera":"c","frames":[{"frame":0,)"
                  R"("obs":[{"track":1,"x":1,"y":1,"bbox":[1,2]}]}]})")
                  .status()
                  .IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Epoch pinning + refresh over the wire

JsonValue Parse(const std::string& response) {
  Result<JsonValue> doc = ParseJson(response);
  EXPECT_TRUE(doc.ok()) << response;
  return doc.ok() ? std::move(doc).value() : JsonValue{};
}

bool IsOk(const JsonValue& doc) {
  const JsonValue* ok = doc.Find("ok");
  return ok != nullptr && ok->type == JsonValue::Type::kBool && ok->bool_value;
}

std::string WireErrorCode(const JsonValue& doc) {
  const JsonValue* code = doc.Find("code");
  return code != nullptr ? code->string : "";
}

std::string WireError(const JsonValue& doc) {
  const JsonValue* error = doc.Find("error");
  return error != nullptr ? error->string : "(no error field)";
}

int64_t IntField(const JsonValue& doc, const char* key) {
  const JsonValue* v = doc.Find(key);
  EXPECT_TRUE(v != nullptr && v->is_number()) << key;
  return v != nullptr && v->is_number() ? static_cast<int64_t>(v->number) : -1;
}

std::vector<IncidentRecord> ShiftIncidents(
    const std::vector<IncidentRecord>& incidents, int offset) {
  std::vector<IncidentRecord> shifted = incidents;
  for (IncidentRecord& incident : shifted) {
    incident.begin_frame += offset;
    incident.end_frame += offset;
  }
  return shifted;
}

TEST(ServeIngestTest, EpochPinnedRanksAreByteIdenticalAcrossPublish) {
  TempDir dir("mivid_ingest_wire");
  VideoDbOptions db_options;
  db_options.create_if_missing = true;
  auto opened = VideoDb::Open(dir.path(), db_options);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<VideoDb> db = std::move(opened).value();

  RetrievalServer server(db.get(), ServeOptions{});

  // Stream clip 1 and publish: the camera becomes searchable with
  // nothing but the ingest API — no batch load ever ran.
  const GroundTruth gt1 = SimulateTunnel(500, /*seed=*/61);
  const JsonValue ingested1 = Parse(server.HandleLine(
      IngestLine("camL", FramesFromTracks(gt1.tracks, gt1.total_frames),
                 gt1.incidents, /*cut=*/true, /*publish=*/true)));
  ASSERT_TRUE(IsOk(ingested1));
  EXPECT_EQ(IntField(ingested1, "frames"), gt1.total_frames);
  EXPECT_GE(IntField(ingested1, "clip"), 0);
  EXPECT_EQ(IntField(ingested1, "epoch"), 1);

  // Ping advertises the protocol version and epoch counters.
  const JsonValue ping = Parse(server.HandleLine(R"({"cmd":"ping"})"));
  ASSERT_TRUE(IsOk(ping));
  const JsonValue* version = ping.Find("protocol_version");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->string, kProtocolVersion);

  // Open a session pinned to epoch 1 and take its ranking as the
  // baseline (full response bytes, scores included).
  const JsonValue open = Parse(server.HandleLine(
      R"({"cmd":"open","session":"pin","camera":"camL"})"));
  ASSERT_TRUE(IsOk(open));
  EXPECT_EQ(IntField(open, "epoch"), 1);
  const int64_t bags_epoch1 = IntField(open, "bags");
  ASSERT_GT(bags_epoch1, 0);

  const std::string rank_cmd = R"({"cmd":"rank","session":"pin","top":-1})";
  const std::string baseline = server.HandleLine(rank_cmd);
  ASSERT_TRUE(IsOk(Parse(baseline)));

  // Stream clip 2 + publish epoch 2 while the session stays open.
  const GroundTruth gt2 = SimulateTunnel(400, /*seed=*/62);
  const int offset = gt1.total_frames;
  const JsonValue ingested2 = Parse(server.HandleLine(IngestLine(
      "camL", FramesFromTracks(gt2.tracks, gt2.total_frames, offset),
      ShiftIncidents(gt2.incidents, offset), /*cut=*/true, /*publish=*/true)));
  ASSERT_TRUE(IsOk(ingested2)) << WireError(ingested2);
  EXPECT_EQ(IntField(ingested2, "epoch"), 2);
  EXPECT_GT(IntField(ingested2, "bags_staged"), 0);

  // The pinned session's ranking must be byte-identical to the
  // pre-publish baseline — the epoch snapshot guarantee.
  EXPECT_EQ(server.HandleLine(rank_cmd), baseline);

  // Feedback advances the round; refresh must carry it across epochs.
  const JsonValue baseline_doc = Parse(baseline);
  const JsonValue* first = baseline_doc.Find("ranking");
  ASSERT_TRUE(first != nullptr && !first->array.empty());
  const int top_bag = static_cast<int>(first->array[0].Find("bag")->number);
  ASSERT_TRUE(IsOk(Parse(server.HandleLine(
      StrFormat(R"({"cmd":"feedback","session":"pin","labels":)"
                R"([{"bag":%d,"label":"relevant"}]})",
                top_bag)))));

  const JsonValue refreshed = Parse(
      server.HandleLine(R"({"cmd":"refresh","session":"pin"})"));
  ASSERT_TRUE(IsOk(refreshed)) << WireError(refreshed);
  EXPECT_EQ(IntField(refreshed, "epoch"), 2);
  EXPECT_EQ(refreshed.Find("refreshed")->bool_value, true);
  EXPECT_EQ(IntField(refreshed, "round"), 1);  // feedback replayed
  const int64_t bags_epoch2 = IntField(refreshed, "bags");
  EXPECT_GT(bags_epoch2, bags_epoch1);  // the new clip's bags are visible

  // The refreshed ranking covers the grown corpus.
  const JsonValue reranked = Parse(server.HandleLine(rank_cmd));
  ASSERT_TRUE(IsOk(reranked));
  EXPECT_EQ(static_cast<int64_t>(reranked.Find("ranking")->array.size()),
            bags_epoch2);

  // A second refresh on the same epoch is a no-op.
  const JsonValue again = Parse(
      server.HandleLine(R"({"cmd":"refresh","session":"pin"})"));
  ASSERT_TRUE(IsOk(again));
  EXPECT_EQ(again.Find("refreshed")->bool_value, false);
  EXPECT_EQ(IntField(again, "round"), 1);
}

TEST(ServeIngestTest, IngestRuntimeErrorsSurfaceAsWireCodes) {
  TempDir dir("mivid_ingest_wire_err");
  VideoDbOptions db_options;
  db_options.create_if_missing = true;
  auto opened = VideoDb::Open(dir.path(), db_options);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<VideoDb> db = std::move(opened).value();
  RetrievalServer server(db.get(), ServeOptions{});

  // Frames must ascend across requests on the same camera.
  ASSERT_TRUE(IsOk(Parse(server.HandleLine(
      R"({"cmd":"ingest","camera":"c",)"
      R"("frames":[{"frame":5,"obs":[{"track":1,"x":1,"y":1}]}]})"))));
  EXPECT_EQ(WireErrorCode(Parse(server.HandleLine(
                R"({"cmd":"ingest","camera":"c",)"
                R"("frames":[{"frame":3,"obs":[{"track":1,"x":1,"y":1}]}]})"))),
            "INVALID_ARGUMENT");

  // Cutting, then annotating an incident inside the cut-away range.
  ASSERT_TRUE(IsOk(Parse(server.HandleLine(
      R"({"cmd":"ingest","camera":"c","cut":true})"))));
  EXPECT_EQ(WireErrorCode(Parse(server.HandleLine(
                R"({"cmd":"ingest","camera":"c",)"
                R"("incidents":[{"type":"u_turn","begin":0,"end":2}]})"))),
            "FAILED_PRECONDITION");

  // Publishing a camera that never streamed (and has no clips) is
  // NOT_FOUND, same as opening it.
  EXPECT_EQ(WireErrorCode(Parse(server.HandleLine(
                R"({"cmd":"publish","camera":"ghost"})"))),
            "NOT_FOUND");
}

}  // namespace
}  // namespace mivid
