// VideoDb tour: the database layer end to end.
//
// Creates an on-disk surveillance video database, ingests simulated clips
// from two cameras, reopens the database and runs a per-camera accident
// query through the QueryEngine.
//
// Output database directory: ./mivid_tour_db

#include <cstdio>

#include "db/query_engine.h"
#include "db/video_db.h"
#include "eval/metrics.h"
#include "trafficsim/scenarios.h"

using namespace mivid;

namespace {

Status IngestScenario(VideoDb* db, const ScenarioSpec& scenario,
                      const std::string& camera_id,
                      const std::string& location) {
  TrafficWorld world(scenario);
  const GroundTruth gt = world.Run();
  ClipInfo info;
  info.camera_id = camera_id;
  info.location = location;
  info.start_time_ms = 1167609600000LL;  // Jan 2007, the paper's era
  info.fps = 25.0;
  info.total_frames = scenario.total_frames;
  info.scenario = scenario.name;
  Result<int> id = db->IngestClip(info, gt.tracks, gt.incidents);
  if (!id.ok()) return id.status();
  std::printf("ingested clip %d from %s (%zu tracks, %zu incidents)\n",
              id.value(), camera_id.c_str(), gt.tracks.size(),
              gt.incidents.size());
  return Status::OK();
}

}  // namespace

int main() {
  const std::string db_path = "mivid_tour_db";

  // --- Create and populate. ---
  {
    VideoDbOptions options;
    options.create_if_missing = true;
    Result<std::unique_ptr<VideoDb>> db = VideoDb::Open(db_path, options);
    if (!db.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   db.status().ToString().c_str());
      return 1;
    }

    TunnelScenarioOptions tunnel;
    tunnel.total_frames = 1200;
    tunnel.num_wall_crashes = 2;
    tunnel.num_sudden_stops = 1;
    Status s = IngestScenario(db.value().get(), MakeTunnelScenario(tunnel),
                              "cam-tunnel-07", "I-59 tunnel, bore B");
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    IntersectionScenarioOptions inter;
    s = IngestScenario(db.value().get(), MakeIntersectionScenario(inter),
                       "cam-xing-12", "5th Ave / Main St");
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }

  // --- Reopen (fresh handle, catalog read from disk) and query. ---
  VideoDbOptions options;
  Result<std::unique_ptr<VideoDb>> db = VideoDb::Open(db_path, options);
  if (!db.ok()) {
    std::fprintf(stderr, "reopen failed: %s\n", db.status().ToString().c_str());
    return 1;
  }
  std::printf("\nreopened database with %zu clips; cameras:\n",
              db.value()->clip_count());
  for (const auto& camera : db.value()->Cameras()) {
    std::printf("  %s -> clips", camera.c_str());
    for (int id : db.value()->ClipsForCamera(camera)) std::printf(" %d", id);
    std::printf("\n");
  }

  QueryEngine engine(db.value().get());
  QueryOptions query;
  query.session.top_n = 10;

  // Retrieval runs per camera (paper Sec. 6.2).
  Result<CameraCorpus> corpus = engine.BuildCorpus("cam-tunnel-07", query);
  if (!corpus.ok()) {
    std::fprintf(stderr, "%s\n", corpus.status().ToString().c_str());
    return 1;
  }
  Result<RetrievalSession> session =
      RetrievalSession::Create(corpus->dataset, SessionOptionsFor(query));
  if (!session.ok()) {
    std::fprintf(stderr, "%s\n", session.status().ToString().c_str());
    return 1;
  }

  std::printf("\naccident query on cam-tunnel-07 (%zu windows):\n",
              corpus->dataset.size());
  for (int round = 0; round < 3; ++round) {
    const auto top = session->TopBags();
    const double acc = AccuracyAtN(top, corpus->truth, query.session.top_n);
    std::printf("  round %d accuracy@%zu = %.0f%%\n", round,
                query.session.top_n, 100 * acc);
    std::vector<std::pair<int, BagLabel>> feedback;
    for (int id : top) feedback.emplace_back(id, corpus->truth.at(id));
    const Status s = session->SubmitFeedback(feedback);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
