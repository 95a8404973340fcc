// Tests for src/cluster/: placement determinism and minimal movement,
// exact top-k merging, and the coordinator end-to-end over real
// RetrievalServer workers on loopback TCP — including bit-identical
// rankings vs a single-process server and SIGKILL-grade failover
// (worker Stop() mid-session, session resumes elsewhere via journal).

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/coordinator.h"
#include "cluster/merger.h"
#include "cluster/placement.h"
#include "db/video_db.h"
#include "obs/json.h"
#include "serve/server.h"
#include "trafficsim/scenarios.h"
#include "ingest_lines.h"

namespace mivid {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  // The pid suffix keeps concurrent test processes (ctest -j runs each
  // gtest case in its own process) from clobbering each other's db.
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

JsonValue Parse(const std::string& response) {
  Result<JsonValue> doc = ParseJson(response);
  EXPECT_TRUE(doc.ok()) << response;
  return doc.ok() ? std::move(doc).value() : JsonValue{};
}

bool IsOk(const JsonValue& doc) {
  const JsonValue* ok = doc.Find("ok");
  return ok != nullptr && ok->type == JsonValue::Type::kBool && ok->bool_value;
}

// ---------------------------------------------------------------------------
// Placement ring

TEST(PlacementTest, HashIsDeterministic) {
  EXPECT_EQ(PlacementHash(""), 17665956581633026203ull);  // FNV basis, avalanched
  EXPECT_EQ(PlacementHash("cam0"), PlacementHash("cam0"));
  EXPECT_NE(PlacementHash("cam0"), PlacementHash("cam1"));
}

TEST(PlacementTest, OwnerIsDeterministicAcrossRings) {
  PlacementRing a(64), b(64);
  for (const char* w : {"w0", "w1", "w2"}) {
    a.Add(w);
    b.Add(w);
  }
  for (int i = 0; i < 200; ++i) {
    const std::string camera = "cam" + std::to_string(i);
    auto oa = a.Owner(camera);
    auto ob = b.Owner(camera);
    ASSERT_TRUE(oa.ok() && ob.ok());
    EXPECT_EQ(oa.value(), ob.value()) << camera;
  }
}

TEST(PlacementTest, EveryWorkerOwnsSomething) {
  PlacementRing ring(64);
  for (const char* w : {"w0", "w1", "w2"}) ring.Add(w);
  std::map<std::string, int> owned;
  for (int i = 0; i < 300; ++i) {
    auto owner = ring.Owner("cam" + std::to_string(i));
    ASSERT_TRUE(owner.ok());
    owned[owner.value()]++;
  }
  EXPECT_EQ(owned.size(), 3u);  // 64 vnodes spread 300 keys over all three
  for (const auto& [worker, count] : owned) {
    EXPECT_GT(count, 0) << worker;
  }
}

TEST(PlacementTest, RemovalMovesOnlyTheDeadWorkersKeys) {
  PlacementRing ring(64);
  for (const char* w : {"w0", "w1", "w2"}) ring.Add(w);
  std::map<std::string, std::string> before;
  for (int i = 0; i < 300; ++i) {
    const std::string camera = "cam" + std::to_string(i);
    before[camera] = ring.Owner(camera).value();
  }
  ring.Remove("w1");
  EXPECT_FALSE(ring.Contains("w1"));
  for (const auto& [camera, owner] : before) {
    const std::string after = ring.Owner(camera).value();
    if (owner == "w1") {
      EXPECT_NE(after, "w1") << camera;  // re-homed to a survivor
    } else {
      EXPECT_EQ(after, owner) << camera;  // everyone else stays put
    }
  }
}

TEST(PlacementTest, EmptyRingFailsPrecondition) {
  PlacementRing ring;
  EXPECT_TRUE(ring.Owner("cam0").status().IsFailedPrecondition());
  ring.Add("w0");
  EXPECT_TRUE(ring.Owner("cam0").ok());
  ring.Remove("w0");
  EXPECT_TRUE(ring.Owner("cam0").status().IsFailedPrecondition());
}

// ---------------------------------------------------------------------------
// Exact top-k merge

TEST(MergerTest, OrdersByScoreThenCameraThenBag) {
  EXPECT_TRUE(ClusterRankLess({"a", 1, 2.0}, {"a", 0, 1.0}));  // score desc
  EXPECT_TRUE(ClusterRankLess({"a", 9, 1.0}, {"b", 0, 1.0}));  // camera asc
  EXPECT_TRUE(ClusterRankLess({"a", 0, 1.0}, {"a", 1, 1.0}));  // bag asc
}

TEST(MergerTest, MergesSortedPartsExactly) {
  std::vector<std::vector<ClusterScoredBag>> parts = {
      {{"camA", 0, 9.0}, {"camA", 1, 3.0}, {"camA", 2, 1.0}},
      {{"camB", 5, 8.0}, {"camB", 6, 2.0}},
      {},
      {{"camC", 7, 10.0}},
  };
  const auto merged = MergeTopK(parts, 4);
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].camera, "camC");
  EXPECT_EQ(merged[0].bag_id, 7);
  EXPECT_EQ(merged[1].camera, "camA");
  EXPECT_EQ(merged[1].bag_id, 0);
  EXPECT_EQ(merged[2].camera, "camB");
  EXPECT_EQ(merged[2].bag_id, 5);
  EXPECT_EQ(merged[3].camera, "camA");
  EXPECT_EQ(merged[3].bag_id, 1);

  // k == 0: the full merge, still globally ordered.
  const auto all = MergeTopK(parts, 0);
  ASSERT_EQ(all.size(), 6u);
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_TRUE(ClusterRankLess(all[i - 1], all[i]) ||
                (!ClusterRankLess(all[i - 1], all[i]) &&
                 !ClusterRankLess(all[i], all[i - 1])));
  }
}

TEST(MergerTest, TieScoresBreakByCameraThenBag) {
  std::vector<std::vector<ClusterScoredBag>> parts = {
      {{"camB", 1, 5.0}, {"camB", 3, 5.0}},
      {{"camA", 2, 5.0}},
  };
  const auto merged = MergeTopK(parts, 0);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].camera, "camA");
  EXPECT_EQ(merged[1].bag_id, 1);
  EXPECT_EQ(merged[2].bag_id, 3);
}

TEST(MergerTest, MergeIsShardingInvariant) {
  // The same 9 bags split 1-way vs 3-way must merge identically.
  std::vector<ClusterScoredBag> all;
  for (int i = 0; i < 9; ++i) {
    all.push_back({"cam" + std::to_string(i % 3), i,
                   static_cast<double>((i * 7) % 5)});
  }
  std::vector<std::vector<ClusterScoredBag>> by_camera(3);
  for (const auto& bag : all) {
    by_camera[bag.camera.back() - '0'].push_back(bag);
  }
  for (auto& part : by_camera) {
    std::sort(part.begin(), part.end(), ClusterRankLess);
  }
  std::vector<ClusterScoredBag> flat_sorted = all;
  std::sort(flat_sorted.begin(), flat_sorted.end(), ClusterRankLess);

  const auto merged = MergeTopK(by_camera, 5);
  ASSERT_EQ(merged.size(), 5u);
  for (size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].camera, flat_sorted[i].camera) << i;
    EXPECT_EQ(merged[i].bag_id, flat_sorted[i].bag_id) << i;
    EXPECT_EQ(merged[i].score, flat_sorted[i].score) << i;
  }
}

// ---------------------------------------------------------------------------
// Coordinator options

TEST(CoordinatorOptionsTest, ValidationFailsFast) {
  CoordinatorOptions good;
  good.socket_path = "/tmp/mivid_coord_validate.sock";
  good.workers = {"127.0.0.1:1", "127.0.0.1:2"};
  EXPECT_TRUE(ValidateCoordinatorOptions(good).ok());

  CoordinatorOptions no_listener = good;
  no_listener.socket_path.clear();
  EXPECT_TRUE(
      ValidateCoordinatorOptions(no_listener).IsInvalidArgument());

  CoordinatorOptions no_workers = good;
  no_workers.workers.clear();
  EXPECT_TRUE(
      ValidateCoordinatorOptions(no_workers).IsInvalidArgument());

  CoordinatorOptions dup = good;
  dup.workers = {"127.0.0.1:1", "127.0.0.1:1"};
  EXPECT_TRUE(ValidateCoordinatorOptions(dup).IsInvalidArgument());

  CoordinatorOptions bad_top = good;
  bad_top.top_n = 0;
  EXPECT_TRUE(
      ValidateCoordinatorOptions(bad_top).IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// End-to-end fleet: real workers on loopback TCP behind a coordinator.

/// One database shared by the fleet tests: four cameras, tunnel clips.
struct ClusterTestEnv {
  TempDir dir{"mivid_cluster_test"};
  std::unique_ptr<VideoDb> db;
  std::vector<std::string> cameras;
};

ClusterTestEnv& Env() {
  static ClusterTestEnv* env = [] {
    auto* e = new ClusterTestEnv();
    VideoDbOptions options;
    options.create_if_missing = true;
    auto opened = VideoDb::Open(e->dir.path(), options);
    if (!opened.ok()) std::abort();
    e->db = std::move(opened).value();
    for (int i = 0; i < 4; ++i) {
      const std::string camera = "cam" + std::to_string(i);
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
      info.camera_id = camera;
      info.total_frames = scenario.total_frames;
      if (!e->db->IngestClip(info, gt.tracks, gt.incidents).ok()) std::abort();
      e->cameras.push_back(camera);
    }
    return e;
  }();
  return *env;
}

/// A 3-worker fleet over one database (Env()'s by default), each worker
/// a real RetrievalServer on an ephemeral loopback TCP port.
struct Fleet {
  std::vector<std::unique_ptr<RetrievalServer>> workers;
  std::vector<std::string> endpoints;
  std::unique_ptr<Coordinator> coord;

  explicit Fleet(VideoDb* db = nullptr) {
    if (db == nullptr) db = Env().db.get();
    for (int i = 0; i < 3; ++i) {
      ServeOptions options;
      options.tcp_port = 0;  // kernel-assigned: tests never collide
      options.worker_id = "w" + std::to_string(i);
      auto server = std::make_unique<RetrievalServer>(db, options);
      if (!server->Start().ok()) std::abort();
      endpoints.push_back("127.0.0.1:" +
                          std::to_string(server->tcp_port()));
      workers.push_back(std::move(server));
    }
    CoordinatorOptions options;
    options.tcp_port = 0;
    options.workers = endpoints;
    coord = std::make_unique<Coordinator>(options);
    if (!coord->Start().ok()) std::abort();
  }

  ~Fleet() {
    coord->Stop();
    for (auto& worker : workers) worker->Stop();
  }

  std::string Call(const std::string& line) {
    return coord->HandleLine(line);
  }
};

TEST(ClusterTest, SingleCameraSessionIsByteIdenticalPassthrough) {
  Fleet fleet;
  // The same conversation against a plain single-process server.
  ServeOptions solo_options;
  RetrievalServer solo(Env().db.get(), solo_options);

  const std::vector<std::string> script = {
      R"({"cmd":"open","session":"pass1","camera":"cam0"})",
      R"({"cmd":"rank","session":"pass1","top":5})",
      R"({"cmd":"feedback","session":"pass1","labels":[{"bag":0,"label":"relevant"},{"bag":1,"label":"irrelevant"}]})",
      R"({"cmd":"rank","session":"pass1","top":-1})",
      R"({"cmd":"close","session":"pass1","discard":true})",
  };
  for (const std::string& line : script) {
    SCOPED_TRACE(line);
    const std::string fleet_response = fleet.Call(line);
    const std::string solo_response = solo.HandleLine(line);
    EXPECT_EQ(fleet_response, solo_response);
    ASSERT_TRUE(IsOk(Parse(fleet_response))) << fleet_response;
  }
}

TEST(ClusterTest, MultiCameraRankMergesAllCorporaExactly) {
  Fleet fleet;
  JsonValue open = Parse(fleet.Call(
      R"({"cmd":"open","session":"multi1","cameras":["cam0","cam1","cam2","cam3"]})"));
  ASSERT_TRUE(IsOk(open)) << fleet.Call(R"({"cmd":"stats"})");
  const int total_bags = static_cast<int>(open.Find("bags")->number);
  EXPECT_GT(total_bags, 0);

  // Full ranking covers every bag of every corpus, globally ordered.
  JsonValue rank =
      Parse(fleet.Call(R"({"cmd":"rank","session":"multi1","top":-1})"));
  ASSERT_TRUE(IsOk(rank));
  const JsonValue* ranking = rank.Find("ranking");
  ASSERT_TRUE(ranking != nullptr && ranking->is_array());
  EXPECT_EQ(static_cast<int>(ranking->array.size()), total_bags);
  EXPECT_EQ(static_cast<int>(rank.Find("total")->number), total_bags);
  std::set<std::string> seen_cameras;
  double prev = 1e300;
  for (const JsonValue& item : ranking->array) {
    seen_cameras.insert(item.Find("camera")->string);
    EXPECT_LE(item.Find("score")->number, prev);
    prev = item.Find("score")->number;
  }
  EXPECT_EQ(seen_cameras.size(), 4u);

  // Top-k is the prefix of the full merge.
  JsonValue top = Parse(fleet.Call(
      R"({"cmd":"rank","session":"multi1","top":6})"));
  ASSERT_TRUE(IsOk(top));
  const JsonValue* top_ranking = top.Find("ranking");
  ASSERT_EQ(top_ranking->array.size(), 6u);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(top_ranking->array[i].Find("camera")->string,
              ranking->array[i].Find("camera")->string)
        << i;
    EXPECT_EQ(top_ranking->array[i].Find("bag")->number,
              ranking->array[i].Find("bag")->number)
        << i;
  }

  // Camera-qualified feedback routes to the right sub-session.
  JsonValue fed = Parse(fleet.Call(
      R"({"cmd":"feedback","session":"multi1","labels":[)"
      R"({"bag":0,"label":"relevant","camera":"cam1"},)"
      R"({"bag":1,"label":"irrelevant","camera":"cam1"},)"
      R"({"bag":0,"label":"relevant","camera":"cam3"},)"
      R"({"bag":1,"label":"irrelevant","camera":"cam3"}]})"));
  ASSERT_TRUE(IsOk(fed));
  EXPECT_EQ(fed.Find("labeled")->number, 4);

  // Unqualified labels are rejected in a multi-camera session.
  JsonValue bad = Parse(fleet.Call(
      R"({"cmd":"feedback","session":"multi1","labels":[{"bag":0,"label":"relevant"}]})"));
  EXPECT_FALSE(IsOk(bad));

  ASSERT_TRUE(IsOk(Parse(
      fleet.Call(R"({"cmd":"close","session":"multi1","discard":true})"))));
}

TEST(ClusterTest, MultiCameraRankMatchesSingleProcessPerCameraMerge) {
  Fleet fleet;
  ASSERT_TRUE(IsOk(Parse(fleet.Call(
      R"({"cmd":"open","session":"inv1","cameras":["cam0","cam1","cam2"]})"))));
  JsonValue fleet_rank =
      Parse(fleet.Call(R"({"cmd":"rank","session":"inv1","top":10})"));
  ASSERT_TRUE(IsOk(fleet_rank));

  // Reference: one single-process server, one session per camera, merged
  // through the same comparator. Sharding must not change the answer.
  ServeOptions solo_options;
  RetrievalServer solo(Env().db.get(), solo_options);
  std::vector<std::vector<ClusterScoredBag>> parts;
  for (const char* camera : {"cam0", "cam1", "cam2"}) {
    ASSERT_TRUE(IsOk(Parse(solo.HandleLine(
        std::string(R"({"cmd":"open","session":"inv1-)") + camera +
        R"(","camera":")" + camera + "\"}"))));
    JsonValue rank = Parse(solo.HandleLine(
        std::string(R"({"cmd":"rank","session":"inv1-)") + camera +
        R"(","top":10})"));
    ASSERT_TRUE(IsOk(rank));
    std::vector<ClusterScoredBag> part;
    for (const JsonValue& item : rank.Find("ranking")->array) {
      part.push_back(ClusterScoredBag{
          camera, static_cast<int>(item.Find("bag")->number),
          item.Find("score")->number});
    }
    parts.push_back(std::move(part));
  }
  const auto reference = MergeTopK(std::move(parts), 10);

  const JsonValue* ranking = fleet_rank.Find("ranking");
  ASSERT_EQ(ranking->array.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(ranking->array[i].Find("camera")->string,
              reference[i].camera)
        << i;
    EXPECT_EQ(static_cast<int>(ranking->array[i].Find("bag")->number),
              reference[i].bag_id)
        << i;
    EXPECT_EQ(ranking->array[i].Find("score")->number, reference[i].score)
        << i;
  }
  ASSERT_TRUE(IsOk(Parse(
      fleet.Call(R"({"cmd":"close","session":"inv1","discard":true})"))));
}

TEST(ClusterTest, WorkerDeathFailsOverWithIdenticalRanking) {
  Fleet fleet;
  ASSERT_TRUE(IsOk(Parse(fleet.Call(
      R"({"cmd":"open","session":"fo1","camera":"cam2"})"))));
  ASSERT_TRUE(IsOk(Parse(fleet.Call(
      R"({"cmd":"feedback","session":"fo1","labels":[{"bag":0,"label":"relevant"},{"bag":1,"label":"irrelevant"}]})"))));
  const std::string before =
      fleet.Call(R"({"cmd":"rank","session":"fo1","top":-1})");
  ASSERT_TRUE(IsOk(Parse(before)));

  // Find the home worker (the one with requests) and kill it hard: the
  // feedback journal is its only legacy.
  JsonValue stats = Parse(fleet.Call(R"({"cmd":"stats"})"));
  const JsonValue* workers = stats.Find("workers");
  ASSERT_TRUE(workers != nullptr && workers->is_array());
  int victim = -1;
  for (size_t i = 0; i < workers->array.size(); ++i) {
    if (workers->array[i].Find("requests")->number > 0) {
      victim = static_cast<int>(i);
    }
  }
  ASSERT_GE(victim, 0);
  fleet.workers[victim]->Stop();

  // The very next rank detects the death, re-places cam2, re-opens from
  // the journal on a survivor, and answers byte-identically.
  const std::string after =
      fleet.Call(R"({"cmd":"rank","session":"fo1","top":-1})");
  EXPECT_EQ(before, after);

  // The dead worker is off the ring; the survivors carry the load.
  JsonValue after_stats = Parse(fleet.Call(R"({"cmd":"stats"})"));
  EXPECT_EQ(after_stats.Find("workers_alive")->number, 2);
  const JsonValue* failed_over = after_stats.Find("workers");
  ASSERT_NE(failed_over, nullptr);
  EXPECT_FALSE(
      failed_over->array[victim].Find("alive")->bool_value);

  // Feedback keeps flowing on the resumed session.
  EXPECT_TRUE(IsOk(Parse(fleet.Call(
      R"({"cmd":"feedback","session":"fo1","labels":[{"bag":2,"label":"irrelevant"}]})"))));
  ASSERT_TRUE(IsOk(Parse(
      fleet.Call(R"({"cmd":"close","session":"fo1","discard":true})"))));
}

TEST(ClusterTest, MultiCameraSessionSurvivesWorkerDeath) {
  Fleet fleet;
  ASSERT_TRUE(IsOk(Parse(fleet.Call(
      R"({"cmd":"open","session":"fo2","cameras":["cam0","cam1","cam2","cam3"]})"))));
  const std::string before =
      fleet.Call(R"({"cmd":"rank","session":"fo2","top":8})");
  ASSERT_TRUE(IsOk(Parse(before)));

  // Kill whichever worker served the most requests; with four cameras on
  // three workers at least one sub-session must fail over.
  JsonValue stats = Parse(fleet.Call(R"({"cmd":"stats"})"));
  const JsonValue* workers = stats.Find("workers");
  int victim = 0;
  double most = -1;
  for (size_t i = 0; i < workers->array.size(); ++i) {
    const double requests = workers->array[i].Find("requests")->number;
    if (requests > most) {
      most = requests;
      victim = static_cast<int>(i);
    }
  }
  fleet.workers[victim]->Stop();

  const std::string after =
      fleet.Call(R"({"cmd":"rank","session":"fo2","top":8})");
  EXPECT_EQ(before, after);
  ASSERT_TRUE(IsOk(Parse(
      fleet.Call(R"({"cmd":"close","session":"fo2","discard":true})"))));
}

TEST(ClusterTest, AllWorkersDeadReportsFailedPrecondition) {
  Fleet fleet;
  ASSERT_TRUE(IsOk(Parse(fleet.Call(
      R"({"cmd":"open","session":"dead1","camera":"cam0"})"))));
  for (auto& worker : fleet.workers) worker->Stop();
  JsonValue rank =
      Parse(fleet.Call(R"({"cmd":"rank","session":"dead1"})"));
  EXPECT_FALSE(IsOk(rank));
  const JsonValue* code = rank.Find("code");
  ASSERT_NE(code, nullptr);
  EXPECT_EQ(code->string, "FAILED_PRECONDITION");
}

// ---------------------------------------------------------------------------
// Session-addressed commands on multi-camera sessions, camera-addressed
// relays (ingest/publish), and lookups racing an open that fails.

std::string CodeOf(const JsonValue& doc) {
  const JsonValue* code = doc.Find("code");
  return code != nullptr && code->is_string() ? code->string : "";
}

/// Sessions a worker holds, from its own stats.
std::set<std::string> WorkerSessions(RetrievalServer& worker) {
  const JsonValue stats = Parse(worker.HandleLine(R"({"cmd":"stats"})"));
  std::set<std::string> ids;
  if (const JsonValue* sessions = stats.Find("sessions");
      sessions != nullptr && sessions->is_array()) {
    for (const JsonValue& id : sessions->array) ids.insert(id.string);
  }
  return ids;
}

/// Indices of the workers the coordinator has sent requests to.
std::vector<int> BusyWorkers(Fleet& fleet) {
  const JsonValue stats = Parse(fleet.Call(R"({"cmd":"stats"})"));
  std::vector<int> busy;
  const JsonValue* workers = stats.Find("workers");
  if (workers == nullptr || !workers->is_array()) return busy;
  for (size_t i = 0; i < workers->array.size(); ++i) {
    if (workers->array[i].Find("requests")->number > 0) {
      busy.push_back(static_cast<int>(i));
    }
  }
  return busy;
}

std::unique_ptr<VideoDb> OpenEmptyDb(const std::string& path) {
  VideoDbOptions options;
  options.create_if_missing = true;
  auto opened = VideoDb::Open(path, options);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return opened.ok() ? std::move(opened).value() : nullptr;
}

/// One streamed tunnel clip as frame observations plus its incidents.
struct StreamedClip {
  std::vector<FrameObservations> frames;
  std::vector<IncidentRecord> incidents;
};

StreamedClip SimulateStream(int total_frames) {
  TunnelScenarioOptions options;
  options.total_frames = total_frames;
  options.num_wall_crashes = 1;
  options.num_sudden_stops = 1;
  options.num_speeding = 0;
  options.num_uturns = 0;
  TrafficWorld world(MakeTunnelScenario(options));
  const GroundTruth gt = world.Run();
  return StreamedClip{test::FramesFromTracks(gt.tracks, gt.total_frames),
                      gt.incidents};
}

TEST(ClusterTest, MultiCameraSaveRefreshCloseFanOutToEverySubSession) {
  Fleet fleet;
  const JsonValue open = Parse(fleet.Call(
      R"({"cmd":"open","session":"fan1","cameras":["cam0","cam1","cam2"]})"));
  ASSERT_TRUE(IsOk(open));
  const int64_t bags = static_cast<int64_t>(open.Find("bags")->number);
  ASSERT_GT(bags, 0);
  ASSERT_TRUE(IsOk(Parse(fleet.Call(
      R"({"cmd":"feedback","session":"fan1","labels":[)"
      R"({"bag":0,"label":"relevant","camera":"cam1"}]})"))));

  // Every camera's sub-session lives on some worker.
  std::set<std::string> held;
  for (auto& worker : fleet.workers) {
    for (const std::string& id : WorkerSessions(*worker)) held.insert(id);
  }
  EXPECT_EQ(held, (std::set<std::string>{"fan1-cam0", "fan1-cam1",
                                         "fan1-cam2"}));

  EXPECT_EQ(fleet.Call(R"({"cmd":"save","session":"fan1"})"),
            R"({"ok":true,"cmd":"save","session":"fan1","cameras":3})");

  // Nothing was published since the cold loads, so every sub-session
  // stays on its camera's first epoch.
  EXPECT_EQ(fleet.Call(R"({"cmd":"refresh","session":"fan1"})"),
            R"({"ok":true,"cmd":"refresh","session":"fan1","cameras":3,)"
            R"("bags":)" + std::to_string(bags) +
                R"(,"refreshed":false,)"
                R"("epochs":{"cam0":1,"cam1":1,"cam2":1}})");

  EXPECT_EQ(
      fleet.Call(R"({"cmd":"close","session":"fan1"})"),
      R"({"ok":true,"cmd":"close","session":"fan1","cameras":3,"journaled":true})");
  EXPECT_EQ(fleet.coord->session_count(), 0u);
  for (auto& worker : fleet.workers) {
    EXPECT_TRUE(WorkerSessions(*worker).empty());
  }
  const JsonValue gone =
      Parse(fleet.Call(R"({"cmd":"rank","session":"fan1"})"));
  EXPECT_FALSE(IsOk(gone));
  EXPECT_EQ(CodeOf(gone), "NOT_FOUND");
}

TEST(ClusterTest, CameraRelayedIngestAndPublishMatchTheOwningWorker) {
  // Two identical (empty) databases: one behind the fleet, one behind a
  // lone worker that receives the same lines directly.
  TempDir fleet_dir("mivid_cluster_ingest_fleet");
  TempDir solo_dir("mivid_cluster_ingest_solo");
  std::unique_ptr<VideoDb> fleet_db = OpenEmptyDb(fleet_dir.path());
  std::unique_ptr<VideoDb> solo_db = OpenEmptyDb(solo_dir.path());
  ASSERT_TRUE(fleet_db != nullptr && solo_db != nullptr);
  Fleet fleet(fleet_db.get());
  RetrievalServer solo(solo_db.get(), ServeOptions{});

  const StreamedClip clip = SimulateStream(500);
  const size_t half = clip.frames.size() / 2;
  const std::vector<std::string> script = {
      test::IngestLine("live0",
                       {clip.frames.begin(), clip.frames.begin() + half}, {},
                       /*cut=*/false, /*publish=*/false),
      test::IngestLine("live0",
                       {clip.frames.begin() + half, clip.frames.end()},
                       clip.incidents, /*cut=*/true, /*publish=*/false),
      R"({"cmd":"publish","camera":"live0"})",
      R"({"cmd":"open","session":"live","camera":"live0"})",
      R"({"cmd":"rank","session":"live","top":-1})",
  };
  for (const std::string& line : script) {
    SCOPED_TRACE(line.substr(0, 60));
    const std::string fleet_response = fleet.Call(line);
    EXPECT_EQ(fleet_response, solo.HandleLine(line));
    ASSERT_TRUE(IsOk(Parse(fleet_response))) << fleet_response;
  }
  // Only the camera's primary owner saw the stream.
  EXPECT_EQ(BusyWorkers(fleet).size(), 1u);
}

TEST(ClusterTest, IngestFailsOverToTheNextRingOwner) {
  TempDir fleet_dir("mivid_cluster_ingest_failover");
  TempDir solo_dir("mivid_cluster_ingest_failover_solo");
  std::unique_ptr<VideoDb> fleet_db = OpenEmptyDb(fleet_dir.path());
  std::unique_ptr<VideoDb> solo_db = OpenEmptyDb(solo_dir.path());
  ASSERT_TRUE(fleet_db != nullptr && solo_db != nullptr);
  Fleet fleet(fleet_db.get());

  const StreamedClip clip = SimulateStream(500);
  const size_t half = clip.frames.size() / 2;
  ASSERT_TRUE(IsOk(Parse(fleet.Call(test::IngestLine(
      "live1", {clip.frames.begin(), clip.frames.begin() + half}, {},
      /*cut=*/false, /*publish=*/false)))));
  const std::vector<int> owner = BusyWorkers(fleet);
  ASSERT_EQ(owner.size(), 1u);
  fleet.workers[owner[0]]->Stop();

  // The next batch lands on the next ring owner: a fresh ingestor that
  // never saw the first half (its frames died with the old owner). It
  // answers exactly as a lone worker given only this batch would.
  const std::string rest = test::IngestLine(
      "live1", {clip.frames.begin() + half, clip.frames.end()},
      clip.incidents, /*cut=*/true, /*publish=*/true);
  RetrievalServer solo(solo_db.get(), ServeOptions{});
  const std::string fleet_response = fleet.Call(rest);
  ASSERT_TRUE(IsOk(Parse(fleet_response))) << fleet_response;
  EXPECT_EQ(fleet_response, solo.HandleLine(rest));

  const JsonValue stats = Parse(fleet.Call(R"({"cmd":"stats"})"));
  EXPECT_EQ(stats.Find("workers_alive")->number, 2);
  const std::vector<int> busy = BusyWorkers(fleet);
  EXPECT_EQ(busy.size(), 2u);

  // The new home serves the published clip.
  for (const std::string line :
       {R"({"cmd":"open","session":"fo3","camera":"live1"})",
        R"({"cmd":"rank","session":"fo3","top":-1})"}) {
    SCOPED_TRACE(line);
    const std::string response = fleet.Call(line);
    EXPECT_EQ(response, solo.HandleLine(line));
    EXPECT_TRUE(IsOk(Parse(response))) << response;
  }
}

TEST(ClusterTest, SessionCommandsRacingAFailedOpenGetCleanErrors) {
  Fleet fleet;
  for (auto& worker : fleet.workers) worker->Stop();
  // The first open walks every dead worker off the placement ring.
  const JsonValue first = Parse(
      fleet.Call(R"({"cmd":"open","session":"race0","camera":"cam0"})"));
  ASSERT_FALSE(IsOk(first));
  ASSERT_EQ(CodeOf(first), "FAILED_PRECONDITION");

  // Each later open of race1 registers the session, fails to place it,
  // and drops it again; session commands racing it must see either no
  // session or a clean error, never a half-built one.
  std::atomic<bool> done{false};
  std::atomic<int> bad_replies{0};
  std::atomic<int> replies{0};
  const std::vector<std::string> commands = {
      R"({"cmd":"rank","session":"race1"})",
      R"({"cmd":"feedback","session":"race1","labels":[{"bag":0,"label":"relevant"}]})",
      R"({"cmd":"save","session":"race1"})",
      R"({"cmd":"refresh","session":"race1"})",
      R"({"cmd":"close","session":"race1"})",
  };
  std::vector<std::thread> racers;
  for (int t = 0; t < 2; ++t) {
    racers.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); !done.load(); ++i) {
        Result<JsonValue> doc =
            ParseJson(fleet.Call(commands[i % commands.size()]));
        const std::string code =
            doc.ok() ? CodeOf(doc.value()) : std::string();
        if (!doc.ok() || IsOk(doc.value()) ||
            (code != "NOT_FOUND" && code != "FAILED_PRECONDITION")) {
          bad_replies.fetch_add(1);
        }
        replies.fetch_add(1);
      }
    });
  }
  // The window between an open registering the session and dropping it
  // is microseconds wide, so open many times, and keep going until the
  // racers (which may start late) have made plenty of calls.
  int opens = 0;
  int failed_opens = 0;
  while (opens < 200000 && (opens < 50000 || replies.load() < 4000)) {
    const JsonValue open = Parse(
        fleet.Call(R"({"cmd":"open","session":"race1","camera":"cam0"})"));
    if (!IsOk(open) && CodeOf(open) == "FAILED_PRECONDITION") ++failed_opens;
    ++opens;
  }
  done.store(true);
  for (std::thread& racer : racers) racer.join();
  EXPECT_EQ(failed_opens, opens);
  EXPECT_GE(replies.load(), 4000);
  EXPECT_EQ(bad_replies.load(), 0);
  EXPECT_EQ(fleet.coord->session_count(), 0u);
}

TEST(ClusterTest, OpenRacingAFailedOpenOfTheSameIdStaysRoutable) {
  Fleet fleet;
  // Every open of "orph" with this layout registers the session, places
  // 200 cameras, then drops it again: the last camera does not yield a
  // valid sub-session id. Nothing reaches a worker.
  std::string bad_open = R"({"cmd":"open","session":"orph","cameras":[)";
  for (int i = 0; i < 200; ++i) bad_open += "\"c" + std::to_string(i) + "\",";
  bad_open += "\"" + std::string(64, 'x') + "\"]}";
  std::atomic<bool> done{false};
  std::thread failing_opener([&] {
    while (!done.load()) fleet.Call(bad_open);
  });

  // A good open that waited behind a failing one must still open the
  // session, and the coordinator must go on routing it.
  int failed = 0;
  for (int i = 0; i < 300; ++i) {
    const JsonValue open = Parse(fleet.Call(
        R"({"cmd":"open","session":"orph","cameras":["cam0"]})"));
    const JsonValue rank =
        Parse(fleet.Call(R"({"cmd":"rank","session":"orph","top":1})"));
    if (!IsOk(open) || !IsOk(rank)) ++failed;
    fleet.Call(R"({"cmd":"close","session":"orph","discard":true})");
    // While "orph" is open the failing opener only re-opens it; give it
    // time to register and drop its own.
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
  done.store(true);
  failing_opener.join();
  EXPECT_EQ(failed, 0);
}

}  // namespace
}  // namespace mivid
