// Robustness tests for the fleet: the deterministic fault-injection
// harness (common/fault.h), deadline budgets on every hop, transient
// reconnects, worker-side request shedding, and the coordinator's
// behavior under hung workers, dead replica sets, and corrupt replies.
// Every failure path here is driven on demand through named fault
// points or plain Stop() — no sleeps-and-hope.

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/coordinator.h"
#include "cluster/placement.h"
#include "common/deadline.h"
#include "common/fault.h"
#include "db/video_db.h"
#include "obs/json.h"
#include "serve/client.h"
#include "serve/line_transport.h"
#include "serve/protocol.h"
#include "serve/server.h"
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

/// Disarms whatever the test armed, even on assertion failure.
struct FaultGuard {
  explicit FaultGuard(const std::string& spec) { SetFaultSpecForTest(spec); }
  ~FaultGuard() { SetFaultSpecForTest(""); }
};

JsonValue Parse(const std::string& response) {
  Result<JsonValue> doc = ParseJson(response);
  EXPECT_TRUE(doc.ok()) << response;
  return doc.ok() ? std::move(doc).value() : JsonValue{};
}

bool IsOk(const JsonValue& doc) {
  const JsonValue* ok = doc.Find("ok");
  return ok != nullptr && ok->type == JsonValue::Type::kBool &&
         ok->bool_value;
}

int64_t ElapsedMs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

// ---------------------------------------------------------------------------
// Fault harness

TEST(FaultTest, DisarmedByDefaultAndCheapToCheck) {
  SetFaultSpecForTest("");
  EXPECT_FALSE(FaultsArmed());
  EXPECT_EQ(ArmedFaultSpec(), "");
  EXPECT_FALSE(MIVID_FAULT("some.point"));
}

TEST(FaultTest, ProbabilityOneAlwaysFiresZeroNeverDoes) {
  FaultGuard guard("always.on=1;never.on=0");
  EXPECT_TRUE(FaultsArmed());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(FaultInjected("always.on"));
    EXPECT_FALSE(FaultInjected("never.on"));
  }
  EXPECT_FALSE(FaultInjected("unknown.point"));
}

TEST(FaultTest, ParamMsIsDeliveredOnHit) {
  FaultGuard guard("worker.rank.hang=1:250");
  int64_t ms = -1;
  EXPECT_TRUE(MIVID_FAULT_MS("worker.rank.hang", &ms));
  EXPECT_EQ(ms, 250);
  // A miss leaves the out-param untouched.
  SetFaultSpecForTest("worker.rank.hang=0:250");
  ms = -1;
  EXPECT_FALSE(MIVID_FAULT_MS("worker.rank.hang", &ms));
  EXPECT_EQ(ms, -1);
}

TEST(FaultTest, SeededStreamIsDeterministicAcrossRearm) {
  const std::string spec = "flaky.point=0.5@1234";
  std::vector<bool> first;
  {
    FaultGuard guard(spec);
    for (int i = 0; i < 200; ++i) first.push_back(FaultInjected("flaky.point"));
  }
  std::vector<bool> second;
  {
    FaultGuard guard(spec);
    for (int i = 0; i < 200; ++i) {
      second.push_back(FaultInjected("flaky.point"));
    }
  }
  EXPECT_EQ(first, second);
  const int fired = static_cast<int>(
      std::count(first.begin(), first.end(), true));
  EXPECT_GT(fired, 40);   // p=0.5 over 200 draws: loose two-sided bounds
  EXPECT_LT(fired, 160);
}

TEST(FaultTest, DifferentSeedsGiveDifferentStreams) {
  std::vector<bool> a, b;
  {
    FaultGuard guard("flaky.point=0.5@1");
    for (int i = 0; i < 200; ++i) a.push_back(FaultInjected("flaky.point"));
  }
  {
    FaultGuard guard("flaky.point=0.5@2");
    for (int i = 0; i < 200; ++i) b.push_back(FaultInjected("flaky.point"));
  }
  EXPECT_NE(a, b);
}

TEST(FaultTest, MalformedEntriesAreIgnoredNotFatal) {
  FaultGuard guard("garbage;=0.5;good.point=1;also=bad=entry");
  EXPECT_TRUE(FaultsArmed());
  EXPECT_TRUE(FaultInjected("good.point"));
  EXPECT_FALSE(FaultInjected("garbage"));
}

// ---------------------------------------------------------------------------
// Deadline type

TEST(DeadlineTest, DefaultIsInfinite) {
  const Deadline d;
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining_ms(), Deadline::kInfiniteMs);
}

TEST(DeadlineTest, AfterMsExpires) {
  EXPECT_TRUE(Deadline::AfterMs(0).expired());
  EXPECT_TRUE(Deadline::AfterMs(-5).expired());
  const Deadline d = Deadline::AfterMs(10000);
  EXPECT_FALSE(d.infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_ms(), 9000);
  EXPECT_LE(d.remaining_ms(), 10000);
  EXPECT_EQ(Deadline::AfterMs(-5).remaining_ms(), 0);
}

TEST(DeadlineTest, ClampedToMsPicksTheEarlier) {
  const Deadline wide = Deadline::AfterMs(10000);
  const Deadline clamped = wide.ClampedToMs(50);
  EXPECT_LE(clamped.remaining_ms(), 50);
  // Clamping to something later keeps the original budget.
  EXPECT_GT(wide.ClampedToMs(60000).remaining_ms(), 9000);
  // ms <= 0 means "no budget configured": identity.
  EXPECT_TRUE(Deadline().ClampedToMs(0).infinite());
  EXPECT_GT(Deadline().ClampedToMs(-1).remaining_ms(), 1000000);
  // Clamping an infinite deadline yields a finite one.
  EXPECT_FALSE(Deadline().ClampedToMs(100).infinite());
}

// ---------------------------------------------------------------------------
// Wire deadline stamping

TEST(ProtocolDeadlineTest, StampAndParseRoundTrip) {
  const std::string stamped =
      StampDeadlineMs(R"({"cmd":"ping"})", 250);
  Result<ServeRequest> parsed = ParseServeRequest(stamped);
  ASSERT_TRUE(parsed.ok()) << stamped;
  EXPECT_EQ(parsed.value().deadline_ms, 250);
}

TEST(ProtocolDeadlineTest, NegativeDeadlineIsRejected) {
  Result<ServeRequest> parsed =
      ParseServeRequest(R"({"cmd":"ping","deadline_ms":-7})");
  EXPECT_FALSE(parsed.ok());
}

// ---------------------------------------------------------------------------
// Transient reconnects

TEST(TransientErrnoTest, ClassifiesRestartShapedFailures) {
  for (int err : {ECONNREFUSED, ECONNRESET, ECONNABORTED, ETIMEDOUT,
                  EAGAIN, EINTR, ENOENT}) {
    EXPECT_TRUE(TransientConnectErrno(err)) << err;
  }
  for (int err : {EACCES, EPERM, EAFNOSUPPORT, EINVAL, 0}) {
    EXPECT_FALSE(TransientConnectErrno(err)) << err;
  }
}

/// Shared corpus for the end-to-end tests: a handful of tunnel cameras.
struct FaultTestEnv {
  TempDir dir{"mivid_cluster_fault_test"};
  std::unique_ptr<VideoDb> db;
  std::vector<std::string> cameras;
};

/// Stores one 700-frame tunnel clip (ground-truth tracks) as `camera`.
void IngestTunnelCamera(VideoDb* db, const std::string& camera) {
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
  if (!db->IngestClip(info, gt.tracks, gt.incidents).ok()) std::abort();
}

FaultTestEnv& Env() {
  static FaultTestEnv* env = [] {
    auto* e = new FaultTestEnv();
    VideoDbOptions options;
    options.create_if_missing = true;
    auto opened = VideoDb::Open(e->dir.path(), options);
    if (!opened.ok()) std::abort();
    e->db = std::move(opened).value();
    for (int i = 0; i < 4; ++i) {
      const std::string camera = "cam" + std::to_string(i);
      IngestTunnelCamera(e->db.get(), camera);
      e->cameras.push_back(camera);
    }
    return e;
  }();
  return *env;
}

TEST(RetryTest, CallWithRetryRidesOutAServerRestart) {
  TempDir dir("mivid_retry_socket");
  fs::create_directories(dir.path());
  const std::string sock = dir.path() + "/serve.sock";

  ServeOptions options;
  options.daemon.socket_path = sock;
  auto server =
      std::make_unique<RetrievalServer>(Env().db.get(), options);
  ASSERT_TRUE(server->Start().ok());

  Result<ServeClient> client = ServeClient::Connect(sock);
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client.value().Call(R"({"cmd":"ping"})").ok());

  // Restart the daemon on the same path — the shape of a supervised
  // worker bouncing. The client's next call hits a dead socket, then a
  // transient reconnect window, and must come back on its own.
  server->Stop();
  server = std::make_unique<RetrievalServer>(Env().db.get(), options);
  ASSERT_TRUE(server->Start().ok());

  RetryPolicy policy;
  policy.max_retries = 5;
  policy.base_delay_ms = 10;
  policy.jitter_seed = 1;
  Result<std::string> response =
      client.value().CallWithRetry(R"({"cmd":"ping"})", policy);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(IsOk(Parse(response.value())));
  server->Stop();
}

TEST(RetryTest, ExhaustedTransientRetriesSurfaceTheError) {
  TempDir dir("mivid_retry_gone");
  fs::create_directories(dir.path());
  const std::string sock = dir.path() + "/serve.sock";
  ServeOptions options;
  options.daemon.socket_path = sock;
  auto server =
      std::make_unique<RetrievalServer>(Env().db.get(), options);
  ASSERT_TRUE(server->Start().ok());
  Result<ServeClient> client = ServeClient::Connect(sock);
  ASSERT_TRUE(client.ok());
  server->Stop();
  server.reset();  // nobody comes back this time

  RetryPolicy policy;
  policy.max_retries = 2;
  policy.base_delay_ms = 5;
  policy.jitter_seed = 1;
  Result<std::string> response =
      client.value().CallWithRetry(R"({"cmd":"ping"})", policy);
  EXPECT_FALSE(response.ok());
}

// ---------------------------------------------------------------------------
// Client-side deadline vs a hung worker

TEST(ClientDeadlineTest, HungWorkerCallReturnsWithinBudget) {
  ServeOptions options;
  options.daemon.tcp_port = 0;
  options.worker_id = "whang";
  RetrievalServer server(Env().db.get(), options);
  ASSERT_TRUE(server.Start().ok());
  Result<ServeClient> client = ServeClient::Connect(
      "127.0.0.1:" + std::to_string(server.tcp_port()));
  ASSERT_TRUE(client.ok());

  // Scoped to this worker id so parallel tests sharing the registry are
  // unaffected; the 1200ms nap bounds server teardown.
  FaultGuard guard("whang/worker.ping.hang=1:1200");
  const auto started = std::chrono::steady_clock::now();
  Result<std::string> response =
      client.value().Call(R"({"cmd":"ping"})", Deadline::AfterMs(150));
  const int64_t elapsed = ElapsedMs(started);
  EXPECT_TRUE(response.status().IsDeadlineExceeded())
      << response.status().ToString();
  EXPECT_GE(elapsed, 140);
  EXPECT_LT(elapsed, 1100);  // came back well before the hang ended
  // The stream is desynced; the client closed it rather than risk
  // pairing the late response with the next request.
  EXPECT_FALSE(client.value().connected());
  server.Stop();
}

// ---------------------------------------------------------------------------
// Worker-side shedding of queue-expired requests

TEST(ShedTest, RequestExpiredBeforeDispatchIsShedNotServed) {
  ServeOptions options;
  // Hold every admitted request long enough for a 1ms budget to lapse
  // before dispatch — deterministic queue delay without racing threads.
  options.admission_hook = [](const ServeRequest&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  RetrievalServer server(Env().db.get(), options);
  const std::string shed =
      server.HandleLine(R"({"cmd":"ping","deadline_ms":1})");
  EXPECT_EQ(ResponseStatusCode(shed), "DEADLINE_EXCEEDED") << shed;
  // The same wait with budget to spare is served normally.
  const std::string served =
      server.HandleLine(R"({"cmd":"ping","deadline_ms":5000})");
  EXPECT_TRUE(IsOk(Parse(served))) << served;
  // And no deadline at all never sheds.
  EXPECT_TRUE(IsOk(Parse(server.HandleLine(R"({"cmd":"ping"})"))));
}

// ---------------------------------------------------------------------------
// Transport faults: byte-at-a-time writes and reads still frame cleanly

TEST(TransportFaultTest, ShortWritesAndReadsDeliverWholeLines) {
  ServeOptions options;
  options.daemon.tcp_port = 0;
  RetrievalServer server(Env().db.get(), options);
  ASSERT_TRUE(server.Start().ok());
  Result<ServeClient> client = ServeClient::Connect(
      "127.0.0.1:" + std::to_string(server.tcp_port()));
  ASSERT_TRUE(client.ok());

  FaultGuard guard("transport.write.short=1;transport.read.short=1");
  for (int i = 0; i < 3; ++i) {
    Result<std::string> response = client.value().Call(R"({"cmd":"ping"})");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(IsOk(Parse(response.value()))) << response.value();
  }
  // A longer response (stats) survives the 1-byte regime too.
  Result<std::string> stats = client.value().Call(R"({"cmd":"stats"})");
  ASSERT_TRUE(stats.ok());
  const JsonValue doc = Parse(stats.value());
  EXPECT_TRUE(IsOk(doc)) << stats.value();
  server.Stop();
}

// ---------------------------------------------------------------------------
// Coordinator under faults

/// A small fleet over Env()'s database with configurable robustness
/// options. Workers get ids "w0".."wN-1".
struct FaultFleet {
  std::vector<std::unique_ptr<RetrievalServer>> workers;
  std::vector<std::string> endpoints;
  std::vector<std::string> worker_ids;
  std::unique_ptr<Coordinator> coord;

  FaultFleet(int worker_count, int replication, int rpc_deadline_ms,
             size_t max_sessions = 64, int heartbeat_ms = 0) {
    for (int i = 0; i < worker_count; ++i) {
      ServeOptions options;
      options.daemon.tcp_port = 0;
      options.worker_id = "w" + std::to_string(i);
      options.max_sessions = max_sessions;
      auto server =
          std::make_unique<RetrievalServer>(Env().db.get(), options);
      if (!server->Start().ok()) std::abort();
      endpoints.push_back("127.0.0.1:" +
                          std::to_string(server->tcp_port()));
      worker_ids.push_back(options.worker_id);
      workers.push_back(std::move(server));
    }
    CoordinatorOptions options;
    options.daemon.tcp_port = 0;
    options.workers = endpoints;
    options.replication = replication;
    options.rpc_deadline_ms = rpc_deadline_ms;
    options.heartbeat_ms = heartbeat_ms;
    coord = std::make_unique<Coordinator>(options);
    if (!coord->Start().ok()) std::abort();
  }

  /// Polls {"cmd":"stats"} until the coordinator reports `n` live
  /// workers (heartbeat death detection / re-admission).
  bool WaitWorkersAlive(int n, int timeout_ms = 8000) {
    const auto give_up = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < give_up) {
      const JsonValue doc = Parse(Call(R"({"cmd":"stats"})"));
      const JsonValue* alive = doc.Find("workers_alive");
      if (alive != nullptr && alive->is_number() &&
          static_cast<int>(alive->number) == n) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return false;
  }

  ~FaultFleet() {
    SetFaultSpecForTest("");  // never tear down with hangs still armed
    coord->Stop();
    for (auto& worker : workers) worker->Stop();
  }

  std::string Call(const std::string& line) {
    return coord->HandleLine(line);
  }

  /// The fleet's placement is pure FNV over endpoint strings, so a local
  /// ring clone predicts exactly which workers own `camera`.
  std::vector<size_t> OwnerIndices(const std::string& camera,
                                   size_t replicas) const {
    PlacementRing ring(64);
    for (const std::string& endpoint : endpoints) ring.Add(endpoint);
    std::vector<size_t> out;
    for (const std::string& owner : ring.Owners(camera, replicas)) {
      for (size_t i = 0; i < endpoints.size(); ++i) {
        if (endpoints[i] == owner) out.push_back(i);
      }
    }
    return out;
  }
};

TEST(CoordinatorFaultTest, HungRankFailsOverWithinDeadlineBudget) {
  FaultFleet fleet(3, /*replication=*/1, /*rpc_deadline_ms=*/300);
  ASSERT_TRUE(IsOk(Parse(fleet.Call(
      R"({"cmd":"open","session":"hang1","camera":"cam0"})"))));
  const std::string baseline =
      fleet.Call(R"({"cmd":"rank","session":"hang1","top":5})");
  ASSERT_TRUE(IsOk(Parse(baseline))) << baseline;

  // Hang rank on cam0's home worker only. The coordinator must cut the
  // call at its deadline, treat the worker as dead, re-open the session
  // on a survivor (journal replay), and return the identical ranking —
  // all in far less time than the hang.
  const std::vector<size_t> home = fleet.OwnerIndices("cam0", 1);
  ASSERT_EQ(home.size(), 1u);
  FaultGuard guard(fleet.worker_ids[home[0]] +
                   "/worker.rank.hang=1:2000");
  const auto started = std::chrono::steady_clock::now();
  const std::string failed_over =
      fleet.Call(R"({"cmd":"rank","session":"hang1","top":5})");
  const int64_t elapsed = ElapsedMs(started);
  EXPECT_EQ(failed_over, baseline);
  EXPECT_LT(elapsed, 1900) << "rank blocked for the whole hang";
  // The hung attempt must burn its budget slice (half of 300ms, since
  // one share is held in reserve for the failover) before giving up.
  EXPECT_GE(elapsed, 140) << "deadline fired implausibly early";
}

TEST(CoordinatorFaultTest, ReplicatedSessionSurvivesPrimaryStopInstantly) {
  FaultFleet fleet(3, /*replication=*/2, /*rpc_deadline_ms=*/5000);
  ASSERT_TRUE(IsOk(Parse(fleet.Call(
      R"({"cmd":"open","session":"rep1","camera":"cam1"})"))));
  ASSERT_TRUE(IsOk(Parse(fleet.Call(
      R"({"cmd":"feedback","session":"rep1","labels":[{"bag":0,"label":"relevant"},{"bag":1,"label":"irrelevant"}]})"))));
  const std::string baseline =
      fleet.Call(R"({"cmd":"rank","session":"rep1","top":-1})");
  ASSERT_TRUE(IsOk(Parse(baseline))) << baseline;

  // Kill the primary. The mirrored replica already holds the session
  // (open + feedback were both mirrored), so the retried rank needs no
  // re-open and must be byte-identical.
  const std::vector<size_t> owners = fleet.OwnerIndices("cam1", 2);
  ASSERT_EQ(owners.size(), 2u);
  fleet.workers[owners[0]]->Stop();
  const std::string after =
      fleet.Call(R"({"cmd":"rank","session":"rep1","top":-1})");
  EXPECT_EQ(after, baseline);
}

TEST(CoordinatorFaultTest, RestartedWorkerResumesSessionInPlace) {
  // The supervised-respawn shape: the session's home worker is replaced
  // by a fresh process on the SAME endpoint. The heartbeat re-admits
  // it, but its in-memory sessions are gone — the coordinator must
  // re-open in place (journal replay) instead of relaying NOT_FOUND.
  FaultFleet fleet(2, /*replication=*/1, /*rpc_deadline_ms=*/5000,
                   /*max_sessions=*/64, /*heartbeat_ms=*/100);
  ASSERT_TRUE(IsOk(Parse(fleet.Call(
      R"({"cmd":"open","session":"amn1","camera":"cam3"})"))));
  ASSERT_TRUE(IsOk(Parse(fleet.Call(
      R"({"cmd":"feedback","session":"amn1","labels":[{"bag":0,"label":"relevant"},{"bag":1,"label":"irrelevant"}]})"))));
  const std::string baseline =
      fleet.Call(R"({"cmd":"rank","session":"amn1","top":-1})");
  ASSERT_TRUE(IsOk(Parse(baseline))) << baseline;

  const std::vector<size_t> home = fleet.OwnerIndices("cam3", 1);
  ASSERT_EQ(home.size(), 1u);
  const std::string& endpoint = fleet.endpoints[home[0]];
  const int port = std::stoi(endpoint.substr(endpoint.rfind(':') + 1));

  // Replace the home worker with an amnesiac twin on the same port,
  // letting the heartbeat observe the death first so the rank below
  // deterministically hits the re-admitted fresh process.
  fleet.workers[home[0]]->Stop();
  ASSERT_TRUE(fleet.WaitWorkersAlive(1));
  ServeOptions options;
  options.daemon.tcp_port = port;
  options.worker_id = fleet.worker_ids[home[0]];
  auto twin = std::make_unique<RetrievalServer>(Env().db.get(), options);
  ASSERT_TRUE(twin->Start().ok());
  fleet.workers[home[0]] = std::move(twin);
  ASSERT_TRUE(fleet.WaitWorkersAlive(2));

  const std::string resumed =
      fleet.Call(R"({"cmd":"rank","session":"amn1","top":-1})");
  EXPECT_EQ(resumed, baseline);
}

TEST(CoordinatorFaultTest, MultiRankDegradesWhenACameraLosesAllReplicas) {
  // Two workers, no replication, and the survivor pinned at its session
  // cap so failover re-opens onto it are rejected — the deterministic
  // way to strand the dead worker's cameras.
  FaultFleet fleet(2, /*replication=*/1, /*rpc_deadline_ms=*/2000,
                   /*max_sessions=*/4);
  // Placement hashes the workers' ephemeral endpoints, so any fixed set
  // of camera names may land on one worker. Two of the shared cameras
  // plus, for each worker, the first "deg<k>" name the ring gives it:
  // both workers own a camera on every run, and neither owns more than
  // three (the cap is four sessions).
  std::vector<std::string> cameras = {Env().cameras[0], Env().cameras[1]};
  for (size_t worker = 0; worker < 2; ++worker) {
    for (int k = 0;; ++k) {
      const std::string name = "deg" + std::to_string(k);
      if (fleet.OwnerIndices(name, 1) != std::vector<size_t>{worker}) continue;
      if (Env().db->ClipsForCamera(name).empty()) {
        IngestTunnelCamera(Env().db.get(), name);
      }
      cameras.push_back(name);
      break;
    }
  }
  std::string cameras_json = "[";
  for (size_t i = 0; i < cameras.size(); ++i) {
    if (i > 0) cameras_json += ',';
    cameras_json += '"' + cameras[i] + '"';
  }
  cameras_json += ']';
  const std::string open_response = fleet.Call(
      R"({"cmd":"open","session":"deg1","cameras":)" + cameras_json + "}");
  ASSERT_TRUE(IsOk(Parse(open_response))) << open_response;

  // Which cameras live only on worker 0?
  std::vector<std::string> on_w0, on_w1;
  for (const std::string& camera : cameras) {
    const std::vector<size_t> owner = fleet.OwnerIndices(camera, 1);
    ASSERT_EQ(owner.size(), 1u);
    (owner[0] == 0 ? on_w0 : on_w1).push_back(camera);
  }
  ASSERT_FALSE(on_w0.empty());
  ASSERT_FALSE(on_w1.empty());

  // Fill the survivor (w1) to its cap so it cannot adopt w0's cameras.
  for (size_t i = on_w1.size(); i < 4; ++i) {
    ASSERT_TRUE(IsOk(Parse(fleet.Call(
        R"({"cmd":"open","session":"fill)" + std::to_string(i) +
        R"(","camera":")" + on_w1[0] + "\"}"))));
  }

  fleet.workers[0]->Stop();
  const std::string degraded =
      fleet.Call(R"({"cmd":"rank","session":"deg1","top":-1})");
  const JsonValue doc = Parse(degraded);
  ASSERT_TRUE(IsOk(doc)) << degraded;
  const JsonValue* info = doc.Find("degraded");
  ASSERT_NE(info, nullptr) << degraded;
  const JsonValue* missing = info->Find("missing_cameras");
  ASSERT_NE(missing, nullptr);
  ASSERT_TRUE(missing->is_array());
  std::set<std::string> reported;
  for (const JsonValue& camera : missing->array) {
    ASSERT_TRUE(camera.is_string());
    reported.insert(camera.string);
  }
  EXPECT_EQ(reported,
            std::set<std::string>(on_w0.begin(), on_w0.end()))
      << degraded;
  // The merged ranking covers exactly the surviving cameras.
  const JsonValue* ranking = doc.Find("ranking");
  ASSERT_NE(ranking, nullptr);
  ASSERT_TRUE(ranking->is_array());
  EXPECT_FALSE(ranking->array.empty());
  for (const JsonValue& item : ranking->array) {
    const JsonValue* camera = item.Find("camera");
    ASSERT_NE(camera, nullptr);
    EXPECT_EQ(reported.count(camera->string), 0u) << camera->string;
  }
}

TEST(CoordinatorFaultTest, AllCamerasDownFailsCleanly) {
  FaultFleet fleet(2, /*replication=*/1, /*rpc_deadline_ms=*/2000);
  ASSERT_TRUE(IsOk(Parse(fleet.Call(
      R"({"cmd":"open","session":"dead1","cameras":["cam0","cam1"]})"))));
  for (auto& worker : fleet.workers) worker->Stop();
  const std::string response =
      fleet.Call(R"({"cmd":"rank","session":"dead1","top":5})");
  const JsonValue doc = Parse(response);
  EXPECT_FALSE(IsOk(doc)) << response;
  EXPECT_EQ(ResponseStatusCode(response), "FAILED_PRECONDITION")
      << response;
}

TEST(CoordinatorFaultTest, TruncatedRepliesEndInCleanDataLoss) {
  FaultFleet fleet(2, /*replication=*/1, /*rpc_deadline_ms=*/2000);
  ASSERT_TRUE(IsOk(Parse(fleet.Call(
      R"({"cmd":"open","session":"trunc1","camera":"cam2"})"))));

  // Every worker now halves every response — the shape of processes
  // dying mid-write. The coordinator must not crash, hang, or relay
  // garbage: it walks the fleet, finds no worker able to answer
  // coherently, and reports DATA_LOSS.
  FaultGuard guard("worker.reply.truncate=1");
  const std::string response =
      fleet.Call(R"({"cmd":"rank","session":"trunc1","top":5})");
  const JsonValue doc = Parse(response);
  EXPECT_FALSE(IsOk(doc)) << response;
  EXPECT_EQ(ResponseStatusCode(response), "DATA_LOSS") << response;

  // Disarmed, the fleet recovers: the workers were only marked dead, and
  // a fresh session placement finds them again via reconnect... but
  // lazily — a brand-new coordinator round-trip proves the processes
  // themselves are healthy.
  SetFaultSpecForTest("");
  Result<ServeClient> direct = ServeClient::Connect(fleet.endpoints[0]);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(direct.value().Call(R"({"cmd":"ping"})").ok());
}

TEST(CoordinatorFaultTest, DeadlineMissesAreDistinguishedFromIoDeath) {
  // Direct registry-level check: a deadline miss keeps its status code
  // through the registry wrapper so callers can hedge on it.
  ServeOptions options;
  options.daemon.tcp_port = 0;
  options.worker_id = "wslow";
  RetrievalServer server(Env().db.get(), options);
  ASSERT_TRUE(server.Start().ok());
  WorkerRegistry registry(
      {"127.0.0.1:" + std::to_string(server.tcp_port())});
  ASSERT_TRUE(registry.ConnectAll().ok());
  WorkerConn& worker = *registry.workers()[0];

  FaultGuard guard("wslow/worker.ping.hang=1:1200");
  Result<std::string> response =
      registry.Call(worker, R"({"cmd":"ping"})", Deadline::AfterMs(100));
  EXPECT_TRUE(response.status().IsDeadlineExceeded())
      << response.status().ToString();
  EXPECT_FALSE(worker.alive.load());
  server.Stop();
}

/// A stand-in worker that answers every line with a canned reply per
/// command: well-formed JSON whose numbers the real protocol never sends.
class ScriptedWorker {
 public:
  explicit ScriptedWorker(std::string rank_reply)
      : rank_reply_(std::move(rank_reply)),
        transport_(
            [] {
              LineTransportOptions options;
              options.tcp_port = 0;
              return options;
            }(),
            [this](const std::string& line) { return Reply(line); }) {
    if (!transport_.Start().ok()) std::abort();
  }
  std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(transport_.tcp_port());
  }

 private:
  std::string Reply(const std::string& line) const {
    if (line.find("\"cmd\":\"rank\"") != std::string::npos) return rank_reply_;
    if (line.find("\"cmd\":\"open\"") != std::string::npos) {
      return R"({"ok":true,"cmd":"open","bags":1e30,"resumed":"yes"})";
    }
    return R"({"ok":true})";
  }

  const std::string rank_reply_;
  LineTransport transport_;
};

// Finding: MultiRank read each ranking item's bag with a bare cast and
// skipped none, so {"bag":"x"} ranked as bag 0 and {"bag":1e10} was an
// undefined conversion. Such a reply now fails the rank cleanly.
TEST(CoordinatorFaultTest, UnreadableRankItemsFailTheRankNeverReadAsBagZero) {
  for (const char* item :
       {R"({"bag":"x","score":0.5})", R"({"bag":1e10,"score":0.5})",
        R"({"bag":2,"score":"high"})", R"({"bag":2})",
        R"({"bag":2,"score":0.5})"}) {
    SCOPED_TRACE(item);
    const bool readable = std::string(item) == R"({"bag":2,"score":0.5})";
    ScriptedWorker worker(
        std::string(R"({"ok":true,"cmd":"rank","total":1,"ranking":[)") +
        item + "]}");
    CoordinatorOptions options;
    options.daemon.tcp_port = 0;
    options.workers = {worker.endpoint()};
    Coordinator coord(options);
    ASSERT_TRUE(coord.Start().ok());

    // Unreadable counts in the open replies read as 0, a non-bool
    // "resumed" as false.
    const std::string opened = coord.HandleLine(
        R"({"cmd":"open","session":"m","cameras":["camA","camB"]})");
    const JsonValue open_doc = Parse(opened);
    ASSERT_TRUE(IsOk(open_doc)) << opened;
    EXPECT_EQ(open_doc.Find("bags")->number, 0) << opened;
    EXPECT_FALSE(open_doc.Find("resumed")->bool_value) << opened;

    const std::string ranked =
        coord.HandleLine(R"({"cmd":"rank","session":"m","top":5})");
    if (readable) {
      EXPECT_EQ(ranked,
                R"({"ok":true,"cmd":"rank","session":"m","cameras":2,)"
                R"("total":2,"ranking":[{"camera":"camA","bag":2,"score":0.5},)"
                R"({"camera":"camB","bag":2,"score":0.5}]})");
    } else {
      EXPECT_EQ(ResponseStatusCode(ranked), "DATA_LOSS") << ranked;
      EXPECT_EQ(ranked.find("\"bag\":0"), std::string::npos) << ranked;
    }
    coord.Stop();
  }
}

}  // namespace
}  // namespace mivid
