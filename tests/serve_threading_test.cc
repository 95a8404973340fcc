// Concurrency tests for the serve layer, built into mivid_threading_tests
// so CI runs them under ThreadSanitizer: single-flight corpus loading,
// concurrent clients on distinct and shared sessions, backpressure under
// real contention, and connection threads joined while others run.

#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "db/video_db.h"
#include "obs/json.h"
#include "serve/client.h"
#include "serve/server.h"
#include "trafficsim/scenarios.h"

namespace mivid {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  // Per-process path: ctest runs each test in its own process, in
  // parallel, and a shared path let one test delete another's database.
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

struct ThreadingEnv {
  TempDir dir{"mivid_serve_threading_test"};
  std::unique_ptr<VideoDb> db;
};

ThreadingEnv& Env() {
  static ThreadingEnv* env = [] {
    auto* e = new ThreadingEnv();
    VideoDbOptions options;
    options.create_if_missing = true;
    auto opened = VideoDb::Open(e->dir.path(), options);
    if (!opened.ok()) std::abort();
    e->db = std::move(opened).value();
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
    info.camera_id = "cam-mt";
    info.total_frames = scenario.total_frames;
    if (!e->db->IngestClip(info, gt.tracks, gt.incidents).ok()) std::abort();
    return e;
  }();
  return *env;
}

bool ResponseOk(const std::string& response) {
  Result<JsonValue> doc = ParseJson(response);
  if (!doc.ok()) return false;
  const JsonValue* ok = doc->Find("ok");
  return ok != nullptr && ok->type == JsonValue::Type::kBool && ok->bool_value;
}

TEST(ServeThreadingTest, ConcurrentOpensShareOneCorpusLoad) {
  ServeOptions options;
  RetrievalServer server(Env().db.get(), options);

  constexpr int kClients = 8;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &ok_count, c] {
      const std::string id = "mt_open_" + std::to_string(c);
      const std::string response = server.HandleLine(
          R"({"cmd":"open","session":")" + id + R"(","camera":"cam-mt"})");
      if (ResponseOk(response)) ok_count.fetch_add(1);
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok_count.load(), kClients);

  // Single-flight: eight concurrent opens of one camera, one extraction.
  const CorpusManager::Stats stats = server.corpora().stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kClients - 1));
  EXPECT_EQ(server.sessions().open_count(), static_cast<size_t>(kClients));
}

TEST(ServeThreadingTest, DistinctSessionsProgressInParallel) {
  ServeOptions options;
  RetrievalServer server(Env().db.get(), options);

  constexpr int kClients = 4;
  constexpr int kRounds = 3;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &failures, c] {
      const std::string id = "mt_sess_" + std::to_string(c);
      if (!ResponseOk(server.HandleLine(
              R"({"cmd":"open","session":")" + id + R"(","camera":"cam-mt"})"))) {
        failures.fetch_add(1);
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        if (!ResponseOk(server.HandleLine(
                R"({"cmd":"rank","session":")" + id + "\"}"))) {
          failures.fetch_add(1);
        }
        // Each client labels a different bag pair, so sessions diverge —
        // which is the point: private labels over a shared corpus.
        const std::string labels =
            R"([{"bag":)" + std::to_string(c) + R"(,"label":"relevant"},)" +
            R"({"bag":)" + std::to_string(c + kClients) +
            R"(,"label":"irrelevant"}])";
        if (!ResponseOk(server.HandleLine(
                R"({"cmd":"feedback","session":")" + id + R"(","labels":)" +
                labels + "}"))) {
          failures.fetch_add(1);
        }
      }
      if (!ResponseOk(server.HandleLine(
              R"({"cmd":"close","session":")" + id + "\"}"))) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.sessions().open_count(), 0u);
}

TEST(ServeThreadingTest, SharedSessionSerializesCommands) {
  ServeOptions options;
  RetrievalServer server(Env().db.get(), options);
  ASSERT_TRUE(ResponseOk(server.HandleLine(
      R"({"cmd":"open","session":"mt_shared","camera":"cam-mt"})")));

  constexpr int kClients = 4;
  constexpr int kRequests = 5;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &failures, c] {
      for (int r = 0; r < kRequests; ++r) {
        std::string response;
        if (c % 2 == 0) {
          response = server.HandleLine(
              R"({"cmd":"rank","session":"mt_shared","top":5})");
        } else {
          response = server.HandleLine(
              R"({"cmd":"feedback","session":"mt_shared","labels":[{"bag":)" +
              std::to_string(r) + R"(,"label":"relevant"}]})");
        }
        if (!ResponseOk(response)) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  // All feedback rounds landed: 2 writer clients x 5 requests each.
  Result<JsonValue> rank = ParseJson(server.HandleLine(
      R"({"cmd":"rank","session":"mt_shared"})"));
  ASSERT_TRUE(rank.ok());
  EXPECT_EQ(rank->Find("round")->number, 2 * kRequests);
}

TEST(ServeThreadingTest, QueueFullUnderContentionReturnsResourceExhausted) {
  ServeOptions options;
  options.max_pending = 2;
  std::mutex mu;
  std::condition_variable cv;
  int held = 0;
  bool release = false;
  // Stats requests park inside the hook while holding their admission
  // slot; the main thread waits until both slots are provably held.
  options.admission_hook = [&](const ServeRequest& req) {
    if (req.cmd != ServeCmd::kStats) return;
    std::unique_lock<std::mutex> lock(mu);
    ++held;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  RetrievalServer server(Env().db.get(), options);

  std::vector<std::thread> blockers;
  for (int i = 0; i < 2; ++i) {
    blockers.emplace_back(
        [&server] { server.HandleLine(R"({"cmd":"stats"})"); });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return held == 2; });
  }

  // Both slots held: the next request must bounce, not queue.
  const std::string rejected =
      server.HandleLine(R"({"cmd":"close","session":"nope"})");
  Result<JsonValue> doc = ParseJson(rejected);
  ASSERT_TRUE(doc.ok());
  ASSERT_NE(doc->Find("code"), nullptr);
  EXPECT_EQ(doc->Find("code")->string, "RESOURCE_EXHAUSTED");

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  for (std::thread& t : blockers) t.join();
  EXPECT_EQ(server.requests_rejected(), 1u);
}

TEST(LineTransportThreadingTest, ConnectionsCloseWhileOthersStayOpen) {
  LineTransportOptions options;
  options.tcp_port = 0;
  options.poll_ms = 5;  // join closed connections often
  LineTransport transport(options, [](const std::string& line) {
    return line;  // echo
  });
  ASSERT_TRUE(transport.Start().ok());
  const std::string endpoint =
      "127.0.0.1:" + std::to_string(transport.tcp_port());

  // One connection stays open across the churn and into Stop().
  Result<ServeClient> held = ServeClient::Connect(endpoint);
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  ASSERT_TRUE(held.value().Call("held").ok());

  // A few clients open, use and close connections one after another, so
  // the accept thread joins finished connection threads while other
  // connection threads are serving.
  std::atomic<int> echoed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&endpoint, &echoed, c] {
      for (int i = 0; i < 20; ++i) {
        const std::string line =
            "c" + std::to_string(c) + "-" + std::to_string(i);
        Result<ServeClient> client = ServeClient::Connect(endpoint);
        if (!client.ok()) continue;
        Result<std::string> reply = client.value().Call(line);
        if (reply.ok() && reply.value() == line) echoed.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(echoed.load(), 60);
  EXPECT_TRUE(held.value().Call("still here").ok());
  transport.Stop();  // shuts down and joins the held connection's thread
}

}  // namespace
}  // namespace mivid
