// Tests for src/serve/: protocol parsing, corpus cache, session manager
// journaling/resume, the request loop (admission, backpressure, errors),
// and the serve-vs-in-process bit-identical-ranking guarantee.

#include <unistd.h>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "db/codec.h"
#include "db/query_engine.h"
#include "db/video_db.h"
#include "obs/json.h"
#include "serve/client.h"
#include "serve/corpus_manager.h"
#include "serve/server.h"
#include "serve/session_manager.h"
#include "trafficsim/scenarios.h"

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

/// One database shared by every test in this file: two cameras, each one
/// simulated tunnel clip with incidents (ground-truth tracks, so corpus
/// extraction is fast and deterministic).
struct ServeTestEnv {
  TempDir dir{"mivid_serve_test"};
  std::unique_ptr<VideoDb> db;
};

ServeTestEnv& Env() {
  static ServeTestEnv* env = [] {
    auto* e = new ServeTestEnv();
    VideoDbOptions options;
    options.create_if_missing = true;
    auto opened = VideoDb::Open(e->dir.path(), options);
    if (!opened.ok()) std::abort();
    e->db = std::move(opened).value();
    for (const char* camera : {"camA", "camB"}) {
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
    }
    return e;
  }();
  return *env;
}

JsonValue Parse(const std::string& response) {
  Result<JsonValue> doc = ParseJson(response);
  EXPECT_TRUE(doc.ok()) << response;
  return doc.ok() ? std::move(doc).value() : JsonValue{};
}

bool IsOk(const JsonValue& doc) {
  const JsonValue* ok = doc.Find("ok");
  return ok != nullptr && ok->type == JsonValue::Type::kBool && ok->bool_value;
}

std::string ErrorCode(const JsonValue& doc) {
  const JsonValue* code = doc.Find("code");
  return code != nullptr ? code->string : "";
}

/// Bag ids + scores from a rank response, in rank order.
struct WireRanking {
  std::vector<int> bags;
  std::vector<double> scores;
};

WireRanking GetRanking(const JsonValue& doc) {
  WireRanking out;
  const JsonValue* ranking = doc.Find("ranking");
  EXPECT_TRUE(ranking != nullptr && ranking->is_array());
  if (ranking == nullptr) return out;
  for (const JsonValue& item : ranking->array) {
    const JsonValue* bag = item.Find("bag");
    const JsonValue* score = item.Find("score");
    EXPECT_TRUE(bag != nullptr && bag->is_number());
    EXPECT_TRUE(score != nullptr && score->is_number());
    out.bags.push_back(static_cast<int>(bag->number));
    out.scores.push_back(score->number);
  }
  return out;
}

std::string LabelsJson(const std::vector<std::pair<int, BagLabel>>& labels) {
  std::string out = "[";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"bag\":" + std::to_string(labels[i].first) + ",\"label\":\"" +
           BagLabelWireName(labels[i].second) + "\"}";
  }
  out += ']';
  return out;
}

// ---------------------------------------------------------------------------
// Protocol

TEST(ServeProtocolTest, ParsesCommands) {
  auto open = ParseServeRequest(
      R"({"cmd":"open","session":"s1","camera":"camA","engine":"weighted"})");
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  EXPECT_EQ(open->cmd, ServeCmd::kOpen);
  EXPECT_EQ(open->session_id, "s1");
  EXPECT_EQ(open->camera_id, "camA");
  EXPECT_EQ(open->engine, "weighted");

  auto rank = ParseServeRequest(R"({"cmd":"rank","session":"s1","top":-1})");
  ASSERT_TRUE(rank.ok());
  EXPECT_EQ(rank->top, -1);

  auto feedback = ParseServeRequest(
      R"({"cmd":"feedback","session":"s1",)"
      R"("labels":[{"bag":3,"label":"relevant"},{"bag":9,"label":"irrelevant"}]})");
  ASSERT_TRUE(feedback.ok()) << feedback.status().ToString();
  ASSERT_EQ(feedback->labels.size(), 2u);
  EXPECT_EQ(feedback->labels[0], (std::pair<int, BagLabel>{3, BagLabel::kRelevant}));
  EXPECT_EQ(feedback->labels[1],
            (std::pair<int, BagLabel>{9, BagLabel::kIrrelevant}));

  EXPECT_TRUE(ParseServeRequest(R"({"cmd":"stats"})").ok());
  EXPECT_TRUE(ParseServeRequest(R"({"cmd":"shutdown"})").ok());
}

TEST(ServeProtocolTest, RejectsMalformedRequests) {
  EXPECT_TRUE(ParseServeRequest("not json").status().IsInvalidArgument());
  EXPECT_TRUE(ParseServeRequest(R"(["cmd"])").status().IsInvalidArgument());
  EXPECT_TRUE(ParseServeRequest(R"({"cmd":"nope"})").status().IsInvalidArgument());
  // session required for session commands
  EXPECT_TRUE(ParseServeRequest(R"({"cmd":"rank"})").status().IsInvalidArgument());
  // bad session id (would escape the journal namespace)
  EXPECT_TRUE(ParseServeRequest(R"({"cmd":"rank","session":"../x"})")
                  .status()
                  .IsInvalidArgument());
  // bad label
  EXPECT_TRUE(ParseServeRequest(
                  R"({"cmd":"feedback","session":"s","labels":[{"bag":1,"label":"meh"}]})")
                  .status()
                  .IsInvalidArgument());
  // labels must be non-empty
  EXPECT_TRUE(ParseServeRequest(R"({"cmd":"feedback","session":"s","labels":[]})")
                  .status()
                  .IsInvalidArgument());
}

TEST(ServeProtocolTest, ValidSessionIds) {
  EXPECT_TRUE(ValidSessionId("user-1.session_2"));
  EXPECT_FALSE(ValidSessionId(""));
  EXPECT_FALSE(ValidSessionId("a/b"));
  EXPECT_FALSE(ValidSessionId(std::string(65, 'a')));
}

TEST(ServeProtocolTest, StrListWritesAnEscapedStringArray) {
  JsonLineBuilder out;
  out.StrList("none", {}).StrList("ids", {"s1", "a\"b", "c\\d"});
  EXPECT_EQ(std::move(out).Build(),
            R"({"none":[],"ids":["s1","a\"b","c\\d"]})");
}

TEST(ServeProtocolTest, CommandSpanNamesPerRole) {
  EXPECT_STREQ(ServeCmdSpanName(ServeCmd::kRank), "serve/rank");
  EXPECT_STREQ(ServeCmdCoordSpanName(ServeCmd::kRank), "coord/rank");
  EXPECT_STREQ(ServeCmdCoordSpanName(ServeCmd::kClusterStats),
               "coord/cluster_stats");
  EXPECT_STREQ(ServeCmdCoordSpanName(ServeCmd::kPublish), "coord/publish");
  EXPECT_STREQ(ServeCmdCoordSpanName(static_cast<ServeCmd>(200)),
               "coord/other");
}

TEST(ServeProtocolTest, ErrorResponseCarriesWireCode) {
  const JsonValue doc =
      Parse(ErrorResponse(Status::ResourceExhausted("queue full")));
  EXPECT_FALSE(IsOk(doc));
  EXPECT_EQ(ErrorCode(doc), "RESOURCE_EXHAUSTED");
  const JsonValue* error = doc.Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->string, "queue full");

  EXPECT_EQ(ErrorCode(Parse(ErrorResponse(Status::DataLoss("x")))),
            "DATA_LOSS");
  EXPECT_EQ(ErrorCode(Parse(ErrorResponse(Status::NotFound("x")))),
            "NOT_FOUND");
}

// ---------------------------------------------------------------------------
// Corpus cache

TEST(CorpusManagerTest, CachesAndCountsSingleLoad) {
  CorpusManager corpora(Env().db.get(), QueryOptions{});
  auto first = corpora.Snapshot("camA");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value()->id, 1u);  // cold load publishes epoch 1
  auto second = corpora.Snapshot("camA");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().get(), second.value().get());  // same epoch object

  const CorpusManager::Stats stats = corpora.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.cached, 1u);

  // Publish with an empty tail is an idempotent no-op on the same epoch.
  auto republished = corpora.Publish("camA");
  ASSERT_TRUE(republished.ok());
  EXPECT_EQ(republished.value().get(), first.value().get());
  EXPECT_EQ(corpora.stats().publishes, 0u);

  EXPECT_TRUE(corpora.Snapshot("cam-none").status().IsNotFound());
  // failed loads are not cached
  EXPECT_TRUE(corpora.Snapshot("cam-none").status().IsNotFound());
  EXPECT_EQ(corpora.stats().cached, 1u);
}

// ---------------------------------------------------------------------------
// Request loop

ServeOptions TestServeOptions() {
  ServeOptions options;  // no socket: tests drive HandleLine in-process
  return options;
}

TEST(ServeServerTest, OpenRankFeedbackCloseConversation) {
  RetrievalServer server(Env().db.get(), TestServeOptions());

  JsonValue open = Parse(server.HandleLine(
      R"({"cmd":"open","session":"conv","camera":"camA"})"));
  ASSERT_TRUE(IsOk(open)) << ErrorCode(open);
  EXPECT_EQ(open.Find("engine")->string, "milrf");
  EXPECT_FALSE(open.Find("resumed")->bool_value);
  EXPECT_GT(open.Find("bags")->number, 0);

  JsonValue rank =
      Parse(server.HandleLine(R"({"cmd":"rank","session":"conv","top":-1})"));
  ASSERT_TRUE(IsOk(rank));
  EXPECT_FALSE(rank.Find("trained")->bool_value);
  WireRanking ranking = GetRanking(rank);
  ASSERT_FALSE(ranking.bags.empty());
  EXPECT_EQ(ranking.bags.size(),
            static_cast<size_t>(rank.Find("total")->number));

  // Label the top bag relevant, next irrelevant; engine trains.
  const std::string feedback =
      R"({"cmd":"feedback","session":"conv","labels":)" +
      LabelsJson({{ranking.bags[0], BagLabel::kRelevant},
                  {ranking.bags[1], BagLabel::kIrrelevant}}) +
      "}";
  JsonValue fed = Parse(server.HandleLine(feedback));
  ASSERT_TRUE(IsOk(fed)) << ErrorCode(fed);
  EXPECT_EQ(fed.Find("round")->number, 1);
  EXPECT_TRUE(fed.Find("trained")->bool_value);
  EXPECT_TRUE(fed.Find("journaled")->bool_value);

  JsonValue stats = Parse(server.HandleLine(R"({"cmd":"stats"})"));
  ASSERT_TRUE(IsOk(stats));
  EXPECT_EQ(stats.Find("sessions_open")->number, 1);
  EXPECT_EQ(stats.Find("corpora_cached")->number, 1);

  JsonValue closed =
      Parse(server.HandleLine(R"({"cmd":"close","session":"conv"})"));
  ASSERT_TRUE(IsOk(closed));
  EXPECT_TRUE(
      Parse(server.HandleLine(R"({"cmd":"close","session":"conv"})"))
          .Find("code") != nullptr);
}

TEST(ServeServerTest, ErrorsCarryWireCodes) {
  RetrievalServer server(Env().db.get(), TestServeOptions());
  // unknown session
  EXPECT_EQ(ErrorCode(Parse(server.HandleLine(
                R"({"cmd":"rank","session":"ghost-never-opened"})"))),
            "NOT_FOUND");
  // unknown camera
  EXPECT_EQ(ErrorCode(Parse(server.HandleLine(
                R"({"cmd":"open","session":"x1","camera":"cam-none"})"))),
            "NOT_FOUND");
  // unknown engine
  EXPECT_EQ(ErrorCode(Parse(server.HandleLine(
                R"({"cmd":"open","session":"x2","camera":"camA","engine":"svm9000"})"))),
            "INVALID_ARGUMENT");
  // malformed line
  EXPECT_EQ(ErrorCode(Parse(server.HandleLine("{{{"))), "INVALID_ARGUMENT");
  // camera mismatch against the journal/live session
  ASSERT_TRUE(IsOk(Parse(server.HandleLine(
      R"({"cmd":"open","session":"x3","camera":"camA"})"))));
  EXPECT_EQ(ErrorCode(Parse(server.HandleLine(
                R"({"cmd":"open","session":"x3","camera":"camB"})"))),
            "INVALID_ARGUMENT");
}

TEST(ServeServerTest, BackpressureRejectsWhenQueueFull) {
  ServeOptions options = TestServeOptions();
  options.max_pending = 1;
  RetrievalServer* live = nullptr;
  std::string nested;
  // The hook runs with the outer request's admission slot held, so a
  // nested request must see a full queue — deterministically, no races.
  options.admission_hook = [&](const ServeRequest& req) {
    if (req.cmd == ServeCmd::kStats) return;  // the nested request itself
    nested = live->HandleLine(R"({"cmd":"stats"})");
  };
  RetrievalServer server(Env().db.get(), options);
  live = &server;

  const JsonValue outer = Parse(
      server.HandleLine(R"({"cmd":"close","session":"whatever"})"));
  EXPECT_EQ(ErrorCode(outer), "NOT_FOUND");  // admitted and executed
  const JsonValue inner = Parse(nested);
  EXPECT_EQ(ErrorCode(inner), "RESOURCE_EXHAUSTED");
  EXPECT_EQ(server.requests_rejected(), 1u);

  // With the slot released, the same request sails through.
  EXPECT_TRUE(IsOk(Parse(server.HandleLine(R"({"cmd":"stats"})"))));
}

TEST(ServeServerTest, SessionCapacityIsBounded) {
  ServeOptions options = TestServeOptions();
  options.max_sessions = 2;
  RetrievalServer server(Env().db.get(), options);
  ASSERT_TRUE(IsOk(Parse(server.HandleLine(
      R"({"cmd":"open","session":"cap1","camera":"camA"})"))));
  ASSERT_TRUE(IsOk(Parse(server.HandleLine(
      R"({"cmd":"open","session":"cap2","camera":"camA"})"))));
  EXPECT_EQ(ErrorCode(Parse(server.HandleLine(
                R"({"cmd":"open","session":"cap3","camera":"camA"})"))),
            "RESOURCE_EXHAUSTED");
  // Closing one frees a slot.
  ASSERT_TRUE(IsOk(Parse(
      server.HandleLine(R"({"cmd":"close","session":"cap1","discard":true})"))));
  EXPECT_TRUE(IsOk(Parse(server.HandleLine(
      R"({"cmd":"open","session":"cap3","camera":"camA"})"))));
}

// ---------------------------------------------------------------------------
// Serve vs in-process: bit-identical rankings, surviving a restart.

void DriveConversation(const std::string& engine_name) {
  SCOPED_TRACE(engine_name);
  VideoDb* db = Env().db.get();
  const std::string id = "bitwise_" + engine_name;

  // In-process reference session over the same corpus and options.
  QueryOptions query;
  query.session.engine = engine_name;
  QueryEngine qe(db);
  Result<CameraCorpus> corpus = qe.BuildCorpus("camB", query);
  ASSERT_TRUE(corpus.ok());
  Result<RetrievalSession> reference =
      RetrievalSession::Create(corpus->dataset, SessionOptionsFor(query));
  ASSERT_TRUE(reference.ok());

  auto server = std::make_unique<RetrievalServer>(db, TestServeOptions());
  JsonValue open = Parse(server->HandleLine(
      R"({"cmd":"open","session":")" + id + R"(","camera":"camB","engine":")" +
      engine_name + "\"}"));
  ASSERT_TRUE(IsOk(open)) << ErrorCode(open);

  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE(round);
    // Restart the daemon between rounds 2 and 3: the journal written by
    // the last feedback must reproduce the session exactly.
    if (round == 2) {
      server.reset();  // Stop(): journals everything
      server = std::make_unique<RetrievalServer>(db, TestServeOptions());
      JsonValue reopened = Parse(server->HandleLine(
          R"({"cmd":"open","session":")" + id + "\"}"));
      ASSERT_TRUE(IsOk(reopened)) << ErrorCode(reopened);
      EXPECT_TRUE(reopened.Find("resumed")->bool_value);
      EXPECT_EQ(reopened.Find("engine")->string, engine_name);
      EXPECT_EQ(reopened.Find("round")->number, round);
    }

    JsonValue rank = Parse(server->HandleLine(
        R"({"cmd":"rank","session":")" + id + R"(","top":-1})"));
    ASSERT_TRUE(IsOk(rank)) << ErrorCode(rank);
    const WireRanking served = GetRanking(rank);
    const std::vector<ScoredBag> local = reference->CurrentRanking();
    ASSERT_EQ(served.bags.size(), local.size());
    for (size_t i = 0; i < local.size(); ++i) {
      EXPECT_EQ(served.bags[i], local[i].bag_id) << "position " << i;
      // %.17g wire encoding round-trips doubles exactly.
      EXPECT_EQ(served.scores[i], local[i].score) << "position " << i;
    }

    // Oracle-style feedback on the top 5, applied to both sides.
    std::vector<std::pair<int, BagLabel>> labels;
    for (size_t i = 0; i < served.bags.size() && i < 5; ++i) {
      auto it = corpus->truth.find(served.bags[i]);
      labels.emplace_back(served.bags[i], it != corpus->truth.end()
                                              ? it->second
                                              : BagLabel::kIrrelevant);
    }
    JsonValue fed = Parse(server->HandleLine(
        R"({"cmd":"feedback","session":")" + id + R"(","labels":)" +
        LabelsJson(labels) + "}"));
    ASSERT_TRUE(IsOk(fed)) << ErrorCode(fed);
    ASSERT_TRUE(reference->SubmitFeedback(labels).ok());
    EXPECT_EQ(fed.Find("round")->number, reference->round());
  }
}

TEST(ServeServerTest, ServedRankingsMatchInProcessMilRf) {
  DriveConversation("milrf");
}

TEST(ServeServerTest, ServedRankingsMatchInProcessWeighted) {
  DriveConversation("weighted");
}

// ---------------------------------------------------------------------------
// Engine registry: RetrievalSession(name) == direct construction.

TEST(EngineRegistryTest, EveryEngineRoundTripsThroughSession) {
  QueryOptions query;
  QueryEngine qe(Env().db.get());
  Result<CameraCorpus> corpus = qe.BuildCorpus("camA", query);
  ASSERT_TRUE(corpus.ok());

  // A labeled set meeting every engine's cold-start preconditions (at
  // least one relevant and one irrelevant bag).
  std::vector<std::pair<int, BagLabel>> labels;
  size_t relevant = 0, irrelevant = 0;
  for (const auto& [id, label] : corpus->truth) {
    if (label == BagLabel::kRelevant && relevant < 2) {
      labels.emplace_back(id, label);
      ++relevant;
    } else if (label == BagLabel::kIrrelevant && irrelevant < 3) {
      labels.emplace_back(id, label);
      ++irrelevant;
    }
  }
  ASSERT_GE(relevant, 1u);
  ASSERT_GE(irrelevant, 1u);

  for (const std::string& name : RegisteredEngineNames()) {
    SCOPED_TRACE(name);
    SessionOptions session_options;
    session_options.engine = name;
    session_options.mil.base_dim = 3;  // tunnel corpus, no velocity

    Result<RetrievalSession> session =
        RetrievalSession::Create(corpus->dataset, session_options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    EXPECT_EQ(session->engine().name(), name);
    ASSERT_TRUE(session->SubmitFeedback(labels).ok());

    MilDataset direct_dataset = corpus->dataset;
    Result<std::unique_ptr<RetrievalEngine>> direct = MakeRetrievalEngine(
        name, &direct_dataset, session_options.engine_config());
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    ASSERT_TRUE((*direct)->SetLabels(labels).ok());
    ASSERT_TRUE((*direct)->Retrain().ok());
    ASSERT_TRUE((*direct)->trained());

    const std::vector<ScoredBag> via_session = session->CurrentRanking();
    const std::vector<ScoredBag> via_direct = (*direct)->Rank();
    ASSERT_EQ(via_session.size(), via_direct.size());
    for (size_t i = 0; i < via_direct.size(); ++i) {
      EXPECT_EQ(via_session[i].bag_id, via_direct[i].bag_id) << i;
      EXPECT_EQ(via_session[i].score, via_direct[i].score) << i;
    }
  }

  EXPECT_TRUE(RetrievalSession::Create(corpus->dataset, [] {
                SessionOptions bad;
                bad.engine = "svm9000";
                return bad;
              }())
                  .status()
                  .IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Codec ExpectDone + session-store format.

TEST(CodecExpectDoneTest, TrailingBytesAreDataLoss) {
  std::string buf;
  PutFixed32(&buf, 7);
  Decoder dec(buf);
  uint32_t v = 0;
  ASSERT_TRUE(dec.GetFixed32(&v).ok());
  EXPECT_TRUE(dec.ExpectDone().ok());

  buf.push_back('\0');  // one trailing byte past the last field
  Decoder padded(buf);
  ASSERT_TRUE(padded.GetFixed32(&v).ok());
  EXPECT_FALSE(padded.Done());
  const Status status = padded.ExpectDone();
  EXPECT_TRUE(status.IsDataLoss()) << status.ToString();
}

TEST(SessionStoreV2Test, RoundTripsEngineAndRejectsTrailingGarbage) {
  SessionState state;
  state.camera_id = "camA";
  state.engine = "cknn";
  state.round = 3;
  state.labels = {{4, BagLabel::kRelevant}, {7, BagLabel::kIrrelevant}};

  const std::string bytes = SerializeSessionState(state);
  Result<SessionState> back = DeserializeSessionState(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->camera_id, "camA");
  EXPECT_EQ(back->engine, "cknn");
  EXPECT_EQ(back->round, 3);
  EXPECT_EQ(back->labels, state.labels);

  // Trailing garbage inside a valid CRC envelope is DataLoss, not a
  // silent success: rebuild the envelope around a padded body.
  std::string body(bytes.begin() + 8, bytes.end());
  body.push_back('\x7f');
  std::string padded;
  PutFixed32(&padded, 0x53534553u);  // "SESS"
  PutFixed32(&padded, Crc32c(body));
  padded += body;
  EXPECT_TRUE(DeserializeSessionState(padded).status().IsDataLoss());
}

TEST(SessionStoreV2Test, ReadsVersion1RecordsWithDefaultEngine) {
  // Hand-encode a v1 body (no engine field) and wrap it in the envelope.
  std::string body;
  PutFixed32(&body, 1);  // version
  PutLengthPrefixed(&body, "camB");
  PutFixed32(&body, 2);  // round
  PutFixed32(&body, 1);  // one label
  PutFixed32(&body, 9);
  body.push_back(static_cast<char>(BagLabel::kRelevant));
  std::string bytes;
  PutFixed32(&bytes, 0x53534553u);
  PutFixed32(&bytes, Crc32c(body));
  bytes += body;

  Result<SessionState> state = DeserializeSessionState(bytes);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(state->camera_id, "camB");
  EXPECT_EQ(state->engine, "milrf");  // v1 default
  EXPECT_EQ(state->round, 2);
  ASSERT_EQ(state->labels.size(), 1u);
  EXPECT_EQ(state->labels[0], (std::pair<int, BagLabel>{9, BagLabel::kRelevant}));
}

// ---------------------------------------------------------------------------
// Protocol error paths: cluster extensions, oversized lines, unknown
// commands, shutdown racing an in-flight rank.

TEST(ServeProtocolTest, ParsesClusterExtensions) {
  auto open = ParseServeRequest(
      R"({"cmd":"open","session":"m1","cameras":["camA","camB"]})");
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  EXPECT_EQ(open->cameras, (std::vector<std::string>{"camA", "camB"}));

  auto feedback = ParseServeRequest(
      R"({"cmd":"feedback","session":"m1","labels":[)"
      R"({"bag":3,"label":"relevant","camera":"camA"},)"
      R"({"bag":1,"label":"irrelevant"}]})");
  ASSERT_TRUE(feedback.ok()) << feedback.status().ToString();
  ASSERT_EQ(feedback->label_cameras.size(), 2u);
  EXPECT_EQ(feedback->label_cameras[0], "camA");
  EXPECT_EQ(feedback->label_cameras[1], "");

  EXPECT_TRUE(ParseServeRequest(R"({"cmd":"ping"})").ok());
  // camera entries must be non-empty strings
  EXPECT_TRUE(
      ParseServeRequest(R"({"cmd":"open","session":"m1","cameras":[""]})")
          .status()
          .IsInvalidArgument());
}

TEST(ServeProtocolTest, OversizedRequestLineIsRejected) {
  std::string line = R"({"cmd":"stats","pad":")";
  line.append(kMaxRequestBytes, 'x');
  line += "\"}";
  EXPECT_TRUE(ParseServeRequest(line).status().IsInvalidArgument());
  // Through the full server path: one error response, not a hang or an
  // unbounded buffer.
  RetrievalServer server(Env().db.get(), TestServeOptions());
  EXPECT_EQ(ErrorCode(Parse(server.HandleLine(line))), "INVALID_ARGUMENT");
}

TEST(ServeServerTest, UnknownCommandAndEmptyLineGetErrorResponses) {
  RetrievalServer server(Env().db.get(), TestServeOptions());
  EXPECT_EQ(ErrorCode(Parse(server.HandleLine(R"({"cmd":"explode"})"))),
            "INVALID_ARGUMENT");
  EXPECT_EQ(ErrorCode(Parse(server.HandleLine(""))), "INVALID_ARGUMENT");
  EXPECT_EQ(ErrorCode(Parse(server.HandleLine(R"({"cmd":17})"))),
            "INVALID_ARGUMENT");
}

TEST(ServeServerTest, ShutdownRacingInflightRankCompletesBoth) {
  ServeOptions options = TestServeOptions();
  RetrievalServer* live = nullptr;
  std::string shutdown_response;
  // The hook fires while the rank request holds its admission slot, so
  // the shutdown lands mid-request — deterministically, no sleeps.
  options.admission_hook = [&](const ServeRequest& req) {
    if (req.cmd != ServeCmd::kRank) return;
    shutdown_response = live->HandleLine(R"({"cmd":"shutdown"})");
  };
  RetrievalServer server(Env().db.get(), options);
  live = &server;
  ASSERT_TRUE(IsOk(Parse(server.HandleLine(
      R"({"cmd":"open","session":"race","camera":"camA"})"))));

  JsonValue rank =
      Parse(server.HandleLine(R"({"cmd":"rank","session":"race"})"));
  EXPECT_TRUE(IsOk(rank)) << ErrorCode(rank);  // in-flight rank completes
  ASSERT_FALSE(shutdown_response.empty());
  EXPECT_TRUE(IsOk(Parse(shutdown_response)));
  EXPECT_TRUE(server.WaitForShutdownFor(0));
  server.Stop();
}

TEST(ServeServerTest, PingReportsWorkerIdentityAndShards) {
  ServeOptions options = TestServeOptions();
  options.worker_id = "w7";
  RetrievalServer server(Env().db.get(), options);
  ASSERT_TRUE(IsOk(Parse(server.HandleLine(
      R"({"cmd":"open","session":"pg","camera":"camA"})"))));
  JsonValue ping = Parse(server.HandleLine(R"({"cmd":"ping"})"));
  ASSERT_TRUE(IsOk(ping));
  EXPECT_EQ(ping.Find("worker")->string, "w7");
  EXPECT_EQ(ping.Find("sessions_open")->number, 1);
  const JsonValue* cameras = ping.Find("cameras");
  ASSERT_TRUE(cameras != nullptr && cameras->is_array());
  ASSERT_EQ(cameras->array.size(), 1u);
  EXPECT_EQ(cameras->array[0].string, "camA");
}

// ---------------------------------------------------------------------------
// Startup validation: inconsistent option bundles fail before any bind.

TEST(ServeOptionsTest, ValidationFailsFast) {
  ServeOptions good;
  good.socket_path = "/tmp/mivid_validate.sock";
  EXPECT_TRUE(ValidateServeOptions(good).ok());

  ServeOptions no_listener;
  EXPECT_TRUE(ValidateServeOptions(no_listener).IsInvalidArgument());
  // in-process use (tests) is allowed to skip the listener
  EXPECT_TRUE(ValidateServeOptions(no_listener, /*will_listen=*/false).ok());

  ServeOptions bad_port = good;
  bad_port.tcp_port = 70000;
  EXPECT_TRUE(ValidateServeOptions(bad_port).IsInvalidArgument());

  ServeOptions zero_top = good;
  zero_top.top_n = 0;
  EXPECT_TRUE(ValidateServeOptions(zero_top).IsInvalidArgument());

  // Unbounded session table + idle sweeps is a footgun pair.
  ServeOptions unbounded = good;
  unbounded.max_sessions = 0;
  unbounded.idle_timeout_ms = 1000;
  EXPECT_TRUE(ValidateServeOptions(unbounded).IsInvalidArgument());

  ServeOptions bad_engine = good;
  bad_engine.default_engine = "svm9000";
  EXPECT_TRUE(ValidateServeOptions(bad_engine).IsInvalidArgument());

  ServeOptions bad_worker = good;
  bad_worker.worker_id = "a/b";
  EXPECT_TRUE(ValidateServeOptions(bad_worker).IsInvalidArgument());

  // An unwritable snapshot dir is caught at startup, not mid-request:
  // nesting the dir under a regular file makes creation fail portably.
  TempDir dir("mivid_validate_snapdir");
  fs::create_directories(dir.path());
  const std::string file = dir.path() + "/plain_file";
  { std::FILE* f = std::fopen(file.c_str(), "wb"); ASSERT_NE(f, nullptr);
    std::fclose(f); }
  ServeOptions bad_dir = good;
  bad_dir.corpus_snapshot_dir = file + "/nested";
  EXPECT_TRUE(ValidateServeOptions(bad_dir).IsIOError());
}

// ---------------------------------------------------------------------------
// Client retry backoff.

TEST(RetryPolicyTest, BackoffGrowsAndCaps) {
  RetryPolicy policy;
  policy.base_delay_ms = 50;
  policy.max_delay_ms = 400;
  std::mt19937 rng(42);
  for (int attempt = 0; attempt < 6; ++attempt) {
    const int base = std::min(50 << attempt, 400);
    const int delay = BackoffDelayMs(policy, attempt, &rng);
    EXPECT_GE(delay, base) << attempt;
    EXPECT_LE(delay, base + base / 2) << attempt;  // jitter <= delay/2
  }
  // Without an rng there is no jitter: exact doubling then the cap.
  EXPECT_EQ(BackoffDelayMs(policy, 0, nullptr), 50);
  EXPECT_EQ(BackoffDelayMs(policy, 2, nullptr), 200);
  EXPECT_EQ(BackoffDelayMs(policy, 10, nullptr), 400);
  // Deterministic for a fixed rng state (reproducible tests and runs).
  std::mt19937 a(7), b(7);
  EXPECT_EQ(BackoffDelayMs(policy, 3, &a), BackoffDelayMs(policy, 3, &b));
}

TEST(ServeServerTest, EveryRegisteredEngineServes) {
  RetrievalServer server(Env().db.get(), TestServeOptions());
  for (const std::string& name : RegisteredEngineNames()) {
    SCOPED_TRACE(name);
    const std::string id = "eng_" + name;
    JsonValue open = Parse(server.HandleLine(
        R"({"cmd":"open","session":")" + id +
        R"(","camera":"camA","engine":")" + name + "\"}"));
    ASSERT_TRUE(IsOk(open)) << ErrorCode(open);
    JsonValue rank = Parse(server.HandleLine(
        R"({"cmd":"rank","session":")" + id + "\"}"));
    ASSERT_TRUE(IsOk(rank)) << ErrorCode(rank);
    EXPECT_FALSE(GetRanking(rank).bags.empty());
  }
}

// ---------------------------------------------------------------------------
// Session refresh by append

GroundTruth RefreshClip(uint64_t seed) {
  TunnelScenarioOptions options;
  options.total_frames = 300;
  options.num_wall_crashes = 1;
  options.num_sudden_stops = 1;
  options.num_speeding = 0;
  options.num_uturns = 0;
  options.seed = seed;
  TrafficWorld world(MakeTunnelScenario(options));
  return world.Run();
}

/// Stores `gt` as a new clip of `camera`; returns its id (-1 on failure).
int StoreClip(VideoDb* db, const std::string& camera, const GroundTruth& gt) {
  ClipInfo info;
  info.camera_id = camera;
  info.total_frames = gt.total_frames;
  Result<int> clip = db->IngestClip(info, gt.tracks, gt.incidents);
  EXPECT_TRUE(clip.ok()) << clip.status().ToString();
  return clip.ok() ? clip.value() : -1;
}

/// Feedback every engine trains on: the best and third-best bags of the
/// current ranking relevant, the runner-up irrelevant.
std::vector<std::pair<int, BagLabel>> LabelTop(const RetrievalSession& s) {
  const std::vector<ScoredBag> top = s.CurrentTopK(3);
  EXPECT_EQ(top.size(), 3u);
  if (top.size() < 3) return {};
  return {{top[0].bag_id, BagLabel::kRelevant},
          {top[1].bag_id, BagLabel::kIrrelevant},
          {top[2].bag_id, BagLabel::kRelevant}};
}

uint64_t ScoreBits(double score) {
  uint64_t bits = 0;
  std::memcpy(&bits, &score, sizeof(bits));
  return bits;
}

/// What a client can observe of a session: the full ranking (ids and
/// score bits), the round, whether the engine trained, and the bags.
struct SessionView {
  std::vector<int> bags;
  std::vector<uint64_t> scores;
  int round = 0;
  bool trained = false;
  size_t size = 0;
  std::vector<std::pair<int, BagLabel>> labels;

  explicit SessionView(const RetrievalSession& s)
      : round(s.round()),
        trained(s.engine().trained()),
        size(s.dataset().size()),
        labels(s.LabeledBags()) {
    for (const ScoredBag& b : s.CurrentRanking()) {
      bags.push_back(b.bag_id);
      scores.push_back(ScoreBits(b.score));
    }
  }
};

void ExpectSameView(const SessionView& got, const SessionView& want) {
  EXPECT_EQ(got.round, want.round);
  EXPECT_EQ(got.trained, want.trained);
  EXPECT_EQ(got.size, want.size);
  EXPECT_EQ(got.labels, want.labels);
  EXPECT_EQ(got.bags, want.bags);
  EXPECT_EQ(got.scores, want.scores);
}

TEST(SessionRefreshTest, AppendEqualsFreshOpenAndReplay) {
  TempDir dir("mivid_refresh_append");
  VideoDbOptions db_options;
  db_options.create_if_missing = true;
  auto opened = VideoDb::Open(dir.path(), db_options);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<VideoDb> db = std::move(opened).value();
  std::vector<GroundTruth> clips;
  for (uint64_t seed : {71, 72, 73, 74}) clips.push_back(RefreshClip(seed));

  CorpusManager corpora(db.get(), QueryOptions{});
  SessionManager sessions(db.get(), &corpora, SessionManagerOptions{});
  for (const std::string& engine : RegisteredEngineNames()) {
    SCOPED_TRACE(engine);
    const std::string camera = "cam_" + engine;
    ASSERT_GE(StoreClip(db.get(), camera, clips[0]), 0);
    auto live_open = sessions.Open("live_" + engine, camera, engine);
    ASSERT_TRUE(live_open.ok()) << live_open.status().ToString();
    ServeSession& live = *live_open.value().session;
    std::lock_guard<std::mutex> lock(live.mu);
    ASSERT_TRUE(live.session->SubmitFeedback(LabelTop(*live.session)).ok());

    // Three publish + refresh steps; feedback between them labels bags
    // the earlier refreshes appended, so the last replay covers them.
    for (size_t k = 1; k < clips.size(); ++k) {
      const int clip = StoreClip(db.get(), camera, clips[k]);
      Result<ClipRecord> record = db->LoadClip(clip);
      ASSERT_TRUE(record.ok()) << record.status().ToString();
      ASSERT_TRUE(
          corpora.Append(camera, ExtractClip(record.value(), corpora.query()))
              .ok());
      ASSERT_TRUE(corpora.Publish(camera).ok());
      const size_t before = live.session->dataset().size();
      ASSERT_TRUE(sessions.Refresh(&live).ok());
      EXPECT_EQ(live.epoch->id, k + 1);
      EXPECT_GT(live.session->dataset().size(), before);
      if (k + 1 < clips.size()) {
        ASSERT_TRUE(
            live.session->SubmitFeedback(LabelTop(*live.session)).ok());
      }
    }
    EXPECT_EQ(live.session->round(), 3);

    // Reference: a session opened fresh on the final epoch, with the same
    // feedback restored the way a journal resume does.
    auto fresh_open = sessions.Open("fresh_" + engine, camera, engine);
    ASSERT_TRUE(fresh_open.ok()) << fresh_open.status().ToString();
    ServeSession& fresh = *fresh_open.value().session;
    std::lock_guard<std::mutex> fresh_lock(fresh.mu);
    ASSERT_EQ(fresh.epoch->id, live.epoch->id);
    ASSERT_TRUE(fresh.session
                    ->Restore(live.session->LabeledBags(),
                              live.session->round())
                    .ok());
    const SessionView refreshed(*live.session);
    EXPECT_TRUE(refreshed.trained);
    ExpectSameView(refreshed, SessionView(*fresh.session));
    EXPECT_EQ(refreshed.size, fresh.epoch->bag_count());
  }
}

TEST(SessionRefreshTest, RefusesACorpusThatDoesNotExtendTheSession) {
  CorpusManager corpora(Env().db.get(), QueryOptions{});
  auto epoch = corpora.Snapshot("camA");
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  const MilDataset corpus = epoch.value()->Dataset();
  ASSERT_GT(corpus.size(), 3u);

  SessionOptions options = SessionOptionsFor(corpora.query());
  auto created = RetrievalSession::Create(corpus, options);
  ASSERT_TRUE(created.ok());
  RetrievalSession session = std::move(created).value();
  ASSERT_TRUE(session.SubmitFeedback(LabelTop(session)).ok());
  const SessionView before(session);

  // Fewer bags than the session holds.
  MilDataset shorter;
  for (size_t i = 0; i + 1 < corpus.size(); ++i) {
    ASSERT_TRUE(shorter.AddBag(corpus.bag(i)).ok());
  }
  EXPECT_TRUE(session.Extend({&shorter}).IsInternal());
  // As many bags, but another corpus: the ids do not continue the
  // session's.
  MilDataset renumbered;
  for (const MilBag& bag : corpus.bags()) {
    MilBag copy = bag;
    copy.id += 100000;
    ASSERT_TRUE(renumbered.AddBag(std::move(copy)).ok());
  }
  EXPECT_TRUE(session.Extend({&renumbered}).IsInternal());
  ExpectSameView(SessionView(session), before);

  // Still usable: the same corpus extends it by nothing, and feedback
  // keeps working afterwards.
  ASSERT_TRUE(session.Extend({&corpus}).ok());
  ExpectSameView(SessionView(session), before);
  EXPECT_TRUE(session.SubmitFeedback(LabelTop(session)).ok());
  EXPECT_EQ(session.round(), 2);
}

}  // namespace
}  // namespace mivid
