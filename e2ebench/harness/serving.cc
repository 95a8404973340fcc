// session_interactive and fleet_multicam: closed-loop analyst sessions
// over a socket, against one `mivid_cli serve` daemon or a coordinator
// fronting two workers. Corpora are built from distinct-seed
// ground-truth clips (no rendering).

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <optional>

#include "cluster/merger.h"
#include "common/string_util.h"
#include "db/query_engine.h"
#include "db/video_db.h"
#include "eval/metrics.h"
#include "harness.h"
#include "serve/corpus_manager.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace e2e {

using namespace mivid;

namespace {

constexpr int kFeedbackRounds = 4;
constexpr int kTopN = 20;

/// One deployment shape: which cameras exist and which clips each holds.
struct Shape {
  const char* name;
  int cameras;
  int clips_per_camera;
  int clip_frames;
  int cameras_per_session;
  int sessions_per_second;  ///< timed sessions per nominal second
  int trace_sessions;  ///< sessions replayed by the traced run
  int setup_repeats;   ///< set-ups per run; setup_s is their median
  bool rare_accidents;  ///< see MakeClipSpec
  bool fleet;          ///< coordinator + 2 workers, multi-camera sessions
};

// session_interactive: eight cameras of ~2900 bags each, one per session
// (at ~1500 bags a round took under a millisecond; with four cameras the
// corpus-to-corpus variation moved round times 10% from seed to seed).
constexpr Shape kSessionShape = {"session_interactive", 8, 36, 2504, 1, 60,
                                 8, 5, true, false};
// fleet_multicam: sixteen small cameras (~160 bags) behind a
// coordinator; each session spans four of them, a different four each
// time (with eight cameras, acc20_norm moved 14% from seed to seed). Its
// ~40 ms set-up is bimodal (process starts), so it takes nine set-ups
// to pin the median.
constexpr Shape kFleetShape = {"fleet_multicam", 16, 2, 2504, 4, 40, 8, 9,
                               true, true};

std::string CameraName(int c) { return "cam" + std::to_string(c); }

/// The workload's input: per camera, its seeded ground-truth clips.
struct Inputs {
  std::vector<std::vector<GeneratedClip>> clips;  ///< [camera][clip]
};

Inputs Generate(const Shape& shape, uint64_t seed, Tracer* t) {
  Inputs in;
  for (int c = 0; c < shape.cameras; ++c) {
    std::vector<GeneratedClip> clips;
    for (int j = 0; j < shape.clips_per_camera; ++j) {
      GeneratedClip clip;
      clip.spec = MakeClipSpec("tunnel", shape.clip_frames,
                               MixSeed(seed, 10 + c, j), shape.rare_accidents);
      Scope s(t, "trafficsim.truth");
      clip.truth = TrafficWorld(clip.spec).Run();
      clips.push_back(std::move(clip));
    }
    in.clips.push_back(std::move(clips));
  }
  return in;
}

bool WriteDb(const std::string& path, const Inputs& in, Tracer* t) {
  Scope s(t, "db.ingest");
  VideoDbOptions options;
  options.create_if_missing = true;
  Result<std::unique_ptr<VideoDb>> db = VideoDb::Open(path, options);
  if (!db.ok()) return false;
  for (size_t c = 0; c < in.clips.size(); ++c) {
    for (const GeneratedClip& clip : in.clips[c]) {
      ClipInfo info;
      info.camera_id = CameraName(static_cast<int>(c));
      info.location = clip.spec.name;
      info.total_frames = clip.spec.total_frames;
      info.scenario = clip.spec.name;
      if (!db.value()->IngestClip(info, clip.truth.tracks, clip.truth.incidents)
               .ok()) {
        return false;
      }
    }
  }
  return true;
}

/// In-process corpus per camera, built clip by clip with the batch path
/// (ExtractClip + AppendClipBags) — the same corpus a cold load serves.
/// Its `truth` map is the oracle the analyst sessions label from.
std::vector<CameraCorpus> BuildCorpora(const Shape& shape, const Inputs& in,
                                       Tracer* t) {
  const QueryOptions query;
  std::vector<CameraCorpus> corpora;
  int clip_id = 0;
  for (int c = 0; c < shape.cameras; ++c) {
    CameraCorpus corpus;
    corpus.camera_id = CameraName(c);
    int next_bag = 0;
    for (const GeneratedClip& clip : in.clips[c]) {
      ClipRecord record;
      record.info.clip_id = clip_id++;
      record.info.camera_id = corpus.camera_id;
      record.info.total_frames = clip.spec.total_frames;
      record.tracks = clip.truth.tracks;
      record.incidents = clip.truth.incidents;
      Scope s(t, "db.extract");
      AppendClipBags(ExtractClip(record, query), query, &corpus, &next_bag);
    }
    corpora.push_back(std::move(corpus));
  }
  return corpora;
}

// ---------------------------------------------------------------------------
// One analyst session, driven over a socket.

struct Label {
  std::string camera;
  int bag = 0;
  BagLabel label = BagLabel::kIrrelevant;
};

struct SessionPlan {
  std::string id;
  std::vector<std::string> cameras;  ///< one = plain session
};

struct SessionLog {
  std::vector<std::vector<RankedBag>> tops;   ///< served top-20, per round
  std::vector<std::vector<Label>> labels;     ///< labels sent, per round
  std::vector<bool> final_relevance;
  size_t relevant = 0;
  double open_ms = 0.0;
  std::vector<double> round_ms;
  double busy_ms = 0.0;  ///< open → close, minus the final full-rank fetch
  int attempted = 0;
  int ok = 0;
};

using Corpora = std::map<std::string, const CameraCorpus*>;

BagLabel TruthOf(const Corpora& corpora, const std::string& camera, int bag) {
  const CameraCorpus& corpus = *corpora.at(camera);
  auto it = corpus.truth.find(bag);
  return it != corpus.truth.end() ? it->second : BagLabel::kIrrelevant;
}

std::vector<Label> OracleLabels(const SessionPlan& plan,
                                const std::vector<RankedBag>& top,
                                const Corpora& corpora) {
  std::vector<Label> labels;
  for (const RankedBag& item : top) {
    const std::string& camera = item.camera.empty() ? plan.cameras[0] : item.camera;
    labels.push_back({camera, item.bag, TruthOf(corpora, camera, item.bag)});
  }
  return labels;
}

std::string OpenLine(const SessionPlan& plan) {
  JsonLineBuilder b;
  b.Str("cmd", "open").Str("session", plan.id);
  if (plan.cameras.size() == 1) {
    b.Str("camera", plan.cameras[0]);
  } else {
    std::string cams = "[";
    for (size_t i = 0; i < plan.cameras.size(); ++i) {
      if (i > 0) cams += ',';
      cams += StrFormat("\"%s\"", plan.cameras[i].c_str());
    }
    b.Raw("cameras", cams + "]");
  }
  return std::move(b).Build();
}

std::string RankLine(const std::string& session, int top) {
  JsonLineBuilder b;
  b.Str("cmd", "rank").Str("session", session).Int("top", top);
  return std::move(b).Build();
}

std::string FeedbackLine(const SessionPlan& plan,
                         const std::vector<Label>& labels) {
  std::string items = "[";
  for (size_t i = 0; i < labels.size(); ++i) {
    items += StrFormat("%s{\"bag\":%d,\"label\":\"%s\"", i ? "," : "",
                       labels[i].bag, BagLabelWireName(labels[i].label));
    if (plan.cameras.size() > 1) {
      items += ",\"camera\":\"" + labels[i].camera + "\"";
    }
    items += "}";
  }
  JsonLineBuilder b;
  b.Str("cmd", "feedback").Str("session", plan.id).Raw("labels", items + "]");
  return std::move(b).Build();
}

std::string CloseLine(const std::string& session) {
  JsonLineBuilder b;
  b.Str("cmd", "close").Str("session", session).Bool("discard", true);
  return std::move(b).Build();
}

SessionLog DriveSession(ServeClient* client, const SessionPlan& plan,
                        const Corpora& corpora, bool fetch_full) {
  SessionLog log;
  auto call = [&](const std::string& line) {
    ++log.attempted;
    Reply r = Call(client, line);
    log.ok += r.ok ? 1 : 0;
    return r;
  };
  const Clock::time_point t0 = Clock::now();
  call(OpenLine(plan));
  log.open_ms = Ms(t0, Clock::now());
  log.tops.push_back(RankingOf(call(RankLine(plan.id, kTopN)).doc));
  for (int round = 1; round <= kFeedbackRounds; ++round) {
    std::vector<Label> labels = OracleLabels(plan, log.tops.back(), corpora);
    const std::string line = FeedbackLine(plan, labels);
    const Clock::time_point r0 = Clock::now();
    call(line);
    Reply ranked = call(RankLine(plan.id, kTopN));
    log.round_ms.push_back(Ms(r0, Clock::now()));
    log.tops.push_back(RankingOf(ranked.doc));
    log.labels.push_back(std::move(labels));
  }
  log.busy_ms = Ms(t0, Clock::now());
  if (fetch_full) {
    const std::vector<RankedBag> full =
        RankingOf(call(RankLine(plan.id, -1)).doc);
    for (const RankedBag& item : full) {
      const std::string& camera =
          item.camera.empty() ? plan.cameras[0] : item.camera;
      log.final_relevance.push_back(TruthOf(corpora, camera, item.bag) ==
                                    BagLabel::kRelevant);
    }
    for (const std::string& camera : plan.cameras) {
      log.relevant += CountRelevant(corpora.at(camera)->truth);
    }
  }
  const Clock::time_point c0 = Clock::now();
  call(CloseLine(plan.id));
  log.busy_ms += Ms(c0, Clock::now());
  return log;
}

/// The one-process reference for a session: one RetrievalSession per
/// camera fed the same labels, per-camera top-20s merged by score desc,
/// camera asc, bag asc (the fleet's documented merge order).
class ReferenceSession {
 public:
  ReferenceSession(const SessionPlan& plan, const Corpora& corpora,
                   Tracer* t = nullptr)
      : plan_(plan), t_(t) {
    SessionOptions so = SessionOptionsFor(QueryOptions());
    so.top_n = kTopN;
    for (const std::string& camera : plan.cameras) {
      Scope s(t_, "retrieval.open");
      sessions_.emplace(camera,
                        RetrievalSession(corpora.at(camera)->dataset, so));
    }
  }

  std::vector<RankedBag> Top() const {
    std::vector<RankedBag> all;
    for (const auto& [camera, session] : sessions_) {
      std::vector<ScoredBag> top;
      {
        Scope s(t_, "retrieval.topk");
        top = session.CurrentTopK(kTopN);
      }
      for (const ScoredBag& b : top) {
        all.push_back({plan_.cameras.size() > 1 ? camera : "", b.bag_id, b.score});
      }
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const RankedBag& a, const RankedBag& b) {
                       if (a.score != b.score) return a.score > b.score;
                       if (a.camera != b.camera) return a.camera < b.camera;
                       return a.bag < b.bag;
                     });
    if (all.size() > static_cast<size_t>(kTopN)) all.resize(kTopN);
    return all;
  }

  bool Feedback(const std::vector<Label>& labels) {
    std::map<std::string, std::vector<std::pair<int, BagLabel>>> by_camera;
    for (const Label& l : labels) by_camera[l.camera].emplace_back(l.bag, l.label);
    bool ok = true;
    for (auto& [camera, list] : by_camera) {
      Scope s(t_, "retrieval.feedback");
      ok = sessions_.at(camera).SubmitFeedback(list).ok() && ok;
    }
    return ok;
  }

  void CountSvm(Tracer* t) const {
    for (const auto& [camera, session] : sessions_) {
      (void)camera;
      for (const MilRoundStats& r : session.engine().run_summary().rounds) {
        Count(t, "svm.smo_iters", r.smo_iterations);
        Count(t, "svm.support_vectors", static_cast<double>(r.support_vectors));
        Count(t, "svm.training_size", static_cast<double>(r.training_size));
        const double lookups = static_cast<double>(r.cache_hits + r.cache_misses);
        if (lookups > 0) {
          Count(t, "svm.cache_hit_ratio",
                static_cast<double>(r.cache_hits) / lookups);
        }
        Count(t, "svm.learn_ms", 1000.0 * r.learn_seconds);
      }
    }
  }

  /// Per-camera top-k lists in the cluster merger's input form.
  std::vector<std::vector<ClusterScoredBag>> Parts() const {
    std::vector<std::vector<ClusterScoredBag>> parts;
    for (const auto& [camera, session] : sessions_) {
      std::vector<ClusterScoredBag> part;
      for (const ScoredBag& b : session.CurrentTopK(kTopN)) {
        part.push_back({camera, b.bag_id, b.score});
      }
      parts.push_back(std::move(part));
    }
    return parts;
  }

 private:
  SessionPlan plan_;
  Tracer* t_;
  std::map<std::string, RetrievalSession> sessions_;
};

bool SameTop(const std::vector<RankedBag>& a, const std::vector<RankedBag>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].camera != b[i].camera || a[i].bag != b[i].bag ||
        a[i].score != b[i].score) {
      return false;
    }
  }
  return true;
}

bool ReplayMatches(const SessionPlan& plan, const SessionLog& log,
                   const Corpora& corpora) {
  ReferenceSession ref(plan, corpora);
  if (log.tops.size() != static_cast<size_t>(kFeedbackRounds) + 1) return false;
  if (!SameTop(ref.Top(), log.tops[0])) return false;
  for (int r = 0; r < kFeedbackRounds; ++r) {
    if (!ref.Feedback(log.labels[r])) return false;
    if (!SameTop(ref.Top(), log.tops[r + 1])) return false;
  }
  return true;
}

/// Session s covers the s-th (cyclically) of the camera subsets of size
/// `cameras_per_session`, so sessions differ in corpus and the quality
/// metrics average over many of them.
std::vector<SessionPlan> Plans(const Shape& shape, int count,
                               const std::string& prefix) {
  std::vector<std::vector<std::string>> subsets;
  for (unsigned mask = 0; mask < (1u << shape.cameras); ++mask) {
    if (std::popcount(mask) != shape.cameras_per_session) continue;
    std::vector<std::string> cameras;
    for (int c = 0; c < shape.cameras; ++c) {
      if (mask & (1u << c)) cameras.push_back(CameraName(c));
    }
    subsets.push_back(std::move(cameras));
  }
  std::vector<SessionPlan> plans;
  for (int s = 0; s < count; ++s) {
    plans.push_back({prefix + std::to_string(s), subsets[s % subsets.size()]});
  }
  return plans;
}

/// One session per camera (plain), or one spanning every camera (fleet):
/// opening these cold-loads every corpus.
std::vector<SessionPlan> AllCameraPlans(const Shape& shape,
                                        const std::string& prefix) {
  std::vector<std::string> all;
  for (int c = 0; c < shape.cameras; ++c) all.push_back(CameraName(c));
  if (shape.fleet) return {{prefix, all}};
  std::vector<SessionPlan> plans;
  for (const std::string& camera : all) plans.push_back({prefix + camera, {camera}});
  return plans;
}

// ---------------------------------------------------------------------------
// The deployment: one daemon, or a coordinator in front of two workers.

class Deployment {
 public:
  /// `traced` turns on the access logs and runs each daemon's requests
  /// on a two-thread pool, so the logged queue phase is exercised.
  Deployment(const Context& ctx, const Shape& shape, const std::string& dir,
             bool traced)
      : ctx_(ctx), shape_(shape), dir_(dir), traced_(traced) {}

  /// Starts the processes and waits until the front endpoint answers.
  bool Start() {
    const std::string db = dir_ + "/db";
    if (!shape_.fleet) {
      endpoint_ = dir_ + "/serve.sock";
      return StartServe(db, endpoint_, "") && WaitForEndpoint(endpoint_, 20000);
    }
    std::string workers;
    for (int w = 0; w < 2; ++w) {
      const std::string id = StrFormat("w%d", w);
      const std::string sock = StrFormat("%s/%s.sock", dir_.c_str(), id.c_str());
      if (!StartServe(db, sock, id)) return false;
      worker_endpoints_.push_back(sock);
      if (w > 0) workers += ',';
      workers += sock;
    }
    for (const std::string& sock : worker_endpoints_) {
      if (!WaitForEndpoint(sock, 20000)) return false;
    }
    endpoint_ = dir_ + "/coord.sock";
    std::vector<std::string> argv = {ctx_.cli, "coord", endpoint_,
                                     "--workers=" + workers};
    if (traced_) argv.push_back("--access-log=" + dir_ + "/coord.access");
    coord_ = std::make_unique<Child>();
    // The coordinator scatters with its own threads; give it two.
    if (!coord_->Start(argv, dir_ + "/coord.log", 2)) return false;
    return WaitForEndpoint(endpoint_, 20000);
  }

  double PeakRssMb() const {
    double total = coord_ ? coord_->PeakRssMb() : 0.0;
    for (const auto& child : servers_) total += child->PeakRssMb();
    return total;
  }

  void Stop() {
    if (coord_) ShutdownDaemon(endpoint_, coord_.get());
    const std::vector<std::string>& eps =
        shape_.fleet ? worker_endpoints_ : std::vector<std::string>{endpoint_};
    for (size_t i = 0; i < servers_.size(); ++i) {
      ShutdownDaemon(eps[i], servers_[i].get());
    }
  }

  const std::string& endpoint() const { return endpoint_; }
  std::string access_log(const std::string& node) const {
    return dir_ + "/" + node + ".access";
  }

 private:
  bool StartServe(const std::string& db, const std::string& sock,
                  const std::string& worker_id) {
    const std::string node = worker_id.empty() ? "serve" : worker_id;
    std::vector<std::string> argv = {ctx_.cli, "serve", db, sock};
    if (!worker_id.empty()) argv.push_back("--worker-id=" + worker_id);
    if (traced_) argv.push_back("--access-log=" + access_log(node));
    auto child = std::make_unique<Child>();
    if (!child->Start(argv, dir_ + "/" + node + ".log",
                      traced_ ? 2 : kServeThreads)) {
      return false;
    }
    servers_.push_back(std::move(child));
    return true;
  }

  const Context& ctx_;
  const Shape& shape_;
  std::string dir_;
  bool traced_;
  std::string endpoint_;
  std::vector<std::string> worker_endpoints_;
  std::vector<std::unique_ptr<Child>> servers_;
  std::unique_ptr<Child> coord_;
};

/// Set-up: database build, daemon start, cold corpus load (one session
/// opened and closed per camera, or one spanning every camera).
std::unique_ptr<Deployment> SetUp(const Context& ctx, const Shape& shape,
                                  const Inputs& in, const std::string& dir,
                                  bool traced, double* seconds) {
  RemoveTree(dir);
  mkdir(dir.c_str(), 0755);
  const Clock::time_point t0 = Clock::now();
  if (!WriteDb(dir + "/db", in, nullptr)) return nullptr;
  auto deployment = std::make_unique<Deployment>(ctx, shape, dir, traced);
  if (!deployment->Start()) return nullptr;
  Result<ServeClient> client = ServeClient::Connect(deployment->endpoint());
  if (!client.ok()) return nullptr;
  for (const SessionPlan& plan : AllCameraPlans(shape, "setup")) {
    if (!Call(&client.value(), OpenLine(plan)).ok) return nullptr;
    if (!Call(&client.value(), CloseLine(plan.id)).ok) return nullptr;
  }
  *seconds = Ms(t0, Clock::now()) / 1000.0;
  return deployment;
}

Corpora CorporaMap(const std::vector<CameraCorpus>& corpora) {
  Corpora map;
  for (const CameraCorpus& c : corpora) map[c.camera_id] = &c;
  return map;
}

bool RunServing(const Context& ctx, const Shape& shape, Report* report) {
  const Inputs in = Generate(shape, ctx.seed, nullptr);
  const std::vector<CameraCorpus> corpora = BuildCorpora(shape, in, nullptr);
  const Corpora by_camera = CorporaMap(corpora);
  const std::string base = ctx.work_dir + "/" + shape.name;

  std::vector<double> setup_s;
  std::unique_ptr<Deployment> live;
  for (int k = 0; k < shape.setup_repeats; ++k) {
    double seconds = 0.0;
    std::unique_ptr<Deployment> d =
        SetUp(ctx, shape, in, base + "-" + std::to_string(k), false, &seconds);
    if (d == nullptr) return false;
    setup_s.push_back(seconds);
    if (k + 1 < shape.setup_repeats) {
      d->Stop();
      RemoveTree(base + "-" + std::to_string(k));
    } else {
      live = std::move(d);
    }
  }
  sync();  // set-up's database writes must not flush during timed rounds
  Result<ServeClient> client = ServeClient::Connect(live->endpoint());
  if (!client.ok()) return false;

  // Warm-up, untimed: one full session per camera (or over all cameras).
  for (const SessionPlan& plan : AllCameraPlans(shape, "warm")) {
    (void)DriveSession(&client.value(), plan, by_camera, false);
  }

  // At least 25 sessions, so round_ms has >= 100 samples for its p90.
  const std::vector<SessionPlan> plans =
      Plans(shape, std::max(25, shape.sessions_per_second * ctx.seconds), "a");
  std::vector<SessionLog> logs;
  const double cpu0 = SelfCpuSeconds();
  double busy_ms = 0.0;
  for (const SessionPlan& plan : plans) {
    logs.push_back(DriveSession(&client.value(), plan, by_camera, true));
    busy_ms += logs.back().busy_ms;
  }
  const double generator_cpu_s = SelfCpuSeconds() - cpu0;
  const double rss_mb = live->PeakRssMb();
  live->Stop();

  bool all_match = true;
  int attempted = 0, ok = 0;
  std::vector<double> round_ms, open_ms;
  for (size_t i = 0; i < plans.size(); ++i) {
    const SessionLog& log = logs[i];
    all_match = all_match && ReplayMatches(plans[i], log, by_camera);
    attempted += log.attempted;
    ok += log.ok;
    round_ms.insert(round_ms.end(), log.round_ms.begin(), log.round_ms.end());
    open_ms.push_back(log.open_ms);
    report->Quality(log.final_relevance, log.relevant);
  }
  report->Check(shape.fleet ? "merged_top20_equals_one_process_union"
                            : "served_top20_equals_inprocess_session",
                all_match);
  report->Series("setup_s", setup_s);
  report->Num("timed_wall_s", busy_ms / 1000.0);
  report->Num("work_units", static_cast<double>(round_ms.size()));
  report->Str("work_unit", "feedback rounds");
  report->Series("latency_ms", round_ms);
  report->Str("latency_op", "round_ms");
  report->Series("open_ms", open_ms);
  report->Int("attempted", attempted);
  report->Int("ok", ok);
  report->Num("peak_rss_mb", rss_mb);
  report->Num("generator_cpu_s", generator_cpu_s);
  RemoveTree(base + "-" + std::to_string(shape.setup_repeats - 1));
  return true;
}

// ---------------------------------------------------------------------------
// Traced replays.

/// In-process replay of the serving path: set-up stages, the request
/// lines through RetrievalServer::HandleLine, and the same sessions on
/// RetrievalSession directly.
bool ReplayServing(const Context& ctx, const Shape& shape, Tracer* t,
                   std::vector<double>* handle_ms) {
  const Inputs in = Generate(shape, ctx.seed, t);
  const std::string dir = ctx.work_dir + "/" + shape.name + "-replay";
  bool all_ok = true;  // every in-process request answered ok
  {
    Scope s(t, "harness.fs");
    RemoveTree(dir);
    mkdir(dir.c_str(), 0755);
  }
  if (!WriteDb(dir + "/db", in, t)) return false;
  const std::vector<CameraCorpus> corpora = BuildCorpora(shape, in, t);
  const Corpora by_camera = CorporaMap(corpora);

  std::optional<Result<std::unique_ptr<VideoDb>>> db;
  {
    Scope s(t, "db.open");
    db.emplace(VideoDb::Open(dir + "/db", VideoDbOptions()));
  }
  if (!db->ok()) return false;
  {
    CorpusManager manager(db->value().get(), QueryOptions());
    for (int c = 0; c < shape.cameras; ++c) {
      {
        Scope s(t, "serve.snapshot_cold");
        if (!manager.Snapshot(CameraName(c)).ok()) return false;
      }
      Scope s(t, "serve.snapshot_warm");
      if (!manager.Snapshot(CameraName(c)).ok()) return false;
    }
  }

  const std::vector<SessionPlan> plans = Plans(shape, shape.trace_sessions, "t");
  // Server path, single-camera sessions only (a worker serves one corpus
  // per session; the fleet's sub-sessions look the same to it).
  if (!shape.fleet) {
    std::optional<RetrievalServer> server;
    {
      Scope s(t, "serve.lifecycle");
      server.emplace(db->value().get(), ServeOptions());
    }
    auto handle = [&](const std::string& line) {
      {
        Scope s(t, "serve.parse");
        (void)ParseServeRequest(line);
      }
      const Clock::time_point h0 = Clock::now();
      std::string response;
      {
        Scope s(t, "serve.handle");
        response = server->HandleLine(line);
      }
      if (handle_ms != nullptr) handle_ms->push_back(Ms(h0, Clock::now()));
      all_ok = all_ok && response.rfind("{\"ok\":true", 0) == 0;
      return response;
    };
    for (const SessionPlan& plan : plans) {
      handle(OpenLine(plan));
      std::vector<RankedBag> top;
      {
        const std::string response = handle(RankLine(plan.id, kTopN));
        Scope s(t, "gen.parse");
        top = RankingOf(ParseJson(response).value());
      }
      for (int r = 1; r <= kFeedbackRounds; ++r) {
        std::string line;
        {
          Scope s(t, "eval.oracle");
          line = FeedbackLine(plan, OracleLabels(plan, top, by_camera));
        }
        handle(line);
        const std::string response = handle(RankLine(plan.id, kTopN));
        Scope s(t, "gen.parse");
        top = RankingOf(ParseJson(response).value());
      }
      handle(CloseLine(plan.id));
    }
    Scope s(t, "serve.lifecycle");
    server.reset();
  }

  // Retrieval path: the same sessions on RetrievalSession directly.
  for (const SessionPlan& plan : plans) {
    ReferenceSession ref(plan, by_camera, t);
    std::vector<RankedBag> top = ref.Top();
    for (int r = 1; r <= kFeedbackRounds; ++r) {
      std::vector<Label> labels;
      {
        Scope s(t, "eval.oracle");
        labels = OracleLabels(plan, top, by_camera);
      }
      all_ok = ref.Feedback(labels) && all_ok;
      if (shape.fleet) {
        std::vector<std::vector<ClusterScoredBag>> parts;
        {
          Scope s(t, "retrieval.topk");
          parts = ref.Parts();
        }
        Scope s(t, "cluster.merge");
        (void)MergeTopK(parts, kTopN);
      }
      top = ref.Top();
    }
    if (t != nullptr) ref.CountSvm(t);
  }
  db.reset();
  Scope s(t, "harness.fs");
  RemoveTree(dir);
  return all_ok;
}

/// Socket pass of the traced run: the same sessions against the real
/// processes with access logs on, to split each request into transport,
/// queue, corpus, rank, serialize (and for the fleet, hop and skew).
bool SocketPass(const Context& ctx, const Shape& shape,
                const std::vector<double>& handle_ms, Tracer* t) {
  const Inputs in = Generate(shape, ctx.seed, nullptr);
  const std::vector<CameraCorpus> corpora = BuildCorpora(shape, in, nullptr);
  const Corpora by_camera = CorporaMap(corpora);
  const std::string dir = ctx.work_dir + "/" + shape.name + "-socket";
  double setup_s = 0.0;
  std::unique_ptr<Deployment> d = SetUp(ctx, shape, in, dir, true, &setup_s);
  if (d == nullptr) return false;
  Result<ServeClient> client = ServeClient::Connect(d->endpoint());
  if (!client.ok()) return false;

  std::vector<double> rtt_ms;
  std::vector<bool> in_round;  ///< feedback/rank (not open/close)
  auto timed_call = [&](const std::string& line, bool round) {
    const Clock::time_point c0 = Clock::now();
    Reply r = Call(&client.value(), line);
    rtt_ms.push_back(Ms(c0, Clock::now()));
    in_round.push_back(round);
    return r;
  };
  for (const SessionPlan& plan : Plans(shape, shape.trace_sessions, "t")) {
    timed_call(OpenLine(plan), false);
    std::vector<RankedBag> top =
        RankingOf(timed_call(RankLine(plan.id, kTopN), true).doc);
    for (int r = 1; r <= kFeedbackRounds; ++r) {
      timed_call(FeedbackLine(plan, OracleLabels(plan, top, by_camera)), true);
      top = RankingOf(timed_call(RankLine(plan.id, kTopN), true).doc);
    }
    timed_call(CloseLine(plan.id), false);
  }
  d->Stop();

  const std::string front = shape.fleet ? "coord" : "serve";
  std::vector<AccessEntry> log = ReadAccessLog(d->access_log(front));
  // Corpus time is averaged over every request, set-up's cold loads
  // included; the other phases over the rounds of the sessions above.
  for (const AccessEntry& e : log) Count(t, "serve.corpus_ms", e.corpus_ms);
  // The log starts with set-up's open/close; the last entries pair
  // one-to-one with the calls made above.
  if (log.size() < rtt_ms.size()) return false;
  log.erase(log.begin(), log.end() - rtt_ms.size());
  for (size_t i = 0; i < log.size(); ++i) {
    if (!in_round[i]) continue;
    Count(t, "serve.queue_ms", log[i].queue_ms);
    Count(t, "serve.rank_ms", log[i].rank_ms);
    Count(t, "serve.serialize_ms", log[i].serialize_ms);
  }
  if (!shape.fleet) {
    // Transport = socket round trip minus in-process HandleLine time of
    // the same request line on the same state. Open and close are
    // skipped: the replay's first open per camera also cold-loads the
    // corpus, which the socket pass did in set-up.
    for (size_t i = 0; i < rtt_ms.size() && i < handle_ms.size(); ++i) {
      if (in_round[i]) Count(t, "serve.transport_ms", rtt_ms[i] - handle_ms[i]);
    }
  } else {
    // The client is sequential, so the k-th coordinator rank of session
    // S caused the k-th rank of each sub-session "S-<camera>" on the
    // workers. Per worker, sum its sub-session ranks for that request.
    std::map<std::string, std::map<std::string, std::vector<double>>>
        sub_ranks;  // node -> sub-session -> rank total_ms in order
    for (const char* node : {"w0", "w1"}) {
      for (const AccessEntry& e : ReadAccessLog(d->access_log(node))) {
        if (e.cmd == "rank") sub_ranks[node][e.session].push_back(e.total_ms);
      }
    }
    std::map<std::string, size_t> seen;  // coordinator session -> ranks
    for (const AccessEntry& e : log) {
      if (e.cmd != "rank") continue;
      const size_t k = seen[e.session]++;
      std::vector<double> per_worker;
      for (const auto& [node, sessions] : sub_ranks) {
        (void)node;
        double ms = 0.0;
        bool any = false;
        for (const auto& [sub, totals] : sessions) {
          if (sub.rfind(e.session + "-", 0) == 0 && k < totals.size()) {
            ms += totals[k];
            any = true;
          }
        }
        if (any) per_worker.push_back(ms);
      }
      if (per_worker.empty()) continue;
      const auto [fastest, slowest] =
          std::minmax_element(per_worker.begin(), per_worker.end());
      Count(t, "cluster.hop_ms", e.total_ms - *slowest);
      Count(t, "cluster.worker_skew_ms", *slowest - *fastest);
    }
  }
  RemoveTree(dir);
  return true;
}

bool TraceServing(const Context& ctx, const Shape& shape, Report* report) {
  std::vector<double> handle_ms;  // from the traced pass only
  return TraceReplay(
      shape.name, report,
      [&](Tracer* t) {
        return ReplayServing(ctx, shape, t, t != nullptr ? &handle_ms : nullptr);
      },
      [&](Tracer* t) { return SocketPass(ctx, shape, handle_ms, t); });
}

}  // namespace

bool RunSessionInteractive(const Context& ctx, Report* report) {
  return RunServing(ctx, kSessionShape, report);
}

bool RunFleetMulticam(const Context& ctx, Report* report) {
  return RunServing(ctx, kFleetShape, report);
}

bool TraceSessionInteractive(const Context& ctx, Report* report) {
  return TraceServing(ctx, kSessionShape, report);
}

bool TraceFleetMulticam(const Context& ctx, Report* report) {
  return TraceServing(ctx, kFleetShape, report);
}

}  // namespace e2e
