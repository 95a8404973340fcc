// ingest_live: a daemon that starts from an empty database is fed
// distinct-seed clips as batched `ingest` requests; every clip is cut and
// published, and an analyst session refreshes and ranks after each
// publish. The only workload with a write path.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <optional>

#include "common/string_util.h"
#include "db/query_engine.h"
#include "db/video_db.h"
#include "eval/metrics.h"
#include "harness.h"
#include "ingest/camera_ingestor.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace e2e {

using namespace mivid;

namespace {

// Fixed work: a warm-up clip, then kClipsPerSecond clips per nominal
// second (at least 100, so freshness has >= 100 samples for its p90),
// each streamed, cut and published.
constexpr int kClipsPerSecond = 40;
constexpr int kClipFrames = 300;
constexpr int kBatchFrames = 100;
// Database creation + daemon start takes ~10 ms; a median over nine
// keeps process-start jitter out of setup_s.
constexpr int kSetupRepeats = 9;
constexpr int kTraceClips = 40;
const char* const kCamera = "live0";
const char* const kWatch = "watch";

struct StreamClip {
  GeneratedClip clip;
  std::vector<FrameObservations> frames;  ///< absolute stream frames
  std::vector<IncidentRecord> incidents;  ///< absolute stream frames
  int64_t observations = 0;
};

/// Clip 0 is the warm-up; clips 1..clips are timed.
std::vector<StreamClip> Generate(uint64_t seed, int clips) {
  std::vector<StreamClip> out;
  int offset = 0;
  for (int j = 0; j <= clips; ++j) {
    StreamClip s;
    s.clip.spec = MakeClipSpec(j % 2 ? "tunnel" : "intersection", kClipFrames,
                               MixSeed(seed, 30, j), true);
    s.clip.truth = TrafficWorld(s.clip.spec).Run();
    const GroundTruth& gt = s.clip.truth;
    s.frames.resize(gt.total_frames);
    for (int f = 0; f < gt.total_frames; ++f) s.frames[f].frame = offset + f;
    for (const Track& track : gt.tracks) {
      for (const TrackPoint& point : track.points) {
        if (point.frame < 0 || point.frame >= gt.total_frames) continue;
        TrackObservation obs;
        obs.track_id = track.id;
        obs.centroid = point.centroid;
        obs.bbox = point.bbox;
        s.frames[point.frame].observations.push_back(obs);
        ++s.observations;
      }
    }
    s.incidents = gt.incidents;
    for (IncidentRecord& incident : s.incidents) {
      incident.begin_frame += offset;
      incident.end_frame += offset;
    }
    offset += gt.total_frames;
    out.push_back(std::move(s));
  }
  return out;
}

std::string IngestLine(const std::vector<FrameObservations>& frames,
                       size_t begin, size_t end,
                       const std::vector<IncidentRecord>& incidents, bool last) {
  std::string line = "{\"cmd\":\"ingest\",\"v\":\"" +
                     std::string(kProtocolVersion) + "\",\"camera\":\"" +
                     kCamera + "\",\"frames\":[";
  for (size_t f = begin; f < end; ++f) {
    if (f > begin) line += ',';
    line += "{\"frame\":" + std::to_string(frames[f].frame) + ",\"obs\":[";
    for (size_t o = 0; o < frames[f].observations.size(); ++o) {
      const TrackObservation& obs = frames[f].observations[o];
      if (o > 0) line += ',';
      line += StrFormat(
          "{\"track\":%d,\"x\":%.17g,\"y\":%.17g,"
          "\"bbox\":[%.17g,%.17g,%.17g,%.17g]}",
          obs.track_id, obs.centroid.x, obs.centroid.y, obs.bbox.min_x,
          obs.bbox.min_y, obs.bbox.max_x, obs.bbox.max_y);
    }
    line += "]}";
  }
  line += "],\"incidents\":[";
  if (last) {
    for (size_t i = 0; i < incidents.size(); ++i) {
      if (i > 0) line += ',';
      line += StrFormat("{\"type\":\"%s\",\"begin\":%d,\"end\":%d,\"vehicles\":[",
                        IncidentTypeName(incidents[i].type),
                        incidents[i].begin_frame, incidents[i].end_frame);
      for (size_t v = 0; v < incidents[i].vehicle_ids.size(); ++v) {
        if (v > 0) line += ',';
        line += std::to_string(incidents[i].vehicle_ids[v]);
      }
      line += "]}";
    }
  }
  line += last ? "],\"cut\":true,\"publish\":true}" : "],\"cut\":false,\"publish\":false}";
  return line;
}

/// Request lines of one clip; the last one cuts and publishes it.
std::vector<std::string> ClipLines(const StreamClip& s) {
  std::vector<std::string> lines;
  for (size_t begin = 0; begin < s.frames.size(); begin += kBatchFrames) {
    const size_t end = std::min(s.frames.size(), begin + kBatchFrames);
    lines.push_back(IngestLine(s.frames, begin, end, s.incidents,
                               end == s.frames.size()));
  }
  return lines;
}

/// The batch reference: every clip the stream cut, as the daemon
/// persisted it, through ExtractClip + AppendClipBags in clip order.
/// (Persisted tracks, not the generator's: a track with a gap longer
/// than the retire window is split by the live track builder and its
/// late points dropped, by design; the check covers the extraction.)
Result<CameraCorpus> BatchCorpus(const std::string& db_path) {
  MIVID_ASSIGN_OR_RETURN(std::unique_ptr<VideoDb> db,
                         VideoDb::Open(db_path, VideoDbOptions()));
  const QueryOptions query;
  CameraCorpus corpus;
  corpus.camera_id = kCamera;
  int next_bag = 0;
  for (int clip_id : db->ClipsForCamera(kCamera)) {
    MIVID_ASSIGN_OR_RETURN(ClipRecord record, db->LoadClip(clip_id));
    AppendClipBags(ExtractClip(record, query), query, &corpus, &next_bag);
  }
  return corpus;
}

std::string SessionLine(const char* cmd, const char* session, int top = 0) {
  JsonLineBuilder b;
  b.Str("cmd", cmd).Str("session", session);
  if (std::string_view(cmd) == "open") b.Str("camera", kCamera);
  if (std::string_view(cmd) == "rank") b.Int("top", top);
  return std::move(b).Build();
}

/// Database creation + daemon start.
std::unique_ptr<Child> SetUp(const Context& ctx, const std::string& dir,
                             const std::string& endpoint, double* seconds) {
  RemoveTree(dir);
  mkdir(dir.c_str(), 0755);
  const Clock::time_point t0 = Clock::now();
  {
    VideoDbOptions options;
    options.create_if_missing = true;
    if (!VideoDb::Open(dir + "/db", options).ok()) return nullptr;
  }
  auto child = std::make_unique<Child>();
  if (!child->Start({ctx.cli, "serve", dir + "/db", endpoint}, dir + "/serve.log",
                    kServeThreads) ||
      !WaitForEndpoint(endpoint, 20000)) {
    return nullptr;
  }
  *seconds = Ms(t0, Clock::now()) / 1000.0;
  return child;
}

}  // namespace

bool RunIngestLive(const Context& ctx, Report* report) {
  const std::vector<StreamClip> clips =
      Generate(ctx.seed, std::max(100, kClipsPerSecond * ctx.seconds));
  std::vector<std::vector<std::string>> lines;
  for (const StreamClip& s : clips) lines.push_back(ClipLines(s));
  const std::string base = ctx.work_dir + "/ingest_live";

  std::vector<double> setup_s;
  std::unique_ptr<Child> daemon;
  std::string dir, endpoint;
  for (int k = 0; k < kSetupRepeats; ++k) {
    dir = base + "-" + std::to_string(k);
    endpoint = dir + "/serve.sock";
    double seconds = 0.0;
    daemon = SetUp(ctx, dir, endpoint, &seconds);
    if (daemon == nullptr) return false;
    setup_s.push_back(seconds);
    if (k + 1 < kSetupRepeats) {
      ShutdownDaemon(endpoint, daemon.get());
      RemoveTree(dir);
    }
  }
  sync();  // no set-up writes left to flush during the timed phase
  Result<ServeClient> connected = ServeClient::Connect(endpoint);
  if (!connected.ok()) return false;
  ServeClient* client = &connected.value();

  int attempted = 0, ok = 0;
  auto call = [&](const std::string& line) {
    ++attempted;
    Reply r = Call(client, line);
    ok += r.ok ? 1 : 0;
    return r;
  };
  // Warm-up, untimed: the first clip, then the watching session.
  for (const std::string& line : lines[0]) call(line);
  call(SessionLine("open", kWatch));
  size_t total = RankingOf(call(SessionLine("rank", kWatch, -1)).doc).size();

  const double cpu0 = SelfCpuSeconds();
  const Clock::time_point t0 = Clock::now();
  std::vector<double> freshness_ms;
  int64_t observations = 0;
  bool every_clip_listed = true;
  for (size_t j = 1; j < clips.size(); ++j) {
    for (size_t i = 0; i + 1 < lines[j].size(); ++i) call(lines[j][i]);
    const Clock::time_point f0 = Clock::now();
    call(lines[j].back());
    call(SessionLine("refresh", kWatch));
    const std::vector<RankedBag> ranking =
        RankingOf(call(SessionLine("rank", kWatch, -1)).doc);
    freshness_ms.push_back(Ms(f0, Clock::now()));
    // The refreshed ranking must list every bag of the new clip: the ids
    // continue where the previous epoch ended.
    std::vector<bool> seen(ranking.size(), false);
    for (const RankedBag& b : ranking) {
      if (b.bag >= 0 && static_cast<size_t>(b.bag) < seen.size()) seen[b.bag] = true;
    }
    bool listed = ranking.size() > total;
    for (size_t id = total; id < ranking.size(); ++id) listed = listed && seen[id];
    every_clip_listed = every_clip_listed && listed;
    total = ranking.size();
    observations += clips[j].observations;
  }
  const double wall_s = Ms(t0, Clock::now()) / 1000.0;
  const double generator_cpu_s = SelfCpuSeconds() - cpu0;

  // Final state: a fresh session's full ranking vs the batch reference.
  call(SessionLine("open", "final"));
  const std::vector<RankedBag> streamed =
      RankingOf(call(SessionLine("rank", "final", -1)).doc);
  const double rss_mb = daemon->PeakRssMb();
  ShutdownDaemon(endpoint, daemon.get());

  Result<CameraCorpus> reference = BatchCorpus(dir + "/db");
  if (!reference.ok()) return false;
  const CameraCorpus& batch = reference.value();
  const std::vector<ScoredBag> expected =
      RetrievalSession(batch.dataset, SessionOptionsFor(QueryOptions()))
          .CurrentRanking();
  bool same = streamed.size() == expected.size();
  for (size_t i = 0; same && i < expected.size(); ++i) {
    same = streamed[i].bag == expected[i].bag_id &&
           streamed[i].score == expected[i].score;
  }
  report->Check("every_publish_listed_by_refreshed_rank", every_clip_listed);
  report->Check("streamed_ranking_equals_batch_ExtractClip", same);
  std::vector<int> ids;
  for (const RankedBag& b : streamed) ids.push_back(b.bag);
  report->Quality(RelevanceOf(ids, batch.truth), CountRelevant(batch.truth));

  report->Series("setup_s", setup_s);
  report->Num("timed_wall_s", wall_s);
  report->Num("work_units", static_cast<double>(observations));
  report->Str("work_unit", "observations");
  report->Series("latency_ms", freshness_ms);
  report->Str("latency_op", "freshness_ms");
  report->Int("attempted", attempted);
  report->Int("ok", ok);
  report->Num("peak_rss_mb", rss_mb);
  report->Num("generator_cpu_s", generator_cpu_s);
  RemoveTree(dir);
  return true;
}

namespace {

/// In-process replay of the write path: CameraIngestor::Observe per frame,
/// Cut, CorpusManager::Publish, then refresh + full rank through the
/// server core, for the first kTraceClips clips.
bool ReplayIngest(const Context& ctx, const std::vector<StreamClip>& clips,
                  Tracer* t) {
  const std::string dir = ctx.work_dir + "/ingest_live-replay";
  auto db_bytes = [&] {
    Scope span(t, "harness.fs");
    return TreeBytes(dir + "/db");
  };
  {
    Scope span(t, "harness.fs");
    RemoveTree(dir);
    mkdir(dir.c_str(), 0755);
  }
  std::optional<Result<std::unique_ptr<VideoDb>>> db;
  {
    Scope span(t, "db.open");
    VideoDbOptions options;
    options.create_if_missing = true;
    db.emplace(VideoDb::Open(dir + "/db", options));
  }
  if (!db->ok()) return false;
  bool ok = true;
  {
    std::optional<RetrievalServer> owner;
    {
      Scope span(t, "serve.lifecycle");
      owner.emplace(db->value().get(), ServeOptions());
    }
    RetrievalServer& server = *owner;
    CameraIngestor ingestor(kCamera, db->value().get(), &server.corpora(),
                            IngestOptions());
    uint64_t bytes = db_bytes();
    for (size_t j = 0; j < clips.size() && ok; ++j) {
      const StreamClip& s = clips[j];
      int late = 0;
      for (const FrameObservations& frame : s.frames) {
        Scope span(t, "ingest.observe");
        Result<CameraIngestor::FrameResult> r = ingestor.Observe(frame);
        ok = ok && r.ok();
        if (r.ok()) late += r.value().late_observations;
      }
      Count(t, "ingest.late_observations", late);
      for (const IncidentRecord& incident : s.incidents) {
        Scope span(t, "ingest.observe");
        ok = ok && ingestor.AddIncident(incident.type, incident.begin_frame,
                                        incident.end_frame, incident.vehicle_ids)
                       .ok();
      }
      {
        Scope span(t, "ingest.cut");
        ok = ok && ingestor.Cut().ok();
      }
      {
        Scope span(t, "serve.publish");
        ok = ok && server.corpora().Publish(kCamera).ok();
      }
      const uint64_t now_bytes = db_bytes();
      Count(t, "db.bytes_written_per_clip", static_cast<double>(now_bytes - bytes));
      bytes = now_bytes;
      std::string response;
      if (j == 0) {
        Scope span(t, "serve.handle");
        response = server.HandleLine(SessionLine("open", kWatch));
      } else {
        Scope span(t, "serve.refresh");
        response = server.HandleLine(SessionLine("refresh", kWatch));
      }
      ok = ok && response.rfind("{\"ok\":true", 0) == 0;
      {
        Scope span(t, "serve.handle");
        response = server.HandleLine(SessionLine("rank", kWatch, -1));
      }
      Scope span(t, "gen.parse");
      ok = ok && ParseJson(response).ok();
    }
    Scope span(t, "serve.lifecycle");
    owner.reset();
  }
  db.reset();
  Scope span(t, "harness.fs");
  RemoveTree(dir);
  return ok;
}

}  // namespace

bool TraceIngestLive(const Context& ctx, Report* report) {
  const std::vector<StreamClip> clips = Generate(ctx.seed, kTraceClips);
  return TraceReplay("ingest_live", report, [&](Tracer* t) {
    return ReplayIngest(ctx, clips, t);
  });
}

}  // namespace e2e
