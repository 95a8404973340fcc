// mivid command-line tool: manage a surveillance video database, run
// retrieval sessions from the terminal, and host the mivid_serve daemon.
//
// Subcommands are table-driven (name, arg spec, help line, handler); run
// `mivid_cli help` for the list and `mivid_cli <command> --help` (or
// `mivid_cli help <command>`) for per-command details.

#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/supervisor.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "db/query_engine.h"
#include "db/video_db.h"
#include "eval/metrics.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/trace_stitch.h"
#include "retrieval/engine_registry.h"
#include "serve/client.h"
#include "serve/server.h"
#include "trafficsim/scenarios.h"

using namespace mivid;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// ---------------------------------------------------------------------------
// Argument helpers: positional args plus --flag / --flag=value parsing
// over the per-subcommand argument vector.

struct Args {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> flags;  // name -> value
  bool help = false;

  const std::string* Flag(std::string_view name) const {
    for (const auto& [flag, value] : flags) {
      if (flag == name) return &value;
    }
    return nullptr;
  }

  bool FlagInt(std::string_view name, int64_t* out) const {
    const std::string* value = Flag(name);
    if (value == nullptr) return true;  // absent: keep default
    return ParseInt64(*value, out);
  }
};

/// Splits raw argv words into positionals and --flag[=value] pairs.
/// Flags listed in `value_flags` consume the next word when written
/// without '='.
Args ParseArgs(const std::vector<std::string>& words,
               const std::vector<std::string>& value_flags) {
  Args args;
  for (size_t i = 0; i < words.size(); ++i) {
    const std::string& w = words[i];
    if (w == "--help" || w == "-h") {
      args.help = true;
    } else if (StartsWith(w, "--")) {
      const size_t eq = w.find('=');
      if (eq != std::string::npos) {
        args.flags.emplace_back(w.substr(2, eq - 2), w.substr(eq + 1));
      } else {
        std::string name = w.substr(2);
        bool wants_value = false;
        for (const std::string& vf : value_flags) {
          if (vf == name) wants_value = true;
        }
        if (wants_value && i + 1 < words.size()) {
          args.flags.emplace_back(std::move(name), words[++i]);
        } else {
          args.flags.emplace_back(std::move(name), "");
        }
      }
    } else {
      args.positional.push_back(w);
    }
  }
  return args;
}

Result<std::unique_ptr<VideoDb>> OpenDb(const std::string& path, bool create) {
  VideoDbOptions options;
  options.create_if_missing = create;
  return VideoDb::Open(path, options);
}

// ---------------------------------------------------------------------------
// Subcommand table.

struct Subcommand {
  const char* name;
  const char* arg_spec;  ///< e.g. "<db> <camera-id> [rounds]"
  const char* help;      ///< one-line summary for the command list
  const char* details;   ///< extra lines for per-command --help ("" = none)
  int (*run)(const Args& args);
};

const Subcommand* FindSubcommand(std::string_view name);
const std::vector<Subcommand>& Subcommands();

int PrintCommandHelp(const Subcommand& cmd) {
  std::printf("usage: mivid_cli %s %s\n  %s\n", cmd.name, cmd.arg_spec,
              cmd.help);
  if (cmd.details[0] != '\0') std::printf("%s", cmd.details);
  return 0;
}

int Usage() {
  std::fprintf(stderr, "usage: mivid_cli [--threads N] %s <command> ...\n",
               ObsFlagsHelp());
  for (const Subcommand& cmd : Subcommands()) {
    std::fprintf(stderr, "  mivid_cli %-8s %s\n      %s\n", cmd.name,
                 cmd.arg_spec, cmd.help);
  }
  std::fprintf(stderr,
               "run 'mivid_cli <command> --help' for command details\n");
  return 2;
}

int BadArgs(const Subcommand& cmd) {
  std::fprintf(stderr, "usage: mivid_cli %s %s\n", cmd.name, cmd.arg_spec);
  return 2;
}

// ---------------------------------------------------------------------------
// Command implementations.

int CmdInit(const Args& args) {
  if (args.positional.size() != 1) return BadArgs(*FindSubcommand("init"));
  Result<std::unique_ptr<VideoDb>> db = OpenDb(args.positional[0], true);
  if (!db.ok()) return Fail(db.status());
  std::printf("created database at %s\n", args.positional[0].c_str());
  return 0;
}

int CmdSimulate(const Args& args) {
  if (args.positional.size() < 3 || args.positional.size() > 4) {
    return BadArgs(*FindSubcommand("simulate"));
  }
  const std::string& path = args.positional[0];
  const std::string& kind = args.positional[1];
  const std::string& camera = args.positional[2];
  int frames = 0;
  if (args.positional.size() == 4) {
    int64_t v = 0;
    if (!ParseInt64(args.positional[3], &v) || v <= 0) {
      return BadArgs(*FindSubcommand("simulate"));
    }
    frames = static_cast<int>(v);
  }

  Result<std::unique_ptr<VideoDb>> db = OpenDb(path, true);
  if (!db.ok()) return Fail(db.status());

  ScenarioSpec scenario;
  if (kind == "tunnel") {
    TunnelScenarioOptions options;
    if (frames > 0) options.total_frames = frames;
    scenario = MakeTunnelScenario(options);
  } else if (kind == "intersection") {
    IntersectionScenarioOptions options;
    if (frames > 0) options.total_frames = frames;
    scenario = MakeIntersectionScenario(options);
  } else {
    return BadArgs(*FindSubcommand("simulate"));
  }

  TrafficWorld world(scenario);
  const GroundTruth gt = world.Run();
  ClipInfo info;
  info.camera_id = camera;
  info.location = scenario.name;
  info.total_frames = scenario.total_frames;
  info.scenario = scenario.name;
  Result<int> id = db.value()->IngestClip(info, gt.tracks, gt.incidents);
  if (!id.ok()) return Fail(id.status());
  std::printf(
      "ingested clip %d: %s scenario, %d frames, %zu tracks, %zu incidents\n",
      id.value(), scenario.name.c_str(), scenario.total_frames,
      gt.tracks.size(), gt.incidents.size());
  return 0;
}

int CmdList(const Args& args) {
  if (args.positional.size() != 1) return BadArgs(*FindSubcommand("list"));
  Result<std::unique_ptr<VideoDb>> db = OpenDb(args.positional[0], false);
  if (!db.ok()) return Fail(db.status());
  std::printf("%zu clip(s):\n", db.value()->clip_count());
  for (const ClipInfo& info : db.value()->ListClips()) {
    std::printf(
        "  clip %-3d camera=%-16s location=%-14s frames=%-6d scenario=%s\n",
        info.clip_id, info.camera_id.c_str(), info.location.c_str(),
        info.total_frames, info.scenario.c_str());
  }
  std::printf("cameras:\n");
  for (const std::string& cam : db.value()->Cameras()) {
    std::printf("  %s (%zu clips)\n", cam.c_str(),
                db.value()->ClipsForCamera(cam).size());
  }
  return 0;
}

int CmdQuery(const Args& args) {
  if (args.positional.size() < 2 || args.positional.size() > 3) {
    return BadArgs(*FindSubcommand("query"));
  }
  const std::string& path = args.positional[0];
  const std::string& camera = args.positional[1];
  int rounds = 3;
  if (args.positional.size() == 3) {
    int64_t v = 0;
    if (!ParseInt64(args.positional[2], &v)) {
      return BadArgs(*FindSubcommand("query"));
    }
    rounds = static_cast<int>(v);
  }

  Result<std::unique_ptr<VideoDb>> db = OpenDb(path, false);
  if (!db.ok()) return Fail(db.status());

  QueryOptions query;
  if (const std::string* engine_name = args.Flag("engine")) {
    if (!EngineRegistered(*engine_name)) {
      return Fail(Status::InvalidArgument(
          "unknown engine '" + *engine_name + "' (registered: " +
          Join(RegisteredEngineNames(), ", ") + ")"));
    }
    query.session.engine = *engine_name;
  }

  QueryEngine engine(db.value().get());
  Result<CameraCorpus> corpus = engine.BuildCorpus(camera, query);
  if (!corpus.ok()) return Fail(corpus.status());
  Result<RetrievalSession> session =
      RetrievalSession::Create(corpus->dataset, SessionOptionsFor(query));
  if (!session.ok()) return Fail(session.status());

  size_t relevant = 0;
  for (const auto& [id, label] : corpus->truth) {
    (void)id;
    relevant += label == BagLabel::kRelevant ? 1 : 0;
  }
  std::printf("accident query on %s (engine=%s): %zu windows, %zu relevant\n",
              camera.c_str(), std::string(session->engine().name()).c_str(),
              corpus->dataset.size(), relevant);

  const std::string engine_label(session->engine().name());
  for (int round = 0; round <= rounds; ++round) {
    const auto top = session->TopBags();
    const double acc = AccuracyAtN(top, corpus->truth, query.session.top_n);
    std::printf("round %d (%s): accuracy@%zu = %.0f%%  [", round,
                session->engine().trained() ? engine_label.c_str()
                                            : "heuristic",
                query.session.top_n, 100 * acc);
    for (size_t i = 0; i < top.size() && i < 10; ++i) {
      const auto& ref = corpus->bag_refs.at(top[i]);
      std::printf("%sclip%d@%d%s", i ? " " : "", ref.clip_id, ref.begin_frame,
                  corpus->truth.at(top[i]) == BagLabel::kRelevant ? "*" : "");
    }
    std::printf("%s]\n", top.size() > 10 ? " ..." : "");
    if (round == rounds) break;
    std::vector<std::pair<int, BagLabel>> feedback;
    for (int id : top) feedback.emplace_back(id, corpus->truth.at(id));
    const Status s = session->SubmitFeedback(feedback);
    if (!s.ok()) return Fail(s);
  }

  return 0;
}

int CmdEngines(const Args&) {
  for (const EngineRegistryEntry& entry : EngineRegistry()) {
    std::printf("  %-10s %s\n", entry.name, entry.description);
  }
  return 0;
}

int CmdSessions(const Args& args) {
  if (args.positional.size() != 1) return BadArgs(*FindSubcommand("sessions"));
  Result<std::unique_ptr<VideoDb>> db = OpenDb(args.positional[0], false);
  if (!db.ok()) return Fail(db.status());
  for (const std::string& name : db.value()->ListSessions()) {
    Result<SessionState> state = db.value()->LoadSession(name);
    if (state.ok()) {
      std::printf("  %-24s camera=%-16s engine=%-8s round=%d labels=%zu\n",
                  name.c_str(), state->camera_id.c_str(),
                  state->engine.c_str(), state->round, state->labels.size());
    } else {
      std::printf("  %-24s (unreadable: %s)\n", name.c_str(),
                  state.status().ToString().c_str());
    }
  }
  return 0;
}

volatile std::sig_atomic_t g_signal = 0;
void OnSignal(int) { g_signal = 1; }

/// "none" as a socket-path positional disables the Unix-domain listener
/// (TCP-only daemon).
std::string SocketPathArg(const std::string& arg) {
  return arg == "none" ? std::string() : arg;
}

// ---------------------------------------------------------------------------
// stream: replay a simulated scenario into a live daemon's ingest API.

/// Serializes one `ingest` request line. %.17g keeps every coordinate's
/// JSON round-trip bit-exact, so a streamed corpus matches a batch
/// rebuild bitwise (docs/ingest.md).
std::string IngestRequestLine(const std::string& camera,
                              const std::vector<FrameObservations>& frames,
                              const std::vector<IncidentRecord>& incidents,
                              bool cut, bool publish) {
  std::string line = "{\"cmd\":\"ingest\",\"v\":\"" +
                     std::string(kProtocolVersion) + "\",\"camera\":\"" +
                     JsonEscape(camera) + "\",\"frames\":[";
  for (size_t f = 0; f < frames.size(); ++f) {
    if (f > 0) line += ',';
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
  for (size_t i = 0; i < incidents.size(); ++i) {
    if (i > 0) line += ',';
    line += StrFormat(
        "{\"type\":\"%s\",\"begin\":%d,\"end\":%d,\"vehicles\":[",
        IncidentTypeName(incidents[i].type), incidents[i].begin_frame,
        incidents[i].end_frame);
    for (size_t v = 0; v < incidents[i].vehicle_ids.size(); ++v) {
      if (v > 0) line += ',';
      line += std::to_string(incidents[i].vehicle_ids[v]);
    }
    line += "]}";
  }
  line += "],\"cut\":";
  line += cut ? "true" : "false";
  line += ",\"publish\":";
  line += publish ? "true" : "false";
  line += "}";
  return line;
}

int CmdStream(const Args& args) {
  if (args.positional.size() != 2) return BadArgs(*FindSubcommand("stream"));
  const std::string& endpoint = args.positional[0];
  const std::string& camera = args.positional[1];

  std::string scenario = "tunnel";
  if (const std::string* s = args.Flag("scenario")) scenario = *s;
  if (scenario != "tunnel" && scenario != "intersection") {
    return BadArgs(*FindSubcommand("stream"));
  }
  int64_t clips = 1, frames = 600, batch = 50, seed = 2026;
  int64_t frame_offset = 0;
  if (!args.FlagInt("clips", &clips) || clips < 1 ||
      !args.FlagInt("frames", &frames) || frames < 1 ||
      !args.FlagInt("batch", &batch) || batch < 1 ||
      !args.FlagInt("seed", &seed) ||
      !args.FlagInt("frame-offset", &frame_offset) || frame_offset < 0) {
    return BadArgs(*FindSubcommand("stream"));
  }
  const bool publish = args.Flag("no-publish") == nullptr;

  Result<ServeClient> client = ServeClient::Connect(endpoint);
  if (!client.ok()) return Fail(client.status());

  // Stream frames must ascend across the camera's whole lifetime, so a
  // follow-up invocation against the same camera needs --frame-offset
  // set past the frames already ingested.
  int offset = static_cast<int>(frame_offset);
  for (int64_t c = 0; c < clips; ++c) {
    // One simulated clip per iteration, seeds varied so clips differ.
    ScenarioSpec spec;
    if (scenario == "tunnel") {
      TunnelScenarioOptions options;
      options.total_frames = static_cast<int>(frames);
      options.seed = static_cast<uint64_t>(seed) + c;
      spec = MakeTunnelScenario(options);
    } else {
      IntersectionScenarioOptions options;
      options.total_frames = static_cast<int>(frames);
      options.seed = static_cast<uint64_t>(seed) + c;
      spec = MakeIntersectionScenario(options);
    }
    TrafficWorld world(spec);
    const GroundTruth gt = world.Run();

    // Per-frame observation replay, shifted into absolute stream frames.
    std::vector<FrameObservations> stream(gt.total_frames);
    for (int f = 0; f < gt.total_frames; ++f) stream[f].frame = offset + f;
    for (const Track& track : gt.tracks) {
      for (const TrackPoint& point : track.points) {
        if (point.frame < 0 || point.frame >= gt.total_frames) continue;
        TrackObservation obs;
        obs.track_id = track.id;
        obs.centroid = point.centroid;
        obs.bbox = point.bbox;
        stream[point.frame].observations.push_back(obs);
      }
    }
    std::vector<IncidentRecord> incidents = gt.incidents;
    for (IncidentRecord& incident : incidents) {
      incident.begin_frame += offset;
      incident.end_frame += offset;
    }

    // Ship the clip in frame batches; incidents + cut ride the last one.
    for (size_t begin = 0; begin < stream.size();
         begin += static_cast<size_t>(batch)) {
      const size_t end =
          std::min(stream.size(), begin + static_cast<size_t>(batch));
      const bool last = end == stream.size();
      const std::vector<FrameObservations> chunk(stream.begin() + begin,
                                                 stream.begin() + end);
      const std::string request = IngestRequestLine(
          camera, chunk, last ? incidents : std::vector<IncidentRecord>{},
          /*cut=*/last, /*publish=*/last && publish);
      Result<std::string> response = client.value().Call(request);
      if (!response.ok()) return Fail(response.status());
      Result<JsonValue> doc = ParseJson(response.value());
      if (!doc.ok()) return Fail(doc.status());
      const JsonValue* ok = doc.value().Find("ok");
      if (ok == nullptr || ok->type != JsonValue::Type::kBool ||
          !ok->bool_value) {
        std::fprintf(stderr, "error: %s\n", response.value().c_str());
        return 1;
      }
      if (last) std::printf("%s\n", response.value().c_str());
    }
    offset += gt.total_frames;
  }
  std::fflush(stdout);
  return 0;
}

int CmdServe(const Args& args) {
  if (args.positional.size() != 2) return BadArgs(*FindSubcommand("serve"));
  Result<std::unique_ptr<VideoDb>> db = OpenDb(args.positional[0], false);
  if (!db.ok()) return Fail(db.status());

  ServeOptions options;
  options.socket_path = SocketPathArg(args.positional[1]);
  if (const std::string* engine_name = args.Flag("engine")) {
    if (!EngineRegistered(*engine_name)) {
      return Fail(Status::InvalidArgument(
          "unknown engine '" + *engine_name + "' (registered: " +
          Join(RegisteredEngineNames(), ", ") + ")"));
    }
    options.default_engine = *engine_name;
  }
  int64_t v = 0;
  if (!args.FlagInt("max-pending", &v)) return BadArgs(*FindSubcommand("serve"));
  if (v > 0) options.max_pending = static_cast<size_t>(v);
  v = 0;
  if (!args.FlagInt("max-sessions", &v)) {
    return BadArgs(*FindSubcommand("serve"));
  }
  if (v > 0) options.max_sessions = static_cast<size_t>(v);
  v = 0;
  if (!args.FlagInt("idle-timeout-ms", &v)) {
    return BadArgs(*FindSubcommand("serve"));
  }
  if (v > 0) options.idle_timeout_ms = v;
  v = 0;
  if (!args.FlagInt("top", &v)) return BadArgs(*FindSubcommand("serve"));
  if (v > 0) options.top_n = static_cast<size_t>(v);
  if (const std::string* dir = args.Flag("snapshot-dir")) {
    options.corpus_snapshot_dir = *dir;
  }
  // --tcp-port admits 0 (kernel-assigned), so presence matters, not sign.
  if (args.Flag("tcp-port") != nullptr) {
    v = -1;
    if (!args.FlagInt("tcp-port", &v) || v < 0) {
      return BadArgs(*FindSubcommand("serve"));
    }
    options.tcp_port = static_cast<int>(v);
  }
  if (const std::string* host = args.Flag("tcp-host")) {
    options.tcp_host = *host;
  }
  if (const std::string* id = args.Flag("worker-id")) {
    options.worker_id = *id;
  }
  if (const std::string* path = args.Flag("access-log")) {
    options.access_log_path = *path;
  }
  if (const std::string* path = args.Flag("slow-log")) {
    options.slow_log_path = *path;
  }
  if (args.Flag("slow-ms") != nullptr) {
    v = -1;
    if (!args.FlagInt("slow-ms", &v) || v < 0) {
      return BadArgs(*FindSubcommand("serve"));
    }
    options.slow_threshold_ms = static_cast<double>(v);
  }

  // Fail fast on inconsistent options before any socket is bound.
  const Status valid = ValidateServeOptions(options);
  if (!valid.ok()) return Fail(valid);

  // Tag this process's log lines and trace export with its fleet role.
  SetLogIdentity(options.worker_id.empty() ? "serve" : options.worker_id);

  RetrievalServer server(db.value().get(), options);
  const Status started = server.Start();
  if (!started.ok()) return Fail(started);
  std::printf("mivid_serve on %s (engine=%s, max_pending=%zu, "
              "max_sessions=%zu)\n",
              options.socket_path.empty() ? "(no socket)"
                                          : options.socket_path.c_str(),
              options.default_engine.c_str(), options.max_pending,
              options.max_sessions);
  if (server.tcp_port() >= 0) {
    // The resolved port line is what scripts grep when they ask for an
    // ephemeral port with --tcp-port=0.
    std::printf("mivid_serve tcp_port=%d\n", server.tcp_port());
  }
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (g_signal == 0 && !server.WaitForShutdownFor(200)) {
  }
  std::printf("mivid_serve: shutting down (%s)\n",
              g_signal != 0 ? "signal" : "shutdown command");
  server.Stop();
  return 0;
}

int CmdCoord(const Args& args) {
  if (args.positional.size() != 1) return BadArgs(*FindSubcommand("coord"));

  CoordinatorOptions options;
  options.socket_path = SocketPathArg(args.positional[0]);
  const std::string* workers = args.Flag("workers");
  int64_t spawn_workers = 0;
  if (!args.FlagInt("spawn-workers", &spawn_workers) || spawn_workers < 0) {
    return BadArgs(*FindSubcommand("coord"));
  }
  // Worker endpoints come from --workers, from the supervisor
  // (--spawn-workers), or both.
  if (workers == nullptr && spawn_workers == 0) {
    return BadArgs(*FindSubcommand("coord"));
  }
  if (workers != nullptr) {
    for (const std::string& endpoint : Split(*workers, ',')) {
      if (!endpoint.empty()) options.workers.push_back(endpoint);
    }
  }
  int64_t v = 0;
  if (!args.FlagInt("top", &v)) return BadArgs(*FindSubcommand("coord"));
  if (v > 0) options.top_n = static_cast<int>(v);
  if (args.Flag("tcp-port") != nullptr) {
    v = -1;
    if (!args.FlagInt("tcp-port", &v) || v < 0) {
      return BadArgs(*FindSubcommand("coord"));
    }
    options.tcp_port = static_cast<int>(v);
  }
  if (const std::string* host = args.Flag("tcp-host")) {
    options.tcp_host = *host;
  }
  v = 0;
  if (!args.FlagInt("heartbeat-ms", &v)) return BadArgs(*FindSubcommand("coord"));
  if (v > 0) options.heartbeat_ms = static_cast<int>(v);
  v = 0;
  if (!args.FlagInt("vnodes", &v)) return BadArgs(*FindSubcommand("coord"));
  if (v > 0) options.virtual_nodes = static_cast<size_t>(v);
  if (const std::string* path = args.Flag("access-log")) {
    options.access_log_path = *path;
  }
  if (const std::string* path = args.Flag("slow-log")) {
    options.slow_log_path = *path;
  }
  if (args.Flag("slow-ms") != nullptr) {
    v = -1;
    if (!args.FlagInt("slow-ms", &v) || v < 0) {
      return BadArgs(*FindSubcommand("coord"));
    }
    options.slow_threshold_ms = static_cast<double>(v);
  }
  if (args.Flag("rpc-deadline-ms") != nullptr) {
    v = -1;
    if (!args.FlagInt("rpc-deadline-ms", &v) || v < 0) {
      return BadArgs(*FindSubcommand("coord"));
    }
    options.rpc_deadline_ms = static_cast<int>(v);
  }
  v = 0;
  if (!args.FlagInt("replication", &v) || v < 0) {
    return BadArgs(*FindSubcommand("coord"));
  }
  if (v > 0) options.replication = static_cast<int>(v);

  SetLogIdentity("coord");

  // --spawn-workers=N: this process owns its workers. They are spawned
  // before the coordinator dials (their endpoints join the fleet), and
  // the serving loop doubles as the supervision loop.
  std::unique_ptr<WorkerSupervisor> supervisor;
  if (spawn_workers > 0) {
    const std::string* db = args.Flag("db");
    if (db == nullptr) {
      std::fprintf(stderr,
                   "error: --spawn-workers needs --db=<database>\n");
      return BadArgs(*FindSubcommand("coord"));
    }
    SupervisorOptions sup;
    char exe[4096];
    const ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (n <= 0) {
      return Fail(Status::IOError("cannot resolve own binary path"));
    }
    exe[n] = '\0';
    sup.cli_path = exe;
    sup.db_path = *db;
    sup.count = static_cast<int>(spawn_workers);
    if (const std::string* dir = args.Flag("worker-log-dir")) {
      sup.log_dir = *dir;
    }
    supervisor = std::make_unique<WorkerSupervisor>(std::move(sup));
    const Status spawned = supervisor->SpawnAll();
    if (!spawned.ok()) return Fail(spawned);
    for (std::string& endpoint : supervisor->endpoints()) {
      options.workers.push_back(std::move(endpoint));
    }
    // Supervised restarts only rejoin the ring through the heartbeat, so
    // force one on if the user did not configure it.
    if (options.heartbeat_ms == 0) options.heartbeat_ms = 500;
  }

  const Status valid = ValidateCoordinatorOptions(options);
  if (!valid.ok()) return Fail(valid);

  Coordinator coord(options);
  const Status started = coord.Start();
  if (!started.ok()) return Fail(started);
  std::printf("mivid_coord on %s fronting %zu worker(s)\n",
              options.socket_path.empty() ? "(no socket)"
                                          : options.socket_path.c_str(),
              options.workers.size());
  if (coord.tcp_port() >= 0) {
    std::printf("mivid_coord tcp_port=%d\n", coord.tcp_port());
  }
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (g_signal == 0 && !coord.WaitForShutdownFor(200)) {
    if (supervisor != nullptr) supervisor->Sweep();
  }
  std::printf("mivid_coord: shutting down (%s)\n",
              g_signal != 0 ? "signal" : "shutdown command");
  coord.Stop();
  if (supervisor != nullptr) supervisor->StopAll();
  return 0;
}

// ---------------------------------------------------------------------------
// Fleet dashboard (top) and trace stitching (trace-merge).

/// Descends `path` of object keys from `v`; nullptr when any hop is
/// missing or not an object.
const JsonValue* JsonDescend(const JsonValue* v,
                             std::initializer_list<const char*> path) {
  for (const char* key : path) {
    if (v == nullptr) return nullptr;
    v = v->Find(key);
  }
  return v;
}

double JsonNumberOr(const JsonValue* v, double fallback) {
  return v != nullptr && v->is_number() ? v->number : fallback;
}

int CmdTop(const Args& args) {
  if (args.positional.size() != 1) return BadArgs(*FindSubcommand("top"));
  int64_t interval_ms = 2000;
  int64_t iterations = 0;
  if (!args.FlagInt("interval-ms", &interval_ms) || interval_ms <= 0) {
    return BadArgs(*FindSubcommand("top"));
  }
  if (!args.FlagInt("iterations", &iterations) || iterations < 0) {
    return BadArgs(*FindSubcommand("top"));
  }

  Result<ServeClient> client = ServeClient::Connect(args.positional[0]);
  if (!client.ok()) return Fail(client.status());

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  const bool tty = isatty(1) != 0;
  // Previous poll's lifetime request counters, for interval QPS.
  std::map<std::string, double> last_requests;
  auto last_poll = std::chrono::steady_clock::now();

  for (int64_t iter = 0; iterations == 0 || iter < iterations; ++iter) {
    if (iter > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      if (g_signal != 0) break;
    }
    Result<JsonValue> doc =
        client.value().CallJson("{\"cmd\":\"cluster_stats\"}");
    if (!doc.ok()) return Fail(doc.status());
    const JsonValue* ok = doc.value().Find("ok");
    if (ok == nullptr || ok->type != JsonValue::Type::kBool ||
        !ok->bool_value) {
      const JsonValue* error = doc.value().Find("error");
      return Fail(Status::Internal(
          "cluster_stats failed: " +
          (error != nullptr && error->is_string() ? error->string
                                                  : std::string("?"))));
    }
    const auto now = std::chrono::steady_clock::now();
    const double elapsed_s =
        std::chrono::duration<double>(now - last_poll).count();
    last_poll = now;

    if (tty && iter > 0) std::printf("\033[H\033[J");
    const JsonValue* fleet_hist = JsonDescend(
        &doc.value(), {"fleet", "histograms", "serve/request_seconds"});
    std::printf(
        "mivid top  workers_alive=%.0f  fleet p50=%.1fms p99=%.1fms\n",
        JsonNumberOr(doc.value().Find("workers_alive"), 0),
        1000 * JsonNumberOr(JsonDescend(fleet_hist, {"p50"}), 0),
        1000 * JsonNumberOr(JsonDescend(fleet_hist, {"p99"}), 0));
    std::printf("%-14s %-6s %8s %8s %8s %6s %7s %6s\n", "WORKER", "ALIVE",
                "QPS", "P50MS", "P99MS", "SESS", "CACHE%", "SNAP");

    const JsonValue* workers = doc.value().Find("workers");
    if (workers != nullptr && workers->is_array()) {
      for (const JsonValue& worker : workers->array) {
        const JsonValue* id = worker.Find("worker_id");
        const JsonValue* endpoint = worker.Find("endpoint");
        const std::string name =
            id != nullptr && id->is_string() && !id->string.empty()
                ? id->string
            : endpoint != nullptr && endpoint->is_string()
                ? endpoint->string
                : "?";
        const JsonValue* alive = worker.Find("alive");
        const bool is_alive = alive != nullptr &&
                              alive->type == JsonValue::Type::kBool &&
                              alive->bool_value;
        if (!is_alive) {
          std::printf("%-14s %-6s\n", name.c_str(), "no");
          continue;
        }
        const double requests = JsonNumberOr(
            JsonDescend(&worker, {"metrics", "counters", "serve/requests"}),
            0);
        double qps = 0;
        if (auto it = last_requests.find(name);
            it != last_requests.end() && elapsed_s > 0) {
          qps = (requests - it->second) / elapsed_s;
          if (qps < 0) qps = 0;  // worker restarted between polls
        }
        last_requests[name] = requests;
        const JsonValue* hist = JsonDescend(
            &worker, {"metrics", "histograms", "serve/request_seconds"});
        const double hits = JsonNumberOr(
            JsonDescend(&worker,
                        {"metrics", "counters", "serve/corpus_cache_hits"}),
            0);
        const double misses = JsonNumberOr(
            JsonDescend(&worker,
                        {"metrics", "counters", "serve/corpus_cache_misses"}),
            0);
        const double lookups = hits + misses;
        std::printf(
            "%-14s %-6s %8.1f %8.1f %8.1f %6.0f %7.1f %6.0f\n", name.c_str(),
            "yes", qps, 1000 * JsonNumberOr(JsonDescend(hist, {"p50"}), 0),
            1000 * JsonNumberOr(JsonDescend(hist, {"p99"}), 0),
            JsonNumberOr(worker.Find("sessions_open"), 0),
            lookups > 0 ? 100 * hits / lookups : 0,
            JsonNumberOr(
                JsonDescend(&worker, {"metrics", "counters",
                                      "serve/corpus_snapshot_hits"}),
                0));
      }
    }
    // Robustness counters live in the coordinator's own registry (a
    // single worker's cluster_stats has no "coordinator" member).
    if (const JsonValue* coord = doc.value().Find("coordinator");
        coord != nullptr && coord->is_object()) {
      std::printf(
          "coord: deadline_misses=%.0f hedged_ranks=%.0f degraded=%.0f "
          "worker_restarts=%.0f failovers=%.0f\n",
          JsonNumberOr(JsonDescend(coord, {"counters",
                                           "cluster/deadline_misses"}),
                       0),
          JsonNumberOr(
              JsonDescend(coord, {"counters", "cluster/hedged_ranks"}), 0),
          JsonNumberOr(JsonDescend(coord, {"counters",
                                           "cluster/degraded_responses"}),
                       0),
          JsonNumberOr(JsonDescend(coord, {"counters",
                                           "cluster/worker_restarts"}),
                       0),
          JsonNumberOr(JsonDescend(coord, {"counters",
                                           "cluster/sessions_failed_over"}),
                       0));
    }
    std::fflush(stdout);
  }
  return 0;
}

Result<std::string> ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  std::string data;
  char buffer[1 << 16];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    data.append(buffer, n);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Status::IOError("read of " + path + " failed");
  return data;
}

int CmdTraceMerge(const Args& args) {
  if (args.positional.size() < 2) {
    return BadArgs(*FindSubcommand("trace-merge"));
  }
  const std::string& out_path = args.positional[0];
  std::vector<ProcessTrace> inputs;
  inputs.reserve(args.positional.size() - 1);
  for (size_t i = 1; i < args.positional.size(); ++i) {
    const std::string& path = args.positional[i];
    Result<std::string> data = ReadWholeFile(path);
    if (!data.ok()) return Fail(data.status());
    Result<JsonValue> doc = ParseJson(data.value());
    if (!doc.ok()) {
      return Fail(Status::Corruption(path + ": " +
                                     doc.status().message()));
    }
    ProcessTrace input;
    // Label falls back to the file name (sans directory and .json); the
    // trace's own clock_sync process name wins when present.
    const size_t slash = path.find_last_of('/');
    input.label =
        slash == std::string::npos ? path : path.substr(slash + 1);
    if (input.label.size() > 5 &&
        input.label.compare(input.label.size() - 5, 5, ".json") == 0) {
      input.label.resize(input.label.size() - 5);
    }
    input.doc = std::move(doc).value();
    inputs.push_back(std::move(input));
  }
  Result<std::string> stitched = StitchChromeTraces(inputs);
  if (!stitched.ok()) return Fail(stitched.status());
  std::FILE* f = std::fopen(out_path.c_str(), "wb");
  if (f == nullptr) {
    return Fail(Status::IOError("cannot open " + out_path));
  }
  const size_t written =
      std::fwrite(stitched.value().data(), 1, stitched.value().size(), f);
  std::fclose(f);
  if (written != stitched.value().size()) {
    return Fail(Status::IOError("write of " + out_path + " failed"));
  }
  std::printf("stitched %zu trace(s) into %s\n", inputs.size(),
              out_path.c_str());
  return 0;
}

const std::vector<Subcommand>& Subcommands() {
  static const std::vector<Subcommand> kCommands = {
      {"init", "<db>", "create an empty database", "", CmdInit},
      {"simulate", "<db> <tunnel|intersection> <camera-id> [frames]",
       "simulate a traffic scenario and ingest it as a clip",
       "  tunnel        straight road, stalled-vehicle incidents\n"
       "  intersection  crossing roads, accident incidents\n",
       CmdSimulate},
      {"list", "<db>", "show catalog and cameras", "", CmdList},
      {"query", "<db> <camera-id> [rounds] [--engine=<name>]",
       "run an accident query with oracle feedback",
       "  --engine=<name>  retrieval engine for the session\n"
       "                   (see 'mivid_cli engines'; default milrf)\n",
       CmdQuery},
      {"sessions", "<db>", "list journaled retrieval sessions", "",
       CmdSessions},
      {"engines", "", "list registered retrieval engines", "", CmdEngines},
      {"serve", "<db> <socket-path|none> [flags]",
       "host the retrieval daemon (worker) on a Unix socket and/or TCP",
       "  --engine=<name>       default engine for new sessions (milrf)\n"
       "  --max-pending=N       in-flight request bound before\n"
       "                        RESOURCE_EXHAUSTED backpressure (64)\n"
       "  --max-sessions=N      live session bound (64)\n"
       "  --idle-timeout-ms=N   journal + evict idle sessions (off)\n"
       "  --top=N               results per round (20)\n"
       "  --snapshot-dir=<dir>  cache packed corpus snapshots here for\n"
       "                        zero-copy mmap loads on later starts\n"
       "  --tcp-port=N          also listen on TCP (0 = kernel-assigned;\n"
       "                        the bound port is printed at startup)\n"
       "  --tcp-host=<addr>     TCP bind address (127.0.0.1)\n"
       "  --worker-id=<id>      fleet identity reported by ping/stats\n"
       "  --access-log=<file>   per-request JSON-lines access log\n"
       "  --slow-log=<file>     requests over the slow threshold\n"
       "  --slow-ms=N           slow threshold in ms (default\n"
       "                        MIVID_SLOW_QUERY_MS or 500)\n"
       "  stops on SIGINT/SIGTERM or a {\"cmd\":\"shutdown\"} request;\n"
       "  sessions are journaled to the database either way\n",
       CmdServe},
      {"stream", "<endpoint> <camera-id> [flags]",
       "replay a simulated scenario into a live daemon's ingest API",
       "  --scenario=<name>  tunnel or intersection (tunnel)\n"
       "  --clips=N          clips to stream, cut after each (1)\n"
       "  --frames=N         frames per clip (600)\n"
       "  --batch=N          frames per ingest request (50)\n"
       "  --seed=N           simulation seed, +1 per clip (2026)\n"
       "  --frame-offset=N   first absolute stream frame (0); set past\n"
       "                     frames already ingested when re-invoking\n"
       "                     against the same camera\n"
       "  --no-publish       stage cut clips without publishing a new\n"
       "                     corpus epoch (publish by default)\n"
       "  streams per-frame track observations as ingest requests, so\n"
       "  the camera becomes searchable while 'video' is still arriving;\n"
       "  each clip's incidents are annotated on its final request\n",
       CmdStream},
      {"coord", "<socket-path|none> --workers=<ep,ep,...> [flags]",
       "front a worker fleet with the cluster coordinator",
       "  --workers=<eps>       comma-separated worker endpoints\n"
       "                        (host:port or socket paths); required\n"
       "                        unless --spawn-workers is given\n"
       "  --spawn-workers=N     fork/exec N supervised workers on\n"
       "                        ephemeral ports (needs --db); crashed\n"
       "                        workers restart with capped backoff\n"
       "  --db=<database>       database the spawned workers serve\n"
       "  --worker-log-dir=<d>  spawned workers' stdout/stderr logs (.)\n"
       "  --top=N               default rank depth (20)\n"
       "  --tcp-port=N          also listen on TCP (0 = kernel-assigned)\n"
       "  --tcp-host=<addr>     TCP bind address (127.0.0.1)\n"
       "  --heartbeat-ms=N      probe workers every N ms and re-admit\n"
       "                        restarted ones (off: lazy failover only;\n"
       "                        forced to 500 under --spawn-workers)\n"
       "  --vnodes=N            placement-ring points per worker (64)\n"
       "  --rpc-deadline-ms=N   per-hop worker call budget; a worker\n"
       "                        that misses it is failed over like a\n"
       "                        dead one (30000; 0 = unbounded)\n"
       "  --replication=R       open each camera's session on R distinct\n"
       "                        workers; rank is served by the fastest\n"
       "                        live replica with hedged retry (1)\n"
       "  --access-log=<file>   per-request JSON-lines access log\n"
       "  --slow-log=<file>     requests over the slow threshold\n"
       "  --slow-ms=N           slow threshold in ms (default\n"
       "                        MIVID_SLOW_QUERY_MS or 500)\n"
       "  speaks the same protocol as serve; single-camera sessions are\n"
       "  passthrough, open with \"cameras\":[...] scatter-gathers rank\n",
       CmdCoord},
      {"top", "<endpoint> [--interval-ms=N] [--iterations=N]",
       "live fleet dashboard polling cluster_stats",
       "  polls {\"cmd\":\"cluster_stats\"} on a coordinator (or a single\n"
       "  worker, which answers as a fleet of one) and renders per-worker\n"
       "  QPS over the poll interval, lifetime p50/p99 request latency,\n"
       "  open sessions, corpus cache hit rate, and snapshot hits.\n"
       "  --interval-ms=N   poll interval (2000)\n"
       "  --iterations=N    stop after N polls (0 = until SIGINT)\n",
       CmdTop},
      {"trace-merge", "<out.json> <in.json> [in.json ...]",
       "stitch per-process Chrome traces into one cluster timeline",
       "  each input is one process's --trace export; events are rebased\n"
       "  onto a shared wall-clock timeline using the embedded clock_sync\n"
       "  metadata and re-emitted under per-process pids. Open the output\n"
       "  in Perfetto / chrome://tracing.\n",
       CmdTraceMerge},
  };
  return kCommands;
}

const Subcommand* FindSubcommand(std::string_view name) {
  for (const Subcommand& cmd : Subcommands()) {
    if (name == cmd.name) return &cmd;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  // Observability flags first: they enable collection before any work.
  Result<ObsOptions> obs = ExtractObsFlags(&argc, argv);
  if (!obs.ok()) {
    std::fprintf(stderr, "error: %s\n", obs.status().ToString().c_str());
    return Usage();
  }

  // Global flag: --threads N sizes the pool that runs served requests
  // (overrides the MIVID_THREADS environment variable; 1 runs each
  // request on its connection thread). Other commands compute serially
  // at any setting.
  std::vector<std::string> words;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      int64_t v = 0;
      if (!ParseInt64(argv[i] + 10, &v) || v < 1) return Usage();
      SetGlobalThreadCount(static_cast<int>(v));
      continue;
    }
    if (std::strcmp(argv[i], "--threads") == 0) {
      int64_t v = 0;
      if (i + 1 >= argc || !ParseInt64(argv[i + 1], &v) || v < 1) {
        return Usage();
      }
      SetGlobalThreadCount(static_cast<int>(v));
      ++i;
      continue;
    }
    words.emplace_back(argv[i]);
  }

  if (words.empty()) return Usage();
  if (words[0] == "help" || words[0] == "--help" || words[0] == "-h") {
    if (words.size() >= 2) {
      const Subcommand* cmd = FindSubcommand(words[1]);
      if (cmd != nullptr) return PrintCommandHelp(*cmd);
    }
    Usage();
    return 0;
  }
  const Subcommand* cmd = FindSubcommand(words[0]);
  if (cmd == nullptr) {
    std::fprintf(stderr, "unknown command '%s'\n", words[0].c_str());
    return Usage();
  }

  const Args args = ParseArgs(
      std::vector<std::string>(words.begin() + 1, words.end()),
      {"engine", "max-pending", "max-sessions", "idle-timeout-ms", "top",
       "snapshot-dir", "tcp-port", "tcp-host", "worker-id", "workers",
       "heartbeat-ms", "vnodes", "access-log", "slow-log", "slow-ms",
       "interval-ms", "iterations", "rpc-deadline-ms", "replication",
       "spawn-workers", "db", "worker-log-dir", "scenario", "clips", "frames",
       "batch", "seed", "frame-offset"});
  if (args.help) return PrintCommandHelp(*cmd);

  // Dispatch, then flush the requested observability outputs regardless
  // of which command ran (but not on usage errors).
  const int rc = cmd->run(args);
  if (rc == 2) return rc;

  const Status obs_status = WriteObsOutputs(obs.value());
  if (!obs_status.ok()) {
    std::fprintf(stderr, "error: %s\n", obs_status.ToString().c_str());
    return rc == 0 ? 1 : rc;
  }
  return rc;
}
