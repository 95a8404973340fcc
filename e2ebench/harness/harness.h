// Shared pieces of the end-to-end benchmark harness: seeded input
// generation, the in-memory span recorder, child-process control for the
// daemons under test, and the raw-result writer that run.py reads.
//
// The harness never changes the program: it calls the library's public
// functions and talks to `mivid_cli serve` / `mivid_cli coord` over
// their sockets, exactly as a user or client would.

#ifndef MIVID_E2EBENCH_HARNESS_H_
#define MIVID_E2EBENCH_HARNESS_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mil/bag.h"
#include "obs/json.h"
#include "serve/client.h"
#include "trafficsim/scenarios.h"
#include "trafficsim/world.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two steady-clock points.
inline double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Everything a workload needs from the command line.
struct Context {
  std::string cli;       ///< path of the mivid_cli binary under test
  std::string work_dir;  ///< scratch directory for databases and sockets
  uint64_t seed = 1;
  /// Sizes the fixed work: each workload does a set amount of work per
  /// nominal second, so a run's work never depends on elapsed time.
  int seconds = 10;
};

/// splitmix64: derives independent per-clip seeds from the workload seed.
uint64_t MixSeed(uint64_t seed, uint64_t stream, uint64_t index);

/// One generated clip: the scenario and its simulated ground truth.
struct GeneratedClip {
  mivid::ScenarioSpec spec;
  mivid::GroundTruth truth;
};

/// Scenario of one clip ("tunnel" or "intersection") with its own seed.
/// `rare_accidents` keeps the distractor events but scripts one or two
/// accidents instead of the paper clips' four to eight, so relevant bags
/// are scarce and top-20 accuracy stays off its ceiling on big corpora.
mivid::ScenarioSpec MakeClipSpec(const std::string& kind, int frames,
                                 uint64_t seed, bool rare_accidents = false);

// ---------------------------------------------------------------------------
// Spans. Kept in memory, aggregated at exit; a null Tracer* records nothing.

class Tracer {
 public:
  struct Span {
    int name = 0;
    int parent = -1;
    Clock::time_point begin;
    Clock::time_point end;
  };

  int Begin(const char* name);
  void End(int index);
  /// Adds one sample of a per-layer count (e.g. SMO iterations).
  void Count(const std::string& name, double value);

  /// {"wall_ms":..,"layers":{name:{self_ms,total_ms,calls}},
  ///  "counters":{name:{sum,n}}}. The outermost span is the wall.
  std::string ToJson() const;

 private:
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, int> ids_;
  int current_ = -1;
  std::map<std::string, std::pair<double, int64_t>> counters_;
};

/// RAII span; inert when `tracer` is null.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->Begin(name) : -1) {}
  ~Scope() {
    if (tracer_) tracer_->End(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Adds a count sample when tracing.
inline void Count(Tracer* tracer, const std::string& name, double value) {
  if (tracer) tracer->Count(name, value);
}

class Report;

/// Runs `replay` untraced, traced under a root span named `name`, and
/// untraced again (so neither side gets the cold caches), then lets
/// `after` add counts to the tracer and stores the spans and the mean
/// untraced wall in `report` as "trace.<name>".
bool TraceReplay(const std::string& name, Report* report,
                 const std::function<bool(Tracer*)>& replay,
                 const std::function<bool(Tracer*)>& after = nullptr);

// ---------------------------------------------------------------------------
// Raw results handed to run.py as one JSON object.

class Report {
 public:
  void Num(const std::string& key, double value);
  void Int(const std::string& key, int64_t value);
  void Str(const std::string& key, const std::string& value);
  void Raw(const std::string& key, const std::string& json);
  void Series(const std::string& key, const std::vector<double>& values);
  void Check(const std::string& name, bool passed);
  /// One scored session: the relevance of every ranked bag in rank order
  /// ('1' relevant, '0' not) and the corpus's relevant count.
  void Quality(const std::vector<bool>& relevance_in_rank_order,
               size_t relevant_in_corpus);

  bool all_checks_passed() const { return all_passed_; }
  std::string ToJson() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
  std::vector<std::pair<std::string, bool>> checks_;
  std::vector<std::string> quality_;
  bool all_passed_ = true;
};

/// Relevance flags of `ranked_ids` under `truth` (missing = irrelevant).
std::vector<bool> RelevanceOf(const std::vector<int>& ranked_ids,
                              const std::map<int, mivid::BagLabel>& truth);
size_t CountRelevant(const std::map<int, mivid::BagLabel>& truth);

// ---------------------------------------------------------------------------
// Processes under test.

/// MIVID_THREADS of every serving daemon. One thread runs each request
/// inline on its connection thread: with a closed-loop client a pool
/// adds only a thread hand-off, whose wake-up jitter made round times
/// spread 20% between runs of the same seed.
constexpr int kServeThreads = 1;

/// One child process (a daemon), killed and reaped on destruction.
class Child {
 public:
  Child() = default;
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// fork + exec `argv` with stdout/stderr appended to `log_path` and
  /// MIVID_THREADS set to `threads`.
  bool Start(const std::vector<std::string>& argv, const std::string& log_path,
             int threads);
  /// Peak resident set (VmHWM) in MB, read from /proc while running.
  double PeakRssMb() const;
  /// Waits up to `timeout_ms` for exit, then SIGKILLs; always reaps.
  void Wait(int timeout_ms);

 private:
  pid_t pid_ = -1;
};

/// Polls until `endpoint` answers a ping (up to `timeout_ms`).
bool WaitForEndpoint(const std::string& endpoint, int timeout_ms);

/// Sends a shutdown request and waits for the process to exit.
void ShutdownDaemon(const std::string& endpoint, Child* child);

/// Peak RSS of this process (the in-process workloads), in MB.
double SelfPeakRssMb();
/// CPU seconds this process has used so far (all threads).
double SelfCpuSeconds();

/// Recursively removes a directory tree (no-op when absent).
void RemoveTree(const std::string& path);
/// Total size in bytes of the regular files under `path`.
uint64_t TreeBytes(const std::string& path);

/// Parsed response plus whether it was {"ok":true,...}.
struct Reply {
  bool ok = false;
  mivid::JsonValue doc;
};
Reply Call(mivid::ServeClient* client, const std::string& line);

/// The "ranking" array of a rank reply as (camera, bag, score) triples;
/// camera is "" for single-camera replies.
struct RankedBag {
  std::string camera;
  int bag = 0;
  double score = 0.0;
};
std::vector<RankedBag> RankingOf(const mivid::JsonValue& doc);

/// One access-log line's timing fields.
struct AccessEntry {
  std::string cmd;
  std::string session;
  double total_ms = 0, queue_ms = 0, corpus_ms = 0, rank_ms = 0,
         serialize_ms = 0;
};
std::vector<AccessEntry> ReadAccessLog(const std::string& path);

// ---------------------------------------------------------------------------
// Workloads. Each fills `report`; returns false on an operational failure
// (a process that would not start, a socket that would not connect).

bool RunVisionOffline(const Context& ctx, Report* report);
bool RunSessionInteractive(const Context& ctx, Report* report);
bool RunIngestLive(const Context& ctx, Report* report);
bool RunFleetMulticam(const Context& ctx, Report* report);

/// Traced replays: fill "trace" sections of `report` for one workload.
bool TraceVisionOffline(const Context& ctx, Report* report);
bool TraceSessionInteractive(const Context& ctx, Report* report);
bool TraceIngestLive(const Context& ctx, Report* report);
bool TraceFleetMulticam(const Context& ctx, Report* report);

}  // namespace e2e

#endif  // MIVID_E2EBENCH_HARNESS_H_
