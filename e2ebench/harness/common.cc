#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cerrno>
#include <ctime>
#include <fstream>
#include <thread>

#include "common/string_util.h"
#include "harness.h"

namespace e2e {

using mivid::JsonValue;

uint64_t MixSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull +
               index * 0x94D049BB133111EBull + 0x2545F4914F6CDD1Dull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

mivid::ScenarioSpec MakeClipSpec(const std::string& kind, int frames,
                                 uint64_t seed, bool rare_accidents) {
  if (kind == "tunnel") {
    mivid::TunnelScenarioOptions options;
    options.total_frames = frames;
    options.seed = seed;
    if (rare_accidents) {
      options.num_wall_crashes = 1;
      options.num_sudden_stops = 1;
    }
    return mivid::MakeTunnelScenario(options);
  }
  mivid::IntersectionScenarioOptions options;
  options.total_frames = frames;
  options.seed = seed;
  if (rare_accidents) {
    options.num_cross_collisions = 1;
    options.num_rear_ends = 0;
  }
  return mivid::MakeIntersectionScenario(options);
}

// ---------------------------------------------------------------------------
// Tracer

int Tracer::Begin(const char* name) {
  auto [it, inserted] =
      ids_.try_emplace(name, static_cast<int>(names_.size()));
  if (inserted) names_.emplace_back(name);
  Span span;
  span.name = it->second;
  span.parent = current_;
  span.begin = Clock::now();
  spans_.push_back(span);
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Tracer::End(int index) {
  spans_[index].end = Clock::now();
  current_ = spans_[index].parent;
}

void Tracer::Count(const std::string& name, double value) {
  auto& [sum, n] = counters_[name];
  sum += value;
  ++n;
}

std::string Tracer::ToJson() const {
  // Self time = duration minus the part covered by direct children.
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ms[s.parent] += Ms(s.begin, s.end);
  }
  struct Agg {
    double self_ms = 0, total_ms = 0;
    int64_t calls = 0;
  };
  std::map<std::string, Agg> agg;
  double wall_ms = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = Ms(s.begin, s.end);
    if (s.parent < 0) wall_ms += dur;
    Agg& a = agg[names_[s.name]];
    a.self_ms += dur - child_ms[i];
    a.total_ms += dur;
    ++a.calls;
  }
  std::string out = mivid::StrFormat("{\"wall_ms\":%.6f,\"layers\":{", wall_ms);
  bool first = true;
  for (const auto& [name, a] : agg) {
    out += mivid::StrFormat(
        "%s\"%s\":{\"self_ms\":%.6f,\"total_ms\":%.6f,\"calls\":%lld}",
        first ? "" : ",", name.c_str(), a.self_ms, a.total_ms,
        static_cast<long long>(a.calls));
    first = false;
  }
  out += "},\"counters\":{";
  first = true;
  for (const auto& [name, c] : counters_) {
    out += mivid::StrFormat("%s\"%s\":{\"sum\":%.17g,\"n\":%lld}",
                            first ? "" : ",", name.c_str(), c.first,
                            static_cast<long long>(c.second));
    first = false;
  }
  return out + "}}";
}

bool TraceReplay(const std::string& name, Report* report,
                 const std::function<bool(Tracer*)>& replay,
                 const std::function<bool(Tracer*)>& after) {
  Tracer tracer;
  double untraced_ms = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    if (pass == 1) {
      Scope root(&tracer, name.c_str());
      if (!replay(&tracer)) return false;
      continue;
    }
    const Clock::time_point t0 = Clock::now();
    if (!replay(nullptr)) return false;
    untraced_ms += Ms(t0, Clock::now()) / 2.0;
  }
  if (after && !after(&tracer)) return false;
  report->Raw("trace." + name,
              mivid::StrFormat("{\"untraced_wall_ms\":%.6f,\"spans\":%s}",
                               untraced_ms, tracer.ToJson().c_str()));
  return true;
}

// ---------------------------------------------------------------------------
// Report

void Report::Num(const std::string& key, double value) {
  fields_.emplace_back(key, mivid::StrFormat("%.17g", value));
}

void Report::Int(const std::string& key, int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
}

void Report::Str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, mivid::StrFormat("\"%s\"",
                                             mivid::JsonEscape(value).c_str()));
}

void Report::Raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
}

void Report::Series(const std::string& key, const std::vector<double>& values) {
  std::string json = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    json += mivid::StrFormat("%s%.6f", i ? "," : "", values[i]);
  }
  fields_.emplace_back(key, json + "]");
}

void Report::Check(const std::string& name, bool passed) {
  checks_.emplace_back(name, passed);
  all_passed_ = all_passed_ && passed;
  if (!passed) std::fprintf(stderr, "e2e_harness: check failed: %s\n", name.c_str());
}

void Report::Quality(const std::vector<bool>& relevance, size_t relevant) {
  std::string rel;
  rel.reserve(relevance.size());
  for (bool r : relevance) rel += r ? '1' : '0';
  quality_.push_back(mivid::StrFormat("{\"relevant\":%zu,\"rel\":\"%s\"}",
                                      relevant, rel.c_str()));
}

std::string Report::ToJson() const {
  std::string out = "{";
  for (const auto& [key, value] : fields_) {
    out += "\"" + key + "\":" + value + ",";
  }
  out += "\"checks\":{";
  for (size_t i = 0; i < checks_.size(); ++i) {
    out += mivid::StrFormat("%s\"%s\":%s", i ? "," : "",
                            checks_[i].first.c_str(),
                            checks_[i].second ? "true" : "false");
  }
  out += "},\"quality\":[";
  for (size_t i = 0; i < quality_.size(); ++i) {
    out += (i ? "," : "") + quality_[i];
  }
  return out + "]}";
}

std::vector<bool> RelevanceOf(const std::vector<int>& ranked_ids,
                              const std::map<int, mivid::BagLabel>& truth) {
  std::vector<bool> rel;
  rel.reserve(ranked_ids.size());
  for (int id : ranked_ids) {
    auto it = truth.find(id);
    rel.push_back(it != truth.end() && it->second == mivid::BagLabel::kRelevant);
  }
  return rel;
}

size_t CountRelevant(const std::map<int, mivid::BagLabel>& truth) {
  size_t n = 0;
  for (const auto& [id, label] : truth) {
    (void)id;
    n += label == mivid::BagLabel::kRelevant ? 1 : 0;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Processes

Child::~Child() { Wait(0); }

bool Child::Start(const std::vector<std::string>& argv,
                  const std::string& log_path, int threads) {
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    const int fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      dup2(fd, STDOUT_FILENO);
      dup2(fd, STDERR_FILENO);
      close(fd);
    }
    setenv("MIVID_THREADS", std::to_string(threads).c_str(), 1);
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    execv(args[0], args.data());
    _exit(127);
  }
  pid_ = pid;
  return true;
}

double Child::PeakRssMb() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void Child::Wait(int timeout_ms) {
  if (pid_ <= 0) return;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    int status = 0;
    const pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r == pid_ || (r < 0 && errno != EINTR)) break;
    if (Clock::now() >= deadline) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
}

bool WaitForEndpoint(const std::string& endpoint, int timeout_ms) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (Clock::now() < deadline) {
    mivid::Result<mivid::ServeClient> client =
        mivid::ServeClient::Connect(endpoint);
    if (client.ok()) {
      mivid::Result<std::string> r = client.value().Call("{\"cmd\":\"ping\"}");
      if (r.ok() && r.value().rfind("{\"ok\":true", 0) == 0) return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

void ShutdownDaemon(const std::string& endpoint, Child* child) {
  mivid::Result<mivid::ServeClient> client =
      mivid::ServeClient::Connect(endpoint);
  if (client.ok()) (void)client.value().Call("{\"cmd\":\"shutdown\"}");
  child->Wait(10000);
}

double SelfPeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double SelfCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void RemoveTree(const std::string& path) {
  DIR* dir = opendir(path.c_str());
  if (dir == nullptr) {
    unlink(path.c_str());
    return;
  }
  while (dirent* entry = readdir(dir)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    const std::string child = path + "/" + name;
    struct stat st;
    if (lstat(child.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
      RemoveTree(child);
    } else {
      unlink(child.c_str());
    }
  }
  closedir(dir);
  rmdir(path.c_str());
}

uint64_t TreeBytes(const std::string& path) {
  DIR* dir = opendir(path.c_str());
  if (dir == nullptr) return 0;
  uint64_t total = 0;
  while (dirent* entry = readdir(dir)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    const std::string child = path + "/" + name;
    struct stat st;
    if (lstat(child.c_str(), &st) != 0) continue;
    total += S_ISDIR(st.st_mode) ? TreeBytes(child)
                                 : static_cast<uint64_t>(st.st_size);
  }
  closedir(dir);
  return total;
}

Reply Call(mivid::ServeClient* client, const std::string& line) {
  Reply reply;
  mivid::Result<std::string> response = client->Call(line);
  if (!response.ok()) return reply;
  mivid::Result<JsonValue> doc = mivid::ParseJson(response.value());
  if (!doc.ok()) return reply;
  reply.doc = std::move(doc.value());
  const JsonValue* ok = reply.doc.Find("ok");
  reply.ok = ok != nullptr && ok->type == JsonValue::Type::kBool && ok->bool_value;
  return reply;
}

std::vector<RankedBag> RankingOf(const JsonValue& doc) {
  std::vector<RankedBag> out;
  const JsonValue* ranking = doc.Find("ranking");
  if (ranking == nullptr || !ranking->is_array()) return out;
  out.reserve(ranking->array.size());
  for (const JsonValue& item : ranking->array) {
    RankedBag bag;
    if (const JsonValue* c = item.Find("camera")) bag.camera = c->string;
    if (const JsonValue* b = item.Find("bag")) bag.bag = static_cast<int>(b->number);
    if (const JsonValue* s = item.Find("score")) bag.score = s->number;
    out.push_back(std::move(bag));
  }
  return out;
}

std::vector<AccessEntry> ReadAccessLog(const std::string& path) {
  std::vector<AccessEntry> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    mivid::Result<JsonValue> doc = mivid::ParseJson(line);
    if (!doc.ok()) continue;
    const JsonValue& d = doc.value();
    auto str = [&](const char* key) {
      const JsonValue* v = d.Find(key);
      return v != nullptr ? v->string : std::string();
    };
    auto num = [&](const char* key) {
      const JsonValue* v = d.Find(key);
      return v != nullptr && v->is_number() ? v->number : 0.0;
    };
    AccessEntry e;
    e.cmd = str("cmd");
    e.session = str("session");
    e.total_ms = num("total_ms");
    e.queue_ms = num("queue_ms");
    e.corpus_ms = num("corpus_ms");
    e.rank_ms = num("rank_ms");
    e.serialize_ms = num("serialize_ms");
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace e2e
