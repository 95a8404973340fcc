#include "common/logging.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace mivid {

namespace {
std::atomic<int> g_level{static_cast<int>(LogLevel::kWarn)};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}
}  // namespace

void SetLogLevel(LogLevel level) { g_level.store(static_cast<int>(level)); }

LogLevel GetLogLevel() { return static_cast<LogLevel>(g_level.load()); }

namespace {
// Set-once-at-startup identity. Stored as a leaked pointer swap so
// concurrent readers never observe a string mid-mutation.
std::atomic<const std::string*> g_identity{nullptr};
}  // namespace

void SetLogIdentity(const std::string& identity) {
  g_identity.store(identity.empty() ? nullptr : new std::string(identity),
                   std::memory_order_release);  // leaked, like the registry
}

const std::string& GetLogIdentity() {
  static const std::string kEmpty;
  const std::string* identity = g_identity.load(std::memory_order_acquire);
  return identity ? *identity : kEmpty;
}

namespace internal {

bool EveryNTick(std::atomic<uint64_t>* counter, uint64_t n) {
  const uint64_t occurrence =
      counter->fetch_add(1, std::memory_order_relaxed);
  return n <= 1 || occurrence % n == 0;
}

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  // Strip directories from the file path for compact output.
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[" << LevelName(level);
  // Cluster processes tag their lines with the local role/worker id so a
  // fleet run under one supervisor stays attributable: [INFO coord ...].
  const std::string& identity = GetLogIdentity();
  if (!identity.empty()) stream_ << " " << identity;
  stream_ << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  // One write call per line: stdio locks the stream per call, so lines
  // from concurrent threads never interleave mid-line.
  stream_ << "\n";
  const std::string line = stream_.str();
  std::fwrite(line.data(), 1, line.size(), stderr);
  std::fflush(stderr);
  if (level_ == LogLevel::kFatal) std::abort();
}

}  // namespace internal
}  // namespace mivid
