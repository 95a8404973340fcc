// Minimal leveled logging for mivid.
//
// Usage:
//   MIVID_LOG(Info) << "ingested " << n << " frames";
//   MIVID_LOG_EVERY_N(Warn, 1000) << "slow frame";   // 1st, 1001st, ...
//
// Severity below the global threshold is compiled into a cheap runtime
// check. FATAL logs are emitted regardless of the threshold (even at
// kOff) and abort after flushing. Each log line is written to stderr with
// a single write call, so lines from concurrent threads never interleave.

#ifndef MIVID_COMMON_LOGGING_H_
#define MIVID_COMMON_LOGGING_H_

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>

namespace mivid {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kFatal = 4,
  kOff = 5,  ///< suppresses everything except FATAL (which must still
             ///< report and abort; silencing it would change semantics)
};

/// Sets the global minimum severity that is emitted. Default: kWarn
/// (so library code is quiet in tests and benches unless asked).
void SetLogLevel(LogLevel level);

/// Returns the current global minimum severity.
LogLevel GetLogLevel();

/// Tags every subsequent log line (and trace export) with a process
/// identity — the cluster role / worker id, e.g. "w2" or "coord" — so
/// logs from a fleet run under one supervisor stay attributable:
/// [INFO coord file:42]. Call once at startup; empty clears the tag.
void SetLogIdentity(const std::string& identity);

/// The identity set via SetLogIdentity, or "" when none.
const std::string& GetLogIdentity();

namespace internal {

/// Accumulates one log line and emits it on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Swallows the streamed expression when the level is below threshold.
struct NullStream {
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

/// True when `level` should be emitted: at/above the threshold, or FATAL
/// (which is never suppressible).
inline bool ShouldLog(LogLevel level) {
  return level >= GetLogLevel() || level == LogLevel::kFatal;
}

/// Bumps the per-call-site occurrence counter and returns true on the
/// 1st, (n+1)th, (2n+1)th, ... execution. n <= 1 always returns true.
bool EveryNTick(std::atomic<uint64_t>* counter, uint64_t n);

/// Lets the ternary in MIVID_LOG discard the streamed chain: operator&
/// binds looser than operator<<, so the whole `stream << a << b` runs
/// first and the result collapses to void, matching the other branch.
struct Voidify {
  void operator&(std::ostream&) {}
};

}  // namespace internal

#define MIVID_LOG(severity)                                                  \
  (!::mivid::internal::ShouldLog(::mivid::LogLevel::k##severity))            \
      ? (void)0                                                              \
      : ::mivid::internal::Voidify() &                                       \
            ::mivid::internal::LogMessage(::mivid::LogLevel::k##severity,    \
                                          __FILE__, __LINE__)                \
                .stream()

/// Emits on the 1st, (n+1)th, (2n+1)th, ... execution of this call site
/// (the occurrence counter advances even while the severity is
/// suppressed). Safe in hot loops: one relaxed atomic increment when
/// skipping. The immediately-invoked lambda gives each call site its own
/// counter while keeping the macro a single expression.
#define MIVID_LOG_EVERY_N(severity, n)                                       \
  (!::mivid::internal::EveryNTick(                                           \
       []() -> ::std::atomic<::std::uint64_t>* {                             \
         static ::std::atomic<::std::uint64_t> mivid_occurrences{0};         \
         return &mivid_occurrences;                                          \
       }(),                                                                  \
       static_cast<::std::uint64_t>(n)) ||                                   \
   !::mivid::internal::ShouldLog(::mivid::LogLevel::k##severity))            \
      ? (void)0                                                              \
      : ::mivid::internal::Voidify() &                                       \
            ::mivid::internal::LogMessage(::mivid::LogLevel::k##severity,    \
                                          __FILE__, __LINE__)                \
                .stream()

#define MIVID_CHECK(cond)                                                   \
  if (!(cond))                                                              \
  ::mivid::internal::LogMessage(::mivid::LogLevel::kFatal, __FILE__,        \
                                __LINE__)                                   \
          .stream()                                                         \
      << "Check failed: " #cond " "

}  // namespace mivid

#endif  // MIVID_COMMON_LOGGING_H_
