// e2e_harness: runs one benchmark workload (or, with --trace, the traced
// replay of every workload) and prints its raw results as one JSON line.
// run.py turns the raw results into the reported metrics.
//
//   e2e_harness --workload <name> --seed <n> --seconds <n>
//               --cli <mivid_cli> --work-dir <dir> [--trace]
//   e2e_harness --probe <threads>   fixed CPU probe, prints its wall time

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "harness.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: e2e_harness --workload <vision_offline|"
               "session_interactive|ingest_live|fleet_multicam> --seed <n> "
               "--seconds <n> --cli <mivid_cli> --work-dir <dir> [--trace]\n"
               "       e2e_harness --probe <threads>\n");
  return 2;
}

/// Runs the same fixed integer workload on `threads` threads at once and
/// prints the wall time; run.py derives the effective core count from
/// the 1-thread and nproc-thread times.
int Probe(int threads) {
  threads = std::max(1, threads);
  std::vector<uint64_t> sinks(threads, 0);
  const e2e::Clock::time_point t0 = e2e::Clock::now();
  std::vector<std::thread> pool;
  for (int i = 0; i < threads; ++i) {
    pool.emplace_back([&sinks, i] {
      uint64_t x = 88172645463325252ull + i;
      for (int k = 0; k < 60000000; ++k) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
      }
      sinks[i] = x;
    });
  }
  for (std::thread& t : pool) t.join();
  uint64_t sink = 0;
  for (uint64_t v : sinks) sink ^= v;
  std::printf("{\"threads\":%d,\"wall_ms\":%.6f,\"sink\":%llu}\n", threads,
              e2e::Ms(t0, e2e::Clock::now()), static_cast<unsigned long long>(sink));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Context ctx;
  std::string workload;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      ctx.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      ctx.seconds = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--probe" && has_value) {
      return Probe(std::atoi(argv[++i]));
    } else if (arg == "--cli" && has_value) {
      ctx.cli = argv[++i];
    } else if (arg == "--work-dir" && has_value) {
      ctx.work_dir = argv[++i];
    } else if (arg == "--trace") {
      trace = true;
    } else {
      return Usage();
    }
  }
  if (workload.empty() || ctx.cli.empty() || ctx.work_dir.empty()) return Usage();
  mkdir(ctx.work_dir.c_str(), 0755);
  // The in-process stages run serially; the daemons get MIVID_THREADS=1.
  mivid::SetGlobalThreadCount(1);

  using Fn = bool (*)(const e2e::Context&, e2e::Report*);
  struct Entry {
    const char* name;
    Fn run;
    Fn trace;
  };
  const Entry entries[] = {
      {"vision_offline", e2e::RunVisionOffline, e2e::TraceVisionOffline},
      {"session_interactive", e2e::RunSessionInteractive,
       e2e::TraceSessionInteractive},
      {"ingest_live", e2e::RunIngestLive, e2e::TraceIngestLive},
      {"fleet_multicam", e2e::RunFleetMulticam, e2e::TraceFleetMulticam},
  };

  e2e::Report report;
  report.Str("workload", workload);
  report.Int("seed", static_cast<int64_t>(ctx.seed));
  bool known = false;
  bool ran = true;
  for (const Entry& e : entries) {
    if (workload == e.name) known = true;
  }
  if (!known) return Usage();
  if (trace) {
    // Every per-layer metric is measured on the workload it belongs to,
    // so the traced run replays all four.
    for (const Entry& e : entries) ran = ran && e.trace(ctx, &report);
  } else {
    for (const Entry& e : entries) {
      if (workload == e.name) ran = e.run(ctx, &report);
    }
  }
  if (!ran) {
    std::fprintf(stderr, "e2e_harness: workload %s failed to run\n",
                 workload.c_str());
    return 1;
  }
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return report.all_checks_passed() ? 0 : 3;
}
