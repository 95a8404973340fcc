#!/usr/bin/env bash
# Runs the micro benchmarks of the individual kernels (SMO, Gram,
# segmentation, serve rank, ingest, publish) and writes their
# google-benchmark JSON report. The report is not checked in: compare two
# runs made on the same host with tools/bench_diff.py. End-to-end time
# and retrieval quality are measured by e2ebench/run.py, not here.
#
# The script builds micro_perf with CMAKE_BUILD_TYPE=Release when it is
# missing, and refuses to record numbers unless the binary stamps itself
# "optimized" (the mivid_build custom context, set from __OPTIMIZE__ +
# NDEBUG at compile time). Note google-benchmark's own library_build_type
# context reports how libbenchmark was built, which a distro debug
# package makes "debug" even for fully optimized mivid code — that field
# is NOT the gate.
#
# Usage: bench/run_micro_bench.sh [build-dir] [out-file] [benchmark-filter]
#   build-dir  defaults to ./build
#   out-file   defaults to ./BENCH_micro.json
#   filter     google-benchmark regex, defaults to all benchmarks
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_FILE="${2:-BENCH_micro.json}"
FILTER="${3:-.}"

BIN="${BUILD_DIR}/bench/micro_perf"
if [[ ! -x "${BIN}" ]]; then
  echo "building ${BIN} (Release)" >&2
  cmake -S . -B "${BUILD_DIR}" -DCMAKE_BUILD_TYPE=Release
  cmake --build "${BUILD_DIR}" -j --target micro_perf
fi

"${BIN}" \
  --benchmark_filter="${FILTER}" \
  --benchmark_format=json \
  --benchmark_out="${OUT_FILE}" \
  --benchmark_out_format=json

if ! grep -q '"mivid_build": "optimized"' "${OUT_FILE}"; then
  echo "error: ${BIN} was compiled without optimization; numbers in" \
       "${OUT_FILE} are not comparable. Reconfigure the build dir with" \
       "-DCMAKE_BUILD_TYPE=Release (or RelWithDebInfo) and rerun." >&2
  rm -f "${OUT_FILE}"
  exit 1
fi
echo "wrote ${OUT_FILE}"
