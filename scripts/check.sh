#!/usr/bin/env bash
# One-command gate: build + full tier-1 test suite, then the crash-recovery
# suite (ctest label `crash`: journal frames, group-commit fail-stop,
# Engine::Open's restart and resume, the live crash driver) under
# AddressSanitizer and ThreadSanitizer.
#
#   scripts/check.sh           # everything
#   scripts/check.sh --fast    # tier-1 only (skip sanitizer builds)
#
# Uses the CMake presets in CMakePresets.json (default / asan / tsan).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

echo "==> tier-1: configure + build + full ctest (preset: default)"
cmake --preset default
cmake --build --preset default -j "${JOBS}"
ctest --preset default -j "${JOBS}"

echo "==> restart smoke: checkpoint + tail replay audit (bench_journal)"
cmake --build --preset default -j "${JOBS}" --target bench_journal
./build/bench/bench_journal --restart-smoke

echo "==> codec microbenchmarks: journal/checkpoint decode + frame CRC (bench_codec, short pass)"
cmake --build --preset default -j "${JOBS}" --target bench_codec
./build/bench/bench_codec --benchmark_min_time=0.01

echo "==> directory stress: 100k-object create/drop/lookup race (bench_directory)"
cmake --build --preset default -j "${JOBS}" --target bench_directory
./build/bench/bench_directory --stress-smoke

echo "==> batch smoke: record economy + multi-object crash audit (bench_batch)"
cmake --build --preset default -j "${JOBS}" --target bench_batch
./build/bench/bench_batch --smoke

echo "==> eviction stress: cache-pressure create/drop/evict race (bench_directory --evict)"
./build/bench/bench_directory --evict

echo "==> store smoke: eviction sweep + restart arms + live crash driver at every store crash point (bench_store)"
cmake --build --preset default -j "${JOBS}" --target bench_store
./build/bench/bench_store --smoke

echo "==> serve smoke: conservation + shed accounting + live crash driver under a serving burst (bench_serve)"
cmake --build --preset default -j "${JOBS}" --target bench_serve
./build/bench/bench_serve --smoke

echo "==> ccrbench smoke: workloads + 20 audited restarts each (run.sh --quick)"
bash bench/ccrbench/run.sh --quick

if [[ "${FAST}" == 1 ]]; then
  echo "==> --fast: skipping sanitizer crash suites"
  exit 0
fi

for san in asan tsan; do
  echo "==> crash suite under ${san} (ctest -L crash: journal, Engine::Open generations, live crash driver)"
  cmake --preset "${san}"
  cmake --build --preset "${san}" -j "${JOBS}"
  ctest --preset "crash-${san}" -j "${JOBS}"
  echo "==> directory stress under ${san}"
  cmake --build --preset "${san}" -j "${JOBS}" --target bench_directory
  "./build-${san}/bench/bench_directory" --stress-smoke
  echo "==> batch smoke under ${san}"
  cmake --build --preset "${san}" -j "${JOBS}" --target bench_batch
  "./build-${san}/bench/bench_batch" --smoke
  echo "==> eviction stress under ${san}"
  "./build-${san}/bench/bench_directory" --evict
  echo "==> store smoke under ${san}"
  cmake --build --preset "${san}" -j "${JOBS}" --target bench_store
  "./build-${san}/bench/bench_store" --smoke
  echo "==> serve smoke under ${san}"
  cmake --build --preset "${san}" -j "${JOBS}" --target bench_serve
  "./build-${san}/bench/bench_serve" --smoke
done

echo "==> all checks passed"
