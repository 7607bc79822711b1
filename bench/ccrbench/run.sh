#!/usr/bin/env bash
# Builds ccrbench standalone (Release, into .bench_build/ccrbench at the
# repository root) and runs it. Two modes:
#
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       One workload in one process: the interface BENCHMARK.json names.
#       The last line of output is the result JSON. --trace 1 also writes
#       the Chrome trace to .bench_build/trace/TRACE_<workload>.json.
#
#   run.sh [--repeat N] [--seed N] [--seconds S] [--trace] [--quick]
#          [--out DIR]
#       Every workload, each in its own process, seeds N, N+1, ...; writes
#       BENCH_<workload>.json per run into DIR (DIR/run<i>/ when --repeat
#       is above 1) and, with --trace, a Chrome trace TRACE_<workload>.json
#       beside it. --quick runs 1/50 of the work with every audit: a smoke.
#
# Build, journal and store files stay under .bench_build; the temporary
# directory .bench_build/tmp is emptied around each run. A failed build or
# audit exits non-zero.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build/ccrbench"
tmp="$root/.bench_build/tmp"

# The compiler's temporary files stay inside the checkout too.
mkdir -p "$build" "$tmp"
export TMPDIR="$tmp"
if ! { cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$build" --target ccrbench -j 4; } >"$build/build.log" 2>&1; then
  tail -n 30 "$build/build.log" >&2
  echo "ccrbench: build failed (log: $build/build.log)" >&2
  exit 1
fi

sha=unknown
if [[ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" == "$root" ]]; then
  sha="$(git -C "$root" rev-parse --short=12 HEAD)"
fi

fresh_tmp() {
  rm -rf "$tmp"
  mkdir -p "$tmp"
}

check_trace() {
  python3 -c 'import json, sys; json.load(open(sys.argv[1]))' "$1" || {
    echo "ccrbench: $1 is not valid JSON" >&2
    exit 1
  }
}

# One workload: the benchmark interface.
if [[ " $* " == *" --workload "* ]]; then
  workload="" trace=0 args=("$@")
  while [[ $# -gt 0 ]]; do
    case "$1" in
      --workload) workload="$2"; shift 2 ;;
      --trace) trace="$2"; shift 2 ;;
      *) shift ;;
    esac
  done
  trace_file="$root/.bench_build/trace/TRACE_$workload.json"
  if [[ "$trace" == 1 ]]; then
    mkdir -p "$(dirname "$trace_file")"
    args+=(--trace-out "$trace_file")
  fi
  fresh_tmp
  "$build/ccrbench" "${args[@]}" --git-sha "$sha"
  rm -rf "$tmp"
  [[ "$trace" == 1 ]] && check_trace "$trace_file"
  exit 0
fi

repeat=1 seed=1 seconds=20 trace=0 scale=1  # seconds: BENCHMARK.json run_seconds
out="$root/.bench_build/results"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --repeat) repeat="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace=1; shift ;;
    --quick) scale=0.02; shift ;;
    --out) out="$2"; shift 2 ;;
    *) echo "run.sh: unknown flag $1" >&2; exit 2 ;;
  esac
done

for ((r = 0; r < repeat; r++)); do
  dir="$out"
  [[ "$repeat" -gt 1 ]] && dir="$out/run$r"
  mkdir -p "$dir"
  for w in serve_point bank_direct store_evict; do
    args=(--workload "$w" --seed $((seed + r)) --seconds "$seconds"
          --trace "$trace" --scale "$scale" --git-sha "$sha"
          --json-out "$dir/BENCH_$w.json")
    [[ "$trace" == 1 ]] && args+=(--trace-out "$dir/TRACE_$w.json")
    fresh_tmp
    "$build/ccrbench" "${args[@]}" | grep -v '^{'
    [[ "$trace" == 1 ]] && check_trace "$dir/TRACE_$w.json"
  done
done
rm -rf "$tmp"
echo "results in $out"
