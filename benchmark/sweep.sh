#!/bin/sh
# Run every workload once per seed and keep each run's output, for
# `sh benchmark/run.sh agree DIR_A DIR_B`.
#
#   sh benchmark/sweep.sh DIR [TRACE [SECONDS [SEED...]]]
#
# TRACE is 0 (end-to-end, the default) or 1 (per-layer); SECONDS
# defaults to 25, BENCHMARK.json's run_seconds; seeds default to 1..10
# and may repeat.  Run from the root of the repository.
set -eu
dir=$1
trace=${2:-0}
seconds=${3:-25}
[ $# -gt 3 ] && shift 3 || set -- 1 2 3 4 5 6 7 8 9 10
mkdir -p "$dir"
workloads=$(sh benchmark/run.sh list)
n=0
for seed in "$@"; do
  n=$((n + 1))
  for w in $workloads; do
    sh benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
      >"$dir/$w-$n-seed$seed.out" 2>&1
  done
done
