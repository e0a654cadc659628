#!/usr/bin/env bash
# The repo's CI gate: the tier-1 test suite, plus opt-in benchmark gates.
#
# Usage (from the repo root):
#
#   bash scripts/ci_check.sh
#
# Runs, in order:
#   1. the tier-1 test suite (PYTHONPATH=src pytest -x -q; slow-marked
#      chaos/spawn tests are excluded by pyproject addopts). It pins
#      every identity and cache round trip the gate checks: pool vs
#      serial grids and profiling, warm grid/profile/fleet/storm/bake-off
#      caches, crash-storm retries, scalar vs batched kernels, fleet and
#      storm vs the scalar reference, and bake-off forks and merges;
#      then
#   2. (opt-in, RHYTHM_BENCH_GATE=1) the full kernel benchmark with a 5x
#      aggregate-speedup gate (benchmarks/bench_kernel.py --gate 5.0),
#      the fleet benchmark with its 10x colocation-path gate
#      (benchmarks/bench_fleet.py --gate 10.0), the bake-off
#      benchmark with its 2x aggregate-speedup gate
#      (benchmarks/bench_bakeoff.py --gate 2.0), the storm
#      benchmark with its 10x warm-cache gate
#      (benchmarks/bench_storm.py --gate 10.0), the fleet zone-cache
#      benchmark with its 50x warm-cache gate
#      (benchmarks/bench_fleet_cache.py --gate 50.0), and the parallel grid
#      benchmark and the profiling benchmark, whose pools must not be
#      slower than the inline runs on a host with two or more CPUs
#      (benchmarks/bench_parallel.py --gate 1.0,
#      benchmarks/bench_profile.py --gate 1.0; skipped on one CPU).
#
# Any failure aborts with a non-zero exit code.

set -euo pipefail

cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -x -q

if [[ "${RHYTHM_BENCH_GATE:-0}" == "1" ]]; then
  echo
  echo "== kernel benchmark gate (RHYTHM_BENCH_GATE=1) =="
  python benchmarks/bench_kernel.py --gate 5.0
  echo
  echo "== fleet benchmark gate (RHYTHM_BENCH_GATE=1) =="
  python benchmarks/bench_fleet.py --gate 10.0
  echo
  echo "== bake-off benchmark gate (RHYTHM_BENCH_GATE=1) =="
  python benchmarks/bench_bakeoff.py --gate 2.0
  echo
  echo "== storm benchmark gate (RHYTHM_BENCH_GATE=1) =="
  python benchmarks/bench_storm.py --gate 10.0
  echo
  echo "== fleet zone-cache benchmark gate (RHYTHM_BENCH_GATE=1) =="
  python benchmarks/bench_fleet_cache.py --gate 50.0
  echo
  echo "== parallel grid benchmark gate (RHYTHM_BENCH_GATE=1) =="
  python benchmarks/bench_parallel.py --gate 1.0
  echo
  echo "== profiling benchmark gate (RHYTHM_BENCH_GATE=1) =="
  python benchmarks/bench_profile.py --gate 1.0
fi

echo
echo "ci_check OK"
