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
#      caches, crash-storm retries, a worker lost between batches,
#      scalar vs batched kernels, fleet and storm vs the scalar
#      reference, and bake-off forks and merges; then
#   2. (opt-in, RHYTHM_BENCH_GATE=1) the gated benchmarks, each at the
#      GATE its emitter declares: kernel 5x, fleet 10x, bake-off 2x,
#      storm warm cache 10x, fleet zone cache 50x, and the parallel grid
#      and profiling pools 1x. Every emitter runs on
#      benchmarks/harness.py: it times interleaved pairs (cold/warm
#      pairs against a fresh store each), gates on the median pair
#      ratio, and exits 1 if any recorded check fails or the ratio is
#      below the gate. The two pool ratios skip the ratio half of the
#      gate on one CPU. tests/test_bench_harness.py pins each --gate
#      below to its emitter's GATE.
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
