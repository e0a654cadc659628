"""Controller bake-off engine benchmark → ``BENCH_bakeoff.json``.

Measures the single-pass multi-controller evaluation engine end to end:

- ``independent`` vs ``bakeoff``: three controllers (Heracles,
  interference-scoring, predictive) evaluated on one scenario — first
  as three independent reference runs, then as one shared-physics
  pass (three aliased slots of one
  :class:`~repro.sim.kernel.FleetColocationKernel`). The shared pass
  must be >=2x faster in aggregate and reproduce every member's cell
  digest bit-identically (``identical_results``).
- ``divergent``: the same roster at a load where the members keep
  disagreeing (the interference member says DISALLOW every few ticks
  while the others ALLOW), the case the shared pass pays slot
  bookkeeping for: it forks and re-merges until a merge has carried
  the proof that both actions are no-ops to the surviving slot. Records the
  fork and merge counts, the mean cost of one fork
  (``FleetColocationKernel._fork``) and of one merge check
  (``_merge_converged``, one call per tick with more live slots than
  scenarios) from a separate instrumented pass, and the speedup over
  independent runs. Members must stay bit-identical.
- ``diverged``: the merge check on the four-member roster (Rhythm,
  Heracles, interference, predictive) at loads 0.45 and 0.6, where it
  forks: merge attempts (``_merge_converged`` calls, one per tick with
  more live slots than scenarios) and the mean µs of one attempt, best
  of five instrumented passes, with the fork/merge counts, the shared
  pass's best-of-five wall time and the members' identity against
  their solo runs. To compare two commits, run this script with
  ``PYTHONPATH`` at each commit's ``src`` back to back: host speed
  swings about 2x.
- ``cached``: the same roster against a private store — the cold run
  writes one ``bakeoff-cell`` entry per member, the warm re-run must
  execute ZERO shared passes and return identical digests.

Timing takes the best of five rounds per side with the cyclic GC
paused inside each round (the work is deterministic; the repeats and
GC hygiene only shed scheduler and collector noise, which dominates
run-to-run variance on small shared CPU quotas).

Run standalone (``PYTHONPATH=src python benchmarks/bench_bakeoff.py
[--out BENCH_bakeoff.json] [--gate 2.0]``) or via
``pytest benchmarks/bench_bakeoff.py --benchmark-only``.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import tempfile
import time
from typing import Callable, Dict, Optional

from bench_env import environment
from repro.cache import CacheStore
from repro.experiments.bakeoff import (
    BakeoffConfig,
    bakeoff_scenario_grid,
    default_members,
    heracles_member,
    interference_member,
    predictive_member,
    run_bakeoff,
    run_member_reference,
)
from repro.sim.kernel import FleetColocationKernel

DEFAULT_REPORT = "BENCH_bakeoff.json"
DEFAULT_GATE = None

#: The probe scenario: ten simulated minutes at a load where the three
#: rival controllers keep agreeing (full physics sharing, zero forks) —
#: the case the single-pass engine is built for.
BENCH_DURATION_S = 600.0
BENCH_LOAD = 0.30
BENCH_BE_JOB = "stream-llc"
BENCH_SEED = 11
BENCH_ROUNDS = 5
#: The divergence probe's load: at this seed the roster forks and
#: re-merges dozens of times over the run while still sharing most
#: physics passes.
DIVERGENT_LOAD = 0.45
#: The merge-check probe's loads: the four-member roster forks and
#: re-merges at both, and checks for a merge on every tick in between.
DIVERGED_LOADS = (0.45, 0.6)


def _members(service: str):
    return [
        heracles_member(service),
        interference_member(),
        predictive_member(),
    ]


def _best_of(fn: Callable[[], object]) -> float:
    """Best wall time of ``BENCH_ROUNDS`` calls, cyclic GC paused in each."""
    best = float("inf")
    for _ in range(BENCH_ROUNDS):
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        finally:
            gc.enable()
    return best


def _independent_vs_shared(scenarios, members, config):
    """(independent_s, bakeoff_s, identical, shared result) for a grid."""
    # Warm-up: both paths once, outside the timed rounds.
    references = {
        member.name: run_member_reference(scenarios[0], member, config)
        for member in members
    }
    shared = run_bakeoff(scenarios, members, config=config, cache=None)

    def independent():
        for scenario in scenarios:
            for member in members:
                run_member_reference(scenario, member, config)

    independent_s = _best_of(independent)
    bakeoff_s = _best_of(
        lambda: run_bakeoff(scenarios, members, config=config, cache=None)
    )
    identical = all(
        cell.digest == references[cell.member].digest for cell in shared.cells
    )
    return independent_s, bakeoff_s, identical, shared


def _branch_bookkeeping(
    scenarios, members, config, rounds: int = 1
) -> Dict[str, float]:
    """Mean µs of one fork and one merge check: the best of ``rounds``
    instrumented passes, cyclic GC paused in each."""
    best = {"_fork": float("inf"), "_merge_converged": float("inf")}
    spent = {name: [0.0, 0] for name in best}
    originals = {name: getattr(FleetColocationKernel, name) for name in spent}

    def timed(name):
        original = originals[name]

        def wrapper(*args):
            t0 = time.perf_counter()
            try:
                return original(*args)
            finally:
                spent[name][0] += time.perf_counter() - t0
                spent[name][1] += 1

        return wrapper

    for name in spent:
        setattr(FleetColocationKernel, name, timed(name))
    try:
        for _ in range(rounds):
            for entry in spent.values():
                entry[:] = [0.0, 0]
            gc.collect()
            gc.disable()
            try:
                run_bakeoff(scenarios, members, config=config, cache=None)
            finally:
                gc.enable()
            for name, (seconds, _calls) in spent.items():
                best[name] = min(best[name], seconds)
    finally:
        for name, original in originals.items():
            setattr(FleetColocationKernel, name, original)
    fork_s, merge_s = best["_fork"], best["_merge_converged"]
    forks, merge_calls = spent["_fork"][1], spent["_merge_converged"][1]
    return {
        "merge_calls": merge_calls,
        "us_per_fork": round(fork_s / forks * 1e6, 1) if forks else None,
        "us_per_merge_call": (
            round(merge_s / merge_calls * 1e6, 1) if merge_calls else None
        ),
    }


def _merge_check(service: str, config) -> Dict[str, object]:
    """The ``diverged`` block: the four-member roster's merge check."""
    members = default_members(service)
    scenarios = bakeoff_scenario_grid(
        service=service,
        loads=DIVERGED_LOADS,
        be_jobs=(BENCH_BE_JOB,),
        duration_s=BENCH_DURATION_S,
        seed=BENCH_SEED,
    )
    # Warm-up outside the timed rounds (it also profiles Rhythm).
    shared = run_bakeoff(scenarios, members, config=config, cache=None)
    solo = [
        run_member_reference(scenario, member, config).digest
        for scenario in scenarios
        for member in members
    ]
    book = _branch_bookkeeping(scenarios, members, config, rounds=BENCH_ROUNDS)
    bakeoff_s = _best_of(
        lambda: run_bakeoff(scenarios, members, config=config, cache=None)
    )
    return {
        "members": [member.name for member in members],
        "loads": list(DIVERGED_LOADS),
        "cpu_count": environment()["cpu_count"],
        "forks": shared.forks,
        "merges": shared.merges,
        "branch_ticks": shared.branch_ticks,
        "merge_attempts": book["merge_calls"],
        "us_per_attempt": book["us_per_merge_call"],
        "bakeoff_s": round(bakeoff_s, 4),
        "identical_results": [cell.digest for cell in shared.cells] == solo,
        "exercised": shared.forks > 0 and shared.merges > 0,
    }


def run_benchmark(
    out: Optional[str] = DEFAULT_REPORT,
    gate: Optional[float] = DEFAULT_GATE,
) -> Dict[str, object]:
    """Run the independent-vs-shared and cold/warm sequences and report."""
    service = "Redis"
    members = _members(service)
    scenarios = bakeoff_scenario_grid(
        service=service,
        loads=(BENCH_LOAD,),
        be_jobs=(BENCH_BE_JOB,),
        duration_s=BENCH_DURATION_S,
        seed=BENCH_SEED,
    )
    config = BakeoffConfig(duration_s=BENCH_DURATION_S)
    independent_s, bakeoff_s, identical, shared = _independent_vs_shared(
        scenarios, members, config
    )
    speedup = round(independent_s / bakeoff_s, 2) if bakeoff_s > 0 else None

    divergent_scenarios = bakeoff_scenario_grid(
        service=service,
        loads=(DIVERGENT_LOAD,),
        be_jobs=(BENCH_BE_JOB,),
        duration_s=BENCH_DURATION_S,
        seed=BENCH_SEED,
    )
    d_independent_s, d_bakeoff_s, d_identical, d_shared = (
        _independent_vs_shared(divergent_scenarios, members, config)
    )
    divergent = {
        "load": DIVERGENT_LOAD,
        "cpu_count": environment()["cpu_count"],
        "forks": d_shared.forks,
        "merges": d_shared.merges,
        "branch_ticks": d_shared.branch_ticks,
        "shared_fraction": round(d_shared.shared_fraction, 4),
        **_branch_bookkeeping(divergent_scenarios, members, config),
        "independent_s": round(d_independent_s, 4),
        "bakeoff_s": round(d_bakeoff_s, 4),
        "speedup": (
            round(d_independent_s / d_bakeoff_s, 2) if d_bakeoff_s > 0 else None
        ),
        "identical_results": d_identical,
    }
    # The probe must keep exercising both branch operations.
    divergent["exercised"] = divergent["forks"] > 0 and divergent["merges"] > 0
    diverged = _merge_check(service, config)

    cache_dir = tempfile.mkdtemp(prefix="rhythm-bench-bakeoff-")
    try:
        store = CacheStore(directory=cache_dir)
        cold = run_bakeoff(scenarios, members, config=config, cache=store)
        warm = run_bakeoff(scenarios, members, config=config, cache=store)
        disk = store.stats()
        cached = {
            "cold": {
                "hits": cold.cache.hits,
                "misses": cold.cache.misses,
                "passes": cold.passes,
            },
            "warm": {
                "hits": warm.cache.hits,
                "misses": warm.cache.misses,
                "passes": warm.passes,
            },
            "warm_zero_passes": warm.passes == 0,
            "warm_identical_digest": warm.digest == cold.digest,
            "store_entries": disk.entries,
            "store_bytes": disk.total_bytes,
        }
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    report: Dict[str, object] = {
        "benchmark": "bakeoff",
        **environment(),
        "roster": {
            "members": [member.name for member in members],
            "service": service,
            "load": BENCH_LOAD,
            "be_job": BENCH_BE_JOB,
            "duration_s": BENCH_DURATION_S,
            "seed": BENCH_SEED,
        },
        "independent_s": round(independent_s, 4),
        "bakeoff_s": round(bakeoff_s, 4),
        "speedup": speedup,
        "identical_results": identical,
        "shared_pass": {
            "passes": shared.passes,
            "forks": shared.forks,
            "merges": shared.merges,
            "branch_ticks": shared.branch_ticks,
            "member_ticks": shared.member_ticks,
            "shared_fraction": round(shared.shared_fraction, 4),
        },
        "divergent": divergent,
        "diverged": diverged,
        "cached": cached,
    }
    correct = bool(
        identical
        and d_identical
        and divergent["exercised"]
        and diverged["identical_results"]
        and diverged["exercised"]
        and cached["warm_zero_passes"]
        and cached["warm_identical_digest"]
    )
    report["correct"] = correct
    if gate is not None:
        report["gate"] = gate
        report["gate_passed"] = bool(
            correct and speedup is not None and speedup >= gate
        )
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return report


def test_bakeoff_speedup(benchmark):
    """One measured round: >=2x aggregate, bit-identical, warm at 0 passes."""
    from conftest import run_once

    report = run_once(benchmark, run_benchmark)
    print()
    print(json.dumps(report, indent=2))
    assert report["correct"], "bakeoff diverged from reference or re-simulated"
    assert report["speedup"] >= 2.0, (
        f"expected >=2x aggregate bake-off speedup, got {report['speedup']}x"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=DEFAULT_REPORT)
    parser.add_argument(
        "--gate",
        type=float,
        default=None,
        help="fail (exit 1) if aggregate speedup < GATE or any check fails",
    )
    args = parser.parse_args()
    report = run_benchmark(out=args.out, gate=args.gate)
    print(json.dumps(report, indent=2))
    if not report["correct"]:
        print(
            "FAIL: bake-off diverged from the reference, re-simulated, "
            "or the divergence probe stopped forking/merging"
        )
        return 1
    print(
        f"\nindependent {report['independent_s']}s | "
        f"bakeoff {report['bakeoff_s']}s | speedup {report['speedup']}x | "
        f"{report['shared_pass']['shared_fraction']:.0%} physics shared | "
        f"report -> {args.out}"
    )
    if args.gate is not None and not report.get("gate_passed"):
        print(
            f"FAIL: aggregate speedup {report['speedup']}x "
            f"below gate {args.gate}x"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
