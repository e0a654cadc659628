"""Controller bake-off engine benchmark → ``BENCH_bakeoff.json``.

Measures the single-pass multi-controller evaluation engine end to end:

- ``independent`` vs ``bakeoff``: three controllers (Heracles,
  interference-scoring, predictive) evaluated on one scenario — first
  as three independent reference runs, then as one shared-physics
  pass (three aliased slots of one
  :class:`~repro.sim.kernel.FleetColocationKernel`), in the harness's
  interleaved pairs. The shared pass must be >=2x faster in aggregate
  (the median pair ratio) and reproduce every member's cell digest
  bit-identically in every pair.
- ``divergent``: the same roster at a load where the members keep
  disagreeing (the interference member says DISALLOW every few ticks
  while the others ALLOW), the case the shared pass pays slot
  bookkeeping for: it forks and re-merges until a merge has carried
  the proof that both actions are no-ops to the surviving slot. Records
  the fork and merge counts, the branch ticks, the share of physics
  shared and the pairs' speedup over independent runs. Members must
  stay bit-identical.
- ``diverged``: the merge check on the four-member roster (Rhythm,
  Heracles, interference, predictive) at loads 0.45 and 0.6, where it
  forks: merge attempts (``_merge_converged`` calls, one per tick with
  more live slots than scenarios), the mean µs of one attempt and of
  one fork (``_fork``), each the best of :data:`harness.PAIRS`
  instrumented passes, with the fork/merge counts and the members'
  identity against their solo runs. To compare two commits, run this
  script with ``PYTHONPATH`` at each commit's ``src`` back to back:
  host speed swings about 2x.
- ``cached``: the same roster against a fresh store per cold/warm pair
  — the cold run writes one ``bakeoff-cell`` entry per member, the
  warm re-run must execute ZERO shared passes and return identical
  digests.

Run standalone (``PYTHONPATH=src python benchmarks/bench_bakeoff.py
[--out BENCH_bakeoff.json] [--gate 2.0]``) or via
``pytest benchmarks/bench_bakeoff.py --benchmark-only``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional, Tuple

import harness
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

REPORT = "BENCH_bakeoff.json"
GATE = 2.0

#: The probe scenario: ten simulated minutes at a load where the three
#: rival controllers keep agreeing (full physics sharing, zero forks) —
#: the case the single-pass engine is built for.
BENCH_DURATION_S = 600.0
BENCH_LOAD = 0.30
BENCH_BE_JOB = "stream-llc"
BENCH_SEED = 11
#: The divergence probe's load: at this seed the roster forks and
#: re-merges over the run while still sharing most physics passes.
DIVERGENT_LOAD = 0.45
#: The merge-check probe's loads: the four-member roster forks and
#: re-merges at both, and checks for a merge on every tick in between.
DIVERGED_LOADS = (0.45, 0.6)


def _scenarios(loads):
    return bakeoff_scenario_grid(
        service="Redis",
        loads=loads,
        be_jobs=(BENCH_BE_JOB,),
        duration_s=BENCH_DURATION_S,
        seed=BENCH_SEED,
    )


def _independent_vs_shared(scenarios, members, config) -> Tuple[harness.Pairs, bool]:
    """Timed pairs of independent runs vs the shared pass, and whether
    every pair's shared cells match its independent runs."""

    def independent():
        return [
            run_member_reference(scenario, member, config).digest
            for scenario in scenarios
            for member in members
        ]

    def shared():
        return run_bakeoff(scenarios, members, config=config, cache=None)

    # Warm-up: both paths once, outside the timed pairs.
    independent()
    shared()
    pairs = harness.ab_pairs(independent, shared, ("independent_s", "bakeoff_s"))
    identical = all(
        solo == [cell.digest for cell in result.cells]
        for solo, result in pairs.results
    )
    return pairs, identical


def _shared_pass(result) -> Dict[str, object]:
    return {
        "passes": result.passes,
        "forks": result.forks,
        "merges": result.merges,
        "branch_ticks": result.branch_ticks,
        "member_ticks": result.member_ticks,
        "shared_fraction": round(result.shared_fraction, 4),
    }


def _merge_check(config) -> Tuple[Dict[str, object], Dict[str, bool]]:
    """The ``diverged`` block: the four-member roster's merge check.

    Mean µs of one fork and one merge check, each the best of
    :data:`harness.PAIRS` instrumented passes.
    """
    members = default_members("Redis")
    scenarios = _scenarios(DIVERGED_LOADS)
    # Warm-up outside the instrumented passes (it also profiles Rhythm).
    shared = run_bakeoff(scenarios, members, config=config, cache=None)
    solo = [
        run_member_reference(scenario, member, config).digest
        for scenario in scenarios
        for member in members
    ]
    best = {"_fork": float("inf"), "_merge_converged": float("inf")}
    spent = {name: [0.0, 0] for name in best}
    originals = {name: getattr(FleetColocationKernel, name) for name in spent}

    def instrumented(name):
        original = originals[name]

        def wrapper(*args):
            t0 = perf_counter()
            try:
                return original(*args)
            finally:
                spent[name][0] += perf_counter() - t0
                spent[name][1] += 1

        return wrapper

    for name in spent:
        setattr(FleetColocationKernel, name, instrumented(name))
    try:
        for _ in range(harness.PAIRS):
            for entry in spent.values():
                entry[:] = [0.0, 0]
            harness.timed(
                lambda: run_bakeoff(scenarios, members, config=config, cache=None)
            )
            for name, (seconds, _calls) in spent.items():
                best[name] = min(best[name], seconds)
    finally:
        for name, original in originals.items():
            setattr(FleetColocationKernel, name, original)
    forks, attempts = spent["_fork"][1], spent["_merge_converged"][1]
    block = {
        "members": [member.name for member in members],
        "loads": list(DIVERGED_LOADS),
        "forks": shared.forks,
        "merges": shared.merges,
        "branch_ticks": shared.branch_ticks,
        "merge_attempts": attempts,
        "us_per_attempt": (
            round(best["_merge_converged"] / attempts * 1e6, 1) if attempts else None
        ),
        "us_per_fork": round(best["_fork"] / forks * 1e6, 1) if forks else None,
    }
    checks = {
        "diverged_identical": [cell.digest for cell in shared.cells] == solo,
        "diverged_exercised": shared.forks > 0 and shared.merges > 0,
    }
    return block, checks


def run_benchmark(
    out: Optional[str] = REPORT,
    gate: Optional[float] = None,
) -> Dict[str, object]:
    """Run the independent-vs-shared and cold/warm sequences and report."""
    members = [heracles_member("Redis"), interference_member(), predictive_member()]
    scenarios = _scenarios((BENCH_LOAD,))
    config = BakeoffConfig(duration_s=BENCH_DURATION_S)
    pairs, identical = _independent_vs_shared(scenarios, members, config)

    d_pairs, d_identical = _independent_vs_shared(
        _scenarios((DIVERGENT_LOAD,)), members, config
    )
    d_shared = d_pairs.results[-1][1]
    diverged, diverged_checks = _merge_check(config)

    cache_pairs, disk = harness.cold_warm_pairs(
        lambda store: run_bakeoff(scenarios, members, config=config, cache=store),
        lambda store: store.stats(),
    )
    cold, warm = cache_pairs.results[-1]
    body: Dict[str, object] = {
        "roster": {
            "members": [member.name for member in members],
            "service": "Redis",
            "load": BENCH_LOAD,
            "be_job": BENCH_BE_JOB,
            "duration_s": BENCH_DURATION_S,
            "seed": BENCH_SEED,
        },
        "shared_pass": _shared_pass(pairs.results[-1][1]),
        "divergent": {
            "load": DIVERGENT_LOAD,
            **_shared_pass(d_shared),
            **d_pairs.report(),
        },
        "diverged": diverged,
        "cached": {
            **cache_pairs.report(),
            "cold": {**harness.outcomes(cold.cache), "passes": cold.passes},
            "warm": {**harness.outcomes(warm.cache), "passes": warm.passes},
            "store_entries": disk.entries,
            "store_bytes": disk.total_bytes,
        },
    }
    checks = {
        "identical_results": identical,
        "divergent_identical": d_identical,
        # The probe must keep exercising both branch operations.
        "divergent_exercised": d_shared.forks > 0 and d_shared.merges > 0,
        **diverged_checks,
        "warm_zero_passes": all(w.passes == 0 for _, w in cache_pairs.results),
        "warm_identical_digest": all(
            w.digest == c.digest for c, w in cache_pairs.results
        ),
    }
    return harness.finish("bakeoff", body, checks, pairs, out, gate)


def test_bakeoff_speedup(benchmark):
    """One measured round: >=2x aggregate, bit-identical, warm at 0 passes."""
    harness.check(benchmark, run_benchmark, GATE)


if __name__ == "__main__":
    raise SystemExit(harness.main(run_benchmark, __doc__, REPORT))
