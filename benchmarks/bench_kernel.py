"""Scalar-vs-batched simulation kernel benchmark → ``BENCH_kernel.json``.

Times the same workloads under both kernels on ONE core and reports
events/sec and the speedup, per workload and in aggregate:

- ``colocation``: one Redis-vs-Heracles co-location cell (the control
  tick path the batched SoA kernel vectorises).
- ``queueing``: a G/G/8 request-level queue near saturation (the path
  where the engine-free Lindley recurrence replaces hundreds of
  thousands of discrete events).

Each workload times scalar against batched in the harness's interleaved
pairs; the aggregate pair sums both workloads' pairs, and the gate
reads its median ratio. Identity is checked the hard way: fingerprints
plus the final state of every RNG stream must match across kernels in
every pair, in-process under every probe pattern, and in a
fork-started and a spawn-started child, with and without fault
injection. A fast batched kernel that drifts by one bit fails the
benchmark outright.

Run standalone (``PYTHONPATH=src python benchmarks/bench_kernel.py
[--out BENCH_kernel.json] [--gate 5.0]``) or via
``pytest benchmarks/bench_kernel.py --benchmark-only``.
"""

from __future__ import annotations

import multiprocessing
from typing import Dict, Optional, Tuple

import harness
from repro.baselines.heracles import heracles_controllers
from repro.bejobs.catalog import evaluation_be_jobs
from repro.experiments.colocation import ColocationConfig, ColocationExperiment
from repro.experiments.runner import kernel_identity_probe
from repro.loadgen.patterns import ConstantLoad
from repro.parallel.grid import colocation_fingerprint
from repro.sim.rng import RandomStreams
from repro.workloads.catalog import redis_service
from repro.workloads.queueing import QueueingComponent

#: Per-workload sizing. The colocation cell runs the full control loop
#: at the paper's 2 s period — 40 simulated minutes so the tick path
#: dominates the fixed deploy/profile setup cost; the queue runs at 70%
#: of an 8-worker component's capacity, which yields ~10^5 events per
#: simulated minute.
COLOCATION_DURATION_S = 2400.0
QUEUE_DURATION_S = 120.0
QUEUE_LOAD = 0.7
REPORT = "BENCH_kernel.json"
GATE = 5.0


def _stream_states(streams: RandomStreams) -> Tuple:
    return tuple(
        (name, repr(streams._streams[name].bit_generator.state))
        for name in sorted(streams._streams)
    )


def _run_colocation(kernel: str) -> Tuple[int, Tuple]:
    """One co-location cell; returns (events, fingerprint)."""
    service = redis_service()
    experiment = ColocationExperiment(
        service,
        heracles_controllers(service),
        [evaluation_be_jobs()[0]],
        ConstantLoad(0.55),
        streams=RandomStreams(7),
        config=ColocationConfig(duration_s=COLOCATION_DURATION_S),
        kernel=kernel,
    )
    result = experiment.run()
    return result.events_fired, (result, experiment.streams)


def _run_queueing(kernel: str) -> Tuple[int, Tuple]:
    """One queueing run; returns (events, fingerprint)."""
    component = QueueingComponent(2.0, 0.3, workers=8)
    streams = RandomStreams(11)
    stats = component.simulate(
        QUEUE_LOAD * component.capacity_qps,
        QUEUE_DURATION_S,
        streams,
        kernel=kernel,
    )
    return stats.events, (stats, streams)


def _subprocess_identity() -> bool:
    """Cross-process identity: fork and spawn children must reproduce the
    parent's scalar run bit-for-bit under the batched kernel, with and
    without fault injection."""
    cases = [
        {"seed": 5, "pattern_name": "step", "with_faults": False},
        {"seed": 5, "pattern_name": "constant", "with_faults": True},
    ]
    methods = [
        m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()
    ]
    for method in methods:
        ctx = multiprocessing.get_context(method)
        with ctx.Pool(1) as pool:
            for case in cases:
                child = pool.apply(kernel_identity_probe, ("batched",), case)
                if kernel_identity_probe("scalar", **case) != child:
                    return False
    return bool(methods)


def run_benchmark(
    out: Optional[str] = REPORT, gate: Optional[float] = None
) -> Dict[str, object]:
    """Time both kernels on both workloads; write and return the report."""
    workloads: Dict[str, Dict[str, object]] = {}
    total = None
    identical = True
    for name, runner, fingerprint in (
        ("colocation", _run_colocation, colocation_fingerprint),
        ("queueing", _run_queueing, lambda stats: stats),
    ):
        pairs = harness.ab_pairs(
            lambda: runner("scalar"),
            lambda: runner("batched"),
            ("scalar_s", "batched_s"),
        )
        # Every run of either kernel must print the first scalar run.
        prints = [
            (events, fingerprint(output), _stream_states(streams))
            for pair in pairs.results
            for events, (output, streams) in pair
        ]
        same = all(p == prints[0] for p in prints)
        identical = identical and same
        events = prints[0][0]
        workloads[name] = {
            **pairs.report(),
            "events": events,
            "events_per_sec_scalar": round(events / pairs.median(0), 1),
            "events_per_sec_batched": round(events / pairs.median(1), 1),
        }
        total = pairs if total is None else total + pairs
    sim_events = sum(w["events"] for w in workloads.values())
    checks = {
        "workload_outputs": identical,
        # In-process identity under every probe pattern, plus faults.
        "probe_patterns": all(
            kernel_identity_probe("scalar", seed=3, pattern_name=p, with_faults=f)
            == kernel_identity_probe("batched", seed=3, pattern_name=p, with_faults=f)
            for p, f in (
                ("constant", False),
                ("step", False),
                ("sweep", False),
                ("diurnal", True),
            )
        ),
        "fork_and_spawn_subprocesses": _subprocess_identity(),
    }
    body = {
        "workloads": workloads,
        "sim_events": sim_events,
        "events_per_sec_scalar": round(sim_events / total.median(0), 1),
        "events_per_sec_batched": round(sim_events / total.median(1), 1),
    }
    return harness.finish("simulation_kernel", body, checks, total, out, gate)


def test_kernel_speedup(benchmark):
    """One measured round: scalar vs batched kernel, bit-identity checked."""
    harness.check(benchmark, run_benchmark, GATE)


if __name__ == "__main__":
    raise SystemExit(harness.main(run_benchmark, __doc__, REPORT))
