"""Fleet kernel benchmark → ``BENCH_fleet.json``.

Three sections, all on the same machinery as the rest of the repo:

- ``reference_scale``: 48 Redis instances (96 machines) for half a
  simulated hour on ONE core, scalar-sequential vs the fleet SoA
  kernel. This is the colocation-path gate: the fleet path must clear
  >=10x events/sec at bit-identity (digests compare result
  fingerprints *and* final RNG stream states per instance). The two
  are timed in interleaved scalar/fleet pairs and the gate reads the
  median per-pair ratio, so a shared host's speed drift hits both
  sides of a ratio alike; every pair is recorded, with the share of
  the fleet side spent in per-instance result digests. A
  ``default_config`` probe records the smaller speedup at the default
  per-instance knobs for transparency — the gate shape uses
  ``max_be_instances=32`` and ``sample_cap=50``, where the scalar
  path's per-job and per-sample overheads dominate, which is exactly
  the regime a real fleet (many BE jobs per machine) lives in.
- ``identity_checks``: fleet-vs-reference digests at reference scale,
  in fork- and spawn-started children, with a fault-injected instance
  mixed in, and across shard counts 1/2/4 (zone-aligned sharding makes
  shard count a pure wall-clock knob).
- ``fleet_run``: the end-to-end >=1,000-machine synthetic
  Alibaba-shaped trace (diurnal + flash crowds), Rhythm vs Heracles,
  sharded across the persistent pool, plus a constant-load
  Rhythm-vs-Heracles curve at fleet scale.

Run standalone (``PYTHONPATH=src python benchmarks/bench_fleet.py
[--out BENCH_fleet.json] [--gate 10.0]``) or via
``pytest benchmarks/bench_fleet.py --benchmark-only``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import statistics
import time
from typing import Dict, List, Optional, Tuple

import repro.experiments.fleet as fleet_module
from bench_env import environment
from repro.experiments.fleet import (
    FleetConfig,
    FleetExperiment,
    FleetInstanceSpec,
    alibaba_fleet,
    fleet_identity_probe,
    heracles_fleet_policies,
    rhythm_fleet_policies,
)
from repro.loadgen.patterns import ConstantLoad

DEFAULT_REPORT = "BENCH_fleet.json"
DEFAULT_GATE = None

#: The reference-scale probe: 48 two-machine Redis instances for half a
#: simulated hour. Wide enough that the fleet kernel's whole-array ops
#: amortise their per-op numpy overhead, and long enough that the
#: steady colocation state (where both paths stop mutating the world
#: and the scalar path's repeated per-job recomputation dominates) is
#: most of the run.
REF_INSTANCES = 48
REF_DURATION_S = 1800.0
REF_SEED0 = 200
#: Interleaved scalar/fleet timing pairs at reference scale; the gate
#: reads the median of the per-pair speedups.
REF_PAIRS = 3
FLEET_MACHINES = 1000
FLEET_DURATION_S = 600.0
CURVE_LOADS = (0.25, 0.45, 0.65, 0.85)
CURVE_INSTANCES = 12
CURVE_DURATION_S = 300.0


def _constant_fleet(
    n_instances: int,
    policy: str,
    load: float,
    duration_s: float,
    config: FleetConfig,
    seed0: int = REF_SEED0,
) -> FleetExperiment:
    """A homogeneous constant-load Redis fleet under one policy."""
    policies = (
        rhythm_fleet_policies("Redis")
        if policy == "rhythm"
        else heracles_fleet_policies("Redis")
    )
    specs = [
        FleetInstanceSpec(
            service="Redis",
            policies=tuple(sorted(policies.items())),
            be_jobs=("stream-llc",),
            pattern=ConstantLoad(load),
            seed=seed0 + k,
        )
        for k in range(n_instances)
    ]
    return FleetExperiment(specs, config)


class _DigestTimer:
    """Sums the time the fleet spends in ``fleet.instance_digest``."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def __enter__(self) -> "_DigestTimer":
        self._original = original = fleet_module.instance_digest

        def timed(*args):
            t0 = time.perf_counter()
            try:
                return original(*args)
            finally:
                self.seconds += time.perf_counter() - t0

        fleet_module.instance_digest = timed
        return self

    def __exit__(self, *exc) -> None:
        fleet_module.instance_digest = self._original


def _reference_scale(
    max_be_instances: int,
    sample_cap: int,
    duration_s: float,
    n_instances: int = REF_INSTANCES,
    pairs: int = REF_PAIRS,
) -> Dict[str, object]:
    """Scalar-sequential vs fleet kernel on one core, identity-checked.

    Each pair runs the scalar reference and then the fleet kernel back
    to back; the reported speedup is the median of the pairs' ratios
    and the reported times are the medians of each side.
    """
    config = FleetConfig(
        duration_s=duration_s,
        shards=1,
        workers=1,
        sample_cap=sample_cap,
        min_samples=min(100, sample_cap),
        max_be_instances=max_be_instances,
    )
    fleet = _constant_fleet(n_instances, "heracles", 0.55, duration_s, config)
    timings: List[Tuple[float, float]] = []
    digest_shares: List[float] = []
    identical = True
    for _ in range(max(1, pairs)):
        t0 = time.perf_counter()
        scalar = fleet.run_reference()
        scalar_s = time.perf_counter() - t0
        with _DigestTimer() as digests:
            t0 = time.perf_counter()
            batched = fleet.run()
            fleet_s = time.perf_counter() - t0
        timings.append((scalar_s, fleet_s))
        digest_shares.append(100.0 * digests.seconds / fleet_s)
        identical = identical and scalar.digest == batched.digest
    scalar_s = statistics.median(s for s, _ in timings)
    fleet_s = statistics.median(f for _, f in timings)
    speedup = statistics.median(s / f for s, f in timings)
    events = scalar.events_fired
    return {
        "instances": n_instances,
        "machines": scalar.n_machines,
        "duration_s": duration_s,
        "max_be_instances": max_be_instances,
        "sample_cap": sample_cap,
        "events": events,
        "pairs": [
            {
                "scalar_s": round(s, 4),
                "fleet_s": round(f, 4),
                "speedup": round(s / f, 2),
                "fleet_digest_pct": round(share, 2),
            }
            for (s, f), share in zip(timings, digest_shares)
        ],
        "scalar_s": round(scalar_s, 4),
        "fleet_s": round(fleet_s, 4),
        "events_per_sec_scalar": round(events / scalar_s, 1),
        "events_per_sec_fleet": round(events / fleet_s, 1),
        "speedup": round(speedup, 2),
        "fleet_digest_pct": round(statistics.median(digest_shares), 2),
        "identical": identical,
    }


def _subprocess_identity() -> bool:
    """Fork and spawn children must reproduce the parent's sequential
    scalar reference digest through the fleet kernel, faults included."""
    cases = [
        {"n_instances": 4, "duration_s": 60.0, "seed": 5, "with_faults": False},
        {"n_instances": 4, "duration_s": 60.0, "seed": 5, "with_faults": True},
    ]
    methods = [
        m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()
    ]
    for method in methods:
        ctx = multiprocessing.get_context(method)
        with ctx.Pool(1) as pool:
            for case in cases:
                child = pool.apply(fleet_identity_probe, ("fleet",), case)
                if fleet_identity_probe("reference", **case) != child:
                    return False
    return bool(methods)


def _shard_invariance() -> Dict[str, object]:
    """The same fleet under shard counts 1/2/4 must produce one digest."""
    digests = {
        shards: fleet_identity_probe(
            "fleet", n_instances=8, duration_s=60.0, seed=9, shards=shards
        )
        for shards in (1, 2, 4)
    }
    return {
        "digests": {str(k): v[:16] for k, v in digests.items()},
        "invariant": len(set(digests.values())) == 1,
    }


def _fleet_run(workers: Optional[int]) -> Dict[str, object]:
    """The >=1,000-machine Rhythm-vs-Heracles end-to-end run.

    Runs against a private zone-granular :class:`CacheStore` so the
    report also carries the fleet cache accounting at scale: both
    policy runs are cold (every zone a miss), and the shards=3
    invariance re-run of the heracles fleet is warm — zero simulated
    zones, same digest, despite the different sharding.
    """
    import shutil
    import tempfile

    from repro.cache import CacheStore

    cache_dir = tempfile.mkdtemp(prefix="rhythm-bench-fleet-")
    store = CacheStore(directory=cache_dir)
    policies: Dict[str, Dict[str, object]] = {}
    try:
        for policy in ("rhythm", "heracles"):
            fleet = alibaba_fleet(
                FLEET_MACHINES,
                policy=policy,
                duration_s=FLEET_DURATION_S,
                seed=0,
                config=FleetConfig(
                    duration_s=FLEET_DURATION_S, shards=8, workers=workers
                ),
            )
            t0 = time.perf_counter()
            result = fleet.run(cache=store)
            elapsed = time.perf_counter() - t0
            policies[policy] = {
                "machines": result.n_machines,
                "instances": result.n_instances,
                "events_fired": result.events_fired,
                "be_throughput": round(result.be_throughput, 4),
                "emu": round(result.emu, 4),
                "sla_violations": result.sla_violations,
                "sla_violation_rate": round(result.sla_violation_rate, 5),
                "wall_s": round(elapsed, 2),
                "digest": result.digest,
                "cache": {
                    "hits": result.cache.hits,
                    "misses": result.cache.misses,
                    "skipped": result.cache.skipped,
                },
            }
        # Full-scale shard invariance: the cheaper policy, twice. The
        # re-run is deliberately differently sharded AND warm: zone
        # entries are shard-count-invariant, so it must reproduce the
        # cold digest from the store alone.
        fleet2 = alibaba_fleet(
            FLEET_MACHINES,
            policy="heracles",
            duration_s=FLEET_DURATION_S,
            seed=0,
            config=FleetConfig(
                duration_s=FLEET_DURATION_S, shards=3, workers=workers
            ),
        )
        warm = fleet2.run(cache=store)
        shard_invariant = warm.digest == policies["heracles"]["digest"]
        warm_cache = {
            "hits": warm.cache.hits,
            "misses": warm.cache.misses,
            "skipped": warm.cache.skipped,
            "zero_simulations": warm.cache.simulated == 0,
        }
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "duration_s": FLEET_DURATION_S,
        "policies": policies,
        "shard_invariant_at_scale": shard_invariant,
        "warm_rerun_cache": warm_cache,
    }


def _load_curve(workers: Optional[int]) -> List[Dict[str, object]]:
    """Rhythm-vs-Heracles BE-throughput/SLA curve at fleet scale."""
    curve: List[Dict[str, object]] = []
    config = FleetConfig(
        duration_s=CURVE_DURATION_S, shards=4, workers=workers
    )
    for load in CURVE_LOADS:
        point: Dict[str, object] = {"load": load}
        for policy in ("rhythm", "heracles"):
            fleet = _constant_fleet(
                CURVE_INSTANCES, policy, load, CURVE_DURATION_S, config
            )
            result = fleet.run()
            point[policy] = {
                "be_throughput": round(result.be_throughput, 4),
                "emu": round(result.emu, 4),
                "sla_violation_rate": round(result.sla_violation_rate, 5),
            }
        curve.append(point)
    return curve


def run_benchmark(
    out: Optional[str] = DEFAULT_REPORT,
    gate: Optional[float] = DEFAULT_GATE,
    workers: Optional[int] = None,
) -> Dict[str, object]:
    """Run every section and write the report."""
    reference = _reference_scale(
        max_be_instances=32, sample_cap=50, duration_s=REF_DURATION_S
    )
    default_cfg = _reference_scale(
        max_be_instances=16, sample_cap=800, duration_s=600.0,
        n_instances=16, pairs=1,
    )
    subprocess_ok = _subprocess_identity()
    shards = _shard_invariance()
    fleet_run = _fleet_run(workers)
    curve = _load_curve(workers)

    identical = bool(
        reference["identical"]
        and default_cfg["identical"]
        and subprocess_ok
        and shards["invariant"]
        and fleet_run["shard_invariant_at_scale"]
    )
    report: Dict[str, object] = {
        "benchmark": "fleet_kernel",
        **environment(),
        "reference_scale": reference,
        "default_config": default_cfg,
        "identity_checks": {
            "reference_scale": reference["identical"],
            "default_config": default_cfg["identical"],
            "fork_and_spawn_subprocesses": subprocess_ok,
            "shard_counts": shards,
            "shard_invariant_at_scale": fleet_run["shard_invariant_at_scale"],
        },
        "fleet_run": fleet_run,
        "load_curve": curve,
        "fleet_machines": fleet_run["policies"]["rhythm"]["machines"],
        "identical_results": identical,
    }
    if gate is not None:
        report["gate"] = gate
        report["gate_passed"] = identical and reference["speedup"] >= gate
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return report


def test_fleet_speedup(benchmark):
    """One measured round: fleet kernel vs scalar sequence, identity-gated."""
    from conftest import run_once

    report = run_once(benchmark, run_benchmark)
    print()
    print(json.dumps(report, indent=2))
    assert report["identical_results"], "fleet kernel diverged from scalar"
    assert report["fleet_machines"] >= 1000
    assert report["reference_scale"]["speedup"] >= 10.0, (
        f"expected >=10x colocation-path speedup, "
        f"got {report['reference_scale']['speedup']}x"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=DEFAULT_REPORT)
    parser.add_argument(
        "--gate",
        type=float,
        default=None,
        help="fail (exit 1) if the median reference-scale speedup < GATE "
        "or identity fails",
    )
    parser.add_argument("--workers", type=int, default=None)
    args = parser.parse_args()
    report = run_benchmark(out=args.out, gate=args.gate, workers=args.workers)
    print(json.dumps(report, indent=2))
    ref = report["reference_scale"]
    if not report["identical_results"]:
        print("FAIL: fleet kernel diverged from the scalar reference")
        return 1
    print(
        f"\n{ref['events']} events | {len(ref['pairs'])} interleaved pairs, "
        f"medians: scalar {ref['scalar_s']}s | "
        f"fleet {ref['fleet_s']}s | speedup {ref['speedup']}x | "
        f"{report['fleet_machines']} machines end-to-end | report -> {args.out}"
    )
    if args.gate is not None and not report.get("gate_passed"):
        print(f"FAIL: speedup {ref['speedup']}x below gate {args.gate}x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
