"""Repository benchmark: four workloads over the Rhythm simulator.

Run from the repository root::

    python3 repobench/run.py --workload fleet --seed 1 --seconds 10 --trace 0

Workloads (defined in ``repobench/workloads.py``):

- ``fleet``: a healthy 128-machine Alibaba-shaped fleet under Rhythm,
  two simulated minutes through the fleet SoA kernel, uncached;
- ``storm``: a 96-machine fleet under a correlated fault storm, run
  against an empty zone cache, re-run warm, then re-run with one storm
  event dropped (only its blast radius may re-simulate);
- ``bakeoff``: Rhythm, Heracles, interference-scoring and predictive
  controllers in one shared-physics pass per scenario;
- ``grid-cold``: profile Redis from an empty cache, then four
  Rhythm-vs-Heracles grid cells.

A run builds its inputs from ``--seed``. Set-up is timed
``SETUP_REPEATS`` times, each a fresh interpreter importing the
workload's modules plus building the inputs with the profiling memos
cleared, and reported as the median. One untimed warm-up iteration is
checked against the program's reference paths (scalar engine, solo
bake-off members, a warm cache). Then the iteration repeats for
``--seconds``; every repeat must reproduce the warm-up's digest.

Host time is reported at a reference host speed. The speed of a shared
host flips between levels up to 2x apart every few seconds, so a fixed
calibration kernel (interpreter loop plus small numpy calls, like the
simulator) runs between iterations, and every interval is scaled by
``CALIBRATION_REF_S`` over the mean calibration time just before and
just after it. ``calibration_ms`` (``--trace 1``) shows the raw speed.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics from spans
recorded around the program's layer boundaries (``repobench/spans.py``).
All state lives in ``.repobench/`` under the working directory and is
removed on exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

SETUP_REPEATS = 5
MIN_ITERATIONS = 3
STATE_DIR = ".repobench"
WORKLOADS = ("fleet", "storm", "bakeoff", "grid-cold")
#: Calibration kernel time on the reference host (an idle 2.1 GHz Xeon).
CALIBRATION_REF_S = 0.015


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _calibration_s() -> float:
    """Host seconds for the fixed calibration kernel."""
    start = time.perf_counter()
    values = np.random.default_rng(0).random(512)
    acc = 0.0
    seen = {}
    for i in range(30_000):
        acc += float(values[i & 511]) * 1.0001
        seen[i & 1023] = acc
    for _ in range(200):
        np.percentile(values, 99.0)
        np.sort(values)
    return time.perf_counter() - start


def _at_reference(raw_s: float, before_s: float, after_s: float) -> float:
    """``raw_s`` scaled by the calibrations just before and after it."""
    return raw_s * 2.0 * CALIBRATION_REF_S / (before_s + after_s)


def _timed(fn: Callable[[], object]) -> Tuple[object, float]:
    """Run ``fn`` between two calibrations: (result, reference s)."""
    before = _calibration_s()
    start = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - start
    return result, _at_reference(raw, before, _calibration_s())


def _import(root: Path, modules: List[str]) -> None:
    """A fresh interpreter importing ``modules``, as a CLI start would."""
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(modules)],
        cwd=root,
        check=True,
        timeout=120,
        stdout=subprocess.DEVNULL,
    )


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: List[str]) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro package under {root}", file=sys.stderr)
        return 2
    state_root = root / STATE_DIR
    state_root.mkdir(exist_ok=True)
    state = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=state_root))
    # One in-process worker, no default cache, default kernel; children
    # (the set-up import) inherit the same environment and CPU.
    os.environ.pop("RHYTHM_KERNEL", None)
    os.environ.update(
        PYTHONPATH=str(root / "src"),
        RHYTHM_CACHE="off",
        RHYTHM_CACHE_DIR=str(state),
        RHYTHM_WORKERS="1",
        RHYTHM_PROFILE_WORKERS="1",
    )
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(root / "src"))
    try:
        return _measure(args, root, state)
    finally:
        shutil.rmtree(state, ignore_errors=True)
        try:
            state_root.rmdir()
        except OSError:
            pass  # another run still holds its own state there


def _measure(args: argparse.Namespace, root: Path, state: Path) -> int:
    import spans
    import workloads

    modules = workloads.MODULES[args.workload]
    for module in modules:
        __import__(module)
    recorder = spans.SpanRecorder() if args.trace else None
    if recorder is not None:
        recorder.install()

    def set_up():
        _import(root, modules)
        workloads.clear_memos()
        return workloads.CASES[args.workload](args.seed, state)

    setup_s = []
    for _ in range(SETUP_REPEATS):
        case, seconds = _timed(set_up)
        setup_s.append(seconds)

    warm_up = case.run()
    reference = case.outcome(warm_up)
    problems = case.check(warm_up)
    if not reference.ok:
        problems.append("warm-up iteration broke its own invariants")
    del warm_up

    if recorder is not None:
        recorder.reset()
    raw_s: List[float] = []
    ref_s: List[float] = []
    outcomes = []
    before = _calibration_s()
    deadline = time.perf_counter() + args.seconds
    while len(raw_s) < MIN_ITERATIONS or time.perf_counter() < deadline:
        gc.collect()
        start = time.perf_counter()
        result = case.run()
        raw = time.perf_counter() - start
        after = _calibration_s()
        raw_s.append(raw)
        ref_s.append(_at_reference(raw, before, after))
        before = after
        if recorder is not None:
            recorder.end_iteration(raw)
        outcomes.append(case.outcome(result))
        del result

    failed = sum(1 for o in outcomes if not o.ok or o.digest != reference.digest)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    median = statistics.median
    metrics: Dict[str, Tuple[float, str]]
    if recorder is None:
        metrics = {
            "wall_s": (median(ref_s), "s"),
            "events_per_s": (median(o.events / s for o, s in zip(outcomes, ref_s)), "1/s"),
            "be_throughput": (reference.be_throughput, "ratio"),
            "tail_over_sla": (reference.tail_over_sla, "ratio"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
            "setup_s": (median(setup_s), "s"),
        }
    else:
        # Spans are raw host time; scale them like the iterations.
        scale = median(ref_s) / median(raw_s)
        metrics = {
            f"{layer}_ms": (value * scale, "ms")
            for layer, value in recorder.self_ms().items()
        }
        for layer in ("cache_key", "cache_get", "cache_put", "instance_tick",
                      "latency_sample", "bakeoff_branch"):
            metrics[f"{layer}_calls"] = (recorder.calls(layer), "count")
        for name in ("sla_violations", "cache_hits", "cache_misses",
                     "zones_simulated", "faulted_instances", "bakeoff_forks",
                     "bakeoff_merges", "branch_ticks", "profile_sweeps_run"):
            metrics[name] = (float(reference.counts.get(name, 0)), "count")
        metrics["sim_events"] = (float(reference.events), "count")
        metrics["traced_wall_ms"] = (1e3 * median(ref_s), "ms")
        metrics["span_coverage_pct"] = (100.0 * recorder.coverage(), "%")
        metrics["calibration_ms"] = (1e3 * CALIBRATION_REF_S / scale, "ms")

    print(
        f"{args.workload} seed={args.seed}: {len(raw_s)} iterations, "
        f"median {median(raw_s):.3f}s raw, {median(ref_s):.3f}s at reference "
        f"speed, setup {median(setup_s):.3f}s",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": not problems and failed == 0,
                "attempted": len(outcomes),
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
