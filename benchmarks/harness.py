"""The one harness every ``BENCH_*.json`` emitter runs on.

An emitter keeps its workload and its checks; everything they share is
stated once, here:

- **Timing.** :func:`ab_pairs` times the two sides of a comparison in
  :data:`PAIRS` interleaved pairs and alternates which side runs first,
  so a shared host's speed drift hits both sides alike.
  :func:`cold_warm_pairs` times a cold run and its warm re-run against
  a fresh store per pair, in that natural order. :func:`timed` pauses
  the cyclic GC inside every timed call. Every pair is recorded, and a
  comparison's ratio is the median pair ratio.
- **Gate.** :func:`finish` ANDs every check the emitter recorded into
  ``correct`` before it reads any ratio. ``gate_passed`` is ``correct
  and ratio >= gate``. Only a pool ratio skips its ratio half on one
  CPU, which cannot run a pool faster.
- **Report and exit.** :func:`finish` writes ``cpu_count``,
  ``degraded``, the gated comparison's pairs, the checks, ``correct``,
  ``gate`` and ``gate_passed``. :func:`main` parses ``--out`` and
  ``--gate`` and exits 1 on a failed check or a failed gate;
  :func:`check` is the pytest-benchmark target's body.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import tempfile
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.cache import CacheOutcomes, CacheStore

#: Timed pairs per comparison, for every emitter.
PAIRS = 5


def timed(fn: Callable[[], object]) -> Tuple[float, object]:
    """``(seconds, result)`` of one call, cyclic GC paused inside it."""
    gc.collect()
    gc.disable()
    try:
        t0 = perf_counter()
        result = fn()
        return perf_counter() - t0, result
    finally:
        gc.enable()


class Pairs:
    """The timed pairs of one comparison: ``base`` over ``other``.

    ``seconds`` and ``results`` hold one ``(base, other)`` tuple per
    pair, so an emitter can check every pair's outputs.
    """

    def __init__(
        self, base: str, other: str, seconds: Optional[List[Tuple[float, float]]] = None
    ) -> None:
        self.base = base
        self.other = other
        self.seconds = seconds or []
        self.results: List[Tuple[object, object]] = []

    @property
    def ratio(self) -> float:
        """The median pair ratio, as reported."""
        return round(statistics.median(a / b for a, b in self.seconds), 3)

    def median(self, side: int) -> float:
        """One side's median seconds (0: base, 1: other)."""
        return statistics.median(pair[side] for pair in self.seconds)

    def report(self) -> Dict[str, object]:
        """Every pair, each side's median and the median pair ratio."""
        return {
            "pairs": [
                {self.base: round(a, 4), self.other: round(b, 4),
                 "speedup": round(a / b, 3)}
                for a, b in self.seconds
            ],
            self.base: round(self.median(0), 4),
            self.other: round(self.median(1), 4),
            "speedup": self.ratio,
        }

    def __add__(self, other: "Pairs") -> "Pairs":
        """Pair-by-pair sums: the aggregate of two workloads' pairs."""
        return Pairs(
            self.base,
            self.other,
            [(a + c, b + d) for (a, b), (c, d) in zip(self.seconds, other.seconds)],
        )


def ab_pairs(
    base: Callable[[], object],
    other: Callable[[], object],
    names: Tuple[str, str],
) -> Pairs:
    """Time ``base`` against ``other`` in :data:`PAIRS` pairs; odd pairs
    run ``other`` first."""
    pairs = Pairs(*names)
    for i in range(PAIRS):
        if i % 2:
            other_s, other_r = timed(other)
            base_s, base_r = timed(base)
        else:
            base_s, base_r = timed(base)
            other_s, other_r = timed(other)
        pairs.seconds.append((base_s, other_s))
        pairs.results.append((base_r, other_r))
    return pairs


@contextmanager
def fresh_store() -> Iterator[CacheStore]:
    """A private, empty cache store, deleted on exit."""
    directory = tempfile.mkdtemp(prefix="rhythm-bench-")
    try:
        yield CacheStore(directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def cold_warm_pairs(
    run: Callable[[CacheStore], object],
    follow_up: Optional[Callable[[CacheStore], object]] = None,
) -> Tuple[Pairs, object]:
    """Time ``run(store)`` cold, then warm, against a fresh store per pair.

    ``follow_up(store)`` runs untimed on the last pair's store, after
    its warm run; its result is returned with the pairs.
    """
    pairs = Pairs("cold_s", "warm_s")
    followed = None
    for i in range(PAIRS):
        with fresh_store() as store:
            cold_s, cold = timed(lambda: run(store))
            warm_s, warm = timed(lambda: run(store))
            pairs.seconds.append((cold_s, warm_s))
            pairs.results.append((cold, warm))
            if follow_up is not None and i == PAIRS - 1:
                followed = follow_up(store)
    return pairs, followed


def outcomes(cache: CacheOutcomes) -> Dict[str, object]:
    """One run's cache outcomes as a report block."""
    return {
        "hits": cache.hits,
        "misses": cache.misses,
        "skipped": cache.skipped,
        "zero_simulations": cache.simulated == 0,
    }


def finish(
    benchmark: str,
    body: Dict[str, object],
    checks: Dict[str, bool],
    pairs: Pairs,
    out: Optional[str],
    gate: Optional[float],
    pool: bool = False,
) -> Dict[str, object]:
    """Decide ``correct``, apply the gate to ``pairs`` and write the report.

    ``pool`` marks a pool-over-inline ratio: on one CPU its gate checks
    ``correct`` alone, and ``degraded`` also flags a ratio below 1x.
    """
    correct = all(checks.values())
    cpu_count = os.cpu_count() or 1
    skipped = pool and cpu_count < 2
    report: Dict[str, object] = {
        "benchmark": benchmark,
        "cpu_count": cpu_count,
        "degraded": cpu_count < 2 or (pool and pairs.ratio < 1.0),
        **body,
        **pairs.report(),
        "checks": {name: bool(ok) for name, ok in checks.items()},
        "correct": correct,
    }
    if gate is not None:
        report["gate"] = gate
        report["gate_skipped"] = skipped
        report["gate_passed"] = correct and (skipped or pairs.ratio >= gate)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return report


def verdict(report: Dict[str, object]) -> int:
    """Print the outcome of a finished report; 1 on a failed check or gate."""
    failed = [name for name, ok in report["checks"].items() if not ok]
    if failed:
        print(f"FAIL: {report['benchmark']} checks failed: {', '.join(failed)}")
        return 1
    print(
        f"\n{report['benchmark']}: speedup {report['speedup']}x "
        f"(median of {len(report['pairs'])} pairs), every check passed"
    )
    if "gate" not in report:
        return 0
    if report["gate_skipped"]:
        print(f"gate {report['gate']}x skipped: 1 CPU cannot run a pool faster")
    elif not report["gate_passed"]:
        print(f"FAIL: speedup {report['speedup']}x below gate {report['gate']}x")
        return 1
    return 0


def main(run_benchmark: Callable[..., Dict[str, object]], doc: str,
         out: str, gated: bool = True, **flags: Optional[int]) -> int:
    """The emitter's command line: ``--out``, ``--gate`` unless the
    emitter is not ``gated``, and the integer ``flags`` it adds (name to
    default), all passed on to ``run_benchmark``."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--out", default=out)
    if gated:
        parser.add_argument(
            "--gate",
            type=float,
            default=None,
            help="exit 1 if any check fails or the median pair ratio is "
            "below GATE",
        )
    for name, default in flags.items():
        parser.add_argument(f"--{name}", type=int, default=default)
    report = run_benchmark(**vars(parser.parse_args()))
    print(json.dumps(report, indent=2))
    return verdict(report)


def check(benchmark, run_benchmark, gate: float, **kwargs) -> Dict[str, object]:
    """One measured round of ``run_benchmark`` under ``gate``, asserted."""
    from conftest import run_once

    report = run_once(benchmark, run_benchmark, gate=gate, **kwargs)
    print()
    print(json.dumps(report, indent=2))
    failed = [name for name, ok in report["checks"].items() if not ok]
    assert report["correct"], f"checks failed: {failed}"
    assert report["gate_passed"], (
        f"speedup {report['speedup']}x below gate {gate}x"
    )
    return report
