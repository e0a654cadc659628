"""Per-tick metric columns and the binary result digest.

:class:`~repro.metrics.collector.MachineMetrics` keeps its Figure-17
series as columns, the fleet kernel gathers them once at finalize, and
:func:`~repro.experiments.colocation.result_digest` hashes them as raw
bytes. These tests pin that this is a change of encoding only:

- the binary digest, and the grid fingerprints built on its result
  half, tell results apart exactly where an independent text digest
  (``sha256`` over the ``repr`` of per-tick python tuples and the RNG
  states, built in this module) does, on scalar and fleet runs, shard
  counts 1/2/4, two seeds, and copies of one result with one tick's
  tail or load, one count entry, one action or the completed BE
  throughput moved by one ulp or one unit;
- the ``TickSample`` rows built from the columns equal the rows the
  scalar ``record_tick`` arguments define, on both paths;
- Figure 17's CSV export is pinned, and the SLA counters read the tail
  column without building rows.
"""

from __future__ import annotations

import copy
import csv
import hashlib
from itertools import combinations

import numpy as np
import pytest

from repro.core.actions import BeAction
from repro.experiments.colocation import ColocationConfig, result_digest
from repro.experiments.export import timeline_to_csv
from repro.experiments.figures.figure17 import run_figure17
from repro.experiments.fleet import FleetConfig, _build_experiment, alibaba_fleet
from repro.experiments.runner import ComparisonResult
from repro.metrics.collector import (
    COUNT_COLUMNS,
    FLOAT_COLUMNS,
    MachineMetrics,
    TickSample,
)
from repro.parallel.grid import colocation_fingerprint, comparison_fingerprint
from repro.sim.kernel import FleetColocationKernel

from tests.test_fleet_faults import tick_path  # noqa: F401 (fixture)

DURATION_S = 30.0


def text_fingerprint(result) -> tuple:
    """Every reported quantity of ``result`` as python tuples, one per
    tick: the reference the binary result hash must agree with."""
    machines = []
    for pod in sorted(result.machines):
        metrics = result.machines[pod]
        machines.append(
            (
                pod,
                metrics.machine_name,
                metrics.completed_be_throughput,
                metrics.avg_emu,
                metrics.avg_cpu_utilisation,
                metrics.avg_membw_utilisation,
                metrics.window_tails,
                tuple(metrics.tick_rows()),
            )
        )
    return (
        result.service,
        result.duration_s,
        result.lc_load_mean,
        result.be_kills,
        result.be_suspensions,
        result.sla_violations,
        result.worst_tail_ms,
        result.events_fired,
        tuple(machines),
    )


def text_digest(streams, result) -> str:
    """``sha256`` over the ``repr`` of the text fingerprint and the RNG
    states."""
    rng_states = tuple(
        (name, repr(streams._streams[name].bit_generator.state))
        for name in sorted(streams._streams)
    )
    blob = repr((text_fingerprint(result), rng_states))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _experiments(seed: int):
    fleet = alibaba_fleet(
        8,
        policy="heracles",
        duration_s=DURATION_S,
        seed=seed,
        config=FleetConfig(duration_s=DURATION_S, workers=1),
    )
    return [_build_experiment(spec, fleet.config) for spec in fleet.instances]


def _scalar_runs(seed: int):
    runs = []
    for exp in _experiments(seed):
        exp.kernel = "scalar"
        runs.append((exp.streams, exp.run()))
    return runs


def _fleet_runs(seed: int, shards: int):
    exps = _experiments(seed)
    size = -(-len(exps) // shards)
    results = []
    for start in range(0, len(exps), size):
        results.extend(FleetColocationKernel(exps[start : start + size]).run())
    return [(exp.streams, result) for exp, result in zip(exps, results)]


def _bump_float(column):
    def bump(metrics):
        series = metrics.columns()[0][FLOAT_COLUMNS.index(column)]
        series[3] = np.nextafter(series[3], np.inf)

    return bump


def _bump_count(metrics):
    metrics.columns()[1][COUNT_COLUMNS.index("be_cores")][3] += 1


def _bump_action(metrics):
    names = [action.value for action in BeAction]
    metrics._actions[3] = names[(names.index(metrics._actions[3]) + 1) % len(names)]


def _bump_throughput(metrics):
    metrics.completed_be_throughput = float(
        np.nextafter(metrics.completed_be_throughput, np.inf)
    )


#: One-ulp or one-unit moves of single result fields, on copies.
NUDGES = {
    "tail": _bump_float("tail_ms"),
    "load": _bump_float("load"),
    "count": _bump_count,
    "action": _bump_action,
    "throughput": _bump_throughput,
}


class TestDigestEqualityClasses:
    def test_binary_and_text_digests_partition_alike(self, tick_path):
        runs = []  # (label, streams, result)
        for seed in (1, 2):
            for k, run in enumerate(_scalar_runs(seed)):
                runs.append((f"seed{seed}/scalar/{k}", *run))
            for shards in (1, 2, 4):
                for k, run in enumerate(_fleet_runs(seed, shards)):
                    runs.append((f"seed{seed}/shards{shards}/{k}", *run))
        n_instances = len(runs) // 8
        label, streams, result = runs[0]
        for name, nudge in NUDGES.items():
            nudged = copy.deepcopy(result)
            nudge(nudged.machines[sorted(nudged.machines)[0]])
            runs.append((f"{label}/{name}", streams, nudged))

        old = [text_digest(s, r) for _, s, r in runs]
        new = [result_digest(s, r) for _, s, r in runs]
        old_fp = [repr(text_fingerprint(r)) for _, _, r in runs]
        new_fp = [colocation_fingerprint(r) for _, _, r in runs]
        for i, j in combinations(range(len(runs)), 2):
            pair = (runs[i][0], runs[j][0])
            assert (old[i] == old[j]) == (new[i] == new[j]), pair
            assert (old_fp[i] == old_fp[j]) == (new_fp[i] == new_fp[j]), pair
        # The classes are the identity contract's: one per (seed,
        # instance) across scalar and every shard count, plus one per
        # nudged copy.
        assert len(set(new)) == 2 * n_instances + len(NUDGES)

        def cell(rhythm, heracles):
            return comparison_fingerprint(
                ComparisonResult("svc", "be", 0.5, rhythm, heracles)
            )

        for _, _, nudged in runs[-len(NUDGES):]:
            assert colocation_fingerprint(nudged) != colocation_fingerprint(result)
            assert cell(nudged, result) != cell(result, result)
            assert cell(result, nudged) != cell(result, result)
            assert result_digest(streams, nudged) != new[0]


def _recorded_rows(monkeypatch):
    """Patch ``record_tick`` to also keep the ``TickSample`` each call
    defines; returns ``{id(metrics): [TickSample, ...]}``."""
    rows = {}
    original = MachineMetrics.record_tick

    def record_tick(self, t, dt, load, tail_ms, busy_cores, membw_fraction,
                    be_instances, be_cores, be_llc_ways, be_rate, action):
        rows.setdefault(id(self), []).append(
            TickSample(
                t=t,
                load=load,
                slack=(self.sla_ms - tail_ms) / self.sla_ms,
                tail_ms=tail_ms,
                cpu_utilisation=min(1.0, busy_cores / self.total_cores),
                membw_utilisation=membw_fraction,
                be_instances=be_instances,
                be_cores=be_cores,
                be_llc_ways=be_llc_ways,
                be_rate=be_rate,
                action=action,
            )
        )
        original(self, t, dt, load, tail_ms, busy_cores, membw_fraction,
                 be_instances, be_cores, be_llc_ways, be_rate, action)

    monkeypatch.setattr(MachineMetrics, "record_tick", record_tick)
    return rows


class TestSamplesFromColumns:
    def test_scalar_and_fleet_samples_equal_record_tick_rows(
        self, tick_path, monkeypatch
    ):
        rows = _recorded_rows(monkeypatch)
        scalar = _scalar_runs(3)
        fleet = _fleet_runs(3, shards=1)
        for (_, want), (_, got) in zip(scalar, fleet):
            for pod, metrics in want.machines.items():
                expected = rows[id(metrics)]
                assert len(expected) == DURATION_S / 2
                assert metrics.samples == expected
                assert got.machines[pod].samples == expected
                for sample in got.machines[pod].samples:
                    assert type(sample.t) is float
                    assert type(sample.be_instances) is int

    def test_counters_read_the_tail_column(self, monkeypatch):
        monkeypatch.setattr(
            MachineMetrics,
            "samples",
            property(lambda self: pytest.fail("samples built")),
        )
        metrics = MachineMetrics("m", "pod", total_cores=8.0, sla_ms=10.0)
        assert metrics.sla_violations == 0
        assert metrics.worst_tail_ms == 0.0
        for t, tail in enumerate((4.0, 12.0, 10.0, 15.5)):
            metrics.record_tick(
                t=float(t), dt=1.0, load=0.5, tail_ms=tail, busy_cores=2.0,
                membw_fraction=0.1, be_instances=0, be_cores=0,
                be_llc_ways=0, be_rate=0, action="AllowBEGrowth",
            )
        assert metrics.sla_violations == 2
        assert metrics.worst_tail_ms == 15.5
        assert metrics.window_tails == (4.0, 12.0, 10.0, 15.5)


#: sha256 of Figure 17's CSV export for a 60 s run (seed 0). Only one
#: text change since the rows came from TickSample lists: a zero
#: ``be_rate`` prints ``0.0`` where the scalar path's empty rate sum
#: printed ``0``.
FIGURE17_CSV_SHA256 = (
    "a3897e75b22d8e14e9b005aeeae497325bc1d804229750f9c22c2c9cc31b63c2"
)


def test_figure17_csv_pinned(tmp_path):
    data = run_figure17(duration_s=60.0, config=ColocationConfig(duration_s=60.0))
    path = timeline_to_csv(data, tmp_path / "timeline.csv")
    with path.open() as fh:
        rates = [row["be_rate"] for row in csv.DictReader(fh)]
    assert "0.0" in rates and "0" not in rates
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FIGURE17_CSV_SHA256
