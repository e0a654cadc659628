"""Per-tick metric columns and the binary result digest.

:class:`~repro.metrics.collector.MachineMetrics` keeps its Figure-17
series as columns, the fleet kernel gathers them once at finalize, and
:func:`~repro.experiments.colocation.result_digest` hashes them as raw
bytes. These tests pin that this is a change of encoding only:

- the binary digest tells results apart exactly where the text digest
  it replaced (``sha256`` over the ``repr`` of the fingerprint and the
  RNG states) does, on scalar and fleet runs, shard counts 1/2/4, two
  seeds and a one-ulp change to one tick's tail;
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

from repro.experiments.colocation import ColocationConfig, result_digest
from repro.experiments.export import timeline_to_csv
from repro.experiments.figures.figure17 import run_figure17
from repro.experiments.fleet import FleetConfig, _build_experiment, alibaba_fleet
from repro.metrics.collector import FLOAT_COLUMNS, MachineMetrics, TickSample
from repro.parallel.grid import colocation_fingerprint
from repro.sim.kernel import FleetColocationKernel

from tests.test_fleet_faults import tick_path  # noqa: F401 (fixture)

DURATION_S = 30.0


def text_digest(streams, result) -> str:
    """The text digest the binary format replaced."""
    rng_states = tuple(
        (name, repr(streams._streams[name].bit_generator.state))
        for name in sorted(streams._streams)
    )
    blob = repr((colocation_fingerprint(result), rng_states))
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


class TestDigestEqualityClasses:
    def test_binary_and_text_digests_partition_alike(self, tick_path):
        runs = []  # (label, streams, result)
        for seed in (1, 2):
            for k, run in enumerate(_scalar_runs(seed)):
                runs.append((f"seed{seed}/scalar/{k}", *run))
            for shards in (1, 2, 4):
                for k, run in enumerate(_fleet_runs(seed, shards)):
                    runs.append((f"seed{seed}/shards{shards}/{k}", *run))
        # One tick's tail moved by one ulp on a copy of the first run.
        label, streams, result = runs[0]
        nudged = copy.deepcopy(result)
        metrics = nudged.machines[sorted(nudged.machines)[0]]
        tails = metrics.columns()[0][FLOAT_COLUMNS.index("tail_ms")]
        tails[3] = np.nextafter(tails[3], np.inf)
        runs.append((label + "/ulp", streams, nudged))

        old = [text_digest(s, r) for _, s, r in runs]
        new = [result_digest(s, r) for _, s, r in runs]
        for i, j in combinations(range(len(runs)), 2):
            assert (old[i] == old[j]) == (new[i] == new[j]), (runs[i][0], runs[j][0])
        # The classes are the identity contract's: one per (seed,
        # instance) across scalar and every shard count, plus the copy.
        n_instances = len(runs) // 8
        assert len(set(new)) == 2 * n_instances + 1
        assert new[-1] != new[0]


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
        # No window closed: the worst tail falls back to the column.
        assert metrics.worst_tail_ms == 15.5


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
