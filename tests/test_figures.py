"""Smoke tests for the per-figure experiment drivers (tiny scales).

The benchmarks run the full-scale versions; these verify each driver's
plumbing and output structure quickly.
"""

from __future__ import annotations

import pytest

from repro.baselines.heracles import heracles_controllers
from repro.baselines.static import LcSoloPolicy
from repro.bejobs.catalog import CPU_STRESS, STREAM_DRAM
from repro.experiments.colocation import ColocationConfig
from repro.experiments.figures.figure2 import increase_matrix, run_figure2
from repro.experiments.figures.figure6 import run_figure6
from repro.experiments.figures.figure7 import correlation_by_be, run_figure7
from repro.experiments.figures.figure8 import run_figure8
from repro.experiments.figures.figure9_11 import average_gain, run_servpod_grid
from repro.experiments.figures.figure12_14 import (
    average_improvement,
    improvement_table,
    run_service_grid,
)
from repro.experiments.figures.figure15 import run_figure15, worst_safety_cell
from repro.experiments.figures.figure16 import MicroserviceCell, run_figure16
from repro.experiments.figures.figure17 import run_figure17
from repro.experiments.figures.figure18 import normalized_throughput, run_figure18
from repro.experiments.figures.table1 import table1_rows
from repro.experiments.runner import run_cell
from repro.loadgen.patterns import ConstantLoad
from repro.parallel.profile import clear_profile_memo, profile_service_parallel
from repro.workloads.catalog import redis_service
from repro.workloads.microservices import snms_service

FAST = ColocationConfig(duration_s=30.0, sample_cap=150, min_samples=50)


@pytest.fixture(scope="module", autouse=True)
def _fresh_cache():
    clear_profile_memo()
    yield
    clear_profile_memo()


def test_figure2_structure():
    rows = run_figure2(services=[redis_service()], loads=(0.4, 0.8), samples=800)
    matrix = increase_matrix(rows, "Redis")
    assert set(matrix) == {"master", "slave"}
    assert len(next(iter(matrix.values()))) == 7  # seven interference kinds


def test_figure6_structure():
    data = run_figure6(loads=(0.2, 0.5, 0.8), requests_per_load=150)
    assert len(data.p99) == 3
    for pod in data.normalized_cov:
        assert len(data.normalized_cov[pod]) == 3
    # Normalized CoV shares sum to 1 at each load.
    for j in range(3):
        total = sum(data.normalized_cov[pod][j] for pod in data.normalized_cov)
        assert total == pytest.approx(1.0)


def test_figure7_structure():
    rows = run_figure7(samples=800)
    assert len(rows) == 4 * 4  # four panels x four Servpods
    assert set(correlation_by_be(rows)) == {
        "mixed", "stream-dram", "CPU-stress", "stream-llc",
    }


def test_figure8_structure():
    data = run_figure8(requests_per_load=200)
    assert set(data.loadlimit) == {"haproxy", "tomcat", "amoeba", "mysql"}
    for pod, limit in data.loadlimit.items():
        assert 0.0 < limit <= 1.0


def test_servpod_grid_structure():
    rows = run_servpod_grid(
        servpods=[("Redis", "slave")], be_specs=[CPU_STRESS],
        loads=(0.25, 0.85), config=FAST,
    )
    assert len(rows) == 4  # 1 pod x 1 be x 2 loads x 2 systems
    assert {r.system for r in rows} == {"Rhythm", "Heracles"}
    gain = average_gain(rows, "slave", "be_throughput")
    assert isinstance(gain, float)


def test_service_grid_structure():
    rows = run_service_grid(
        services=["Redis"], be_specs=[CPU_STRESS], loads=(0.45,), config=FAST
    )
    assert len(rows) == 1
    table = improvement_table(rows, "emu_improvement")
    assert set(table) == {"Redis"}
    assert average_improvement(rows, "Redis", "cpu_improvement") == pytest.approx(
        rows[0].cpu_improvement
    )


def test_figure15_structure():
    rows = run_figure15(
        services=["Redis"], be_specs=[CPU_STRESS], duration_s=120.0
    )
    assert len(rows) == 1
    cell = worst_safety_cell(rows)
    assert cell.service == "Redis"
    assert cell.worst_p99_over_sla > 0


def test_figure16_structure():
    rows = run_figure16(be_specs=[CPU_STRESS], loads=(0.4,), config=FAST)
    assert len(rows) == 1
    row = rows[0]
    assert row.emu_solo <= row.emu_rhythm + 0.05
    assert row.cpu_solo > 0


def test_figure16_rows_match_per_experiment_runs():
    # run_figure16 ticks every cell's solo, Heracles and Rhythm runs as
    # one batch; each row must be byte-identical to running them alone.
    be_specs, loads, seed = [CPU_STRESS, STREAM_DRAM], (0.4, 1.0), 0
    rows = run_figure16(be_specs=be_specs, loads=loads, seed=seed, config=FAST)
    spec = snms_service()
    artifact = profile_service_parallel(spec, seed=seed, workers=1)
    expected = []
    for be in be_specs:
        for load in loads:
            solo, rhythm, heracles = (
                run_cell(
                    spec, controllers, be, ConstantLoad(min(1.0, load)),
                    seed=seed, config=FAST, kernel="scalar",
                )
                for controllers in (
                    LcSoloPolicy().controllers(spec),
                    artifact.controllers(),
                    heracles_controllers(spec),
                )
            )
            expected.append(
                MicroserviceCell(
                    be_job=be.name,
                    load=load,
                    emu_solo=solo.emu,
                    emu_heracles=heracles.emu,
                    emu_rhythm=rhythm.emu,
                    cpu_solo=solo.cpu_utilisation,
                    cpu_heracles=heracles.cpu_utilisation,
                    cpu_rhythm=rhythm.cpu_utilisation,
                    membw_solo=solo.membw_utilisation,
                    membw_heracles=heracles.membw_utilisation,
                    membw_rhythm=rhythm.membw_utilisation,
                )
            )
    assert repr(rows) == repr(expected)


def test_figure17_structure():
    data = run_figure17(duration_s=120.0, config=ColocationConfig(duration_s=120.0))
    assert data.servpods == ["tomcat", "mysql"]
    for pod in data.servpods:
        assert len(data.samples[pod]) == 60  # 120s / 2s period
        assert 0 < data.loadlimit[pod] <= 1
        assert 0 < data.slacklimit[pod] <= 1


def test_figure18_structure():
    rows = run_figure18(
        levels=(0.9, 1.0, 1.1), duration_s=100.0,
        config=ColocationConfig(duration_s=100.0),
    )
    by_varied = {r.varied for r in rows}
    assert by_varied == {"slacklimit", "loadlimit"}
    normalized = normalized_throughput(rows, "slacklimit")
    assert normalized[1.0] == pytest.approx(1.0)


def test_figure18_skips_illegal_levels():
    rows = run_figure18(
        levels=(1.0, 5.0), duration_s=100.0,
        config=ColocationConfig(duration_s=100.0),
    )
    # level 5.0 would push both thresholds above 1.0 -> skipped like the
    # paper's "-" cells.
    assert all(r.level == 1.0 for r in rows)


def test_table1_structure():
    lc_rows, be_rows = table1_rows()
    assert [r.workload for r in lc_rows] == [
        "E-commerce", "Redis", "Solr", "Elasticsearch", "Elgg", "SNMS",
    ]
    assert {r.intensive for r in be_rows} >= {"CPU", "LLC", "DRAM", "Network", "mixed"}
