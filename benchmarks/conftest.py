"""Shared machinery for the per-figure benchmarks.

Every benchmark regenerates one paper figure/table at simulation scale,
prints the same rows/series the paper reports, and asserts the *shape*
expectations listed in DESIGN.md §4. Expensive grids that feed several
figures (9-11 share one grid; 12-14 share another) are computed once per
session and cached here.

Run with ``pytest benchmarks/ --benchmark-only``. Grid cells fan out to
the parallel grid engine; set ``RHYTHM_WORKERS`` to bound the pool.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import pytest

from repro.bejobs.catalog import evaluation_be_jobs
from repro.experiments.colocation import ColocationConfig
from repro.experiments.figures.figure9_11 import (
    SHOWCASED_SERVPODS,
    ServpodCell,
    run_servpod_grid,
)
from repro.experiments.figures.figure12_14 import ServiceCell, run_service_grid
from repro.experiments.figures.figure15 import ProductionCell, run_figure15
from repro.parallel.grid import resolve_workers
from repro.parallel.profile import clear_profile_memo

#: Loads used by the constant-load grids (the paper's x-axis).
GRID_LOADS = (0.05, 0.25, 0.45, 0.65, 0.85)

#: Per-cell run length for constant-load grids (simulation seconds).
GRID_CONFIG = ColocationConfig(duration_s=60.0)

#: Pool size for the shared grids (RHYTHM_WORKERS env var, else CPUs).
GRID_WORKERS = resolve_workers()

_cache: Dict[str, object] = {}


def servpod_grid() -> List[ServpodCell]:
    """The Figures 9-11 grid (cached once per session)."""
    if "servpod" not in _cache:
        _cache["servpod"] = run_servpod_grid(
            servpods=SHOWCASED_SERVPODS,
            be_specs=evaluation_be_jobs(),
            loads=GRID_LOADS,
            config=GRID_CONFIG,
            workers=GRID_WORKERS,
        )
    return _cache["servpod"]


def service_grid() -> List[ServiceCell]:
    """The Figures 12-14 grid (cached once per session)."""
    if "service" not in _cache:
        _cache["service"] = run_service_grid(
            loads=GRID_LOADS, config=GRID_CONFIG, workers=GRID_WORKERS
        )
    return _cache["service"]


def production_grid() -> List[ProductionCell]:
    """The Figure 15 production grid (cached once per session)."""
    if "production" not in _cache:
        _cache["production"] = run_figure15(workers=GRID_WORKERS)
    return _cache["production"]


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark ``fn`` with a single measured round (experiments are
    deterministic; repeating them only re-measures the same work)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture(scope="session", autouse=True)
def _fresh_pipeline_cache():
    clear_profile_memo()
    yield
