"""Figures 12–14 — service-level improvements under constant load.

One comparison per (LC service, BE job, load) cell; the three figures
read different relative improvements from the same grid:

- Fig. 12: EMU improvement ``(EMU_R − EMU_H) / EMU_H``,
- Fig. 13: CPU-utilisation improvement,
- Fig. 14: memory-bandwidth-utilisation improvement.

Paper headline averages (the shape to hold): EMU +11.6/18.4/24.6/14/12.7%
for E-commerce/Redis/Solr/Elgg/Elasticsearch, gains increasing with load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.bejobs.catalog import evaluation_be_jobs
from repro.bejobs.spec import BeJobSpec
from repro.experiments.colocation import ColocationConfig
from repro.parallel.grid import GridCell, run_comparison_grid
from repro.workloads.catalog import LC_CATALOG, lc_service_spec
from repro.workloads.spec import ServiceSpec

from repro.experiments.figures.figure9_11 import GRID_LOADS


@dataclass(frozen=True)
class ServiceCell:
    """One (service, BE, load) cell with both systems' outcomes."""

    service: str
    be_job: str
    load: float
    emu_rhythm: float
    emu_heracles: float
    cpu_rhythm: float
    cpu_heracles: float
    membw_rhythm: float
    membw_heracles: float
    rhythm_violations: int
    heracles_violations: int

    @staticmethod
    def _rel(new: float, old: float) -> float:
        return (new - old) / old if old > 1e-9 else new

    @property
    def emu_improvement(self) -> float:
        """Figure 12's quantity."""
        return self._rel(self.emu_rhythm, self.emu_heracles)

    @property
    def cpu_improvement(self) -> float:
        """Figure 13's quantity."""
        return self._rel(self.cpu_rhythm, self.cpu_heracles)

    @property
    def membw_improvement(self) -> float:
        """Figure 14's quantity."""
        return self._rel(self.membw_rhythm, self.membw_heracles)


def run_service_grid(
    services: Optional[Sequence[str]] = None,
    be_specs: Optional[Sequence[BeJobSpec]] = None,
    loads: Sequence[float] = GRID_LOADS,
    seed: int = 0,
    config: Optional[ColocationConfig] = None,
    service_builder: Optional[Callable[[str], ServiceSpec]] = None,
    workers: Optional[int] = None,
    cache=None,
    cache_stats=None,
    profile_workers: Optional[int] = None,
) -> List[ServiceCell]:
    """Run the Figures 12-14 grid; one row per (service, BE, load).

    Cells run on the parallel grid engine (``workers`` as in
    :func:`repro.parallel.pool.resolve_workers`; ``profile_workers``
    sets the profiling fan-out, sharing the same pool); results are
    identical for any worker count. ``cache``/``cache_stats`` pass
    through to :func:`repro.parallel.grid.run_comparison_grid` for
    incremental re-execution.
    """
    service_names = list(services) if services is not None else list(LC_CATALOG)
    be_specs = list(be_specs) if be_specs is not None else evaluation_be_jobs()
    builder = service_builder or lc_service_spec
    config = config or ColocationConfig(duration_s=60.0)
    cells: List[GridCell] = []
    for service_name in service_names:
        spec = builder(service_name)
        for be in be_specs:
            for load in loads:
                cells.append(GridCell(spec, be, load, seed=seed))
    comparisons = run_comparison_grid(
        cells, config=config, workers=workers, cache=cache,
        cache_stats=cache_stats, profile_workers=profile_workers,
    )
    return [
        ServiceCell(
            service=cell.service.name,
            be_job=cell.be_spec.name,
            load=cell.load,
            emu_rhythm=cmp.rhythm.emu,
            emu_heracles=cmp.heracles.emu,
            cpu_rhythm=cmp.rhythm.cpu_utilisation,
            cpu_heracles=cmp.heracles.cpu_utilisation,
            membw_rhythm=cmp.rhythm.membw_utilisation,
            membw_heracles=cmp.heracles.membw_utilisation,
            rhythm_violations=cmp.rhythm.sla_violations,
            heracles_violations=cmp.heracles.sla_violations,
        )
        for cell, cmp in zip(cells, comparisons)
    ]


def average_improvement(
    rows: Sequence[ServiceCell], service: str, column: str
) -> float:
    """Average one improvement column over a service's cells.

    ``column``: ``emu_improvement`` (Fig. 12), ``cpu_improvement``
    (Fig. 13) or ``membw_improvement`` (Fig. 14).
    """
    values = [getattr(r, column) for r in rows if r.service == service]
    if not values:
        return 0.0
    return sum(values) / len(values)


def improvement_table(rows: Sequence[ServiceCell], column: str) -> Dict[str, float]:
    """Per-service average of one improvement column."""
    services = sorted({r.service for r in rows})
    return {s: average_improvement(rows, s, column) for s in services}
