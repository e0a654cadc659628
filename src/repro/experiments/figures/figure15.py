"""Figure 15 — production-load heatmaps (§5.3.1).

Under the ClarkNet production trace, the four panels show per
(LC service, BE job) cell:

(a) average EMU improvement of Rhythm over Heracles (%),
(b) average CPU-utilisation improvement (%),
(c) average memory-bandwidth-utilisation improvement (%),
(d) Rhythm's worst p99 normalized to the SLA — the safety panel; the
    paper's worst cell is 0.99 and *no* cell violates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.bejobs.catalog import evaluation_be_jobs
from repro.bejobs.spec import BeJobSpec
from repro.experiments.colocation import ColocationConfig
from repro.loadgen.clarknet import clarknet_production_load
from repro.parallel.grid import GridCell, run_comparison_grid
from repro.loadgen.patterns import LoadPattern
from repro.workloads.catalog import LC_CATALOG, lc_service_spec
from repro.workloads.spec import ServiceSpec


@dataclass(frozen=True)
class ProductionCell:
    """One heatmap cell of Figure 15."""

    service: str
    be_job: str
    emu_improvement: float
    cpu_improvement: float
    membw_improvement: float
    worst_p99_over_sla: float
    rhythm_violations: int
    be_kills: int


def run_figure15(
    services: Optional[Sequence[str]] = None,
    be_specs: Optional[Sequence[BeJobSpec]] = None,
    duration_s: float = 600.0,
    seed: int = 0,
    pattern: Optional[LoadPattern] = None,
    config: Optional[ColocationConfig] = None,
    service_builder: Optional[Callable[[str], ServiceSpec]] = None,
    workers: Optional[int] = None,
    cache=None,
    cache_stats=None,
    profile_workers: Optional[int] = None,
) -> List[ProductionCell]:
    """Run the production-load grid; one row per (service, BE) cell.

    The production pattern compresses five synthetic ClarkNet days into
    ``duration_s`` (the paper compresses five real days into six hours).
    Cells run on the parallel grid engine (``workers`` as in
    :func:`repro.parallel.pool.resolve_workers`; ``profile_workers``
    sets the profiling fan-out, sharing the same pool); ``cache``/
    ``cache_stats`` pass through for incremental re-execution.
    """
    service_names = list(services) if services is not None else list(LC_CATALOG)
    be_specs = list(be_specs) if be_specs is not None else evaluation_be_jobs()
    builder = service_builder or lc_service_spec
    pattern = pattern or clarknet_production_load(duration_s=duration_s, days=1)
    config = config or ColocationConfig(duration_s=duration_s)
    cells: List[GridCell] = []
    sla_by_service: dict = {}
    for service_name in service_names:
        spec = builder(service_name)
        sla_by_service[service_name] = spec.sla_ms
        for be in be_specs:
            cells.append(GridCell(spec, be, load=0.5, seed=seed, pattern=pattern))
    comparisons = run_comparison_grid(
        cells, config=config, workers=workers, cache=cache,
        cache_stats=cache_stats, profile_workers=profile_workers,
    )
    return [
        ProductionCell(
            service=cell.service.name,
            be_job=cell.be_spec.name,
            emu_improvement=cmp.emu_improvement,
            cpu_improvement=cmp.cpu_improvement,
            membw_improvement=cmp.membw_improvement,
            worst_p99_over_sla=cmp.rhythm.worst_tail_ms
            / sla_by_service[cell.service.name],
            rhythm_violations=cmp.rhythm.sla_violations,
            be_kills=cmp.rhythm.be_kills,
        )
        for cell, cmp in zip(cells, comparisons)
    ]


def worst_safety_cell(rows: Sequence[ProductionCell]) -> ProductionCell:
    """The cell with the largest worst-p99/SLA ratio (panel d's maximum)."""
    return max(rows, key=lambda r: r.worst_p99_over_sla)
