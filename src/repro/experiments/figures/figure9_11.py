"""Figures 9–11 — per-Servpod BE throughput / CPU / MemBW under load.

One co-location run per (Servpod's service, BE job, load, system) cell;
the three figures read different columns of the same grid:

- Fig. 9: normalized BE throughput at the showcased Servpod's machine,
- Fig. 10: that machine's CPU utilisation,
- Fig. 11: that machine's memory-bandwidth utilisation.

Showcased Servpods (paper §5.2.1): Tomcat/E-commerce, Slave/Redis,
Zookeeper/Solr, Memcached/Elgg, Kibana/Elasticsearch. Expected shape:
Rhythm ≥ Heracles with the gap opening past 65% load, and Heracles at
exactly zero co-location at the 85% point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bejobs.catalog import evaluation_be_jobs
from repro.bejobs.spec import BeJobSpec
from repro.experiments.colocation import ColocationConfig
from repro.parallel.grid import GridCell, run_comparison_grid
from repro.workloads.catalog import lc_service_spec
from repro.workloads.spec import ServiceSpec

#: The five showcased (service, Servpod) pairs of Figures 9-11.
SHOWCASED_SERVPODS: Tuple[Tuple[str, str], ...] = (
    ("E-commerce", "tomcat"),
    ("Redis", "slave"),
    ("Solr", "zookeeper"),
    ("Elgg", "memcached"),
    ("Elasticsearch", "kibana"),
)

#: Figure 9-11's x-axis loads.
GRID_LOADS = (0.05, 0.25, 0.45, 0.65, 0.85)


@dataclass(frozen=True)
class ServpodCell:
    """One grid cell, carrying all three figures' quantities."""

    service: str
    servpod: str
    be_job: str
    load: float
    system: str  # "Rhythm" | "Heracles"
    be_throughput: float
    cpu_utilisation: float
    membw_utilisation: float


def run_servpod_grid(
    servpods: Sequence[Tuple[str, str]] = SHOWCASED_SERVPODS,
    be_specs: Optional[Sequence[BeJobSpec]] = None,
    loads: Sequence[float] = GRID_LOADS,
    seed: int = 0,
    config: Optional[ColocationConfig] = None,
    service_builder: Optional[Callable[[str], ServiceSpec]] = None,
    workers: Optional[int] = None,
    cache=None,
    cache_stats=None,
    profile_workers: Optional[int] = None,
) -> List[ServpodCell]:
    """Run the full Figures 9-11 grid; returns one row per cell/system.

    Cells fan out to the parallel grid engine; ``workers`` resolves via
    :func:`repro.parallel.pool.resolve_workers` (``RHYTHM_WORKERS`` env
    var, then CPU count) and ``profile_workers`` sets the profiling
    fan-out width (``RHYTHM_PROFILE_WORKERS``, falling back to the grid
    resolution) — both phases share one persistent pool. Results are
    identical for any worker count. ``cache``/``cache_stats`` pass
    through to :func:`repro.parallel.grid.run_comparison_grid` for
    incremental re-execution.
    """
    be_specs = list(be_specs) if be_specs is not None else evaluation_be_jobs()
    builder = service_builder or lc_service_spec
    config = config or ColocationConfig(duration_s=60.0)
    specs: Dict[str, ServiceSpec] = {}
    cells: List[GridCell] = []
    coords: List[Tuple[str, str]] = []
    for service_name, pod in servpods:
        spec = specs.setdefault(service_name, builder(service_name))
        for be in be_specs:
            for load in loads:
                cells.append(GridCell(spec, be, load, seed=seed))
                coords.append((service_name, pod))
    comparisons = run_comparison_grid(
        cells, config=config, workers=workers, cache=cache,
        cache_stats=cache_stats, profile_workers=profile_workers,
    )
    rows: List[ServpodCell] = []
    for (service_name, pod), cell, cmp in zip(coords, cells, comparisons):
        for system, result in (
            ("Rhythm", cmp.rhythm),
            ("Heracles", cmp.heracles),
        ):
            metrics = result.machine(pod)
            rows.append(
                ServpodCell(
                    service=service_name,
                    servpod=pod,
                    be_job=cell.be_spec.name,
                    load=cell.load,
                    system=system,
                    be_throughput=metrics.avg_be_throughput,
                    cpu_utilisation=metrics.avg_cpu_utilisation,
                    membw_utilisation=metrics.avg_membw_utilisation,
                )
            )
    return rows


def average_gain(
    rows: Sequence[ServpodCell], servpod: str, column: str
) -> float:
    """Average Rhythm−Heracles gain of one column at one Servpod.

    ``column`` is one of ``be_throughput``, ``cpu_utilisation``,
    ``membw_utilisation`` — the quantities of Figures 9, 10, 11.
    """
    pairs: Dict[Tuple[str, float], Dict[str, float]] = {}
    for row in rows:
        if row.servpod != servpod:
            continue
        pairs.setdefault((row.be_job, row.load), {})[row.system] = getattr(row, column)
    gains = [
        cell["Rhythm"] - cell["Heracles"]
        for cell in pairs.values()
        if "Rhythm" in cell and "Heracles" in cell
    ]
    return sum(gains) / len(gains) if gains else 0.0
