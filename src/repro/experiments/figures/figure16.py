"""Figure 16 — Rhythm on microservices (SNMS, §5.3.2).

For each BE job and load (20–100%), three stacked levels per metric:

- the LC service running solo (no co-location),
- the additional EMU/CPU/MemBW Heracles' co-location achieves,
- the further improvement Rhythm achieves on top.

SNMS uses its built-in jaeger tracer for profiling, not Rhythm's request
tracer. Paper averages: Rhythm beats Heracles by 14.3% EMU, 30.2% CPU
and 45.8% MemBW utilisation on SNMS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.baselines.static import LcSoloPolicy
from repro.bejobs.catalog import evaluation_be_jobs
from repro.bejobs.spec import BeJobSpec
from repro.experiments.colocation import ColocationConfig
from repro.experiments.runner import compare_systems, run_cell
from repro.loadgen.patterns import ConstantLoad
from repro.workloads.microservices import snms_service
from repro.workloads.spec import ServiceSpec

#: Figure 16's x-axis loads.
FIGURE16_LOADS = (0.2, 0.4, 0.6, 0.8, 1.0)


@dataclass(frozen=True)
class MicroserviceCell:
    """One (BE, load) cell with the three stacked levels per metric."""

    be_job: str
    load: float
    emu_solo: float
    emu_heracles: float
    emu_rhythm: float
    cpu_solo: float
    cpu_heracles: float
    cpu_rhythm: float
    membw_solo: float
    membw_heracles: float
    membw_rhythm: float


def run_figure16(
    be_specs: Optional[Sequence[BeJobSpec]] = None,
    loads: Sequence[float] = FIGURE16_LOADS,
    seed: int = 0,
    config: Optional[ColocationConfig] = None,
    service: Optional[ServiceSpec] = None,
) -> List[MicroserviceCell]:
    """Run the SNMS grid: solo vs Heracles vs Rhythm per (BE, load)."""
    spec = service or snms_service()
    be_specs = list(be_specs) if be_specs is not None else evaluation_be_jobs()
    config = config or ColocationConfig(duration_s=60.0)
    solo_policy = LcSoloPolicy()
    rows: List[MicroserviceCell] = []
    for be in be_specs:
        for load in loads:
            pattern = ConstantLoad(min(1.0, load))
            solo = run_cell(
                spec,
                solo_policy.controllers(spec),
                be,
                pattern,
                seed=seed,
                config=config,
            )
            cmp = compare_systems(
                spec,
                be,
                load=min(1.0, load),
                seed=seed,
                config=config,
            )
            rows.append(
                MicroserviceCell(
                    be_job=be.name,
                    load=load,
                    emu_solo=solo.emu,
                    emu_heracles=cmp.heracles.emu,
                    emu_rhythm=cmp.rhythm.emu,
                    cpu_solo=solo.cpu_utilisation,
                    cpu_heracles=cmp.heracles.cpu_utilisation,
                    cpu_rhythm=cmp.rhythm.cpu_utilisation,
                    membw_solo=solo.membw_utilisation,
                    membw_heracles=cmp.heracles.membw_utilisation,
                    membw_rhythm=cmp.rhythm.membw_utilisation,
                )
            )
    return rows


def average_rhythm_gain_over_heracles(
    rows: Sequence[MicroserviceCell], metric: str
) -> float:
    """Relative average gain of Rhythm over Heracles for one metric.

    ``metric`` is ``"emu"``, ``"cpu"`` or ``"membw"``.
    """
    gains = []
    for row in rows:
        heracles = getattr(row, f"{metric}_heracles")
        rhythm = getattr(row, f"{metric}_rhythm")
        if heracles > 1e-9:
            gains.append((rhythm - heracles) / heracles)
    return sum(gains) / len(gains) if gains else 0.0
