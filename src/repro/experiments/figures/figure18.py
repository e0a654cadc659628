"""Figure 18 + Table 2 — threshold sensitivity (§5.4.2).

Fixing the other Servpods' thresholds, MySQL's slacklimit (respectively
loadlimit) is varied over 70–130% of its derived value; each setting
runs the production load with a DRAM-intensive BE (the stressor that
makes MySQL's thresholds bind) and reports normalized BE throughput,
SLA violations and BE kills.

Expected shape (Table 2): lowering the slacklimit below the derived
value buys BE throughput at the cost of SLA violations and BE kills;
raising it wastes throughput at zero violations. For the loadlimit the
derived value (and slightly below) is violation-free while higher
settings start violating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.bejobs.catalog import STREAM_DRAM
from repro.bejobs.spec import BeJobSpec
from repro.core.top_controller import ControllerThresholds, TopController
from repro.experiments.colocation import ColocationConfig, ColocationExperiment
from repro.loadgen.clarknet import clarknet_production_load
from repro.loadgen.patterns import LoadPattern
from repro.sim.rng import RandomStreams
from repro.workloads.catalog import ecommerce_service
from repro.workloads.spec import ServiceSpec

#: The sweep levels, as fractions of the derived threshold value.
SWEEP_LEVELS = (0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3)


@dataclass(frozen=True)
class ThresholdSweepRow:
    """One point of Figure 18 / one row of Table 2."""

    varied: str  # "slacklimit" | "loadlimit"
    level: float  # fraction of the derived value
    value: float  # the actual threshold used
    be_throughput: float
    sla_violations: int
    be_kills: int


def run_figure18(
    service: Optional[ServiceSpec] = None,
    target_servpod: str = "mysql",
    be_spec: BeJobSpec = STREAM_DRAM,
    levels: Sequence[float] = SWEEP_LEVELS,
    duration_s: float = 600.0,
    seed: int = 0,
    pattern: Optional[LoadPattern] = None,
    config: Optional[ColocationConfig] = None,
) -> List[ThresholdSweepRow]:
    """Sweep the target Servpod's slacklimit and loadlimit levels."""
    spec = service or ecommerce_service()
    pattern = pattern or clarknet_production_load(duration_s=duration_s, seed=seed + 1, days=1)
    config = config or ColocationConfig(duration_s=duration_s)
    from repro.parallel.profile import profile_service_parallel

    artifact = profile_service_parallel(spec, seed=seed, workers=1)
    base_loadlimits = artifact.loadlimit_map()
    base_slacklimits = artifact.slacklimit_map()

    rows: List[ThresholdSweepRow] = []
    for varied in ("slacklimit", "loadlimit"):
        derived = (
            base_slacklimits[target_servpod]
            if varied == "slacklimit"
            else base_loadlimits[target_servpod]
        )
        for level in levels:
            value = derived * level
            if not (0.0 < value <= 1.0):
                continue  # the paper's "-" cells (loadlimit 130% > 1)
            controllers = {}
            for pod in spec.servpod_names:
                loadlimit = base_loadlimits[pod]
                slacklimit = base_slacklimits[pod]
                if pod == target_servpod:
                    if varied == "slacklimit":
                        slacklimit = value
                    else:
                        loadlimit = value
                controllers[pod] = TopController(
                    servpod=pod,
                    thresholds=ControllerThresholds(
                        loadlimit=min(1.0, loadlimit),
                        slacklimit=min(1.0, max(0.01, slacklimit)),
                    ),
                    sla_ms=spec.sla_ms,
                )
            experiment = ColocationExperiment(
                spec,
                controllers,
                [be_spec],
                pattern,
                streams=RandomStreams(seed),
                config=config,
            )
            result = experiment.run()
            rows.append(
                ThresholdSweepRow(
                    varied=varied,
                    level=level,
                    value=value,
                    be_throughput=result.be_throughput,
                    sla_violations=result.sla_violations,
                    be_kills=result.be_kills,
                )
            )
    return rows


def normalized_throughput(rows: Sequence[ThresholdSweepRow], varied: str) -> dict:
    """BE throughput per level, normalized to the 100% level's value."""
    subset = {r.level: r.be_throughput for r in rows if r.varied == varied}
    base = subset.get(1.0)
    if not base:
        return {level: 0.0 for level in subset}
    return {level: tput / base for level, tput in subset.items()}
