"""Figure 17 — the runtime timeline (§5.4.1).

Tomcat and MySQL of E-commerce co-located with Wordcount under the
production load; the panels plot, per control tick: load vs loadlimit,
slack vs slacklimit, CPU utilisation, BE LLC ways, BE cores, BE
instances, and BE throughput.

Expected dynamics (the paper's narrative): BE state grows while slack is
ample, SuspendBE fires when the load crosses the loadlimit (throughput
freezes, CPU drops, allocations retained), growth resumes when the load
recedes, and CutBE claws back LLC/cores on a slack drop without reducing
the instance count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.bejobs.catalog import WORDCOUNT
from repro.bejobs.spec import BeJobSpec
from repro.experiments.colocation import ColocationConfig, ColocationExperiment
from repro.loadgen.clarknet import clarknet_production_load
from repro.loadgen.patterns import LoadPattern
from repro.metrics.collector import TickSample
from repro.parallel.profile import profile_service_parallel
from repro.sim.rng import RandomStreams
from repro.workloads.catalog import ecommerce_service
from repro.workloads.spec import ServiceSpec


@dataclass
class TimelineData:
    """Per-tick samples and thresholds for the plotted Servpods."""

    service: str
    servpods: List[str]
    loadlimit: Dict[str, float] = field(default_factory=dict)
    slacklimit: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, List[TickSample]] = field(default_factory=dict)

    def actions(self, servpod: str) -> List[str]:
        """The action taken at each tick on one machine."""
        return [s.action for s in self.samples[servpod]]


def run_figure17(
    service: Optional[ServiceSpec] = None,
    servpods: Sequence[str] = ("tomcat", "mysql"),
    be_spec: BeJobSpec = WORDCOUNT,
    duration_s: float = 600.0,
    seed: int = 0,
    pattern: Optional[LoadPattern] = None,
    config: Optional[ColocationConfig] = None,
) -> TimelineData:
    """Run the timeline experiment and collect every tick sample."""
    spec = service or ecommerce_service()
    pattern = pattern or clarknet_production_load(duration_s=duration_s, seed=seed + 1, days=1)
    config = config or ColocationConfig(duration_s=duration_s)
    artifact = profile_service_parallel(spec, seed=seed, workers=1)
    experiment = ColocationExperiment(
        spec,
        artifact.controllers(),
        [be_spec],
        pattern,
        streams=RandomStreams(seed),
        config=config,
    )
    result = experiment.run()
    data = TimelineData(service=spec.name, servpods=list(servpods))
    loadlimits = artifact.loadlimit_map()
    slacklimits = artifact.slacklimit_map()
    for pod in servpods:
        data.loadlimit[pod] = loadlimits[pod]
        data.slacklimit[pod] = slacklimits[pod]
        data.samples[pod] = list(result.machine(pod).samples)
    return data
