"""Multi-tenant LC co-location — the paper's §7 future work.

"In the future, we would like to further improve the resource efficiency
through co-locating multi-tenant LCs and BEs."

This extension pairs the Servpods of *two* LC services onto shared
machines (plus BE jobs), and generalises Algorithm 2 in the obvious way:
each machine runs one top controller per resident Servpod, and the
machine executes the **harshest** decision across them — a machine must
protect whichever tenant is currently closest to its SLA.

Cross-tenant interference is modeled like BE interference under the same
isolation stack: the co-resident LC's resource usage becomes additional
pressure on each Servpod (attenuated by cpuset/CAT, since both tenants
are pinned and partitioned).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.bejobs.job import BeResourceSnapshot, LcUsage, compute_be_rates
from repro.bejobs.spec import BeJobSpec
from repro.cluster.machine import LC_DOMAIN, Machine, MachineSpec
from repro.core.actions import BeAction
from repro.core.servpod import Servpod
from repro.core.subcontrollers import (
    BeJobPool,
    CpuLlcSubcontroller,
    MemorySubcontroller,
    NetworkSubcontroller,
)
from repro.core.top_controller import TopController
from repro.errors import ExperimentError
from repro.experiments.colocation import ColocationConfig
from repro.interference.model import Pressure
from repro.loadgen.generator import WindowLoadGenerator
from repro.loadgen.patterns import LoadPattern
from repro.metrics.percentile import percentile
from repro.sim.engine import Engine
from repro.sim.rng import RandomStreams
from repro.workloads.service import Service, ServiceState
from repro.workloads.spec import ServiceSpec


@dataclass(frozen=True)
class TenantPlacement:
    """Which Servpod of which tenant sits on which machine."""

    machine: str
    #: (service name, servpod name) pairs resident on this machine.
    residents: Tuple[Tuple[str, str], ...]


@dataclass
class TenantResult:
    """Per-tenant outcome of a multi-LC run."""

    service: str
    lc_load_mean: float = 0.0
    sla_violations: int = 0
    worst_tail_ms: float = 0.0


@dataclass
class MultiLcResult:
    """Outcome of one multi-tenant co-location run."""

    tenants: Dict[str, TenantResult]
    be_throughput: float
    machine_count: int

    @property
    def emu(self) -> float:
        """Aggregate EMU: mean tenant load + per-machine BE throughput."""
        lc = float(np.mean([t.lc_load_mean for t in self.tenants.values()]))
        return lc + self.be_throughput


def pair_servpods(
    services: Sequence[ServiceSpec],
) -> List[TenantPlacement]:
    """Zip two services' Servpods onto shared machines.

    Pods are paired by index; when one service has more Servpods, its
    tail pods get machines of their own (as in the single-tenant case).
    """
    if len(services) != 2:
        raise ExperimentError("multi-LC pairing currently supports two tenants")
    a, b = services
    placements: List[TenantPlacement] = []
    n = max(len(a.servpods), len(b.servpods))
    for i in range(n):
        residents = []
        if i < len(a.servpods):
            residents.append((a.name, a.servpods[i].name))
        if i < len(b.servpods):
            residents.append((b.name, b.servpods[i].name))
        placements.append(
            TenantPlacement(machine=f"shared{i}", residents=tuple(residents))
        )
    return placements


class MultiLcExperiment:
    """Co-locates two LC services plus BE jobs on shared machines."""

    def __init__(
        self,
        services: Sequence[ServiceSpec],
        controllers: Mapping[str, Mapping[str, TopController]],
        be_specs: Sequence[BeJobSpec],
        patterns: Mapping[str, LoadPattern],
        streams: Optional[RandomStreams] = None,
        config: Optional[ColocationConfig] = None,
        placements: Optional[Sequence[TenantPlacement]] = None,
    ) -> None:
        if len(services) != 2:
            raise ExperimentError("MultiLcExperiment takes exactly two services")
        self.services = {spec.name: spec for spec in services}
        for spec in services:
            if spec.name not in controllers or spec.name not in patterns:
                raise ExperimentError(f"missing controllers/pattern for {spec.name}")
            missing = set(spec.servpod_names) - set(controllers[spec.name])
            if missing:
                raise ExperimentError(
                    f"{spec.name}: no controller for Servpods {sorted(missing)}"
                )
        self.controllers = {s: dict(c) for s, c in controllers.items()}
        self.config = config or ColocationConfig()
        self.streams = streams or RandomStreams(self.config.seed)
        self.placements = list(placements or pair_servpods(services))
        self.runtimes = {
            name: Service(spec, self.streams.spawn(f"tenant:{name}"))
            for name, spec in self.services.items()
        }
        self.generators = {
            name: WindowLoadGenerator(
                patterns[name],
                spec.max_load_qps,
                self.streams.stream(f"arrivals:{name}"),
                sample_cap=self.config.sample_cap,
                min_samples=self.config.min_samples,
                burst_sigma=self.config.burst_sigma,
            )
            for name, spec in self.services.items()
        }
        base = self.config.base_machine or MachineSpec()
        self._machines: Dict[str, Machine] = {}
        self._pods: Dict[str, List[Tuple[str, Servpod]]] = {}
        self._pools: Dict[str, BeJobPool] = {}
        for placement in self.placements:
            spec = MachineSpec(
                name=placement.machine, cores=base.cores, llc_mb=base.llc_mb,
                llc_ways=base.llc_ways, membw_gbps=base.membw_gbps,
                memory_gb=base.memory_gb, link_gbps=base.link_gbps,
                tdp_watts=base.tdp_watts, min_mhz=base.min_mhz,
                max_mhz=base.max_mhz,
            )
            machine = Machine(spec)
            residents: List[Tuple[str, Servpod]] = []
            cores = llc = 0
            memory = 0.0
            for service_name, pod_name in placement.residents:
                pod_spec = self.services[service_name].servpod(pod_name)
                residents.append(
                    (service_name, Servpod(spec=pod_spec, machine=machine))
                )
                cores += pod_spec.cores
                llc += pod_spec.llc_ways
                memory += pod_spec.memory_gb
            if cores > spec.cores or llc > spec.llc_ways:
                raise ExperimentError(
                    f"{placement.machine}: residents need {cores} cores / "
                    f"{llc} ways, machine has {spec.cores} / {spec.llc_ways}"
                )
            machine.reserve_lc(cores=cores, llc_ways=llc,
                               memory_gb=min(memory, spec.memory_gb))
            self._machines[placement.machine] = machine
            self._pods[placement.machine] = residents
            self._pools[placement.machine] = BeJobPool(
                list(be_specs), placement.machine, self.config.max_be_instances
            )
        self._cpu_llc = CpuLlcSubcontroller(escalate_cut=self.config.cut_escalation)
        self._memory = MemorySubcontroller()
        self._network = NetworkSubcontroller()
        self._results = {
            name: TenantResult(service=name) for name in self.services
        }
        self._be_work = 0.0

    # -- run -------------------------------------------------------------

    def run(self) -> MultiLcResult:
        """Advance the experiment and summarise per-tenant outcomes."""
        cfg = self.config
        engine = Engine()
        load_sums = {name: 0.0 for name in self.services}
        ticks = [0]

        def tick(t: float) -> None:
            loads = self._tick(t, cfg.control_period_s)
            for name, load in loads.items():
                load_sums[name] += load
            ticks[0] += 1

        engine.every(
            cfg.control_period_s, tick,
            priority=Engine.PRIORITY_CONTROL,
            first_at=cfg.control_period_s, until=cfg.duration_s,
        )
        engine.run(until=cfg.duration_s)

        for name, result in self._results.items():
            result.lc_load_mean = load_sums[name] / max(1, ticks[0])
        be_throughput = sum(
            pool.total_normalized_work for pool in self._pools.values()
        ) / (cfg.duration_s * len(self._machines))
        return MultiLcResult(
            tenants=dict(self._results),
            be_throughput=be_throughput,
            machine_count=len(self._machines),
        )

    # -- one control period -------------------------------------------------

    def _tick(self, t: float, dt: float) -> Dict[str, float]:
        windows = {
            name: gen.window(t - dt, dt) for name, gen in self.generators.items()
        }

        # Phase 1: per-machine physics with cross-tenant pressure.
        slowdowns: Dict[str, Dict[str, float]] = {name: {} for name in self.services}
        inflations: Dict[str, Dict[str, float]] = {name: {} for name in self.services}
        snapshots: Dict[str, BeResourceSnapshot] = {}
        for machine_name, machine in self._machines.items():
            residents = self._pods[machine_name]
            usages = {
                svc_name: self.runtimes[svc_name].lc_usage(
                    pod.name, windows[svc_name].realized_load
                )
                for svc_name, pod in residents
            }
            combined = LcUsage(
                busy_cores=sum(u.busy_cores for u in usages.values()),
                membw_fraction=min(1.0, sum(u.membw_fraction for u in usages.values())),
                net_gbps=sum(u.net_gbps for u in usages.values()),
                llc_fraction=min(1.0, sum(u.llc_fraction for u in usages.values())),
            )
            self._network.apply(machine, combined.net_gbps)
            snapshot = compute_be_rates(
                machine, self._pools[machine_name].jobs(), combined
            )
            snapshots[machine_name] = snapshot
            be_pressure = Pressure.from_be_snapshot(
                snapshot, machine.spec.cores, self.config.isolation,
                lc_freq_ratio=machine.dvfs.ratio(LC_DOMAIN),
            )
            for svc_name, pod in residents:
                neighbour = self._neighbour_pressure(
                    machine, usages, exclude=svc_name
                )
                pressure = _combine_pressures(be_pressure, neighbour)
                load = windows[svc_name].realized_load
                slowdown = pod.slowdown(
                    pressure, load, self.config.interference
                )
                slowdowns[svc_name][pod.name] = slowdown
                inflations[svc_name][pod.name] = (
                    self.config.interference.sigma_inflation(slowdown)
                )

        # Phase 2: per-tenant tail observation.
        tails: Dict[str, float] = {}
        for svc_name, runtime in self.runtimes.items():
            window = windows[svc_name]
            if window.n_samples > 0:
                latencies = runtime.sample_e2e(
                    window.realized_load, window.n_samples,
                    ServiceState(slowdowns[svc_name], inflations[svc_name]),
                )
                spec = self.services[svc_name]
                tails[svc_name] = float(
                    percentile(latencies, spec.tail_percentile)
                )
            else:
                tails[svc_name] = 0.0
            spec = self.services[svc_name]
            result = self._results[svc_name]
            if tails[svc_name] > spec.sla_ms:
                result.sla_violations += 1
            result.worst_tail_ms = max(result.worst_tail_ms, tails[svc_name])

        # Phase 3: BE progress.
        for machine_name, pool in self._pools.items():
            snapshot = snapshots[machine_name]
            for job in pool.running():
                job.advance(dt, snapshot.rates.get(job.job_id, 0.0))

        # Phase 4: the harshest resident decision wins per machine.
        for machine_name, machine in self._machines.items():
            decision: Optional[BeAction] = None
            for svc_name, pod in self._pods[machine_name]:
                controller = self.controllers[svc_name][pod.name]
                action = controller.decide(
                    windows[svc_name].load, tails[svc_name], t=t
                )
                if decision is None or action.harsher_than(decision):
                    decision = action
            assert decision is not None
            self._cpu_llc.apply(decision, machine, self._pools[machine_name])
            self._memory.apply(decision, machine, self._pools[machine_name])

        return {name: windows[name].load for name in self.services}

    def _neighbour_pressure(
        self, machine: Machine, usages: Mapping[str, LcUsage], exclude: str
    ) -> Pressure:
        """Cross-tenant pressure on one resident from the other tenant."""
        others = [u for name, u in usages.items() if name != exclude]
        if not others:
            return Pressure.none()
        iso = self.config.isolation
        busy = sum(u.busy_cores for u in others) / machine.spec.cores
        llc = sum(u.llc_fraction for u in others)
        membw = sum(u.membw_fraction for u in others)
        net = sum(u.net_gbps for u in others) / machine.spec.link_gbps
        return Pressure(
            cpu=iso.cpu_pressure(min(1.0, busy)),
            llc=iso.llc_pressure(min(1.0, llc), min(1.0, llc)),
            membw=min(1.0, membw),
            net=min(1.0, net),
        )


def _combine_pressures(a: Pressure, b: Pressure) -> Pressure:
    """Additive pressure combination, capped at 1 per dimension."""
    return Pressure(
        cpu=min(1.0, a.cpu + b.cpu),
        llc=min(1.0, a.llc + b.llc),
        membw=min(1.0, a.membw + b.membw),
        net=min(1.0, a.net + b.net),
        freq=min(1.0, a.freq + b.freq),
    )
