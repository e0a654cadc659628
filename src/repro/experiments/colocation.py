"""The runtime co-location loop.

One :class:`ColocationExperiment` deploys an LC service one-Servpod-per-
machine, attaches a controller (Rhythm's per-Servpod thresholds, the
Heracles uniform baseline, or the LC-solo reference) plus the four
subcontrollers to every machine, and advances simulated time in control
periods. Each period it:

1. reads the load pattern and the Servpods' solo resource usage,
2. computes BE progress rates and the resulting residual pressure,
3. samples end-to-end request latencies under that pressure and closes a
   tail-latency window,
4. lets every machine's top controller decide (Algorithm 2) and its
   subcontrollers act, and
5. records per-machine metrics (EMU, utilisations, BE state — everything
   Figures 9-17 plot).
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.bejobs.job import BeResourceSnapshot, LcUsage, compute_be_rates
from repro.bejobs.spec import BeJobSpec
from repro.cluster.machine import LC_DOMAIN, MachineSpec
from repro.core.actions import BeAction
from repro.core.servpod import ServpodDeployment, deploy_service
from repro.core.subcontrollers import (
    BeJobPool,
    CpuLlcSubcontroller,
    FrequencySubcontroller,
    MemorySubcontroller,
    NetworkSubcontroller,
)
from repro.core.top_controller import CONTROL_PERIOD_S, TopController
from repro.errors import ConfigurationError, ExperimentError
from repro.faults.cluster import ClusterFaultInjector
from repro.faults.spec import FaultSchedule
from repro.interference.isolation import IsolationConfig
from repro.interference.model import InterferenceModel, Pressure
from repro.loadgen.generator import WindowLoadGenerator
from repro.loadgen.patterns import LoadPattern
from repro.metrics.collector import MachineMetrics
from repro.metrics.percentile import percentile
from repro.sim.engine import Engine
from repro.sim.kernel import (
    FleetColocationKernel,
    _kill_counts,
    percentile_linear,
    resolve_kernel,
)
from repro.sim.rng import RandomStreams
from repro.workloads.service import Service, ServiceState
from repro.workloads.spec import ServiceSpec


def check_clock(
    duration_s: float, control_period_s: float = CONTROL_PERIOD_S
) -> None:
    """Reject a run clock that cannot tick: both values must be finite
    and positive (NaN runs zero ticks, infinity never ends)."""
    for name, value in (
        ("duration_s", duration_s),
        ("control_period_s", control_period_s),
    ):
        if not (math.isfinite(value) and value > 0):
            raise ConfigurationError(
                f"{name} must be finite and positive, got {value!r}"
            )


@dataclass
class ColocationConfig:
    """Tunables of one co-location run."""

    duration_s: float = 120.0
    control_period_s: float = CONTROL_PERIOD_S
    #: Latency samples per control period (cap; see WindowLoadGenerator).
    sample_cap: int = 800
    min_samples: int = 100
    #: Sub-control-period traffic burstiness (lognormal sigma on the
    #: window's realised load).
    burst_sigma: float = 0.02
    max_be_instances: int = 16
    isolation: IsolationConfig = field(default_factory=IsolationConfig)
    interference: InterferenceModel = field(default_factory=InterferenceModel)
    base_machine: Optional[MachineSpec] = None
    #: CutBE escalation toggle (see CpuLlcSubcontroller; ablation knob).
    cut_escalation: bool = True
    #: Cluster-layer fault schedule injected mid-run (None = healthy run).
    faults: Optional[FaultSchedule] = None
    seed: int = 0

    def __post_init__(self) -> None:
        check_clock(self.duration_s, self.control_period_s)
        if self.faults is not None and not isinstance(self.faults, FaultSchedule):
            raise ExperimentError(
                f"faults must be a FaultSchedule, got "
                f"{type(self.faults).__name__}"
            )


@dataclass
class MachineRun:
    """Mutable per-machine state during a run."""

    servpod: str
    controller: TopController
    pool: BeJobPool
    metrics: MachineMetrics
    last_snapshot: BeResourceSnapshot = field(default_factory=BeResourceSnapshot)
    last_action: BeAction = BeAction.ALLOW_BE_GROWTH


@dataclass
class ColocationResult:
    """Outcome of one co-location run."""

    service: str
    duration_s: float
    lc_load_mean: float
    machines: Dict[str, MachineMetrics]
    be_kills: int
    be_suspensions: int
    sla_violations: int
    worst_tail_ms: float
    #: Simulation-kernel events executed during the run (throughput
    #: denominator for the parallel-engine benchmarks).
    events_fired: int = 0

    @property
    def be_throughput(self) -> float:
        """Average normalized BE throughput per machine."""
        if not self.machines:
            return 0.0
        return float(
            np.mean([m.avg_be_throughput for m in self.machines.values()])
        )

    @property
    def emu(self) -> float:
        """Service-level EMU: LC load + per-machine-average BE throughput."""
        return self.lc_load_mean + self.be_throughput

    @property
    def cpu_utilisation(self) -> float:
        """Average CPU utilisation across the service's machines."""
        return float(
            np.mean([m.avg_cpu_utilisation for m in self.machines.values()])
        )

    @property
    def membw_utilisation(self) -> float:
        """Average memory-bandwidth utilisation across machines."""
        return float(
            np.mean([m.avg_membw_utilisation for m in self.machines.values()])
        )

    def machine(self, servpod: str) -> MachineMetrics:
        """Metrics of one Servpod's machine."""
        try:
            return self.machines[servpod]
        except KeyError:
            raise ExperimentError(f"no machine for Servpod {servpod!r}") from None


def result_hash(result: ColocationResult) -> "hashlib._Hash":
    """A SHA-256 object fed with one run's result: the result half of
    :func:`result_digest`, and the grid's result fingerprint.

    It hashes, in order (DESIGN §10 has the format):

    - ``repr`` of the result head (service, duration, mean load, kill
      and suspension totals, violations, worst tail, events);
    - per machine, in Servpod order: ``repr`` of its metadata (pod,
      machine name, completed BE throughput, EMU, CPU and memory
      bandwidth utilisation); its window tails (the tail column's
      positive entries) as a little-endian int64 count then float64
      bytes; its tick count, then its float64 and int64 column blocks
      as ``ndarray.tobytes()``; its actions joined by U+001F.

    Floats enter as raw IEEE-754 bytes, so one changed bit anywhere in
    a series changes the hash, and no per-tick python object is built.
    This is the one list of a result's fields that identity checks read.
    """
    h = hashlib.sha256()
    head = (
        result.service,
        result.duration_s,
        result.lc_load_mean,
        result.be_kills,
        result.be_suspensions,
        result.sla_violations,
        result.worst_tail_ms,
        result.events_fired,
    )
    h.update(repr(head).encode("utf-8"))
    for pod in sorted(result.machines):
        metrics = result.machines[pod]
        meta = (
            pod,
            metrics.machine_name,
            metrics.completed_be_throughput,
            metrics.avg_emu,
            metrics.avg_cpu_utilisation,
            metrics.avg_membw_utilisation,
        )
        h.update(repr(meta).encode("utf-8"))
        tails = metrics.window_tails
        h.update(struct.pack("<q", len(tails)))
        h.update(np.asarray(tails, dtype="<f8").tobytes())
        floats, counts = metrics.columns()
        h.update(struct.pack("<q", floats.shape[1]))
        h.update(floats.astype("<f8", copy=False).tobytes())
        h.update(counts.astype("<i8", copy=False).tobytes())
        h.update("\x1f".join(metrics.actions).encode("utf-8"))
    return h


def result_digest(streams: RandomStreams, result: ColocationResult) -> str:
    """SHA-256 over one run's result and its final RNG stream states.

    The bit-identity coordinate of fleet instances, storm zones and
    bake-off cells: :func:`result_hash`, then per RNG stream, in name
    order, the name and ``repr`` of its bit-generator state.
    """
    h = result_hash(result)
    for name in sorted(streams._streams):
        h.update(name.encode("utf-8"))
        h.update(repr(streams._streams[name].bit_generator.state).encode("utf-8"))
    return h.hexdigest()


class ColocationExperiment:
    """Runs one LC service co-located with BE jobs under a controller set."""

    def __init__(
        self,
        service: ServiceSpec,
        controllers: Mapping[str, TopController],
        be_specs: Sequence[BeJobSpec],
        pattern: LoadPattern,
        streams: Optional[RandomStreams] = None,
        config: Optional[ColocationConfig] = None,
        kernel: Optional[str] = None,
    ) -> None:
        missing = set(service.servpod_names) - set(controllers)
        if missing:
            raise ExperimentError(f"no controller for Servpods {sorted(missing)}")
        if not be_specs:
            raise ExperimentError("need at least one BE job spec")
        self.spec = service
        self.controllers = dict(controllers)
        self.be_specs = list(be_specs)
        self.pattern = pattern
        self.config = config or ColocationConfig()
        self.streams = streams or RandomStreams(self.config.seed)
        self.service = Service(service, self.streams)
        self.deployment: ServpodDeployment = deploy_service(
            service, self.config.base_machine
        )
        self._generator = WindowLoadGenerator(
            pattern,
            service.max_load_qps,
            self.streams.stream("colocation:arrivals"),
            sample_cap=self.config.sample_cap,
            min_samples=self.config.min_samples,
            burst_sigma=self.config.burst_sigma,
        )
        self._fault_injector: Optional[ClusterFaultInjector] = None
        if self.config.faults is not None and len(self.config.faults) > 0:
            self._fault_injector = ClusterFaultInjector(
                self.deployment.cluster, self.config.faults
            )
        self._cpu_llc = CpuLlcSubcontroller(escalate_cut=self.config.cut_escalation)
        self._frequency = FrequencySubcontroller()
        self._memory = MemorySubcontroller()
        self._network = NetworkSubcontroller()
        self._runs: Dict[str, MachineRun] = {}
        for pod in service.servpod_names:
            machine = self.deployment.servpod(pod).machine
            self._runs[pod] = MachineRun(
                servpod=pod,
                controller=self.controllers[pod],
                pool=BeJobPool(
                    self.be_specs, machine.spec.name, self.config.max_be_instances
                ),
                metrics=MachineMetrics(
                    machine_name=machine.spec.name,
                    servpod=pod,
                    total_cores=machine.spec.cores,
                    sla_ms=service.sla_ms,
                ),
            )
        # Kernel selection is deliberately *not* part of the config:
        # both kernels are pinned bit-identical, so cached results are
        # shared across them (tests prove the identity that justifies
        # this — see tests/test_kernel_identity.py).
        self.kernel = resolve_kernel(kernel)
        # Optional post-decision hook ``(pod, action) -> action``. Not a
        # config field (it is runtime wiring, like ``kernel``), so cache
        # keys are untouched. The fleet zone governor uses it to clamp
        # ALLOW decisions in SLA-violating zones.
        self.action_filter: Optional[Callable[[str, BeAction], BeAction]] = None

    # -- the control loop ----------------------------------------------------

    def run(self) -> ColocationResult:
        """Advance the full experiment and return its result."""
        return run_experiments([self])[0]

    def _run_engine(self) -> ColocationResult:
        """The scalar engine-driven loop: the identity oracle."""
        cfg = self.config
        engine = Engine()
        load_sum = [0.0]
        ticks = [0]

        def tick(t: float) -> None:
            self._tick(t, cfg.control_period_s)
            load_sum[0] += min(1.0, max(0.0, self.pattern.load_at(t)))
            ticks[0] += 1

        engine.every(
            cfg.control_period_s,
            tick,
            priority=Engine.PRIORITY_CONTROL,
            first_at=cfg.control_period_s,
            until=cfg.duration_s,
        )
        engine.run(until=cfg.duration_s)
        return self._result(
            load_sum[0] / max(1, ticks[0]), events_fired=engine.events_fired
        )

    def _tick(self, t: float, dt: float) -> None:
        window = self._begin_tick(t, dt)
        load = window.load
        realized = window.realized_load

        # Phase 1: physics — BE rates, pressure, Servpod slowdowns. The
        # realised (bursty) load drives resource usage and queueing.
        slowdowns: Dict[str, float] = {}
        inflations: Dict[str, float] = {}
        snapshots: Dict[str, BeResourceSnapshot] = {}
        usages: Dict[str, LcUsage] = {}
        for pod, run in self._runs.items():
            servpod = self.deployment.servpod(pod)
            machine = servpod.machine
            usage = usages[pod] = self.service.lc_usage(pod, realized)
            self._network.apply(machine, usage.net_gbps)
            snapshot = compute_be_rates(machine, run.pool.jobs(), usage)
            snapshots[pod] = snapshot
            pressure = Pressure.from_be_snapshot(
                snapshot,
                machine.spec.cores,
                self.config.isolation,
                lc_freq_ratio=machine.dvfs.ratio(LC_DOMAIN),
            )
            if self._fault_injector is not None:
                pressure = self._fault_injector.adjust_pressure(machine, pressure)
            slowdown = servpod.slowdown(pressure, realized, self.config.interference)
            if self._fault_injector is not None:
                slowdown *= self._fault_injector.stall_factor(machine.spec.name)
            slowdowns[pod] = slowdown
            inflations[pod] = self.config.interference.sigma_inflation(slowdown)

        # Phase 2: observe latency under the current interference. The
        # window tail is computed once here and shared by the controllers
        # and every machine's tail column; a window that drew no samples
        # records 0.0 (``MachineMetrics.window_tails`` skips it).
        state = ServiceState(slowdowns=slowdowns, sigma_inflations=inflations)
        if window.n_samples > 0:
            latencies = self.service.sample_e2e(realized, window.n_samples, state)
            tail_ms = self._window_tail(latencies)
        else:
            tail_ms = 0.0

        self._advance_be(dt, snapshots)
        self._control_phase(t, dt, load, tail_ms, snapshots, usages)

    # -- shared tick phases (scalar loop and the bake-off's physics pass) ----

    def _begin_tick(self, t: float, dt: float):
        """Phase 0: the world degrades before anyone observes it — fault
        windows open/close on machine state the controllers then see
        only through their ordinary knobs (DVFS ratios, NIC shortfall,
        shrunken cpusets, inflated tails). Returns the load window."""
        if self._fault_injector is not None:
            self._fault_injector.advance(t)
        return self._generator.window(t - dt, dt)

    def _window_tail(self, latencies: np.ndarray) -> float:
        """The window tail estimate from this tick's latency samples."""
        lat = np.asarray(latencies, dtype=np.float64)
        if lat.ndim == 1 and lat.size:
            # percentile_linear is pinned bitwise to np.percentile.
            return percentile_linear(lat, self.spec.tail_percentile)
        return float(percentile(latencies, self.spec.tail_percentile))

    def _advance_be(
        self, dt: float, snapshots: Mapping[str, BeResourceSnapshot]
    ) -> None:
        """Phase 3: BE progress over this period."""
        for pod, run in self._runs.items():
            snapshot = snapshots[pod]
            for job in run.pool.running():
                job.advance(dt, snapshot.rates.get(job.job_id, 0.0))

    def _control_phase(
        self,
        t: float,
        dt: float,
        load: float,
        tail_ms: float,
        snapshots: Mapping[str, BeResourceSnapshot],
        usages: Mapping[str, LcUsage],
    ) -> None:
        """Phase 4: control decisions + metrics. The per-pod usage was
        computed in phase 1 (same pod, same realized load) — reuse it."""
        for pod, run in self._runs.items():
            servpod = self.deployment.servpod(pod)
            machine = servpod.machine
            snapshot = snapshots[pod]
            usage = usages[pod]
            action = run.controller.decide(load, tail_ms, t=t)
            if self.action_filter is not None:
                action = self.action_filter(pod, action)
            run.last_action = action
            run.last_snapshot = snapshot
            run.metrics.record_tick(
                t=t,
                dt=dt,
                load=load,
                tail_ms=tail_ms,
                busy_cores=usage.busy_cores + snapshot.busy_cores,
                membw_fraction=min(1.0, usage.membw_fraction + snapshot.membw_fraction),
                be_instances=machine.be_instance_count,
                be_cores=machine.be_total_cores,
                be_llc_ways=machine.be_total_llc_ways,
                be_rate=snapshot.total_rate,
                action=action.value,
            )
            self._cpu_llc.apply(action, machine, run.pool)
            self._memory.apply(action, machine, run.pool)
            self._frequency.apply(
                machine, usage.busy_cores, machine.be_total_cores
            )

    def _result(
        self,
        lc_load_mean: float,
        events_fired: int = 0,
        world: Optional["ColocationExperiment"] = None,
        kill_offset: int = 0,
        susp_offset: int = 0,
    ) -> ColocationResult:
        """This run's result from its metrics and ``world``'s state.

        ``world`` is the experiment whose machines and pools the run
        ended on (itself unless a bake-off moved it onto a shared
        world); the offsets are the kill/suspension totals its own
        world would have counted beyond ``world``'s.
        """
        world = self if world is None else world
        machines = {pod: run.metrics for pod, run in self._runs.items()}
        for pod, run in self._runs.items():
            # Finished-work throughput: kills already clawed back their
            # in-flight units inside BeJob.kill().
            run.metrics.completed_be_throughput = (
                world._runs[pod].pool.total_normalized_work
                / self.config.duration_s
            )
        violations = sum(m.sla_violations for m in machines.values())
        # Every machine sees the same e2e tail, so count one machine's
        # windows for service-level violations.
        first = next(iter(machines.values()))
        kills, suspensions = _kill_counts(world)
        return ColocationResult(
            service=self.spec.name,
            duration_s=self.config.duration_s,
            lc_load_mean=lc_load_mean,
            machines=machines,
            be_kills=kills + kill_offset,
            be_suspensions=suspensions + susp_offset,
            sla_violations=first.sla_violations,
            worst_tail_ms=max(m.worst_tail_ms for m in machines.values()),
            events_fired=events_fired,
        )


def run_experiments(
    experiments: Sequence[ColocationExperiment],
) -> List[ColocationResult]:
    """Run independent experiments; results in input order.

    Batched-kernel experiments, healthy or faulted, tick together as one
    fleet: a single :class:`~repro.sim.kernel.FleetColocationKernel`
    runs them all in lockstep, so they must share one clock
    (``duration_s`` and ``control_period_s``). The kernel is pinned
    bit-identical to running each on the scalar engine
    (``tests/test_kernel_identity.py``), and its tick schedule
    reproduces the engine's float accumulation, so ``events_fired``
    matches too. Scalar-kernel experiments run one by one through the
    engine. "Independent" means no two experiments share a world or a
    :class:`~repro.sim.rng.RandomStreams` registry.
    """
    experiments = list(experiments)
    results: List[Optional[ColocationResult]] = [None] * len(experiments)
    batched: List[int] = []
    for i, exp in enumerate(experiments):
        if exp.kernel == "batched":
            batched.append(i)
        else:
            results[i] = exp._run_engine()
    if batched:
        fleet = FleetColocationKernel([experiments[i] for i in batched])
        for i, result in zip(batched, fleet.run()):
            results[i] = result
    return results  # type: ignore[return-value]


def make_sla_probe(
    service: ServiceSpec,
    loadlimits: Mapping[str, float],
    be_specs: Sequence[BeJobSpec],
    pattern: LoadPattern,
    streams: RandomStreams,
    config: Optional[ColocationConfig] = None,
    repeats: int = 2,
):
    """Build Algorithm 1's ``run_system`` probe.

    The probe runs short co-located simulations with the candidate
    slacklimits under a production-like (ramping) load and reports
    whether any control window violated the SLA. Per the paper's
    recommendation ("run the algorithm with representative,
    mixed-intensive BEs and run multiple times to increase its
    accuracy"), each candidate is tried ``repeats`` times against the
    whole BE mix and against each individual BE job, so the derived
    limits are safe for every BE the operator expects to co-locate and a
    borderline candidate (one that only violates under some traffic
    realisations) is reliably rejected rather than slipping through on a
    lucky draw. Trials stop early once the candidate is rejected.

    Each trial's random streams are derived from the *candidate
    configuration* (via
    :func:`repro.core.slacklimit.candidate_signature`) and the trial's
    mix index — never from a call counter — so probing a given candidate
    consumes the same randomness whether the per-Servpod walks run
    serially in one process or fan out across the profiling pool.
    """
    from repro.core.slacklimit import candidate_signature

    base_config = config or ColocationConfig(duration_s=400.0)
    # One trial with the whole mix, plus one per *memory-system* stressor
    # — the stressors that actually reject candidates. CPU-/network-bound
    # BEs never produce tail violations under core/qdisc isolation.
    harsh = [
        be
        for be in be_specs
        if be.usage("membw") >= 0.5 or be.usage("llc") >= 0.5
    ]
    trial_mixes = [list(be_specs)] + [[be] for be in (harsh or be_specs)]

    def probe(slacklimits: Mapping[str, float]) -> bool:
        signature = candidate_signature(slacklimits)
        violating_windows = 0
        for mix_index, mix in enumerate(trial_mixes):
            for repeat in range(max(1, repeats)):
                controllers = {}
                for pod in service.servpod_names:
                    from repro.core.top_controller import ControllerThresholds

                    controllers[pod] = TopController(
                        servpod=pod,
                        thresholds=ControllerThresholds(
                            loadlimit=loadlimits[pod],
                            slacklimit=max(0.01, min(1.0, slacklimits[pod])),
                        ),
                        sla_ms=service.sla_ms,
                    )
                experiment = ColocationExperiment(
                    service,
                    controllers,
                    mix,
                    pattern,
                    streams=streams.spawn(
                        f"slacklimit-probe:{mix_index}:{repeat}:{signature}"
                    ),
                    config=replace(base_config),
                )
                violating_windows += experiment.run().sla_violations
                # One violating window across the whole candidate's
                # trials is within measurement noise ("run multiple times
                # to increase its accuracy"); a repeat offender is
                # rejected.
                if violating_windows >= 2:
                    return True
        return False

    return probe
