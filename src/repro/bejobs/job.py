"""BE job runtime state and the shared-resource throughput model.

:func:`compute_be_rates` is the single place where machine allocations,
LC resource usage and BE demand meet. Each job's progress rate is
normalized so that ``1.0`` means "what this job would achieve running
alone on the whole machine" — exactly the normalization the paper's
``BE Throughput`` metric uses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.bejobs.spec import BeJobSpec
from repro.cluster.machine import BE_DOMAIN, Machine
from repro.errors import ControlError
from repro.fold import left_sum

#: Fraction of unsatisfied LLC demand that spills into extra DRAM traffic.
LLC_SPILL_TO_MEMBW = 0.4


class BeJobState(enum.Enum):
    """Lifecycle of a BE job instance."""

    PENDING = "pending"
    RUNNING = "running"
    SUSPENDED = "suspended"
    KILLED = "killed"


@dataclass
class BeJob:
    """One BE job instance placed on (at most) one machine."""

    job_id: str
    spec: BeJobSpec
    state: BeJobState = BeJobState.PENDING
    machine_name: Optional[str] = None
    #: Integral of normalized rate over time (seconds of solo-machine work).
    normalized_work: float = 0.0
    #: Wall-clock seconds spent in RUNNING state.
    running_seconds: float = 0.0

    def __deepcopy__(self, memo) -> "BeJob":
        # Every field is an immutable scalar, an enum member or the
        # frozen spec, so a flat field copy is a deep copy that keeps the
        # spec shared (world forks copy every job a pool ever placed).
        clone = object.__new__(self.__class__)
        clone.__dict__.update(self.__dict__)
        return clone

    def start(self, machine_name: str) -> None:
        """Mark the job as running on ``machine_name``."""
        if self.state == BeJobState.KILLED:
            raise ControlError(f"{self.job_id}: cannot start a killed job")
        self.machine_name = machine_name
        self.state = BeJobState.RUNNING

    def suspend(self) -> None:
        """Pause the job (keeps memory, stops progress)."""
        if self.state == BeJobState.RUNNING:
            self.state = BeJobState.SUSPENDED

    def resume(self) -> None:
        """Resume a suspended job."""
        if self.state == BeJobState.SUSPENDED:
            self.state = BeJobState.RUNNING

    def kill(self) -> None:
        """Terminate the job; it can never run again.

        Work on the in-flight (unfinished) unit is lost — the paper's
        BE-throughput metric counts *successfully finished* jobs, so a
        StopBE kill costs real throughput. This loss is what ultimately
        punishes controllers that ride too close to the SLA.
        """
        completed = int(self.normalized_work / self.spec.unit_seconds)
        self.normalized_work = completed * self.spec.unit_seconds
        self.state = BeJobState.KILLED
        self.machine_name = None

    def advance(self, dt: float, rate: float) -> None:
        """Accumulate ``dt`` seconds of progress at normalized ``rate``."""
        if dt < 0 or rate < 0:
            raise ControlError(f"{self.job_id}: negative progress dt={dt} rate={rate}")
        if self.state == BeJobState.RUNNING:
            self.normalized_work += dt * rate
            self.running_seconds += dt

    @property
    def units_completed(self) -> float:
        """Work units finished so far (fractional)."""
        return self.normalized_work / self.spec.unit_seconds


@dataclass(frozen=True)
class LcUsage:
    """The LC Servpod's current consumption of machine-shared resources.

    Produced by the workload model each control interval; consumed here to
    compute the headroom available to BE jobs.
    """

    busy_cores: float = 0.0
    membw_fraction: float = 0.0
    net_gbps: float = 0.0
    llc_fraction: float = 0.0


@dataclass(frozen=True)
class BeResourceSnapshot:
    """Aggregate BE resource consumption after rate computation.

    Used both for utilisation metrics and as the input to the
    interference model (BE *usage* is what generates pressure).
    """

    busy_cores: float = 0.0
    membw_fraction: float = 0.0
    llc_demand_fraction: float = 0.0
    llc_occupied_fraction: float = 0.0
    net_fraction: float = 0.0
    rates: Dict[str, float] = field(default_factory=dict)

    @property
    def total_rate(self) -> float:
        """Sum of normalized job rates — the machine's BE throughput."""
        return left_sum(self.rates.values())


def compute_be_rates(
    machine: Machine,
    jobs: Iterable[BeJob],
    lc_usage: LcUsage,
) -> BeResourceSnapshot:
    """Compute each running BE job's normalized progress rate.

    The model is Leontief: a job needs fixed proportions of CPU, LLC,
    DRAM bandwidth and network per unit of progress (derived from its
    solo-run profile), so its rate is the minimum of the per-resource
    satisfaction ratios, capped at 1.

    DRAM bandwidth and network headroom (what the LC is not using) are
    shared among jobs in proportion to demand; cores and LLC ways are
    hard-partitioned per job by the machine. BE frequency scaling from
    the DVFS governor multiplies the CPU term.
    """
    total_cores = machine.spec.cores
    freq_ratio = machine.dvfs.ratio(BE_DOMAIN)
    running = [
        job
        for job in jobs
        if job.state == BeJobState.RUNNING
        and machine.be_allocation(job.job_id) is not None
        and not machine.be_allocation(job.job_id).suspended
    ]
    if not running:
        return BeResourceSnapshot()

    # -- per-job demands ----------------------------------------------------
    demands = {}
    for job in running:
        alloc = machine.be_allocation(job.job_id)
        cores = alloc.cores
        llc_granted = alloc.llc_ways / machine.llc.n_ways
        llc_demand = job.spec.demand_fraction("llc", cores, total_cores)
        membw_demand = job.spec.demand_fraction("membw", cores, total_cores)
        # Unsatisfied cache demand shows up as extra DRAM traffic.
        membw_demand += LLC_SPILL_TO_MEMBW * max(0.0, llc_demand - llc_granted)
        net_demand = job.spec.demand_fraction("net", cores, total_cores)
        demands[job.job_id] = {
            "cores": cores,
            "llc_granted": llc_granted,
            "llc_demand": llc_demand,
            "membw": min(1.0, membw_demand),
            "net": net_demand,
        }

    # -- share DRAM bandwidth headroom proportionally -----------------------
    membw_headroom = max(0.0, 1.0 - lc_usage.membw_fraction)
    total_membw_demand = left_sum(d["membw"] for d in demands.values())
    membw_scale = (
        min(1.0, membw_headroom / total_membw_demand) if total_membw_demand > 0 else 1.0
    )

    # -- share the NIC's BE cap proportionally -------------------------------
    machine.nic.observe_lc_traffic(lc_usage.net_gbps)
    be_cap_fraction = machine.nic.be_cap_gbps / machine.spec.link_gbps
    total_net_demand = left_sum(d["net"] for d in demands.values())
    net_scale = (
        min(1.0, be_cap_fraction / total_net_demand) if total_net_demand > 0 else 1.0
    )

    # -- per-job Leontief rate ----------------------------------------------
    rates: Dict[str, float] = {}
    busy_cores = 0.0
    membw_used = 0.0
    llc_demand_total = 0.0
    llc_occupied = 0.0
    net_used = 0.0
    for job in running:
        spec = job.spec
        d = demands[job.job_id]
        req_cpu = min(1.0, spec.saturation_cores / total_cores)
        granted_cpu = (d["cores"] / total_cores) * freq_ratio
        ratios = [granted_cpu / req_cpu]
        if spec.usage("llc") > 0:
            ratios.append(d["llc_granted"] / spec.usage("llc"))
        if spec.usage("membw") > 0:
            granted_membw = d["membw"] * membw_scale
            ratios.append(granted_membw / spec.usage("membw"))
        if spec.usage("net") > 0:
            granted_net = d["net"] * net_scale
            ratios.append(granted_net / spec.usage("net"))
        rate = max(0.0, min(1.0, min(ratios)))
        rates[job.job_id] = rate
        busy_cores += d["cores"]  # allocated BE cores busy-spin regardless of rate
        membw_used += d["membw"] * membw_scale
        llc_demand_total += d["llc_demand"]
        llc_occupied += d["llc_granted"]
        net_used += d["net"] * net_scale

    return BeResourceSnapshot(
        busy_cores=busy_cores,
        membw_fraction=min(1.0, membw_used),
        llc_demand_fraction=min(1.0, llc_demand_total),
        llc_occupied_fraction=min(1.0, llc_occupied),
        net_fraction=min(1.0, net_used),
        rates=rates,
    )
