"""Batched structure-of-arrays (SoA) simulation kernel.

The per-event python path (:mod:`repro.sim.engine` callbacks, per-job
dict loops in :func:`repro.bejobs.job.compute_be_rates`, per-request
closures in :mod:`repro.workloads.queueing`) tops out around a thousand
events per second on one core. This module re-expresses the same-tick
work as contiguous numpy arrays keyed by (machine, Servpod) coordinates
and drains whole ticks with vectorized operations:

- :class:`BeRateKernel` mirrors each machine's BE allocation state into
  flat per-job arrays (CPU grants, LLC ratios, bandwidth demands),
  revalidated with one integer compare against ``Machine.version``, and
  evaluates every job's Leontief rate in a handful of array ops.
- :class:`BatchedServiceSampler` compiles each request type's call
  tree once into pod-indexed tuples, builds the per-Servpod lognormal
  parameter blocks once per call and replays the walk against them,
  consuming the latency RNG stream in exactly the scalar order.
- :func:`drain_fifo_queue` replays the G/G/c FIFO event loop as a
  Lindley start-time recurrence over plain floats plus vectorized
  sojourn/wait extraction — no engine, no per-request closures.
- :class:`FleetColocationKernel` runs every non-scalar colocation run:
  many ``ColocationExperiment`` instances (or just one) in lockstep,
  holding one contiguous (machines × job-slots) array family for BE
  rates and progress, (machines,) arrays for LC usage, NIC caps, DVFS
  state, fault state and metric integrals, so a fleet tick is a
  handful of whole-array numpy ops plus one python pass for the
  (stateful) per-machine controllers. Healthy and faulted instances
  share that one tick path.
- :class:`BatchedColocationKernel` composes the per-machine pieces into
  the controller-independent half of the scalar
  ``ColocationExperiment._tick``; it is the shared physics pass of
  :class:`BakeoffKernel`.

Identity pinning
----------------
The scalar path remains the reference implementation. Every batched
computation here is pinned **bit-identical** to it: same outputs, same
final RNG states, with and without fault injection. The pattern (see
DESIGN.md) is:

1. mutate the world through the *same* scalar code (machines, pools,
   subcontrollers, fault injector are shared, not re-implemented);
2. cache only values the scalar path recomputes deterministically
   (sensitivity vectors, usage coefficient sums, per-job demands),
   invalidated by ``Machine.version``;
3. where floats are folded, preserve the scalar fold order exactly
   (python-float accumulation, ``cumsum``-style left-to-right chains);
4. draw randomness through the same generators with the same call
   shapes, so the bit streams are consumed identically.

Kernel selection is *not* part of :class:`ColocationConfig` — both
kernels produce identical results, so cache keys deliberately do not
distinguish them (a regression test proves the identity that justifies
the sharing).
"""

from __future__ import annotations

import copy
import heapq
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bejobs.job import (
    LLC_SPILL_TO_MEMBW,
    BeJobState,
    BeResourceSnapshot,
    LcUsage,
)
from repro.cluster.machine import BE_DOMAIN, LC_DOMAIN, Machine
from repro.core.actions import BeAction
from repro.errors import ConfigurationError
from repro.interference.model import Pressure
from repro.interference.sensitivity import PRESSURE_KINDS
from repro.metrics.collector import MachineMetrics, TickSample
from repro.workloads.latency import LatencyModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.colocation import ColocationExperiment
    from repro.workloads.service import Service
    from repro.workloads.spec import CallNode

#: Environment variable selecting the simulation kernel.
KERNEL_ENV_VAR = "RHYTHM_KERNEL"

#: Valid kernel names.
KERNELS = ("scalar", "batched")


def resolve_kernel(explicit: Optional[str] = None) -> str:
    """Resolve the kernel choice: explicit arg > ``RHYTHM_KERNEL`` > batched.

    The batched kernel is the default: it is pinned bit-identical to the
    scalar reference and an order of magnitude faster. ``RHYTHM_KERNEL=
    scalar`` remains the escape hatch (and the reference for identity
    tests and benchmarks).
    """
    value = explicit if explicit is not None else os.environ.get(KERNEL_ENV_VAR)
    if value is None or value == "":
        return "batched"
    value = str(value).strip().lower()
    if value not in KERNELS:
        raise ConfigurationError(
            f"unknown simulation kernel {value!r}; expected one of {KERNELS}"
        )
    return value


# ---------------------------------------------------------------------------
# BE progress rates: SoA mirror of one machine's allocation state
# ---------------------------------------------------------------------------


class _MachineMirror:
    """Flat per-job rows for one machine's *running* BE jobs.

    Rebuilt whenever ``Machine.version`` moves (launch/kill/grow/shrink/
    suspend/resume); between bumps every cached value is exactly what
    the scalar :func:`~repro.bejobs.job.compute_be_rates` would
    recompute from the same allocations. Rows are python lists, not
    arrays: a machine holds at most a handful of BE jobs, so the fused
    scalar loop in :meth:`BeRateKernel.be_rates` beats whole-array
    numpy on dispatch cost alone — and elementwise float64 equals
    python-float arithmetic bit for bit, so the identity pin holds.

    ``row_cache`` (per machine, owned by :class:`BeRateKernel`) carries
    individual job rows across rebuilds: a row depends only on the
    job's frozen spec and its ``(cores, llc_ways)`` allocation, so a
    version bump that touches one job (launch, grow) can reuse every
    other job's row verbatim. Cached rows are the exact floats the
    uncached branch computes, and the totals folds below always run in
    job order over those values, so rounding is unchanged.
    """

    __slots__ = (
        "version",
        "job_ids",
        "jobs",
        "cpu_base",
        "req_cpu",
        "llc_ratio",
        "membw",
        "membw_div",
        "membw_mask",
        "net",
        "net_div",
        "net_mask",
        "total_membw_demand",
        "total_net_demand",
        "busy_cores",
        "llc_demand_total",
        "llc_occupied_total",
        "p_cpu",
        "p_llc",
        "last_rates",
    )

    def __init__(
        self,
        machine: Machine,
        jobs: Sequence,
        isolation=None,
        row_cache: Optional[Dict[tuple, tuple]] = None,
    ) -> None:
        self.version = machine.version
        total_cores = machine.spec.cores
        running = [
            job
            for job in jobs
            if job.state == BeJobState.RUNNING
            and machine.be_allocation(job.job_id) is not None
            and not machine.be_allocation(job.job_id).suspended
        ]
        n = len(running)
        self.job_ids: List[str] = [job.job_id for job in running]
        self.jobs = running
        self.last_rates: List[float] = []
        cpu_base: List[float] = [0.0] * n
        req_cpu: List[float] = [0.0] * n
        llc_ratio: List[float] = [0.0] * n
        membw: List[float] = [0.0] * n
        membw_div: List[float] = [0.0] * n
        membw_mask: List[bool] = [False] * n
        net: List[float] = [0.0] * n
        net_div: List[float] = [0.0] * n
        net_mask: List[bool] = [False] * n
        # Scalar-order python folds: compute_be_rates accumulates these
        # with ``+=`` over the running list, so the cached totals carry
        # the exact same rounding.
        total_membw_demand = 0.0
        total_net_demand = 0.0
        busy_cores = 0.0
        llc_demand_total = 0.0
        llc_occupied_total = 0.0
        for i, job in enumerate(running):
            spec = job.spec
            alloc = machine.be_allocation(job.job_id)
            cores = alloc.cores
            row_key = (job.job_id, spec.name, cores, alloc.llc_ways)
            row = None if row_cache is None else row_cache.get(row_key)
            if row is None:
                llc_granted = alloc.llc_ways / machine.llc.n_ways
                llc_demand = spec.demand_fraction("llc", cores, total_cores)
                membw_demand = spec.demand_fraction(
                    "membw", cores, total_cores
                )
                membw_demand += LLC_SPILL_TO_MEMBW * max(
                    0.0, llc_demand - llc_granted
                )
                membw_i = min(1.0, membw_demand)
                net_i = spec.demand_fraction("net", cores, total_cores)
                llc_usage = spec.usage("llc")
                membw_usage = spec.usage("membw")
                net_usage = spec.usage("net")
                row = (
                    llc_granted,
                    llc_demand,
                    cores / total_cores,
                    min(1.0, spec.saturation_cores / total_cores),
                    llc_granted / llc_usage if llc_usage > 0 else np.inf,
                    membw_i,
                    membw_usage > 0,
                    membw_usage if membw_usage > 0 else 1.0,
                    net_i,
                    net_usage > 0,
                    net_usage if net_usage > 0 else 1.0,
                )
                if row_cache is not None:
                    row_cache[row_key] = row
            llc_granted = row[0]
            llc_demand = row[1]
            cpu_base[i] = row[2]
            req_cpu[i] = row[3]
            llc_ratio[i] = row[4]
            membw_i = row[5]
            membw[i] = membw_i
            membw_mask[i] = row[6]
            membw_div[i] = row[7]
            net_i = row[8]
            net[i] = net_i
            net_mask[i] = row[9]
            net_div[i] = row[10]
            total_membw_demand += membw_i
            total_net_demand += net_i
            busy_cores += cores
            llc_demand_total += llc_demand
            llc_occupied_total += llc_granted
        self.cpu_base = cpu_base
        self.req_cpu = req_cpu
        self.llc_ratio = llc_ratio
        self.membw = membw
        self.membw_div = membw_div
        self.membw_mask = membw_mask
        self.net = net
        self.net_div = net_div
        self.net_mask = net_mask
        self.total_membw_demand = total_membw_demand
        self.total_net_demand = total_net_demand
        self.busy_cores = busy_cores
        self.llc_demand_total = llc_demand_total
        self.llc_occupied_total = llc_occupied_total
        # CPU and LLC pressure depend only on allocation state, so they
        # are row-cacheable (membw/net pressure is per-tick). Same
        # expressions as ``Pressure.from_be_snapshot`` over this
        # mirror's totals.
        if isolation is not None:
            self.p_cpu = isolation.cpu_pressure(
                min(1.0, busy_cores / total_cores)
            )
            self.p_llc = isolation.llc_pressure(
                min(1.0, llc_occupied_total), min(1.0, llc_demand_total)
            )
        else:
            self.p_cpu = 0.0
            self.p_llc = 0.0


class BeRateKernel:
    """Mirror-cached, scalar-fused replacement for ``compute_be_rates``."""

    def __init__(self, isolation=None) -> None:
        self._mirrors: Dict[str, _MachineMirror] = {}
        self._isolation = isolation
        # Per-machine job-row caches shared across mirror rebuilds (see
        # the ``row_cache`` note on :class:`_MachineMirror`).
        self._rows: Dict[str, Dict[tuple, tuple]] = {}

    def mirror(self, machine: Machine) -> _MachineMirror:
        """The current (freshly validated) mirror for ``machine``.

        Valid immediately after a same-tick :meth:`be_rates` call; the
        cached ``p_cpu``/``p_llc`` and ``last_rates`` belong to that
        call's allocation state and rate computation.
        """
        return self._mirrors[machine.spec.name]

    def advance_be(self, machine: Machine, dt: float) -> None:
        """Phase-3 BE progress from the mirror's cached job rows.

        Bit-identical to ``ColocationExperiment._advance_be`` for this
        machine's pod: the same two ``+=`` folds per running job, in the
        same job order, at the rates just computed by :meth:`be_rates`
        (mirror membership == ``pool.running()`` with a live allocation,
        and any suspend/resume/kill bumps ``Machine.version`` which
        rebuilds the mirror before the next call).
        """
        mirror = self._mirrors[machine.spec.name]
        for job, rate in zip(mirror.jobs, mirror.last_rates):
            job.normalized_work += dt * rate
            job.running_seconds += dt

    def be_rates(
        self, machine: Machine, jobs: Sequence, lc_usage: LcUsage
    ) -> BeResourceSnapshot:
        """Bit-identical to ``compute_be_rates(machine, jobs, lc_usage)``."""
        mirror = self._mirrors.get(machine.spec.name)
        if mirror is None or mirror.version != machine.version:
            rows = self._rows.get(machine.spec.name)
            if rows is None:
                rows = self._rows[machine.spec.name] = {}
            mirror = _MachineMirror(machine, jobs, self._isolation, rows)
            self._mirrors[machine.spec.name] = mirror
        if not mirror.job_ids:
            # The scalar path returns before touching the NIC when no
            # jobs run — preserve that exactly (NIC state is observable).
            return BeResourceSnapshot()

        freq_ratio = machine.dvfs.ratio(BE_DOMAIN)
        membw_headroom = max(0.0, 1.0 - lc_usage.membw_fraction)
        membw_scale = (
            min(1.0, membw_headroom / mirror.total_membw_demand)
            if mirror.total_membw_demand > 0
            else 1.0
        )
        machine.nic.observe_lc_traffic(lc_usage.net_gbps)
        be_cap_fraction = machine.nic.be_cap_gbps / machine.spec.link_gbps
        net_scale = (
            min(1.0, be_cap_fraction / mirror.total_net_demand)
            if mirror.total_net_demand > 0
            else 1.0
        )

        # Leontief rates, one fused scalar pass per job — the same
        # min-chain the scalar path folds per job (resources a job does
        # not use are simply skipped, exactly like its absent ratios),
        # and the same left-to-right ``+=`` folds over granted shares.
        cpu_base = mirror.cpu_base
        req_cpu = mirror.req_cpu
        llc_ratio = mirror.llc_ratio
        membw = mirror.membw
        membw_mask = mirror.membw_mask
        membw_div = mirror.membw_div
        net = mirror.net
        net_mask = mirror.net_mask
        net_div = mirror.net_div
        rates: Dict[str, float] = {}
        rate_list: List[float] = []
        membw_used = 0.0
        net_used = 0.0
        for j, job_id in enumerate(mirror.job_ids):
            r = (cpu_base[j] * freq_ratio) / req_cpu[j]
            lr = llc_ratio[j]
            if lr < r:
                r = lr
            g_m = membw[j] * membw_scale
            if membw_mask[j]:
                q = g_m / membw_div[j]
                if q < r:
                    r = q
            g_n = net[j] * net_scale
            if net_mask[j]:
                q = g_n / net_div[j]
                if q < r:
                    r = q
            if r > 1.0:
                r = 1.0
            elif r < 0.0:
                r = 0.0
            rates[job_id] = r
            rate_list.append(r)
            membw_used += g_m
            net_used += g_n
        mirror.last_rates = rate_list
        return BeResourceSnapshot(
            busy_cores=mirror.busy_cores,
            membw_fraction=min(1.0, membw_used),
            llc_demand_fraction=min(1.0, mirror.llc_demand_total),
            llc_occupied_fraction=min(1.0, mirror.llc_occupied_total),
            net_fraction=min(1.0, net_used),
            rates=rates,
        )


# ---------------------------------------------------------------------------
# Latency sampling: call trees compiled once, pod-indexed parameters per call
# ---------------------------------------------------------------------------


def _compile_tree(node: "CallNode", index: Dict[str, int]) -> Tuple:
    """``node`` as nested ``(pod index, children, combine)`` tuples.

    ``combine`` is ``None`` below a single child: a max- or sum-reduce
    over one array returns that array's values bit for bit, so the walk
    adds the child's times directly.
    """
    children = tuple(_compile_tree(child, index) for child in node.children)
    combine = None
    if len(children) > 1:
        combine = np.maximum.reduce if node.parallel else np.add.reduce
    return (index[node.servpod], children, combine)


class BatchedServiceSampler:
    """Call-tree sampler compiled once per service.

    ``Service.sample_e2e`` walks the ``CallNode`` tree and rebuilds each
    visited node's lognormal parameter block (log-medians, sigmas) on
    every visit. This sampler compiles each request type's tree once
    into nested ``(pod index, children, combine)`` tuples, builds one
    parameter block per Servpod per call from slowdown and inflation
    *lists in servpod order* — the exact expressions of
    :meth:`LatencyModel.component_params` — and replays the walk. Draw
    shapes and draw order match the scalar walk call for call, so the
    RNG bit stream is consumed identically; children combine with the
    scalar walk's ``np.maximum.reduce`` / ``np.add.reduce``, except that
    a lone child, whose reduce is a copy, is added directly. A
    single-type service draws no type split: ``Service._type_counts``
    consumes no RNG for one type.
    """

    def __init__(self, service: "Service") -> None:
        self._service = service
        spec = service.spec
        self._stream_name = f"service:{spec.name}:latency"
        index = {pod.name: k for k, pod in enumerate(spec.servpods)}
        # Component constants hoisted once, in servpod order, so the
        # per-call parameter build is plain float math — the exact
        # expressions of ``component_median_ms`` / ``component_sigma``,
        # just without the per-call attribute walks and revalidation.
        self._consts = [
            [
                (
                    c.base_ms,
                    c.lin_growth,
                    c.sat_growth,
                    c.sat_power,
                    c.cov_knee,
                    c.sigma0,
                    c.sigma_growth,
                )
                for c in pod.components
            ]
            for pod in spec.servpods
        ]
        types = spec.request_types
        self._trees = [_compile_tree(rtype.root, index) for rtype in types]
        # ``Service._type_counts``'s normalised weights, same expression.
        weights = np.array([rtype.weight for rtype in types], dtype=float)
        weights /= weights.sum()
        self._weights = weights

    def sample_e2e(
        self,
        load: float,
        n: int,
        slowdowns: Sequence[float],
        inflations: Sequence[float],
    ) -> np.ndarray:
        """Bit-identical to ``Service.sample_e2e`` under the same state.

        ``slowdowns`` and ``inflations`` hold one value per Servpod, in
        ``spec.servpods`` order.
        """
        rng = self._service.streams.stream(self._stream_name)
        u = float(load)
        if not (0.0 <= u <= 1.02):
            raise ConfigurationError(
                f"load fraction must be in [0, 1.02], got {load!r}"
            )
        params = self._pod_params(u, slowdowns, inflations)
        trees = self._trees
        if len(trees) == 1:
            return self._draw(trees[0], n, params, rng)
        counts = rng.multinomial(n, self._weights).tolist()
        e2e = np.empty(n)
        offset = 0
        for tree, count in zip(trees, counts):
            if count == 0:
                continue
            e2e[offset : offset + count] = self._draw(tree, count, params, rng)
            offset += count
        return e2e

    def _pod_params(
        self,
        u: float,
        slowdowns: Sequence[float],
        inflations: Sequence[float],
    ) -> List[Tuple]:
        """Per-pod lognormal parameters; floats for single-component pods."""
        params: List[Tuple] = []
        for consts, slowdown, inflation in zip(self._consts, slowdowns, inflations):
            if slowdown < 1.0:
                raise ConfigurationError(f"slowdown must be >= 1, got {slowdown}")
            if inflation < 1.0:
                raise ConfigurationError(
                    f"sigma inflation must be >= 1, got {inflation}"
                )
            if len(consts) == 1:
                base, lin, sat, p, knee, s0, sg = consts[0]
                median = base * (1.0 + lin * u + sat * u**p / (1.25 - u))
                ramp = max(0.0, (u - knee) / (1.0 - knee))
                params.append(
                    (
                        math.log(median * slowdown),
                        s0 * (1.0 + sg * ramp**2) * inflation,
                    )
                )
            else:
                means = []
                sigmas = []
                for base, lin, sat, p, knee, s0, sg in consts:
                    median = base * (1.0 + lin * u + sat * u**p / (1.25 - u))
                    means.append(math.log(median * slowdown))
                    ramp = max(0.0, (u - knee) / (1.0 - knee))
                    sigmas.append(s0 * (1.0 + sg * ramp**2) * inflation)
                params.append(
                    (np.array(means)[:, None], np.array(sigmas)[:, None])
                )
        return params

    def _draw(
        self,
        node: Tuple,
        n: int,
        params: List[Tuple],
        rng: np.random.Generator,
    ) -> np.ndarray:
        k, children, combine = node
        mean, sigma = params[k]
        if type(mean) is float:
            # Single-component pod: scalar-parameter draw. Verified
            # bit-identical to the (1, n) array-parameter broadcast —
            # same value stream, same generator state after.
            total = rng.lognormal(mean=mean, sigma=sigma, size=n)
        else:
            draws = rng.lognormal(mean=mean, sigma=sigma, size=(mean.shape[0], n))
            total = draws[0]
            for row in draws[1:]:
                total = total + row
        if not children:
            return total
        if combine is None:
            return total + self._draw(children[0], n, params, rng)
        return total + combine([self._draw(c, n, params, rng) for c in children])


# ---------------------------------------------------------------------------
# Queueing: engine-free FIFO drain
# ---------------------------------------------------------------------------


def drain_fifo_queue(
    arrival_times: Sequence[float],
    service_times: Sequence[float],
    workers: int,
    warmup_s: float,
    horizon_s: float,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Replay a G/G/c FIFO queue without the event engine.

    Returns ``(sojourns_ms, waits_ms, events_fired)`` bit-identical to
    the engine-driven loop in ``QueueingComponent.simulate``:

    - Start times follow the Lindley recurrence ``start_i = max(t_i,
      min_free)`` over a heap of plain worker-free times. FIFO
      discipline means services begin in arrival order, and the engine's
      ``clock.now + service_s`` additions are reproduced as the same
      python-float sums, so every start/finish time matches bit for bit.
    - Completion records are emitted in finish order (arrival index
      breaking ties — the engine's event-sequence order), so downstream
      ``np.mean``/``np.percentile`` pairwise folds see the same operand
      order.
    - ``events_fired`` counts every arrival plus each finish at or
      before the drain horizon: exactly the events the engine fires.
    """
    n = len(arrival_times)
    if n == 0:
        return np.empty(0), np.empty(0), 0
    free = [0.0] * workers
    starts: List[float] = [0.0] * n
    for i, t in enumerate(arrival_times):
        m = free[0]
        start = t if t >= m else m
        starts[i] = start
        heapq.heapreplace(free, start + service_times[i])
    t_arr = np.asarray(arrival_times)
    s_arr = np.asarray(service_times)
    finish = np.asarray(starts) + s_arr
    order = np.argsort(finish, kind="stable")
    fo = finish[order]
    to = t_arr[order]
    so = s_arr[order]
    fired = fo <= horizon_s
    events = n + int(np.count_nonzero(fired))
    keep = fired & (to >= warmup_s)
    sojourns = ((fo - to) * 1000.0)[keep]
    waits = (((fo - to) - so) * 1000.0)[keep]
    return sojourns, waits, events


# ---------------------------------------------------------------------------
# Window-tail fast path: np.percentile without the dispatch overhead
# ---------------------------------------------------------------------------


def _lerp_quantile(a: float, b: float, g: float) -> float:
    """numpy's ``_lerp`` on two python floats — branch and ops included.

    numpy computes ``a + (b - a) * g`` and then overwrites with
    ``b - (b - a) * (1 - g)`` where ``g >= 0.5``; reproducing the branch
    with the same python-float operations is bitwise identical to the
    elementwise float64 kernel.
    """
    d = b - a
    if g >= 0.5:
        return b - d * (1.0 - g)
    return a + d * g


def percentile_linear(values: np.ndarray, pct: float) -> float:
    """``float(np.percentile(values, pct))`` for a 1-D float64 array.

    The wrapper machinery around ``np.percentile`` (ufunc dispatch,
    axis normalisation, virtual-index broadcasting) costs ~200µs per
    call — an order of magnitude more than the O(n) partition it
    guards for window-sized sample counts. This reimplements exactly
    the ``method="linear"`` arithmetic: the virtual index is
    ``(n - 1) * (pct / 100)``, the two bracketing order statistics come
    from one ``np.partition``, and the interpolation replicates
    ``_lerp``'s ``g >= 0.5`` branch. Bitwise equal to ``np.percentile``
    for finite inputs (pinned by tests/test_sim_kernel.py).
    """
    n = values.shape[0]
    virtual = (n - 1) * (pct / 100.0)
    i0 = int(virtual)
    g = virtual - i0
    if i0 >= n - 1:
        part = np.partition(values, n - 1)
        return float(part[n - 1])
    part = np.partition(values, (i0, i0 + 1))
    return _lerp_quantile(float(part[i0]), float(part[i0 + 1]), g)


def percentile_linear_rows(stack: np.ndarray, pct: float) -> List[float]:
    """Row-wise ``np.percentile(stack, pct, axis=1)`` (linear method).

    One partition over the whole ``(rows, n)`` block, then the same
    scalar ``_lerp`` per row: elementwise float64 arithmetic equals the
    per-row python-float arithmetic, so each entry is bitwise equal to
    ``np.percentile`` of that row.
    """
    n = stack.shape[1]
    virtual = (n - 1) * (pct / 100.0)
    i0 = int(virtual)
    g = virtual - i0
    if i0 >= n - 1:
        part = np.partition(stack, n - 1, axis=1)
        return part[:, n - 1].tolist()
    part = np.partition(stack, (i0, i0 + 1), axis=1)
    lo = part[:, i0].tolist()
    hi = part[:, i0 + 1].tolist()
    return [_lerp_quantile(a, b, g) for a, b in zip(lo, hi)]


# ---------------------------------------------------------------------------
# The batched colocation tick
# ---------------------------------------------------------------------------


class BatchedColocationKernel:
    """Batched phases 0-3 of ``ColocationExperiment._tick`` for one world.

    The bake-off's shared physics pass (:meth:`observe`). The
    experiment's world objects (machines, pools, subcontrollers, fault
    injector, metrics) stay authoritative and are mutated through the
    experiment's own shared phase helpers; the kernel only swaps the two
    hot computations — BE rate evaluation and latency sampling — for
    their SoA counterparts, plus caches each Servpod's (deterministic)
    effective sensitivity vector.
    """

    def __init__(self, experiment: "ColocationExperiment") -> None:
        self._exp = experiment
        self._pods = list(experiment._runs)
        self._servpods = {
            pod: experiment.deployment.servpod(pod) for pod in self._pods
        }
        self._machines = {
            pod: self._servpods[pod].machine for pod in self._pods
        }
        self._sensitivities = {
            pod: self._servpods[pod].effective_sensitivity()
            for pod in self._pods
        }
        self._be = BeRateKernel(experiment.config.isolation)
        self._sampler = BatchedServiceSampler(experiment.service)
        # Flat slowdown constants: the sensitivity coefficients in
        # ``PRESSURE_KINDS`` order plus the interference model's scalar
        # parameters, hoisted so healthy ticks run the fused fold below
        # instead of the object path (same arithmetic, same fold order).
        model = experiment.config.interference
        self._sens_coeffs = {
            pod: tuple(
                self._sensitivities[pod].coefficient(kind)
                for kind in PRESSURE_KINDS
            )
            for pod in self._pods
        }
        self._model_consts = (
            model.gamma,
            model.beta,
            model.headroom,
            model.sigma_coupling,
            model.sigma_cap,
        )
        # BE counter gauges (instances / cores / LLC ways) per pod,
        # keyed by ``Machine.version`` — every allocation change bumps
        # it, so a hit is exactly the genexpr-sum recomputation.
        self._counter_cache: Dict[str, Tuple[int, Tuple[int, int, int]]] = {}

    def be_counters(self, pod: str) -> Tuple[int, int, int]:
        """``(be_instance_count, be_total_cores, be_total_llc_ways)``
        for ``pod``'s machine, cached on ``Machine.version``."""
        machine = self._machines[pod]
        cached = self._counter_cache.get(pod)
        if cached is not None and cached[0] == machine.version:
            return cached[1]
        gauges = (
            machine.be_instance_count,
            machine.be_total_cores,
            machine.be_total_llc_ways,
        )
        self._counter_cache[pod] = (machine.version, gauges)
        return gauges

    def observe(
        self, t: float, dt: float
    ) -> Tuple[float, float, bool, Dict[str, BeResourceSnapshot], Dict[str, LcUsage]]:
        """Phases 0-3 of one control period: everything up to (but not
        including) the control decisions.

        Faults advance, the load window opens, BE rates / pressure /
        Servpod slowdowns are computed, latencies are sampled and BE
        progress integrates — all of it controller-independent, which is
        what lets :class:`BakeoffKernel` share one ``observe`` pass
        across several controller sets. Returns the control-phase inputs
        ``(load, tail_ms, window_closed, snapshots, usages)``.
        """
        exp = self._exp
        model = exp.config.interference
        injector = exp._fault_injector
        window = exp._begin_tick(t, dt)
        load = window.load
        realized = window.realized_load

        # Phase 1: physics across all pods — fused scalar BE rates per
        # machine, shared pressure/slowdown math on top. Healthy ticks
        # run the flat fold (same expressions, same fold order as
        # ``InterferenceModel.slowdown`` over a ``Pressure`` built by
        # ``from_be_snapshot`` — the identity tests pin both); faulted
        # experiments keep the object path, whose injector hooks rewrite
        # the pressure vector wholesale.
        # Per-pod slowdowns and inflations in servpod order (``_pods``
        # is ``_runs`` order, which is ``servpod_names`` order).
        slowdowns: List[float] = []
        inflations: List[float] = []
        snapshots: Dict[str, BeResourceSnapshot] = {}
        usages: Dict[str, LcUsage] = {}
        gamma, beta, hroom, coup, cap = self._model_consts
        for pod in self._pods:
            machine = self._machines[pod]
            run = exp._runs[pod]
            usage = usages[pod] = exp.service.lc_usage(pod, realized)
            exp._network.apply(machine, usage.net_gbps)
            snapshot = self._be.be_rates(machine, run.pool.jobs(), usage)
            snapshots[pod] = snapshot
            if injector is None:
                mirror = self._be.mirror(machine)
                p_cpu = mirror.p_cpu
                p_llc = mirror.p_llc
                p_membw = snapshot.membw_fraction
                p_net = snapshot.net_fraction
                p_freq = 1.0 - machine.dvfs.ratio(LC_DOMAIN)
                if p_freq < 0.0:
                    p_freq = 0.0
                if (
                    p_cpu == 0.0
                    and p_llc == 0.0
                    and p_membw == 0.0
                    and p_net == 0.0
                    and p_freq == 0.0
                ):
                    slowdown = 1.0
                else:
                    c = self._sens_coeffs[pod]
                    impact = c[0] * p_cpu**gamma
                    impact = impact + c[1] * p_llc**gamma
                    impact = impact + c[2] * p_membw**gamma
                    impact = impact + c[3] * p_net**gamma
                    impact = impact + c[4] * p_freq**gamma
                    lo = realized
                    if lo < 0.0:
                        lo = 0.0
                    elif lo > 1.0:
                        lo = 1.0
                    amp = 1.0 + beta * lo / (hroom + (1.0 - lo))
                    slowdown = 1.0 + amp * impact
                infl = 1.0 + coup * (slowdown - 1.0)
                slowdowns.append(slowdown)
                inflations.append(infl if infl < cap else cap)
            else:
                pressure = Pressure.from_be_snapshot(
                    snapshot,
                    machine.spec.cores,
                    exp.config.isolation,
                    lc_freq_ratio=machine.dvfs.ratio(LC_DOMAIN),
                )
                pressure = injector.adjust_pressure(machine, pressure)
                slowdown = model.slowdown(
                    self._sensitivities[pod], pressure, realized
                )
                slowdown *= injector.stall_factor(machine.spec.name)
                slowdowns.append(slowdown)
                inflations.append(model.sigma_inflation(slowdown))

        # Phase 2: batched latency sampling over per-tick pod lists.
        if window.n_samples > 0:
            latencies = self._sampler.sample_e2e(
                realized, window.n_samples, slowdowns, inflations
            )
            tail_ms = exp._window_tail(latencies)
            window_closed = True
        else:
            tail_ms = 0.0
            window_closed = False

        # Phase 3: BE progress from the mirrors' cached job rows —
        # bit-identical to ``exp._advance_be(dt, snapshots)`` (see
        # :meth:`BeRateKernel.advance_be`); job-level accumulation is
        # independent across pods, so pod order cannot matter.
        be = self._be
        for pod in self._pods:
            be.advance_be(self._machines[pod], dt)
        return load, tail_ms, window_closed, snapshots, usages


# ---------------------------------------------------------------------------
# Fleet-wide SoA: many colocation experiments in lockstep
# ---------------------------------------------------------------------------

#: Machine count at or below which a fleet runs the per-machine python
#: tick instead of whole-array numpy: under this size every array op is
#: dominated by its fixed dispatch cost. Both paths are bit-identical,
#: so the threshold is purely a performance knob.
_SMALL_FLEET_MACHINES = 8


class FleetColocationKernel:
    """Runs many ``ColocationExperiment`` instances as one SoA fleet.

    Everything the scalar path recomputes per machine per tick — LC
    usage, NIC caps, proportional bandwidth shares, Leontief rates, BE
    progress, interference pressure, DVFS power stepping, and the metric
    integrals — lives in ``(machines,)`` / ``(machines, job-slots)``
    arrays spanning the *whole fleet*, so a tick is a handful of
    whole-array numpy ops plus one python pass for the parts that are
    genuinely stateful per machine (controller decisions, subcontroller
    actions, RNG-driven latency sampling).

    Identity contract (fleet-wide): running
    ``FleetColocationKernel([e1, .., ek]).run()`` is bit-identical —
    results, metrics, controller history, final RNG states, final
    machine state — to running ``e1.run(); ..; ek.run()`` sequentially
    on the scalar engine, healthy or faulted.

    Fault injection is per-machine state, not a second tick path. Each
    instance's :class:`~repro.faults.cluster.ClusterFaultInjector`
    advances on the lockstep clock, mutating the shared machines exactly
    as the scalar loop does. Only on ticks where it reports transitions
    does :meth:`_refresh_faults` re-read the instance's machines: the
    effective NIC link, the LC/BE DVFS caps, the fault-held cores and
    LLC ways, and the injector's LLC/NIC/stall pressure terms; it also
    reloads their job rows, since ``offline_cores`` may shrink BE jobs.
    Machines with no active fault term carry ``None`` pressure terms,
    ``f_max`` caps and a 1.0 LC power factor, so the same arithmetic
    stays bit-for-bit the healthy one and healthy fleets pay no refresh.

    How the vectorized path keeps the pin:

    - world mutation (launch/kill/grow/shrink/suspend/resume) goes
      through the *same* subcontroller code on the shared machines and
      pools; the SoA job mirror is invalidated by ``Machine.version``;
    - subcontroller applies are memoized per machine on ``(action,
      version, mem_version, (offlined cores, lost LLC ways))``: a key
      can only enter the memo set after an execution that provably
      changed nothing, so skipping a repeat cannot change state (STOP is
      never memoized — its DVFS reset is a side effect the key cannot
      witness; fault-held capacity moves without a version bump, hence
      its place in the key);
    - BE progress integrates in-place in SoA (elementwise float64 ==
      python-float arithmetic) and is written back to the ``BeJob``
      objects only where it is read: before a STOP apply (``kill``
      floors the work), for all dirty rows in one batch before the
      tick's rebuild, and at finalize — never over a row a STOP already
      flushed and dirtied, whose jobs it killed. Other applies and
      fault transitions only rearrange allocations, which the flushed
      values do not depend on;
    - rows are rebuilt only when dirtied (a ``Machine.version`` bump or
      a fault transition) into python twins, then copied into the SoA
      columns with one gather and one scatter per column per tick;
    - reductions over a machine's jobs run as padded column sweeps
      (``acc = acc + col``), exact because pads contribute ``+0.0`` to
      non-negative accumulators; the interference impact sum and the
      ``x ** gamma`` terms stay per-machine python arithmetic, where
      vectorized ``np.power`` is known to differ by 1 ulp;
    - the BE DVFS mirror holds the governor's *requested* frequency;
      the effective one is its minimum with the fault cap, exactly as
      :meth:`~repro.cluster.dvfs.DvfsGovernor.frequency` reports it;
    - per-window tails group instances by ``(n_samples, percentile)``
      and reduce with one ``np.percentile(stack, pct, axis=1)`` call,
      bitwise equal per row to the scalar per-instance call;
    - metric columns (one ``(machines,)`` array per tick) integrate
      vectorized and only materialise into ``TickSample`` objects and
      window-tail replays once, at the end of the run.

    All experiments must share ``duration_s`` and ``control_period_s``
    (one lockstep clock). ``on_tick(t, tails)`` — ``tails`` indexed
    like ``experiments`` — fires after each control phase; a
    fleet-level governor may mutate the experiments' ``action_filter``
    there, taking effect next tick.
    """

    def __init__(
        self,
        experiments: Sequence["ColocationExperiment"],
        on_tick=None,
    ) -> None:
        if not experiments:
            raise ConfigurationError("fleet needs at least one experiment")
        self._exps: List["ColocationExperiment"] = list(experiments)
        self._on_tick = on_tick
        cfg0 = self._exps[0].config
        self._duration_s = cfg0.duration_s
        self._period_s = cfg0.control_period_s
        for exp in self._exps:
            cfg = exp.config
            if (
                cfg.duration_s != self._duration_s
                or cfg.control_period_s != self._period_s
            ):
                raise ConfigurationError(
                    "fleet experiments must share duration_s and "
                    "control_period_s (one lockstep clock)"
                )
        self._injectors = [
            (i, exp._fault_injector)
            for i, exp in enumerate(self._exps)
            if exp._fault_injector is not None
        ]

        # -- machine-major bookkeeping (global machine index m) -------------
        # Machine *names* collide across experiments (deploy_service
        # names machines after Servpods), so every mapping here is
        # keyed by index, never by name.
        self._m_pod: List[str] = []
        self._m_i: List[int] = []
        self._m_run: List = []
        self._m_mach: List[Machine] = []
        self._inst_machines: List[List[int]] = []
        for i, exp in enumerate(self._exps):
            rows: List[int] = []
            for pod in exp._runs:
                rows.append(len(self._m_pod))
                self._m_pod.append(pod)
                self._m_i.append(i)
                self._m_run.append(exp._runs[pod])
                self._m_mach.append(exp.deployment.servpod(pod).machine)
            self._inst_machines.append(rows)
        M = len(self._m_pod)
        self._n_machines = M
        self._m_i_arr = np.asarray(self._m_i, dtype=np.intp)

        self._samplers = [BatchedServiceSampler(exp.service) for exp in self._exps]
        self._tail_pct = [exp.spec.tail_percentile for exp in self._exps]
        self._jmax = max(
            1, max(int(exp.config.max_be_instances) for exp in self._exps)
        )
        jmax = self._jmax

        # -- static per-machine parameters ----------------------------------
        busy_c: List[float] = []
        membw_c: List[float] = []
        net_c: List[float] = []
        link_nic: List[float] = []
        link_spec: List[float] = []
        guard: List[float] = []
        cores_f: List[float] = []
        sla: List[float] = []
        idle_w: List[float] = []
        active_w: List[float] = []
        hi_w: List[float] = []
        lo_w: List[float] = []
        f_min: List[int] = []
        f_max: List[int] = []
        f_step: List[int] = []
        f_req: List[int] = []
        self._cores_i: List[int] = []
        self._iso: List = []
        self._pconst: List[Tuple] = []
        for m in range(M):
            exp = self._exps[self._m_i[m]]
            pod = self._m_pod[m]
            machine = self._m_mach[m]
            bc, mc, nc, _llc = exp.service._usage_coeffs[pod]
            busy_c.append(bc)
            membw_c.append(mc)
            net_c.append(nc)
            link_nic.append(machine.nic.effective_link_gbps)
            link_spec.append(machine.spec.link_gbps)
            guard.append(machine.nic.lc_guard_factor)
            self._cores_i.append(machine.spec.cores)
            cores_f.append(float(machine.spec.cores))
            sla.append(exp.spec.sla_ms)
            pm = machine.power_model
            idle_w.append(pm.idle_watts)
            active_w.append(pm.active_watts_per_core)
            hi_w.append(exp._frequency.cap_fraction * pm.tdp_watts)
            lo_w.append(exp._frequency.restore_fraction * pm.tdp_watts)
            dvfs = machine.dvfs
            f_min.append(dvfs.min_mhz)
            f_max.append(dvfs.max_mhz)
            f_step.append(dvfs.step_mhz)
            f_req.append(dvfs.requested(BE_DOMAIN))
            self._iso.append(exp.config.isolation)
            sens = exp.deployment.servpod(pod).effective_sensitivity()
            model = exp.config.interference
            self._pconst.append(
                (
                    tuple(sens.coefficient(kind) for kind in PRESSURE_KINDS),
                    model.gamma,
                    model.beta,
                    model.headroom,
                    model.sigma_coupling,
                    model.sigma_cap,
                )
            )
        self._busy_coeff = np.asarray(busy_c)
        self._membw_coeff = np.asarray(membw_c)
        self._net_coeff = np.asarray(net_c)
        self._link_nic = np.asarray(link_nic)
        self._link_spec = np.asarray(link_spec)
        self._guard = np.asarray(guard)
        self._cores_farr = np.asarray(cores_f)
        self._sla_arr = np.asarray(sla)
        self._idle_w = np.asarray(idle_w)
        self._active_w = np.asarray(active_w)
        self._hi_w = np.asarray(hi_w)
        self._lo_w = np.asarray(lo_w)
        self._f_min = np.asarray(f_min, dtype=np.int64)
        self._f_max = np.asarray(f_max, dtype=np.int64)
        self._f_step = np.asarray(f_step, dtype=np.int64)
        self._f_max_l = f_max
        self._freq = np.asarray(f_req, dtype=np.int64)

        # (freq / max) ** 3 lookup, computed with *python* pow: the
        # vectorized cube diverges from the scalar path by 1 ulp.
        ranges = {(f_min[m], f_max[m], f_step[m]) for m in range(M)}
        self._r3_table: Optional[np.ndarray] = None
        self._r3_base = 0
        self._r3_step = 1
        if len(ranges) == 1:
            lo, hi, st = next(iter(ranges))
            self._r3_base = lo
            self._r3_step = st
            self._r3_table = np.asarray(
                [(mhz / hi) ** 3 for mhz in range(lo, hi + st, st)]
            )
        self._r3_cache: Dict[Tuple[int, int], float] = {}

        # -- SoA job mirror: padded (machines, job-slots) -------------------
        self._cpu_base = np.zeros((M, jmax))
        self._req_cpu = np.ones((M, jmax))
        self._llc_ratio = np.full((M, jmax), np.inf)
        self._membw = np.zeros((M, jmax))
        self._membw_div = np.ones((M, jmax))
        self._membw_mask = np.zeros((M, jmax), dtype=bool)
        self._net = np.zeros((M, jmax))
        self._net_div = np.ones((M, jmax))
        self._net_mask = np.zeros((M, jmax), dtype=bool)
        self._valid = np.zeros((M, jmax))
        self._nw = np.zeros((M, jmax))
        self._rs = np.zeros((M, jmax))
        # (column, pad) for the first nine fields of a job row, in row
        # order; :meth:`_upload_rows` scatters them from ``_row_table``.
        self._soa_cols: Tuple[Tuple[np.ndarray, object], ...] = (
            (self._cpu_base, 0.0),
            (self._req_cpu, 1.0),
            (self._llc_ratio, np.inf),
            (self._membw, 0.0),
            (self._membw_mask, False),
            (self._membw_div, 1.0),
            (self._net, 0.0),
            (self._net_mask, False),
            (self._net_div, 1.0),
        )
        self._row_jobs: List[List] = [[] for _ in range(M)]
        self._row_ids: List[List[str]] = [[] for _ in range(M)]
        # Distinct job rows, fleet-wide: key -> row id, the python rows
        # by id, and their first nine fields as a float table (bools as
        # 1.0/0.0) that grows whenever new rows appear. ``_rids[m]`` is
        # machine m's running jobs as row ids, in pool order.
        self._row_cache: Dict[Tuple, int] = {}
        self._row_py: List[Tuple] = []
        self._row_table = np.zeros((0, len(self._soa_cols)))
        self._rids: List[List[int]] = [[] for _ in range(M)]
        self._busy_be = np.zeros(M)
        self._busy_be_l: List[float] = [0.0] * M
        self._p_cpu_l: List[float] = [0.0] * M
        self._p_llc_l: List[float] = [0.0] * M
        self._md_total = np.zeros(M)
        self._nd_total = np.zeros(M)
        self._llc_dem_l: List[float] = [0.0] * M
        self._llc_occ_l: List[float] = [0.0] * M
        self._cnt_inst = np.zeros(M, dtype=np.int64)
        self._cnt_cores = np.zeros(M, dtype=np.int64)
        self._cnt_ways = np.zeros(M, dtype=np.int64)
        self._njobs = np.zeros(M, dtype=np.int64)
        self._dirty = set(range(M))
        #: Dirty rows whose progress is still only in the row state; it
        #: is written back right before the rebuild reads it.
        self._unflushed: set = set()
        self._memo: List[set] = [set() for _ in range(M)]

        # -- deferred metric state ------------------------------------------
        self._lc_int = np.zeros(M)
        self._be_int = np.zeros(M)
        self._cpu_int = np.zeros(M)
        self._membw_int = np.zeros(M)
        self._elapsed = 0.0
        self._cols: List[Tuple] = []
        self._acts: List[List[str]] = []
        self._wins: List[Tuple[List[bool], List[float]]] = []
        self._last_net: Optional[np.ndarray] = None

        # -- small-fleet python fast path -----------------------------------
        # Under ~8 machines the fixed dispatch cost of each whole-array
        # numpy op dwarfs the elementwise work, so tiny fleets (and the
        # single-experiment batched path that rides this kernel) run the
        # same arithmetic as per-machine python floats: elementwise
        # float64 ops equal python-float ops bit for bit, so both paths
        # satisfy the same identity pin. Row state (job rows, totals,
        # counters) is always rebuilt into the python twins below; the
        # small path ticks on them, the vec path copies dirty rows into
        # its SoA columns once per tick and then owns progress there.
        self._small = M <= _SMALL_FLEET_MACHINES
        self._nw_py: List[List[float]] = [[] for _ in range(M)]
        self._rs_py: List[List[float]] = [[] for _ in range(M)]
        self._freq_py: List[int] = list(f_req)
        self._md_l: List[float] = [0.0] * M
        self._nd_l: List[float] = [0.0] * M
        self._cnt_inst_l: List[int] = [0] * M
        self._cnt_cores_l: List[int] = [0] * M
        self._cnt_ways_l: List[int] = [0] * M
        self._njobs_l: List[int] = [0] * M
        self._busy_c_l = busy_c
        self._membw_c_l = membw_c
        self._net_c_l = net_c
        self._link_nic_l = link_nic
        self._link_spec_l = link_spec
        self._guard_l = guard
        self._cores_f_l = cores_f
        self._sla_l = sla
        self._idle_l = idle_w
        self._active_l = active_w
        self._hi_l = hi_w
        self._lo_l = lo_w
        self._f_min_l = f_min
        self._f_step_l = f_step
        self._lc_int_l: List[float] = [0.0] * M
        self._be_int_l: List[float] = [0.0] * M
        self._cpu_int_l: List[float] = [0.0] * M
        self._membw_int_l: List[float] = [0.0] * M
        self._last_net_l: Optional[List[float]] = None

        # -- fault state (neutral until an injector reports transitions) ----
        # Per machine: ``None`` while no pressure term is active, else
        # ``(extra_llc, nic_fault, p_freq, stall)`` for the faulted
        # slowdown. BE DVFS caps (``f_max`` = none), the LC power factor
        # ``(lc ratio) ** 3`` and the fault-held ``(cores, ways)`` memo
        # coordinate live in their own columns (neutral values on healthy
        # machines, so both tick paths apply them unconditionally).
        self._fault_m: List[Optional[Tuple]] = [None] * M
        self._fcap = np.asarray(f_max, dtype=np.int64)
        self._fcap_l: List[int] = list(f_max)
        self._lc_r3 = np.ones(M)
        self._lc_r3_l: List[float] = [1.0] * M
        self._fkey: List[Tuple[int, int]] = [(0, 0)] * M
        for i, _inj in self._injectors:
            self._refresh_faults(i)

    # -- SoA <-> world synchronisation --------------------------------------

    def _rebuild_row(self, m: int) -> None:
        """Reload machine ``m``'s python row state from the world objects.

        Same math, same python fold order as :class:`_MachineMirror`.
        Both tick paths read the python twins written here; the vec
        path then copies every rebuilt row into its SoA columns in one
        batch (:meth:`_upload_rows`).
        """
        machine = self._m_mach[m]
        total_cores = self._cores_i[m]
        n_ways = machine.llc.n_ways
        alloc_of = machine.be_allocation
        cache = self._row_cache
        row_py = self._row_py
        running: List = []
        rids: List[int] = []
        total_membw_demand = 0.0
        total_net_demand = 0.0
        busy_cores = 0.0
        llc_demand_total = 0.0
        llc_occupied_total = 0.0
        for job in self._m_run[m].pool.running():
            alloc = alloc_of(job.job_id)
            if alloc is None or alloc.suspended:
                continue
            spec = job.spec
            # Row values depend only on (spec, cores, llc ways, machine
            # geometry) — all in the key — so one computation serves every
            # job of the same shape fleet-wide. The spec object rides along
            # in the row to pin its id() for the cache's lifetime.
            key = (id(spec), alloc.cores, alloc.llc_ways, total_cores, n_ways)
            rid = cache.get(key)
            if rid is None:
                cores = alloc.cores
                llc_granted = alloc.llc_ways / n_ways
                llc_demand = spec.demand_fraction("llc", cores, total_cores)
                membw_demand = spec.demand_fraction("membw", cores, total_cores)
                membw_demand += LLC_SPILL_TO_MEMBW * max(
                    0.0, llc_demand - llc_granted
                )
                llc_usage = spec.usage("llc")
                membw_usage = spec.usage("membw")
                net_usage = spec.usage("net")
                rid = len(row_py)
                row_py.append(
                    (
                        cores / total_cores,
                        min(1.0, spec.saturation_cores / total_cores),
                        llc_granted / llc_usage if llc_usage > 0 else np.inf,
                        min(1.0, membw_demand),
                        membw_usage > 0,
                        membw_usage if membw_usage > 0 else 1.0,
                        spec.demand_fraction("net", cores, total_cores),
                        net_usage > 0,
                        net_usage if net_usage > 0 else 1.0,
                        llc_demand,
                        llc_granted,
                        cores,
                        spec,
                    )
                )
                cache[key] = rid
            row = row_py[rid]
            running.append(job)
            rids.append(rid)
            total_membw_demand += row[3]
            total_net_demand += row[6]
            busy_cores += row[11]
            llc_demand_total += row[9]
            llc_occupied_total += row[10]
        k = len(running)
        if k > self._jmax:  # pragma: no cover - pool caps instances
            raise ConfigurationError(
                f"machine {machine.spec.name!r} has {k} running BE "
                f"jobs, fleet rows hold {self._jmax}"
            )
        self._rids[m] = rids
        self._nw_py[m] = [job.normalized_work for job in running]
        self._rs_py[m] = [job.running_seconds for job in running]
        self._md_l[m] = total_membw_demand
        self._nd_l[m] = total_net_demand
        self._cnt_inst_l[m] = machine.be_instance_count
        self._cnt_cores_l[m] = machine.be_total_cores
        self._cnt_ways_l[m] = machine.be_total_llc_ways
        self._njobs_l[m] = k
        self._row_jobs[m] = running
        self._row_ids[m] = [job.job_id for job in running]
        self._busy_be_l[m] = busy_cores
        self._llc_dem_l[m] = min(1.0, llc_demand_total)
        self._llc_occ_l[m] = min(1.0, llc_occupied_total)
        # CPU and LLC pressure are pure functions of row state, so they
        # only move when the row does; the tick loop reads the cache.
        iso = self._iso[m]
        self._p_cpu_l[m] = iso.cpu_pressure(min(1.0, busy_cores / total_cores))
        self._p_llc_l[m] = iso.llc_pressure(
            self._llc_occ_l[m], self._llc_dem_l[m]
        )

    def _upload_rows(self, ms: List[int]) -> None:
        """Copy rows ``ms``' python twins into the SoA columns.

        Job rows are gathered from ``_row_table`` by row id, then each
        padded column takes one reset and one scatter, whatever the
        number of rows. Pads carry the identity elements of every
        downstream op (0 for sums and rates, 1 for divisors, ``inf`` for
        min-reductions); python floats land in float64 cells exactly,
        and the table's 1.0/0.0 masks cast to the same bools.
        """
        if len(self._row_py) > len(self._row_table):
            self._row_table = np.asarray(
                [row[:9] for row in self._row_py], dtype=np.float64
            )
        idx = np.asarray(ms, dtype=np.intp)
        ks = np.asarray([self._njobs_l[m] for m in ms], dtype=np.intp)
        rids: List[int] = []
        nw: List[float] = []
        rs: List[float] = []
        for m in ms:
            rids.extend(self._rids[m])
            nw.extend(self._nw_py[m])
            rs.extend(self._rs_py[m])
        for arr, pad in self._soa_cols:
            arr[idx] = pad
        self._nw[idx] = 0.0
        self._rs[idx] = 0.0
        self._valid[idx] = 0.0
        if rids:
            starts = np.cumsum(ks) - ks
            cells = (
                np.repeat(idx, ks),
                np.arange(len(rids)) - np.repeat(starts, ks),
            )
            block = self._row_table[rids]
            for c, (arr, _pad) in enumerate(self._soa_cols):
                arr[cells] = block[:, c]
            self._nw[cells] = nw
            self._rs[cells] = rs
            self._valid[cells] = 1.0
        self._busy_be[idx] = [self._busy_be_l[m] for m in ms]
        self._md_total[idx] = [self._md_l[m] for m in ms]
        self._nd_total[idx] = [self._nd_l[m] for m in ms]
        self._njobs[idx] = ks
        self._upload_counts(idx, ms)

    def _upload_counts(self, idx: np.ndarray, ms: List[int]) -> None:
        """Copy rows ``ms``' BE instance/core/way counters into SoA."""
        self._cnt_inst[idx] = [self._cnt_inst_l[m] for m in ms]
        self._cnt_cores[idx] = [self._cnt_cores_l[m] for m in ms]
        self._cnt_ways[idx] = [self._cnt_ways_l[m] for m in ms]

    def _flush_rows(self, ms: List[int]) -> None:
        """Write rows ``ms``' accumulated BE progress into their ``BeJob``s."""
        if self._small:
            nw_rows = [self._nw_py[m] for m in ms]
            rs_rows = [self._rs_py[m] for m in ms]
        else:
            idx = np.asarray(ms, dtype=np.intp)
            nw_rows = self._nw[idx].tolist()
            rs_rows = self._rs[idx].tolist()
        for m, nw, rs in zip(ms, nw_rows, rs_rows):
            for j, job in enumerate(self._row_jobs[m]):
                job.normalized_work = nw[j]
                job.running_seconds = rs[j]

    # -- fault state ----------------------------------------------------------

    def _refresh_faults(self, i: int) -> None:
        """Re-read instance ``i``'s fault-touched machine state.

        Runs at construction and on every tick where the instance's
        injector reported transitions, right after ``advance`` — the
        same point in the tick where the scalar loop's next reads see
        the new state. Everything cached here is constant between
        transitions: the injector's pressure terms (its active set only
        changes in ``advance``), the caps and link scale it recomputes
        there, and the fault-held cores and ways. Rows are reloaded
        because ``offline_cores`` may have shrunk BE jobs. A clean row
        becomes dirty and unflushed, so its progress is written back
        before the rebuild; an already dirty row keeps its flush state.
        """
        injector = self._exps[i]._fault_injector
        for m in self._inst_machines[i]:
            machine = self._m_mach[m]
            dvfs = machine.dvfs
            extra_llc, nic_fault, stall = injector.machine_terms(machine.spec.name)
            lc_ratio = dvfs.ratio(LC_DOMAIN)
            p_freq = max(0.0, 1.0 - lc_ratio)
            if extra_llc > 0.0 or nic_fault or stall != 1.0 or p_freq != 0.0:
                self._fault_m[m] = (extra_llc, nic_fault, p_freq, stall)
            else:
                self._fault_m[m] = None
            f_max = self._f_max_l[m]
            be_cap = dvfs.cap(BE_DOMAIN)
            fcap = f_max if be_cap is None else be_cap
            lc_r3 = lc_ratio**3
            self._fcap[m] = fcap
            self._fcap_l[m] = fcap
            self._lc_r3[m] = lc_r3
            self._lc_r3_l[m] = lc_r3
            link = machine.nic.effective_link_gbps
            self._link_nic[m] = link
            self._link_nic_l[m] = link
            self._fkey[m] = (machine.offlined_cores, machine.lost_llc_ways)
            if m not in self._dirty:
                self._dirty.add(m)
                self._unflushed.add(m)

    def _slowdown(
        self,
        m: int,
        p_cpu: float,
        p_llc: float,
        p_membw: float,
        p_net: float,
        real: float,
        lc_net,
    ) -> Tuple[float, float]:
        """``(slowdown, sigma inflation)`` of machine ``m`` this tick.

        The scalar physics operand for operand: the pressure vector of
        ``Pressure.from_be_snapshot`` (its LC frequency term is exactly
        0.0 without a DVFS cap), ``ClusterFaultInjector.adjust_pressure``
        (lost-way LLC pressure, NIC shortfall as network pressure), the
        ``InterferenceModel.slowdown`` fold, the stall factor and
        ``sigma_inflation``. The impact fold and ``x ** gamma`` stay
        python arithmetic (vectorized ``np.power`` drifts by 1 ulp).
        ``lc_net[m]`` is this tick's LC traffic, the demand the scalar
        NIC's ``lc_shortfall_fraction`` reads; healthy machines
        (``_fault_m[m] is None``) only pay a multiply by a 1.0 stall.
        """
        coeffs, gamma, beta, hroom, coup, cap = self._pconst[m]
        fault = self._fault_m[m]
        if fault is None:
            p_freq = 0.0
            stall = 1.0
        else:
            extra_llc, nic_fault, p_freq, stall = fault
            p_llc = min(1.0, p_llc + extra_llc)
            if nic_fault:
                demand = float(lc_net[m])
                short = 0.0
                if demand > 0:
                    short = max(0.0, demand - self._link_nic_l[m]) / demand
                p_net = min(1.0, max(p_net, short))
        if (
            p_cpu == 0.0
            and p_llc == 0.0
            and p_membw == 0.0
            and p_net == 0.0
            and p_freq == 0.0
        ):
            slow = 1.0
        else:
            impact = coeffs[0] * p_cpu**gamma
            impact = impact + coeffs[1] * p_llc**gamma
            impact = impact + coeffs[2] * p_membw**gamma
            impact = impact + coeffs[3] * p_net**gamma
            impact = impact + coeffs[4] * p_freq**gamma
            lo = min(max(real, 0.0), 1.0)
            amp = 1.0 + beta * lo / (hroom + (1.0 - lo))
            slow = 1.0 + amp * impact
        slow *= stall
        return slow, min(cap, 1.0 + coup * (slow - 1.0))

    # -- one lockstep tick ---------------------------------------------------

    def tick(self, t: float, dt: float, last: bool) -> None:
        """One control period across the whole fleet."""
        if self._small:
            tails = self._tick_small(t, dt, last)
        else:
            tails = self._tick_vec(t, dt, last)
        if self._on_tick is not None:
            self._on_tick(t, tails)

    def _begin_tick(
        self, t: float, dt: float
    ) -> Tuple[List[float], List[float], List[int]]:
        """Phase 0 for every instance: fault transitions (refreshing the
        fault state of instances that had any), the load window, then
        the rows invalidated by applies or transitions since last tick.
        Returns per-instance ``(loads, realized loads, sample counts)``."""
        for i, injector in self._injectors:
            if injector.advance(t):
                self._refresh_faults(i)
        n = len(self._exps)
        w_load: List[float] = [0.0] * n
        w_real: List[float] = [0.0] * n
        w_n: List[int] = [0] * n
        for i, exp in enumerate(self._exps):
            window = exp._generator.window(t - dt, dt)
            w_load[i] = window.load
            w_real[i] = window.realized_load
            w_n[i] = window.n_samples
        if self._dirty:
            if self._unflushed:
                self._flush_rows(sorted(self._unflushed))
                self._unflushed.clear()
            dirty = sorted(self._dirty)
            for m in dirty:
                self._rebuild_row(m)
            if not self._small:
                self._upload_rows(dirty)
            self._dirty.clear()
        return w_load, w_real, w_n

    def _sample_tails(
        self,
        w_real: List[float],
        w_n: List[int],
        slow_l: List[float],
        infl_l: List[float],
    ) -> Tuple[List[bool], List[float]]:
        """Latency sampling + window tails for every instance.

        Per-instance RNG draws stay sequential (stream identity); the
        tail reduction groups instances by ``(n_samples, percentile)``
        and runs one partitioned percentile per group, bitwise equal to
        the scalar per-instance ``np.percentile`` call.
        """
        n_exp = len(self._exps)
        groups: Dict[Tuple[int, float], Tuple[List[int], List[np.ndarray]]] = {}
        for i in range(n_exp):
            n = w_n[i]
            if n <= 0:
                continue
            # Rows follow ``_runs`` order, which is servpod order.
            rows = self._inst_machines[i]
            lat = self._samplers[i].sample_e2e(
                w_real[i],
                n,
                [slow_l[m] for m in rows],
                [infl_l[m] for m in rows],
            )
            key = (n, self._tail_pct[i])
            bucket = groups.get(key)
            if bucket is None:
                bucket = ([], [])
                groups[key] = bucket
            bucket[0].append(i)
            bucket[1].append(lat)
        closed = [False] * n_exp
        tails = [0.0] * n_exp
        for (_n, pct), (idxs, lats) in groups.items():
            if len(lats) == 1:
                vals = [percentile_linear(lats[0], pct)]
            else:
                vals = percentile_linear_rows(np.stack(lats), pct)
            for i, tail in zip(idxs, vals):
                closed[i] = True
                tails[i] = tail
        return closed, tails

    def _control(
        self,
        t: float,
        last: bool,
        w_load: List[float],
        tails: List[float],
        snapshot_of,
    ) -> None:
        """Phase 4: decide per machine, then the memoized applies.

        ``decide`` is stateful python per machine; the applies run
        through the shared subcontrollers, memoized on no-op keys (see
        the class docstring). ``snapshot_of(m)`` builds machine ``m``'s
        final ``last_snapshot`` on the last tick.
        """
        exps = self._exps
        acts: List[str] = [""] * self._n_machines
        stop = BeAction.STOP_BE
        small = self._small
        fkey = self._fkey
        moved: List[int] = []
        for m in range(self._n_machines):
            i = self._m_i[m]
            exp = exps[i]
            run = self._m_run[m]
            machine = self._m_mach[m]
            action = run.controller.decide(w_load[i], tails[i], t=t)
            filt = exp.action_filter
            if filt is not None:
                action = filt(self._m_pod[m], action)
            run.last_action = action
            acts[m] = action.value
            if last:
                run.last_snapshot = snapshot_of(m)
            memo = self._memo[m]
            key = (action, machine.version, machine.mem_version, fkey[m])
            if key in memo:
                continue
            if action is stop:
                # Killing floors the work, so the progress lands first.
                self._flush_rows([m])
            v0 = machine.version
            mv0 = machine.mem_version
            exp._cpu_llc.apply(action, machine, run.pool)
            exp._memory.apply(action, machine, run.pool)
            if action is stop:
                # STOP reset the BE DVFS domain's requested frequency;
                # mirror it and never memoize (the key cannot witness
                # this side effect).
                if small:
                    self._freq_py[m] = self._f_max_l[m]
                else:
                    self._freq[m] = self._f_max_l[m]
            if machine.version != v0:
                self._dirty.add(m)
                if action is not stop:
                    self._unflushed.add(m)
                self._cnt_inst_l[m] = machine.be_instance_count
                self._cnt_cores_l[m] = machine.be_total_cores
                self._cnt_ways_l[m] = machine.be_total_llc_ways
                moved.append(m)
            elif machine.mem_version == mv0 and action is not stop:
                memo.add(key)
        if moved and not small:
            # Phase 5 reads post-apply core counts this tick.
            self._upload_counts(np.asarray(moved, dtype=np.intp), moved)
        self._acts.append(acts)

    def _tick_small(
        self,
        t: float,
        dt: float,
        last: bool,
    ) -> List[float]:
        """Per-machine python tick for small fleets; returns the tails.

        Identical arithmetic to :meth:`_tick_vec`, operand for operand:
        every whole-array op there is elementwise over machines (or a
        strictly left-to-right fold over job slots), and elementwise
        float64 equals python-float arithmetic bit for bit, so both
        paths land on the same identity pin. ``np.minimum``/``maximum``
        become ``min``/``max`` — equivalent here because no operand is
        NaN and no tie mixes signed zeros.
        """
        w_load, w_real, w_n = self._begin_tick(t, dt)
        M = self._n_machines
        m_i = self._m_i
        fcap_l = self._fcap_l
        row_py = self._row_py

        # Phases 1 + 3 fused per machine: LC usage, NIC caps, headroom
        # shares, Leontief rates, BE progress, pressure -> slowdown.
        slow_l: List[float] = [1.0] * M
        infl_l: List[float] = [1.0] * M
        membw_l: List[float] = [0.0] * M
        net_l: List[float] = [0.0] * M
        lc_busy_l: List[float] = [0.0] * M
        lc_net_l: List[float] = [0.0] * M
        rate_rows: List[List[float]] = [[]] * M
        rate_tot_l: List[float] = [0.0] * M
        busy_tot_l: List[float] = [0.0] * M
        membw_tot_l: List[float] = [0.0] * M
        load_m: List[float] = [0.0] * M
        for m in range(M):
            i = m_i[m]
            real = w_real[i]
            load_m[m] = w_load[i]
            lc_busy = self._busy_c_l[m] * real
            lc_membw = self._membw_c_l[m] * real
            if lc_membw > 1.0:
                lc_membw = 1.0
            lc_net = self._net_c_l[m] * real
            lc_net_l[m] = lc_net
            link = self._link_nic_l[m]
            lc_sent = lc_net if lc_net < link else link
            be_cap = link - self._guard_l[m] * lc_sent
            if be_cap < 0.0:
                be_cap = 0.0
            be_cap_frac = be_cap / self._link_spec_l[m]
            headroom = 1.0 - lc_membw
            if headroom < 0.0:
                headroom = 0.0
            md = self._md_l[m]
            membw_scale = 1.0
            if md > 0.0:
                membw_scale = headroom / md
                if membw_scale > 1.0:
                    membw_scale = 1.0
            nd = self._nd_l[m]
            net_scale = 1.0
            if nd > 0.0:
                net_scale = be_cap_frac / nd
                if net_scale > 1.0:
                    net_scale = 1.0
            freq = self._freq_py[m]
            if fcap_l[m] < freq:
                freq = fcap_l[m]
            fratio = freq / self._f_max_l[m]
            rids = self._rids[m]
            nw = self._nw_py[m]
            rs = self._rs_py[m]
            rates: List[float] = [0.0] * len(rids)
            membw_used = 0.0
            net_used = 0.0
            rate_total = 0.0
            for j, rid in enumerate(rids):
                row = row_py[rid]
                r = (row[0] * fratio) / row[1]
                lr = row[2]
                if lr < r:
                    r = lr
                g_m = row[3] * membw_scale
                if row[4]:
                    q = g_m / row[5]
                    if q < r:
                        r = q
                g_n = row[6] * net_scale
                if row[7]:
                    q = g_n / row[8]
                    if q < r:
                        r = q
                if r > 1.0:
                    r = 1.0
                elif r < 0.0:
                    r = 0.0
                rates[j] = r
                membw_used = membw_used + g_m
                net_used = net_used + g_n
                rate_total = rate_total + r
                nw[j] = nw[j] + dt * r
                rs[j] = rs[j] + dt
            snap_membw = membw_used if membw_used < 1.0 else 1.0
            snap_net = net_used if net_used < 1.0 else 1.0
            slow_l[m], infl_l[m] = self._slowdown(
                m,
                self._p_cpu_l[m],
                self._p_llc_l[m],
                snap_membw,
                snap_net,
                real,
                lc_net_l,
            )
            membw_l[m] = snap_membw
            net_l[m] = snap_net
            lc_busy_l[m] = lc_busy
            rate_rows[m] = rates
            rate_tot_l[m] = rate_total
            busy_tot = lc_busy + self._busy_be_l[m]
            busy_tot_l[m] = busy_tot
            membw_tot = lc_membw + snap_membw
            if membw_tot > 1.0:
                membw_tot = 1.0
            membw_tot_l[m] = membw_tot
            cores_f = self._cores_f_l[m]
            self._lc_int_l[m] += load_m[m] * dt
            self._be_int_l[m] += rate_total * dt
            self._cpu_int_l[m] += (busy_tot if busy_tot < cores_f else cores_f) * dt
            self._membw_int_l[m] += membw_tot * dt
        self._elapsed += dt

        # Phase 2: latency sampling (shared with the vectorized path).
        closed, tails = self._sample_tails(w_real, w_n, slow_l, infl_l)

        # Deferred metrics: python columns; counters copied before the
        # applies, like the scalar record_tick.
        self._cols.append(
            (
                t,
                load_m,
                [tails[m_i[m]] for m in range(M)],
                busy_tot_l,
                membw_tot_l,
                rate_tot_l,
                list(self._cnt_inst_l),
                list(self._cnt_cores_l),
                list(self._cnt_ways_l),
                list(self._njobs_l),
            )
        )
        self._wins.append((closed, tails))

        def snapshot_of(m: int) -> BeResourceSnapshot:
            ids = self._row_ids[m]
            return BeResourceSnapshot(
                busy_cores=self._busy_be_l[m],
                membw_fraction=membw_l[m],
                llc_demand_fraction=self._llc_dem_l[m],
                llc_occupied_fraction=self._llc_occ_l[m],
                net_fraction=net_l[m],
                rates=dict(zip(ids, rate_rows[m][: len(ids)])),
            )

        self._control(t, last, w_load, tails, snapshot_of)

        # Phase 5: frequency subcontroller per machine (post-apply BE
        # core counts, python pow cube — same table the vec path uses).
        # Steps start from the effective (capped) frequency, like
        # ``DvfsGovernor.step_down``/``step_up``.
        r3_cache = self._r3_cache
        for m in range(M):
            f = self._freq_py[m]
            if fcap_l[m] < f:
                f = fcap_l[m]
            mx = self._f_max_l[m]
            v = r3_cache.get((f, mx))
            if v is None:
                v = (f / mx) ** 3
                r3_cache[(f, mx)] = v
            power = self._idle_l[m] + self._active_l[m] * (
                lc_busy_l[m] * self._lc_r3_l[m] + self._cnt_cores_l[m] * v
            )
            if power > self._hi_l[m]:
                self._freq_py[m] = max(self._f_min_l[m], f - self._f_step_l[m])
            elif power < self._lo_l[m]:
                self._freq_py[m] = min(mx, f + self._f_step_l[m])
        self._last_net_l = lc_net_l
        return tails

    def _tick_vec(
        self,
        t: float,
        dt: float,
        last: bool,
    ) -> List[float]:
        """Whole-array tick (large fleets); returns the tails."""
        w_load, w_real, w_n = self._begin_tick(t, dt)
        M = self._n_machines

        # Phase 1a: LC usage and NIC caps, whole fleet at once, against
        # each machine's effective (possibly fault-degraded) link.
        real_m = np.asarray(w_real)[self._m_i_arr]
        lc_busy = self._busy_coeff * real_m
        lc_membw = np.minimum(1.0, self._membw_coeff * real_m)
        lc_net = self._net_coeff * real_m
        lc_sent = np.minimum(lc_net, self._link_nic)
        be_cap = np.maximum(0.0, self._link_nic - self._guard * lc_sent)
        be_cap_frac = be_cap / self._link_spec

        # Phase 1b: proportional headroom shares. min(1, inf) == 1
        # covers the scalar "no demand -> scale 1.0" branch.
        headroom = np.maximum(0.0, 1.0 - lc_membw)
        quot = np.full(M, np.inf)
        np.divide(headroom, self._md_total, out=quot, where=self._md_total > 0.0)
        membw_scale = np.minimum(1.0, quot)
        quot = np.full(M, np.inf)
        np.divide(be_cap_frac, self._nd_total, out=quot, where=self._nd_total > 0.0)
        net_scale = np.minimum(1.0, quot)

        # Phase 1c: Leontief rates, exact BeRateKernel op order.
        fratio = np.minimum(self._freq, self._fcap) / self._f_max
        ratios = (self._cpu_base * fratio[:, None]) / self._req_cpu
        ratios = np.minimum(ratios, self._llc_ratio)
        granted_membw = self._membw * membw_scale[:, None]
        ratios = np.minimum(
            ratios,
            np.where(self._membw_mask, granted_membw / self._membw_div, np.inf),
        )
        granted_net = self._net * net_scale[:, None]
        ratios = np.minimum(
            ratios,
            np.where(self._net_mask, granted_net / self._net_div, np.inf),
        )
        rate = np.maximum(0.0, np.minimum(1.0, ratios))

        # Padded column sweeps as ``add.accumulate`` (strictly sequential
        # left-to-right, unlike ``np.sum``'s pairwise fold): exact because
        # pads add +0.0 to non-negative accumulators and the first column
        # satisfies ``0.0 + c == c`` bitwise for c >= 0.
        membw_used = np.cumsum(granted_membw, axis=1)[:, -1]
        net_used = np.cumsum(granted_net, axis=1)[:, -1]
        rate_total = np.cumsum(rate, axis=1)[:, -1]
        snap_membw = np.minimum(1.0, membw_used)
        snap_net = np.minimum(1.0, net_used)

        # Phase 1d: pressure -> slowdown -> sigma inflation, python per
        # machine (x ** gamma and the impact fold must stay python).
        membw_l = snap_membw.tolist()
        net_l = snap_net.tolist()
        real_l = real_m.tolist()
        busy_l = self._busy_be_l
        slow_l: List[float] = [1.0] * M
        infl_l: List[float] = [1.0] * M
        p_cpu_l = self._p_cpu_l
        p_llc_l = self._p_llc_l
        slowdown = self._slowdown
        for m in range(M):
            slow_l[m], infl_l[m] = slowdown(
                m, p_cpu_l[m], p_llc_l[m], membw_l[m], net_l[m], real_l[m], lc_net
            )

        # Phase 2: latency sampling per instance (per-instance RNG),
        # tails reduced per (n_samples, percentile) group in one
        # partitioned-percentile call — bitwise equal per row.
        closed, tails = self._sample_tails(w_real, w_n, slow_l, infl_l)

        # Phase 3: BE progress, in place (elementwise == python floats).
        self._nw += dt * rate
        self._rs += dt * self._valid

        # Deferred metrics: integrate now, materialise at end of run.
        # Counter columns are copied *before* this tick's applies, like
        # the scalar record_tick.
        tail_m = np.asarray(tails)[self._m_i_arr]
        load_m = np.asarray(w_load)[self._m_i_arr]
        busy_total = lc_busy + self._busy_be
        membw_total = np.minimum(1.0, lc_membw + snap_membw)
        self._lc_int += load_m * dt
        self._be_int += rate_total * dt
        self._cpu_int += np.minimum(busy_total, self._cores_farr) * dt
        self._membw_int += np.minimum(membw_total, 1.0) * dt
        self._elapsed += dt
        self._cols.append(
            (
                t,
                load_m,
                tail_m,
                busy_total,
                membw_total,
                rate_total,
                self._cnt_inst.copy(),
                self._cnt_cores.copy(),
                self._cnt_ways.copy(),
                self._njobs.copy(),
            )
        )
        self._wins.append((closed, tails))

        def snapshot_of(m: int) -> BeResourceSnapshot:
            ids = self._row_ids[m]
            return BeResourceSnapshot(
                busy_cores=busy_l[m],
                membw_fraction=membw_l[m],
                llc_demand_fraction=self._llc_dem_l[m],
                llc_occupied_fraction=self._llc_occ_l[m],
                net_fraction=net_l[m],
                rates=dict(zip(ids, rate[m, : len(ids)].tolist())),
            )

        self._control(t, last, w_load, tails, snapshot_of)

        # Phase 5: frequency subcontroller, whole fleet at once. Uses
        # post-apply BE core counts, exactly like the scalar pass, and
        # steps from the effective (capped) frequency.
        freq = np.minimum(self._freq, self._fcap)
        if self._r3_table is not None:
            r3 = self._r3_table[(freq - self._r3_base) // self._r3_step]
        else:
            cache = self._r3_cache
            vals = []
            for m, f in enumerate(freq.tolist()):
                mx = self._f_max_l[m]
                v = cache.get((f, mx))
                if v is None:
                    v = (f / mx) ** 3
                    cache[(f, mx)] = v
                vals.append(v)
            r3 = np.asarray(vals)
        power = self._idle_w + self._active_w * (
            lc_busy * self._lc_r3 + self._cnt_cores * r3
        )
        down = power > self._hi_w
        up = (~down) & (power < self._lo_w)
        self._freq = np.where(
            down,
            np.maximum(self._f_min, freq - self._f_step),
            np.where(
                up, np.minimum(self._f_max, freq + self._f_step), self._freq
            ),
        )
        self._last_net = lc_net
        return tails

    # -- whole runs ----------------------------------------------------------

    def _tick_times(self) -> List[float]:
        """The scalar engine's tick schedule, float accumulation and all."""
        times: List[float] = []
        t = self._period_s
        if t <= self._duration_s:
            times.append(t)
            while True:
                nxt = t + self._period_s
                if nxt > self._duration_s:
                    break
                times.append(nxt)
                t = nxt
        return times

    def run(self) -> List["ColocationResult"]:
        """Run every experiment to completion; results in input order."""
        times = self._tick_times()
        n_ticks = len(times)
        lsum = [0.0] * len(self._exps)
        for k, t in enumerate(times):
            self.tick(t, self._period_s, last=(k == n_ticks - 1))
            for i, exp in enumerate(self._exps):
                lsum[i] += min(1.0, max(0.0, exp.pattern.load_at(t)))
        self._finalize()
        return [
            exp._result(lsum[i] / max(1, n_ticks), events_fired=n_ticks)
            for i, exp in enumerate(self._exps)
        ]

    def _finalize(self) -> None:
        """Flush SoA state back into the world objects and metrics.

        Progress goes back to every row that still holds it: clean rows
        and unflushed dirty ones. Rows a last-tick STOP dirtied are
        skipped: their jobs were flushed before the kill, which floors
        the work a second flush would write back.
        """
        dirty = self._dirty
        self._flush_rows(
            [
                m
                for m in range(self._n_machines)
                if m not in dirty or m in self._unflushed
            ]
        )
        if self._small:
            self._finalize_small()
            return
        M = self._n_machines
        elapsed = self._elapsed
        lc_l = self._lc_int.tolist()
        be_l = self._be_int.tolist()
        cpu_l = self._cpu_int.tolist()
        mb_l = self._membw_int.tolist()
        for m in range(M):
            metrics = self._m_run[m].metrics
            emu = metrics.emu
            emu._lc_integral = lc_l[m]
            emu._be_integral = be_l[m]
            emu._elapsed = elapsed
            util = metrics.utilisation
            util._cpu_integral = cpu_l[m]
            util._membw_integral = mb_l[m]
            util._elapsed = elapsed
        for col, acts in zip(self._cols, self._acts):
            (t, load_m, tail_m, busy, membw, rate_tot, ci, cc, cw, nj) = col
            slack = (self._sla_arr - tail_m) / self._sla_arr
            cpu_u = np.minimum(1.0, busy / self._cores_farr)
            ll = load_m.tolist()
            tl = tail_m.tolist()
            sl = slack.tolist()
            cl = cpu_u.tolist()
            mb = membw.tolist()
            rt = rate_tot.tolist()
            cil = ci.tolist()
            ccl = cc.tolist()
            cwl = cw.tolist()
            njl = nj.tolist()
            for m in range(M):
                self._m_run[m].metrics.samples.append(
                    TickSample(
                        t=t,
                        load=ll[m],
                        slack=sl[m],
                        tail_ms=tl[m],
                        cpu_utilisation=cl[m],
                        membw_utilisation=mb[m],
                        be_instances=cil[m],
                        be_cores=ccl[m],
                        be_llc_ways=cwl[m],
                        # An empty rates dict sums to the *int* 0 on the
                        # scalar path (sum of no floats) — match it so
                        # fingerprint reprs stay bitwise identical.
                        be_rate=rt[m] if njl[m] else 0,
                        action=acts[m],
                    )
                )
        for vi, rows in enumerate(self._inst_machines):
            window_tails = [tl[vi] for (cv, tl) in self._wins if cv[vi]]
            for m in rows:
                self._m_run[m].metrics.tail.record_window_tails(window_tails)
        # Sync the hardware observables (DVFS frequency, NIC caps) so
        # post-run machine state matches a scalar run's.
        freq_l = self._freq.tolist()
        net_l = self._last_net.tolist() if self._last_net is not None else None
        self._sync_hardware(freq_l, net_l)

    def _finalize_small(self) -> None:
        """Python finalize over the small-fleet twins (same values)."""
        M = self._n_machines
        elapsed = self._elapsed
        for m in range(M):
            metrics = self._m_run[m].metrics
            emu = metrics.emu
            emu._lc_integral = self._lc_int_l[m]
            emu._be_integral = self._be_int_l[m]
            emu._elapsed = elapsed
            util = metrics.utilisation
            util._cpu_integral = self._cpu_int_l[m]
            util._membw_integral = self._membw_int_l[m]
            util._elapsed = elapsed
        for col, acts in zip(self._cols, self._acts):
            (t, load_m, tail_m, busy, membw, rate_tot, ci, cc, cw, nj) = col
            for m in range(M):
                tail = tail_m[m]
                sla = self._sla_l[m]
                self._m_run[m].metrics.samples.append(
                    TickSample(
                        t=t,
                        load=load_m[m],
                        slack=(sla - tail) / sla,
                        tail_ms=tail,
                        cpu_utilisation=min(1.0, busy[m] / self._cores_f_l[m]),
                        membw_utilisation=membw[m],
                        be_instances=ci[m],
                        be_cores=cc[m],
                        be_llc_ways=cw[m],
                        # Same int-0 quirk as the vec path: the scalar
                        # rates dict sums to the *int* 0 when empty.
                        be_rate=rate_tot[m] if nj[m] else 0,
                        action=acts[m],
                    )
                )
        for vi, rows in enumerate(self._inst_machines):
            window_tails = [tl[vi] for (cv, tl) in self._wins if cv[vi]]
            for m in rows:
                self._m_run[m].metrics.tail.record_window_tails(window_tails)
        self._sync_hardware(self._freq_py, self._last_net_l)

    def _sync_hardware(
        self, freq_l: List[int], net_l: Optional[List[float]]
    ) -> None:
        for m in range(self._n_machines):
            machine = self._m_mach[m]
            if freq_l[m] >= self._f_max_l[m]:
                machine.dvfs.reset(BE_DOMAIN)
            else:
                machine.dvfs.set_frequency(BE_DOMAIN, freq_l[m])
            if net_l is not None:
                machine.nic.observe_lc_traffic(net_l[m])


# ---------------------------------------------------------------------------
# Bake-off: many controller sets over one shared physics pass
# ---------------------------------------------------------------------------


@dataclass
class BakeoffStats:
    """Sharing accounting of one :class:`BakeoffKernel` run.

    ``branch_ticks`` counts physics passes actually executed (one per
    live branch per tick); running the ``members`` controller sets
    independently would cost ``members * ticks`` passes, so the saving
    is their difference.
    """

    members: int = 0
    ticks: int = 0
    branch_ticks: int = 0
    forks: int = 0
    merges: int = 0
    max_branches: int = 0

    @property
    def physics_passes_saved(self) -> int:
        """Physics passes avoided vs independent per-member runs."""
        return self.members * self.ticks - self.branch_ticks

    @property
    def shared_fraction(self) -> float:
        """Fraction of the independent-run physics cost avoided."""
        total = self.members * self.ticks
        return self.physics_passes_saved / total if total else 0.0


class _BakeoffMember:
    """One controller set racing in the bake-off, with its own metrics."""

    __slots__ = (
        "name",
        "controllers",
        "metrics",
        "kill_offset",
        "susp_offset",
        "actions",
    )

    def __init__(self, name, controllers, metrics) -> None:
        self.name = name
        self.controllers = controllers
        self.metrics = metrics
        # Integer counter virtualisation: this member's independent-run
        # kill/suspension totals equal its branch world's totals plus
        # these offsets. Exact integer arithmetic, adjusted only at
        # merge time, so no float associativity is ever at stake.
        self.kill_offset = 0
        self.susp_offset = 0
        self.actions: Dict[str, BeAction] = {}


#: Distinct-from-everything marker for the memo-normalisation lookup
#: (``None`` is a real verdict there, so ``dict.get`` needs a third state).
_UNRESOLVED = object()


def _memo_key(pod: str, action: BeAction, machine) -> Tuple:
    """The no-op memo key for one pod's pending action.

    ``version``/``mem_version`` witness every BE-visible allocation
    change, but fault injection moves capacity *without* bumping them:
    ``offline_cores``/``fault_llc_ways`` park cores and cache ways under
    the fault owner and the restore hands them straight back to the free
    pool. A memoized "ALLOW was a no-op" verdict recorded while capacity
    was fault-held would otherwise stay live after the restore and skip
    a launch that the scalar engine performs. Including the fault-held
    counts in the key invalidates the memo across every such transition.
    """
    return (
        pod,
        action,
        machine.version,
        machine.mem_version,
        machine.offlined_cores,
        machine.lost_llc_ways,
    )


class _BakeoffBranch:
    """One materialised world shared by members whose decisions agree."""

    __slots__ = ("exp", "kernel", "members", "memo")

    def __init__(self, exp, kernel, members, memo) -> None:
        self.exp = exp
        self.kernel = kernel
        self.members = members  # member indices, ascending
        # No-op memo in the FleetColocationKernel style: a key (see
        # :func:`_memo_key`) enters only after an apply that provably
        # changed nothing, so skipping a repeat cannot change state
        # (STOP never enters — its DVFS reset is a side effect the key
        # cannot witness). Used both to skip repeated applies and to
        # *normalise* action vectors before divergence partitioning:
        # two members whose actions differ only on memoized-no-op pods
        # share one world mutation.
        self.memo = memo


class BakeoffKernel:
    """Runs N controller sets over one seeded scenario in a single pass.

    The controller-independent physics of a tick — fault advance, load
    window, BE rates, interference pressure, Servpod latency draws, BE
    progress — runs **once per branch** through
    :meth:`BatchedColocationKernel.observe` and is broadcast to every
    member (controller set) on that branch. Members decide on the shared
    observation and record their own metrics; their action vectors are
    then normalised through the branch's no-op memo and partitioned.
    One partition keeps the branch; each additional partition **forks**
    a copy-on-write world and applies its own actions — so the cost of
    divergence is paid only when decisions actually differ in effect.
    A fork deep-copies only what a branch can mutate (machine state,
    pools and job records, RNG streams, load generator, fault
    injector): a memo built once per kernel maps every shared scenario
    object — frozen specs, pattern, config, stateless subcontrollers,
    the scenario experiment's own controllers and metrics — to itself
    (:meth:`_scenario_shared_state`), and job, allocation and cpuset
    records copy flat through their own ``__deepcopy__``.

    Because controller decisions never change RNG *consumption* (window
    sample counts and latency-draw shapes depend only on the load
    pattern and the shared seed), every branch's streams stay bitwise
    equal, and branches whose worlds re-converge — same live jobs, same
    allocations and float progress, same DVFS/NIC state — are detected
    by a state digest and **re-merged**, with per-member integer
    kill/suspension counters virtualised via exact offsets. The digest
    is compared in two stages (:meth:`_merge_groups`): a cheap per-pod
    scalar key for every branch, the job/RNG detail only where keys
    collide.

    Identity contract: for every member, the returned
    ``ColocationResult`` and the final RNG stream states are
    bit-identical to constructing a fresh ``ColocationExperiment`` with
    that member's controllers over the same seeded scenario and calling
    ``run()`` (``tests/test_bakeoff.py`` pins this in-process, across
    fork/spawn, and under fault schedules).
    """

    def __init__(
        self,
        experiment: "ColocationExperiment",
        members: "Dict[str, Dict[str, object]]",
    ) -> None:
        if not members:
            raise ConfigurationError("bake-off needs at least one member")
        if experiment.action_filter is not None:
            raise ConfigurationError(
                "bake-off does not compose with action_filter hooks"
            )
        pods = list(experiment._runs)
        for name, controllers in members.items():
            missing = set(pods) - set(controllers)
            if missing:
                raise ConfigurationError(
                    f"member {name!r} lacks controllers for {sorted(missing)}"
                )
        self._exp = experiment
        self._pods = pods
        self._duration_s = experiment.config.duration_s
        self._period_s = experiment.config.control_period_s
        self._members: List[_BakeoffMember] = []
        for name, controllers in members.items():
            metrics = {
                pod: MachineMetrics(
                    machine_name=experiment.deployment.servpod(pod).machine.spec.name,
                    servpod=pod,
                    total_cores=experiment.deployment.servpod(pod).machine.spec.cores,
                    sla_ms=experiment.spec.sla_ms,
                    tail_pct=experiment.spec.tail_percentile,
                )
                for pod in pods
            }
            self._members.append(_BakeoffMember(name, dict(controllers), metrics))
        # Kernels live on branches, not on the experiment, so world
        # forks never deepcopy SoA mirrors (each fork builds a fresh
        # kernel whose mirrors rebuild on the next version check).
        self._branches: List[_BakeoffBranch] = [
            _BakeoffBranch(
                experiment,
                BatchedColocationKernel(experiment),
                list(range(len(self._members))),
                set(),
            )
        ]
        # Deep-copy memo for forks, built once: id -> itself for every
        # object all branches share (deepcopy adds to the memo it is
        # given, so each fork seeds a fresh copy of this one).
        self._shared_memo: Dict[int, object] = {
            id(obj): obj for obj in self._scenario_shared_state(experiment)
        }
        self.stats = BakeoffStats(members=len(self._members))
        self._member_branch: Dict[str, _BakeoffBranch] = {}

    # -- the run loop ---------------------------------------------------

    def _tick_times(self) -> List[float]:
        """The scalar engine's tick schedule, float accumulation and all."""
        times: List[float] = []
        t = self._period_s
        if t <= self._duration_s:
            times.append(t)
            while True:
                nxt = t + self._period_s
                if nxt > self._duration_s:
                    break
                times.append(nxt)
                t = nxt
        return times

    def run(self) -> "Dict[str, ColocationResult]":
        """Run every member to completion; results keyed by member name."""
        times = self._tick_times()
        n_ticks = len(times)
        self.stats.ticks = n_ticks
        lsum = 0.0
        pattern = self._exp.pattern
        for t in times:
            for branch in list(self._branches):
                self._tick_branch(branch, t, self._period_s)
            if len(self._branches) > 1:
                self._try_merge()
            self.stats.max_branches = max(
                self.stats.max_branches, len(self._branches)
            )
            lsum += min(1.0, max(0.0, pattern.load_at(t)))
        lc_load_mean = lsum / max(1, n_ticks)
        results: Dict[str, "ColocationResult"] = {}
        for branch in self._branches:
            for mi in branch.members:
                member = self._members[mi]
                self._member_branch[member.name] = branch
                results[member.name] = self._member_result(
                    member, branch, lc_load_mean, n_ticks
                )
        return {m.name: results[m.name] for m in self._members}

    def member_streams(self, name: str):
        """The final RNG streams of ``name``'s branch (after ``run``)."""
        return self._member_branch[name].exp.streams

    # -- one tick of one branch -----------------------------------------

    def _tick_branch(self, branch: _BakeoffBranch, t: float, dt: float) -> None:
        self.stats.branch_ticks += 1
        exp = branch.exp
        load, tail_ms, window_closed, snapshots, usages = branch.kernel.observe(
            t, dt
        )
        machines = branch.kernel._machines

        # Pre-apply machine gauges and per-pod sample fields, computed
        # once and recorded for every member: the world is shared until
        # the apply phase, so each member's scalar run would read these
        # exact values.
        pod_fields: Dict[str, Tuple] = {}
        for pod in self._pods:
            snapshot = snapshots[pod]
            usage = usages[pod]
            n_inst, n_cores, n_ways = branch.kernel.be_counters(pod)
            pod_fields[pod] = (
                usage.busy_cores + snapshot.busy_cores,
                min(1.0, usage.membw_fraction + snapshot.membw_fraction),
                n_inst,
                n_cores,
                n_ways,
                snapshot.total_rate,
            )

        # Decide + record for every member on the shared observation.
        # Machines are per-pod, so recording all members before any
        # apply sees exactly the pre-apply state the scalar per-pod
        # decide/record/apply interleaving sees. Members that chose the
        # same action for a pod record the exact same field values, so
        # one frozen ``TickSample`` per distinct (pod, action) is built
        # and shared (every member's sla / core capacity comes from the
        # one scenario service, enforced at construction).
        sample_cache: Dict[Tuple[str, BeAction], TickSample] = {}
        for mi in branch.members:
            member = self._members[mi]
            actions: Dict[str, BeAction] = {}
            for pod in self._pods:
                actions[pod] = member.controllers[pod].decide(load, tail_ms, t=t)
            member.actions = actions
            for pod in self._pods:
                action = actions[pod]
                metrics = member.metrics[pod]
                if window_closed:
                    metrics.tail.record_window_tail(tail_ms)
                key = (pod, action)
                sample = sample_cache.get(key)
                if sample is None:
                    (busy, membw, n_inst, n_cores, n_ways, be_rate) = (
                        pod_fields[pod]
                    )
                    sla = metrics.sla_ms
                    sample = TickSample(
                        t=t,
                        load=load,
                        slack=(sla - tail_ms) / sla,
                        tail_ms=tail_ms,
                        cpu_utilisation=min(1.0, busy / metrics.total_cores),
                        membw_utilisation=membw,
                        be_instances=n_inst,
                        be_cores=n_cores,
                        be_llc_ways=n_ways,
                        be_rate=be_rate,
                        action=action.value,
                    )
                    sample_cache[key] = sample
                metrics.record_shared_tick(dt, sample, pod_fields[pod][0])

        # Partition members by memo-normalised action vector: a pod
        # whose memo key is a proven no-op is a wildcard — members
        # differing only there share one world mutation. The memo
        # verdict depends only on (pod, action, machine state), so it
        # is resolved once per distinct action and reused.
        norm: Dict[Tuple[str, BeAction], Optional[BeAction]] = {}
        partitions: Dict[Tuple, List[int]] = {}
        for mi in branch.members:
            member = self._members[mi]
            sig_parts = []
            for pod in self._pods:
                action = member.actions[pod]
                pk = (pod, action)
                verdict = norm.get(pk, _UNRESOLVED)
                if verdict is _UNRESOLVED:
                    verdict = (
                        None
                        if _memo_key(pod, action, machines[pod]) in branch.memo
                        else action
                    )
                    norm[pk] = verdict
                sig_parts.append(verdict)
            partitions.setdefault(tuple(sig_parts), []).append(mi)

        groups = list(partitions.values())
        if len(groups) > 1:
            # Lazy divergence forking: clone the pre-apply world once
            # per extra partition, then let each partition apply its own
            # actions to its own copy.
            branch.members = groups[0]
            for group in groups[1:]:
                fork = self._fork(branch, group)
                self._branches.append(fork)
                self._apply(fork, self._members[group[0]].actions, usages)
        self._apply(branch, self._members[branch.members[0]].actions, usages)

    # -- copy-on-write world forking --------------------------------------

    @staticmethod
    def _scenario_shared_state(exp) -> List[object]:
        """The scenario objects every branch may share by reference.

        A fork must duplicate exactly the state a branch can *mutate*:
        machine/cluster state, BE pools and job records, RNG streams,
        the load generator, the fault injector. Everything else about
        the scenario is decision-independent and read-only for the
        whole run, so every branch holds the very same objects: the
        frozen specs (service, Servpod and component specs with their
        sensitivity vectors, machine specs, power models, BE job specs),
        the load pattern, the config (and its fault schedule), the
        stateless subcontrollers, and the scenario experiment's own
        controllers and ``MachineRun.metrics`` (the bake-off consults
        only *member* controllers and records only *member* metrics,
        never the scenario experiment's; enforced by every member
        carrying a fresh ``build_controllers`` set). Sharing these
        turns the fork deep-copy into a copy-on-write snapshot of just
        the mutable world; the ``divergent`` block of
        ``bench_bakeoff.py`` records what one fork costs on a roster
        that forks and re-merges every few ticks.
        """
        shared: List[object] = [
            exp.spec,
            exp.pattern,
            exp.config,
            exp._cpu_llc,
            exp._frequency,
            exp._memory,
            exp._network,
        ]
        for pod_spec in exp.spec.servpods:
            shared.append(pod_spec)
            for component in pod_spec.components:
                shared.append(component)
                shared.append(component.sensitivity)
        for machine in exp.deployment.cluster:
            shared.append(machine.spec)
            shared.append(machine.power_model)
        if exp.config.faults is not None:
            shared.append(exp.config.faults)
            shared.extend(exp.config.faults.faults)
        shared.extend(exp.be_specs)
        shared.extend(exp.controllers.values())
        shared.extend(run.metrics for run in exp._runs.values())
        return shared

    def _fork(self, branch: _BakeoffBranch, group: List[int]) -> _BakeoffBranch:
        """Clone ``branch``'s world for a diverging member partition.

        The deep copy is seeded with a memo mapping every shared
        scenario object to itself (:meth:`_scenario_shared_state`,
        collected once per kernel: every branch shares the root's
        objects), so only the mutable world state is duplicated; job
        and allocation records copy flat through their own
        ``__deepcopy__``. Kernels hang off branches, not experiments,
        so no SoA arrays are copied either — the fork's fresh
        :class:`BatchedColocationKernel` rebuilds them lazily.
        """
        self.stats.forks += 1
        clone = copy.deepcopy(branch.exp, dict(self._shared_memo))
        return _BakeoffBranch(
            clone,
            BatchedColocationKernel(clone),
            group,
            set(branch.memo),
        )

    def _apply(
        self,
        branch: _BakeoffBranch,
        actions: "Dict[str, BeAction]",
        usages,
    ) -> None:
        """Phase 4 actuation in exact scalar order, memoised per branch."""
        exp = branch.exp
        machines = branch.kernel._machines
        for pod in self._pods:
            machine = machines[pod]
            run = exp._runs[pod]
            action = actions[pod]
            key = _memo_key(pod, action, machine)
            if key not in branch.memo:
                v0, mv0 = machine.version, machine.mem_version
                exp._cpu_llc.apply(action, machine, run.pool)
                exp._memory.apply(action, machine, run.pool)
                if (
                    action is not BeAction.STOP_BE
                    and machine.version == v0
                    and machine.mem_version == mv0
                ):
                    branch.memo.add(key)
            exp._frequency.apply(
                machine,
                usages[pod].busy_cores,
                branch.kernel.be_counters(pod)[1],
            )

    # -- re-merge detection ---------------------------------------------

    def _merge_groups(self) -> List[List[_BakeoffBranch]]:
        """Live branches grouped by equal :func:`_world_digest`.

        Two stages: every branch gets the cheap scalar
        :func:`_world_key`, and only branches whose keys collide pay for
        the detailed part (:func:`_world_detail`). The key is a
        projection of the digest, so equal digests imply equal keys:
        grouping by ``(key, detail-or-None)`` is exactly the grouping
        by full digest. Groups and their members keep first-seen branch
        order.
        """
        keys = [_world_key(branch.exp) for branch in self._branches]
        counts: Dict[Tuple, int] = {}
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
        groups: Dict[Tuple, List[_BakeoffBranch]] = {}
        for branch, key in zip(self._branches, keys):
            detail = _world_detail(branch.exp) if counts[key] > 1 else None
            groups.setdefault((key, detail), []).append(branch)
        return list(groups.values())

    def _try_merge(self) -> None:
        """Collapse branches whose forward-relevant state re-converged."""
        groups = self._merge_groups()
        if len(groups) == len(self._branches):
            return
        # Each group's first branch survives; groups iterate in
        # first-seen order, which keeps the branches' own order.
        survivors = [group[0] for group in groups]
        for group in groups:
            keep = group[0]
            k_kills = keep.exp.deployment.cluster.total_be_kills
            k_susp = sum(
                m.counters.be_suspensions for m in keep.exp.deployment.cluster
            )
            for other in group[1:]:
                o_kills = other.exp.deployment.cluster.total_be_kills
                o_susp = sum(
                    m.counters.be_suspensions
                    for m in other.exp.deployment.cluster
                )
                for mi in other.members:
                    member = self._members[mi]
                    member.kill_offset += o_kills - k_kills
                    member.susp_offset += o_susp - k_susp
                keep.members.extend(other.members)
                self.stats.merges += 1
            keep.members.sort()
        self._branches = survivors

    # -- results --------------------------------------------------------

    def _member_result(
        self,
        member: _BakeoffMember,
        branch: _BakeoffBranch,
        lc_load_mean: float,
        n_ticks: int,
    ) -> "ColocationResult":
        from repro.experiments.colocation import ColocationResult

        exp = branch.exp
        machines = dict(member.metrics)
        for pod in self._pods:
            member.metrics[pod].completed_be_throughput = (
                exp._runs[pod].pool.total_normalized_work
                / exp.config.duration_s
            )
        first = next(iter(machines.values()))
        return ColocationResult(
            service=exp.spec.name,
            duration_s=exp.config.duration_s,
            lc_load_mean=lc_load_mean,
            machines=machines,
            be_kills=exp.deployment.cluster.total_be_kills
            + member.kill_offset,
            be_suspensions=sum(
                m.counters.be_suspensions for m in exp.deployment.cluster
            )
            + member.susp_offset,
            sla_violations=first.sla_violations,
            worst_tail_ms=max(m.worst_tail_ms for m in machines.values()),
            events_fired=n_ticks,
        )


def _world_key(exp: "ColocationExperiment") -> Tuple:
    """The cheap scalar stage of :func:`_world_digest`: per-pod counts.

    Live-job count, ``total_normalized_work`` bits, spec-cycle position,
    DVFS state, NIC caps, fault-held cores/ways and free cores/ways —
    O(pods), no walk over jobs or RNG states. Branches with different
    keys can never share a digest, so only key collisions need the
    detail.

    DVFS state is the governor's *requested* frequency plus the
    hardware cap per domain. The effective frequency is their minimum,
    so it is covered; the requested one is not covered by the effective
    one: under a cap, two worlds can run at the same capped frequency
    while requesting different ones, and they part ways once the cap
    lifts.
    """
    key = []
    for pod, run in exp._runs.items():
        machine = exp.deployment.servpod(pod).machine
        pool = run.pool
        dvfs = machine.dvfs
        key.append(
            (
                pod,
                pool.active_count,
                float(pool.total_normalized_work).hex(),
                pool._counter % len(pool.specs),
                dvfs.requested(LC_DOMAIN),
                dvfs.requested(BE_DOMAIN),
                dvfs.cap(LC_DOMAIN),
                dvfs.cap(BE_DOMAIN),
                machine.nic.be_cap_gbps.hex(),
                machine.nic.link_scale.hex(),
                machine.offlined_cores,
                machine.lost_llc_ways,
                machine.cpuset.free_cores,
                machine.llc.free_ways,
            )
        )
    return tuple(key)


def _world_detail(exp: "ColocationExperiment") -> Tuple:
    """The detailed stage of :func:`_world_digest`: jobs and RNG states.

    Live jobs positionally per pod (spec, state, float progress in exact
    bits, allocation) and every RNG stream's bit-generator state.
    """
    pods_jobs = []
    for pod, run in exp._runs.items():
        machine = exp.deployment.servpod(pod).machine
        jobs = []
        for job in run.pool.jobs():
            alloc = machine.be_allocation(job.job_id)
            jobs.append(
                (
                    job.spec.name,
                    job.state.value,
                    job.normalized_work.hex(),
                    job.running_seconds.hex(),
                    None
                    if alloc is None
                    else (
                        alloc.cores,
                        alloc.llc_ways,
                        alloc.memory_gb.hex(),
                        alloc.suspended,
                    ),
                )
            )
        pods_jobs.append(tuple(jobs))
    rng = tuple(
        (name, repr(exp.streams._streams[name].bit_generator.state))
        for name in sorted(exp.streams._streams)
    )
    return (tuple(pods_jobs), rng)


def _world_digest(exp: "ColocationExperiment") -> Tuple:
    """Forward-relevant world state of one experiment, id-free.

    Two branches with equal digests evolve identically from here on, so
    they may share one world. The digest deliberately **excludes** the
    monotonic counters that merging virtualises — kill/suspension/launch
    counters, the pool's job-id counter, ``Machine.version`` — and
    compares live jobs *positionally* (spec, state, float progress in
    exact bits, allocation) rather than by id: job ids never enter
    physics or results. The spec-cycle position IS included — with a
    multi-spec BE mix it determines which spec the next launch gets.
    Everything float is compared via ``float.hex`` (bitwise).

    It is the pair ``(_world_key(exp), _world_detail(exp))``: the cheap
    per-pod scalar key first, then the job/RNG detail. The merge step
    (:meth:`BakeoffKernel._merge_groups`) computes the detail only for
    branches whose keys collide; because the key is part of the digest,
    that yields exactly the partition by full digest.
    """
    return (_world_key(exp), _world_detail(exp))
