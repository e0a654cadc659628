"""Batched structure-of-arrays (SoA) simulation kernel.

The per-event python path (:mod:`repro.sim.engine` callbacks, per-job
dict loops in :func:`repro.bejobs.job.compute_be_rates`, per-request
closures in :mod:`repro.workloads.queueing`) tops out around a thousand
events per second on one core. This module re-expresses the same-tick
work as contiguous numpy arrays keyed by (machine, Servpod) coordinates
and drains whole ticks with vectorized operations:

- :class:`BatchedServiceSampler` compiles each request type's call
  tree once into pod-indexed tuples, builds the per-Servpod lognormal
  parameter blocks once per call and replays the walk against them,
  consuming the latency RNG stream in exactly the scalar order.
- :func:`drain_fifo_queue` replays the G/G/c FIFO event loop as a
  Lindley start-time recurrence over plain floats plus vectorized
  sojourn/wait extraction — no engine, no per-request closures.
- :class:`FleetColocationKernel` is the one non-scalar tick path. It
  runs ``ColocationExperiment`` *slots* in lockstep — one for a single
  batched run, one per instance for a fleet, one per (scenario, member)
  cell for a controller bake-off — holding one contiguous
  (machines × job-slots) array family for BE rates and progress and
  (machines,) arrays for LC usage, NIC caps, DVFS state, fault state
  and metrics, so a tick is a handful of whole-array numpy ops plus one
  python pass for the (stateful) per-machine controllers. Healthy and
  faulted slots share that one tick path.

Slots, dormancy and write-back
------------------------------
A bake-off member rides one live slot; the members of one scenario
start on its first slot, the others *dormant* (no window, no injector,
no sampling, no control). When riders' decisions differ in effect, the
pre-apply world is copied into a dormant slot of the same scenario (a
**fork**); live slots whose worlds re-converge **merge** back, the
later one turning dormant again. The kernel holds BE progress, the
requested BE frequency and the NIC caps between writes back, so before
a fork copies a world and before a merge key reads one, the slot's
state is written back (:meth:`FleetColocationKernel._write_back`, the
same steps the end of a run takes).

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

import bisect
import copy
import heapq
import math
import os
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bejobs.job import LLC_SPILL_TO_MEMBW, BeResourceSnapshot
from repro.cluster.machine import BE_DOMAIN, LC_DOMAIN, Machine
from repro.core.actions import BeAction
from repro.errors import ConfigurationError
from repro.interference.sensitivity import PRESSURE_KINDS
from repro.metrics.collector import COUNT_COLUMNS, FLOAT_COLUMNS
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
# Fleet-wide SoA: many colocation experiments in lockstep
# ---------------------------------------------------------------------------

#: Machine rows (dormant bake-off slots included) at or below which the
#: kernel runs the per-machine python tick instead of whole-array numpy:
#: under this size the fixed dispatch cost of the ~40 array ops per tick
#: outweighs the per-row python loop, and dormant rows cost the python
#: tick nothing. Both paths are bit-identical, so the threshold is purely
#: a performance constant; DESIGN.md §8 records the crossover measured.
_SMALL_FLEET_MACHINES = 32


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

    **Slots and members.** Each experiment owns one *slot* (its rows)
    and is one *member* (its controllers and metrics). A member rides
    one live slot; a slot's world (machines, pools, RNG streams, load
    generator, fault injector) is whatever experiment is bound to it.
    A fleet is the case where every member rides its own slot. With
    ``aliases`` (``aliases[i]`` is the experiment whose world
    experiment ``i`` shares at the start, ``i`` itself for a slot that
    starts live), experiments over one seeded scenario start as
    *dormant* slots whose members ride the scenario's first slot: that
    is the controller bake-off. Every tick, the members riding a slot
    decide on its observation; their action vectors are normalised
    through the slot's no-op memo (a proven no-op matches anything) and
    partitioned, and each extra partition **forks** the pre-apply world
    into a dormant slot of the same scenario and moves there. After the
    tick, live slots of one scenario whose worlds re-converged
    (:func:`_world_key`, then :func:`_world_detail` on key collisions)
    **merge**: the later slot turns dormant and its members ride the
    survivor, with their kill/suspension totals carried as exact
    integer offsets. Controllers never change RNG consumption, so every
    slot's streams stay bitwise equal to each member's solo run.

    A scenario's slots have identical static rows, so a fork or a merge
    never resizes an array: it rebinds the slot's world objects, reloads
    its rows, and flips it between live and dormant. Dormant slots draw
    no load window, advance no injector, sample no latency and run no
    control; the python passes skip them through a live-row list that
    only forks and merges rebuild. Each tick's metric columns are kept
    per slot row with the row map members rode by then (``None`` for a
    fleet); at the end every member's columns, window tails and metric
    integrals are read through those maps, in tick order.

    Fault injection is per-machine state, not a second tick path. Each
    live slot's :class:`~repro.faults.cluster.ClusterFaultInjector`
    advances on the lockstep clock, mutating its machines exactly as
    the scalar loop does. Only on ticks where it reports transitions
    does :meth:`_refresh_faults` re-read the slot's machines: the
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
      tick's rebuild, before a fork copies a world or a merge key reads
      one (:meth:`_write_back`, which also syncs the requested BE
      frequency and the NIC caps), and at finalize — never over a row
      a STOP already flushed and dirtied, whose jobs it killed. Other
      applies and fault transitions only rearrange allocations, which
      the flushed values do not depend on;
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
    - metric columns (one ``(machines,)`` array per tick) become each
      member's :class:`~repro.metrics.collector.MachineMetrics` columns,
      metric integrals and window-tail replays once, at the end of the
      run, with one gather per column.

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
        aliases: Optional[Sequence[int]] = None,
    ) -> None:
        if not experiments:
            raise ConfigurationError("fleet needs at least one experiment")
        #: Member ``i``'s own experiment: controllers, metrics, result.
        self._homes: List["ColocationExperiment"] = list(experiments)
        #: The world slot ``i`` simulates; a fork rebinds it.
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
        n_exp = len(self._exps)
        self._head: List[int] = self._check_aliases(aliases)
        self._heads: List[int] = [i for i in range(n_exp) if self._head[i] == i]
        self._inj = [exp._fault_injector for exp in self._exps]

        # -- machine-major bookkeeping (global machine index m) -------------
        # Machine *names* collide across experiments (deploy_service
        # names machines after Servpods), so every mapping here is
        # keyed by index, never by name. ``_m_home`` is the member's
        # ``MachineRun`` (controller, metrics); ``_m_pool``/``_m_mach``
        # are the slot's world objects, rebound by a fork.
        self._m_pod: List[str] = []
        self._m_i: List[int] = []
        self._m_home: List = []
        self._m_pool: List = []
        self._m_mach: List[Machine] = []
        self._inst_machines: List[List[int]] = []
        for i, exp in enumerate(self._exps):
            rows: List[int] = []
            for pod in exp._runs:
                rows.append(len(self._m_pod))
                self._m_pod.append(pod)
                self._m_i.append(i)
                self._m_home.append(exp._runs[pod])
                self._m_pool.append(exp._runs[pod].pool)
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
        self._dirty = set(range(M))
        #: Dirty rows whose progress is still only in the row state; it
        #: is written back right before the rebuild reads it.
        self._unflushed: set = set()
        self._memo: List[set] = [set() for _ in range(M)]

        # -- deferred metric state ------------------------------------------
        self._elapsed = 0.0
        self._cols: List[Tuple] = []
        #: The BE counter columns as of the last change (instances,
        #: cores, ways); ticks share it until a rebuild or an apply
        #: moves a counter.
        self._counts: Optional[Tuple] = None
        self._acts: List[List[str]] = []
        self._wins: List[Tuple[List[bool], List[float]]] = []

        # -- small-fleet python fast path -----------------------------------
        # Up to ``_SMALL_FLEET_MACHINES`` rows that start live (dormant
        # bake-off slots cost the python tick nothing), the fixed
        # dispatch cost of each whole-array numpy op outweighs the
        # elementwise work, so small fleets, bake-offs and single
        # batched runs run the same arithmetic as per-machine python
        # floats: elementwise float64 ops equal python-float ops bit for
        # bit, so both paths satisfy the same identity pin. Row state
        # (job rows, totals, counters) is always rebuilt into the python
        # twins below; the small path ticks on them, the vec path copies
        # dirty rows into its SoA columns once per tick and then owns
        # progress there. ``_freq`` (requested BE MHz), ``_lc_busy`` and
        # ``_last_net`` (this tick's LC busy cores and traffic) are
        # python lists on the small path and arrays on the vec path.
        self._small = (
            sum(len(self._inst_machines[h]) for h in self._heads)
            <= _SMALL_FLEET_MACHINES
        )
        self._freq = list(f_req) if self._small else np.asarray(f_req, dtype=np.int64)
        self._lc_busy = None
        self._last_net = None
        self._nw_py: List[List[float]] = [[] for _ in range(M)]
        self._rs_py: List[List[float]] = [[] for _ in range(M)]
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
        for i, injector in enumerate(self._inj):
            if injector is not None:
                self._refresh_faults(i)

        # -- slots: who rides where ------------------------------------------
        self._ride: List[int] = list(self._head)
        self._riders: List[List[int]] = [[] for _ in range(n_exp)]
        for c, h in enumerate(self._head):
            self._riders[h].append(c)
        #: Live slots in creation order (forks append, merges remove).
        self._live: List[int] = list(self._heads)
        #: Dormant slots per scenario head, ascending.
        self._dormant: Dict[int, List[int]] = {}
        #: Per scenario with dormant slots: the deep-copy memo of the
        #: objects every slot shares (:func:`_scenario_shared_state`).
        self._shared: Dict[int, Dict[int, object]] = {}
        for i, h in enumerate(self._head):
            if h != i:
                self._dormant.setdefault(h, []).append(i)
        for i, h in enumerate(self._head):
            if h in self._dormant:
                memo = self._shared.setdefault(h, {})
                for obj in _scenario_shared_state(self._exps[i]):
                    memo[id(obj)] = obj
        self._kill_off = [0] * n_exp
        self._susp_off = [0] * n_exp
        #: Sharing accounting: divergence forks, re-merges, and the
        #: slot-ticks actually simulated (one per live slot per tick).
        self.forks = 0
        self.merges = 0
        self.slot_ticks = 0
        self._relive()

    def _check_aliases(self, aliases: Optional[Sequence[int]]) -> List[int]:
        """Validate ``aliases`` into one scenario head per experiment.

        An aliased experiment must be the same seeded world as its head
        (same service, pattern, config and BE mix, equal world digest)
        and carry no ``action_filter``: its member rides the head's
        world, so anything else would silently simulate another run.
        """
        n = len(self._exps)
        if aliases is None:
            return list(range(n))
        heads = [int(h) for h in aliases]
        if len(heads) != n:
            raise ConfigurationError(
                f"aliases has {len(heads)} entries for {n} experiments"
            )
        for i, h in enumerate(heads):
            if not (0 <= h <= i) or heads[h] != h:
                raise ConfigurationError(
                    f"experiment {i} aliases {h}, which is not a scenario head"
                )
            if h == i:
                continue
            exp, head = self._exps[i], self._exps[h]
            if exp.action_filter is not None or head.action_filter is not None:
                raise ConfigurationError(
                    "aliased experiments do not compose with action_filter hooks"
                )
            if (
                exp.spec != head.spec
                or exp.pattern != head.pattern
                or exp.config != head.config
                or exp.be_specs != head.be_specs
                or _world_digest(exp) != _world_digest(head)
            ):
                raise ConfigurationError(
                    f"experiment {i} cannot alias experiment {h}: "
                    "their worlds differ"
                )
        return heads

    def _relive(self) -> None:
        """Recompute the live-row list and the member gathers.

        Runs at construction and after every fork or merge. ``_rowmap``
        maps each member's home row to the row it rides (``None`` while
        every member rides its own slot, as in a fleet); ``_ride_map``
        is the same per member (slot index), ``None`` alike.
        """
        rows_of = self._inst_machines
        self._live_rows = sorted(m for i in self._live for m in rows_of[i])
        self._injectors = [
            (i, self._inj[i]) for i in self._live if self._inj[i] is not None
        ]
        if all(r == c for c, r in enumerate(self._ride)):
            self._ride_map = None
            self._rowmap = None
            return
        rowmap = [0] * self._n_machines
        for c, r in enumerate(self._ride):
            for mh, mr in zip(rows_of[c], rows_of[r]):
                rowmap[mh] = mr
        # Fresh objects every time: each tick's columns keep a reference.
        self._ride_map = list(self._ride)
        self._rowmap = rowmap

    def member_world(self, c: int) -> "ColocationExperiment":
        """The world member ``c`` rides (after :meth:`run`: its final
        RNG streams and machine state)."""
        return self._exps[self._ride[c]]

    # -- SoA <-> world synchronisation --------------------------------------

    def _rebuild_row(self, m: int) -> None:
        """Reload machine ``m``'s python row state from the world objects.

        Same math and python fold order as the scalar
        :func:`~repro.bejobs.job.compute_be_rates`. Both tick paths read
        the python twins written here; the vec path then copies every
        rebuilt row into its SoA columns in one batch
        (:meth:`_upload_rows`).
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
        for job in self._m_pool[m].running():
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
        self._counts = None
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

    def _sync_hardware(self, rows: Sequence[int]) -> None:
        """Write the requested BE frequency and this tick's LC traffic
        (the NIC's BE cap) of ``rows`` back into their machines."""
        freq = self._freq
        net = self._last_net
        for m in rows:
            machine = self._m_mach[m]
            f = int(freq[m])
            if f >= self._f_max_l[m]:
                machine.dvfs.reset(BE_DOMAIN)
            else:
                machine.dvfs.set_frequency(BE_DOMAIN, f)
            if net is not None:
                machine.nic.observe_lc_traffic(float(net[m]))

    def _write_back(self, rows: Sequence[int]) -> None:
        """Make ``rows``' world objects current: BE progress, requested
        BE frequency and NIC caps, everything the SoA holds between
        writes. Rows a STOP dirtied this tick are not flushed again:
        their jobs were flushed before the kill, which floors the work
        a second flush would write back."""
        dirty = self._dirty
        unflushed = self._unflushed
        self._flush_rows([m for m in rows if m not in dirty or m in unflushed])
        self._sync_hardware(rows)

    # -- fault state ----------------------------------------------------------

    def _refresh_faults(self, i: int) -> None:
        """Re-read slot ``i``'s fault-touched machine state.

        Runs at construction and on every tick where the slot's
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
        injector = self._inj[i]
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
        self.slot_ticks += len(self._live)
        if self._small:
            tails = self._tick_small(t, dt, last)
        else:
            tails = self._tick_vec(t, dt, last)
        if len(self._live) > len(self._heads):
            self._merge_converged()
        if self._on_tick is not None:
            self._on_tick(t, tails)

    def _begin_tick(
        self, t: float, dt: float
    ) -> Tuple[List[float], List[float], List[int]]:
        """Phase 0 for every live slot: fault transitions (refreshing
        the fault state of slots that had any), the load window, then
        the rows invalidated by applies or transitions since last tick.
        Returns per-slot ``(loads, realized loads, sample counts)``."""
        for i, injector in self._injectors:
            if injector.advance(t):
                self._refresh_faults(i)
        n = len(self._exps)
        w_load: List[float] = [0.0] * n
        w_real: List[float] = [0.0] * n
        w_n: List[int] = [0] * n
        exps = self._exps
        for i in self._live:
            window = exps[i]._generator.window(t - dt, dt)
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
        """Latency sampling + window tails for every live slot.

        Per-slot RNG draws stay sequential (stream identity); the tail
        reduction groups slots by ``(n_samples, percentile)`` and runs
        one partitioned percentile per group, bitwise equal to the
        scalar per-instance ``np.percentile`` call.
        """
        n_exp = len(self._exps)
        groups: Dict[Tuple[int, float], Tuple[List[int], List[np.ndarray]]] = {}
        for i in self._live:
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
        """Phase 4: every member decides, then the memoized applies.

        ``decide`` is stateful python per member and machine; the
        applies run through the shared subcontrollers, memoized on no-op
        keys (see the class docstring). Members riding one slot whose
        normalised action vectors differ fork it (:meth:`_diverge`).
        ``snapshot_of(m)`` builds row ``m``'s final ``last_snapshot`` on
        the last tick.
        """
        acts: List[str] = [""] * self._n_machines
        moved: List[int] = []
        for i in list(self._live):
            riders = self._riders[i]
            load, tail = w_load[i], tails[i]
            if len(riders) == 1:
                actions = self._decide(
                    riders[0], i, load, tail, t, last, snapshot_of, acts
                )
            else:
                votes = [
                    self._decide(c, i, load, tail, t, last, snapshot_of, acts)
                    for c in riders
                ]
                actions = self._diverge(i, votes, moved)
            self._apply(i, actions, moved)
        if moved and not self._small:
            # Phase 5 reads post-apply core counts this tick.
            self._upload_counts(np.asarray(moved, dtype=np.intp), moved)
        self._acts.append(acts)

    def _decide(
        self,
        c: int,
        i: int,
        load: float,
        tail: float,
        t: float,
        last: bool,
        snapshot_of,
        acts: List[str],
    ) -> List[BeAction]:
        """Member ``c``'s actions on slot ``i``'s observation, per pod."""
        filt = self._homes[c].action_filter
        actions: List[BeAction] = []
        for mh, m in zip(self._inst_machines[c], self._inst_machines[i]):
            run = self._m_home[mh]
            action = run.controller.decide(load, tail, t=t)
            if filt is not None:
                action = filt(self._m_pod[mh], action)
            run.last_action = action
            acts[mh] = action.value
            if last:
                run.last_snapshot = snapshot_of(m)
            actions.append(action)
        return actions

    def _diverge(
        self, i: int, votes: List[List[BeAction]], moved: List[int]
    ) -> List[BeAction]:
        """Partition slot ``i``'s riders by memo-normalised action vector.

        A pod whose memo key is a proven no-op is a wildcard: riders
        differing only there share one world mutation. The verdict
        depends only on (pod, action, machine state), so it is resolved
        once per distinct action. The first partition keeps slot ``i``;
        every other one forks the pre-apply world into a dormant slot,
        moves there and applies its actions. Returns the actions slot
        ``i`` applies.
        """
        first = votes[0]
        if all(actions == first for actions in votes):
            return first
        rows = self._inst_machines[i]
        fkey = self._fkey
        norm: Dict[Tuple[int, BeAction], Optional[BeAction]] = {}
        partitions: Dict[Tuple, List[int]] = {}
        for k, actions in enumerate(votes):
            sig = []
            for p, action in enumerate(actions):
                verdict = norm.get((p, action), _UNRESOLVED)
                if verdict is _UNRESOLVED:
                    m = rows[p]
                    machine = self._m_mach[m]
                    key = (action, machine.version, machine.mem_version, fkey[m])
                    verdict = None if key in self._memo[m] else action
                    norm[(p, action)] = verdict
                sig.append(verdict)
            partitions.setdefault(tuple(sig), []).append(k)
        groups = list(partitions.values())
        riders = self._riders[i]
        for group in groups[1:]:
            j = self._fork(i, [riders[k] for k in group])
            self._apply(j, votes[group[0]], moved)
        return votes[groups[0][0]]

    def _apply(self, i: int, actions: List[BeAction], moved: List[int]) -> None:
        """Slot ``i``'s subcontroller applies, one per pod. A pod whose
        no-op memo key hits is skipped; a key whose apply changed
        nothing is recorded."""
        exp = self._exps[i]
        for m, action in zip(self._inst_machines[i], actions):
            machine = self._m_mach[m]
            key = (action, machine.version, machine.mem_version, self._fkey[m])
            if key in self._memo[m]:
                continue
            stop = action is BeAction.STOP_BE
            if stop:
                # Killing floors the work, so the progress lands first.
                self._flush_rows([m])
            v0 = machine.version
            mv0 = machine.mem_version
            pool = self._m_pool[m]
            exp._cpu_llc.apply(action, machine, pool)
            exp._memory.apply(action, machine, pool)
            if stop:
                # STOP reset the BE DVFS domain's requested frequency;
                # mirror it and never memoize (the key cannot witness
                # this side effect).
                self._freq[m] = self._f_max_l[m]
            if machine.version != v0:
                self._dirty.add(m)
                if not stop:
                    self._unflushed.add(m)
                self._cnt_inst_l[m] = machine.be_instance_count
                self._cnt_cores_l[m] = machine.be_total_cores
                self._cnt_ways_l[m] = machine.be_total_llc_ways
                self._counts = None
                moved.append(m)
            elif machine.mem_version == mv0 and not stop:
                self._memo[m].add(key)

    # -- forks and merges ------------------------------------------------------

    def _fork(self, src: int, riders: List[int]) -> int:
        """Move ``riders`` off live slot ``src`` onto a copy of its world
        in the scenario's lowest dormant slot, which turns live; returns
        that slot. Runs mid-tick, before either slot applies actions.

        ``src`` is written back first, so the deep copy sees current
        progress, requested frequency and NIC caps. The copy is seeded
        with a memo mapping every object the scenario's slots share to
        itself (:func:`_scenario_shared_state`), so only the mutable
        world is duplicated. The new slot's rows are then reloaded from
        the copy, and the kernel-side state no world object holds — the
        no-op memo, fault terms, requested frequency and this tick's LC
        load — is copied row for row.
        """
        dst = self._dormant[self._head[src]].pop(0)
        rows_s = self._inst_machines[src]
        rows_d = self._inst_machines[dst]
        self._write_back(rows_s)
        clone = copy.deepcopy(self._exps[src], dict(self._shared[self._head[src]]))
        self._exps[dst] = clone
        self._inj[dst] = clone._fault_injector
        self._samplers[dst] = BatchedServiceSampler(clone.service)
        per_row = (
            self._freq,
            self._lc_busy,
            self._last_net,
            self._fault_m,
            self._fcap,
            self._fcap_l,
            self._lc_r3,
            self._lc_r3_l,
            self._link_nic,
            self._link_nic_l,
            self._fkey,
        )
        for ms, md in zip(rows_s, rows_d):
            self._dirty.discard(md)
            self._unflushed.discard(md)
            pod = self._m_pod[md]
            self._m_pool[md] = clone._runs[pod].pool
            self._m_mach[md] = clone.deployment.servpod(pod).machine
            for column in per_row:
                column[md] = column[ms]
            self._memo[md] = set(self._memo[ms])
            self._rebuild_row(md)
        if not self._small:
            self._upload_rows(rows_d)
        moving = set(riders)
        self._riders[src] = [c for c in self._riders[src] if c not in moving]
        self._riders[dst] = list(riders)
        for c in riders:
            self._ride[c] = dst
        self._live.append(dst)
        self._relive()
        self.forks += 1
        return dst

    def _merge_groups(self, slots: List[int]) -> List[List[int]]:
        """Live ``slots`` (one scenario, written back) grouped by equal
        :func:`_world_digest`.

        Two stages: every slot gets the cheap scalar :func:`_world_key`,
        and only slots whose keys collide pay for the detailed part
        (:func:`_world_detail`). The key is a projection of the digest,
        so equal digests imply equal keys: grouping by
        ``(key, detail-or-None)`` is exactly the grouping by full
        digest. Groups and their slots keep first-seen order.
        """
        keys = [_world_key(self._exps[i]) for i in slots]
        counts: Dict[Tuple, int] = {}
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
        groups: Dict[Tuple, List[int]] = {}
        for i, key in zip(slots, keys):
            detail = _world_detail(self._exps[i]) if counts[key] > 1 else None
            groups.setdefault((key, detail), []).append(i)
        return list(groups.values())

    def _merge_converged(self) -> None:
        """Retire live slots whose world re-converged with an earlier
        live slot of the same scenario; their riders move over."""
        by_head: Dict[int, List[int]] = {}
        for i in self._live:
            by_head.setdefault(self._head[i], []).append(i)
        merged = False
        for slots in by_head.values():
            if len(slots) < 2:
                continue
            for i in slots:
                self._write_back(self._inst_machines[i])
            for group in self._merge_groups(slots):
                keep = group[0]
                k_kills, k_susp = _kill_counts(self._exps[keep])
                for other in group[1:]:
                    o_kills, o_susp = _kill_counts(self._exps[other])
                    for c in self._riders[other]:
                        self._kill_off[c] += o_kills - k_kills
                        self._susp_off[c] += o_susp - k_susp
                        self._ride[c] = keep
                    self._riders[keep].extend(self._riders[other])
                    self._riders[other] = []
                    self._live.remove(other)
                    bisect.insort(self._dormant[self._head[other]], other)
                    for mk, mo in zip(
                        self._inst_machines[keep], self._inst_machines[other]
                    ):
                        self._dirty.discard(mo)
                        self._unflushed.discard(mo)
                        self._adopt_memo(mk, mo)
                    self.merges += 1
                    merged = True
                self._riders[keep].sort()
        if merged:
            self._relive()

    def _adopt_memo(self, mk: int, mo: int) -> None:
        """Teach survivor row ``mk`` the no-ops retired row ``mo`` proved
        in its current machine state.

        The two worlds merged, so their current states are equal in
        every forward-relevant respect; an apply that changed nothing in
        one changes nothing in the other. Only entries keyed at ``mo``'s
        current ``(version, mem_version, fault-held capacity)`` describe
        that state; they are re-keyed at ``mk``'s. Other entries describe
        a history the survivor did not share and are dropped.
        """
        src = self._m_mach[mo]
        dst = self._m_mach[mk]
        now = (src.version, src.mem_version, self._fkey[mo])
        memo = self._memo[mk]
        for action, version, mem_version, fkey in self._memo[mo]:
            if (version, mem_version, fkey) == now:
                memo.add((action, dst.version, dst.mem_version, self._fkey[mk]))

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
        freq_l = self._freq

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
        for m in self._live_rows:
            real = w_real[m_i[m]]
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
            freq = freq_l[m]
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
            busy_tot_l[m] = lc_busy + self._busy_be_l[m]
            membw_tot = lc_membw + snap_membw
            if membw_tot > 1.0:
                membw_tot = 1.0
            membw_tot_l[m] = membw_tot
        self._elapsed += dt

        # Phase 2: latency sampling (shared with the vectorized path).
        closed, tails = self._sample_tails(w_real, w_n, slow_l, infl_l)

        # Deferred metrics: python columns per slot row (loads and tails
        # per slot), with the row map members rode by this tick;
        # counters as of before the applies, like the scalar
        # record_tick.
        if self._counts is None:
            self._counts = (
                list(self._cnt_inst_l),
                list(self._cnt_cores_l),
                list(self._cnt_ways_l),
            )
        self._cols.append(
            (
                t,
                dt,
                self._rowmap,
                w_load,
                tails,
                busy_tot_l,
                membw_tot_l,
                rate_tot_l,
            )
            + self._counts
        )
        self._wins.append((closed, tails, self._ride_map))

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

        self._lc_busy = lc_busy_l
        self._last_net = lc_net_l
        self._control(t, last, w_load, tails, snapshot_of)

        # Phase 5: frequency subcontroller per machine (post-apply BE
        # core counts, python pow cube — same table the vec path uses).
        # Steps start from the effective (capped) frequency, like
        # ``DvfsGovernor.step_down``/``step_up``.
        r3_cache = self._r3_cache
        for m in self._live_rows:
            f = freq_l[m]
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
                freq_l[m] = max(self._f_min_l[m], f - self._f_step_l[m])
            elif power < self._lo_l[m]:
                freq_l[m] = min(mx, f + self._f_step_l[m])
        return tails

    def _tick_vec(
        self,
        t: float,
        dt: float,
        last: bool,
    ) -> List[float]:
        """Whole-array tick (large fleets); returns the tails.

        Array phases run over every row, dormant slots included (their
        rows hold finite stale state nothing reads back); the python
        passes run over live rows only.
        """
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

        # Phase 1c: Leontief rates, the scalar per-job min-chain order.
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
        for m in self._live_rows:
            slow_l[m], infl_l[m] = slowdown(
                m, p_cpu_l[m], p_llc_l[m], membw_l[m], net_l[m], real_l[m], lc_net
            )

        # Phase 2: latency sampling per slot (per-slot RNG), tails
        # reduced per (n_samples, percentile) group in one
        # partitioned-percentile call — bitwise equal per row.
        closed, tails = self._sample_tails(w_real, w_n, slow_l, infl_l)

        # Phase 3: BE progress, in place (elementwise == python floats).
        self._nw += dt * rate
        self._rs += dt * self._valid

        # Deferred metrics: keep the columns (with the row map members
        # rode by this tick); integrate and gather them at end of run.
        # Counter columns are as of *before* this tick's applies, like
        # the scalar record_tick.
        self._elapsed += dt
        if self._counts is None:
            self._counts = (
                self._cnt_inst.copy(),
                self._cnt_cores.copy(),
                self._cnt_ways.copy(),
            )
        self._cols.append(
            (
                t,
                dt,
                self._rowmap,
                w_load,
                tails,
                lc_busy + self._busy_be,
                np.minimum(1.0, lc_membw + snap_membw),
                rate_total,
            )
            + self._counts
        )
        self._wins.append((closed, tails, self._ride_map))

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

        self._lc_busy = lc_busy
        self._last_net = lc_net
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
            self._lc_busy * self._lc_r3 + self._cnt_cores * r3
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
        """Run every member to completion; results in input order."""
        times = self._tick_times()
        n_ticks = len(times)
        lsum = [0.0] * len(self._exps)
        heads = self._heads
        homes = self._homes
        for k, t in enumerate(times):
            self.tick(t, self._period_s, last=(k == n_ticks - 1))
            for h in heads:
                lsum[h] += min(1.0, max(0.0, homes[h].pattern.load_at(t)))
        self._finalize()
        return [
            home._result(
                lsum[self._head[c]] / max(1, n_ticks),
                events_fired=n_ticks,
                world=self._exps[self._ride[c]],
                kill_offset=self._kill_off[c],
                susp_offset=self._susp_off[c],
            )
            for c, home in enumerate(homes)
        ]

    def _finalize(self) -> None:
        """Write the live slots back and fold every member's metrics.

        Each tick's columns are per slot row (loads and tails per slot),
        with the row map members rode by then (``None`` in a fleet):
        :meth:`_finalize_columns` turns them into every member's
        columns and metric integrals, and the window tails replay into
        each member's tail tracker.
        """
        self._write_back(self._live_rows)
        self._finalize_columns()
        wins = self._wins
        for c, rows in enumerate(self._inst_machines):
            slots = [c if ride is None else ride[c] for _, _, ride in wins]
            window_tails = [
                tails[i] for (closed, tails, _), i in zip(wins, slots) if closed[i]
            ]
            for m in rows:
                self._m_home[m].metrics.tail.record_window_tails(window_tails)

    def _finalize_columns(self) -> None:
        """Gather every member machine's per-tick columns and integrals.

        The per-tick columns stack into ``(ticks, rows)`` blocks (python
        lists on the small path, arrays on the vec path: float64 either
        way), and one gather per column reads each member machine's
        series: a plain stack in a fleet, a ``take_along_axis`` through
        the per-tick row maps in a bake-off. The derived series (slack,
        CPU utilisation) are the scalar ``record_tick`` expressions,
        elementwise. Each member's float and count columns are one
        ``(columns, ticks)`` slice of a fleet-wide ``(machines, columns,
        ticks)`` block. The metric integrals add the same products in
        tick order starting from 0.0, the scalar accumulation operand
        for operand.
        """
        cols, self._cols = self._cols, []
        if not cols:
            return
        M = self._n_machines
        t, dt, rowmaps, w_load, tails, busy, membw, rate, ci, cc, cw = zip(*cols)
        slot_of = self._m_i_arr
        if all(rm is None for rm in rowmaps):

            def rows(x) -> np.ndarray:
                return np.asarray(x)

            def slots(x) -> np.ndarray:
                return np.asarray(x)[:, slot_of]

        else:
            ident = list(range(M))
            rowmap = np.asarray(
                [ident if rm is None else rm for rm in rowmaps], dtype=np.intp
            )
            slot_map = slot_of[rowmap]

            def rows(x) -> np.ndarray:
                return np.take_along_axis(np.asarray(x), rowmap, axis=1)

            def slots(x) -> np.ndarray:
                return np.take_along_axis(np.asarray(x), slot_map, axis=1)

        load = slots(w_load)
        tail = slots(tails)
        busy_m = rows(busy)
        membw_m = rows(membw)
        rate_m = rows(rate)
        sla = self._sla_arr
        cores = self._cores_farr
        series = {
            "t": np.asarray(t)[:, None],
            "load": load,
            "slack": (sla - tail) / sla,
            "tail_ms": tail,
            "cpu_utilisation": np.minimum(1.0, busy_m / cores),
            "membw_utilisation": membw_m,
            "be_rate": rate_m,
            "be_instances": rows(ci),
            "be_cores": rows(cc),
            "be_llc_ways": rows(cw),
        }
        n_ticks = len(t)
        floats = np.empty((M, len(FLOAT_COLUMNS), n_ticks))
        for c, name in enumerate(FLOAT_COLUMNS):
            floats[:, c] = series[name].T
        counts = np.empty((M, len(COUNT_COLUMNS), n_ticks), dtype=np.int64)
        for c, name in enumerate(COUNT_COLUMNS):
            counts[:, c] = series[name].T
        actions = list(zip(*self._acts))
        for m in range(M):
            self._m_home[m].metrics.set_columns(floats[m], counts[m], actions[m])

        dt_col = np.asarray(dt)[:, None]
        lc_l, be_l, cpu_l, mb_l = (
            np.add.accumulate(
                np.concatenate((np.zeros((1, M)), x * dt_col)), axis=0
            )[-1].tolist()
            for x in (
                load,
                rate_m,
                np.minimum(busy_m, cores),
                np.minimum(membw_m, 1.0),
            )
        )
        elapsed = self._elapsed
        for m in range(M):
            metrics = self._m_home[m].metrics
            emu = metrics.emu
            emu._lc_integral = lc_l[m]
            emu._be_integral = be_l[m]
            emu._elapsed = elapsed
            util = metrics.utilisation
            util._cpu_integral = cpu_l[m]
            util._membw_integral = mb_l[m]
            util._elapsed = elapsed


def _kill_counts(exp: "ColocationExperiment") -> Tuple[int, int]:
    """A world's (BE kills, BE suspensions) totals."""
    cluster = exp.deployment.cluster
    return (
        cluster.total_be_kills,
        sum(m.counters.be_suspensions for m in cluster),
    )


#: Distinct-from-everything marker for the memo-normalisation lookup
#: (``None`` is a real verdict there, so ``dict.get`` needs a third state).
_UNRESOLVED = object()


def _scenario_shared_state(exp: "ColocationExperiment") -> List[object]:
    """The scenario objects every slot of one scenario may share.

    A fork must duplicate exactly the state a slot can *mutate*:
    machine/cluster state, BE pools and job records, RNG streams, the
    load generator, the fault injector. Everything else about the
    scenario is decision-independent and read-only for the whole run,
    so every slot holds the very same objects: the frozen specs
    (service, Servpod and component specs with their sensitivity
    vectors, machine specs, power models, BE job specs), the load
    pattern, the config (and its fault schedule), the stateless
    subcontrollers, and the experiment's own controllers and
    ``MachineRun.metrics`` (the kernel consults only *members'*
    controllers and metrics, never a world's). Sharing these turns the
    fork deep-copy into a copy-on-write snapshot of just the mutable
    world; the ``divergent`` block of ``bench_bakeoff.py`` records what
    one fork costs on a roster that forks and re-merges every few
    ticks.
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


def _world_key(exp: "ColocationExperiment") -> Tuple:
    """The cheap scalar stage of :func:`_world_digest`: per-pod counts.

    Live-job count, ``total_normalized_work`` bits, spec-cycle position,
    DVFS state, NIC caps, fault-held cores/ways and free cores/ways —
    O(pods), no walk over jobs or RNG states. Worlds with different
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

    Two slots with equal digests evolve identically from here on, so
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
    (:meth:`FleetColocationKernel._merge_groups`) computes the detail
    only for slots whose keys collide; because the key is part of the digest,
    that yields exactly the partition by full digest.
    """
    return (_world_key(exp), _world_detail(exp))
