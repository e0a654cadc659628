"""Property-based tests on core invariants.

Two generator styles live here: hypothesis strategies for the original
control-plane invariants, and hand-rolled seeded numpy generators for
the streaming-statistics layer (``repro.metrics``) — the latter so the
exact sample streams are reproducible from the parametrized seed alone,
with no example database or shrinking in the way of a bisect.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.contribution import ContributionAnalyzer, pearson
from repro.core.loadlimit import derive_loadlimit
from repro.core.slacklimit import (
    MIN_SLACKLIMIT,
    find_slacklimits_independent,
    violation_free_fixed_point,
)
from repro.core.actions import BeAction
from repro.core.top_controller import ControllerThresholds, TopController
from repro.interference.model import InterferenceModel, Pressure
from repro.interference.sensitivity import SensitivityVector
from repro.metrics.collector import MachineMetrics
from repro.metrics.percentile import percentile
from repro.metrics.streaming import WelfordAccumulator
from repro.sim.events import EventQueue
from repro.tracing.causality import CausalityMatcher
from repro.tracing.emitter import EmitterConfig, TraceEmitter, default_endpoints
from repro.tracing.sojourn import SojournExtractor
from repro.workloads.request import build_execution
from repro.workloads.spec import chain

from conftest import make_tiny_service

fast = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


# --- event queue ------------------------------------------------------------

@fast
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=60))
def test_event_queue_pops_sorted(times):
    q = EventQueue()
    for t in times:
        q.push(t, lambda _t: None)
    popped = []
    while (e := q.pop()) is not None:
        popped.append(e.time)
    assert popped == sorted(times)


# --- percentile / tail tracking ----------------------------------------------

@fast
@given(
    st.lists(st.floats(min_value=0.0, max_value=1e5), min_size=1, max_size=200),
    st.floats(min_value=0.0, max_value=100.0),
)
def test_percentile_within_range(samples, pct):
    value = percentile(samples, pct)
    assert min(samples) <= value <= max(samples)


@fast
@given(st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=100.0)),
                max_size=30))
def test_worst_tail_is_max_of_window_tails(tails):
    # A 0.0 tick is a window that drew no samples.
    metrics = MachineMetrics("m", "pod", total_cores=8.0, sla_ms=10.0)
    for t, tail in enumerate(tails):
        metrics.record_tick(
            t=float(t), dt=1.0, load=0.5, tail_ms=tail, busy_cores=2.0,
            membw_fraction=0.1, be_instances=0, be_cores=0, be_llc_ways=0,
            be_rate=0.0, action="AllowBEGrowth",
        )
    closed = tuple(tail for tail in tails if tail > 0.0)
    assert metrics.window_tails == closed
    assert metrics.worst_tail_ms == (max(closed) if closed else 0.0)


# --- contribution math --------------------------------------------------------

@fast
@given(st.lists(st.tuples(st.floats(min_value=0.1, max_value=100.0),
                          st.floats(min_value=0.1, max_value=100.0)),
                min_size=2, max_size=30))
def test_pearson_bounded(pairs):
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    r = pearson(xs, ys)
    assert -1.0 - 1e-9 <= r <= 1.0 + 1e-9


@fast
@given(
    st.lists(st.floats(min_value=0.5, max_value=50.0), min_size=3, max_size=12),
    st.lists(st.floats(min_value=0.5, max_value=50.0), min_size=3, max_size=12),
)
def test_contributions_nonnegative_and_normalizable(front, back):
    m = min(len(front), len(back))
    front, back = front[:m], back[:m]
    tails = [f + b + 1.0 for f, b in zip(front, back)]
    analyzer = ContributionAnalyzer(make_tiny_service())
    result = analyzer.analyze({"front": front, "back": back}, tails)
    values = [c.contribution for c in result.contributions.values()]
    assert all(v >= 0 for v in values)
    if sum(values) > 0:
        assert sum(result.normalized().values()) == pytest.approx(1.0)


# --- loadlimit -----------------------------------------------------------------

@fast
@given(st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=3, max_size=50))
def test_loadlimit_is_a_sweep_point(covs):
    loads = [round((i + 1) / (len(covs) + 1), 6) for i in range(len(covs))]
    limit = derive_loadlimit(loads, covs, smoothing_window=1)
    assert limit in loads


# --- slacklimit (Algorithm 1) -----------------------------------------------------

@fast
@given(st.dictionaries(
    st.sampled_from(["a", "b", "c", "d"]),
    st.floats(min_value=0.01, max_value=10.0),
    min_size=1, max_size=4,
))
def test_fixed_point_in_unit_interval(contributions):
    limits = violation_free_fixed_point(contributions)
    assert set(limits) == set(contributions)
    for value in limits.values():
        assert MIN_SLACKLIMIT <= value <= 1.0


@fast
@given(
    st.dictionaries(
        st.sampled_from(["a", "b", "c"]),
        st.floats(min_value=0.05, max_value=5.0),
        min_size=2, max_size=3,
    ),
    st.integers(min_value=0, max_value=5),
)
def test_algorithm1_result_never_below_floor(contributions, violate_after):
    calls = [0]

    def probe(cfg):
        calls[0] += 1
        return calls[0] > violate_after

    limits = find_slacklimits_independent(contributions, probe)
    for value in limits.values():
        assert MIN_SLACKLIMIT <= value <= 1.0


# --- Algorithm 2 totality -------------------------------------------------------

@fast
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=500.0),
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=0.01, max_value=1.0),
)
def test_algorithm2_total_function(load, tail, loadlimit, slacklimit):
    ctrl = TopController(
        "p", ControllerThresholds(loadlimit, slacklimit), sla_ms=100.0
    )
    action = ctrl.decide(load, tail)
    assert isinstance(action, BeAction)
    # Safety: an SLA violation always stops BE jobs.
    if tail > 100.0:
        assert action == BeAction.STOP_BE


# --- interference model ----------------------------------------------------------

@fast
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=3.0),
)
def test_slowdown_at_least_one_and_monotone_in_pressure(p_low, load, sens):
    p_high = min(1.0, p_low + 0.3)
    model = InterferenceModel()
    vector = SensitivityVector(membw=sens)
    low = model.slowdown(vector, Pressure(membw=p_low), load)
    high = model.slowdown(vector, Pressure(membw=p_high), load)
    assert 1.0 <= low <= high


# --- request execution --------------------------------------------------------

@fast
@given(st.lists(st.floats(min_value=0.01, max_value=50.0), min_size=1, max_size=6))
def test_chain_e2e_equals_sum_of_sojourns_plus_hops(sojourns):
    pods = [f"p{i}" for i in range(len(sojourns))]
    table = dict(zip(pods, sojourns))
    record = build_execution(chain(*pods), table.__getitem__, hop_ms=0.0)
    assert record.e2e_ms == pytest.approx(sum(sojourns))
    assert record.sojourn_by_servpod() == pytest.approx(table)


# --- tracer mean preservation ---------------------------------------------------

@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.booleans(), st.booleans(), st.integers(min_value=0, max_value=2**16))
def test_tracer_means_survive_any_emitter_mode(blocking, persistent, seed):
    """Mean sojourns are exact whatever the pairing ambiguity."""
    from repro.sim.rng import RandomStreams
    from repro.workloads.service import Service

    spec = make_tiny_service()
    svc = Service(spec, RandomStreams(seed % 97))
    records = svc.build_request_records(0.5, 60)
    truth = {}
    for r in records:
        for pod, s in r.sojourn_by_servpod().items():
            truth.setdefault(pod, []).append(s)
    endpoints = default_endpoints(spec.servpod_names)
    emitter = TraceEmitter(
        endpoints,
        EmitterConfig(blocking=blocking, persistent_connections=persistent,
                      noise_per_request=2.0, seed=seed),
    )
    events = emitter.emit(records)
    stats = SojournExtractor(CausalityMatcher(endpoints)).mean_only(events)
    for pod, stat in stats.items():
        assert stat.mean_ms == pytest.approx(float(np.mean(truth[pod])), rel=0.05)


# --- streaming moments (hand-rolled seeded generators) ------------------------
#
# The distributions deliberately stress the numerics: uniform (benign),
# lognormal (skewed, like latency), "tiny" (~1e-9 scale, catastrophic
# cancellation territory for naive sum-of-squares) and "huge" (~1e9
# scale with a small spread, where the two-pass formula would lose all
# precision). Welford + Chan must agree with numpy's two-pass reference
# on all of them.

_WELFORD_DISTRIBUTIONS = ("uniform", "lognormal", "tiny", "huge")


def _draw_samples(rng: np.random.Generator, distribution: str) -> np.ndarray:
    n = int(rng.integers(2, 400))
    if distribution == "uniform":
        return rng.uniform(-50.0, 50.0, size=n)
    if distribution == "lognormal":
        return rng.lognormal(mean=1.0, sigma=1.5, size=n)
    if distribution == "tiny":
        return rng.uniform(1e-9, 5e-9, size=n)
    if distribution == "huge":
        return 1e9 + rng.uniform(0.0, 10.0, size=n)
    raise AssertionError(distribution)


def _assert_matches_numpy(acc: WelfordAccumulator, arr: np.ndarray) -> None:
    assert acc.count == arr.size
    assert acc.mean == pytest.approx(float(np.mean(arr)), rel=1e-9, abs=1e-12)
    ref_var = float(np.var(arr, ddof=1)) if arr.size > 1 else 0.0
    assert acc.variance(ddof=1) == pytest.approx(ref_var, rel=1e-6, abs=1e-18)
    assert acc.std(ddof=1) == pytest.approx(math.sqrt(ref_var), rel=1e-6, abs=1e-18)


class TestWelfordProperties:
    """Welford/Chan accumulators vs numpy two-pass references."""

    @pytest.mark.parametrize("distribution", _WELFORD_DISTRIBUTIONS)
    @pytest.mark.parametrize("seed", range(6))
    def test_sequential_add_matches_numpy(self, seed, distribution):
        rng = np.random.default_rng(1000 * seed + 17)
        arr = _draw_samples(rng, distribution)
        acc = WelfordAccumulator()
        for value in arr:
            acc.add(float(value))
        _assert_matches_numpy(acc, arr)

    @pytest.mark.parametrize("distribution", _WELFORD_DISTRIBUTIONS)
    @pytest.mark.parametrize("seed", range(6))
    def test_add_many_matches_sequential(self, seed, distribution):
        rng = np.random.default_rng(2000 * seed + 29)
        arr = _draw_samples(rng, distribution)
        batched = WelfordAccumulator()
        # Random batch boundaries so the Chan combine runs at odd sizes.
        cuts = np.sort(rng.integers(0, arr.size + 1, size=int(rng.integers(0, 5))))
        for chunk in np.split(arr, cuts):
            batched.add_many(chunk)
        _assert_matches_numpy(batched, arr)

    @pytest.mark.parametrize("shards", [2, 3, 7])
    @pytest.mark.parametrize("seed", range(4))
    def test_merge_of_shards_matches_whole(self, seed, shards):
        rng = np.random.default_rng(3000 * seed + 31)
        arr = rng.lognormal(mean=0.5, sigma=1.0, size=int(rng.integers(shards, 500)))
        parts = np.array_split(arr, shards)
        accs = []
        for part in parts:
            acc = WelfordAccumulator()
            acc.add_many(part)
            accs.append(acc)
        merged = accs[0]
        for other in accs[1:]:
            merged.merge(other)
        _assert_matches_numpy(merged, arr)

    @pytest.mark.parametrize("seed", range(4))
    def test_merge_order_invariant(self, seed):
        rng = np.random.default_rng(4000 * seed + 37)
        arr = rng.uniform(0.0, 100.0, size=60)
        parts = np.array_split(arr, 4)

        def fold(order):
            acc = WelfordAccumulator()
            for i in order:
                shard = WelfordAccumulator()
                shard.add_many(parts[i])
                acc.merge(shard)
            return acc

        forward = fold([0, 1, 2, 3])
        backward = fold([3, 2, 1, 0])
        assert forward.mean == pytest.approx(backward.mean, rel=1e-12)
        assert forward.variance() == pytest.approx(backward.variance(), rel=1e-9)

    def test_degenerate_inputs(self):
        acc = WelfordAccumulator()
        acc.add_many([])  # no-op
        assert acc.count == 0 and acc.mean == 0.0 and acc.variance() == 0.0
        acc.add(3.5)
        assert acc.count == 1
        assert acc.mean == pytest.approx(3.5)
        assert acc.variance(ddof=1) == 0.0  # below ddof + 1 samples
        empty = WelfordAccumulator()
        acc.merge(empty)  # merging an empty accumulator changes nothing
        assert acc.count == 1 and acc.mean == pytest.approx(3.5)


class TestStormExpansionPurity:
    """The correlated-storm expansion is a pure function of (seed, topology).

    ``storm_schedule_probe`` canonicalises a generated topology, its
    event schedule, and the full per-instance expansion into one repr
    string; equal strings mean byte-identical schedules. The battery:
    50 seeded topologies recomputed in-process, reproduced by fork-
    started children, by spawn-started children (slow), and under
    different ``PYTHONHASHSEED`` values.
    """

    def test_fifty_seeded_topologies_fork_identical(self):
        import multiprocessing

        from tests.probes import storm_schedule_probe

        parent = [storm_schedule_probe(seed) for seed in range(50)]
        assert parent == [storm_schedule_probe(seed) for seed in range(50)]
        assert len(set(parent)) == 50, "distinct seeds must give distinct storms"
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform has no fork start method")
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(2) as pool:
            children = pool.map(storm_schedule_probe, range(50))
        assert children == parent

    @pytest.mark.slow
    def test_spawn_children_reproduce_schedules(self):
        import multiprocessing

        from tests.probes import storm_schedule_probe

        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(2) as pool:
            children = pool.map(storm_schedule_probe, range(10))
        assert children == [storm_schedule_probe(seed) for seed in range(10)]

    def test_expansion_survives_hash_randomization(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "import hashlib;"
            "from tests.probes import storm_schedule_probe;"
            "blob = ''.join(storm_schedule_probe(s) for s in range(5));"
            "print(hashlib.sha256(blob.encode()).hexdigest())"
        )
        root = Path(__file__).resolve().parent.parent
        path = os.pathsep.join([str(root / "src"), str(root)])
        outs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True,
            )
            outs.append(proc.stdout.strip())
        assert outs[0] == outs[1]

    @given(
        seed=st.integers(0, 10_000),
        n_instances=st.integers(1, 64),
        zone_size=st.integers(1, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_probe_total_for_arbitrary_shapes(self, seed, n_instances, zone_size):
        from tests.probes import storm_schedule_probe

        first = storm_schedule_probe(
            seed, n_instances=n_instances, zone_size=zone_size
        )
        again = storm_schedule_probe(
            seed, n_instances=n_instances, zone_size=zone_size
        )
        assert first == again
