"""Tests for the ablation studies and the multi-LC extension."""

from __future__ import annotations

import pytest

from repro.bejobs.catalog import CPU_STRESS, WORDCOUNT
from repro.core.top_controller import ControllerThresholds, TopController
from repro.errors import ExperimentError
from repro.experiments.ablations import uniform_rhythm_controllers
from repro.experiments.colocation import ColocationConfig
from repro.experiments.multilc import (
    MultiLcExperiment,
    _combine_pressures,
    pair_servpods,
)
from repro.interference.model import Pressure
from repro.loadgen.patterns import ConstantLoad
from repro.sim.rng import RandomStreams

from conftest import make_fanout_service, make_tiny_service

FAST = ColocationConfig(duration_s=40.0, sample_cap=200, min_samples=50)


def permissive(spec):
    return {
        pod: TopController(
            pod, ControllerThresholds(loadlimit=0.9, slacklimit=0.05), spec.sla_ms
        )
        for pod in spec.servpod_names
    }


class TestPairServpods:
    def test_equal_sizes_pair_fully(self):
        a = make_tiny_service("a")
        b = make_tiny_service("b")
        placements = pair_servpods([a, b])
        assert len(placements) == 2
        assert all(len(p.residents) == 2 for p in placements)

    def test_uneven_sizes_tail_runs_solo(self):
        a = make_fanout_service()  # 3 pods
        b = make_tiny_service("b")  # 2 pods
        placements = pair_servpods([a, b])
        assert len(placements) == 3
        assert len(placements[0].residents) == 2
        assert len(placements[2].residents) == 1

    def test_three_tenants_rejected(self):
        with pytest.raises(ExperimentError):
            pair_servpods([make_tiny_service("a"), make_tiny_service("b"),
                           make_tiny_service("c")])


class TestCombinePressures:
    def test_additive(self):
        p = _combine_pressures(Pressure(membw=0.3), Pressure(membw=0.2, llc=0.1))
        assert p.membw == pytest.approx(0.5)
        assert p.llc == pytest.approx(0.1)

    def test_capped_at_one(self):
        p = _combine_pressures(Pressure(membw=0.8), Pressure(membw=0.7))
        assert p.membw == 1.0


class TestMultiLcExperiment:
    def _experiment(self, load_a=0.4, load_b=0.4, **kw):
        a = make_tiny_service("svc-a", sla_ms=150.0)
        b = make_tiny_service("svc-b", sla_ms=150.0)
        controllers = {a.name: permissive(a), b.name: permissive(b)}
        return MultiLcExperiment(
            [a, b], controllers, [CPU_STRESS],
            {a.name: ConstantLoad(load_a), b.name: ConstantLoad(load_b)},
            RandomStreams(1), FAST, **kw,
        )

    def test_runs_both_tenants(self):
        result = self._experiment().run()
        assert set(result.tenants) == {"svc-a", "svc-b"}
        assert result.machine_count == 2  # 2+2 pods paired onto 2 machines
        for tenant in result.tenants.values():
            assert tenant.lc_load_mean == pytest.approx(0.4, abs=0.02)
            assert tenant.worst_tail_ms > 0

    def test_be_jobs_make_progress(self):
        result = self._experiment().run()
        assert result.be_throughput > 0
        assert result.emu > 0.4

    def test_deterministic(self):
        a = self._experiment().run()
        b = self._experiment().run()
        assert a.be_throughput == b.be_throughput
        assert a.tenants["svc-a"].worst_tail_ms == b.tenants["svc-a"].worst_tail_ms

    def test_harshest_decision_protects_busier_tenant(self):
        """When one tenant runs over its loadlimit, its SuspendBE wins
        even though the other tenant would allow growth."""
        a = make_tiny_service("svc-a", sla_ms=400.0)
        b = make_tiny_service("svc-b", sla_ms=400.0)
        controllers = {
            a.name: permissive(a),
            b.name: {
                pod: TopController(
                    pod, ControllerThresholds(loadlimit=0.5, slacklimit=0.05),
                    b.sla_ms,
                )
                for pod in b.servpod_names
            },
        }
        experiment = MultiLcExperiment(
            [a, b], controllers, [CPU_STRESS],
            {a.name: ConstantLoad(0.2), b.name: ConstantLoad(0.8)},
            RandomStreams(1), FAST,
        )
        result = experiment.run()
        # Tenant b's load (0.8) exceeds its loadlimit (0.5) -> SuspendBE
        # dominates everywhere -> no BE progress at all.
        assert result.be_throughput == 0.0

    def test_missing_pattern_rejected(self):
        a = make_tiny_service("svc-a")
        b = make_tiny_service("svc-b")
        with pytest.raises(ExperimentError):
            MultiLcExperiment(
                [a, b],
                {a.name: permissive(a), b.name: permissive(b)},
                [CPU_STRESS],
                {a.name: ConstantLoad(0.4)},  # b missing
                RandomStreams(1), FAST,
            )

    def test_three_services_rejected(self):
        a, b, c = (make_tiny_service(n) for n in ("a", "b", "c"))
        with pytest.raises(ExperimentError):
            MultiLcExperiment(
                [a, b, c], {}, [CPU_STRESS], {}, RandomStreams(1), FAST
            )

    def test_cross_tenant_interference_visible(self):
        """A heavy neighbour raises a tenant's tail vs running lighter."""
        light = self._experiment(load_a=0.3, load_b=0.1).run()
        heavy = self._experiment(load_a=0.3, load_b=0.9).run()
        assert (
            heavy.tenants["svc-a"].worst_tail_ms
            > light.tenants["svc-a"].worst_tail_ms
        )


class TestUniformRhythmAblation:
    def test_uniform_twin_uses_worst_case_thresholds(self):
        from repro.parallel.profile import clear_profile_memo, profile_service_parallel
        from repro.workloads.catalog import ecommerce_service

        clear_profile_memo()
        spec = ecommerce_service()
        artifact = profile_service_parallel(spec, workers=1)
        uniform = uniform_rhythm_controllers(spec)
        min_load = min(artifact.loadlimit_map().values())
        max_slack = max(artifact.slacklimit_map().values())
        for ctrl in uniform.values():
            assert ctrl.thresholds.loadlimit == min_load
            assert ctrl.thresholds.slacklimit == max_slack
