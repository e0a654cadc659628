"""Integration tests: the full Rhythm pipeline end-to-end.

These use the real catalogued services (calibrated) but short runs, and
assert the paper's *qualitative* claims rather than absolute numbers.
"""

from __future__ import annotations

import pytest

from repro.bejobs.catalog import STREAM_DRAM, WORDCOUNT
from repro.experiments.colocation import ColocationConfig
from repro.experiments.runner import compare_systems
from repro.loadgen.clarknet import clarknet_production_load
from repro.parallel.profile import clear_profile_memo, profile_service_parallel
from repro.workloads.catalog import ecommerce_service, redis_service
from repro.workloads.microservices import snms_service

FAST = ColocationConfig(duration_s=60.0, sample_cap=300, min_samples=60)


@pytest.fixture(scope="module")
def ecom():
    return ecommerce_service()


@pytest.fixture(scope="module", autouse=True)
def _fresh_cache():
    clear_profile_memo()
    yield
    clear_profile_memo()


def _artifact(service, probe_slacklimits=True):
    return profile_service_parallel(
        service, probe_slacklimits=probe_slacklimits, workers=1
    )


class TestDerivedThresholds:
    def test_loadlimits_match_paper_targets(self, ecom):
        """Figure 8: MySQL ~0.76, Tomcat ~0.87."""
        limits = _artifact(ecom, probe_slacklimits=False).loadlimit_map()
        assert limits["mysql"] == pytest.approx(0.76, abs=0.05)
        assert limits["tomcat"] == pytest.approx(0.87, abs=0.05)
        assert limits["mysql"] < limits["tomcat"]

    def test_redis_slave_loadlimit(self):
        """Paper §5.2.1: Slave loadlimit ~0.91."""
        artifact = _artifact(redis_service(), probe_slacklimits=False)
        assert artifact.loadlimit_map()["slave"] == pytest.approx(0.91, abs=0.05)

    def test_mysql_contributes_most(self, ecom):
        normalized = _artifact(ecom, probe_slacklimits=False).contribution_map()
        assert normalized["mysql"] == max(normalized.values())
        assert normalized["mysql"] > normalized["tomcat"] > normalized["haproxy"]

    def test_slacklimit_ordering(self, ecom):
        """MySQL (highest contribution) gets the most conservative gate."""
        limits = _artifact(ecom).slacklimit_map()
        assert limits["mysql"] > limits["tomcat"]
        assert limits["tomcat"] > limits["haproxy"]

    def test_snms_contribution_ordering(self):
        """Paper §5.3.2: userservice > mediaservice > frontend."""
        normalized = _artifact(
            snms_service(), probe_slacklimits=False
        ).contribution_map()
        assert (
            normalized["userservice"]
            > normalized["mediaservice"]
            > normalized["frontend"]
        )


class TestSystemComparison:
    def test_heracles_zero_at_85_rhythm_not(self, ecom):
        """Figures 9-11's 85% column."""
        cmp = compare_systems(ecom, STREAM_DRAM, 0.85, config=FAST)
        assert cmp.heracles.be_throughput == 0.0
        assert cmp.rhythm.be_throughput > 0.05

    def test_rhythm_at_least_matches_heracles_mid_load(self, ecom):
        cmp = compare_systems(ecom, STREAM_DRAM, 0.45, config=FAST)
        assert cmp.rhythm.be_throughput >= cmp.heracles.be_throughput - 0.02

    def test_no_rhythm_violations_constant_load(self, ecom):
        for load in (0.25, 0.65, 0.85):
            cmp = compare_systems(ecom, STREAM_DRAM, load, config=FAST)
            assert cmp.rhythm.sla_violations == 0

    def test_emu_exceeds_lc_alone(self, ecom):
        cmp = compare_systems(ecom, WORDCOUNT, 0.45, config=FAST)
        assert cmp.rhythm.emu > 0.45


class TestProductionSafety:
    def test_rhythm_guards_sla_under_production_load(self, ecom):
        """Figure 15d: no violations, worst tail below the SLA."""
        pattern = clarknet_production_load(duration_s=300.0, days=1)
        controllers = _artifact(ecom).controllers()
        from repro.experiments.runner import run_cell

        result = run_cell(
            ecom, controllers, STREAM_DRAM, pattern,
            config=ColocationConfig(duration_s=300.0),
        )
        assert result.sla_violations == 0
        assert result.worst_tail_ms <= ecom.sla_ms
        assert result.be_kills == 0
        assert result.be_throughput > 0.1  # and it actually co-located


class TestTracerProfilingAgreement:
    def test_tracer_and_direct_profiling_agree(self, ecom):
        """The non-intrusive tracer reproduces the generative truth."""
        from repro.core.profiler import ServiceProfiler
        from repro.sim.rng import RandomStreams

        loads = (0.2, 0.5, 0.8)
        direct = ServiceProfiler(
            ecom, RandomStreams(3), loads=loads, requests_per_load=250,
            tail_samples=500, mode="direct",
        ).profile()
        traced = ServiceProfiler(
            ecom, RandomStreams(3), loads=loads, requests_per_load=250,
            tail_samples=500, mode="tracer",
        ).profile()
        for pod in ecom.servpod_names:
            for j in range(len(loads)):
                assert traced.mean_sojourns[pod][j] == pytest.approx(
                    direct.mean_sojourns[pod][j], rel=0.25
                )
