"""Tests for resource vectors, cpusets, LLC partitioning, DVFS and NIC."""

from __future__ import annotations

import random

import pytest

from repro.cluster.cache import LastLevelCache
from repro.cluster.cgroups import CpuSet
from repro.cluster.dvfs import DvfsGovernor, PowerModel
from repro.cluster.network import Nic
from repro.cluster.resources import ResourceVector
from repro.errors import AllocationError, ConfigurationError, ReleaseError


class TestResourceVector:
    def test_zero(self):
        assert ResourceVector.zero().is_zero()

    def test_rejects_negative(self):
        with pytest.raises(AllocationError):
            ResourceVector(cores=-1.0)

    def test_add(self):
        v = ResourceVector(cores=2, llc_mb=4) + ResourceVector(cores=1, membw_gbps=3)
        assert v.cores == 3 and v.llc_mb == 4 and v.membw_gbps == 3

    def test_sub_underflow_raises(self):
        with pytest.raises(AllocationError):
            ResourceVector(cores=1) - ResourceVector(cores=2)

    def test_scaled(self):
        v = ResourceVector(cores=4, memory_gb=8).scaled(0.5)
        assert v.cores == 2 and v.memory_gb == 4

    def test_scaled_rejects_negative_factor(self):
        with pytest.raises(AllocationError):
            ResourceVector(cores=1).scaled(-1)

    def test_fits_within(self):
        small = ResourceVector(cores=2, llc_mb=5)
        big = ResourceVector(cores=4, llc_mb=10, membw_gbps=1)
        assert small.fits_within(big)
        assert not big.fits_within(small)

    def test_fractions_of(self):
        usage = ResourceVector(cores=10, membw_gbps=40)
        cap = ResourceVector(cores=40, membw_gbps=80)
        fractions = usage.fractions_of(cap)
        assert fractions["cores"] == pytest.approx(0.25)
        assert fractions["membw_gbps"] == pytest.approx(0.5)
        assert fractions["netbw_gbps"] == 0.0  # zero capacity -> 0 usage


class TestCpuSet:
    def test_allocate_and_release(self):
        cpus = CpuSet(8)
        granted = cpus.allocate("lc", 4)
        assert len(granted) == 4
        assert cpus.free_cores == 4
        cpus.release("lc", 2)
        assert cpus.count("lc") == 2
        assert cpus.free_cores == 6

    def test_deterministic_lowest_first(self):
        cpus = CpuSet(8)
        assert cpus.allocate("a", 2) == frozenset({0, 1})
        assert cpus.allocate("b", 2) == frozenset({2, 3})

    def test_exhaustion_raises(self):
        cpus = CpuSet(4)
        cpus.allocate("a", 3)
        with pytest.raises(AllocationError):
            cpus.allocate("b", 2)

    def test_over_release_raises(self):
        cpus = CpuSet(4)
        cpus.allocate("a", 2)
        with pytest.raises(ReleaseError):
            cpus.release("a", 3)

    def test_release_all(self):
        cpus = CpuSet(4)
        cpus.allocate("a", 3)
        assert cpus.release_all("a") == 3
        assert cpus.free_cores == 4
        assert "a" not in cpus.owners()

    def test_disjoint_ownership(self):
        cpus = CpuSet(8)
        a = cpus.allocate("a", 3)
        b = cpus.allocate("b", 3)
        assert not (a & b)

    def test_zero_core_machine_rejected(self):
        with pytest.raises(AllocationError):
            CpuSet(0)

    @pytest.mark.parametrize("seed", range(5))
    def test_grants_match_the_sorted_form(self, seed):
        """allocate/release pick the core ids that sorting the free or
        owned set would pick, on random fragmented sets."""
        rng = random.Random(seed)
        cpus = CpuSet(40)
        owners = ["lc", "a", "b", "c"]
        for _ in range(400):
            owner = rng.choice(owners)
            owned = cpus.owned_by(owner)
            if cpus.free_cores and (not owned or rng.random() < 0.5):
                n = rng.randint(1, min(3, cpus.free_cores))
                want = set(sorted(cpus._free)[:n])
                assert cpus.allocate(owner, n) == want
            elif owned:
                n = rng.randint(1, min(3, len(owned)))
                want = set(sorted(owned, reverse=True)[:n])
                cpus.release(owner, n)
                assert owned - cpus.owned_by(owner) == want
        assert cpus.free_cores + sum(cpus.count(o) for o in owners) == 40

class TestLastLevelCache:
    def test_defaults_match_paper_hardware(self):
        llc = LastLevelCache()
        assert llc.size_mb == 20.0
        assert llc.n_ways == 20
        assert llc.mb_per_way == 1.0

    def test_step_is_ten_percent(self):
        assert LastLevelCache().step_ways() == 2  # 10% of 20 ways

    def test_allocate_release_cycle(self):
        llc = LastLevelCache()
        llc.allocate("lc", 10)
        llc.allocate("be", 4)
        assert llc.free_ways == 6
        assert llc.fraction_of("be") == pytest.approx(0.2)
        llc.release("be", 2)
        assert llc.ways_of("be") == 2
        assert llc.release_all("be") == 2

    def test_exhaustion_raises(self):
        llc = LastLevelCache()
        llc.allocate("lc", 18)
        with pytest.raises(AllocationError):
            llc.allocate("be", 3)

    def test_over_release_raises(self):
        llc = LastLevelCache()
        llc.allocate("x", 2)
        with pytest.raises(ReleaseError):
            llc.release("x", 3)

    def test_mb_of(self):
        llc = LastLevelCache(size_mb=40, n_ways=20)
        llc.allocate("lc", 5)
        assert llc.mb_of("lc") == pytest.approx(10.0)


class TestDvfs:
    def test_domains_start_at_max(self):
        gov = DvfsGovernor()
        assert gov.frequency("be") == 2000
        assert gov.ratio("be") == 1.0

    def test_step_down_100mhz(self):
        gov = DvfsGovernor()
        assert gov.step_down("be") == 1900
        assert gov.step_down("be") == 1800

    def test_clamped_at_min(self):
        gov = DvfsGovernor(min_mhz=1800, max_mhz=2000)
        gov.step_down("be")
        gov.step_down("be")
        assert gov.step_down("be") == 1800

    def test_step_up_clamped_at_max(self):
        gov = DvfsGovernor()
        gov.step_down("be")
        assert gov.step_up("be") == 2000
        assert gov.step_up("be") == 2000

    def test_reset(self):
        gov = DvfsGovernor()
        gov.step_down("be")
        gov.reset("be")
        assert gov.frequency("be") == 2000

    def test_set_frequency_validates_range(self):
        gov = DvfsGovernor()
        with pytest.raises(ConfigurationError):
            gov.set_frequency("be", 900)

    def test_step_must_divide_range(self):
        with pytest.raises(ConfigurationError):
            DvfsGovernor(min_mhz=1200, max_mhz=2000, step_mhz=300)


class TestPowerModel:
    def test_idle_power(self):
        model = PowerModel()
        assert model.power(0, 1.0, 0, 1.0) == pytest.approx(model.idle_watts)

    def test_power_grows_with_busy_cores(self):
        model = PowerModel()
        low = model.power(10, 1.0, 0, 1.0)
        high = model.power(30, 1.0, 0, 1.0)
        assert high > low

    def test_cubic_frequency_scaling(self):
        model = PowerModel(idle_watts=0.0, active_watts_per_core=1.0)
        full = model.power(10, 1.0, 0, 1.0)
        half = model.power(10, 0.5, 0, 1.0)
        assert half == pytest.approx(full * 0.125)

    def test_headroom_sign(self):
        model = PowerModel(tdp_watts=100.0)
        assert model.headroom(70.0) > 0
        assert model.headroom(90.0) < 0


class TestNic:
    def test_be_cap_formula(self):
        nic = Nic(link_gbps=10.0)
        cap = nic.observe_lc_traffic(5.0)
        assert cap == pytest.approx(10.0 - 1.2 * 5.0)

    def test_cap_floors_at_zero(self):
        nic = Nic(link_gbps=10.0)
        assert nic.observe_lc_traffic(9.5) == 0.0

    def test_be_share_respects_cap(self):
        nic = Nic(link_gbps=10.0)
        nic.observe_lc_traffic(5.0)
        assert nic.be_share(100.0) == pytest.approx(4.0)
        assert nic.be_share(1.0) == pytest.approx(1.0)

    def test_lc_pressure(self):
        nic = Nic(link_gbps=10.0)
        nic.observe_lc_traffic(0.0)
        assert nic.lc_pressure(5.0) == pytest.approx(0.5)

    def test_guard_factor_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            Nic(lc_guard_factor=0.9)

    def test_negative_traffic_rejected(self):
        with pytest.raises(ConfigurationError):
            Nic().observe_lc_traffic(-1.0)
