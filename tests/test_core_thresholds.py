"""Tests for loadlimit (Fig. 8) and slacklimit (Algorithm 1) derivation."""

from __future__ import annotations

import math

import pytest

from repro.core.loadlimit import derive_loadlimit, loadlimit_table
from repro.core.slacklimit import (
    MIN_SLACKLIMIT,
    expected_first_step,
    find_slacklimits_independent,
    violation_free_fixed_point,
)
from repro.errors import ProfilingError


def knee_cov(loads, knee, sigma0=0.3, growth=2.0):
    """CoV curve of the knee sigma model (what catalog components use)."""
    out = []
    for u in loads:
        ramp = max(0.0, (u - knee) / (1 - knee))
        sigma = sigma0 * (1 + growth * ramp**2)
        out.append(math.sqrt(math.exp(sigma**2) - 1))
    return out


LOADS = [round(0.02 * i, 2) for i in range(1, 51)]


class TestLoadlimit:
    def test_knee_placement(self):
        """Crossing lands near knee + (1-knee)^1.5/sqrt(3)."""
        for knee in (0.6, 0.76, 0.85):
            covs = knee_cov(LOADS, knee)
            limit = derive_loadlimit(LOADS, covs)
            predicted = knee + (1 - knee) ** 1.5 / math.sqrt(3)
            assert limit == pytest.approx(predicted, abs=0.06)

    def test_later_knee_later_limit(self):
        early = derive_loadlimit(LOADS, knee_cov(LOADS, 0.6))
        late = derive_loadlimit(LOADS, knee_cov(LOADS, 0.85))
        assert late > early

    def test_flat_curve_returns_last_load(self):
        covs = [0.3] * len(LOADS)
        assert derive_loadlimit(LOADS, covs) == LOADS[-1]

    def test_smoothing_suppresses_single_spike(self):
        covs = [0.3] * len(LOADS)
        covs[5] = 3.0  # one-point glitch early in the sweep
        unsmoothed = derive_loadlimit(LOADS, covs, smoothing_window=1)
        assert unsmoothed == LOADS[5]  # the glitch triggers immediately
        limit = derive_loadlimit(LOADS, covs, smoothing_window=3)
        # Smoothing spreads the spike but keeps the crossing in its
        # 3-point neighbourhood rather than propagating further.
        assert abs(LOADS.index(limit) - 5) <= 1

    def test_validation(self):
        with pytest.raises(ProfilingError):
            derive_loadlimit([0.1, 0.2], [0.1, 0.2])  # too few points
        with pytest.raises(ProfilingError):
            derive_loadlimit([0.1, 0.1, 0.2], [0.1, 0.2, 0.3])  # not increasing
        with pytest.raises(ProfilingError):
            derive_loadlimit(LOADS, [-1.0] * len(LOADS))
        with pytest.raises(ProfilingError):
            derive_loadlimit(LOADS, knee_cov(LOADS, 0.7), smoothing_window=4)

    def test_table(self):
        table = loadlimit_table(
            LOADS, {"a": knee_cov(LOADS, 0.6), "b": knee_cov(LOADS, 0.85)}
        )
        assert set(table) == {"a", "b"}
        assert table["b"] > table["a"]


class TestSlacklimitJoint:
    """Algorithm 1 over a service's contributions as a whole: the first
    step, the floor and input validation, on the per-Servpod walk."""

    def test_first_step_equals_normalized_contribution(self):
        contributions = {"a": 0.2, "b": 0.35, "c": 0.45}
        first = expected_first_step(contributions)
        assert sum(first.values()) == pytest.approx(1.0)
        assert first["b"] == pytest.approx(0.35)

    def test_small_contribution_floors_at_min(self):
        limits = find_slacklimits_independent(
            {"tiny": 0.001, "big": 0.999}, lambda cfg: False
        )
        assert limits["tiny"] == MIN_SLACKLIMIT

    def test_empty_rejected(self):
        with pytest.raises(ProfilingError):
            find_slacklimits_independent({}, lambda cfg: False)

    def test_zero_total_rejected(self):
        with pytest.raises(ProfilingError):
            find_slacklimits_independent({"a": 0.0}, lambda cfg: False)


class TestSlacklimitIndependent:
    def test_others_held_conservative(self):
        seen = []

        def probe(cfg):
            seen.append(dict(cfg))
            return False

        find_slacklimits_independent({"a": 0.3, "b": 0.7}, probe)
        for cfg in seen:
            moving = [pod for pod, v in cfg.items() if v < 1.0]
            assert len(moving) == 1

    def test_one_pod_violation_does_not_reset_others(self):
        def probe(cfg):
            return cfg.get("b", 1.0) < 1.0  # any move of b violates

        limits = find_slacklimits_independent({"a": 0.3, "b": 0.7}, probe)
        assert limits["b"] == 1.0
        assert limits["a"] < 1.0

    def test_backtracks_within_own_walk(self):
        # c=0.75 normalized alone -> steps of 0.25: 0.75, 0.5, 0.25 ...
        def probe(cfg):
            return cfg["big"] < 0.45  # 0.25 candidate violates

        limits = find_slacklimits_independent({"big": 3.0, "small": 1.0}, probe)
        assert limits["big"] == pytest.approx(0.5)

    def test_fixed_point_matches_probe_free_walk(self):
        contributions = {"a": 0.25, "b": 0.6, "c": 0.15}
        walked = find_slacklimits_independent(contributions, lambda cfg: False)
        assert walked == pytest.approx(violation_free_fixed_point(contributions))


class TestFixedPoint:
    def test_below_half_is_contribution(self):
        fp = violation_free_fixed_point({"a": 0.3, "b": 0.7})
        assert fp["a"] == pytest.approx(0.3)

    def test_above_half_wraps(self):
        fp = violation_free_fixed_point({"a": 0.3, "b": 0.7})
        # b: step 0.3 -> 0.7, 0.4, 0.1 -> last positive above floor
        assert fp["b"] == pytest.approx(0.1, abs=0.01)

    def test_dominant_pod_stays_conservative(self):
        fp = violation_free_fixed_point({"a": 1.0, "b": 0.0000001})
        assert fp["a"] == 1.0
