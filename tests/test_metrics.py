"""Tests for percentiles, EMU and the metric collector."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.metrics.collector import MachineMetrics
from repro.metrics.emu import EmuAccumulator, UtilisationAccumulator
from repro.metrics.percentile import WindowedTailTracker, percentile


class TestPercentile:
    def test_matches_numpy(self):
        data = list(np.random.default_rng(0).random(500))
        assert percentile(data, 99.0) == pytest.approx(np.percentile(data, 99.0))

    def test_empty_raises(self):
        with pytest.raises(ConfigurationError):
            percentile([], 50.0)

    def test_bounds(self):
        with pytest.raises(ConfigurationError):
            percentile([1.0], 101.0)


class TestWindowedTail:
    def test_per_window_tails(self):
        t = WindowedTailTracker(pct=50.0)
        t.add_samples([1.0, 2.0, 3.0])
        assert t.roll_window() == pytest.approx(2.0)
        t.add_samples([10.0, 20.0, 30.0])
        assert t.roll_window() == pytest.approx(20.0)
        assert t.worst_tail == pytest.approx(20.0)
        assert t.current_tail == pytest.approx(20.0)
        assert t.window_tails == pytest.approx([2.0, 20.0])

    def test_empty_window_returns_none(self):
        t = WindowedTailTracker()
        assert t.roll_window() is None

    def test_violation_count(self):
        t = WindowedTailTracker(pct=50.0)
        for values in ([1.0], [5.0], [2.0]):
            t.add_samples(values)
            t.roll_window()
        assert t.violation_count(sla=3.0) == 1


class TestEmu:
    def test_emu_is_lc_plus_be(self):
        acc = EmuAccumulator()
        acc.observe(10.0, lc_load=0.6, be_rate=0.5)
        acc.observe(10.0, lc_load=0.8, be_rate=0.3)
        assert acc.lc_throughput == pytest.approx(0.7)
        assert acc.be_throughput == pytest.approx(0.4)
        assert acc.emu == pytest.approx(1.1)  # can exceed 1 (paper §5.1)

    def test_negative_rejected(self):
        acc = EmuAccumulator()
        with pytest.raises(ConfigurationError):
            acc.observe(1.0, -0.1, 0.0)

    def test_empty_is_zero(self):
        assert EmuAccumulator().emu == 0.0


class TestUtilisation:
    def test_cpu_utilisation(self):
        acc = UtilisationAccumulator(total_cores=40)
        acc.observe(10.0, busy_cores=20.0, membw_fraction=0.5)
        assert acc.cpu_utilisation == pytest.approx(0.5)
        assert acc.membw_utilisation == pytest.approx(0.5)

    def test_clamped_at_capacity(self):
        acc = UtilisationAccumulator(total_cores=40)
        acc.observe(10.0, busy_cores=100.0, membw_fraction=2.0)
        assert acc.cpu_utilisation == 1.0
        assert acc.membw_utilisation == 1.0


class TestMachineMetrics:
    def _metrics(self) -> MachineMetrics:
        return MachineMetrics(
            machine_name="m0", servpod="pod", total_cores=40.0, sla_ms=100.0
        )

    def _tick(self, m: MachineMetrics, t: float, tail: float, be_rate: float = 0.2):
        m.record_tick(
            t=t, dt=2.0, load=0.5, tail_ms=tail, busy_cores=20.0,
            membw_fraction=0.4, be_instances=2, be_cores=4, be_llc_ways=4,
            be_rate=be_rate, action="AllowBEGrowth",
        )

    def test_slack_computed(self):
        m = self._metrics()
        self._tick(m, 2.0, tail=75.0)
        assert m.samples[0].slack == pytest.approx(0.25)

    def test_sla_violations_counted(self):
        m = self._metrics()
        self._tick(m, 2.0, tail=90.0)
        self._tick(m, 4.0, tail=120.0)
        assert m.sla_violations == 1

    def test_averages(self):
        m = self._metrics()
        self._tick(m, 2.0, tail=50.0, be_rate=0.4)
        self._tick(m, 4.0, tail=50.0, be_rate=0.2)
        assert m.avg_be_throughput == pytest.approx(0.3)
        assert m.avg_emu == pytest.approx(0.5 + 0.3)
        assert m.avg_cpu_utilisation == pytest.approx(0.5)

    def test_completed_override(self):
        m = self._metrics()
        self._tick(m, 2.0, tail=50.0, be_rate=0.4)
        m.completed_be_throughput = 0.1
        assert m.avg_be_throughput == 0.1
