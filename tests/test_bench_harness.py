"""The benchmark harness's timing, gate and report rules.

Every ``BENCH_*.json`` emitter runs on ``benchmarks/harness.py``; these
tests drive it with fake timed callables on a fake clock, so no
simulation runs.
"""

from __future__ import annotations

import ast
import gc
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"


@pytest.fixture
def clock():
    """A fake clock: only the fake timed callables advance it."""
    return [0.0]


@pytest.fixture
def harness(monkeypatch, clock):
    """The harness module, timing on ``clock``."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    sys.modules.pop("harness", None)
    import harness

    monkeypatch.setattr(harness, "perf_counter", lambda: clock[0])
    yield harness
    sys.modules.pop("harness", None)


def _side(clock, log, name, seconds):
    """A timed callable that logs its call and takes ``seconds[i]``."""
    durations = iter(seconds)

    def run():
        log.append(name)
        clock[0] += next(durations)
        return name

    return run


def _pairs(harness, clock, base, other):
    log = []
    pairs = harness.ab_pairs(
        _side(clock, log, "base", base),
        _side(clock, log, "other", other),
        ("base_s", "other_s"),
    )
    return pairs, log


def _fast_pairs(harness, clock, ratio):
    return _pairs(harness, clock, [ratio] * harness.PAIRS, [1.0] * harness.PAIRS)[0]


def test_ab_pairs_alternate_and_report_the_median_pair_ratio(harness, clock):
    assert harness.PAIRS == 5
    base, other = [2.0, 3.0, 4.0, 5.0, 6.0], [1.0, 6.0, 2.0, 5.0, 3.0]
    pairs, log = _pairs(harness, clock, base, other)
    assert log == ["base", "other", "other", "base", "base",
                   "other", "other", "base", "base", "other"]
    assert pairs.seconds == list(zip(base, other))
    assert pairs.results == [("base", "other")] * 5
    # Pair ratios 2, 0.5, 2, 1, 2: the median pair (2), not the ratio of
    # the sides' medians (4 / 3).
    assert pairs.ratio == 2.0
    assert pairs.report()["speedup"] == 2.0
    assert pairs.report()["base_s"] == 4.0 and pairs.report()["other_s"] == 3.0


def test_timed_pauses_the_cyclic_gc_inside_the_call(harness):
    seen = []
    harness.timed(lambda: seen.append(gc.isenabled()))
    assert seen == [False] and gc.isenabled()


def test_cold_warm_pairs_use_a_fresh_store_per_pair_in_natural_order(harness, clock):
    calls = []

    def run(store):
        calls.append((store.directory, len(list(Path(store.directory).iterdir()))))
        Path(store.directory, f"entry{len(calls)}").write_text("x")
        clock[0] += 1.0
        return len(calls)

    pairs, followed = harness.cold_warm_pairs(run, lambda store: store.directory)
    assert len(pairs.seconds) == harness.PAIRS
    assert pairs.results == [(2 * i + 1, 2 * i + 2) for i in range(harness.PAIRS)]
    # Each pair's cold run finds an empty store, its warm run the cold entry.
    assert [n for _, n in calls] == [0, 1] * harness.PAIRS
    directories = [d for d, _ in calls]
    assert len(set(directories)) == harness.PAIRS
    assert followed == directories[-1]
    assert not any(Path(d).exists() for d in directories)


def test_a_failed_check_fails_the_gate_and_exits_1(
    harness, clock, tmp_path, monkeypatch, capsys
):
    out = tmp_path / "BENCH_fake.json"

    def run_benchmark(out, gate):
        return harness.finish(
            "fake", {}, {"identical": True, "warm_zero": False},
            _fast_pairs(harness, clock, 50.0), out, gate,
        )

    monkeypatch.setattr(sys, "argv", ["bench_fake.py", "--out", str(out), "--gate", "2.0"])
    assert harness.main(run_benchmark, "Fake benchmark.", "unused.json") == 1
    report = json.loads(out.read_text())
    assert report["speedup"] == 50.0
    assert report["correct"] is False and report["gate_passed"] is False
    assert "warm_zero" in capsys.readouterr().out


def test_a_passing_run_exits_0_and_a_slow_one_exits_1(harness, clock, monkeypatch):
    for ratio, code in ((2.0, 0), (1.5, 1)):
        monkeypatch.setattr(sys, "argv", ["bench_fake.py", "--out", "", "--gate", "2.0"])
        pairs = _fast_pairs(harness, clock, ratio)
        assert harness.main(
            lambda out, gate: harness.finish("fake", {}, {"ok": True}, pairs, out, gate),
            "Fake benchmark.", "unused.json",
        ) == code


@pytest.mark.parametrize("cpus", [1, 2])
def test_only_pool_ratios_skip_the_gate_on_one_cpu(harness, clock, monkeypatch, cpus):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    slow = _fast_pairs(harness, clock, 0.5)
    pool = harness.finish("fake", {}, {"ok": True}, slow, None, 1.0, pool=True)
    single = harness.finish("fake", {}, {"ok": True}, slow, None, 1.0)
    assert pool["gate_skipped"] is (cpus == 1)
    assert pool["gate_passed"] is (cpus == 1)
    assert pool["degraded"] is True  # one CPU, or a pool slower than inline
    assert single["gate_skipped"] is False and single["gate_passed"] is False
    assert single["degraded"] is (cpus == 1)
    # A skipped gate still fails on a failed check.
    broken = harness.finish("fake", {}, {"ok": False}, slow, None, 1.0, pool=True)
    assert broken["gate_passed"] is False


def test_the_report_carries_the_environment_and_every_pair(
    harness, clock, tmp_path, monkeypatch
):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    pairs, _ = _pairs(harness, clock, [3.0, 3.0, 3.0, 3.0, 3.0], [1.0, 1.5, 1.0, 3.0, 1.0])
    out = tmp_path / "BENCH_fake.json"
    harness.finish("fake", {"workload": {"n": 1}}, {"ok": True}, pairs, str(out), 2.0)
    report = json.loads(out.read_text())
    assert report["cpu_count"] == 2 and report["degraded"] is False
    assert report["workload"] == {"n": 1}
    assert report["pairs"] == [
        {"base_s": 3.0, "other_s": b, "speedup": round(3.0 / b, 3)}
        for b in (1.0, 1.5, 1.0, 3.0, 1.0)
    ]
    assert report["speedup"] == 3.0
    assert report["checks"] == {"ok": True} and report["correct"] is True
    assert report["gate"] == 2.0 and report["gate_passed"] is True


def _gates():
    """``GATE`` of every emitter that declares one."""
    gates = {}
    for path in sorted(BENCHMARKS.glob("bench_*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "GATE" for t in node.targets
            ):
                gates[path.stem] = ast.literal_eval(node.value)
    return gates


def test_ci_runs_every_gated_emitter_at_its_gate():
    script = (ROOT / "scripts" / "ci_check.sh").read_text()
    runs = {
        name: float(gate)
        for name, gate in re.findall(
            r"^\s*python benchmarks/(\w+)\.py --gate (\S+)$", script, re.M
        )
    }
    gates = _gates()
    assert len(gates) == 7
    assert runs == gates
    for name, gate in gates.items():
        assert f"python benchmarks/{name}.py --gate {gate}\n" in script
