"""Figure 16 — Rhythm on microservices (SNMS, §5.3.2)."""

from __future__ import annotations

from repro.experiments.figures.figure16 import (
    average_rhythm_gain_over_heracles,
    run_figure16,
)
from repro.experiments.report import render_table
from repro.parallel.profile import profile_service_parallel
from repro.workloads.microservices import snms_service

from conftest import run_once


def test_figure16_microservices(benchmark):
    rows = run_once(benchmark, run_figure16)

    print()
    print(render_table(
        ["BE", "load", "EMU solo", "EMU +Heracles", "EMU +Rhythm"],
        [[r.be_job, r.load, round(r.emu_solo, 3), round(r.emu_heracles, 3),
          round(r.emu_rhythm, 3)] for r in rows],
        title="Figure 16 — SNMS stacked EMU (solo / Heracles / Rhythm)",
    ))
    for metric in ("emu", "cpu", "membw"):
        gain = average_rhythm_gain_over_heracles(rows, metric)
        print(f"avg Rhythm-over-Heracles {metric} gain: {gain:+.2%}")

    # Co-location always beats the solo run; Rhythm at least matches
    # Heracles on EMU on average (paper: +14.3%).
    for r in rows:
        assert r.emu_heracles >= r.emu_solo - 1e-9
        assert r.emu_rhythm >= r.emu_solo - 1e-9
    assert average_rhythm_gain_over_heracles(rows, "emu") > 0.0

    # SNMS profiles via its built-in jaeger tracer, and its contributions
    # order as the paper reports: userservice > mediaservice > frontend.
    normalized = profile_service_parallel(
        snms_service(), workers=1
    ).contribution_map()
    assert (
        normalized["userservice"]
        > normalized["mediaservice"]
        > normalized["frontend"]
    )
