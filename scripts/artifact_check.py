#!/usr/bin/env python3
"""Artifact check: validate the paper's key claims in one run.

Runs a condensed version of every headline experiment and prints a
PASS/FAIL line per claim — the quick sanity pass an artifact evaluator
would do before reproducing individual figures. Takes 2-4 minutes.

Usage::

    python scripts/artifact_check.py
"""

from __future__ import annotations

import sys
import time
from typing import Callable, List, Tuple

import numpy as np


def check(claims: List[Tuple[str, Callable[[], bool]]]) -> int:
    failures = 0
    for label, predicate in claims:
        start = time.time()
        try:
            ok = predicate()
        except Exception as exc:  # pragma: no cover - surfaced to the user
            ok = False
            label = f"{label}  ({type(exc).__name__}: {exc})"
        status = "PASS" if ok else "FAIL"
        failures += 0 if ok else 1
        print(f"[{status}] {label}  ({time.time() - start:.1f}s)")
    return failures


def main() -> int:
    from repro.bejobs.catalog import STREAM_DRAM, STREAM_LLC, WORDCOUNT
    from repro.experiments.colocation import ColocationConfig
    from repro.experiments.figures.figure2 import increase_matrix, run_figure2
    from repro.experiments.figures.figure15 import run_figure15
    from repro.experiments.figures.figure18 import run_figure18
    from repro.experiments.runner import compare_systems
    from repro.parallel.profile import clear_profile_memo, profile_service_parallel
    from repro.workloads.catalog import ecommerce_service, redis_service
    from repro.workloads.microservices import snms_service

    clear_profile_memo()
    ecom = ecommerce_service()
    state = {}

    def claim_fig2() -> bool:
        rows = run_figure2(services=[redis_service()], samples=2500)
        redis = increase_matrix(rows, "Redis")
        ratio = redis["master"]["stream_llc(big)"] / max(
            redis["slave"]["stream_llc(big)"], 1e-9
        )
        print(f"       Master/Slave stream-llc(big) gap: {ratio:.0f}x (paper: >28x)")
        return ratio > 20

    def claim_loadlimits() -> bool:
        artifact = profile_service_parallel(ecom, workers=1)
        state["artifact"] = artifact
        limits = artifact.loadlimit_map()
        print(f"       MySQL {limits['mysql']:.2f} (paper 0.76), "
              f"Tomcat {limits['tomcat']:.2f} (paper 0.87)")
        return abs(limits["mysql"] - 0.76) <= 0.05 and abs(limits["tomcat"] - 0.87) <= 0.05

    def claim_slacklimit_order() -> bool:
        limits = state["artifact"].slacklimit_map()
        print(f"       mysql {limits['mysql']:.3f} > tomcat {limits['tomcat']:.3f} "
              f"> haproxy {limits['haproxy']:.3f}")
        return limits["mysql"] > limits["tomcat"] > limits["haproxy"]

    def claim_85_percent() -> bool:
        cmp = compare_systems(
            ecom, STREAM_DRAM, 0.85, config=ColocationConfig(duration_s=80.0)
        )
        print(f"       Heracles BE={cmp.heracles.be_throughput:.3f}, "
              f"Rhythm BE={cmp.rhythm.be_throughput:.3f}")
        return cmp.heracles.be_throughput == 0.0 and cmp.rhythm.be_throughput > 0.05

    def claim_production_safety() -> bool:
        rows = run_figure15(
            services=["E-commerce", "Redis"],
            be_specs=[STREAM_DRAM, STREAM_LLC, WORDCOUNT],
        )
        worst = max(r.worst_p99_over_sla for r in rows)
        violations = sum(r.rhythm_violations for r in rows)
        emu = float(np.mean([r.emu_improvement for r in rows]))
        print(f"       worst p99/SLA={worst:.3f} (paper 0.99), violations={violations}, "
              f"mean EMU gain {emu:+.1%}")
        return worst <= 1.0 and violations == 0 and emu > 0

    def claim_table2() -> bool:
        rows = run_figure18()
        derived = [r for r in rows if r.level == 1.0]
        detuned = [r for r in rows if r.varied == "loadlimit" and r.level > 1.0]
        ok_derived = all(r.sla_violations == 0 for r in derived)
        ok_detuned = sum(r.sla_violations for r in detuned) > 0
        print(f"       derived thresholds: {sum(r.sla_violations for r in derived)} "
              f"violations; over-raised loadlimit: "
              f"{sum(r.sla_violations for r in detuned)} violations")
        return ok_derived and ok_detuned

    def claim_snms() -> bool:
        n = profile_service_parallel(snms_service(), workers=1).contribution_map()
        print(f"       user {n['userservice']:.2f} > media {n['mediaservice']:.2f} "
              f"> frontend {n['frontend']:.2f}")
        return n["userservice"] > n["mediaservice"] > n["frontend"]

    failures = check([
        ("Fig. 2a: Redis Master >> Slave under LLC pressure", claim_fig2),
        ("Fig. 8: loadlimits MySQL~0.76, Tomcat~0.87", claim_loadlimits),
        ("Alg. 1: slacklimit ordering mysql > tomcat > haproxy", claim_slacklimit_order),
        ("Figs. 9-11: Heracles zero at 85% load, Rhythm co-locates", claim_85_percent),
        ("Fig. 15d: production SLA never violated, EMU improves", claim_production_safety),
        ("Tab. 2: derived thresholds safe, over-raised loadlimit unsafe", claim_table2),
        ("§5.3.2: SNMS contributions user > media > frontend", claim_snms),
    ])
    print()
    if failures:
        print(f"{failures} claim(s) FAILED")
        return 1
    print("All claims reproduced.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
