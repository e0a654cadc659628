#!/usr/bin/env python3
"""Rhythm on a 30-microservice application (SNMS, §5.3.2, Figure 16).

SNMS — the DeathStarBench social network — is split into three Servpods
(frontend: 3 microservices, userservice: 14, mediaservice: 13). It ships
its own distributed tracer (jaeger), so Rhythm's request tracer is
bypassed and sojourn times come straight from application spans.

The script derives the per-Servpod thresholds and compares the solo run,
Heracles and Rhythm across a load sweep with an LSTM training job as the
best-effort workload.

Usage::

    python examples/microservices_snms.py
"""

from __future__ import annotations

from repro import ColocationConfig, compare_systems, snms_service
from repro.baselines.static import LcSoloPolicy
from repro.bejobs.catalog import LSTM
from repro.experiments.runner import run_cell
from repro.loadgen.patterns import ConstantLoad
from repro.parallel.profile import profile_service_parallel


def main() -> None:
    service = snms_service()
    print(f"Service: {service.name} — {service.domain}")
    for pod in service.servpods:
        names = ", ".join(c.name for c in pod.components[:4])
        suffix = ", ..." if len(pod.components) > 4 else ""
        print(f"  {pod.name:13s} ({len(pod.components):2d} microservices: {names}{suffix})")
    print()

    # SNMS is profiled through its built-in jaeger tracer, not the
    # kernel-event tracer (see workloads.catalog.service_profiling_mode).
    artifact = profile_service_parallel(service, workers=1)
    contributions = artifact.contribution_map()
    print("Normalized contributions (paper: user 0.565 > media 0.295 > frontend 0.14):")
    for pod, value in sorted(contributions.items(), key=lambda kv: -kv[1]):
        print(f"  {pod:13s} {value:.3f}")
    print()
    print("Thresholds:")
    for pod in service.servpod_names:
        print(f"  {pod:13s} loadlimit={artifact.loadlimit_map()[pod]:.2f} "
              f"slacklimit={artifact.slacklimit_map()[pod]:.3f}")
    print()

    config = ColocationConfig(duration_s=80.0)
    print(f"{'load':>5s} {'EMU solo':>9s} {'EMU +Heracles':>14s} {'EMU +Rhythm':>12s}")
    for load in (0.2, 0.4, 0.6, 0.85, 0.88):
        solo = run_cell(
            service, LcSoloPolicy().controllers(service), LSTM,
            ConstantLoad(load), config=config,
        )
        cmp = compare_systems(service, LSTM, load, config=config)
        print(f"{load:5.2f} {solo.emu:9.3f} {cmp.heracles.emu:14.3f} "
              f"{cmp.rhythm.emu:12.3f}")
    print()
    print("Co-location lifts EMU well above the solo run at every load. At")
    print("and above 85% load Heracles disables everything, while Rhythm's")
    print("frontend and mediaservice machines (loadlimits 0.86-0.90) keep")
    print("running batch work; on the sensitive userservice machine Rhythm")
    print("deliberately trades some mid-load throughput for SLA headroom.")


if __name__ == "__main__":
    main()
