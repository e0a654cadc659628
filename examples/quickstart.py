#!/usr/bin/env python3
"""Quickstart: derive Rhythm's thresholds for a service and co-locate.

Runs the whole §3 pipeline on the E-commerce website from Table 1:

1. profile the solo run (request tracer),
2. analyze per-Servpod tail-latency contributions (Eq. 1-5),
3. derive loadlimit (Fig. 8 rule) and slacklimit (Algorithm 1),
4. co-locate with a DRAM-hungry batch job under 65% load and compare
   against the Heracles baseline.

Usage::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    ColocationConfig,
    compare_systems,
    lc_service_spec,
)
from repro.bejobs.catalog import STREAM_DRAM
from repro.parallel.profile import profile_service_parallel


def main() -> None:
    service = lc_service_spec("E-commerce")
    print(f"Service: {service.name} ({service.domain})")
    print(f"  Servpods : {', '.join(service.servpod_names)}")
    print(f"  MaxLoad  : {service.max_load_qps:g} QPS")
    print(f"  SLA      : p{service.tail_percentile:g} <= {service.sla_ms:g} ms")
    print()

    # Stages 1-3: profile once, derive per-Servpod thresholds. The
    # profiled artifact is memoized per process (compare_systems below
    # reuses it) and its slacklimits come from Algorithm 1 run against a
    # production-load SLA probe with mixed BE jobs (the paper's
    # methodology).
    artifact = profile_service_parallel(service, workers=1)
    contributions = artifact.contribution_map()
    loadlimits = artifact.loadlimit_map()
    slacklimits = artifact.slacklimit_map()

    print("Derived per-Servpod thresholds (the paper's core artifact):")
    print(f"  {'Servpod':10s} {'contribution':>13s} {'loadlimit':>10s} {'slacklimit':>11s}")
    for pod in service.servpod_names:
        print(
            f"  {pod:10s} {contributions[pod]:13.3f} "
            f"{loadlimits[pod]:10.2f} {slacklimits[pod]:11.3f}"
        )
    print()
    print("Reading: MySQL contributes most to tail latency, so its machine")
    print("gets the earliest loadlimit and the most conservative slacklimit;")
    print("HAProxy/Amoeba barely matter, so BE jobs grow there aggressively.")
    print()

    # Stage 4: run the co-location and compare with Heracles across loads.
    print("Co-locating stream-dram for 120 s per load level:")
    print(f"  {'load':>5s} {'Rhythm BE':>10s} {'Rhythm EMU':>11s} "
          f"{'Heracles BE':>12s} {'Heracles EMU':>13s} {'EMU gain':>9s}")
    for load in (0.45, 0.65, 0.85):
        cmp = compare_systems(
            service, STREAM_DRAM, load, config=ColocationConfig(duration_s=120.0)
        )
        print(
            f"  {load:5.2f} {cmp.rhythm.be_throughput:10.3f} "
            f"{cmp.rhythm.emu:11.3f} {cmp.heracles.be_throughput:12.3f} "
            f"{cmp.heracles.emu:13.3f} {cmp.emu_improvement:+9.1%}"
        )
    print()
    print("At low and mid loads both systems fill the spare capacity; at 85%")
    print("Heracles disables co-location entirely (uniform 0.85 loadlimit)")
    print("while Rhythm keeps BE jobs running on every machine whose own")
    print("loadlimit lies above the current load.")


if __name__ == "__main__":
    main()
