#!/usr/bin/env python3
"""Multi-tenant LC co-location — the paper's §7 future work, implemented.

Packs the E-commerce website and Redis onto four shared machines
(instead of six), co-locates Wordcount batch jobs on top, and shows that
the generalised per-machine controller — "the harshest resident decision
wins" — keeps both tenants' SLAs while batch work still makes progress.

Usage::

    python examples/multi_tenant.py
"""

from __future__ import annotations

from repro.bejobs.catalog import WORDCOUNT
from repro.experiments.colocation import ColocationConfig
from repro.experiments.multilc import MultiLcExperiment, pair_servpods
from repro.loadgen.clarknet import clarknet_production_load
from repro.parallel.profile import profile_service_parallel
from repro.sim.rng import RandomStreams
from repro.workloads.catalog import ecommerce_service, redis_service


def main() -> None:
    ecom = ecommerce_service()
    redis = redis_service()

    placements = pair_servpods([ecom, redis])
    print("Packing two tenants onto shared machines:")
    for placement in placements:
        residents = " + ".join(f"{s}/{p}" for s, p in placement.residents)
        print(f"  {placement.machine}: {residents}")
    single_tenant = len(ecom.servpods) + len(redis.servpods)
    print(f"  -> {len(placements)} machines instead of {single_tenant}")
    print()

    controllers = {
        ecom.name: profile_service_parallel(ecom, workers=1).controllers(),
        redis.name: profile_service_parallel(redis, workers=1).controllers(),
    }
    duration = 400.0
    experiment = MultiLcExperiment(
        [ecom, redis],
        controllers,
        [WORDCOUNT],
        {
            ecom.name: clarknet_production_load(duration_s=duration, days=1, seed=5),
            redis.name: clarknet_production_load(duration_s=duration, days=1, seed=9),
        },
        RandomStreams(0),
        ColocationConfig(duration_s=duration),
    )
    result = experiment.run()

    print(f"A production day on {result.machine_count} shared machines:")
    for name, tenant in result.tenants.items():
        spec = ecom if name == ecom.name else redis
        print(
            f"  {name:11s} mean load={tenant.lc_load_mean:.2f}  "
            f"worst p99/SLA={tenant.worst_tail_ms / spec.sla_ms:.2f}  "
            f"SLA violations={tenant.sla_violations}"
        )
    print(f"  BE throughput per machine: {result.be_throughput:.3f}")
    print(f"  aggregate EMU: {result.emu:.3f}")
    print()
    print("Both tenants' SLAs survive on two fewer machines, with batch jobs")
    print("still finishing work — the direction the paper's §7 points at.")


if __name__ == "__main__":
    main()
