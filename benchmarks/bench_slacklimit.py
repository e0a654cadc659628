"""Algorithm 1 — per-Servpod slacklimit derivation (§3.5.1)."""

from __future__ import annotations

from repro.experiments.report import render_table
from repro.parallel.profile import clear_profile_memo, profile_service_parallel
from repro.workloads.catalog import ecommerce_service, redis_service

from conftest import run_once


def _derive():
    clear_profile_memo()
    ecom = profile_service_parallel(ecommerce_service(), workers=1)
    redis = profile_service_parallel(redis_service(), workers=1)
    return ecom, redis


def test_slacklimit_algorithm1(benchmark):
    ecom, redis = run_once(benchmark, _derive)

    ecom_limits = ecom.slacklimit_map()
    redis_limits = redis.slacklimit_map()
    paper = {"haproxy": 0.032, "tomcat": 0.078, "amoeba": 0.04, "mysql": 0.347}
    print()
    print(render_table(
        ["Servpod", "slacklimit", "paper"],
        [[pod, round(v, 3), paper.get(pod, "-")] for pod, v in ecom_limits.items()],
        title="Algorithm 1 — E-commerce slacklimits (probe-driven)",
    ))
    print(render_table(
        ["Servpod", "slacklimit"],
        [[pod, round(v, 3)] for pod, v in redis_limits.items()],
        title="Algorithm 1 — Redis slacklimits",
    ))

    # Ordering matches the paper: MySQL (most sensitive) gets the most
    # conservative gate; HAProxy/Amoeba the most aggressive ones.
    assert ecom_limits["mysql"] > ecom_limits["tomcat"]
    assert ecom_limits["tomcat"] > ecom_limits["haproxy"]
    assert ecom_limits["tomcat"] > ecom_limits["amoeba"]
    # Redis: Master (sensitive) above Slave.
    assert redis_limits["master"] > redis_limits["slave"]
    # All limits live in the valid band.
    for limits in (ecom_limits, redis_limits):
        assert all(0.01 <= v <= 1.0 for v in limits.values())
