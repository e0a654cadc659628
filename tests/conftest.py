"""Shared fixtures: a small synthetic LC service for fast unit tests.

The catalogued services calibrate themselves against their SLAs at
construction, which costs a few thousand lognormal draws; unit tests that
only need *a* service use this hand-rolled two/three-Servpod spec instead.
"""

from __future__ import annotations

import pytest

from repro.interference.sensitivity import SensitivityVector
from repro.parallel.profile import clear_profile_memo
from repro.sim.rng import RandomStreams
from repro.workloads.spec import (
    CallNode,
    ComponentSpec,
    RequestType,
    ServiceSpec,
    ServpodSpec,
    chain,
)


def make_tiny_service(
    name: str = "tiny",
    sla_ms: float = 100.0,
    max_load_qps: float = 500.0,
) -> ServiceSpec:
    """A fast two-Servpod chain service (frontend -> backend)."""
    frontend = ComponentSpec(
        name="front",
        base_ms=2.0,
        sigma0=0.20,
        lin_growth=0.4,
        sat_growth=0.1,
        sigma_growth=2.0,
        cov_knee=0.8,
        sensitivity=SensitivityVector(cpu=0.2, llc=0.3, membw=0.4, net=0.8, freq=0.5),
        cores=4,
        peak_core_util=0.5,
        peak_membw_fraction=0.05,
        peak_net_gbps=1.0,
        llc_fraction=0.1,
    )
    backend = ComponentSpec(
        name="back",
        base_ms=8.0,
        sigma0=0.35,
        lin_growth=0.5,
        sat_growth=0.8,
        sigma_growth=2.0,
        cov_knee=0.6,
        sensitivity=SensitivityVector(cpu=0.5, llc=1.5, membw=1.8, net=0.5, freq=0.4),
        cores=8,
        peak_core_util=0.6,
        peak_membw_fraction=0.2,
        peak_net_gbps=0.5,
        llc_fraction=0.3,
    )
    return ServiceSpec(
        name=name,
        domain="synthetic test service",
        servpods=(
            ServpodSpec("front", (frontend,), llc_ways=4, memory_gb=8.0),
            ServpodSpec("back", (backend,), llc_ways=8, memory_gb=16.0),
        ),
        request_types=(
            RequestType(name="get", weight=1.0, root=chain("front", "back")),
        ),
        max_load_qps=max_load_qps,
        sla_ms=sla_ms,
    )


def make_fanout_service() -> ServiceSpec:
    """A three-Servpod service with a parallel fan-out (for Eq. 5 tests)."""
    def comp(name: str, base: float) -> ComponentSpec:
        return ComponentSpec(name=name, base_ms=base, cores=4)

    return ServiceSpec(
        name="fanny",
        domain="synthetic fan-out service",
        servpods=(
            ServpodSpec("root", (comp("root-c", 2.0),), llc_ways=4, memory_gb=8.0),
            ServpodSpec("long", (comp("long-c", 10.0),), llc_ways=4, memory_gb=8.0),
            ServpodSpec("short", (comp("short-c", 1.0),), llc_ways=4, memory_gb=8.0),
        ),
        request_types=(
            RequestType(
                name="scatter",
                weight=1.0,
                root=CallNode(
                    servpod="root",
                    children=(CallNode("long"), CallNode("short")),
                    parallel=True,
                ),
            ),
        ),
        max_load_qps=300.0,
        sla_ms=80.0,
    )


@pytest.fixture
def tiny_service() -> ServiceSpec:
    """The two-Servpod chain service."""
    return make_tiny_service()


@pytest.fixture
def fanout_service() -> ServiceSpec:
    """The three-Servpod fan-out service."""
    return make_fanout_service()


@pytest.fixture
def streams() -> RandomStreams:
    """Deterministic random streams."""
    return RandomStreams(42)


@pytest.fixture
def fresh_profile_memo():
    """An empty in-process profile memo around one test.

    The memo is module state shared by every test in the process, so a
    test that asserts profiling counts (a "cold" run that simulates, a
    warm one that does not) must not see an earlier test's artifacts.
    Opt-in: clearing before every test makes the whole suite re-profile.
    The fixture's value is ``clear_profile_memo``; call it to empty the
    memo again mid-test, as a second process would start.
    """
    clear_profile_memo()
    yield clear_profile_memo
    clear_profile_memo()
