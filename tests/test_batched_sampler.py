"""The compiled latency sampler against the scalar call-tree walk.

:class:`~repro.sim.kernel.BatchedServiceSampler` compiles each request
type's call tree once and takes per-Servpod slowdown and inflation
lists in servpod order. Every catalogued service and SNMS must sample
byte-identical latencies to ``Service.sample_e2e`` under the matching
``ServiceState`` and leave the latency stream in the same state. The
services cover every walk shape: single- and multi-component Servpods,
a one-child fan-out (Redis), sequential and parallel multi-child nodes
(Elgg, SNMS), one request type and a weighted split over two (Elgg,
SNMS), and a servpod order that differs from the call order (SNMS).
"""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigurationError
from repro.sim.kernel import BatchedServiceSampler
from repro.sim.rng import RandomStreams
from repro.workloads.catalog import LC_CATALOG, lc_service_spec
from repro.workloads.microservices import snms_service
from repro.workloads.service import Service, ServiceState

SERVICES = list(LC_CATALOG) + ["SNMS"]
LOADS = (0.0, 0.3, 0.62, 0.85, 1.0, 1.02)


@pytest.fixture(scope="module")
def specs():
    found = {name: lc_service_spec(name) for name in LC_CATALOG}
    found["SNMS"] = snms_service()
    return found


def _state(stream_owner: Service):
    name = f"service:{stream_owner.spec.name}:latency"
    return stream_owner.streams.stream(name).bit_generator.state


@pytest.mark.parametrize("n", [50, 400])
@pytest.mark.parametrize("name", SERVICES)
def test_matches_scalar_walk(specs, name, n):
    spec = specs[name]
    pods = spec.servpod_names
    scalar = Service(spec, RandomStreams(17))
    batched = Service(spec, RandomStreams(17))
    sampler = BatchedServiceSampler(batched)
    rng = random.Random(SERVICES.index(name) * 1000 + n)
    for load in LOADS:
        for _ in range(3):
            # Some pods interference-free (exactly 1.0), some slowed.
            slowdowns = [rng.choice([1.0, 1.0 + 2.0 * rng.random()]) for _ in pods]
            inflations = [rng.choice([1.0, 1.0 + rng.random()]) for _ in pods]
            state = ServiceState(dict(zip(pods, slowdowns)), dict(zip(pods, inflations)))
            expected = scalar.sample_e2e(load, n, state)
            got = sampler.sample_e2e(load, n, slowdowns, inflations)
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()
            assert _state(batched) == _state(scalar)


@pytest.mark.parametrize(
    "load, slowdown, inflation, match",
    [
        (0.5, 0.99, 1.0, "slowdown"),
        (0.5, 1.0, 0.99, "inflation"),
        (1.03, 1.0, 1.0, "load"),
        (-0.01, 1.0, 1.0, "load"),
    ],
)
def test_rejects_invalid_inputs_before_drawing(specs, load, slowdown, inflation, match):
    service = Service(specs["Elgg"], RandomStreams(3))
    sampler = BatchedServiceSampler(service)
    before = _state(service)
    slowdowns = [1.2, slowdown, 1.0]
    inflations = [1.1, inflation, 1.0]
    with pytest.raises(ConfigurationError, match=match):
        sampler.sample_e2e(load, 50, slowdowns, inflations)
    assert _state(service) == before
