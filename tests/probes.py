"""Identity probes the fork/spawn tests run in child processes.

Each probe is a module-level function, so a spawn-started child imports
it by reference (``tests.probes.<name>``) and returns a digest or a
canonical repr; equal strings across parent and children mean
bit-identical runs. Importing this module needs the repository root on
``sys.path`` (as under ``python -m pytest``) and ``src`` for ``repro``.
"""

from __future__ import annotations

import hashlib

from repro.errors import ExperimentError
from repro.experiments.bakeoff import (
    BakeoffConfig,
    bakeoff_scenario_grid,
    heracles_member,
    interference_member,
    predictive_member,
    run_bakeoff,
    run_member_reference,
)
from repro.experiments.fleet import FleetConfig, alibaba_fleet
from repro.experiments.scenarios import storm_fleet
from repro.faults.topology import CorrelatedFaultSchedule, FleetTopology


def storm_identity_probe(
    mode: str = "fleet",
    n_instances: int = 6,
    duration_s: float = 60.0,
    seed: int = 3,
    storm_seed: int = 7,
    shards: int = 1,
) -> str:
    """Digest of a small stormed fleet under ``mode``.

    Module-level and importable by reference (spawn-safe), mirroring
    :func:`~repro.experiments.fleet.fleet_identity_probe`: identity
    tests run it in fork- and spawn-started children and across shard
    counts, and equal digests mean the stormed fleet is bit-identical
    to the sequential scalar reference.
    """
    if mode not in ("fleet", "reference"):
        raise ExperimentError(
            f"mode must be 'fleet' or 'reference', got {mode!r}"
        )
    config = FleetConfig(
        duration_s=duration_s, shards=shards, workers=1, zone_size=2
    )
    fleet = alibaba_fleet(
        2 * n_instances,
        policy="heracles",
        duration_s=duration_s,
        seed=seed,
        config=config,
    )
    topology = FleetTopology.generate(
        storm_seed, n_instances=len(fleet.instances), zone_size=2
    )
    storm = CorrelatedFaultSchedule.generate(
        storm_seed, topology, duration_s, events_per_minute=2.0
    )
    stormed = storm_fleet(fleet, storm)
    result = stormed.run() if mode == "fleet" else stormed.run_reference()
    return result.digest


def storm_schedule_probe(
    seed: int = 0,
    n_instances: int = 32,
    zone_size: int = 4,
    duration_s: float = 300.0,
    events_per_minute: float = 1.0,
) -> str:
    """Canonical repr of a generated storm and its full expansion.

    Importable by reference so the property tests can assert the
    expansion is a pure function of ``(seed, topology)`` across fork-
    and spawn-started processes: equal strings mean byte-identical
    topology, events, and per-instance fault streams.
    """
    topology = FleetTopology.generate(
        seed, n_instances=n_instances, zone_size=zone_size
    )
    storm = CorrelatedFaultSchedule.generate(
        seed, topology, duration_s, events_per_minute=events_per_minute
    )
    expansion = sorted(storm.per_instance_schedules().items())
    return repr((topology, storm.events, expansion))


def bakeoff_identity_probe(
    mode: str = "bakeoff",
    duration_s: float = 60.0,
    seed: int = 3,
    with_faults: bool = False,
) -> str:
    """Digest of a small three-member bake-off under ``mode``.

    Importable by reference (spawn-safe), so identity tests can run it
    in fork- and spawn-started children and compare against the
    parent's independent-runs digest. ``mode`` is ``"bakeoff"`` (one
    shared kernel pass) or ``"reference"`` (every member alone);
    equal digests mean bit-identity. The roster skips Rhythm — its
    profiling pipeline would dominate a cold spawn child — which loses
    no coverage: members are interchangeable behind the interface.
    """
    if mode not in ("bakeoff", "reference"):
        raise ExperimentError(
            f"mode must be 'bakeoff' or 'reference', got {mode!r}"
        )
    scenarios = bakeoff_scenario_grid(
        loads=(0.35, 0.55),
        duration_s=duration_s,
        seed=seed,
        faults_per_minute=4.0 if with_faults else 0.0,
    )
    members = [
        heracles_member("Redis"),
        interference_member(),
        predictive_member(),
    ]
    config = BakeoffConfig(duration_s=duration_s)
    if mode == "bakeoff":
        return run_bakeoff(scenarios, members, config, cache=None).digest
    h = hashlib.sha256()
    for scenario in scenarios:
        for member in members:
            cell = run_member_reference(scenario, member, config)
            h.update(cell.digest.encode("ascii"))
    return h.hexdigest()
