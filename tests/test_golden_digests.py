"""Golden digests: a changed result must come with a cache-salt bump.

Every cache key mixes in :data:`~repro.cache.keys.CODE_VERSION_SALT`.
A change that alters what the same config simulates, or how results
are encoded, must bump it, or warm runs serve stale entries.
``tests/golden_digests.json`` holds the digests of one small run of
each cached kind (colocation cell, fleet zone, bake-off cell, storm
zone, profile artifact) with the salt they were made under. The test
re-simulates the set and fails when a digest moved while the salt did
not.

Re-record after a deliberate salt bump (from the repository root)::

    PYTHONPATH=src python -m tests.test_golden_digests --record
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

from repro.baselines.heracles import heracles_controllers
from repro.bejobs.catalog import evaluation_be_jobs
from repro.cache.keys import CODE_VERSION_SALT
from repro.experiments.bakeoff import (
    BakeoffConfig,
    bakeoff_scenario_grid,
    heracles_member,
    interference_member,
    run_bakeoff,
)
from repro.experiments.colocation import (
    ColocationConfig,
    ColocationExperiment,
    result_digest,
)
from repro.experiments.fleet import FleetConfig, alibaba_fleet
from repro.experiments.scenarios import storm_fleet
from repro.faults.topology import CorrelatedFaultSchedule, FleetTopology
from repro.loadgen.patterns import ConstantLoad
from repro.parallel.artifact import artifact_for
from repro.sim.rng import RandomStreams
from repro.workloads.catalog import lc_service_spec

GOLDEN = Path(__file__).with_name("golden_digests.json")
DURATION_S = 30.0


def _colocation_cell() -> str:
    service = lc_service_spec("Redis")
    exp = ColocationExperiment(
        service,
        heracles_controllers(service),
        [evaluation_be_jobs()[0]],
        ConstantLoad(0.45),
        streams=RandomStreams(7),
        config=ColocationConfig(duration_s=DURATION_S),
    )
    result = exp.run()
    return result_digest(exp.streams, result)


def _fleet(zone_size: int):
    config = FleetConfig(duration_s=DURATION_S, workers=1, zone_size=zone_size)
    return alibaba_fleet(
        2 * zone_size, policy="heracles", duration_s=DURATION_S, seed=5, config=config
    )


def _fleet_zone() -> str:
    return _fleet(zone_size=2).run(cache=False).digest


def _storm_zone() -> str:
    fleet = _fleet(zone_size=2)
    topology = FleetTopology.generate(
        4, n_instances=len(fleet.instances), zone_size=2
    )
    storm = CorrelatedFaultSchedule.generate(
        4, topology, DURATION_S, events_per_minute=6.0, min_duration_s=5.0
    )
    stormed = storm_fleet(fleet, storm)
    assert any(spec.faults is not None for spec in stormed.instances)
    return stormed.run(cache=False).digest


def _bakeoff_cell() -> str:
    scenario = bakeoff_scenario_grid(
        loads=(0.45,), be_jobs=("stream-llc",), duration_s=DURATION_S, seed=2
    )
    result = run_bakeoff(
        scenario,
        [heracles_member("Redis"), interference_member()],
        BakeoffConfig(duration_s=DURATION_S),
        cache=None,
    )
    return result.digest


def _profile_artifact() -> str:
    from conftest import make_tiny_service

    artifact = artifact_for(make_tiny_service(), seed=0, probe_slacklimits=False)
    fields = repr(dataclasses.astuple(artifact))
    return hashlib.sha256(fields.encode("utf-8")).hexdigest()


def golden_digests() -> Dict[str, str]:
    """Re-simulate the golden set."""
    return {
        "colocation_cell": _colocation_cell(),
        "fleet_zone": _fleet_zone(),
        "bakeoff_cell": _bakeoff_cell(),
        "storm_zone": _storm_zone(),
        "profile_artifact": _profile_artifact(),
    }


def test_digests_unchanged_under_their_salt():
    recorded = json.loads(GOLDEN.read_text())
    assert recorded["salt"] == CODE_VERSION_SALT, (
        "CODE_VERSION_SALT moved: re-record the golden digests under the "
        "new salt (see this module's docstring)"
    )
    assert golden_digests() == recorded["digests"], (
        "a result digest changed while CODE_VERSION_SALT did not: bump the "
        "salt (with a history line) and re-record, or restore the results"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.test_golden_digests --record")
    sys.path.insert(0, str(Path(__file__).parent))
    GOLDEN.write_text(
        json.dumps(
            {"salt": CODE_VERSION_SALT, "digests": golden_digests()},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN}")
