"""Rhythm — component-distinguishable workload deployment in datacenters.

A full Python reproduction of *Rhythm* (Zhao et al., EuroSys 2020) on a
discrete-event datacenter simulator. The public API re-exports the
pieces a downstream user needs:

- workload models: :func:`lc_service_spec`, :data:`LC_CATALOG`,
  :func:`snms_service`, :data:`BE_CATALOG`, :func:`be_job_spec`,
- the Rhythm pipeline: :class:`Rhythm`, :class:`RhythmConfig`,
- the Heracles baseline: :class:`HeraclesPolicy`,
  :func:`heracles_controllers`,
- the co-location runtime: :class:`ColocationExperiment`,
  :class:`ColocationConfig`, :func:`compare_systems`,
- load patterns: :class:`ConstantLoad`, :func:`clarknet_production_load`.

Quickstart::

    from repro import Rhythm, lc_service_spec
    rhythm = Rhythm(lc_service_spec("E-commerce"))
    print(rhythm.loadlimits())
    print(rhythm.slacklimits())
"""

from repro.baselines.heracles import HeraclesPolicy, heracles_controllers
from repro.bejobs.catalog import BE_CATALOG, be_job_spec, evaluation_be_jobs
from repro.core.rhythm import Rhythm, RhythmConfig
from repro.core.top_controller import ControllerThresholds, TopController
from repro.experiments.colocation import ColocationConfig, ColocationExperiment
from repro.experiments.runner import compare_systems
from repro.loadgen.clarknet import clarknet_production_load
from repro.loadgen.patterns import ConstantLoad
from repro.sim.rng import RandomStreams
from repro.workloads.catalog import LC_CATALOG, lc_service_spec
from repro.workloads.microservices import snms_service

__version__ = "1.0.0"

__all__ = [
    "Rhythm",
    "RhythmConfig",
    "TopController",
    "ControllerThresholds",
    "HeraclesPolicy",
    "heracles_controllers",
    "ColocationExperiment",
    "ColocationConfig",
    "compare_systems",
    "ConstantLoad",
    "clarknet_production_load",
    "RandomStreams",
    "LC_CATALOG",
    "BE_CATALOG",
    "lc_service_spec",
    "be_job_spec",
    "snms_service",
    "evaluation_be_jobs",
    "__version__",
]
