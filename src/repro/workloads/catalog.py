"""The LC service catalog (Table 1 of the paper).

Five containerized services, each with the paper's Servpod decomposition,
MaxLoad and SLA. Latency-model constants are calibrated in two steps:

1. *Shape constants* (growth exponents, sigma curves, sensitivity
   vectors) are chosen so the paper's qualitative structure holds:
   Figure 2's per-component interference asymmetries, Figure 6's
   mean/CoV-vs-load curves, and Figure 8's loadlimit crossings
   (MySQL ≈ 0.76, Tomcat ≈ 0.87, Slave ≈ 0.91, Zookeeper ≈ 0.93,
   Memcached ≈ 0.87, Kibana ≈ 0.90).
2. *Absolute scale* is fixed by :func:`calibrate_to_sla`, which rescales
   every component's ``base_ms`` so the solo-run p99 at MaxLoad lands
   just under the SLA — mirroring how the paper defines each SLA (worst
   p99 of a 30-minute solo run at MaxLoad).

The ``cov_knee`` parameter controls where a Servpod's CoV-vs-load curve
crosses its own average, which is exactly the paper's loadlimit rule: for
the knee sigma curve and a uniform load grid the crossing sits near
``knee + (1 - knee)**1.5 / sqrt(3)``, so knee=0.64 → ~0.76 (MySQL),
knee=0.83 → ~0.87 (Tomcat), knee=0.89 → ~0.91 (Slave), knee=0.915 →
~0.93 (Zookeeper).
"""

from __future__ import annotations

import functools
from dataclasses import replace
from typing import Callable, Dict

from repro.errors import ConfigurationError
from repro.interference.sensitivity import SensitivityVector
from repro.sim.rng import RandomStreams
from repro.workloads.spec import (
    CallNode,
    ComponentSpec,
    RequestType,
    ServiceSpec,
    ServpodSpec,
    chain,
    fanout,
)

#: Calibration target: solo p99 at MaxLoad as a fraction of the SLA.
SLA_CALIBRATION_MARGIN = 0.93
#: Requests sampled per service during SLA calibration.
_CALIBRATION_SAMPLES = 6000
_CALIBRATION_SEED = 20200427  # EuroSys'20 presentation date


def calibrate_to_sla(spec: ServiceSpec, margin: float = SLA_CALIBRATION_MARGIN) -> ServiceSpec:
    """Rescale every ``base_ms`` so the solo p99 at MaxLoad = margin × SLA.

    End-to-end latency is a positive-homogeneous function of the base
    medians, so a single multiplicative factor hits the target exactly.
    """
    from repro.workloads.service import Service  # local import to avoid a cycle

    if not (0.0 < margin <= 1.0):
        raise ConfigurationError(f"margin must be in (0,1], got {margin!r}")
    probe = Service(spec, RandomStreams(_CALIBRATION_SEED))
    p99 = probe.tail_latency(1.0, _CALIBRATION_SAMPLES)
    factor = margin * spec.sla_ms / p99
    servpods = tuple(
        replace(
            pod,
            components=tuple(
                replace(comp, base_ms=comp.base_ms * factor) for comp in pod.components
            ),
        )
        for pod in spec.servpods
    )
    return replace(spec, servpods=servpods)


# ---------------------------------------------------------------------------
# E-commerce (TPC-W website): HAProxy -> Tomcat -> Amoeba -> MySQL
# ---------------------------------------------------------------------------

def ecommerce_service(calibrated: bool = True) -> ServiceSpec:
    """The four-tier TPC-W E-commerce website (Table 1, row 1)."""
    haproxy = ComponentSpec(
        name="haproxy",
        base_ms=1.6,
        sigma0=0.50,          # < 5% of latency but > 20% of the variance (Fig. 6)
        lin_growth=0.3,
        sat_growth=0.04,
        sigma_growth=2.0,
        cov_knee=0.71,
        sensitivity=SensitivityVector(cpu=0.20, llc=0.15, membw=0.20, net=1.20, freq=0.60),
        cores=4,
        peak_core_util=0.55,
        peak_membw_fraction=0.06,
        peak_net_gbps=3.0,
        llc_fraction=0.10,
    )
    tomcat = ComponentSpec(
        name="tomcat",
        base_ms=22.0,
        sigma0=0.22,
        lin_growth=0.8,
        sat_growth=0.30,
        sigma_growth=2.5,
        cov_knee=0.83,        # loadlimit crossing ~ 0.87 (Fig. 8b)
        sensitivity=SensitivityVector(cpu=0.45, llc=0.35, membw=0.60, net=0.35, freq=2.20),
        cores=12,
        peak_core_util=0.70,
        peak_membw_fraction=0.12,
        peak_net_gbps=1.2,
        llc_fraction=0.25,
    )
    amoeba = ComponentSpec(
        name="amoeba",
        base_ms=3.5,
        sigma0=0.10,          # smallest CoV of the four (Fig. 6b)
        lin_growth=0.3,
        sat_growth=0.05,
        sigma_growth=2.0,
        cov_knee=0.785,
        sensitivity=SensitivityVector(cpu=0.15, llc=0.20, membw=0.30, net=0.40, freq=0.30),
        cores=4,
        peak_core_util=0.45,
        peak_membw_fraction=0.05,
        peak_net_gbps=0.8,
        llc_fraction=0.08,
    )
    mysql = ComponentSpec(
        name="mysql",
        base_ms=13.0,
        sigma0=0.38,          # always noisier than Tomcat (Fig. 6b)
        lin_growth=0.4,
        sat_growth=1.6,       # overtakes Tomcat past ~50% load (Fig. 6a)
        sat_power=2.5,
        sigma_growth=2.0,
        cov_knee=0.60,        # loadlimit crossing ~ 0.76 (Fig. 8a)
        sensitivity=SensitivityVector(cpu=0.60, llc=1.80, membw=1.70, net=0.80, freq=0.50),
        cores=12,
        peak_core_util=0.65,
        peak_membw_fraction=0.22,
        peak_net_gbps=1.0,
        llc_fraction=0.35,
    )
    spec = ServiceSpec(
        name="E-commerce",
        domain="TPC-W website",
        servpods=(
            ServpodSpec("haproxy", (haproxy,), llc_ways=6, memory_gb=16.0),
            ServpodSpec("tomcat", (tomcat,), llc_ways=10, memory_gb=48.0),
            ServpodSpec("amoeba", (amoeba,), llc_ways=6, memory_gb=16.0),
            ServpodSpec("mysql", (mysql,), llc_ways=10, memory_gb=64.0),
        ),
        request_types=(
            RequestType(
                name="browse-and-buy",
                weight=1.0,
                root=chain("haproxy", "tomcat", "amoeba", "mysql"),
            ),
        ),
        max_load_qps=1300.0,
        sla_ms=250.0,
        containers=16,
    )
    return calibrate_to_sla(spec) if calibrated else spec


# ---------------------------------------------------------------------------
# Redis (fan-out key-value store): Master fans out to Slave
# ---------------------------------------------------------------------------

def redis_service(calibrated: bool = True) -> ServiceSpec:
    """The fan-out Redis deployment (Table 1, row 2)."""
    master = ComponentSpec(
        name="master",
        base_ms=0.35,
        sigma0=0.30,
        lin_growth=0.5,
        sat_growth=0.55,
        sigma_growth=2.0,
        cov_knee=0.71,
        # Master relies on LLC, memory and network bandwidth for request
        # distribution and data operation (Fig. 2a discussion).
        sensitivity=SensitivityVector(cpu=0.45, llc=2.20, membw=1.80, net=1.50, freq=0.90),
        cores=10,
        peak_core_util=0.75,
        peak_membw_fraction=0.30,
        peak_net_gbps=4.0,
        llc_fraction=0.40,
    )
    slave = ComponentSpec(
        name="slave",
        base_ms=0.30,
        sigma0=0.24,
        lin_growth=0.3,
        sat_growth=0.12,
        sigma_growth=2.0,
        cov_knee=0.89,        # loadlimit ~ 0.91 (paper §5.2.1)
        sensitivity=SensitivityVector(cpu=0.09, llc=0.09, membw=0.85, net=0.60, freq=0.40),
        cores=10,
        peak_core_util=0.60,
        peak_membw_fraction=0.22,
        peak_net_gbps=3.0,
        llc_fraction=0.25,
    )
    spec = ServiceSpec(
        name="Redis",
        domain="Key-value store",
        servpods=(
            ServpodSpec("master", (master,), llc_ways=10, memory_gb=64.0),
            ServpodSpec("slave", (slave,), llc_ways=10, memory_gb=64.0),
        ),
        request_types=(
            RequestType(
                name="get-fanout",
                weight=1.0,
                root=fanout("master", chain("slave")),
            ),
        ),
        max_load_qps=86000.0,
        sla_ms=1.15,
        containers=18,
    )
    return calibrate_to_sla(spec) if calibrated else spec


# ---------------------------------------------------------------------------
# Solr (search): Apache+Solr -> Zookeeper
# ---------------------------------------------------------------------------

def solr_service(calibrated: bool = True) -> ServiceSpec:
    """Apache Solr search with a Zookeeper coordination Servpod."""
    apache_solr = ComponentSpec(
        name="apache-solr",
        base_ms=70.0,
        sigma0=0.30,
        lin_growth=0.6,
        sat_growth=0.50,
        sigma_growth=2.0,
        cov_knee=0.71,
        sensitivity=SensitivityVector(cpu=0.55, llc=1.60, membw=1.40, net=0.70, freq=1.10),
        cores=16,
        peak_core_util=0.70,
        peak_membw_fraction=0.25,
        peak_net_gbps=1.5,
        llc_fraction=0.40,
    )
    zookeeper = ComponentSpec(
        name="zookeeper",
        base_ms=5.0,
        sigma0=0.12,
        lin_growth=0.2,
        sat_growth=0.04,
        sigma_growth=2.5,
        cov_knee=0.915,       # loadlimit ~ 0.93 (paper §5.2.1)
        sensitivity=SensitivityVector(cpu=0.10, llc=0.12, membw=0.20, net=0.45, freq=0.25),
        cores=6,
        peak_core_util=0.30,
        peak_membw_fraction=0.04,
        peak_net_gbps=0.6,
        llc_fraction=0.08,
    )
    spec = ServiceSpec(
        name="Solr",
        domain="Search",
        servpods=(
            ServpodSpec("apache-solr", (apache_solr,), llc_ways=12, memory_gb=64.0),
            ServpodSpec("zookeeper", (zookeeper,), llc_ways=4, memory_gb=16.0),
        ),
        request_types=(
            RequestType(
                name="search",
                weight=1.0,
                root=chain("apache-solr", "zookeeper"),
            ),
        ),
        max_load_qps=400.0,
        sla_ms=350.0,
        containers=15,
    )
    return calibrate_to_sla(spec) if calibrated else spec


# ---------------------------------------------------------------------------
# Elasticsearch (index engine): Kibana -> Index
# ---------------------------------------------------------------------------

def elasticsearch_service(calibrated: bool = True) -> ServiceSpec:
    """Elasticsearch with a Kibana frontend Servpod."""
    kibana = ComponentSpec(
        name="kibana",
        base_ms=9.0,
        sigma0=0.16,
        lin_growth=0.4,
        sat_growth=0.08,
        sigma_growth=2.5,
        cov_knee=0.875,       # loadlimit ~ 0.90 (paper §5.2.1)
        sensitivity=SensitivityVector(cpu=0.20, llc=0.25, membw=0.35, net=0.70, freq=0.60),
        cores=6,
        peak_core_util=0.45,
        peak_membw_fraction=0.06,
        peak_net_gbps=1.5,
        llc_fraction=0.10,
    )
    index = ComponentSpec(
        name="index",
        base_ms=42.0,
        sigma0=0.32,
        lin_growth=0.6,
        sat_growth=0.70,
        sigma_growth=2.0,
        cov_knee=0.67,
        sensitivity=SensitivityVector(cpu=0.50, llc=1.60, membw=1.70, net=0.60, freq=0.90),
        cores=14,
        peak_core_util=0.70,
        peak_membw_fraction=0.30,
        peak_net_gbps=1.0,
        llc_fraction=0.45,
    )
    spec = ServiceSpec(
        name="Elasticsearch",
        domain="Index Engine",
        servpods=(
            ServpodSpec("kibana", (kibana,), llc_ways=4, memory_gb=16.0),
            ServpodSpec("index", (index,), llc_ways=12, memory_gb=64.0),
        ),
        request_types=(
            RequestType(name="query", weight=1.0, root=chain("kibana", "index")),
        ),
        max_load_qps=750.0,
        sla_ms=200.0,
        containers=12,
    )
    return calibrate_to_sla(spec) if calibrated else spec


# ---------------------------------------------------------------------------
# Elgg (social network): Nginx+PHP-FPM -> Memcached, MySQL
# ---------------------------------------------------------------------------

def elgg_service(calibrated: bool = True) -> ServiceSpec:
    """The Elgg social network (Nginx+PHP frontend, Memcached, MySQL)."""
    nginx_php = ComponentSpec(
        name="nginx-php",
        base_ms=30.0,
        sigma0=0.26,
        lin_growth=0.7,
        sat_growth=0.40,
        sigma_growth=2.0,
        cov_knee=0.77,
        sensitivity=SensitivityVector(cpu=0.55, llc=0.60, membw=0.80, net=0.90, freq=1.60),
        cores=10,
        peak_core_util=0.65,
        peak_membw_fraction=0.12,
        peak_net_gbps=1.8,
        llc_fraction=0.20,
    )
    memcached = ComponentSpec(
        name="memcached",
        base_ms=2.2,
        sigma0=0.15,
        lin_growth=0.3,
        sat_growth=0.06,
        sigma_growth=2.5,
        cov_knee=0.83,        # loadlimit ~ 0.87 (paper §5.2.1)
        sensitivity=SensitivityVector(cpu=0.18, llc=0.90, membw=0.70, net=0.50, freq=0.40),
        cores=4,
        peak_core_util=0.35,
        peak_membw_fraction=0.10,
        peak_net_gbps=1.0,
        llc_fraction=0.30,
    )
    mysql = ComponentSpec(
        name="elgg-mysql",
        base_ms=18.0,
        sigma0=0.36,
        lin_growth=0.5,
        sat_growth=1.2,
        sat_power=2.4,
        sigma_growth=2.0,
        cov_knee=0.67,
        sensitivity=SensitivityVector(cpu=0.55, llc=1.70, membw=1.70, net=0.70, freq=0.50),
        cores=10,
        peak_core_util=0.60,
        peak_membw_fraction=0.20,
        peak_net_gbps=0.8,
        llc_fraction=0.35,
    )
    spec = ServiceSpec(
        name="Elgg",
        domain="Social Network",
        servpods=(
            ServpodSpec("nginx-php", (nginx_php,), llc_ways=8, memory_gb=32.0),
            ServpodSpec("memcached", (memcached,), llc_ways=6, memory_gb=32.0),
            ServpodSpec("elgg-mysql", (mysql,), llc_ways=10, memory_gb=64.0),
        ),
        request_types=(
            RequestType(
                name="timeline",
                weight=0.7,
                root=CallNode(
                    servpod="nginx-php",
                    children=(CallNode("memcached"), CallNode("elgg-mysql")),
                    parallel=False,
                ),
            ),
            RequestType(
                name="cached-page",
                weight=0.3,
                root=chain("nginx-php", "memcached"),
            ),
        ),
        max_load_qps=200.0,
        sla_ms=320.0,
        containers=8,
    )
    return calibrate_to_sla(spec) if calibrated else spec


# ---------------------------------------------------------------------------
# Catalog access
# ---------------------------------------------------------------------------

#: Builders for the five containerized LC services of Table 1. SNMS (the
#: microservice benchmark) lives in :mod:`repro.workloads.microservices`.
LC_CATALOG: Dict[str, Callable[[], ServiceSpec]] = {
    "E-commerce": ecommerce_service,
    "Redis": redis_service,
    "Solr": solr_service,
    "Elasticsearch": elasticsearch_service,
    "Elgg": elgg_service,
}


@functools.lru_cache(maxsize=None)
def lc_service_spec(name: str) -> ServiceSpec:
    """The calibrated spec of a catalogued LC service, built once per process.

    A calibrated spec is a pure function of this module's constants (the
    calibration probe runs on a fixed seed) and is frozen all the way
    down, so every caller can share one instance: fleet, bake-off and
    scenario builders ask for it per instance, and each build would
    otherwise re-run the 6,000-request calibration probe. An unknown
    name raises before anything is cached.
    """
    try:
        builder = LC_CATALOG[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown LC service {name!r}; known: {sorted(LC_CATALOG)}"
        ) from None
    return builder()


@functools.lru_cache(maxsize=None)
def service_spec(name: str) -> ServiceSpec:
    """Any runnable service by name: the five catalogued ones, or SNMS.

    The single resolver for callers that accept SNMS as well (the CLI,
    the bake-off and its member builders); built once per process, like
    :func:`lc_service_spec`.
    """
    if name == "SNMS":
        from repro.workloads.microservices import snms_service

        return snms_service()
    if name not in LC_CATALOG:
        known = sorted([*LC_CATALOG, "SNMS"])
        raise ConfigurationError(f"unknown LC service {name!r}; known: {known}")
    return lc_service_spec(name)


def service_profiling_mode(service: ServiceSpec) -> str:
    """How Rhythm's offline profiler observes ``service``'s requests.

    SNMS ships its own jaeger tracing (§2 of the paper), so its profile
    comes from jaeger spans; every other service is profiled directly.
    The service's thresholds follow from its profile, so every command
    that profiles a service asks here and gets the same answer.
    """
    return "jaeger" if service.name == "SNMS" else "direct"
