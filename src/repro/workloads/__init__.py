"""Latency-critical (LC) workload models.

An LC service is a DAG of *components* (HAProxy, Tomcat, MySQL, ...)
grouped into *Servpods* (components co-located on one machine — the
paper's new abstraction, re-exported from :mod:`repro.core.servpod`).
Requests traverse a call tree over Servpods; each Servpod contributes a
load- and interference-dependent sojourn time; the end-to-end latency is
the call tree's critical path.

- :mod:`repro.workloads.spec` — specs for components, Servpods, services
  and call trees.
- :mod:`repro.workloads.latency` — the generative lognormal sojourn model.
- :mod:`repro.workloads.request` — request execution records (timestamped
  per-Servpod segments) used by the tracer.
- :mod:`repro.workloads.service` — the runtime: vectorized sampling of
  request latencies under a given load and pressure assignment.
- :mod:`repro.workloads.catalog` — the five containerized LC services of
  Table 1.
- :mod:`repro.workloads.microservices` — SNMS, the DeathStarBench social
  network (30 microservices in three Servpods).
"""

from repro.workloads.spec import (
    CallNode,
    ComponentSpec,
    RequestType,
    ServiceSpec,
    ServpodSpec,
    chain,
    fanout,
)
from repro.workloads.latency import LatencyModel
from repro.workloads.request import RequestRecord, SojournSegment, build_execution
from repro.workloads.service import Service, ServiceState
from repro.workloads.catalog import (
    LC_CATALOG,
    ecommerce_service,
    redis_service,
    solr_service,
    elasticsearch_service,
    elgg_service,
    lc_service_spec,
)
from repro.workloads.microservices import snms_service

__all__ = [
    "CallNode",
    "ComponentSpec",
    "RequestType",
    "ServiceSpec",
    "ServpodSpec",
    "chain",
    "fanout",
    "LatencyModel",
    "RequestRecord",
    "SojournSegment",
    "build_execution",
    "Service",
    "ServiceState",
    "LC_CATALOG",
    "ecommerce_service",
    "redis_service",
    "solr_service",
    "elasticsearch_service",
    "elgg_service",
    "snms_service",
    "lc_service_spec",
]
