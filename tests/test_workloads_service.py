"""Tests for the Service runtime sampler and the LC catalogs."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.rng import RandomStreams
from repro.workloads.catalog import (
    LC_CATALOG,
    ecommerce_service,
    lc_service_spec,
    redis_service,
)
from repro.workloads.microservices import snms_service
from repro.workloads.service import Service, ServiceState

from conftest import make_fanout_service, make_tiny_service


class TestServiceSampling:
    def test_e2e_positive(self, tiny_service, streams):
        svc = Service(tiny_service, streams)
        assert (svc.sample_e2e(0.5, 500) > 0).all()

    def test_deterministic_given_seed(self, tiny_service):
        a = Service(make_tiny_service(), RandomStreams(3)).sample_e2e(0.5, 100)
        b = Service(make_tiny_service(), RandomStreams(3)).sample_e2e(0.5, 100)
        assert (a == b).all()

    def test_sojourns_sum_to_e2e_for_chain(self, tiny_service, streams):
        svc = Service(tiny_service, streams)
        sampled = svc.sample_sojourns(0.5, 200)
        total = sampled["front"] + sampled["back"]
        assert np.allclose(total, sampled["__e2e__"])

    def test_fanout_e2e_is_critical_path(self, fanout_service, streams):
        svc = Service(fanout_service, streams)
        sampled = svc.sample_sojourns(0.5, 200)
        expected = sampled["root"] + np.maximum(sampled["long"], sampled["short"])
        assert np.allclose(expected, sampled["__e2e__"])

    def test_tail_latency_grows_with_load(self, tiny_service, streams):
        svc = Service(tiny_service, streams)
        assert svc.tail_latency(0.9, 3000) > svc.tail_latency(0.2, 3000)

    def test_interference_state_raises_tail(self, tiny_service, streams):
        svc = Service(tiny_service, streams)
        solo = svc.tail_latency(0.5, 3000)
        slowed = svc.tail_latency(
            0.5, 3000, ServiceState(slowdowns={"back": 4.0})
        )
        assert slowed > 2 * solo

    def test_state_only_affects_named_pod(self, tiny_service, streams):
        svc = Service(tiny_service, streams)
        state = ServiceState(slowdowns={"front": 5.0})
        sampled = svc.sample_sojourns(0.5, 2000, state)
        clean = Service(make_tiny_service(), RandomStreams(42)).sample_sojourns(0.5, 2000)
        assert sampled["front"].mean() > 3 * clean["front"].mean()
        assert sampled["back"].mean() == pytest.approx(clean["back"].mean(), rel=0.15)

    def test_zero_samples_rejected(self, tiny_service, streams):
        with pytest.raises(ConfigurationError):
            Service(tiny_service, streams).sample_e2e(0.5, 0)

    def test_request_records_match_tree(self, tiny_service, streams):
        svc = Service(tiny_service, streams)
        records = svc.build_request_records(0.5, 10)
        assert len(records) == 10
        for record in records:
            pods = {seg.servpod for seg in record.segments}
            assert pods == {"front", "back"}

    def test_lc_usage_scales_with_load(self, tiny_service, streams):
        svc = Service(tiny_service, streams)
        low = svc.lc_usage("back", 0.2)
        high = svc.lc_usage("back", 0.9)
        assert high.busy_cores > low.busy_cores
        assert high.membw_fraction > low.membw_fraction
        assert high.net_gbps > low.net_gbps

    def test_multi_request_type_mixing(self, streams):
        spec = make_fanout_service()
        svc = Service(spec, streams)
        sampled = svc.sample_sojourns(0.5, 400)
        assert (sampled["root"] > 0).all()  # every request visits the root


class TestCatalogs:
    def test_all_five_services_build(self):
        for name in LC_CATALOG:
            spec = lc_service_spec(name)
            assert spec.name == name

    def test_unknown_service_rejected(self):
        with pytest.raises(ConfigurationError):
            lc_service_spec("Netflix")

    def test_spec_is_built_once_and_frozen(self):
        spec = lc_service_spec("Redis")
        assert lc_service_spec("Redis") is spec
        assert spec == redis_service()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.sla_ms = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.servpods[0].components[0].base_ms = 1.0

    def test_unknown_service_is_not_cached(self):
        cached = lc_service_spec.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ConfigurationError):
                lc_service_spec("Netflix")
        assert lc_service_spec.cache_info().currsize == cached

    def test_table1_constants(self):
        ecom = ecommerce_service(calibrated=False)
        assert ecom.max_load_qps == 1300.0
        assert ecom.sla_ms == 250.0
        assert ecom.containers == 16
        assert ecom.servpod_names == ["haproxy", "tomcat", "amoeba", "mysql"]
        redis = redis_service(calibrated=False)
        assert redis.max_load_qps == 86000.0
        assert redis.sla_ms == 1.15

    def test_calibration_puts_p99_under_sla(self):
        spec = ecommerce_service()
        svc = Service(spec, RandomStreams(5))
        p99 = svc.tail_latency(1.0, 6000)
        assert 0.8 * spec.sla_ms < p99 <= 1.02 * spec.sla_ms

    def test_redis_is_fanout(self):
        spec = redis_service(calibrated=False)
        root = spec.request_types[0].root
        assert root.servpod == "master"
        assert root.parallel

    def test_snms_servpod_split(self):
        spec = snms_service(calibrated=False)
        sizes = {pod.name: len(pod.components) for pod in spec.servpods}
        assert sizes == {"frontend": 3, "userservice": 14, "mediaservice": 13}
        assert sum(sizes.values()) == 30  # 30 unique microservices

    def test_snms_jaeger_component_present(self):
        spec = snms_service(calibrated=False)
        frontend = spec.servpod("frontend")
        assert any(c.name == "jaeger" for c in frontend.components)

    def test_master_more_sensitive_than_slave(self):
        """Figure 2a's core observation."""
        spec = redis_service(calibrated=False)
        master = spec.servpod("master").components[0].sensitivity
        slave = spec.servpod("slave").components[0].sensitivity
        assert master.llc > 10 * slave.llc
        assert master.membw > slave.membw
        assert master.cpu > slave.cpu

    def test_tomcat_dvfs_sensitive_mysql_dram_sensitive(self):
        """Figure 2b's asymmetry."""
        spec = ecommerce_service(calibrated=False)
        tomcat = spec.servpod("tomcat").components[0].sensitivity
        mysql = spec.servpod("mysql").components[0].sensitivity
        assert tomcat.freq > mysql.freq
        assert mysql.membw > tomcat.membw
        assert mysql.llc > tomcat.llc
