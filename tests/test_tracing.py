"""Tests for the non-intrusive request tracer (§3.3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.rng import RandomStreams
from repro.tracing.causality import CausalityMatcher
from repro.tracing.cpg import CLIENT_NODE, CausalPathGraph, PathGraph
from repro.tracing.emitter import (
    CLIENT_PROGRAM,
    EmitterConfig,
    ServpodEndpoint,
    TraceEmitter,
    default_endpoints,
)
from repro.tracing.events import ContextId, EventType, MessageId, SysEvent
from repro.tracing.jaeger import JaegerTracer
from repro.tracing.sojourn import SojournExtractor
from repro.errors import TracingError
from repro.workloads.service import Service

from conftest import make_tiny_service


@pytest.fixture
def traced(streams):
    """A small traced workload: records, endpoints, events (blocking)."""
    spec = make_tiny_service()
    svc = Service(spec, streams)
    records = svc.build_request_records(0.5, 120)
    endpoints = default_endpoints(spec.servpod_names)
    emitter = TraceEmitter(endpoints, EmitterConfig(noise_per_request=3, seed=1))
    events = emitter.emit(records)
    return spec, records, endpoints, events


class TestEvents:
    def test_data_events_need_message(self):
        ctx = ContextId("1.1.1.1", "p", 1, 1)
        with pytest.raises(ValueError):
            SysEvent(EventType.RECV, 0.0, ctx, None)

    def test_message_reversal(self):
        msg = MessageId("a", 1, "b", 2, 100)
        rev = msg.reversed()
        assert rev.sender_ip == "b" and rev.receiver_port == 1

    def test_flow_ignores_size(self):
        m1 = MessageId("a", 1, "b", 2, 100)
        m2 = MessageId("a", 1, "b", 2, 999)
        assert m1.flow == m2.flow


class TestEmitter:
    def test_event_structure(self, traced):
        spec, records, endpoints, events = traced
        # Per request on a 2-pod chain: 2 edges x 4 data events, plus noise
        # (3 noise events/request on average).
        data = [e for e in events if e.etype in (EventType.RECV, EventType.SEND)]
        assert len(data) >= len(records) * 8
        assert len(data) <= len(records) * 12

    def test_events_time_sorted(self, traced):
        _, _, _, events = traced
        times = [e.timestamp for e in events]
        assert times == sorted(times)

    def test_noise_present(self, traced):
        _, _, endpoints, events = traced
        known = {ep.program for ep in endpoints.values()} | {CLIENT_PROGRAM}
        assert any(e.context.program not in known for e in events)

    def test_accept_close_emitted_at_entry(self, traced):
        _, records, _, events = traced
        accepts = [e for e in events if e.etype == EventType.ACCEPT]
        closes = [e for e in events if e.etype == EventType.CLOSE]
        assert len(accepts) == len(records)
        assert len(closes) == len(records)

    def test_persistent_mode_reuses_ports(self):
        spec = make_tiny_service()
        svc = Service(spec, RandomStreams(1))
        records = svc.build_request_records(0.5, 20)
        endpoints = default_endpoints(spec.servpod_names)
        emitter = TraceEmitter(
            endpoints, EmitterConfig(persistent_connections=True, noise_per_request=0)
        )
        events = emitter.emit(records)
        request_sends = [
            e for e in events
            if e.etype == EventType.SEND and e.message.receiver_port >= 7000
        ]
        ports = {e.message.sender_port for e in request_sends}
        assert len(ports) == 1  # single pooled connection port

    def test_ephemeral_mode_unique_ports(self, traced):
        _, records, _, events = traced
        known_ips = {ep.host_ip for ep in default_endpoints(["front", "back"]).values()}
        request_sends = [
            e for e in events
            if e.etype == EventType.SEND and e.message is not None
            and e.message.receiver_ip in known_ips
            and 7000 <= e.message.receiver_port < 7100
            and e.message.sender_port >= 20000
        ]
        ports = [e.message.sender_port for e in request_sends]
        assert len(ports) == len(set(ports))

    def test_empty_endpoints_rejected(self):
        with pytest.raises(TracingError):
            TraceEmitter({})


class TestCausalityMatcher:
    def test_filter_drops_noise(self, traced):
        _, _, endpoints, events = traced
        matcher = CausalityMatcher(endpoints)
        clean = matcher.filter(events)
        known_programs = {ep.program for ep in endpoints.values()} | {CLIENT_PROGRAM}
        assert all(e.context.program in known_programs for e in clean)

    def test_intra_segments_pair_up(self, traced):
        _, records, endpoints, events = traced
        matcher = CausalityMatcher(endpoints)
        segments = matcher.intra_segments(matcher.filter(events))
        # front pod: 2 local segments/request; back pod: 1.
        assert len(segments) == 3 * len(records)
        assert all(seg.span_ms >= 0 for seg in segments)

    def test_inter_pairs_match_send_to_recv(self, traced):
        _, _, endpoints, events = traced
        matcher = CausalityMatcher(endpoints)
        pairs = matcher.inter_pairs(matcher.filter(events))
        assert all(p.recv.timestamp >= p.send.timestamp for p in pairs)
        assert all(p.send.message.flow == p.recv.message.flow for p in pairs)

    def test_client_latencies_match_records(self, traced):
        _, records, endpoints, events = traced
        matcher = CausalityMatcher(endpoints)
        latencies = sorted(matcher.client_latencies(matcher.filter(events)))
        truth = sorted(r.e2e_ms for r in records)
        # Client-side latency adds one wire hop in each direction.
        assert np.allclose(latencies, np.asarray(truth) + 0.04, atol=1e-9)

    def test_entry_recv_count(self, traced):
        _, records, endpoints, events = traced
        matcher = CausalityMatcher(endpoints)
        counts = matcher.entry_recv_count(matcher.filter(events))
        assert counts == {"front": len(records), "back": len(records)}


class TestSojournExtraction:
    def test_per_request_exact(self, traced):
        _, records, endpoints, events = traced
        extractor = SojournExtractor(CausalityMatcher(endpoints))
        per_request = extractor.per_request(events)
        truth = {}
        for r in records:
            for pod, s in r.sojourn_by_servpod().items():
                truth.setdefault(pod, []).append(s)
        for pod in truth:
            got = np.asarray(sorted(per_request[pod]))
            want = np.asarray(sorted(truth[pod]))
            # Leaf pods are exact; middle pods absorb the tiny hop time.
            assert np.allclose(got, want, atol=0.1)

    def test_mean_invariance_under_nonblocking_persistent(self):
        """The paper's Figure-5 argument: scrambled pairings preserve means."""
        spec = make_tiny_service()
        svc = Service(spec, RandomStreams(9))
        records = svc.build_request_records(0.5, 150)
        endpoints = default_endpoints(spec.servpod_names)
        truth = {}
        for r in records:
            for pod, s in r.sojourn_by_servpod().items():
                truth.setdefault(pod, []).append(s)
        emitter = TraceEmitter(
            endpoints,
            EmitterConfig(blocking=False, persistent_connections=True,
                          noise_per_request=2, seed=3),
        )
        events = emitter.emit(records)
        stats = SojournExtractor(CausalityMatcher(endpoints)).mean_only(events)
        for pod, stat in stats.items():
            assert stat.mean_ms == pytest.approx(np.mean(truth[pod]), rel=0.05)
            assert stat.std_ms == 0.0  # individual spans untrusted

    def test_stats_include_cov(self, traced):
        _, _, endpoints, events = traced
        stats = SojournExtractor(CausalityMatcher(endpoints)).stats(events)
        for stat in stats.values():
            assert stat.cov > 0

    def test_empty_trace_raises(self, traced):
        _, _, endpoints, _ = traced
        extractor = SojournExtractor(CausalityMatcher(endpoints))
        with pytest.raises(TracingError):
            extractor.per_request([])


class TestCpg:
    def test_chain_topology_recovered(self, traced):
        """Figure 4: the aggregate CPG mirrors the service call structure."""
        _, _, endpoints, events = traced
        cpg = CausalPathGraph(CausalityMatcher(endpoints))
        graph = cpg.aggregate_graph(events)
        assert set(graph.nodes) == {CLIENT_NODE, "front", "back"}
        assert graph.has_edge(CLIENT_NODE, "front")
        assert graph.has_edge("front", "back")
        assert not graph.has_edge(CLIENT_NODE, "back")

    def test_per_request_paths(self, traced):
        _, records, endpoints, events = traced
        cpg = CausalPathGraph(CausalityMatcher(endpoints))
        paths = cpg.reconstruct_requests(events)
        assert len(paths) == len(records)
        for path in paths:
            assert sorted(path.servpods()) == ["back", "front"]
            assert path.e2e_ms > 0

    def test_request_edges_carry_timestamps(self, traced):
        _, _, endpoints, events = traced
        cpg = CausalPathGraph(CausalityMatcher(endpoints))
        graph = cpg.reconstruct_requests(events)[0].graph
        assert list(graph.nodes) == [CLIENT_NODE, "front", "back"]
        assert graph.edges == [(CLIENT_NODE, "front"), ("front", "back")]
        for u, v in graph.edges:
            assert graph[u][v]["t_send"] < graph[u][v]["t_recv"]

    def test_path_graph_orders_like_networkx(self):
        graph = PathGraph()
        graph.add_edge("a", "b", t_send=1.0)
        graph.add_edge("c", "a")
        graph.add_edge("a", "c")
        graph.add_edge("a", "b", t_recv=2.0)
        assert list(graph.nodes) == ["a", "b", "c"]
        assert graph.edges == [("a", "b"), ("a", "c"), ("c", "a")]
        assert graph["a"]["b"] == {"t_send": 1.0, "t_recv": 2.0}


class TestJaeger:
    def test_records_per_request_spans(self, streams):
        spec = make_tiny_service()
        svc = Service(spec, streams)
        records = svc.build_request_records(0.5, 50)
        tracer = JaegerTracer()
        assert tracer.record(records) == 50
        per_request = tracer.per_request()
        assert len(per_request["front"]) == 50
        stats = tracer.stats()
        assert stats["back"].mean_ms > 0

    def test_empty_tracer_raises(self):
        with pytest.raises(TracingError):
            JaegerTracer().per_request()

    def test_reset(self, streams):
        spec = make_tiny_service()
        svc = Service(spec, streams)
        tracer = JaegerTracer()
        tracer.record(svc.build_request_records(0.5, 5))
        tracer.reset()
        with pytest.raises(TracingError):
            tracer.per_request()
