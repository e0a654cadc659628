"""Causal path graph (CPG) construction — Figure 4 of the paper.

A CPG is a DAG whose vertices are the per-Servpod event sets of one
request and whose edges are causal relations: *message relations* between
SEND/RECV pairs on neighbouring Servpods and *context relations* between
RECV/SEND pairs inside one Servpod.

Per-request reconstruction is exact when the trace was captured from
blocking servers over ephemeral connections (one thread and one 5-tuple
per request). :meth:`CausalPathGraph.reconstruct_requests` implements the
breadth-first walk from each client SEND; the resulting graphs carry
per-visit sojourn times, which the offline profiler consumes.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, KeysView, List, Optional, Tuple

from repro.errors import TracingError
from repro.tracing.causality import CausalityMatcher, MatchedSegment
from repro.tracing.events import ContextId, EventType, SysEvent

#: Node name used for the load-generating client.
CLIENT_NODE = "client"


class PathGraph:
    """A small directed graph with insertion-ordered nodes and edges.

    Covers what the tracer needs of a networkx ``DiGraph``: ``add_edge``
    adds missing endpoints source first and merges edge attributes,
    ``nodes`` and ``edges`` iterate in networkx's order (nodes as
    added; edges grouped by source, targets as added), and
    ``graph[u][v]`` is the attribute dict of edge ``u -> v``.
    """

    def __init__(self) -> None:
        self._succ: Dict[str, Dict[str, Dict[str, float]]] = {}

    def add_node(self, node: str) -> None:
        self._succ.setdefault(node, {})

    def add_edge(self, u: str, v: str, **attrs: float) -> None:
        self.add_node(u)
        self.add_node(v)
        self._succ[u].setdefault(v, {}).update(attrs)

    def has_edge(self, u: str, v: str) -> bool:
        return v in self._succ.get(u, ())

    @property
    def nodes(self) -> KeysView[str]:
        return self._succ.keys()

    @property
    def edges(self) -> List[Tuple[str, str]]:
        return [(u, v) for u, succ in self._succ.items() for v in succ]

    def __getitem__(self, node: str) -> Dict[str, Dict[str, float]]:
        return self._succ[node]


@dataclass
class RequestPath:
    """One reconstructed request: its CPG and per-Servpod sojourns."""

    graph: PathGraph
    #: Per-Servpod total sojourn time (ms), summed over revisits.
    sojourns: Dict[str, float] = field(default_factory=dict)
    #: Client-observed end-to-end latency (ms).
    e2e_ms: float = 0.0

    def servpods(self) -> List[str]:
        """Servpods on this request's path (excludes the client node)."""
        return [n for n in self.graph.nodes if n != CLIENT_NODE]


class CausalPathGraph:
    """Builds CPGs and per-request sojourn attributions from a trace."""

    def __init__(self, matcher: CausalityMatcher) -> None:
        self.matcher = matcher

    def reconstruct_requests(self, events: Iterable[SysEvent]) -> List[RequestPath]:
        """Reconstruct one :class:`RequestPath` per client request.

        Requires blocking servers (per-request thread ids) and ephemeral
        connections (per-request 5-tuples); raises
        :class:`~repro.errors.TracingError` if the stream is visibly
        ambiguous (a context id serving two overlapping entry requests).
        """
        clean = self.matcher.filter(events)
        inter = self.matcher.inter_pairs(clean)
        segments = self.matcher.intra_segments(clean)

        # Per-context local segments (exact per request in blocking mode).
        segs_by_ctx: Dict[ContextId, List[MatchedSegment]] = defaultdict(list)
        for seg in segments:
            segs_by_ctx[seg.recv.context].append(seg)

        # Request-direction pairs indexed by sender context; reply pairs
        # indexed by the replying (Servpod-side) context.
        out_calls: Dict[ContextId, List] = defaultdict(list)
        replies_to: Dict[ContextId, List] = defaultdict(list)
        for pair in inter:
            if self.matcher.is_request_direction(pair.send):
                out_calls[pair.send.context].append(pair)
            else:
                replies_to[pair.recv.context].append(pair)

        client_sends = sorted(
            (
                e
                for e in clean
                if e.etype == EventType.SEND
                and e.context.program == "loadgen"
                and self.matcher.is_request_direction(e)
            ),
            key=SysEvent.sort_key,
        )

        # Map each request-direction pair to its callee context.
        paths: List[RequestPath] = []
        for send in client_sends:
            pair = self._pair_for_send(out_calls[send.context], send)
            if pair is None:
                continue
            graph = PathGraph()
            graph.add_node(CLIENT_NODE)
            sojourns: Dict[str, float] = {}
            self._walk(pair, CLIENT_NODE, graph, sojourns, out_calls, segs_by_ctx)
            e2e = self._client_e2e(send, replies_to[send.context])
            paths.append(RequestPath(graph=graph, sojourns=sojourns, e2e_ms=e2e))
        return paths

    def aggregate_graph(self, events: Iterable[SysEvent]) -> PathGraph:
        """The service topology: union of all reconstructed request CPGs."""
        graph = PathGraph()
        for path in self.reconstruct_requests(events):
            for node in path.graph.nodes:
                graph.add_node(node)
            for u, v in path.graph.edges:
                graph.add_edge(u, v)
        return graph

    # -- internals ----------------------------------------------------

    def _walk(
        self,
        pair,
        caller_node: str,
        graph: PathGraph,
        sojourns: Dict[str, float],
        out_calls: Dict[ContextId, List],
        segs_by_ctx: Dict[ContextId, List[MatchedSegment]],
    ) -> None:
        callee_ctx = pair.recv.context
        pod = self.matcher.servpod_of(callee_ctx)
        if pod is None:
            raise TracingError(f"matched RECV on unknown endpoint {callee_ctx}")
        graph.add_edge(caller_node, pod, t_send=pair.send.timestamp, t_recv=pair.recv.timestamp)
        local = sum(seg.span_ms for seg in segs_by_ctx.get(callee_ctx, ()))
        # A context id may recur across sequential revisits of the same
        # pod within one request; summing matches the paper's definition.
        if pod not in sojourns:
            sojourns[pod] = local
        for downstream in out_calls.get(callee_ctx, ()):
            # Only walk calls issued after this visit began.
            if downstream.send.timestamp + 1e-12 < pair.recv.timestamp:
                continue
            self._walk(downstream, pod, graph, sojourns, out_calls, segs_by_ctx)

    @staticmethod
    def _pair_for_send(pairs: List, send: SysEvent) -> Optional[object]:
        for pair in pairs:
            if pair.send is send:
                return pair
        return None

    @staticmethod
    def _client_e2e(send: SysEvent, reply_pairs: List) -> float:
        """E2E latency: first reply RECV at the client after this SEND."""
        best = None
        for pair in reply_pairs:
            t = pair.recv.timestamp
            if t >= send.timestamp and (best is None or t < best):
                best = t
        return (best - send.timestamp) if best is not None else float("nan")
