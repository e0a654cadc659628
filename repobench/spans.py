"""Per-layer spans recorded from outside the program.

The benchmark does not edit ``repro``: with ``--trace 1`` it wraps the
functions that sit on each layer boundary (the shared tick phases, the
fleet and bake-off kernels, pool dispatch, cache I/O, profiling) and
records one span per call. A span's *self time* is its duration minus
the part covered by the spans it caused, so the self times of one
iteration add up to the iteration's wall time, the rest landing in
``other``.

A target that no longer exists (a refactor renamed or removed it) is
skipped and its layer reports 0, so the benchmark keeps running across
refactors of the code it measures.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: (layer, module, attribute path). The attribute is a module-level
#: function or ``Class.method``. Several targets may share one layer.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    # Rhythm profiling: the serial pipeline and the grid's load sweep.
    ("profile", "repro.experiments.runner", "get_rhythm"),
    ("profile", "repro.parallel.profile", "profile_service_parallel"),
    ("profile_sweep", "repro.parallel.profile", "_sweep_task"),
    # Experiment orchestration around the kernels.
    ("fleet_build", "repro.experiments.fleet", "_build_experiment"),
    ("grid_cell", "repro.parallel.grid", "_execute_task"),
    ("result_digest", "repro.experiments.fleet", "instance_digest"),
    ("result_digest", "repro.experiments.bakeoff", "bakeoff_member_digest"),
    # Pool transport (inline with one worker: dispatch and ref resolution).
    ("pool_dispatch", "repro.parallel.pool", "run_envelopes"),
    ("pool_broadcast", "repro.parallel.pool", "broadcast"),
    ("pool_broadcast", "repro.parallel.pool", "resolve_ref"),
    # Result cache I/O.
    ("cache_key", "repro.cache.keys", "stable_hash"),
    ("cache_get", "repro.cache.store", "CacheStore.get"),
    ("cache_put", "repro.cache.store", "CacheStore.put"),
    # Kernel set-up, the per-tick loop and the flush back to results.
    ("kernel_init", "repro.sim.kernel", "FleetColocationKernel.__init__"),
    ("kernel_init", "repro.sim.kernel", "BatchedColocationKernel.__init__"),
    ("kernel_loop", "repro.sim.kernel", "FleetColocationKernel.run"),
    ("kernel_loop", "repro.sim.kernel", "BakeoffKernel.run"),
    ("fleet_tick", "repro.sim.kernel", "FleetColocationKernel.tick"),
    ("tick_soa", "repro.sim.kernel", "FleetColocationKernel._tick_vec"),
    ("tick_soa", "repro.sim.kernel", "FleetColocationKernel._tick_small"),
    ("sample_tails", "repro.sim.kernel", "FleetColocationKernel._sample_tails"),
    ("latency_sample", "repro.sim.kernel", "BatchedServiceSampler.sample_e2e"),
    ("tail_percentile", "repro.sim.kernel", "percentile_linear"),
    ("tail_percentile", "repro.sim.kernel", "percentile_linear_rows"),
    ("tail_percentile", "repro.experiments.colocation", "ColocationExperiment._window_tail"),
    ("be_rates", "repro.sim.kernel", "BeRateKernel.be_rates"),
    ("finalize", "repro.sim.kernel", "FleetColocationKernel._finalize"),
    ("finalize", "repro.experiments.colocation", "ColocationExperiment._result"),
    # The per-instance tick (faulted instances, bake-off physics).
    ("instance_tick", "repro.experiments.colocation", "ColocationExperiment._tick"),
    ("physics_observe", "repro.sim.kernel", "BatchedColocationKernel.observe"),
    ("fault_load_window", "repro.experiments.colocation", "ColocationExperiment._begin_tick"),
    ("control", "repro.experiments.colocation", "ColocationExperiment._control_phase"),
    # Bake-off branching.
    ("bakeoff_branch", "repro.sim.kernel", "BakeoffKernel._tick_branch"),
    ("bakeoff_fork", "repro.sim.kernel", "BakeoffKernel._fork"),
    ("bakeoff_merge", "repro.sim.kernel", "BakeoffKernel._try_merge"),
)

#: Every layer, in report order; ``other`` is iteration time no span covers.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in TARGETS)) + ("other",)


class SpanRecorder:
    """Self time and call counts per layer, summed over iterations."""

    def __init__(self) -> None:
        self._self_s: Dict[str, float] = defaultdict(float)
        self._calls: Dict[str, int] = defaultdict(int)
        #: Child time accumulated by each open span, innermost last.
        self._open: List[float] = []
        self._covered_s = 0.0
        self._wall_s = 0.0
        self.iterations = 0

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        clock = time.perf_counter
        open_spans = self._open
        self_s = self._self_s
        calls = self._calls
        recorder = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = open_spans.pop()
                self_s[layer] += duration - child
                calls[layer] += 1
                if open_spans:
                    open_spans[-1] += duration
                else:
                    recorder._covered_s += duration

        return span

    def install(self) -> None:
        """Wrap every target that exists; skip the ones that do not."""
        for layer, module_name, path in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None:
                continue
            original = vars(owner).get(attr)
            if not callable(original):
                continue
            wrapped = self._wrap(layer, original)
            setattr(owner, attr, wrapped)
            if not owner_name:
                # Modules that imported the function by name hold their
                # own reference; point those at the wrapper too.
                for name, other in list(sys.modules.items()):
                    if name.startswith("repro") and other is not None:
                        for key, value in list(vars(other).items()):
                            if value is original:
                                setattr(other, key, wrapped)

    def reset(self) -> None:
        """Forget everything recorded so far (set-up and warm-up)."""
        self._self_s.clear()
        self._calls.clear()
        self._covered_s = 0.0
        self._wall_s = 0.0
        self.iterations = 0

    def end_iteration(self, wall_s: float) -> None:
        """Close one measured iteration of ``wall_s`` host seconds."""
        self._wall_s += wall_s
        self.iterations += 1

    def self_ms(self) -> Dict[str, float]:
        """Mean self time per iteration, in ms, for every layer."""
        n = max(1, self.iterations)
        out = {layer: 1e3 * self._self_s.get(layer, 0.0) / n for layer in LAYERS}
        out["other"] = 1e3 * max(0.0, self._wall_s - self._covered_s) / n
        return out

    def calls(self, layer: str) -> float:
        """Mean calls per iteration into one layer."""
        return self._calls.get(layer, 0) / max(1, self.iterations)

    def coverage(self) -> float:
        """Share of measured wall time inside some span."""
        return self._covered_s / self._wall_s if self._wall_s > 0 else 0.0
