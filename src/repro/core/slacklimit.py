"""Slacklimit derivation — Algorithm 1 (findSlacklimit).

The slacklimit of a Servpod is the smallest latency slack at which BE
jobs may still *grow* on its machine; it is inversely related to the
Servpod's interference tolerance. Algorithm 1 lowers each Servpod's
candidate limit from 1.0 in steps of ``1 − C_i/ΣC`` (so low-contribution
Servpods plunge toward small limits immediately), runs the co-located
system at each candidate with every other Servpod held at the
conservative 1.0, and backtracks one step on the first SLA violation.

The paper recommends running the probe with representative mixed BE jobs
several times; :func:`find_slacklimits_independent` takes the probe as a
callback so the caller chooses the BE mix and run length.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping

from repro.errors import ProfilingError

#: Lowest candidate slacklimit — a zero limit would let BE jobs grow even
#: with no latency headroom at all.
MIN_SLACKLIMIT = 0.01

#: A probe runs the co-located system under candidate limits and reports
#: whether the SLA was violated.
SlaProbe = Callable[[Mapping[str, float]], bool]


def find_slacklimit_for_pod(
    pod: str,
    contributions: Mapping[str, float],
    sla_probe: SlaProbe,
    max_rounds: int = 50,
) -> float:
    """One Servpod's Algorithm-1 walk, every other Servpod conservative.

    This is the independent unit of work the parallel profiling pipeline
    fans out: the walk touches no state outside its own candidate
    sequence, and the probe's randomness is derived from the candidate
    configuration itself (see
    :func:`repro.experiments.colocation.make_sla_probe`), so running the
    walks serially or across processes yields bit-identical limits.
    """
    if pod not in contributions:
        raise ProfilingError(f"unknown Servpod {pod!r}")
    total = sum(contributions.values())
    if total <= 0:
        raise ProfilingError("total contribution must be positive")
    step = 1.0 - contributions[pod] / total
    if step <= 1e-6:
        return 1.0
    current = 1.0
    record: List[float] = []
    for _ in range(max_rounds):
        candidate = current - step  # line 5
        if candidate <= 0:
            break
        candidate = max(candidate, MIN_SLACKLIMIT)
        if candidate == current:
            break
        config = {other: 1.0 for other in contributions}
        config[pod] = candidate
        if sla_probe(config):  # lines 6-7
            break
        record.append(candidate)  # line 12
        current = candidate
    return record[-1] if record else 1.0  # lines 8-10


def find_slacklimits_independent(
    contributions: Mapping[str, float],
    sla_probe: SlaProbe,
    max_rounds: int = 50,
) -> Dict[str, float]:
    """Algorithm 1 run once per Servpod, others held conservative.

    The pseudocode's signature — ``findSlacklimit(C_i)`` returning "the
    slacklimit for Servpod i" — reads as a per-Servpod procedure: while
    Servpod *i*'s candidate limit walks down from 1.0 in steps of
    ``1 − C_i/ΣC``, every other Servpod keeps the conservative initial
    limit. This matches the paper's published outcomes (each Servpod's
    limit is a multiple of its own step) and is robust: one Servpod's
    violation never resets the others' limits. Delegates to
    :func:`find_slacklimit_for_pod` per Servpod — the parallel pipeline
    runs the very same walks, one task each.
    """
    if not contributions:
        raise ProfilingError("no contributions provided")
    total = sum(contributions.values())
    if total <= 0:
        raise ProfilingError("total contribution must be positive")
    return {
        pod: find_slacklimit_for_pod(pod, contributions, sla_probe, max_rounds)
        for pod in contributions
    }


def candidate_signature(slacklimits: Mapping[str, float]) -> str:
    """A canonical text signature of one candidate configuration.

    Used to derive the SLA probe's random streams from the candidate
    *itself* rather than from a call counter, so a probe evaluates any
    given configuration with the same randomness no matter which
    Servpod's walk (or which process) asked. ``float.hex`` keeps the
    encoding exact and platform-independent.
    """
    return ",".join(
        f"{pod}={float(slacklimits[pod]).hex()}" for pod in sorted(slacklimits)
    )


def expected_first_step(contributions: Mapping[str, float]) -> Dict[str, float]:
    """The candidate limits after Algorithm 1's first step.

    Equal to each Servpod's *normalized* contribution — a useful analytic
    cross-check: when no SLA violation occurs, a Servpod with normalized
    contribution below 0.5 ends up with exactly this slacklimit.
    """
    total = sum(contributions.values())
    if total <= 0:
        raise ProfilingError("total contribution must be positive")
    return {pod: c / total for pod, c in contributions.items()}


def violation_free_fixed_point(contributions: Mapping[str, float]) -> Dict[str, float]:
    """Algorithm 1's outcome when the probe never reports a violation.

    Each Servpod steps down from 1.0 by ``1 − C_i/ΣC`` until the next
    step would cross :data:`MIN_SLACKLIMIT`; the last reachable value is
    its slacklimit. For normalized contributions below 0.5 that is the
    contribution itself; above 0.5 the loop takes several steps (e.g.
    c = 0.74 → 1 − 3·0.26 = 0.22).
    """
    total = sum(contributions.values())
    if total <= 0:
        raise ProfilingError("total contribution must be positive")
    limits: Dict[str, float] = {}
    for pod, c in contributions.items():
        step = 1.0 - c / total
        if step <= 1e-6:
            # A Servpod carrying (essentially) the whole contribution
            # never moves off the conservative initial limit.
            limits[pod] = 1.0
            continue
        value = 1.0
        while value - step > 0:
            value -= step
        limits[pod] = max(value, MIN_SLACKLIMIT)
    return limits
