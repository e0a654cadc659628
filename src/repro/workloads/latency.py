"""The generative sojourn-time model.

Each component's sojourn time is lognormal with a load-dependent median
and sigma (see :class:`~repro.workloads.spec.ComponentSpec` for the
parameterisation). Interference multiplies the median by the slowdown
from :class:`~repro.interference.model.InterferenceModel` and widens the
sigma by its ``sigma_inflation``.

A Servpod's sojourn is the sum of its components' sojourns — components
in one Servpod share the machine, so they see the same pressure.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError
from repro.workloads.spec import ComponentSpec, ServpodSpec


class LatencyModel:
    """Samples and summarises sojourn times for components and Servpods."""

    # -- analytic component-level quantities --------------------------------

    @staticmethod
    def component_median_ms(spec: ComponentSpec, load: float, slowdown: float = 1.0) -> float:
        """Median sojourn of one component at ``load`` under ``slowdown``."""
        u = _check_load(load)
        if slowdown < 1.0:
            raise ConfigurationError(f"slowdown must be >= 1, got {slowdown}")
        median = spec.base_ms * (
            1.0 + spec.lin_growth * u + spec.sat_growth * u**spec.sat_power / (1.25 - u)
        )
        return median * slowdown

    @staticmethod
    def component_sigma(spec: ComponentSpec, load: float, sigma_inflation: float = 1.0) -> float:
        """Lognormal sigma of one component at ``load``."""
        u = _check_load(load)
        if sigma_inflation < 1.0:
            raise ConfigurationError(f"sigma inflation must be >= 1, got {sigma_inflation}")
        ramp = max(0.0, (u - spec.cov_knee) / (1.0 - spec.cov_knee))
        return spec.sigma0 * (1.0 + spec.sigma_growth * ramp**2) * sigma_inflation

    @classmethod
    def component_mean_ms(
        cls, spec: ComponentSpec, load: float, slowdown: float = 1.0, sigma_inflation: float = 1.0
    ) -> float:
        """Analytic mean sojourn: ``median * exp(sigma**2 / 2)``."""
        median = cls.component_median_ms(spec, load, slowdown)
        sigma = cls.component_sigma(spec, load, sigma_inflation)
        return median * math.exp(sigma**2 / 2.0)

    @classmethod
    def component_cov(
        cls, spec: ComponentSpec, load: float, sigma_inflation: float = 1.0
    ) -> float:
        """Analytic coefficient of variation: ``sqrt(exp(sigma**2) - 1)``."""
        sigma = cls.component_sigma(spec, load, sigma_inflation)
        return math.sqrt(math.exp(sigma**2) - 1.0)

    # -- servpod-level quantities -------------------------------------------

    @classmethod
    def servpod_mean_ms(
        cls, pod: ServpodSpec, load: float, slowdown: float = 1.0, sigma_inflation: float = 1.0
    ) -> float:
        """Analytic mean Servpod sojourn (sum over member components)."""
        return sum(
            cls.component_mean_ms(c, load, slowdown, sigma_inflation)
            for c in pod.components
        )

    @classmethod
    def component_params(
        cls,
        pod: ServpodSpec,
        load: float,
        slowdown: float = 1.0,
        sigma_inflation: float = 1.0,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Per-component lognormal ``(log-median, sigma)`` column vectors.

        The shared parameter builder behind :meth:`sample_servpod_ms` and
        the batched kernel's sampler: both draw from the same
        ``(components, 1)`` parameter blocks, so caching these per
        (pod, slowdown, inflation) tick-state cannot change a single
        draw. ``math.log`` (not ``np.log``) keeps the per-component
        means bit-equal to the historical scalar path.
        """
        comps = pod.components
        means = np.array(
            [math.log(cls.component_median_ms(c, load, slowdown)) for c in comps]
        )
        sigmas = np.array(
            [cls.component_sigma(c, load, sigma_inflation) for c in comps]
        )
        return means[:, None], sigmas[:, None]

    @classmethod
    def sample_servpod_ms(
        cls,
        pod: ServpodSpec,
        load: float,
        n: int,
        rng: np.random.Generator,
        slowdown: float = 1.0,
        sigma_inflation: float = 1.0,
    ) -> np.ndarray:
        """Draw ``n`` Servpod sojourn times (ms) as a float array.

        Each member component contributes an independent lognormal draw;
        the Servpod sojourn is their sum. The whole window is drawn in
        one broadcast ``lognormal`` call over a ``(components, n)``
        block: elementwise generation walks that block in C order, so
        the underlying bit stream is consumed exactly as the historical
        per-component loop consumed it and every draw is bit-identical
        (asserted against a scalar reference in the tests).
        """
        if n < 0:
            raise ConfigurationError(f"cannot sample {n} sojourns")
        means, sigmas = cls.component_params(pod, load, slowdown, sigma_inflation)
        return cls.draw_servpod_ms(means, sigmas, n, rng)

    @staticmethod
    def draw_servpod_ms(
        means: np.ndarray, sigmas: np.ndarray, n: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``n`` Servpod sojourns from a :meth:`component_params` block.

        Callers that visit one Servpod many times under a fixed load and
        state build the block once and draw through here, consuming the
        RNG exactly as :meth:`sample_servpod_ms` would.
        """
        draws = rng.lognormal(mean=means, sigma=sigmas, size=(means.shape[0], n))
        # Sequential row sum preserves the scalar path's addition order.
        total = draws[0]
        for row in draws[1:]:
            total = total + row
        return total


def _check_load(load: float) -> float:
    """Validate a load fraction; values may slightly exceed 1 (overload)."""
    if not (0.0 <= load <= 1.02):
        raise ConfigurationError(f"load fraction must be in [0, 1.02], got {load!r}")
    return float(load)
