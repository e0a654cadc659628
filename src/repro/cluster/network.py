"""qdisc-style network bandwidth shaping.

The paper's network subcontroller continuously measures the LC service's
bandwidth ``B_LC`` and grants BE jobs ``B_link - 1.2 * B_LC`` (a 20%
guard band on top of the LC's observed traffic).

Fault injection can degrade the link (:meth:`Nic.set_link_scale`): the
*effective* capacity shrinks — a renegotiated 10G→1G link, a flapping
transceiver — and both the BE cap and the LC's own traffic are bounded
by it. The unservable part of the LC's demand is reported through
:meth:`Nic.lc_shortfall_fraction` so the interference model can surface
it as network pressure.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


class Nic:
    """A link with qdisc-style rate allocation between LC and BE traffic.

    Parameters
    ----------
    link_gbps:
        Physical link capacity in Gb/s.
    lc_guard_factor:
        The LC reservation multiplier; the paper uses 1.2.
    """

    def __init__(self, link_gbps: float = 10.0, lc_guard_factor: float = 1.2) -> None:
        if link_gbps <= 0:
            raise ConfigurationError(f"link capacity must be positive, got {link_gbps}")
        if lc_guard_factor < 1.0:
            raise ConfigurationError(
                f"guard factor below 1.0 would starve the LC, got {lc_guard_factor}"
            )
        self.link_gbps = float(link_gbps)
        self.lc_guard_factor = float(lc_guard_factor)
        self._link_scale = 1.0
        self._lc_demand_gbps = 0.0
        self._lc_gbps = 0.0
        self._be_cap_gbps = self.link_gbps

    @property
    def link_scale(self) -> float:
        """Current degradation scale applied to the link (1.0 = healthy)."""
        return self._link_scale

    @property
    def effective_link_gbps(self) -> float:
        """Usable link capacity after degradation."""
        return self.link_gbps * self._link_scale

    @property
    def lc_gbps(self) -> float:
        """Most recently observed LC traffic in Gb/s (capacity-bounded)."""
        return self._lc_gbps

    @property
    def be_cap_gbps(self) -> float:
        """Current bandwidth cap applied to BE traffic in Gb/s."""
        return self._be_cap_gbps

    def set_link_scale(self, scale: float) -> None:
        """Degrade (or restore) the link to ``scale`` of its capacity.

        Recomputes the BE cap against the already-observed LC traffic so
        a mid-window degradation takes effect immediately.
        """
        if not (0.0 < scale <= 1.0):
            raise ConfigurationError(f"link scale must be in (0, 1], got {scale}")
        self._link_scale = float(scale)
        self.observe_lc_traffic(self._lc_demand_gbps)

    def observe_lc_traffic(self, gbps: float) -> float:
        """Record LC traffic and recompute the BE cap; returns the new cap.

        BE cap = ``effective_link - guard * B_LC``, floored at zero. LC
        traffic itself is bounded by the effective capacity — a degraded
        link cannot carry more than it has.
        """
        if gbps < 0:
            raise ConfigurationError(f"negative traffic {gbps}")
        self._lc_demand_gbps = float(gbps)
        capacity = self.effective_link_gbps
        self._lc_gbps = min(self._lc_demand_gbps, capacity)
        self._be_cap_gbps = max(0.0, capacity - self.lc_guard_factor * self._lc_gbps)
        return self._be_cap_gbps

    def lc_shortfall_fraction(self) -> float:
        """Fraction of the LC's traffic demand the link cannot carry.

        0 on a healthy link; grows toward 1 as degradation starves the
        LC. The cluster fault injector feeds this into the interference
        model as network pressure — it is how the top controller *sees*
        a NIC collapse.
        """
        if self._lc_demand_gbps <= 0:
            return 0.0
        unserved = max(0.0, self._lc_demand_gbps - self.effective_link_gbps)
        return unserved / self._lc_demand_gbps

    def be_share(self, demand_gbps: float) -> float:
        """Bandwidth actually granted to BE traffic demanding ``demand_gbps``."""
        if demand_gbps < 0:
            raise ConfigurationError(f"negative demand {demand_gbps}")
        return min(demand_gbps, self._be_cap_gbps)

    def lc_pressure(self, be_demand_gbps: float) -> float:
        """Residual pressure BE traffic puts on the LC's network headroom.

        With shaping in place, BE traffic can still consume link headroom;
        the pressure is the granted BE share as a fraction of capacity.
        """
        return self.be_share(be_demand_gbps) / self.effective_link_gbps
