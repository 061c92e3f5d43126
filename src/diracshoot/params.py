"""Physical parameters and numerical policy shared by all solvers."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Params:
    """Mass m and frequency omega of the radial system; needs 0 < omega < m."""

    m: float = 1.0
    omega: float = 0.5

    def __post_init__(self):
        if not self.m > 0:
            raise ValueError(f"m must be positive, got {self.m}")
        if not 0.0 < self.omega < self.m:
            raise ValueError(f"need 0 < omega < m, got omega={self.omega}, m={self.m}")

    @property
    def gap(self) -> float:
        """Spectral gap m - omega that sets the decay scale."""
        return self.m - self.omega


@dataclass(frozen=True)
class Tolerances:
    """Integrator and detection thresholds.

    delta and rmax default to None and are derived from the parameters:
    delta = 1e-8 * (m - omega)^2 keeps the negative-energy test away from
    the separatrix {H = 0}; rmax = 40 / (m - omega) puts the horizon deep
    into the exponential tail.
    """

    rel: float = 1e-10
    abs: float = 1e-10
    eta: float = 1e-8
    delta: float | None = None
    rmax: float | None = None

    def __post_init__(self):
        for name in ("rel", "abs", "eta"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.delta is not None and not self.delta > 0:
            raise ValueError("delta must be positive")
        if self.rmax is not None and not self.rmax > 0:
            raise ValueError("rmax must be positive")

    def resolved(self, p: Params) -> "Tolerances":
        """Fill in parameter-dependent defaults for delta and rmax.

        H >= -(m - omega)^2 / 4 everywhere, so a delta at or past that depth
        of the energy well is one that no datum can reach: it raises, as does
        an m - omega whose square, or 1e-8 of it, leaves the float range.  An
        instance with both set comes back as it is.
        """
        if not 1e-150 < p.gap < 1e150:
            raise ValueError(f"m - omega = {p.gap:g} must lie in (1e-150, 1e150), where the "
                             f"default delta 1e-8 (m - omega)^2 is a positive finite float")
        depth = p.gap ** 2 / 4.0
        if self.delta is not None and not self.delta < depth:
            raise ValueError(f"delta must be below the energy well's depth "
                             f"(m - omega)^2/4 = {depth:g}, got {self.delta:g}")
        if self.delta is not None and self.rmax is not None:
            return self
        delta = self.delta if self.delta is not None else 1e-8 * p.gap ** 2
        rmax = self.rmax if self.rmax is not None else 40.0 / p.gap
        return replace(self, delta=delta, rmax=rmax)
