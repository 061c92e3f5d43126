"""Physical parameters and numerical policy shared by all solvers."""

from __future__ import annotations

import math
from typing import NamedTuple


def checked(record_type):
    """Build each record_type (a NamedTuple, whose body may not define __new__) through _check, also in _replace."""
    make = record_type.__new__
    record_type.__new__ = lambda cls, *args, **kwargs: make(cls, *args, **kwargs)._check()
    record_type._make = classmethod(lambda cls, fields: cls(*fields))
    return record_type


@checked
class Params(NamedTuple):
    """Mass m and frequency omega of the radial system; needs 0 < omega < m."""

    m: float = 1.0
    omega: float = 0.5

    def _check(self):
        if not self.m > 0:
            raise ValueError(f"m must be positive, got {self.m}")
        if not 0.0 < self.omega < self.m:
            raise ValueError(f"need 0 < omega < m, got omega={self.omega}, m={self.m}")
        return self

    @property
    def gap(self) -> float:
        """Spectral gap m - omega, which sets the energy scale."""
        return self.m - self.omega

    @property
    def mu(self) -> float:
        """Decay rate mu = sqrt(m^2 - omega^2) of the Bessel tail K(mu r)."""
        return math.sqrt(self.m * self.m - self.omega * self.omega)


@checked
class Tolerances(NamedTuple):
    """Integrator tolerances and horizon.

    rmax defaults to None and is derived from the parameters: rmax = 40 / mu
    is forty decay lengths of the tail e^(-mu r)/sqrt(r).  The classifier's
    capture thresholds are no tolerances: shooting fixes them (ETA and
    capture_depth).
    """

    rel: float = 1e-10
    abs: float = 1e-10
    rmax: float | None = None

    def _check(self):
        for name in ("rel", "abs"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.rmax is not None and not self.rmax > 0:
            raise ValueError("rmax must be positive")
        return self

    def resolved(self, p: Params) -> "Tolerances":
        """Fill in the parameter-dependent default of rmax.

        An m - omega whose square, or 1e-8 of it (the capture depth),
        leaves the float range raises, and so does an m^2 - omega^2 that is
        not a positive finite float, and so does an rmax below 1e-303 decay
        lengths 1/mu, where the tail's Bessel quadrature and the series start
        at rmax/2 leave the float range.  An instance with rmax set comes back.
        """
        if not 1e-150 < p.gap < 1e150:
            raise ValueError(f"m - omega = {p.gap:g} must lie in (1e-150, 1e150), where the "
                             f"capture depth 1e-8 (m - omega)^2 is a positive finite float")
        if not 0.0 < p.mu < math.inf:
            raise ValueError(f"m^2 - omega^2 at m = {p.m:g}, omega = {p.omega:g} is not a positive finite float")
        if self.rmax is not None:
            if not p.mu * self.rmax >= 1e-303:
                raise ValueError(f"rmax = {self.rmax:g} must be at least 1e-303 decay lengths 1/mu = {1e-303 / p.mu:g}")
            return self
        return self._replace(rmax=40.0 / p.mu)
