"""Phase-plane diagnostics: energy level sets, capture spirals, and the
shifted-system comparison.

The energy is a biquadratic polynomial, so for a given v the set
{H(u, v) = c} solves in closed form: with q = u^2 + v^2,

    H = q^2/4 + (m + omega) q / 2 - m v^2

which is quadratic in q.  Level curves are traced exactly from the
positive root q(v); no grid contouring is needed and every emitted point
satisfies |H - c| at rounding level.  The curve meets the v-axis where
u^2 = q(v) - v^2 = 0, i.e. at the roots of v^4 - 2(m - omega) v^2 - 4c = 0,
so the v-spans of the curve are closed-form too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equations import autonomous_flow, radial_flow, radial_start
from .integrator import Trajectory, integrate, v_sign_detector
from .params import Params, Tolerances
from .shooting import VERDICT_A, classify

# samples of the deviation between the shifted and autonomous flows on [0, T]
_STABILITY_N = 512


class NotCapturedError(ValueError):
    """attraction_report was given a datum that does not classify as captured."""


@dataclass(frozen=True)
class LevelSet:
    level: float
    pieces: tuple[np.ndarray, ...]  # each piece is an (n, 2) closed polyline

    @property
    def points(self) -> np.ndarray:
        if not self.pieces:
            return np.zeros((0, 2))
        return np.vstack(self.pieces)


@dataclass(frozen=True)
class AttractionReport:
    lam: float
    entered_at: float
    terminal_distance: float
    nearest_equilibrium: tuple[float, float]
    u_sign_alternations: int
    trajectory: Trajectory


def _radial_q(level: float, v, p: Params):
    """Positive root q = u^2 + v^2 of H(u, v) = level at fixed v (scalar or
    array); needs level >= -(m - omega)^2 / 4, where the radicand is positive."""
    mp = p.m + p.omega
    return -mp + np.sqrt(mp * mp + 4.0 * (p.m * v * v + level))


def level_set(level: float, p: Params, resolution: int = 512) -> LevelSet:
    """Trace {H = level} as ordered closed polylines.

    The curve is parameterized by v: u = +-sqrt(q(v) - v^2) on the v-spans
    where the radicand is nonnegative, v^2 between the roots
    (m - omega) -+ sqrt((m - omega)^2 + 4 level).  Level values below the
    global minimum -(m-omega)^2/4 give the empty set; the minimum itself
    (within 1e-12) gives the two equilibrium points.  Negative levels give
    two ovals, nonnegative ones a single curve around both; where that
    curve pinches at the saddle (0, 0) it is returned as two lobes that
    meet on the u = 0 axis.
    """
    a = p.gap
    h_min = -(a ** 2) / 4.0
    if level < h_min - 1e-12:
        return LevelSet(level, ())
    if level <= h_min + 1e-12:
        v0 = math.sqrt(a)
        return LevelSet(level, (np.array([[0.0, v0]]), np.array([[0.0, -v0]])))

    root = math.sqrt(a * a + 4.0 * level)
    v_hi = math.sqrt(a + root)
    if level < 0.0:
        # small root in the form free of cancellation
        v_lo = math.sqrt(-4.0 * level / (a + root))
        spans = [(-v_hi, -v_lo), (v_lo, v_hi)]
    elif _radial_q(level, 0.0, p) <= 1e-9:
        spans = [(-v_hi, 0.0), (0.0, v_hi)]
    else:
        spans = [(-v_hi, v_hi)]

    pieces = []
    for va, vb in spans:
        vs = np.linspace(va, vb, resolution)
        us = np.sqrt(np.maximum(_radial_q(level, vs, p) - vs * vs, 0.0))
        right = np.column_stack([us, vs])
        left = np.column_stack([-us[-2:0:-1], vs[-2:0:-1]])
        pieces.append(np.vstack([right, left, right[:1]]))
    return LevelSet(level, tuple(pieces))


def attraction_report(lam: float, p: Params, tol: Tolerances) -> AttractionReport:
    """Follow a captured datum to the horizon and report where it lands.

    The datum must classify as captured (verdict A); the trajectory is then
    re-integrated without the terminal energy event so the spiral toward
    (0, +-sqrt(m-omega)) is visible.  Spiraling is quantified by the number
    of sign alternations of u after entering {H < -delta}.
    """
    tol = tol.resolved(p)
    cls = classify(lam, p, tol)
    if cls.verdict != VERDICT_A:
        raise NotCapturedError(
            f"attraction_report needs a captured datum, got {cls.verdict}({cls.node_count})"
        )
    entered_at = cls.evidence["r"]

    traj = integrate(radial_flow, radial_start(lam, p, tol), p, tol, detectors=[v_sign_detector()])

    v0 = math.sqrt(p.gap)
    u_end, v_end = traj.final_state
    d_plus = math.hypot(u_end, v_end - v0)
    d_minus = math.hypot(u_end, v_end + v0)
    nearest = (0.0, v0) if d_plus <= d_minus else (0.0, -v0)

    mask = traj.r >= entered_at
    signs = np.sign(traj.u[mask])
    signs = signs[signs != 0.0]
    alternations = int(np.count_nonzero(np.diff(signs) != 0.0))

    return AttractionReport(
        lam=lam,
        entered_at=float(entered_at),
        terminal_distance=float(min(d_plus, d_minus)),
        nearest_equilibrium=nearest,
        u_sign_alternations=alternations,
        trajectory=traj,
    )


def stability_compare(
    rho: float, start: tuple[float, float], T: float, p: Params, tol: Tolerances
) -> float:
    """Sup-norm deviation between the shifted and autonomous flows on [0, T].

    The shifted system carries the singular term as u/(r + rho); its flow
    approaches the autonomous one at rate O(1/rho) on bounded intervals.
    """
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    if T < 0.0:
        raise ValueError("T must be nonnegative")
    if T == 0.0:
        return 0.0
    tol = tol.resolved(p)
    grid = np.linspace(0.0, float(T), _STABILITY_N)
    auto = integrate(autonomous_flow, (0.0, start), p, tol, r_end=float(T), r_eval=grid)

    def shifted_flow(p):
        f = radial_flow(p)
        return lambda r, s: f(r + rho, s)

    shift = integrate(shifted_flow, (0.0, start), p, tol, r_end=float(T), r_eval=grid)
    return float(np.max(np.abs(auto.y[:, 0] - shift.y[:, 0]) + np.abs(auto.y[:, 1] - shift.y[:, 1])))
