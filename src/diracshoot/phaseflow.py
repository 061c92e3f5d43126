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
from typing import NamedTuple

from . import _lazy as np
from .equations import autonomous_flow, equilibria, radial_flow
from .integrator import Trajectory, solve
from .params import Params, Tolerances
from .shooting import VERDICT_A, decide

# samples of the deviation between the shifted and autonomous flows on [0, T]
_STABILITY_N = 512


class NotCapturedError(ValueError):
    """attraction_report was given a datum that does not classify as captured."""


class AttractionReport(NamedTuple):
    entered_at: float
    terminal_distance: float
    nearest_equilibrium: tuple[float, float]
    u_sign_alternations: int


def _radial_q(level: float, v: float, p: Params) -> float:
    """Positive root q = u^2 + v^2 of H(u, v) = level at fixed v; needs
    level >= -(m - omega)^2 / 4, where the radicand is positive."""
    mp = p.m + p.omega
    return -mp + math.sqrt(mp * mp + 4.0 * (p.m * v * v + level))


def check_level_set(level: float, p: Params, resolution: int) -> None:
    """Raise ValueError where level_set cannot trace {H = level}: from a resolution below 2, or where the set
    leaves the float range, as q overflows at the curve's top v (from about 4.5e307 at (1, 0.5))."""
    if not resolution >= 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    a = p.gap
    if level > -(a ** 2) / 4.0:  # below, the set is empty or the two equilibria
        if not math.isfinite(_radial_q(level, math.sqrt(a + math.sqrt(a * a + 4.0 * level)), p)):
            raise ValueError(f"the level set of {level:g} leaves the float range at m = {p.m:g}, omega = {p.omega:g}")


def level_set(level: float, p: Params, resolution: int = 512) -> tuple[list[tuple[float, float]], ...]:
    """Trace {H = level} as ordered closed polylines, each a list of (u, v)
    pairs, from resolution >= 2 values of v per span.

    The curve is parameterized by v: u = +-sqrt(q(v) - v^2) on the v-spans
    where the radicand is nonnegative, v^2 between the roots
    (m - omega) -+ sqrt((m - omega)^2 + 4 level).  Level values below the
    global minimum -(m-omega)^2/4 give the empty set; the minimum itself
    (within 1e-12) gives the two equilibrium points.  Negative levels give
    two ovals, nonnegative ones a single curve around both; where that
    curve pinches at the saddle (0, 0) it is returned as two lobes that
    meet on the u = 0 axis.  A level whose set leaves the float range
    raises (check_level_set).
    """
    check_level_set(level, p, resolution)
    a = p.gap
    h_min = -(a ** 2) / 4.0
    if level < h_min - 1e-12:
        return ()
    if level <= h_min + 1e-12:
        return tuple([pt] for pt, _H in equilibria(p)[1:])

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
        # np.linspace(va, vb, resolution), bitwise: i step + va, the end point exact
        step = (vb - va) / (resolution - 1)
        vs = [i * step + va for i in range(resolution - 1)] + [vb]
        right = [(math.sqrt(max(_radial_q(level, v, p) - v * v, 0.0)), v) for v in vs]
        pieces.append(right + [(-u, v) for u, v in right[-2:0:-1]] + right[:1])
    return tuple(pieces)


def attraction_report(traj: Trajectory, p: Params) -> AttractionReport:
    """Report where the horizon run traj of a captured datum lands.

    traj is shooting.horizon_run(lam, p, tol), which goes on past the capture
    to show the spiral toward (0, +-sqrt(m-omega)); its sign alternations of
    u after entering {H < -delta} quantify the spiraling.
    """
    verdict, entered_at = decide(traj, p)
    if verdict != VERDICT_A:
        raise NotCapturedError(
            f"attraction_report needs a captured datum, got {verdict}({traj.nodes_before(entered_at)})"
        )
    u_end, v_end = traj.final_state
    # the nearer well (0, +-sqrt(m - omega)); min keeps the first, the upper, on a tie
    wells = [(math.hypot(u_end - u, v_end - v), (u, v)) for (u, v), _H in equilibria(p)[1:]]
    distance, nearest = min(wells, key=lambda w: w[0])

    r, u, _v = traj.columns
    signs = [x > 0.0 for x, ri in zip(u, r) if ri >= entered_at and x != 0.0]
    alternations = sum(a != b for a, b in zip(signs, signs[1:]))

    return AttractionReport(
        entered_at=float(entered_at),
        terminal_distance=float(distance),
        nearest_equilibrium=nearest,
        u_sign_alternations=alternations,
    )


def stability_compare(
    rhos, start: tuple[float, float], T: float, p: Params, tol: Tolerances
) -> list[float]:
    """Sup-norm deviation between the shifted and autonomous flows on [0, T],
    one per shift rho in rhos; the autonomous flow runs once for all.

    The shifted system carries the singular term as u/(r + rho); its flow
    approaches the autonomous one at rate O(1/rho) on bounded intervals.
    It wraps radial_flow rather than running it from r = rho: there r + h
    drops the step's digits, so at rho = 1e10 that run reads 6.1e-6 for
    1.04e-7 and from rho = 1e12 its step size underflows, while this form
    holds up to rho = 1e17.
    """
    if not all(rho > 0.0 for rho in rhos):
        raise ValueError("rho must be positive")
    if T < 0.0:
        raise ValueError("T must be nonnegative")
    if T == 0.0:
        return [0.0 for _ in rhos]
    grid = np.linspace(0.0, float(T), _STABILITY_N)
    kw = dict(rel=tol.rel, abs_tol=tol.abs)
    auto = solve(autonomous_flow(p), (0.0, T), start, **kw).sample(grid)
    f = radial_flow(p)
    runs = (solve(lambda r, s: f(r + rho, s), (0.0, T), start, **kw) for rho in rhos)
    return [float(np.max(np.abs(auto - t.sample(grid)).sum(axis=1))) for t in runs]
