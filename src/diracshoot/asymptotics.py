"""Blow-up rescaling, the explicit bubble, and the perturbation expansion.

Writing eps = 1/lambda and (U, V)(r) = eps * (u, v)(eps^2 r) turns the
radial system into one with eps^2-small mass terms and datum V(0) = 1.
Its eps -> 0 limit has the closed-form solution

    U0(r) = 2 r / (4 + r^2),   V0(r) = 4 / (4 + r^2)

(the "bubble").  The rescaled solution is expanded around the bubble as

    U = U0 + eps^2 h1 + eps^4 h2,   V = V0 + eps^2 k1 + eps^4 k2

where (h1, k1) solves a linear system driven by the bubble and (h2, k2)
collects the exact remainder.  The remainder is computed two independent
ways: by subtracting the expansion from the rescaled solution, and by
integrating the exact remainder equations; their agreement validates the
source-term algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equations import rescaled_hamiltonian, taylor_start_scaled
from .integrator import EventKind, Trajectory, solve, v_sign_detector
from .params import Params, Tolerances

# samples: of the k1 log-law fit over its radius window, of the remainder on
# (0, 1/eps), and of the distance to the bubble on [0, T]
_LOG_FIT_WINDOW = (1e3, 1e6)
_LOG_FIT_N = 200
_REMAINDER_N = 800
_CONVERGENCE_N = 1024


def bubble(r):
    """Closed-form blow-up profile (U0, V0); accepts scalars or arrays."""
    r = np.asarray(r, dtype=float)
    d = 4.0 + r * r
    return 2.0 * r / d, 4.0 / d


def bubble_residual(grid) -> float:
    """Max residual of the bubble in the massless limiting system.

    Uses the exact closed-form derivatives; identically zero in exact
    arithmetic, so the value reflects rounding only.
    """
    grid = np.asarray(grid, dtype=float)
    if np.any(grid <= 0.0):
        raise ValueError("grid must be positive")
    u0, v0 = bubble(grid)
    d = (4.0 + grid * grid) ** 2
    du0, dv0 = (8.0 - 2.0 * grid * grid) / d, -8.0 * grid / d
    q = u0 * u0 + v0 * v0
    res_u = np.abs(du0 + u0 / grid - q * v0)
    res_v = np.abs(dv0 + q * u0)
    return float(np.max(res_u + res_v))


def _rhs_rescaled(eps: float, p: Params):
    e2m = eps * eps * p.gap
    e2p = eps * eps * (p.m + p.omega)

    def f(r, y):
        u, v = y
        q = u * u + v * v
        return q * v - e2m * v - u / r, -q * u - e2p * u

    return f


def integrate_rescaled(
    eps: float,
    p: Params,
    tol: Tolerances,
    r_end: float | None = None,
    r_eval=None,
    detectors=(),
) -> Trajectory:
    """Integrate the rescaled system from (0, 1) up to r_end (default 1/eps).

    The associated rescaled energy is recorded as the H trace; it is
    non-increasing along the flow and bounded by its datum value <= 1.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"need 0 <= eps < 1, got {eps}")
    if r_end is None and eps == 0.0:
        raise ValueError("the massless limit needs an explicit r_end")
    tol = tol.resolved(p)
    end = float(r_end) if r_end is not None else 1.0 / eps
    r0 = tol.r0
    y0 = taylor_start_scaled(1.0, eps * eps * p.gap, eps * eps * (p.m + p.omega), r0)
    return solve(
        _rhs_rescaled(eps, p),
        (r0, end),
        y0,
        rel=tol.rel,
        abs_tol=tol.abs,
        detectors=detectors,
        r_eval=r_eval,
        energy=lambda y: rescaled_hamiltonian(y, eps, p),
    )


def node_radius(traj: Trajectory) -> float | None:
    """First zero of V on a rescaled run with a v_sign_detector, or None."""
    hits = traj.events_of(EventKind.V_SIGN_CHANGE)
    return float(hits[0].r) if hits else None


# --- first-order perturbation ----------------------------------------------


@dataclass(frozen=True)
class FirstOrderSamples:
    r: np.ndarray
    h1: np.ndarray  # correction to U
    k1: np.ndarray  # correction to V


@dataclass(frozen=True)
class LogLawFit:
    """Affine fit k1 ~ -c ln r + intercept of the log-growing component.

    The U-correction h1 stays bounded (and decays); the V-correction k1
    grows like -2(m+omega) ln r.  max_rel_residual is the sup of the fit
    residual relative to the sup of |k1| over the window; h1_sup records
    the largest |h1| on the window as evidence of its boundedness.
    """

    c: float
    intercept: float
    max_rel_residual: float
    h1_sup: float
    window: tuple[float, float]


def _rhs_first_order(p: Params):
    gm, gp = p.gap, p.m + p.omega

    def f(r, y):
        h1, k1 = y
        d = 4.0 + r * r
        u0 = 2.0 * r / d
        v0 = 4.0 / d
        dh1 = -gm * v0 + 2.0 * u0 * v0 * h1 + (u0 * u0 + 3.0 * v0 * v0) * k1 - h1 / r
        dk1 = -gp * u0 - 2.0 * u0 * v0 * k1 - (3.0 * u0 * u0 + v0 * v0) * h1
        return dh1, dk1

    return f


def _first_order_start(p: Params, r0: float) -> tuple[float, float]:
    # series matching at the singular origin: h1 = -(m-omega) r/2 + O(r^3),
    # k1 = -omega r^2/2 + O(r^4)
    return -0.5 * p.gap * r0, -0.5 * p.omega * r0 * r0


def integrate_first_order(
    p: Params, tol: Tolerances, r_end: float, r_eval=None
) -> FirstOrderSamples:
    """Solve the linear first-order perturbation system with h1(0)=k1(0)=0."""
    if r_end <= 0.0:
        raise ValueError("r_end must be positive")
    tol = tol.resolved(p)
    r0 = tol.r0
    traj = solve(
        _rhs_first_order(p),
        (r0, float(r_end)),
        _first_order_start(p, r0),
        rel=tol.rel,
        abs_tol=tol.abs,
        r_eval=r_eval,
    )
    return FirstOrderSamples(traj.r, traj.y[:, 0], traj.y[:, 1])


def first_order_log_fit(p: Params, tol: Tolerances) -> LogLawFit:
    """Fit the logarithmic growth law of the first-order V-correction on
    r in [1e3, 1e6]."""
    r_a, r_b = _LOG_FIT_WINDOW
    grid = np.geomspace(r_a, r_b, _LOG_FIT_N)
    fo = integrate_first_order(p, tol, r_b, r_eval=grid)
    L = np.log(fo.r)
    design = np.column_stack([L, np.ones_like(L)])
    coef, *_ = np.linalg.lstsq(design, fo.k1, rcond=None)
    resid = fo.k1 - design @ coef
    return LogLawFit(
        c=float(-coef[0]),
        intercept=float(coef[1]),
        max_rel_residual=float(np.max(np.abs(resid)) / np.max(np.abs(fo.k1))),
        h1_sup=float(np.max(np.abs(fo.h1))),
        window=_LOG_FIT_WINDOW,
    )


# --- remainder --------------------------------------------------------------

# rel_discrepancy below which the two remainder routes agree (verify checks it
# at eps = 0.2); at or above it the Hermite error of the rescaled samples over
# eps^4 (see PerturbationRecord) keeps the crosscheck from resolving the remainder.
CROSSCHECK_REL_BOUND = 1e-4


def remainder_bound_constant(p: Params) -> float:
    """The constant mu^2 = m^2 - omega^2 of the remainder growth law.

    For large r the h2 equation reduces to (r h2)' = -(m - omega) r k1 +
    O(ln^2 r / r), and k1 = -2(m + omega) ln r + b + o(1), so
    h2 = mu^2 r (ln r - a) + o(r) with an offset a > 0 (2.86 at (1, 0.5)),
    while k2 grows only like ln^3 r.  Hence sup |h2|+|k2| on (0, 1/eps) is
    mu^2/eps (ln(1/eps) - a) to leading order: it stays below
    mu^2 ln(1/eps)/eps for small eps and approaches it from below, so mu^2 is
    the smallest eps-independent constant in that bound.
    """
    return p.m * p.m - p.omega * p.omega


@dataclass(frozen=True)
class PerturbationRecord:
    """Remainder (h2, k2) on (0, 1/eps) computed along two routes.

    h2/k2 come from integrating the exact remainder equations; the
    _subtraction arrays divide the expansion defect of the rescaled
    solution by eps^4.  max_discrepancy / rel_discrepancy quantify the
    route agreement; threshold_ok records |h2|+|k2| < eps^(-3/2) with
    breach_r the first violation radius (None when respected), node_radius
    the first zero of V in the rescaled run (None when V stays positive).

    sup_norm grows like mu^2/eps (ln(1/eps) - a), below the bound
    mu^2 ln(1/eps)/eps of remainder_bound_constant for small eps (near
    omega/m = 1 the ln^3 growth of k2 can exceed it at moderate eps).  The
    subtraction route divides the cubic-Hermite error of the rescaled samples
    between step ends (2.3e-8 at eps = 0.2, 1.2e-10 at the step ends) by
    eps^4, so it resolves the remainder only while that is far below sup_norm:
    rel_discrepancy is 1.1e-5 at eps = 0.2 and reaches CROSSCHECK_REL_BOUND
    near eps = 0.1 at the default tolerance (5.9e-4 at 0.05, 2e-2 at 0.0125).
    """

    epsilon: float
    r: np.ndarray
    h1: np.ndarray
    k1: np.ndarray
    h2: np.ndarray
    k2: np.ndarray
    h2_subtraction: np.ndarray
    k2_subtraction: np.ndarray
    max_discrepancy: float
    rel_discrepancy: float
    sup_norm: float
    threshold: float
    threshold_ok: bool
    breach_r: float | None
    node_radius: float | None


def _rhs_joint(eps: float, p: Params):
    """(h1, k1, h2, k2) system with the exact remainder sources.

    With w = h1 + eps^2 h2, z = k1 + eps^2 k2 and the cubic nonlinearity
    N(U, V) = (U^2 + V^2)(V, -U) split at the bubble into its linear part DN
    and quadratic and cubic parts Q and C, the remainder obeys

        (h2, k2)' = DN (h2, k2) + Q(w, z) + eps^2 C(w, z)
                    - ((m - omega) z, (m + omega) w) - (h2 / r, 0)

    exactly: the expansion of a cubic around the bubble is finite.
    """
    gm, gp = p.gap, p.m + p.omega
    e2 = eps * eps
    first = _rhs_first_order(p)

    def f(r, y):
        h1, k1, h2, k2 = y
        dh1, dk1 = first(r, (h1, k1))
        d = 4.0 + r * r
        u = 2.0 * r / d
        v = 4.0 / d
        w = h1 + e2 * h2
        z = k1 + e2 * k2
        c = e2 * (w * w + z * z)
        dh2 = 2.0 * u * v * h2 + (u * u + 3.0 * v * v) * k2 - gm * z - h2 / r
        dh2 += v * w * w + 2.0 * u * w * z + 3.0 * v * z * z + c * z
        dk2 = -(3.0 * u * u + v * v) * h2 - 2.0 * u * v * k2 - gp * w
        dk2 -= 3.0 * u * w * w + 2.0 * v * w * z + u * z * z + c * w
        return dh1, dk1, dh2, dk2

    return f


def integrate_remainder(eps: float, p: Params, tol: Tolerances) -> PerturbationRecord:
    """Compute the remainder (h2, k2) on (0, 1/eps) along both routes.

    The joint flow gives (h2, k2) at any eps, with sup |h2|+|k2| growing like
    mu^2/eps (ln(1/eps) - a) (see remainder_bound_constant); the subtraction
    route is an independent check only for eps >~ 0.05 at the default
    tolerance, as its error is the rescaled samples' Hermite error / eps^4.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"need 0 < eps < 1, got {eps}")
    tol = tol.resolved(p)
    r0 = tol.r0
    r_end = 1.0 / eps
    grid = np.linspace(r0, r_end, _REMAINDER_N)

    y0 = (*_first_order_start(p, r0), 0.0, 0.25 * (p.m * p.m - p.omega * p.omega) * r0 * r0)
    joint = solve(
        _rhs_joint(eps, p),
        (r0, r_end),
        y0,
        rel=tol.rel,
        abs_tol=tol.abs,
        r_eval=grid,
    )
    h1, k1 = joint.y[:, 0], joint.y[:, 1]
    h2, k2 = joint.y[:, 2], joint.y[:, 3]

    # a detector leaves the steps as they are: a run stopped at the node agrees
    resc = integrate_rescaled(eps, p, tol, r_eval=grid, detectors=[v_sign_detector()])
    u0, v0 = bubble(grid)
    e2 = eps * eps
    e4 = e2 * e2
    h2_sub = (resc.y[:, 0] - u0 - e2 * h1) / e4
    k2_sub = (resc.y[:, 1] - v0 - e2 * k1) / e4

    diff = np.maximum(np.abs(h2 - h2_sub), np.abs(k2 - k2_sub))
    norm1 = np.abs(h2) + np.abs(k2)
    sup = float(np.max(norm1))
    threshold = eps ** -1.5
    breaches = np.nonzero(norm1 >= threshold)[0]
    return PerturbationRecord(
        epsilon=eps,
        r=grid,
        h1=h1,
        k1=k1,
        h2=h2,
        k2=k2,
        h2_subtraction=h2_sub,
        k2_subtraction=k2_sub,
        max_discrepancy=float(np.max(diff)),
        rel_discrepancy=float(np.max(diff) / max(sup, 1e-300)),
        sup_norm=sup,
        threshold=threshold,
        threshold_ok=len(breaches) == 0,
        breach_r=float(grid[breaches[0]]) if len(breaches) else None,
        node_radius=node_radius(resc),
    )


# --- uniform convergence -----------------------------------------------------


@dataclass(frozen=True)
class EpsilonStudy:
    """Sup-norm distance to the bubble on [0, T] per eps, with consecutive
    ratios (second-order rate gives ratios near 4 for eps halving) and the
    first V-node radius per eps when one occurs before 1/eps, as read off
    each eps's remainder record."""

    epsilons: tuple[float, ...]
    sup_errors: tuple[float, ...]
    ratios: tuple[float, ...]
    node_radii: tuple[float | None, ...]
    T: float


def convergence_study(records, T: float, p: Params, tol: Tolerances) -> EpsilonStudy:
    """Rate of convergence of the rescaled flow to the bubble, per eps of the
    integrate_remainder records (a sequence in strictly decreasing eps)."""
    eps_list = [float(rec.epsilon) for rec in records]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("epsilons must be strictly decreasing")
    tol_r = tol.resolved(p)
    grid = np.linspace(tol_r.r0, float(T), _CONVERGENCE_N)
    u0, v0 = bubble(grid)
    errs = []
    for eps in eps_list:
        traj = integrate_rescaled(eps, p, tol, r_end=float(T), r_eval=grid)
        errs.append(float(np.max(np.abs(traj.y[:, 0] - u0) + np.abs(traj.y[:, 1] - v0))))
    ratios = tuple(a / b for a, b in zip(errs, errs[1:]))
    nodes = tuple(rec.node_radius for rec in records)
    return EpsilonStudy(tuple(eps_list), tuple(errs), ratios, nodes, float(T))
