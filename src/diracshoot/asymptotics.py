"""Blow-up rescaling, the explicit bubble, and the perturbation expansion.

Writing eps = 1/lambda and (U, V)(r) = eps * (u, v)(eps^2 r) turns the
radial system into one with eps^2-small mass terms and datum V(0) = 1.
Its eps -> 0 limit has the closed-form solution

    U0(r) = 2 r / (4 + r^2),   V0(r) = 4 / (4 + r^2)

(the "bubble").  The rescaled solution is expanded around the bubble as

    U = U0 + eps^2 h1 + eps^4 h2,   V = V0 + eps^2 k1 + eps^4 k2

where (h1, k1) solves a linear system driven by the bubble, evaluated in
closed form (one dilogarithm; integrate_first_order), and (h2, k2)
collects the exact remainder.  The remainder is computed two independent
ways: by subtracting the expansion from the rescaled solution, and by
integrating the exact remainder equations; their agreement validates the
source-term algebra.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from . import _lazy as np
from .equations import radial_flow, series_polynomials, series_start
from .integrator import Detector, EventKind, Trajectory, formula, sample, solve, v_sign
from .params import Params, Tolerances
from .shooting import lsq_slope

# the radius window of the k1 log-law fit, and samples: of the remainder on
# (0, 1/eps) and of the distance to the bubble up to T
_LOG_FIT_WINDOW = (1e3, 1e6)
_REMAINDER_N = 800
_CONVERGENCE_N = 1024
_JOINT_N = 20  # the order of the joint remainder flow's series start
# the detector of every rescaled run, with g = v_sign
_NODES = (Detector(EventKind.V_SIGN_CHANGE),)


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


def rescaled_params(eps: float, p: Params) -> Params:
    """Params(eps^2 m, eps^2 omega), where (U, V)(r) = eps (u, v)(eps^2 r) solves the radial system
    if (u, v) solves it at p; an eps whose rescaled parameters are no Params (at (1, 0.5) from
    about 2e-162 down, where eps^2 omega or eps^2 m underflows to 0) raises."""
    try:
        return Params(eps * eps * p.m, eps * eps * p.omega)
    except ValueError as err:
        raise ValueError(f"at eps = {eps:g} the rescaled parameters eps^2 (m, omega) are invalid: {err}") from None


def integrate_rescaled(
    eps: float, p: Params, tol: Tolerances, r_end: float | None = None, horizon: float | None = None
) -> Trajectory:
    """Integrate the rescaled system, radial_flow at q = rescaled_params(eps, p), from (0, 1) up to
    r_end (default 1/eps) with solve's DOP853, recording the sign changes of V as V_SIGN_CHANGE events
    (a detector leaves the steps as they are), refined on its extension.  It starts from series_start(1,
    q, tol, horizon), below half the horizon (default r_end), the nearest radius a caller samples.  Its
    energy hamiltonian((U, V), q) is non-increasing along the flow and bounded by its datum value <= 1."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"need 0 < eps < 1, got {eps}")
    q, end = rescaled_params(eps, p), 1.0 / eps if r_end is None else float(r_end)
    r0, y0 = series_start(1.0, q, tol, end if horizon is None else horizon)
    return solve(radial_flow(q), (r0, end), y0, rel=tol.rel, abs_tol=tol.abs, detectors=_NODES, g=v_sign)


def node_radius(traj: Trajectory, r: float) -> float | None:
    """First zero of V up to radius r on a rescaled run, or None."""
    hits = [e.r for e in traj.events_of(EventKind.V_SIGN_CHANGE) if e.r <= r]
    return float(hits[0]) if hits else None


# --- first-order perturbation ----------------------------------------------


class LogLawFit(NamedTuple):
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


# formulas (see integrator.formula): the bubble (u, v) at radius x and the first-order
# derivatives, with the bubble's coefficients 2uv, u^2 + 3v^2 and 3u^2 + v^2 computed once
_FIRST_ORDER_LINES = """
    d = 4.0 + x * x
    u = 2.0 * x / d
    v = 4.0 / d
    uv = 2.0 * u * v
    cu = u * u + 3.0 * v * v
    cv = 3.0 * u * u + v * v
    dh1 = -gm * v + uv * h1 + cu * k1 - h1 / x
    dk1 = -gp * u - uv * k1 - cv * h1"""

# Li2(-x) = -Li2(y) - w^2/2 with y = x/(1 + x) and w = ln(1 + x) = -ln(1 - y) <= ln 2 (Landen),
# after Li2(-x) = -pi^2/6 - ln^2(x)/2 - Li2(-1/x) for x > 1 (inversion; Lewin, Polylogarithms,
# 1981), and Li2(y) = w - w^2/4 + sum_k B_2k w^(2k+1)/(2k+1)! ('t Hooft & Veltman, Nucl. Phys.
# B 153, 1979), whose terms B_2 ... B_16 reach 4e-16 at w = ln 2; _LI2_B is B_2k/(2k+1)!, k = 8 ... 1
_LI2_B = (-3617 / 181400588328960000, 1 / 1120863744000, -691 / 16999766784000, 1 / 526901760,
          -1 / 10886400, 1 / 211680, -1 / 3600, 1 / 36)


def _li2_neg(x):
    """The dilogarithm Li2(-x) for x > 0, elementwise."""
    inv = x > 1.0
    w = np.log1p(np.where(inv, 1.0 / x, x))
    t, s = w * w, 0.0
    for c in _LI2_B:
        s = (s + c) * t
    li = -w - 0.25 * t - w * s
    return np.where(inv, -np.pi ** 2 / 6.0 - 0.5 * np.log(x) ** 2 - li, li)


def integrate_first_order(p: Params, r) -> tuple[np.ndarray, np.ndarray]:
    """The first-order correction (h1, k1) with h1(0) = k1(0) = 0, in closed
    form at the radii r > 0: h1 corrects U and k1 corrects V.

    The homogeneous system has the bubble's scaling mode
    phi1 = (U0 + 2r U0', V0 + 2r V0') = (2r(12 - t), 4(4 - 3t))/D^2 and, by
    reduction of order with Wronskian 4/r, phi2 = 2L phi1 + (D/r)(-phi1_v,
    phi1_u), where t = r^2, D = t + 4 and L = ln t.  Variation of parameters
    gives (h1, k1) = c1 phi1 + c2 phi2 with one dilogarithm in c1.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("radii must be positive")
    t = r * r
    d = t + 4.0
    d2 = d * d
    a = t / d2
    L, Ls = np.log(t), np.log1p(0.25 * t)
    gm, gp = p.gap, p.m + p.omega
    pu, pv = 2.0 * r * (12.0 - t) / d2, 4.0 * (4.0 - 3.0 * t) / d2
    c1 = gm * a * (L * (t - 4.0) - 2.0 * d)
    c1 -= gp * (L * Ls + _li2_neg(0.25 * t) + a * (2.0 * t + 8.0 - L * (3.0 * t + 4.0)))
    c2 = 0.5 * (gp * Ls - a * (gm * (t - 4.0) + gp * (3.0 * t + 4.0)))
    # c1 phi1 + c2 phi2 = (c1 + 2L c2) phi1 + c2 (D/r) (-phi1_v, phi1_u)
    c, s = c1 + 2.0 * L * c2, c2 * d / r
    return c * pu - s * pv, c * pv + s * pu


@functools.lru_cache(maxsize=16)
def first_order_log_fit(p: Params) -> LogLawFit:
    """Fit the logarithmic growth law of the first-order V-correction to the
    closed form on r in [1e3, 1e6]; the exact law is k1 = -2(m + omega) ln r
    + b + O(ln^2 r / r^2) with b = (m + omega)(3 + 2 ln 2) + (m - omega)."""
    r = np.geomspace(*_LOG_FIT_WINDOW, 200)
    log_r = np.log(r)
    h1, k1 = integrate_first_order(p, r)
    slope, mean = lsq_slope(log_r, k1)
    intercept = k1.mean() - slope * mean
    resid = k1 - intercept - slope * log_r
    return LogLawFit(
        c=float(-slope),
        intercept=float(intercept),
        max_rel_residual=float(np.max(np.abs(resid)) / np.max(np.abs(k1))),
        h1_sup=float(np.max(np.abs(h1))),
        window=_LOG_FIT_WINDOW,
    )


# --- remainder --------------------------------------------------------------

# rel_discrepancy below which the two remainder routes agree (verify checks it
# at eps = 0.2); at or above it the rescaled run's step-end error over eps^4
# (see PerturbationRecord) keeps the crosscheck from resolving the remainder.
CROSSCHECK_REL_BOUND = 1e-4
# the least T of integrate_remainder: its rescaled run starts below T/2, and
# from T = 1e-154 on the square of that start leaves the normal float range
# in the closed-form first-order correction (warnings at T = 1e-200, a
# failed sample grid at 1e-320)
T_MIN = 1e-150


def remainder_bound_constant(p: Params) -> float:
    """The constant mu^2 = m^2 - omega^2 of the remainder growth law.

    For large r the h2 equation reduces to (r h2)' = -(m - omega) r k1 +
    O(ln^2 r / r), and k1 = -2(m + omega) ln r + b + o(1) with
    b = (m + omega)(3 + 2 ln 2) + (m - omega) (integrate_first_order), so
    h2 = mu^2 r (ln r - a) + o(r) with a = 2 + ln 2 + (m - omega)/(2(m + omega))
    (2.8598 at (1, 0.5)), and sup |h2| on (0, 1/eps) is mu^2/eps (ln(1/eps)
    - a) to leading order, below mu^2 ln(1/eps)/eps.  k2's law is not
    derived; measured, it does not grow like ln^3 r, and from omega/m = 0.9
    on, where mu^2 is small, sup |h2|+|k2| passes the bound, 57 times at
    (1, 0.999) and eps = 0.003 (ROADMAP.md, item 19).
    """
    return p.m * p.m - p.omega * p.omega


class PerturbationRecord(NamedTuple):
    """Remainder (h2, k2) on (0, 1/eps) computed along two routes.

    h2/k2 come from integrating the exact remainder equations with DOP853,
    read on the grid r through its 7th-order extension (1.5e-10 off at
    eps = 0.3, where a cubic Hermite on its steps was 1.2e-5 off);
    max_discrepancy / rel_discrepancy compare them with the subtraction
    route, the expansion defect of the rescaled solution over eps^4.
    threshold_ok records |h2|+|k2| < eps^(-3/2) with breach_r the first
    violation radius (None when respected), bound_ok sup_norm <= bound_limit
    = mu^2 ln(1/eps)/eps (see remainder_bound_constant), node_radius the
    first zero of V up to 1/eps in the rescaled run (None when V stays
    positive).  sup_error is the sup of |U - U0| + |V - V0| on [r_s, T],
    from the rescaled run's series start r_s, its distance to the bubble
    that convergence_study compares across eps (both None without T).

    At omega/m = 0.5, sup_norm stays below bound_limit; from omega/m = 0.9
    on it passes it at every eps measured, 0.1 to 0.003 (ROADMAP.md, item
    19).  The subtraction route divides the rescaled run's error by eps^4,
    so it is taken at that run's step ends up to 1/eps (4.8e-11 off at eps = 0.2;
    its DOP853 extension between them is 4.2e-10 off, 2.1e-10 on the 5(4) pair), with h1 and
    k1 in closed form and the joint flow's extension there.  At the
    default tolerance and (1, 0.5), rel_discrepancy is 1.4e-8, 8.9e-8 and
    3.8e-7 at eps = 0.2, 0.1 and 0.05 and 1.2e-5 at 0.0125 (1.9e-5 at
    omega = 0.9), and it reaches CROSSCHECK_REL_BOUND near eps = 0.0055.
    """

    epsilon: float
    r: np.ndarray
    h1: np.ndarray
    k1: np.ndarray
    h2: np.ndarray
    k2: np.ndarray
    max_discrepancy: float
    rel_discrepancy: float
    sup_norm: float
    threshold: float
    threshold_ok: bool
    bound_limit: float
    bound_ok: bool
    breach_r: float | None
    node_radius: float | None
    T: float | None = None
    sup_error: float | None = None


_JOINT = f"""
def f(x, s, gm, gp, eps2):
    h1, k1, h2, k2 = s{_FIRST_ORDER_LINES}
    w = h1 + eps2 * h2
    z = k1 + eps2 * k2
    c = eps2 * (w * w + z * z)
    dh2 = uv * h2 + cu * k2 - gm * z - h2 / x
    dh2 += v * w * w + 2.0 * u * w * z + 3.0 * v * z * z + c * z
    dk2 = -cv * h2 - uv * k2 - gp * w
    dk2 -= 3.0 * u * w * w + 2.0 * v * w * z + u * z * z + c * w
    return dh1, dk1, dh2, dk2
"""


def _rhs_joint(eps: float, p: Params):
    """(h1, k1, h2, k2) system with the exact remainder sources.

    With w = h1 + eps^2 h2, z = k1 + eps^2 k2 and the cubic nonlinearity
    N(U, V) = (U^2 + V^2)(V, -U) split at the bubble into its linear part DN
    and quadratic and cubic parts Q and C, the remainder obeys

        (h2, k2)' = DN (h2, k2) + Q(w, z) + eps^2 C(w, z)
                    - ((m - omega) z, (m + omega) w) - (h2 / r, 0)

    exactly: the expansion of a cubic around the bubble is finite.  The
    formula is the first-order one, whose bubble and coefficients DN reuses,
    followed by the remainder lines.
    """
    return formula(_JOINT, p.gap, p.m + p.omega, eps * eps)


def _joint_series(eps: float, p: Params, tol: Tolerances) -> tuple[np.ndarray, float]:
    """Rows k of c_k in r sum c_k r^(2k) (h1, h2) and sum c_k r^(2k) (k1, k2), columns (h1, k1,
    h2, k2), and the radius where the joint run starts from them: where the last terms fall to
    0.1 (rel + abs), at most at r = 2 (the bubble's poles: r = 2i) and at half of 1/eps.  The
    coefficients of U = U0 + e h1 + e^2 h2 (e = eps^2) are polynomials in e (series_polynomials):
    (h1, k1) is their e^1 column and (h2, k2) sums e^(j - 2) column j >= 2, so nothing cancels."""
    c = series_polynomials(p.gap, p.m + p.omega, _JOINT_N)
    coef = np.hstack([c[:, :, 1], (c[:, :, 2:] * (eps * eps) ** np.arange(c.shape[2] - 2)).sum(axis=2)])
    last, small, cap = np.abs(coef[-1]).sum(), 0.1 * (tol.rel + tol.abs), min(2.0, 0.5 / eps)
    r0 = cap if last * cap ** (2 * _JOINT_N) <= small else (small / last) ** (1 / (2 * _JOINT_N))
    return coef, float(r0)


def _sum_joint(coef: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The series of _joint_series at the radii r, by Horner in r^2, one row per radius."""
    s, x = coef[-1], (r * r)[:, None]
    for c in coef[-2::-1]:
        s = s * x + c
    s[:, ::2] *= r[:, None]
    return s


def integrate_remainder(
    epsilons, p: Params, tol: Tolerances, T: float | None = None
) -> list[PerturbationRecord]:
    """The remainder (h2, k2) on (0, 1/eps) along both routes, one record per
    eps of epsilons in their order, and with T the rescaled run's distance to
    the bubble on [0, T].  The joint flow gives (h2, k2) at any eps, with sup
    |h2|+|k2| growing like mu^2/eps (ln(1/eps) - a) (remainder_bound_constant);
    the subtraction route checks it at the rescaled run's step ends up to
    1/eps, with h1 and k1 in closed form.  Per eps the joint run steps from its
    series (_joint_series), near r = 0.9 at the default tolerance, then the
    rescaled one to max(1/eps, T) from below half of min(1/eps, T), both with
    solve's DOP853.  The rest is one elementwise pass over all eps, so each
    record is bitwise its eps' alone: the series below the joint starts, one
    sample of every run, the closed form at all step ends."""
    for eps in epsilons:
        if not 0.0 < eps < 1.0:
            raise ValueError(f"need 0 < eps < 1, got {eps}")
        rescaled_params(eps, p)
    if T is not None and not T >= T_MIN:
        raise ValueError(f"T must be at least {T_MIN:g}, got {T:g}")
    if not epsilons:
        return []
    grid = np.ascontiguousarray(np.linspace(1e-6, [1.0 / eps for eps in epsilons], _REMAINDER_N, axis=1))
    coef, r0 = zip(*(_joint_series(eps, p, tol) for eps in epsilons))
    coef = np.stack(coef, axis=1)  # orders, then eps
    joint, resc = [], []
    for eps, start, y0 in zip(epsilons, r0, _sum_joint(coef, np.array(r0))):
        joint.append(solve(_rhs_joint(eps, p), (start, 1.0 / eps), tuple(y0), rel=tol.rel, abs_tol=tol.abs))
        horizons = (1.0 / eps,) if T is None else (1.0 / eps, float(T))
        resc.append(integrate_rescaled(eps, p, tol, max(horizons), min(horizons)))

    # per eps the grid points below the joint start (n) and the rescaled run's step ends below it (m) and
    # up to 1/eps (e): the series sums those below, and the joint run's extension the others
    E, n = len(resc), (grid < np.array(r0)[:, None]).sum(axis=1).tolist()
    m = [int(np.searchsorted(t.r, start)) for t, start in zip(resc, r0)]
    e = [int(np.searchsorted(t.r, 1.0 / eps, "right")) for t, eps in zip(resc, epsilons)]
    below = np.concatenate([g[:k] for g, k in zip(grid, n)] + [t.r[:k] for t, k in zip(resc, m)])
    owner = np.repeat(np.arange(2 * E) % E, n + m)
    series = np.split(_sum_joint(coef.take(owner, axis=1), below), np.cumsum(n + m)[:-1])
    runs, grids = joint + joint, [g[k:] for g, k in zip(grid, n)] + [t.r[i:j] for t, i, j in zip(resc, m, e)]
    if T is not None:
        grid_T = np.linspace([t.r[0] for t in resc], float(T), _CONVERGENCE_N, axis=1)
        runs, grids = runs + resc, grids + list(grid_T)
    rows = sample(runs, grids)
    parts = [x for pair in zip(series, rows) for x in pair]  # on the grids, then at the step ends
    h1, k1, h2, k2 = np.concatenate(parts[: 2 * E]).T.reshape(4, E, -1)
    h2_ends, k2_ends = np.concatenate(parts[2 * E :])[:, 2:].T

    sup_error = [None] * E
    if T is not None:
        (u0, v0), (U, V) = bubble(grid_T), np.stack(rows[2 * E :]).transpose(2, 0, 1)
        sup_error = np.max(np.abs(U - u0) + np.abs(V - v0), axis=1).tolist()
    # the subtraction route at the rescaled run's step ends up to 1/eps
    ends = np.concatenate([t.r[:j] for t, j in zip(resc, e)])
    U, V = np.concatenate([t.y[:j] for t, j in zip(resc, e)]).T
    u0, v0 = bubble(ends)
    h1_ends, k1_ends = integrate_first_order(p, ends)
    e2 = np.repeat([eps * eps for eps in epsilons], e)
    e4 = e2 * e2
    h2_sub, k2_sub = (U - u0 - e2 * h1_ends) / e4, (V - v0 - e2 * k1_ends) / e4

    diff = np.maximum.reduceat(np.maximum(np.abs(h2_ends - h2_sub), np.abs(k2_ends - k2_sub)), np.cumsum([0] + e[:-1]))
    norm1 = np.abs(h2) + np.abs(k2)
    sup, threshold = np.max(norm1, axis=1).tolist(), [eps ** -1.5 for eps in epsilons]
    breaches = norm1 >= np.array(threshold)[:, None]
    first = np.argmax(breaches, axis=1).tolist()
    records = []
    for i, eps in enumerate(epsilons):
        breached, limit = bool(breaches[i, first[i]]), remainder_bound_constant(p) * math.log(1.0 / eps) / eps
        records.append(PerturbationRecord(
            epsilon=eps, r=grid[i], h1=h1[i], k1=k1[i], h2=h2[i], k2=k2[i], max_discrepancy=float(diff[i]),
            rel_discrepancy=float(diff[i] / max(sup[i], 1e-300)), sup_norm=sup[i], threshold=threshold[i],
            threshold_ok=not breached, bound_limit=limit, bound_ok=sup[i] <= limit,
            breach_r=float(grid[i, first[i]]) if breached else None, node_radius=node_radius(resc[i], 1.0 / eps),
            T=None if T is None else float(T), sup_error=sup_error[i]))
    return records


# --- uniform convergence -----------------------------------------------------


def convergence_study(records, T: float) -> dict:
    """Rate of convergence of the rescaled flow to the bubble, assembled from
    the distances on [0, T] that the integrate_remainder records carry (a
    sequence in strictly decreasing eps, each run with this T).

    The keys: epsilons, sup_errors (the sup-norm distance to the bubble on
    [0, T] per eps), ratios (consecutive ones; a second-order rate gives
    ratios near 4 for eps halving), node_radii (the first V-node radius per
    eps when one occurs before 1/eps, else None) and T."""
    eps_list = [float(rec.epsilon) for rec in records]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("epsilons must be strictly decreasing")
    if any(rec.T != float(T) for rec in records):
        raise ValueError(f"every record needs its distance to the bubble on [0, {T:g}]")
    errs = [rec.sup_error for rec in records]
    return {
        "epsilons": eps_list,
        "sup_errors": errs,
        "ratios": [a / b for a, b in zip(errs, errs[1:])],
        "node_radii": [rec.node_radius for rec in records],
        "T": float(T),
    }
