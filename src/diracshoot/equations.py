"""Right-hand sides, energy functions and the series start at the origin.

The radial system for (u, v) with datum v(0) = lambda reads

    u' + u / r = (u^2 + v^2) v - (m - omega) v
    v'         = -(u^2 + v^2) u - (m + omega) u

and is singular at r = 0, so every run starts from its power series there
(series_start).  Dropping the 1/r term gives the autonomous Hamiltonian
system whose energy H confines every trajectory.  radial_flow(p) returns
the right-hand side f(r, s) with p's constants bound, which
integrator.solve integrates; radial_flow(p)(r, s) evaluates it at one point.
The blow-up rescaling is this system at other parameters
(asymptotics.rescaled_params).  radial_flow is built by integrator.formula,
so solve writes its formula into the compiled loop; the energy is the text
ENERGY, which hamiltonian evaluates and the shooting event formulas splice
into theirs.
"""

from __future__ import annotations

import functools
import math

from . import _lazy as np
from .integrator import formula
from .params import Params, Tolerances

State = tuple[float, float]


_RADIAL = """
def f(x, s, a_minus, a_plus):
    if x <= 0.0: raise ValueError(f"radial right-hand side needs r > 0, got r={x}")
    u, v = s
    q = u * u + v * v
    return q * v - a_minus * v - u / x, -q * u - a_plus * u
"""


def radial_flow(p: Params):
    """f(r, s) = (q v - (m - omega) v - u / r, -q u - (m + omega) u), q = u^2 + v^2, for r > 0."""
    return formula(_RADIAL, p.m - p.omega, p.m + p.omega)


def autonomous_flow(p: Params):
    """Radial flow with the singular 1/r term dropped; r is unused.  It is
    radial_flow(p) at r = inf, where u / r = +-0 leaves each derivative
    bitwise that of the other terms on finite states.  solve calls it, and
    compiles no loop of its own for its few short runs."""
    f = radial_flow(p)
    return lambda r, s: f(math.inf, s)


# H over u, v, q = u^2 + v^2 and the constants m and omega
ENERGY = "q * q / 4.0 + 0.5 * m * (u * u - v * v) + 0.5 * omega * q"
_energy = formula(f"def f(x, s, m, omega):\n    u, v = s\n    q = u * u + v * v\n    return {ENERGY}\n")


def hamiltonian(s: State, p: Params) -> float:
    """Energy H(u, v) = (u^2+v^2)^2/4 + (m/2)(u^2-v^2) + (omega/2)(u^2+v^2): ENERGY at p.

    u and v may also be arrays, evaluated elementwise, or lists of floats,
    evaluated per sample into a list.
    """
    if isinstance(s[0], list):
        return [_energy(None, x, p.m, p.omega) for x in zip(*s)]
    return _energy(None, s, p.m, p.omega)


def hamiltonian_rate(r: float, s: State, p: Params) -> float:
    """dH/dr along the radial flow: -(u^2/r)(m + omega + u^2 + v^2) <= 0."""
    if r <= 0.0:
        raise ValueError(f"hamiltonian_rate needs r > 0, got r={r}")
    u, v = s
    return -(u * u / r) * (p.m + p.omega + u * u + v * v)


def r2h_rate(r: float, s: State, p: Params) -> float:
    """(1/r) d(r^2 H)/dr = -u^4/2 + (v^2/2)(v^2 - 2(m - omega))."""
    if r <= 0.0:
        raise ValueError(f"r2h_rate needs r > 0, got r={r}")
    u, v = s
    return -u ** 4 / 2.0 + 0.5 * v * v * (v * v - 2.0 * p.gap)


def equilibria(p: Params) -> list[tuple[State, float]]:
    """Fixed points of the autonomous flow with their energies.

    Returns [(0,0), (0, +sqrt(m-omega)), (0, -sqrt(m-omega))]; the origin
    sits at H = 0, the other two at the global minimum -(m-omega)^2/4.
    """
    v0 = math.sqrt(p.gap)
    pts = [(0.0, 0.0), (0.0, v0), (0.0, -v0)]
    return [(pt, hamiltonian(pt, p)) for pt in pts]


def first_node(lam: float, p: Params) -> float:
    """The first zero r1 = R1 / lambda^2 of v(r) = lambda (V0 + eps^2 k1 + ...)(lambda^2 r), eps = 1 / lambda
    (asymptotics): R1 is the root of lambda^2 V0(R) + k1(R), V0 = 4 / (4 + R^2) the bubble and k1 = -c ln R + b
    the law of the first-order correction, c = 2 (m + omega), b = (m + omega)(3 + 2 ln 2) + (m - omega)
    (asymptotics.first_order_log_fit).  Over c and in x = ln R, G(x) = L / (4 + e^(2x)) - x + b / c with
    L = 4 lambda^2 / c decreases from G >= 1 at x = b / c - 1 to G < 0 at max(ln(L) / 2, b / c) + 1, and
    bisection finds its root to the last bit.  The error, what it drops (eps^2 k2 and the law's O(ln^2 R /
    R^2)) over the slope, is 1.2e-4 (relative) at lambda = 1e3 and about 2e-6 from 1e4 on at (1, 0.5)."""
    c = 2.0 * (p.m + p.omega)
    L, k = 4.0 * lam * lam / c, ((p.m + p.omega) * (3.0 + 2.0 * math.log(2.0)) + p.gap) / c
    lo, hi = k - 1.0, max(0.5 * math.log(L), k) + 1.0
    while lo < (x := 0.5 * (lo + hi)) < hi:
        R = math.exp(x)
        lo, hi = (x, hi) if L / (4.0 + R * R) - x + k > 0.0 else (lo, x)
    return math.exp(hi) / (lam * lam)


# (2k + 2) a_k = sum_j q_j b_(k-j) - am b_k, (2k + 2) b_(k+1) = -sum_j q_j a_(k-j) - ap a_k give
# the series u = sum a_k r^(2k+1), v = sum b_k r^(2k), q = u^2 + v^2 = sum q_k r^(2k) of the radial
# system, (am, ap) = (m - omega, m + omega) (Jorba & Zou, Exp. Math. 14, 2005); series runs it to
# order _N in straight lines and sums it where (|a_N| + |b_N|) r^(2N) falls to small, or at cap
_N = 12


@functools.cache
def _series():
    dot = lambda x, y, k: " + ".join(f"{x}{j} * {y}{k - j}" for j in range(k + 1))  # noqa: E731
    lines = ["def series(b0, am, ap, small, cap):"]
    for k in range(_N + 1):
        lines += [f"q{k} = {dot('b', 'b', k)}" + (f" + {dot('a', 'a', k - 1)}" if k else ""),
                  f"a{k} = ({dot('q', 'b', k)} - am * b{k}) / {2 * k + 2}.0",
                  f"b{k + 1} = -({dot('q', 'a', k)} + ap * a{k}) / {2 * k + 2}.0"]
    lines[-1] = f"last = abs(a{_N}) + abs(b{_N})"  # in place of b_(N+1)
    a, b = (functools.reduce(lambda e, k: f"{c}{k} + x * ({e})", range(_N)[::-1], f"{c}{_N}") for c in "ab")
    lines += [f"r = cap if last * cap ** {2 * _N} <= small else (small / last) ** {1 / (2 * _N)!r}",
              "x = r * r", f"return r, r * ({a}), {b}"]
    exec("\n    ".join(lines), ns := {})
    return ns["series"]


def series_start(lam: float, p: Params, tol: Tolerances, horizon: float | None = None) -> tuple[float, State]:
    """Start (r_s, (u, v)) of the radial flow for the datum v(0) = lambda: the series in the frame
    R = s^2 r, s^2 = lambda^2 + m + omega, where (u, v) = s (U, V) with m and omega scaled by 1/s^2
    has coefficients of order one, summed where its last terms fall to 0.1 (tol.rel lambda + tol.abs),
    at most at R = 2 (the bubble's poles: R = 2i) and at half the horizon (default tol's resolved rmax)."""
    if not 0.0 < lam < math.inf:
        raise ValueError(f"datum must be positive and finite, got {lam}")
    s2 = lam * lam + p.m + p.omega
    horizon = tol.resolved(p).rmax if horizon is None else horizon
    s, cap = math.sqrt(s2), min(2.0, 0.5 * horizon * s2)
    r, u, v = _series()(lam / s, p.gap / s2, (p.m + p.omega) / s2, 0.1 * (tol.rel * lam + tol.abs) / s, cap)
    return r / s2, (s * u, s * v)


@functools.lru_cache(maxsize=16)
def series_polynomials(gm: float, gp: float, n: int) -> np.ndarray:
    """_series' a_k, b_k (k <= n) for the datum v(0) = 1 and (am, ap) = e (gm, gp), as polynomials
    in e: out[k, 0] and out[k, 1] hold their coefficients of e^0 ... e^(2n + 1), and conv(x, y)
    multiplies series, sum_j x_j y_(K-j) with K + 1 = len(x) = len(y).  Read-only (cached)."""
    conv = lambda x, y: sum(map(np.convolve, x, y[::-1]))  # noqa: E731
    a, b, q, out = [], [np.ones(1)], [], np.zeros((n + 1, 2, 2 * n + 2))
    for k in range(n + 1):
        q.append(conv(b, b) + conv(a, a))
        a.append((np.append(conv(q, b), 0.0) - np.convolve(b[k], (0.0, gm))) / (2 * k + 2))
        b.append(-(np.append(conv(q, a), 0.0) + np.convolve(a[k], (0.0, gp))) / (2 * k + 2))
        out[k, 0, : 2 * k + 2], out[k, 1, : 2 * k + 1] = a[k], b[k]
    out.flags.writeable = False
    return out
