"""Chebyshev collocation oracle for the ground state and the Townes profile.

The radial system y1' + y1/r = f1(y), y2' = f2(y) on [0, R] is collocated
at the N + 1 Chebyshev points of that interval with Trefethen's
differentiation matrix (Spectral Methods in MATLAB, SIAM 2000, ch. 6): the
y1 equation at r > 0 with y1(0) = 0, the y2 equation at r < R, and at r = R
the state on the decaying mode (b1, b2) of the linearized system,
y1 b2 - y2 b1 = 0, an asymptotic boundary condition (Lentini & Keller, SIAM
J. Numer. Anal. 17, 1980).  Newton's method with the dense Jacobian solves
it, from the solution at 64 points interpolated to the N.  This shares nothing with the shooting method: no integrator, no eta
tube and no bisection, and its Bessel functions are scipy's.

lambda_coll(m, omega) is the ground state's v(0) and townes_q0() the
Townes profile's Q(0), Q'' + Q'/r - Q + Q^3 = 0, each solved at two (N, R)
pairs that must agree to 1e-13.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import k0e, k1e

AGREE = 1e-13
# the (N, R mu) of the two ground-state solves and the (N, R) of the two Townes solves
PAIRS = ((240, 30.0), (320, 36.0))
TOWNES_PAIRS = ((120, 30.0), (160, 36.0))


def cheb(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Differentiation matrix D and points x_j = cos(pi j / n), j = 0 ... n."""
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.ones(n + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(n + 1)
    dx = x[:, None] - x[None, :]
    d = np.outer(c, 1.0 / c) / (dx + np.eye(n + 1))
    return d - np.diag(d.sum(axis=1)), x


def _solve(f, jac, mode, guess, n: int, R: float) -> tuple[np.ndarray, np.ndarray]:
    """(y1, y2) at the points r = R (1 + x) / 2, from r = R down to r = 0.

    f(y1, y2) gives (f1, f2), jac(y1, y2) the partials (d1f1, d2f1, d1f2,
    d2f2) and mode the decaying (b1, b2) at R, scaled to order one (a row of
    order K0(R) leaves the Jacobian close to singular).  Each Newton step is
    halved until the residual's 2-norm falls (full steps from a sech guess
    diverge), and Newton stops after a step below 1e-12 of the state.
    """
    d, x = cheb(n)
    r = 0.5 * R * (1.0 + x)
    d *= 2.0 / R
    inv_r = np.zeros_like(r)
    inv_r[:-1] = 1.0 / r[:-1]
    b1, b2 = mode

    def residual(z):
        y1, y2 = z[: n + 1], z[n + 1 :]
        g1, g2 = f(y1, y2)
        res = np.concatenate([d @ y1 + inv_r * y1 - g1, d @ y2 - g2])
        # y1(0) = 0 replaces the y1 equation at r = 0, the mode the y2 one at r = R
        res[n], res[n + 1] = y1[-1], y1[0] * b2 - y2[0] * b1
        return res

    z = np.concatenate(guess(r))
    for _ in range(60):
        a, b, c, e = jac(z[: n + 1], z[n + 1 :])
        jm = np.block([[d + np.diag(inv_r - a), np.diag(-b)], [np.diag(-c), d - np.diag(e)]])
        jm[n], jm[n + 1] = 0.0, 0.0
        jm[n, n], jm[n + 1, 0], jm[n + 1, n + 1] = 1.0, b2, -b1
        res = residual(z)
        step = np.linalg.solve(jm, -res)
        t, worst = 1.0, res @ res
        while t > 1e-3 and not (new := residual(z + t * step)) @ new < worst:
            t *= 0.5
        z = z + t * step
        if np.max(np.abs(step)) <= 1e-12 * np.max(np.abs(z)):
            return z[: n + 1], z[n + 1 :]
    raise AssertionError("collocation Newton did not converge")


def _refined(f, jac, mode, guess, n: int, R: float) -> tuple[np.ndarray, np.ndarray]:
    """_solve at n points from the solution at 64 points, interpolated
    (barycentric formula, Trefethen 2000, ch. 6): the dense solves at n take
    a few Newton steps instead of the ten or more from the guess."""
    coarse = np.array(_solve(f, jac, mode, guess, 64, R))
    x = np.cos(np.pi * np.arange(65) / 64)
    w = (-1.0) ** np.arange(65)
    w[[0, -1]] *= 0.5

    def interpolated(r):
        d = (2.0 * r / R - 1.0)[:, None] - x
        hit = d == 0.0
        k = w / np.where(hit, 1.0, d)
        y = (k @ coarse.T) / k.sum(axis=1)[:, None]
        i, j = np.nonzero(hit)
        y[i] = coarse[:, j].T
        return y.T

    return _solve(f, jac, mode, interpolated, n, R)


def _agreed(values: list[float]) -> float:
    a, b = values
    assert abs(a / b - 1.0) <= AGREE, f"collocation runs disagree: {a!r} vs {b!r}"
    return b


@functools.cache
def lambda_coll(m: float, omega: float) -> float:
    """v(0) of the ground state at (m, omega)."""
    am, ap = m - omega, m + omega
    mu = math.sqrt(m * m - omega * omega)

    def f(u, v):
        q = u * u + v * v
        return q * v - am * v, -q * u - ap * u

    def jac(u, v):
        q = u * u + v * v
        return 2.0 * u * v, q + 2.0 * v * v - am, -q - 2.0 * u * u - ap, -2.0 * u * v

    def guess(r):
        # a sech of amplitude sqrt(2 am) and the NLS limit's rate sqrt(2 m am),
        # with u = -v' / ap; from amplitudes near the Townes limit's
        # 2.2 sqrt(am) Newton ran astray at omega/m = 0.5
        k = math.sqrt(2.0 * m * am)
        v = math.sqrt(2.0 * am) / np.cosh(k * r)
        return v * k * np.tanh(k * r) / ap, v

    # at r = R the mode (mu K1 / (m + omega), K0)(mu R), scaled by e^(mu R)
    return _agreed([float(_refined(f, jac, (mu * k1e(x) / ap, k0e(x)), guess, n, x / mu)[1][-1])
                    for n, x in PAIRS])


@functools.cache
def townes_q0() -> float:
    """Q(0) of the Townes profile in first-order form P' + P/r = Q - Q^3,
    Q' = P, with the decaying mode (-K1, K0), scaled by e^R."""

    def f(p, q):
        return q - q ** 3, p

    def jac(p, q):
        zero = np.zeros_like(q)
        return zero, 1.0 - 3.0 * q * q, np.ones_like(q), zero

    def guess(r):
        q = 2.2 / np.cosh(r)
        return -q * np.tanh(r), q

    return _agreed([float(_refined(f, jac, (-k1e(R), k0e(R)), guess, n, R)[1][-1]) for n, R in TOWNES_PAIRS])
