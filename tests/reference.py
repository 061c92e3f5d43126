"""Reference code that the tests compare the package against (a helper, not a
test file): the second-order series starts at the origin of the radial and
the first-order flows, the first-order flow that the closed form of
integrate_first_order solves, and the capture certificate evaluated at one
point.

R0 is the start radius of the reference runs of the first-order and joint
remainder flows.
"""

import math

from diracshoot import Certificate, Params, hamiltonian, universal_constant
from diracshoot.asymptotics import _FIRST_ORDER_LINES
from diracshoot.integrator import formula

R0 = 1e-6


def taylor_start(lam: float, p: Params, r0: float):
    """Second-order series start (u(r0), v(r0)) for the datum v(0) = lambda.

    Matched against the integral form of the radial system:

        u(r0) = (r0/2) lambda (lambda^2 - (m-omega)) + O(r0^3)
        v(r0) = lambda - (r0^2/4) lambda (lambda^2 - (m-omega))
                                         (lambda^2 + m + omega) + O(r0^4)

    valid while lambda^2 r0 is small.
    """
    if not 0.0 < lam < math.inf:
        raise ValueError(f"datum must be positive and finite, got {lam}")
    if not 0.0 < r0 < math.inf:
        raise ValueError(f"start radius must be positive and finite, got {r0}")
    cu = lam * (lam * lam - (p.m - p.omega))
    u = 0.5 * r0 * cu
    v = lam - 0.25 * r0 * r0 * cu * (lam * lam + (p.m + p.omega))
    return u, v


def first_order_start(p: Params, r0: float) -> tuple[float, float]:
    """Second-order series start (h1(r0), k1(r0)) of the first-order flow at the
    singular origin: h1 = -(m-omega) r/2 + O(r^3), k1 = -omega r^2/2 + O(r^4)."""
    return -0.5 * p.gap * r0, -0.5 * p.omega * r0 * r0


# the first-order flow (h1, k1)' in the lines that the joint remainder flow shares
_FIRST_ORDER = f"def f(x, s, gm, gp):\n    h1, k1 = s{_FIRST_ORDER_LINES}\n    return dh1, dk1\n"


def rhs_first_order(p: Params):
    """The first-order perturbation flow as an integrator formula."""
    return formula(_FIRST_ORDER, p.gap, p.m + p.omega)


def certificate_check(r: float, s: tuple[float, float], p: Params) -> Certificate | None:
    """The capture certificate at a single point, or None where it does not
    fire: r > 1, H < C0 / r, u v > 0 and v^2 < 2 (m - omega)."""
    if r <= 1.0:
        return None
    u, v = s
    c = Certificate(r, hamiltonian(s, p), u * v, v * v, universal_constant(p))
    if c.H_at_R < c.C0 / r and c.uv_product > 0.0 and c.v_squared < 2.0 * p.gap:
        return c
    return None
