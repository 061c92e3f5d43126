import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import taylor_start

from diracshoot import (
    Params,
    Tolerances,
    autonomous_flow,
    equilibria,
    hamiltonian,
    hamiltonian_rate,
    r2h_rate,
    radial_flow,
    rescaled_params,
    series_start,
    solve,
)
from diracshoot.equations import series_polynomials

P = Params(1.0, 0.5)

params_st = st.tuples(
    st.floats(0.1, 2.0), st.floats(0.05, 0.95)
).map(lambda t: Params(t[0], t[0] * t[1]))
state_st = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))


def test_rhs_radial_frozen_values():
    f = radial_flow(P)
    assert f(1.0, (0.0, 0.0)) == (0.0, 0.0)
    assert f(1.0, (0.0, 1.0)) == pytest.approx((0.5, 0.0))
    assert f(2.0, (1.0, 0.0)) == pytest.approx((-0.5, -2.5))


def test_rhs_radial_domain():
    f = radial_flow(P)
    with pytest.raises(ValueError):
        f(0.0, (0.1, 0.1))
    with pytest.raises(ValueError):
        f(-1.0, (0.1, 0.1))


def test_rhs_autonomous_frozen_values():
    f = autonomous_flow(P)
    assert f(0.0, (0.0, 0.0)) == (0.0, 0.0)
    v0 = math.sqrt(0.5)
    assert f(0.0, (0.0, v0)) == pytest.approx((0.0, 0.0), abs=1e-15)
    assert f(0.0, (0.0, 1.0)) == pytest.approx((0.5, 0.0))


def test_hamiltonian_frozen_values():
    assert hamiltonian((0.0, 0.0), P) == 0.0
    assert hamiltonian((0.0, math.sqrt(0.5)), P) == pytest.approx(-0.0625, abs=1e-15)
    assert hamiltonian((1.0, 0.0), P) == pytest.approx(1.0)


def test_hamiltonian_of_float_lists_is_one_call(monkeypatch):
    # the energies of a list of samples come from one call: a wrapper bound as
    # equations.hamiltonian, as a call counter binds one, sees one call per list
    from diracshoot import equations

    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    real = equations.hamiltonian
    monkeypatch.setattr(equations, "hamiltonian", counted)
    H = equations.hamiltonian(([0.0, 0.0, 1.0], [0.0, math.sqrt(0.5), 0.0]), P)
    assert H == [hamiltonian(s, P) for s in [(0.0, 0.0), (0.0, math.sqrt(0.5)), (1.0, 0.0)]]
    assert len(calls) == 1


def test_hamiltonian_rate_frozen_values():
    assert hamiltonian_rate(1.0, (0.0, 0.7), P) == 0.0
    assert hamiltonian_rate(1.0, (1.0, 0.0), P) == pytest.approx(-2.5)
    assert hamiltonian_rate(2.0, (1.0, 1.0), P) == pytest.approx(-1.75)
    with pytest.raises(ValueError):
        hamiltonian_rate(0.0, (1.0, 1.0), P)


def test_r2h_rate_frozen_values():
    assert r2h_rate(1.0, (0.0, 0.0), P) == 0.0
    assert r2h_rate(1.0, (0.0, 1.0), P) == pytest.approx(0.0, abs=1e-15)
    assert r2h_rate(3.0, (0.0, math.sqrt(2 * P.gap)), P) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        r2h_rate(-2.0, (0.0, 1.0), P)


def test_equilibria_frozen_values():
    eqs = equilibria(P)
    states = [e[0] for e in eqs]
    energies = [e[1] for e in eqs]
    assert states[0] == (0.0, 0.0) and energies[0] == 0.0
    assert states[1][1] == pytest.approx(0.7071067811865476)
    assert states[2][1] == pytest.approx(-0.7071067811865476)
    assert energies[1] == pytest.approx(-0.0625, abs=1e-15)
    assert energies[2] == pytest.approx(-0.0625, abs=1e-15)

    eqs2 = equilibria(Params(2.0, 1.0))
    assert eqs2[1][0][1] == pytest.approx(1.0)
    assert eqs2[1][1] == pytest.approx(-0.25, abs=1e-14)


@given(params_st)
def test_equilibria_energy_formula(p):
    eqs = equilibria(p)
    assert eqs[0][1] == 0.0
    for _, H in eqs[1:]:
        assert H == pytest.approx(-p.gap ** 2 / 4.0, abs=1e-13)


@given(params_st, state_st, st.floats(1e-3, 1e3))
def test_hamiltonian_rate_nonpositive(p, s, r):
    assert hamiltonian_rate(r, s, p) <= 0.0


@given(params_st, state_st, st.floats(1e-2, 1e2))
def test_r2h_identity(p, s, r):
    # (1/r) d(r^2 H)/dr = 2 H + r dH/dr must hold as an algebraic identity
    lhs = r2h_rate(r, s, p)
    rhs = 2.0 * hamiltonian(s, p) + r * hamiltonian_rate(r, s, p)
    scale = 1.0 + abs(lhs) + abs(rhs)
    assert abs(lhs - rhs) <= 1e-12 * scale


@given(params_st, state_st, st.floats(1e-3, 1e3), st.floats(1e-3, 1.0, exclude_max=True))
def test_bound_flows_are_the_pointwise_formulas_bitwise(p, s, r, eps):
    # the factories bind m - omega and m + omega once; the products are the
    # same floating-point operations as through the Params.gap property
    u, v = s
    q = u * u + v * v
    radial = (q * v - p.gap * v - u / r, -q * u - (p.m + p.omega) * u)
    auto = (q * v - p.gap * v, -q * u - (p.m + p.omega) * u)
    def bits(t):
        return [x.hex() for x in t]

    assert bits(radial_flow(p)(r, s)) == bits(radial)
    assert bits(autonomous_flow(p)(r, s)) == bits(auto)
    with pytest.raises(ValueError):
        radial_flow(p)(-r, s)

    # eps = 1 is bitwise the default; any other eps is the blow-up covariance
    # (U, V)(R) = eps (u, v)(eps^2 R), to rounding of the terms' magnitudes;
    # tiny covers subnormal states, which carry fewer than 53 bits
    lam, tiny = 1.0 + abs(u), 1e-300
    assert bits(radial_flow(rescaled_params(1.0, p))(r, s)) == bits(radial)
    assert hamiltonian(s, rescaled_params(1.0, p)).hex() == hamiltonian(s, p).hex()
    (r_1, y_1), (r_s, y_s) = series_start(lam, rescaled_params(1.0, p), Tolerances()), series_start(lam, p, Tolerances())
    assert r_1.hex() == r_s.hex() and bits(y_1) == bits(y_s)
    e2, unscaled = eps * eps, (u / eps, v / eps)
    fu, fv = radial_flow(rescaled_params(eps, p))(r, s)
    gu, gv = radial_flow(p)(e2 * r, unscaled)
    assert abs(fu - eps**3 * gu) <= 1e-14 * (abs(q * v) + e2 * p.gap * abs(v) + abs(u / r)) + tiny
    assert abs(fv - eps**3 * gv) <= 1e-14 * (q + e2 * (p.m + p.omega)) * abs(u) + tiny
    H = hamiltonian(s, rescaled_params(eps, p))
    assert abs(H - eps**4 * hamiltonian(unscaled, p)) <= 1e-14 * (q * q / 4.0 + e2 * (p.m + p.omega) * q) + tiny


@given(params_st, state_st, st.floats(1e-3, 1e3))
def test_rhs_odd_symmetry(p, s, r):
    f = radial_flow(p)
    du, dv = f(r, s)
    mu, mv = f(r, (-s[0], -s[1]))
    assert (mu, mv) == (-du, -dv)


def test_taylor_start_frozen_values():
    u, v = taylor_start(1.0, P, 1e-3)
    assert u == pytest.approx(2.5e-4, rel=1e-12)
    assert v == pytest.approx(1.0 - 3.125e-7, rel=1e-12)


def test_taylor_start_vanishing_u_coefficient():
    lam = math.sqrt(P.gap)
    u, v = taylor_start(lam, P, 1e-4)
    assert abs(u) < 1e-19  # leading coefficient lambda(lambda^2 - gap) = 0


@given(st.floats(0.1, 4.0))
@settings(max_examples=30)
def test_taylor_start_datum_limit(lam):
    _, v1 = taylor_start(lam, P, 1e-4)
    _, v2 = taylor_start(lam, P, 1e-6)
    assert abs(v2 - lam) < abs(v1 - lam) + 1e-18
    # the correction scales like r0^2 lam (lam^2 - gap)(lam^2 + m + omega)
    assert v2 == pytest.approx(lam, abs=1e-12 * (1.0 + lam) ** 5)


def test_taylor_start_domain():
    # a non-finite datum or start radius returned nan or inf states
    for bad in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="datum must be positive and finite"):
            taylor_start(bad, P, 1e-6)
        with pytest.raises(ValueError, match="start radius must be positive and finite"):
            taylor_start(1.0, P, bad)


@pytest.mark.parametrize("lam", [0.5, 1.8, 1e4])
def test_series_start_matches_a_tight_run_from_the_origin(lam):
    # the series' state at its radius r_s against a run at rel = abs = 1e-14
    # from the second-order start at 1e-9 / max(1, lambda^2), within ten
    # times the default tolerance
    tol = Tolerances()
    r_s, y_s = series_start(lam, P, tol)
    r0 = 1e-9 / max(1.0, lam * lam)
    tight = solve(radial_flow(P), (r0, r_s), taylor_start(lam, P, r0), rel=1e-14, abs_tol=1e-14)
    for got, want in zip(y_s, tight.final_state):
        assert abs(got - want) <= 10.0 * (tol.abs + tol.rel * abs(want))


def test_series_polynomials_start_from_the_bubble():
    # the e^0 column is the massless series of the bubble U0 = 2r/(4 + r^2),
    # V0 = 4/(4 + r^2) at every (m, omega): a_k = (-1/4)^k / 2 and
    # b_k = (-1/4)^k, exactly
    k = np.arange(21)
    for gm, gp in [(0.5, 1.5), (1.4, 2.6), (0.1, 1.9), (0.9, 1.1)]:
        c = series_polynomials(gm, gp, 20)
        assert np.array_equal(c[:, 0, 0], 0.5 * (-0.25) ** k) and np.array_equal(c[:, 1, 0], (-0.25) ** k)
