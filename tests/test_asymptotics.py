import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracshoot import (
    Params,
    Tolerances,
    bubble,
    bubble_residual,
    classify,
    convergence_study,
    first_order_log_fit,
    integrate,
    integrate_first_order,
    integrate_remainder,
    integrate_rescaled,
    radial_flow,
    rescaled_hamiltonian,
    taylor_start,
)
from diracshoot.integrator import EventKind

P = Params(1.0, 0.5)
TOL = Tolerances()


def test_bubble_frozen_values():
    assert bubble(0.0) == (0.0, 1.0)
    assert bubble(2.0) == (0.5, 0.5)
    u0, v0 = bubble(1e9)
    assert u0 == pytest.approx(2e-9, rel=1e-6) and v0 == pytest.approx(4e-18, rel=1e-6)
    assert 1e9 * u0 == pytest.approx(2.0, rel=1e-6)


@given(st.floats(0.0, 1e6))
@settings(max_examples=50)
def test_bubble_on_unit_circle_scaled(r):
    # u0^2 + (v0 - something)... the closed form satisfies u0^2 + v0^2 = v0 * ... ;
    # direct structural identity: 4 u0 = r * (4 v0) / 2 -> u0 = r v0 / 2
    u0, v0 = bubble(r)
    assert u0 == pytest.approx(r * v0 / 2.0, rel=1e-12, abs=1e-300)


def test_bubble_residual_tiny_everywhere():
    grid = np.geomspace(1e-3, 1e6, 701)
    assert bubble_residual(grid) < 1e-12
    assert bubble_residual(np.array([2.0])) < 1e-15
    assert bubble_residual(np.array([1e6])) < 1e-13


def test_bubble_residual_rejects_nonpositive_grid():
    with pytest.raises(ValueError):
        bubble_residual(np.array([0.0, 1.0]))


def test_rescaled_limit_is_bubble():
    t = integrate_rescaled(0.0, P, TOL, r_end=20.0)
    u0, v0 = bubble(t.r)
    assert np.max(np.abs(t.y[:, 0] - u0) + np.abs(t.y[:, 1] - v0)) < 1e-8


def test_rescaled_energy_decreasing_and_bounded():
    for eps in (0.3, 0.1):
        t = integrate_rescaled(eps, P, TOL, r_end=1.0 / eps)
        assert t.H[0] <= 1.0
        rises = np.diff(t.H) - 10.0 * TOL.rel * (1.0 + np.abs(t.H[:-1]))
        assert rises.max() <= 0.0


def test_rescaled_rejects_bad_eps():
    with pytest.raises(ValueError):
        integrate_rescaled(1.5, P, TOL, r_end=1.0)


def test_rescaling_commutation():
    # eps * u(eps^2 r) computed from the radial flow must match the rescaled flow
    for eps in (0.5, 0.1):
        lam = 1.0 / eps
        grid = np.linspace(0.05, 5.0, 120)
        resc = integrate_rescaled(eps, P, TOL, r_end=5.0, r_eval=grid)
        r0 = 1e-6 / lam ** 2
        rad = integrate(
            radial_flow,
            (r0, taylor_start(lam, P, r0)),
            P,
            TOL,
            r_end=eps * eps * 5.0 * 1.01,
            r_eval=eps * eps * grid,
        )
        d = np.max(
            np.abs(eps * rad.y[:, 0] - resc.y[:, 0]) + np.abs(eps * rad.y[:, 1] - resc.y[:, 1])
        )
        assert d < 1e-7


def test_first_order_initial_conditions():
    fo = integrate_first_order(P, TOL, r_end=1.0, r_eval=[1e-5, 0.5, 1.0])
    assert abs(fo.h1[0]) < 1e-4 and abs(fo.k1[0]) < 1e-8


def test_first_order_log_growth_in_v_component():
    grid = np.geomspace(1e2, 1e6, 9)
    fo = integrate_first_order(P, TOL, r_end=1e6, r_eval=grid)
    # the sum stays O(log r) while the U-component vanishes
    assert np.max((np.abs(fo.h1) + np.abs(fo.k1)) / np.log(grid)) < 4.0
    assert abs(fo.h1[-1]) < 1e-2
    # V-component slope approaches -2(m + omega)
    slope = (fo.k1[-1] - fo.k1[0]) / (math.log(grid[-1]) - math.log(grid[0]))
    assert slope == pytest.approx(-2.0 * (P.m + P.omega), rel=0.05)


def test_first_order_log_fit():
    fit = first_order_log_fit(P, TOL)
    assert fit.c > 0.0
    assert fit.c == pytest.approx(2.0 * (P.m + P.omega), rel=0.01)
    assert fit.max_rel_residual < 0.1
    assert fit.h1_sup < 1.0


def test_remainder_initial_conditions_and_crosscheck():
    rec = integrate_remainder(0.2, P, TOL)
    assert abs(rec.h2[0]) < 1e-10 and abs(rec.k2[0]) < 1e-10
    assert rec.rel_discrepancy < 1e-4
    assert rec.threshold_ok
    assert rec.sup_norm < rec.threshold


def test_remainder_threshold_respected_small_eps():
    for eps in (0.1, 0.05):
        rec = integrate_remainder(eps, P, TOL)
        assert rec.threshold_ok
        assert rec.breach_r is None


def test_remainder_rejects_bad_eps():
    with pytest.raises(ValueError):
        integrate_remainder(0.0, P, TOL)


def _records(epsilons):
    return [integrate_remainder(eps, P, TOL) for eps in epsilons]


def test_convergence_study_ratios():
    records = _records([0.2, 0.1, 0.05, 0.025])
    study = convergence_study(records, 10.0, P, TOL)
    assert len(study.ratios) == 3
    assert all(b < a for a, b in zip(study.sup_errors, study.sup_errors[1:]))
    for ratio in study.ratios:
        assert 3.0 <= ratio <= 5.0
    assert study.node_radii == tuple(rec.node_radius for rec in records)


def test_convergence_study_validation():
    with pytest.raises(ValueError):
        convergence_study(_records([0.1, 0.2]), 10.0, P, TOL)
    with pytest.raises(ValueError):
        convergence_study(_records([0.2, 0.2]), 10.0, P, TOL)


def test_node_radius_regimes():
    # V stays positive before 1/eps until eps is small enough that the
    # logarithmic correction overtakes the bubble tail
    assert integrate_remainder(0.5, P, TOL).node_radius is None
    assert integrate_remainder(0.05, P, TOL).node_radius is None
    R = integrate_remainder(0.02, P, TOL).node_radius
    assert R is not None and R < 50.0


def test_node_radius_consistent_with_radial_flow():
    eps = 0.02
    R = integrate_remainder(eps, P, TOL).node_radius
    lam = 1.0 / eps
    c = classify(lam, P, TOL)
    first = [e.r for e in c.trajectory.events if e.kind == EventKind.V_SIGN_CHANGE][0]
    assert first == pytest.approx(R * eps * eps, rel=1e-6)


def test_rescaled_hamiltonian_at_datum():
    assert rescaled_hamiltonian((0.0, 1.0), 0.5, P) <= 1.0
    assert rescaled_hamiltonian((0.0, 1.0), 0.0, P) == pytest.approx(0.25)


def test_remainder_sources_exact_in_high_precision():
    # (h2', k2') of the joint system must equal the eps^4-scaled defect
    # [F_eps(U0 + e2 h1 + e4 h2, V0 + e2 k1 + e4 k2) - F_0(U0, V0) - e2 G(h1, k1)] / e4
    # of the rescaled flow F_eps and first-order flow G; dyadic eps keeps
    # eps^2 exact, so at 50 digits only rounding separates the two
    import random

    import mpmath

    from diracshoot.asymptotics import _rhs_first_order, _rhs_joint, _rhs_rescaled

    rng = random.Random(2017)
    first, bubble_flow = _rhs_first_order(P), _rhs_rescaled(0.0, P)
    with mpmath.workdps(50):
        for eps in (0.5, 0.25, 0.125):
            e2 = mpmath.mpf(eps) ** 2
            e4 = e2 * e2
            flow, joint = _rhs_rescaled(eps, P), _rhs_joint(eps, P)
            for _ in range(20):
                r = mpmath.mpf(rng.uniform(0.05, 40.0))
                h1, k1, h2, k2 = (mpmath.mpf(rng.uniform(-3.0, 3.0)) for _ in range(4))
                u0, v0 = 2 * r / (4 + r * r), 4 / (4 + r * r)
                fu, fv = flow(r, (u0 + e2 * h1 + e4 * h2, v0 + e2 * k1 + e4 * k2))
                bu, bv = bubble_flow(r, (u0, v0))
                gu, gv = first(r, (h1, k1))
                want = ((fu - bu - e2 * gu) / e4, (fv - bv - e2 * gv) / e4)
                got = joint(r, (h1, k1, h2, k2))[2:]
                for g, w in zip(got, want):
                    assert abs(g - w) <= mpmath.mpf("1e-40") * abs(w)
