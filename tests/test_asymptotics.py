import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import R0, first_order_start, rhs_first_order

from diracshoot import (
    Params,
    Tolerances,
    bubble,
    bubble_residual,
    classify,
    convergence_study,
    first_order_log_fit,
    hamiltonian,
    integrate_first_order,
    integrate_remainder,
    integrate_rescaled,
    radial_flow,
    rescaled_params,
    series_start,
    solve,
)
from diracshoot import asymptotics
from diracshoot.asymptotics import (
    CROSSCHECK_REL_BOUND,
    T_MIN,
    _joint_series,
    _li2_neg,
    _rhs_joint,
    _sum_joint,
    remainder_bound_constant,
)
from diracshoot.equations import _RADIAL
from diracshoot.integrator import DOP853, EventKind, formula

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
    # the whole log grid is verify's bubble_exactness; these points are tighter
    assert bubble_residual(np.array([2.0])) < 1e-15
    assert bubble_residual(np.array([1e6])) < 1e-13


def test_bubble_residual_rejects_nonpositive_grid():
    with pytest.raises(ValueError):
        bubble_residual(np.array([0.0, 1.0]))


def test_rescaled_limit_is_bubble():
    t = integrate_rescaled(1e-8, P, TOL, r_end=20.0)
    u0, v0 = bubble(t.r)
    assert np.max(np.abs(t.y[:, 0] - u0) + np.abs(t.y[:, 1] - v0)) < 1e-8


@pytest.mark.parametrize(
    "eps, r_end, horizon", [(0.2, 10.0, 5.0), (0.2, 5.0, 0.1), (0.05, 20.0, None), (1e-8, 20.0, None)]
)
def test_rescaled_run_starts_from_the_series(eps, r_end, horizon):
    # the start is the series of the rescaled system below half the nearest
    # radius a caller samples (default r_end): at r = 0.68 for eps = 0.2, and
    # at T / 2 for T = 0.1
    t = integrate_rescaled(eps, P, TOL, r_end, horizon)
    r_s, y_s = series_start(1.0, rescaled_params(eps, P), TOL, r_end if horizon is None else horizon)
    assert (t.r[0], tuple(t.y[0])) == (r_s, y_s)
    assert r_s <= 0.5 * (r_end if horizon is None else horizon) and t.r[-1] == r_end


def test_rescaled_rejects_bad_eps():
    with pytest.raises(ValueError):
        integrate_rescaled(1.5, P, TOL, r_end=1.0)
    with pytest.raises(ValueError, match="need 0 < eps < 1"):
        integrate_rescaled(0.0, P, TOL)


def test_rescaled_params_refuses_an_eps_below_the_params_floor(monkeypatch):
    # eps^2 (m, omega) at (1, 0.5) is (1e-323, 5e-324) at eps = 3e-162, (5e-324, 0) at 2e-162 and
    # (0, 0) at 1e-200, which no Params holds; integrate_remainder checks every eps before it solves
    assert rescaled_params(3e-162, P) == Params(1e-323, 5e-324)
    for eps in (2e-162, 1e-200):
        with pytest.raises(ValueError, match=f"at eps = {eps:g} the rescaled"):
            rescaled_params(eps, P)
    monkeypatch.setattr(asymptotics, "solve", lambda *args, **kwargs: pytest.fail("a run was solved"))
    with pytest.raises(ValueError, match="at eps = 1e-200 the rescaled"):
        integrate_remainder((0.2, 1e-200), P, TOL)


def test_a_small_eps_stands_in_for_the_massless_flow():
    # eps = 0 has no Params; at eps = 1e-8 the mass terms eps^2 (m +- omega) <= 1.5e-16 sit below
    # the rounding of the order-one terms, and the run is the massless flow's from the same start
    # to 7.4e-14 (measured): their step sequences differ slightly, so this is the difference of two
    # integration errors, each near the 1.76e-10 distance to the bubble of bubble_limit_agreement;
    # the bound 0.01 (rel + abs) lies between the two
    t = integrate_rescaled(1e-8, P, TOL, r_end=20.0)
    massless = solve(formula(_RADIAL, 0.0, 0.0), (t.r[0], 20.0), tuple(t.y[0]), rel=TOL.rel, abs_tol=TOL.abs)
    grid = np.linspace(t.r[0], 20.0, 401)
    assert np.max(np.abs(t.sample(grid) - massless.sample(grid))) <= 0.01 * (TOL.rel + TOL.abs)
    # at (1, 0.5) eps^2 m -+ eps^2 omega is eps^2 (m -+ omega) bitwise for any eps, so a rescaled
    # run there does not depend on how its constants are grouped
    for eps in (0.3, 0.1, 0.05, math.pi / 10, 0.123456789, 1e-8):
        consts = radial_flow(rescaled_params(eps, P)).formula[1]
        assert [c.hex() for c in consts] == [c.hex() for c in (eps * eps * 0.5, eps * eps * 1.5)]


def _first_order_run(p, r_end, r_eval=None, rel=TOL.rel):
    run = solve(rhs_first_order(p), (R0, r_end), first_order_start(p, R0), rel=rel, abs_tol=rel)
    return run if r_eval is None else run.sample(r_eval)


def test_first_order_initial_conditions():
    rows = _first_order_run(P, 1.0, r_eval=[1e-5, 0.5, 1.0])
    assert abs(rows[0, 0]) < 1e-4 and abs(rows[0, 1]) < 1e-8


def test_first_order_log_growth_in_v_component():
    grid = np.geomspace(1e2, 1e6, 9)
    h1, k1 = _first_order_run(P, 1e6, r_eval=grid).T
    # the sum stays O(log r) while the U-component vanishes
    assert np.max((np.abs(h1) + np.abs(k1)) / np.log(grid)) < 4.0
    assert abs(h1[-1]) < 1e-2
    # V-component slope approaches -2(m + omega)
    slope = (k1[-1] - k1[0]) / (math.log(grid[-1]) - math.log(grid[0]))
    assert slope == pytest.approx(-2.0 * (P.m + P.omega), rel=0.05)


def test_first_order_log_fit():
    # c > 0 and the residual bound are verify's first_order_log_law
    fit = first_order_log_fit(P)
    assert fit.c == pytest.approx(2.0 * (P.m + P.omega), rel=1e-4)
    assert fit.h1_sup < 1.0
    # the fit depends on p alone and is computed once per equal Params
    assert first_order_log_fit(Params(P.m, P.omega)) is fit


def test_li2_neg_matches_mpmath():
    import mpmath

    # x = 1 has the largest w = ln(1 + x) of the Bernoulli series
    x = np.append(np.geomspace(1e-14, 1e14, 300), 1.0)
    got = _li2_neg(x)
    want = np.array([float(mpmath.polylog(2, -mpmath.mpf(float(v)))) for v in x])
    assert np.max(np.abs(got - want) / np.abs(want)) <= 5e-16  # 3.7e-16 measured


def _closed_form_mp(p, r):
    # the closed form of integrate_first_order in mpmath, at the working precision
    import mpmath

    r = mpmath.mpf(r)
    t = r * r
    d = t + 4
    d2 = d * d
    L, Ls = mpmath.log(t), mpmath.log1p(t / 4)
    gm, gp = mpmath.mpf(p.m) - p.omega, mpmath.mpf(p.m) + p.omega
    pu, pv = 2 * r * (12 - t) / d2, 4 * (4 - 3 * t) / d2
    c1 = gm * t * (L * (t - 4) - 2 * d) / d2
    c1 -= gp * (L * Ls + mpmath.polylog(2, -t / 4) + t * (2 * t + 8 - L * (3 * t + 4)) / d2)
    c2 = -gm * t * (t - 4) / (2 * d2) + gp * (Ls / 2 - t * (3 * t + 4) / (2 * d2))
    q = d / r
    return c1 * pu + c2 * (2 * L * pu - q * pv), c1 * pv + c2 * (2 * L * pv + q * pu)


@pytest.mark.parametrize("m", [0.01, 1.0, 10.0])
def test_first_order_closed_form_in_double_matches_60_digits(m):
    # no RuntimeWarning either: pytest turns them into errors
    import mpmath

    p = Params(m, 0.5 * m)
    r = np.geomspace(1e-8, 1e8, 41)
    h1, k1 = integrate_first_order(p, r)
    with mpmath.workdps(60):
        want = np.array([[float(x) for x in _closed_form_mp(p, v)] for v in r])
    err = np.abs(h1 - want[:, 0]) + np.abs(k1 - want[:, 1])
    assert np.max(err / (np.abs(want[:, 0]) + np.abs(want[:, 1]))) <= 2e-15  # 1.1e-15 measured


def test_first_order_closed_form_solves_the_system_to_20_digits():
    # mpmath's Taylor-series solve of the first-order system, started on the
    # closed form at r = 1e-3, against the closed form at the same precision
    # (4.5e-21 measured); its double evaluation is the test above
    import mpmath

    with mpmath.workdps(20):
        gm, gp = mpmath.mpf(P.gap), mpmath.mpf(P.m + P.omega)

        def f(x, s):
            h1, k1 = s
            d = 4 + x * x
            u, v = 2 * x / d, 4 / d
            return [-gm * v + 2 * u * v * h1 + (u * u + 3 * v * v) * k1 - h1 / x, -gp * u - 2 * u * v * k1 - (3 * u * u + v * v) * h1]

        r0 = mpmath.mpf("1e-3")
        sol = mpmath.odefun(f, r0, list(_closed_form_mp(P, r0)))
        for r in (0.06, 0.5, 2.0, 5.0):
            (h1, k1), want = sol(mpmath.mpf(r)), _closed_form_mp(P, r)
            assert abs(h1 - want[0]) + abs(k1 - want[1]) <= 1e-18 * (abs(want[0]) + abs(want[1]))


def test_first_order_closed_form_matches_the_series_start():
    for r in (1e-4, 1e-3, 1e-2):
        h1, k1 = integrate_first_order(P, r)
        h, k = first_order_start(P, r)
        assert abs(h1 - h) + abs(k1 - k) <= 0.25 * r**3  # 0.219 r^3 measured


def test_dp5_converges_to_the_first_order_closed_form():
    # k1 at r = 1e6 off by 2.7e-10, 2.9e-12 and 3.0e-14 (relative)
    want = float(integrate_first_order(P, 1e6)[1])
    for rel in (1e-10, 1e-12, 1e-14):
        got = _first_order_run(P, 1e6, rel=rel).y[-1, 1]
        assert abs(got - want) <= 5.0 * rel * abs(want)


def test_first_order_log_law_constants_are_exact():
    # k1 = -2(m + omega) ln r + b + O(ln^2 r / r^2) with
    # b = (m + omega)(3 + 2 ln 2) + (m - omega); 1.0e-12 measured at 1e8
    for p in (P, Params(2.0, 0.6), Params(1.0, 0.1), Params(1.0, 0.9)):
        gp, r = p.m + p.omega, 1e8
        b = gp * (3.0 + 2.0 * math.log(2.0)) + p.gap
        assert abs(float(integrate_first_order(p, r)[1]) + 2.0 * gp * math.log(r) - b) < 1e-11


def test_integrate_first_order_rejects_nonpositive_radii():
    with pytest.raises(ValueError):
        integrate_first_order(P, [0.0, 1.0])


def _joint_start(p, r0):
    return (*first_order_start(p, r0), 0.0, 0.25 * (p.m * p.m - p.omega * p.omega) * r0 * r0)


@pytest.mark.parametrize("eps", [0.2, 0.05])
def test_joint_flow_first_order_columns_match_the_closed_form(eps):
    t = solve(_rhs_joint(eps, P), (R0, 1.0 / eps), _joint_start(P, R0), rel=TOL.rel, abs_tol=TOL.abs)
    h1, k1 = integrate_first_order(P, t.r)
    err = np.abs(t.y[:, 0] - h1) + np.abs(t.y[:, 1] - k1)
    sup = np.max(np.abs(h1) + np.abs(k1))
    assert np.max(err) <= 1e-9 * sup  # at most 6.3e-11 * sup measured at the step ends
    # the record's grid samples between its DOP853 steps, read through the
    # pair's own extension, hold the same bound (1.5e-10 and 4.8e-11 * sup
    # measured; its cubic Hermite was off by 1.8e-8 on DP5's steps)
    rec = integrate_remainder((eps,), P, TOL)[0]
    h1, k1 = integrate_first_order(P, rec.r)
    sup = np.max(np.abs(h1) + np.abs(k1))
    assert np.max(np.abs(rec.h1 - h1) + np.abs(rec.k1 - k1)) <= 1e-9 * sup


@pytest.mark.parametrize("mw", [(1.0, 0.5), (2.0, 0.6), (1.0, 0.1), (1.0, 0.9)])
def test_remainder_offset_is_exact(mw):
    # h2 = mu^2 r (ln r - a) + o(r) with a = 2 + ln 2 + (m - omega)/(2(m + omega))
    # (see remainder_bound_constant); 1.8e-7 to 9.7e-7 measured at r = 1e6
    p = Params(*mw)
    eps = 1e-6
    t = solve(_rhs_joint(eps, p), (R0, 1.0 / eps), _joint_start(p, R0), rel=TOL.rel, abs_tol=TOL.abs)
    r, h2 = t.r[-1], t.y[-1, 2]
    a = 2.0 + math.log(2.0) + p.gap / (2.0 * (p.m + p.omega))
    assert abs(h2 / r - remainder_bound_constant(p) * (math.log(r) - a)) < 2e-6


@pytest.mark.parametrize("mw", [(1.0, 0.5), (2.0, 0.6), (1.0, 0.9), (1.0, 0.1)])
@pytest.mark.parametrize("eps", [0.3, 0.05, 1e-6])
def test_joint_series_start_holds_both_recurrences(mw, eps):
    # the joint run starts from its series near r = 0.9 (0.85 to 0.92
    # measured), where the e^1 part is the closed form (h1, k1) to 2.7e-13,
    # and U0 + e h1 + e^2 h2 with e = eps^2 is the rescaled series of
    # series_start at its radius to 2.1e-12, within the start's target
    # 0.1 (rel + abs) = 2e-11
    p = Params(*mw)
    coef, r0 = _joint_series(eps, p, TOL)
    assert r0 >= 0.8
    h1, k1 = _sum_joint(coef, np.array([r0]))[0, :2]
    h1_closed, k1_closed = integrate_first_order(p, r0)
    assert abs(h1 - h1_closed) + abs(k1 - k1_closed) <= 1e-12
    r_s, (U, V) = series_start(1.0, rescaled_params(eps, p), TOL)
    h1, k1, h2, k2 = _sum_joint(coef, np.array([r_s]))[0]
    (u0, v0), e = bubble(r_s), eps * eps
    assert abs(u0 + e * (h1 + e * h2) - U) + abs(v0 + e * (k1 + e * k2) - V) <= 0.1 * (TOL.rel + TOL.abs)


@pytest.mark.parametrize("eps, bound", [(0.2, 1e-12), (0.05, 1e-11), (0.01, 5e-10)])
def test_remainder_sup_norm_matches_a_tight_run(eps, bound):
    # against a DOP853 run of the joint flow, read through its extension, from R0 at rel = abs =
    # 1e-13 on the record's grid: 5.2e-13, 7.0e-12 and 4.2e-10 measured (the
    # DP5 run sampled through its cubic Hermite was 1.1e-9, 3.7e-11 and 7.1e-10 off)
    grid = np.linspace(R0, 1.0 / eps, 800)
    tight = solve(_rhs_joint(eps, P), (R0, 1.0 / eps), _joint_start(P, R0), rel=1e-13, abs_tol=1e-13,
                  pair=DOP853)
    h2, k2 = tight.sample(grid)[:, 2:].T
    assert abs(integrate_remainder((eps,), P, TOL)[0].sup_norm - np.max(np.abs(h2) + np.abs(k2))) <= bound


@pytest.mark.parametrize("rel", [1e-6, 1e-10, 1e-12])
@pytest.mark.parametrize("eps", [0.3, 0.05])
def test_joint_flow_samples_hold_the_tolerance_between_step_ends(eps, rel):
    # the joint run of integrate_remainder, from its series start, against a
    # rel = abs = 1e-13 run from the same start on the record's grid: the
    # extension's error stays within abs + rel sup |y|_1 (0.09 to 1.32 times
    # it measured), where the cubic Hermite on the same steps is 119 to
    # 870,000 times it.  Against the error at the step ends it is 3.1 to 39
    # times larger: the interpolant is one order below the step, and the few
    # long steps of a loose run show it
    tol = Tolerances(rel, rel).resolved(P)
    coef, r0 = _joint_series(eps, P, tol)
    y0 = tuple(_sum_joint(coef, np.array([r0]))[0])
    grid = np.linspace(1e-6, 1.0 / eps, 800)
    grid = grid[grid >= r0]
    run, tight = (solve(_rhs_joint(eps, P), (r0, 1.0 / eps), y0, rel=x, abs_tol=x, pair=DOP853)
                  for x in (rel, 1e-13))
    want = tight.sample(grid)
    err = np.max(np.abs(run.sample(grid) - want).sum(axis=1))
    assert err <= 3.0 * rel * (1.0 + np.max(np.abs(want).sum(axis=1)))


def _bits(rec):
    """The fields of a record, arrays as the hex of each value (which keeps the sign of zero)."""
    return [[float(x).hex() for x in v] if isinstance(v, np.ndarray) else repr(v) for v in rec]


@pytest.mark.parametrize("T", [None, 10.0])
@pytest.mark.parametrize("mw", [(1.0, 0.5), (2.3, 0.7)])
def test_remainder_records_of_an_epsilon_list_are_its_single_calls(mw, T):
    # each pass over the list is elementwise, so every record is bitwise the
    # one of its eps alone, arrays included: 1/0.2 falls short of T = 10, and
    # the rescaled run at 0.02 crosses a zero of V before 1/eps (R = 46.6 and 37.0)
    p, epsilons = Params(*mw), (0.02, 0.2, 0.05)
    records = integrate_remainder(epsilons, p, TOL, T)
    assert [rec.epsilon for rec in records] == list(epsilons) and records[0].node_radius < 50.0
    for eps, rec in zip(epsilons, records):
        assert _bits(rec) == _bits(integrate_remainder((eps,), p, TOL, T)[0])


def test_remainder_of_no_epsilon_is_no_record():
    assert integrate_remainder((), P, TOL) == []


def test_remainder_initial_conditions_and_crosscheck():
    # the cross-check bound and the eps^-3/2 threshold at this eps are
    # verify's remainder_crosscheck and remainder_threshold
    rec = integrate_remainder((0.2,), P, TOL)[0]
    assert abs(rec.h2[0]) < 1e-10 and abs(rec.k2[0]) < 1e-10


def test_remainder_rejects_bad_eps():
    with pytest.raises(ValueError):
        integrate_remainder((0.0,), P, TOL)


@pytest.mark.parametrize("eps", [0.5, 0.2, 0.05])
def test_remainder_at_the_horizon_floor_is_clean(eps):
    # the rescaled run starts below T/2; at T = T_MIN its square is still a
    # normal float, so no step warns (pytest makes a RuntimeWarning an error)
    # and the two routes agree (6.0e-8 at eps = 0.2, 5.9e-8 at T = 10)
    rec = integrate_remainder((eps,), P, TOL, T_MIN)[0]
    assert rec.T == T_MIN and 0.0 < rec.sup_error < T_MIN
    assert rec.rel_discrepancy < CROSSCHECK_REL_BOUND


@pytest.mark.parametrize("T", [T_MIN / 10.0, 1e-200, 1e-320, 0.0])
def test_remainder_below_the_horizon_floor_is_refused(T):
    # from T = 1e-154 the start's square leaves the normal range: numpy
    # warned at 1e-200 and the sample grid failed at 1e-320
    with pytest.raises(ValueError, match="T must be at least 1e-150"):
        integrate_remainder((0.2,), P, TOL, T)


def _records(epsilons, T=10.0):
    return integrate_remainder(epsilons, P, TOL, T)


def test_convergence_study_ratios():
    records = _records([0.2, 0.1, 0.05, 0.025])
    study = convergence_study(records, 10.0)
    assert len(study["ratios"]) == 3
    assert all(b < a for a, b in zip(study["sup_errors"], study["sup_errors"][1:]))
    for ratio in study["ratios"]:
        assert 3.0 <= ratio <= 5.0
    assert study["node_radii"] == [rec.node_radius for rec in records]
    assert study["sup_errors"] == [rec.sup_error for rec in records]


def test_convergence_study_validation():
    with pytest.raises(ValueError):
        convergence_study(_records([0.1, 0.2]), 10.0)
    with pytest.raises(ValueError):
        convergence_study(_records([0.2, 0.2]), 10.0)
    # the study integrates nothing: records without the distance on [0, T]
    # or with it on another T are refused
    for records in (_records([0.2], None), _records([0.2], 5.0)):
        with pytest.raises(ValueError, match="distance to the bubble"):
            convergence_study(records, 10.0)


def test_node_radius_regimes():
    # V stays positive before 1/eps until eps is small enough that the
    # logarithmic correction overtakes the bubble tail
    assert integrate_remainder((0.5,), P, TOL)[0].node_radius is None
    assert integrate_remainder((0.05,), P, TOL)[0].node_radius is None
    R = integrate_remainder((0.02,), P, TOL)[0].node_radius
    assert R is not None and R < 50.0


def test_node_radius_reads_only_zeros_up_to_one_over_eps():
    # the run to T = 10 passes V's first zero at R = 8.71, beyond 1/eps = 3.33
    rec = integrate_remainder((0.3,), P, TOL, T=10.0)[0]
    assert rec.node_radius is None
    zeros = integrate_rescaled(0.3, P, TOL, r_end=10.0).events_of(EventKind.V_SIGN_CHANGE)
    assert [round(e.r, 2) for e in zeros] == [8.71]


def test_node_radius_consistent_with_radial_flow():
    eps = 0.02
    R = integrate_remainder((eps,), P, TOL)[0].node_radius
    lam = 1.0 / eps
    c = classify(lam, P, TOL)
    first = [e.r for e in c.trajectory.events if e.kind == EventKind.V_SIGN_CHANGE][0]
    assert first == pytest.approx(R * eps * eps, rel=1e-6)


def test_rescaled_energy_at_datum():
    assert hamiltonian((0.0, 1.0), rescaled_params(0.5, P)) <= 1.0
    assert hamiltonian((0.0, 1.0), rescaled_params(1e-8, P)) == pytest.approx(0.25)


@settings(deadline=None)
@given(
    st.floats(1e-3, 1e3),
    st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
    st.floats(1e-3, 1.0, exclude_max=True),
)
def test_perturbation_flows_are_the_pointwise_formulas_bitwise(r, y, eps):
    # the formulas compute 2uv, u^2 + 3v^2 and 3u^2 + v^2 once and share the
    # bubble between the first-order and remainder lines; every product and
    # sum keeps the operand order of the expressions written out in full
    gm, gp, e2 = P.gap, P.m + P.omega, eps * eps
    h1, k1, h2, k2 = y
    d = 4.0 + r * r
    u, v = 2.0 * r / d, 4.0 / d
    dh1 = -gm * v + 2.0 * u * v * h1 + (u * u + 3.0 * v * v) * k1 - h1 / r
    dk1 = -gp * u - 2.0 * u * v * k1 - (3.0 * u * u + v * v) * h1
    w, z = h1 + e2 * h2, k1 + e2 * k2
    c = e2 * (w * w + z * z)
    dh2 = 2.0 * u * v * h2 + (u * u + 3.0 * v * v) * k2 - gm * z - h2 / r
    dh2 += v * w * w + 2.0 * u * w * z + 3.0 * v * z * z + c * z
    dk2 = -(3.0 * u * u + v * v) * h2 - 2.0 * u * v * k2 - gp * w
    dk2 -= 3.0 * u * w * w + 2.0 * v * w * z + u * z * z + c * w

    def bits(t):
        return [x.hex() for x in t]

    assert bits(rhs_first_order(P)(r, (h1, k1))) == bits((dh1, dk1))
    assert bits(_rhs_joint(eps, P)(r, y)) == bits((dh1, dk1, dh2, dk2))


def test_remainder_sources_exact_in_high_precision():
    # (h2', k2') of the joint system must equal the eps^4-scaled defect
    # [F_eps(U0 + e2 h1 + e4 h2, V0 + e2 k1 + e4 k2) - F_0(U0, V0) - e2 G(h1, k1)] / e4
    # of the rescaled flow F_eps and first-order flow G; dyadic eps keeps
    # eps^2 exact, so at 50 digits only rounding separates the two
    import random

    import mpmath

    rng = random.Random(2017)
    first, bubble_flow = rhs_first_order(P), formula(_RADIAL, 0.0, 0.0)
    with mpmath.workdps(50):
        for eps in (0.5, 0.25, 0.125):
            e2 = mpmath.mpf(eps) ** 2
            e4 = e2 * e2
            flow = radial_flow(rescaled_params(eps, P))
            joint = _rhs_joint(eps, P)
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
