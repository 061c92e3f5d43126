import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from diracshoot import (
    Detector,
    EventKind,
    IntegrationError,
    Params,
    Tolerances,
    hamiltonian,
    integrate,
    rhs_autonomous,
    rhs_radial,
    solve,
    taylor_start,
)
from diracshoot.integrator import v_sign_detector

P = Params(1.0, 0.5)
TOL = Tolerances().resolved(P)


def test_matches_scipy_on_radial():
    # independent oracle: scipy's own embedded RK pair at the same tolerance
    y0 = taylor_start(1.3, P, 1e-6)
    ref = solve_ivp(
        lambda r, y: rhs_radial(r, tuple(y), P),
        (1e-6, 30.0),
        y0,
        method="RK45",
        rtol=1e-10,
        atol=1e-10,
        dense_output=True,
    )
    grid = np.linspace(0.5, 29.5, 200)
    traj = integrate(rhs_radial, (1e-6, y0), P, TOL, r_end=30.0, r_eval=grid)
    ref_vals = ref.sol(grid)
    err = np.max(np.abs(traj.y[:, 0] - ref_vals[0]) + np.abs(traj.y[:, 1] - ref_vals[1]))
    assert err < 1e-6


def test_event_location_matches_scipy():
    lam = 2.0
    r0 = 1e-6 / lam ** 2
    y0 = taylor_start(lam, P, r0)
    det = [Detector(EventKind.V_SIGN_CHANGE, lambda r, y: y[1], payload=lambda r, y: {"u": y[0]})]
    traj = integrate(rhs_radial, (r0, y0), P, TOL, detectors=det, r_end=10.0)
    mine = [e.r for e in traj.events_of(EventKind.V_SIGN_CHANGE)]

    def ev(r, y):
        return y[1]

    ref = solve_ivp(
        lambda r, y: rhs_radial(r, tuple(y), P),
        (r0, 10.0),
        y0,
        method="RK45",
        rtol=1e-10,
        atol=1e-10,
        events=[ev],
    )
    assert len(mine) == len(ref.t_events[0]) == 1
    assert mine[0] == pytest.approx(ref.t_events[0][0], abs=1e-7)


def test_equilibrium_stays_fixed():
    v0 = math.sqrt(P.gap)
    traj = integrate(rhs_autonomous, (0.0, (0.0, v0)), P, TOL, r_end=20.0)
    assert np.max(np.abs(traj.y[:, 0])) < 1e-9
    assert np.max(np.abs(traj.y[:, 1] - v0)) < 1e-9


def test_radial_energy_monotone_scaled():
    y0 = taylor_start(1.0, P, 1e-6)
    traj = integrate(rhs_radial, (1e-6, y0), P, TOL)
    rises = np.diff(traj.H) - 10.0 * TOL.rel * (1.0 + np.abs(traj.H[:-1]))
    assert rises.max() <= 0.0


def test_confinement_level_set():
    for lam in (0.6, 1.4, 2.3):
        r0 = 1e-6 / max(1.0, lam * lam)
        traj = integrate(rhs_radial, (r0, taylor_start(lam, P, r0)), P, TOL)
        assert traj.H.max() <= hamiltonian((0.0, lam), P) + TOL.abs


def test_shifted_approaches_autonomous():
    # (0, 1) sits on the separatrix, which amplifies the O(1/rho)
    # perturbation by roughly e^(mu T) ~ 6e3 over T = 10
    grid = np.linspace(0.0, 10.0, 200)
    auto = integrate(rhs_autonomous, (0.0, (0.0, 1.0)), P, TOL, r_end=10.0, r_eval=grid)
    sh = integrate(
        lambda r, s, p: rhs_radial(r + 1e6, s, p), (0.0, (0.0, 1.0)), P, TOL, r_end=10.0, r_eval=grid
    )
    dev = np.max(np.abs(auto.y - sh.y))
    assert dev < 1e-3


def test_r_eval_sampling_and_monotonicity():
    grid = [0.5, 1.0, 2.0, 5.0]
    traj = integrate(rhs_radial, (1e-6, taylor_start(1.0, P, 1e-6)), P, TOL, r_eval=grid, r_end=10.0)
    assert np.allclose(traj.r, grid)
    assert np.all(np.diff(traj.r) > 0)


def test_strictly_increasing_r():
    traj = integrate(rhs_radial, (1e-6, taylor_start(1.5, P, 1e-6)), P, TOL, r_end=30.0)
    assert np.all(np.diff(traj.r) > 0)


def test_terminal_event_truncates():
    det = [
        Detector(
            EventKind.ENTERED_NEGATIVE_ENERGY,
            lambda r, y: hamiltonian(y, P) + TOL.delta,
            direction=-1,
            terminal=True,
            payload=lambda r, y: {"H": hamiltonian(y, P)},
        )
    ]
    traj = integrate(rhs_radial, (1e-6, taylor_start(1.0, P, 1e-6)), P, TOL, detectors=det)
    assert traj.status == "event:entered_negative_energy"
    ev = traj.events[-1]
    assert ev.payload["H"] <= -TOL.delta  # crossed-side reporting
    assert traj.r[-1] == pytest.approx(ev.r)


def test_event_payload_carries_bracketing_step():
    lam = 2.0
    r0 = 1e-6 / lam ** 2
    det = [Detector(EventKind.V_SIGN_CHANGE, lambda r, y: y[1], payload=lambda r, y: {"u": y[0]})]
    traj = integrate(rhs_radial, (r0, taylor_start(lam, P, r0)), P, TOL, detectors=det, r_end=5.0)
    ev = traj.events_of(EventKind.V_SIGN_CHANGE)[0]
    lo, hi = ev.payload["step"]
    assert lo <= ev.r <= hi
    assert "u" in ev.payload


def test_rmax_event_emitted():
    traj = integrate(rhs_autonomous, (0.0, (0.1, 0.1)), P, TOL, r_end=5.0)
    assert traj.events[-1].kind == EventKind.RMAX_REACHED
    assert traj.r[-1] == pytest.approx(5.0)


def test_bad_span_rejected():
    with pytest.raises(ValueError):
        solve(lambda r, y: (0.0,), (1.0, 1.0), (0.0,), rel=1e-8, abs_tol=1e-8)
    with pytest.raises(ValueError):
        integrate(rhs_radial, (0.0, (0.0, 1.0)), P, TOL)


def test_step_underflow_carries_partial():
    # finite-time blow-up: y' = y^2 forces the step size to collapse
    with pytest.raises(IntegrationError) as exc:
        solve(lambda r, y: (y[0] * y[0],), (0.0, 2.0), (1.0,), rel=1e-10, abs_tol=1e-10)
    partial = exc.value.partial
    assert partial is not None and len(partial) > 10
    assert partial.r[-1] < 2.0


def test_dense_output_consistency():
    # sampling through r_eval must agree with the accepted-step solution
    y0 = taylor_start(1.1, P, 1e-6)
    full = integrate(rhs_radial, (1e-6, y0), P, TOL, r_end=8.0)
    grid = full.r[10:-10:5]
    sampled = integrate(rhs_radial, (1e-6, y0), P, TOL, r_end=8.0, r_eval=grid)
    err = np.max(np.abs(sampled.y - full.y[10:-10:5]))
    assert err < 1e-12  # same accepted points, no interpolation involved


def test_energy_column_matches_per_row_bitwise(gs):
    # the H trace is computed in one call on the state columns; it must be
    # bitwise the per-row evaluation for every recorded energy
    from diracshoot.asymptotics import _first_order_start, _rhs_joint, integrate_rescaled
    from diracshoot.equations import rescaled_hamiltonian

    def same_bits(a, b):
        return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))

    y0 = taylor_start(1.8, P, 1e-6)
    radial = integrate(rhs_radial, (1e-6, y0), P, TOL, r_end=20.0)
    assert same_bits(radial.H, [hamiltonian(tuple(row), P) for row in radial.y])

    eps = 0.2
    resc = integrate_rescaled(eps, P, TOL, r_end=5.0)
    assert same_bits(resc.H, [rescaled_hamiltonian(tuple(row), eps, P) for row in resc.y])

    # the matched decay tail of the ground-state profile follows the same rule
    tail = gs.profile.r > gs.anchor_r
    assert same_bits(gs.profile.H[tail], [hamiltonian(tuple(row), P) for row in gs.profile.y[tail]])

    # the 4-D remainder flow records no energy and keeps its NaN column
    r0 = TOL.r0
    start = (*_first_order_start(P, r0), 0.0, 0.25 * (P.m**2 - P.omega**2) * r0 * r0)
    joint = solve(_rhs_joint(eps, P), (r0, 2.0), start, rel=TOL.rel, abs_tol=TOL.abs)
    assert joint.y.shape[1] == 4
    assert np.all(np.isnan(joint.H))


def _reference_step(f, r, y, k1, h, r_new, rel, abs_tol):
    """One DP5(4) step in the vector form, each stage a loop over the
    components; returns (y_new, k7, err) like the generated step."""
    from diracshoot import integrator as I

    k2 = f(r + I._C2 * h, tuple(yi + h * I._A21 * a for yi, a in zip(y, k1)))
    k3 = f(r + I._C3 * h, tuple(yi + h * (I._A31 * a + I._A32 * b) for yi, a, b in zip(y, k1, k2)))
    k4 = f(
        r + I._C4 * h,
        tuple(
            yi + h * (I._A41 * a + I._A42 * b + I._A43 * c)
            for yi, a, b, c in zip(y, k1, k2, k3)
        ),
    )
    k5 = f(
        r + I._C5 * h,
        tuple(
            yi + h * (I._A51 * a + I._A52 * b + I._A53 * c + I._A54 * d)
            for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
        ),
    )
    k6 = f(
        r + h,
        tuple(
            yi + h * (I._A61 * a + I._A62 * b + I._A63 * c + I._A64 * d + I._A65 * e)
            for yi, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)
        ),
    )
    y_new = tuple(
        yi + h * (I._B1 * a + I._B3 * c + I._B4 * d + I._B5 * e + I._B6 * g)
        for yi, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)
    )
    k7 = f(r_new, y_new)
    err = 0.0
    for yi, yn, a, c, d, e, g, s in zip(y, y_new, k1, k3, k4, k5, k6, k7):
        sc = abs_tol + rel * max(abs(yi), abs(yn))
        e_i = h * (I._E1 * a + I._E3 * c + I._E4 * d + I._E5 * e + I._E6 * g + I._E7 * s)
        err += (e_i / sc) ** 2
    return y_new, k7, math.sqrt(err / len(y))


def _bits(y_new, k7, err):
    return [float(v).hex() for v in (*y_new, *k7, err)]  # hex keeps the sign of zero


def test_generated_step_is_bitwise_the_reference():
    from diracshoot.asymptotics import _first_order_start, _rhs_joint
    from diracshoot.integrator import _dp54

    radial = integrate(rhs_radial, (1e-6, taylor_start(1.3, P, 1e-6)), P, TOL, r_end=2.0)
    y2 = tuple(map(float, radial.y[-1]))
    joint = _rhs_joint(0.2, P)
    r4 = 0.5
    y4 = (*_first_order_start(P, r4), 1e-3, 0.25 * (P.m**2 - P.omega**2) * r4 * r4)
    cases = [  # (f, r, y, h, accepted)
        (lambda r, y: rhs_radial(r, y, P), 2.0, y2, 1e-2, True),
        (lambda r, y: rhs_radial(r, y, P), 2.0, y2, 1.5, False),
        (joint, r4, y4, 1e-2, True),
        (joint, r4, y4, 3.0, False),
    ]
    for f, r, y, h, accepted in cases:
        k1 = f(r, y)
        step, _ = _dp54(len(y))
        got = step(f, r, y, k1, h, r + h, TOL.rel, TOL.abs)
        want = _reference_step(f, r, y, k1, h, r + h, TOL.rel, TOL.abs)
        assert (got[2] <= 1.0) == accepted
        assert _bits(*got) == _bits(*want)


def test_stats_count_every_rhs_call(gs):
    # a counting wrapper around f is how a caller measures the work of solve;
    # it must leave the trajectory unchanged and agree with nfev
    calls = 0

    def f(r, y):
        return rhs_radial(r, y, P)

    def counted(r, y):
        nonlocal calls
        calls += 1
        return f(r, y)

    lam = 2.0
    r0 = 1e-6 / lam**2
    y0 = taylor_start(lam, P, r0)
    stop = Detector(EventKind.V_SIGN_CHANGE, lambda r, y: y[1], terminal=True)
    grid = np.linspace(0.5, 9.5, 50)
    for kw in (dict(), dict(r_eval=grid, detectors=[stop])):
        plain = solve(f, (r0, 10.0), y0, rel=TOL.rel, abs_tol=TOL.abs, **kw)
        calls = 0
        wrapped = solve(counted, (r0, 10.0), y0, rel=TOL.rel, abs_tol=TOL.abs, **kw)
        assert calls == wrapped.stats["nfev"] == plain.stats["nfev"]
        assert np.array_equal(plain.r, wrapped.r) and np.array_equal(plain.y, wrapped.y)
        assert plain.events == wrapped.events
        steps = wrapped.stats["naccpt"] + wrapped.stats["nrejct"]
        assert calls == 2 + 6 * steps
        if not kw:
            assert wrapped.stats["naccpt"] == len(wrapped) - 1 and wrapped.stats["nrejct"] > 0
    assert gs.profile.stats == {}  # assembled outside solve


def _hex(a):
    return [float(v).hex() for v in np.ravel(a)]  # hex keeps the sign of zero and NaN


def _dense_reference(f, r_span, y0, grid, energy=None, **kw):
    """(r, y, H) at the grid, one point at a time: a point equal to a recorded
    step end takes the state there, any other the scalar Hermite value on
    the first step ending at or beyond it.  The steps come from a run
    without r_eval; f is pure, so f(r, y) at a step end is its FSAL
    derivative, and the last call of f ends the step a terminal event cuts."""
    from diracshoot.integrator import _dp54

    last = []

    def logged(r, y):
        out = f(r, y)
        last[:] = [(r, y, out)]
        return out

    try:
        plain = solve(logged, r_span, y0, **kw)
    except IntegrationError as exc:
        plain = exc.partial
    rs = [float(r) for r in plain.r]
    ys = [tuple(map(float, row)) for row in plain.y]
    nodes = [(r, y, f(r, y)) for r, y in zip(rs, ys)]
    if plain.status.startswith("event:"):
        assert rs[-1] == plain.events[-1].r  # the last sample is the crossing
        nodes[-1] = last[0]
    hermite = _dp54(len(ys[0]))[1]
    out_r, out_y = [], []
    for pt in grid:
        if pt > rs[-1]:
            break
        j = next(j for j, r in enumerate(rs) if r >= pt)
        out_r.append(pt)
        out_y.append(ys[j] if pt == rs[j] else hermite(*nodes[j - 1], *nodes[j], pt))
    H = [energy(row) if energy else math.nan for row in out_y]
    return out_r, out_y, H


def test_dense_output_is_bitwise_the_scalar_loop():
    from diracshoot.asymptotics import _first_order_start, _rhs_joint

    def radial(r, y):
        return rhs_radial(r, y, P)

    def energy(y):
        return hamiltonian(y, P)

    lam = 2.0
    r0 = 1e-6 / lam**2
    y0 = taylor_start(lam, P, r0)
    kw = dict(rel=TOL.rel, abs_tol=TOL.abs)
    steps = solve(radial, (r0, 10.0), y0, **kw).r
    stop = solve(radial, (r0, 10.0), y0, detectors=[v_sign_detector(terminal=True)], **kw)
    r_star = stop.events[-1].r
    # r0, accepted step ends, the terminal crossing, interior points and r_end
    grid = np.unique(np.concatenate([steps[:60:4], [r_star], np.linspace(r0, 10.0, 301)]))
    start4 = (*_first_order_start(P, TOL.r0), 0.0, 0.25 * (P.m**2 - P.omega**2) * TOL.r0**2)
    runs = [  # (f, r_span, y0, grid, energy, detectors)
        (radial, (r0, 10.0), y0, grid, energy, ()),
        (_rhs_joint(0.2, P), (TOL.r0, 5.0), start4, np.linspace(TOL.r0, 5.0, 800), None, ()),
        (radial, (r0, 10.0), y0, grid, energy, [v_sign_detector(terminal=True)]),
    ]
    for f, span, y_start, pts, en, dets in runs:
        traj = solve(f, span, y_start, r_eval=pts, energy=en, detectors=dets, **kw)
        r, y, H = _dense_reference(f, span, y_start, pts, en, detectors=dets, **kw)
        assert len(r) > 0 and len(traj) == len(r)
        assert _hex(traj.r) == _hex(r) and _hex(traj.y) == _hex(y) and _hex(traj.H) == _hex(H)
    assert traj.status == "event:v_sign_change" and traj.r[-1] == r_star < grid[-1]
    assert traj.y.shape == (np.count_nonzero(grid <= r_star), 2)

    # a failed run keeps the samples up to its last accepted step
    blowup = dict(rel=1e-10, abs_tol=1e-10)
    grid = np.linspace(0.0, 2.0, 41)
    with pytest.raises(IntegrationError) as exc:
        solve(lambda r, y: (y[0] * y[0],), (0.0, 2.0), (1.0,), r_eval=grid, **blowup)
    partial = exc.value.partial
    r, y, H = _dense_reference(lambda r, y: (y[0] * y[0],), (0.0, 2.0), (1.0,), grid, **blowup)
    assert len(partial) == 20 and partial.r[-1] == grid[19]
    assert _hex(partial.r) == _hex(r) and _hex(partial.y) == _hex(y) and _hex(partial.H) == _hex(H)


@pytest.mark.parametrize(
    "r_eval, message",
    [
        ([0.5, 2.0, 1.0], "strictly increasing"),
        ([0.5, 1.0, 1.0], "strictly increasing"),
        ([0.0, 1.0], "within r_span"),
        ([1.0, 3.5], "within r_span"),
        ([[0.5, 1.0], [1.5, 2.0]], "one-dimensional"),
        ([0.5, math.nan, 1.0], "strictly increasing"),
        ([math.nan], "within r_span"),
    ],
)
def test_r_eval_rejected(r_eval, message):
    with pytest.raises(ValueError, match=message):
        solve(lambda r, y: (-y[0],), (0.25, 3.0), (1.0,), rel=1e-8, abs_tol=1e-8, r_eval=r_eval)


def test_empty_r_eval_gives_empty_trajectory():
    traj = solve(lambda r, y: (-y[1], y[0]), (0.0, 3.0), (1.0, 0.0), rel=1e-8, abs_tol=1e-8, r_eval=[])
    assert traj.status == "completed" and len(traj) == 0
    assert traj.y.shape == (0, 2) and traj.H.shape == (0,)
