import math

import numpy as np
import pytest
from reference import R0, rhs_first_order, taylor_start
from scipy.integrate import solve_ivp

from diracshoot import (
    Detector,
    EventKind,
    IntegrationError,
    Params,
    Tolerances,
    autonomous_flow,
    hamiltonian,
    radial_flow,
    series_start,
    solve,
)
from diracshoot.integrator import formula, v_sign
from diracshoot.shooting import capture_depth

P = Params(1.0, 0.5)
TOL = Tolerances().resolved(P)
RADIAL = radial_flow(P)
KW = dict(rel=TOL.rel, abs_tol=TOL.abs)
NODE = Detector(EventKind.V_SIGN_CHANGE)  # with g=v_sign
STOP = Detector(EventKind.V_SIGN_CHANGE, terminal=True)


def test_matches_scipy_on_radial():
    # independent oracle: scipy's own embedded RK pair at the same tolerance
    y0 = taylor_start(1.3, P, 1e-6)
    ref = solve_ivp(
        lambda r, y: RADIAL(r, tuple(y)),
        (1e-6, 30.0),
        y0,
        method="RK45",
        rtol=1e-10,
        atol=1e-10,
        dense_output=True,
    )
    grid = np.linspace(0.5, 29.5, 200)
    traj = solve(RADIAL, (1e-6, 30.0), y0, **KW).sample(grid)
    ref_vals = ref.sol(grid)
    err = np.max(np.abs(traj.y[:, 0] - ref_vals[0]) + np.abs(traj.y[:, 1] - ref_vals[1]))
    assert err < 1e-6


def test_event_location_matches_scipy():
    lam = 2.0
    r0 = 1e-6 / lam ** 2
    y0 = taylor_start(lam, P, r0)
    det = [Detector(EventKind.V_SIGN_CHANGE)]
    traj = solve(RADIAL, (r0, 10.0), y0, detectors=det, g=lambda r, y: (y[1],), **KW)
    mine = [e.r for e in traj.events_of(EventKind.V_SIGN_CHANGE)]

    def ev(r, y):
        return y[1]

    ref = solve_ivp(
        lambda r, y: RADIAL(r, tuple(y)),
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
    traj = solve(autonomous_flow(P), (0.0, 20.0), (0.0, v0), **KW)
    assert np.max(np.abs(traj.y[:, 0])) < 1e-9
    assert np.max(np.abs(traj.y[:, 1] - v0)) < 1e-9


def test_confinement_level_set():
    for lam in (0.6, 1.4, 2.3):
        r0 = 1e-6 / max(1.0, lam * lam)
        traj = solve(RADIAL, (r0, TOL.rmax), taylor_start(lam, P, r0), **KW)
        assert hamiltonian((traj.u, traj.v), P).max() <= hamiltonian((0.0, lam), P) + TOL.abs


def test_shifted_approaches_autonomous():
    # (0, 1) sits on the separatrix, which amplifies the O(1/rho)
    # perturbation by roughly e^(mu T) ~ 6e3 over T = 10
    grid = np.linspace(0.0, 10.0, 200)
    auto = solve(autonomous_flow(P), (0.0, 10.0), (0.0, 1.0), **KW).sample(grid)
    sh = solve(lambda r, s: RADIAL(r + 1e6, s), (0.0, 10.0), (0.0, 1.0), **KW).sample(grid)
    dev = np.max(np.abs(auto.y - sh.y))
    assert dev < 1e-3


def test_r_eval_sampling_and_monotonicity():
    grid = [0.5, 1.0, 2.0, 5.0]
    traj = solve(RADIAL, (1e-6, 10.0), taylor_start(1.0, P, 1e-6), **KW).sample(grid)
    assert np.allclose(traj.r, grid)
    assert np.all(np.diff(traj.r) > 0)


def test_strictly_increasing_r():
    traj = solve(RADIAL, (1e-6, 30.0), taylor_start(1.5, P, 1e-6), **KW)
    assert np.all(np.diff(traj.r) > 0)


def test_terminal_event_truncates():
    det = [Detector(EventKind.ENTERED_NEGATIVE_ENERGY, direction=-1, terminal=True)]
    g = lambda r, y: (hamiltonian(y, P) + capture_depth(P),)  # noqa: E731
    traj = solve(RADIAL, (1e-6, TOL.rmax), taylor_start(1.0, P, 1e-6), detectors=det, g=g, **KW)
    assert traj.status == "event:entered_negative_energy"
    ev = traj.events[-1]
    assert hamiltonian(ev.y, P) <= -capture_depth(P)  # crossed-side reporting
    assert traj.r[-1] == pytest.approx(ev.r)


def test_event_carries_crossing_state():
    lam = 2.0
    r0 = 1e-6 / lam ** 2
    y0 = taylor_start(lam, P, r0)
    # a terminal event's state is the trajectory's last sample, bit for bit
    traj = solve(RADIAL, (r0, TOL.rmax), y0, detectors=[STOP], g=v_sign, **KW)
    ev = traj.events[-1]
    assert ev.kind == EventKind.V_SIGN_CHANGE
    assert ev.r == traj.r[-1]
    assert np.array_equal(np.array(ev.y), traj.y[-1])
    # a non-terminal v-sign event sits on v = 0
    traj = solve(RADIAL, (r0, 5.0), y0, detectors=[NODE], g=v_sign, **KW)
    ev = traj.events_of(EventKind.V_SIGN_CHANGE)[0]
    assert len(ev.y) == 2
    assert abs(ev.y[1]) <= 1e-9


def test_run_to_r_end_completes_without_event():
    traj = solve(autonomous_flow(P), (0.0, 5.0), (0.1, 0.1), **KW)
    assert traj.status == "completed" and traj.events == ()
    assert traj.r[-1] == 5.0  # the last step lands exactly on r_end


def test_bad_span_rejected():
    with pytest.raises(ValueError):
        solve(lambda r, y: (0.0,), (1.0, 1.0), (0.0,), rel=1e-8, abs_tol=1e-8)
    with pytest.raises(ValueError):
        solve(RADIAL, (0.0, TOL.rmax), (0.0, 1.0), **KW)


def test_step_underflow_carries_partial():
    # finite-time blow-up: y' = y^2 forces the step size to collapse
    with pytest.raises(IntegrationError) as exc:
        solve(lambda r, y: (y[0] * y[0],), (0.0, 2.0), (1.0,), rel=1e-10, abs_tol=1e-10)
    partial = exc.value.partial
    assert partial is not None and len(partial) > 10
    assert partial.r[-1] < 2.0


def _rotation(r, y):
    return (-y[1], y[0])


@pytest.mark.parametrize(
    "f, y0",
    [
        (_rotation, (math.nan, 0.0)),
        (_rotation, (math.inf, 0.0)),
        (lambda r, y: (math.nan if r > 0.5 else -y[1], y[0]), (1.0, 0.0)),
    ],
    ids=["nan-start", "inf-start", "nan-rhs"],
)
def test_non_finite_run_raises(f, y0):
    # a NaN error norm or step size must not pass for an accepted step
    with pytest.raises(IntegrationError):
        solve(f, (0.0, 3.0), y0, rel=1e-8, abs_tol=1e-8)


def test_flat_start_stays_at_the_origin():
    # y = f = 0 at the start: _initial_step's flat branch takes h = 1e-6, and
    # each step's zero error norm grows it tenfold
    traj = solve(autonomous_flow(P), (0.0, 1.0), (0.0, 0.0), **KW)
    assert traj.r[1] == 1e-6 and np.allclose(np.diff(traj.r)[:-1], 1e-6 * 10.0 ** np.arange(6), rtol=1e-12)
    assert traj.r[-1] == 1.0 and len(traj) == 8
    assert not np.any(traj.y) and traj.stats["nrejct"] == 0


def test_dense_output_consistency():
    # sampling at step ends must agree with the accepted-step solution
    y0 = taylor_start(1.1, P, 1e-6)
    full = solve(RADIAL, (1e-6, 8.0), y0, **KW)
    grid = full.r[10:-10:5]
    sampled = full.sample(grid)
    err = np.max(np.abs(sampled.y - full.y[10:-10:5]))
    assert err < 1e-12  # same accepted points, no interpolation involved


# the Dormand-Prince 5(4) coefficients, written out here so that the
# reference checks the loop's table instead of sharing it
C2, C3, C4, C5 = 0.2, 0.3, 0.8, 8.0 / 9.0
A21 = 0.2
A31, A32 = 3.0 / 40.0, 9.0 / 40.0
A41, A42, A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
A51, A52, A53, A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
A61, A62, A63, A64, A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
B1, B3, B4, B5, B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
# error weights: 5th order minus embedded 4th order
E1, E3, E4, E5, E6, E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)


def test_tableau_order_conditions():
    # each stage row sums to its node, b sums to 1 and e to 0, and b meets
    # the quadrature conditions of orders 2 and 3
    from diracshoot import integrator as I

    *stages, b, e = I._DP54
    ulp = math.ulp(1.0)
    for c, *a in stages:
        assert abs(math.fsum(a) - c) <= 8 * ulp
    c = [0.0] + [row[0] for row in stages]
    assert len(b) == len(c) == 6 and len(e) == 7
    assert abs(math.fsum(b) - 1.0) <= 4 * ulp and abs(math.fsum(e)) <= 4 * ulp
    assert abs(math.fsum(bi * ci for bi, ci in zip(b, c)) - 0.5) <= 4 * ulp
    assert abs(math.fsum(bi * ci * ci for bi, ci in zip(b, c)) - 1.0 / 3.0) <= 4 * ulp


def _reference_step(f, r, y, k1, h, r_new, rel, abs_tol):
    """One DP5(4) step in the vector form, each stage a loop over the
    components; returns (y_new, k7, err) like the generated step."""
    k2 = f(r + C2 * h, tuple(yi + h * A21 * a for yi, a in zip(y, k1)))
    k3 = f(r + C3 * h, tuple(yi + h * (A31 * a + A32 * b) for yi, a, b in zip(y, k1, k2)))
    k4 = f(
        r + C4 * h,
        tuple(yi + h * (A41 * a + A42 * b + A43 * c) for yi, a, b, c in zip(y, k1, k2, k3)),
    )
    k5 = f(
        r + C5 * h,
        tuple(
            yi + h * (A51 * a + A52 * b + A53 * c + A54 * d)
            for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
        ),
    )
    k6 = f(
        r + h,
        tuple(
            yi + h * (A61 * a + A62 * b + A63 * c + A64 * d + A65 * e)
            for yi, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)
        ),
    )
    y_new = tuple(
        yi + h * (B1 * a + B3 * c + B4 * d + B5 * e + B6 * g)
        for yi, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)
    )
    k7 = f(r_new, y_new)
    err = 0.0
    for yi, yn, a, c, d, e, g, s in zip(y, y_new, k1, k3, k4, k5, k6, k7):
        sc = abs_tol + rel * max(abs(yi), abs(yn))
        e_i = h * (E1 * a + E3 * c + E4 * d + E5 * e + E6 * g + E7 * s)
        try:
            err += (e_i / sc) ** 2
        except OverflowError:  # a square past the float range rejects the step
            err = math.inf
    return y_new, k7, math.sqrt(err / len(y))


def _row(r, y, f):
    """A step end as the row (r, *y, *f) that the loop stores and hermite reads."""
    return (r, *y, *f)


def _reference_solve(f, r_span, y0, *, rel, abs_tol, detectors=(), g=None, r_eval=None):
    """solve as a Python loop over the steps and, for each accepted step,
    over the detectors, taking each value from its own call of g and each
    step from _reference_step, and over the r_eval points, each the state at
    an equal step end or the scalar Hermite value on the first step ending
    beyond it: the bitwise reference for the compiled loop.  nbisect counts
    the calls of g at bisection points.  A failure raises IntegrationError
    with the partial run."""
    from diracshoot import integrator as I

    r_end = float(r_span[1])
    r, y = float(r_span[0]), tuple(float(c) for c in y0)
    k1 = f(r, y)
    hermite = I._hermite(len(y))
    nodes = [(r, y, k1)]
    g_prev = [g(r, y)[i] for i in range(len(detectors))]
    events = []
    naccpt, nrejct, nbisect = 0, 0, 0

    def build(status, cut=None):
        R, Y, _ = zip(*nodes)
        R, Y = (R[:-1] + (cut[0],), Y[:-1] + (cut[1],)) if cut else (R, Y)
        if r_eval is not None:
            pts = [pt for pt in r_eval if pt <= R[-1]]
            js = [next(j for j, r in enumerate(R) if r >= pt) for pt in pts]
            Y = [Y[j] if pt == R[j] else hermite(_row(*nodes[j - 1]), _row(*nodes[j]), pt)
                 for pt, j in zip(pts, js)]
            R = pts
        stats = {"nfev": 2 + 6 * (naccpt + nrejct), "naccpt": naccpt, "nrejct": nrejct, "nbisect": nbisect}
        R, Y = np.array(R, dtype=float), np.array(Y, dtype=float)
        return I.Trajectory(R, Y, tuple(events), status, stats)

    h = I._initial_step(f, r, y, k1, r_end, rel, abs_tol)
    while r < r_end:
        if naccpt + nrejct >= I._MAX_STEPS:
            raise IntegrationError(f"step budget exhausted at r={r}", build("failed"))
        last = h >= r_end - r
        if last:
            h = r_end - r
        if not h > 1e-14 * abs(r):
            raise IntegrationError(f"step size underflow at r={r}", build("failed"))
        r_new = r_end if last else r + h
        y_new, k7, err = _reference_step(f, r, y, k1, h, r_new, rel, abs_tol)
        if not err <= 1.0:
            nrejct += 1
            h *= max(I._MIN_FACTOR, I._SAFETY * err**-0.2)
            continue
        naccpt += 1
        fired = []
        for i, det in enumerate(detectors):
            g0 = g_prev[i]
            g1 = g_prev[i] = g(r_new, y_new)[i]
            if (g0 > 0.0 >= g1 or g0 < 0.0 <= g1) and I._crossed(g0, g1, det.direction):
                lo_r, hi_r, g_lo = r, r_new, g0
                for _ in range(80):
                    if hi_r - lo_r <= 4e-16 * abs(hi_r):
                        break
                    mid = 0.5 * (lo_r + hi_r)
                    g_mid = g(mid, hermite(_row(r, y, k1), _row(r_new, y_new, k7), mid))[i]
                    nbisect += 1
                    if I._crossed(g_lo, g_mid, det.direction):
                        hi_r = mid
                        if abs(g_mid) <= abs_tol:
                            break
                    else:
                        lo_r, g_lo = mid, g_mid
                fired.append((hi_r, det))
        fired.sort(key=lambda t: t[0])
        for r_star, det in fired:
            y_star = hermite(_row(r, y, k1), _row(r_new, y_new, k7), r_star)
            events.append(I.Event(det.kind, r_star, y_star))
            if det.terminal:
                nodes.append((r_new, y_new, k7))
                return build(f"event:{det.kind.value}", (r_star, y_star))
        r, y, k1 = r_new, y_new, k7
        nodes.append((r, y, k1))
        factor = I._MAX_FACTOR if err == 0.0 else min(I._MAX_FACTOR, I._SAFETY * err**-0.2)
        h *= max(I._MIN_FACTOR, factor)
    return build("completed")


def _solve(f, r_span, y0, r_eval=None, **kw):
    """solve, and its run sampled at r_eval when given: what _reference_solve
    returns for the same arguments."""
    traj = solve(f, r_span, y0, **kw)
    return traj if r_eval is None else traj.sample(r_eval)


def _assert_same_run(traj, ref):
    assert _hex(traj.r) == _hex(ref.r) and _hex(traj.y) == _hex(ref.y)
    assert (traj.status, traj.stats) == (ref.status, ref.stats)
    assert [(e.kind, _hex([e.r, *e.y])) for e in traj.events] == [
        (e.kind, _hex([e.r, *e.y])) for e in ref.events
    ]


def _rotation_events(r, y):
    return y[1], y[0]


def test_compiled_loop_is_bitwise_the_reference_solve():
    # each run three ways: solve(f), which inlines the text of a flow or an
    # event function built by formula, solve of a plain callable around f,
    # which inlines g alone, and the reference, which calls both; a run given
    # r_eval is sampled there after solve
    from diracshoot.asymptotics import _first_order_start, _rhs_joint
    from diracshoot.phaseflow import attraction_report
    from diracshoot.shooting import _events

    runs = []  # (f, r_span, y0, keywords of solve)
    # shooting trials A(0), nodal (A(1)), I-candidate, undecided at a
    # horizon, and one stopped at its first node (the certificate fires in
    # the first four); each has rejected steps.  The I-candidate is the
    # connection at (1, 0.99): the ones at P take no rejected step
    lam_star = 1.8078961488783114  # a datum at P, TOL whose trial connects
    p99 = Params(1.0, 0.99)
    tol99 = Tolerances().resolved(p99)
    trials = slice(len(runs), len(runs) + 5)
    for lam, p, tol, stop, horizon in [
        (lam_star - 7e-12, P, TOL, False, TOL.rmax),
        (lam_star + 3e-12, P, TOL, False, TOL.rmax),
        (0.22115975241011132, p99, tol99, False, tol99.rmax),  # its ground state's datum
        (lam_star - 7e-12, P, TOL, False, 20.0),
        (8.0, P, TOL, True, TOL.rmax),
    ]:
        r0, y0 = series_start(lam, p, tol)
        g, dets = _events(p, stop)
        runs.append((radial_flow(p), (r0, horizon), y0, dict(detectors=dets, g=g)))
    # the rescaled run with a v-sign detector at eps = 0.05, 0.2 and the
    # eps = 0 bubble limit, from its series start
    for eps in (0.05, 0.2, 0.0):
        end = 1.0 / eps if eps else 20.0
        r0, y0 = series_start(1.0, P, TOL, eps, end)
        runs.append((radial_flow(P, eps), (r0, end), y0, dict(detectors=[NODE], g=v_sign)))
    # attraction_report's run to the horizon, where u crosses zero many
    # times on the spiral toward the equilibrium
    r0, y0 = series_start(2.5, P, TOL)
    i_spiral = len(runs)
    runs.append((RADIAL, (r0, TOL.rmax), y0, {}))
    # a grid through r0, step ends, the terminal crossing, interior points
    # and r_end, with and without the terminal detector
    lam = 2.0
    r0 = 1e-6 / lam**2
    y0 = taylor_start(lam, P, r0)
    steps = solve(RADIAL, (r0, 10.0), y0, **KW).r
    r_star = solve(RADIAL, (r0, 10.0), y0, detectors=[STOP], g=v_sign, **KW).events[-1].r
    grid = np.unique(np.concatenate([steps[:60:4], [r_star], np.linspace(r0, 10.0, 301)]))
    runs.append((RADIAL, (r0, 10.0), y0, dict(r_eval=grid)))
    i_grid_stop = len(runs)
    runs.append((RADIAL, (r0, 10.0), y0, dict(r_eval=grid, detectors=[STOP], g=v_sign)))
    # the first-order flow over the log-law window and the 4-D joint
    # remainder flow on (0, 1/eps), sampled as asymptotics samples them
    start2 = _first_order_start(P, R0)
    start4 = (*start2, 0.0, 0.25 * (P.m**2 - P.omega**2) * R0**2)
    runs.append((rhs_first_order(P), (R0, 1e6), start2, dict(r_eval=np.geomspace(1e3, 1e6, 200))))
    for eps in (0.3, 0.2, 0.1, 0.02):
        grid4 = np.linspace(R0, 1.0 / eps, 800)
        runs.append((_rhs_joint(eps, P), (R0, 1.0 / eps), start4, dict(r_eval=grid4)))
    # the joint flow with rejected steps from a large remainder at r0, and
    # with samples up to a terminal event where h1 falls below -0.5 (past
    # r = 1), so that the cut step is interpolated
    i_joint_rej = len(runs)
    runs.append((_rhs_joint(0.5, P), (R0, 2.0), (0.0, 0.0, 1.0, 1.0), {}))
    stop4 = dict(detectors=[STOP], g=lambda r, y: (y[0] + 0.5,), r_eval=np.linspace(R0, 5.0, 800))
    i_joint_stop = len(runs)
    runs.append((_rhs_joint(0.1, P), (R0, 5.0), start4, stop4))
    # a detector that fires on every sign change next to one that fires on
    # upward crossings only
    both = [Detector(EventKind.V_SIGN_CHANGE), Detector(EventKind.CERTIFICATE_FIRED, 1)]
    i_both = len(runs)
    runs.append((_rotation, (0.0, 30.0), (1.0, 0.1), dict(detectors=both, g=_rotation_events)))
    # a value that reaches exactly 0.0 from either side where the last step
    # lands on r_end
    zeros = slice(len(runs), len(runs) + 2)
    for sign in (1.0, -1.0):
        g = lambda r, y, s=sign: (s * (3.0 - r),)  # noqa: E731
        runs.append((_rotation, (0.0, 3.0), (1.0, 0.1), dict(detectors=[NODE], g=g)))

    got = []
    for f, span, y0, ev in runs:
        got.append(_solve(f, span, y0, **ev, **KW))
        _assert_same_run(got[-1], _solve(lambda r, y: f(r, y), span, y0, **ev, **KW))
        _assert_same_run(got[-1], _reference_solve(f, span, y0, **ev, **KW))
        if "r_eval" in ev and got[-1].status == "completed":
            assert len(got[-1]) == len(ev["r_eval"])
    assert [t.status for t in got[trials]] == [
        "event:entered_negative_energy",
        "event:entered_negative_energy",
        "event:norm_below_eta",
        "completed",
        "event:v_sign_change",
    ]
    assert [t.nodes_before() for t in got[trials]] == [0, 1, 0, 0, 1]
    assert all(t.stats["nrejct"] > 0 for t in got[trials])
    report = attraction_report(2.5, P, TOL)
    _assert_same_run(report.trajectory, got[i_spiral])
    assert report.u_sign_alternations > 30
    stopped = got[i_grid_stop]
    assert stopped.status == "event:v_sign_change" and stopped.r[-1] == r_star < grid[-1]
    assert stopped.y.shape == (np.count_nonzero(grid <= r_star), 2)
    assert got[i_joint_rej].y.shape[1] == 4 and got[i_joint_rej].stats["nrejct"] == 3
    stopped = got[i_joint_stop]
    assert stopped.status == "event:v_sign_change" and 1.0 < stopped.r[-1] < 5.0
    assert len(got[i_both].events_of(EventKind.V_SIGN_CHANGE)) == 9
    assert len(got[i_both].events_of(EventKind.CERTIFICATE_FIRED)) == 5
    assert [e.r for t in got[zeros] for e in t.events_of(EventKind.V_SIGN_CHANGE)] == [3.0, 3.0]


def test_formula_event_function_is_called_only_at_the_start():
    # the sign screen and the bisection both inline a g built by formula, so
    # a counting wrapper that keeps the formula is called once per run, at
    # the start, on a nodal full-horizon trial whose v-sign change and
    # certificate are not terminal and whose capture is; the run is bitwise
    # that of the called wrapper, which counts each accepted step and each
    # bisection point
    from diracshoot.shooting import _events

    g, dets = _events(P, False)
    calls = 0

    def counted(r, y):
        nonlocal calls
        calls += 1
        return g(r, y)

    counted.formula = g.formula
    r0, y0 = series_start(1.8078961488783114 + 3e-12, P, TOL)
    kw = dict(rel=TOL.rel, abs_tol=TOL.abs, detectors=dets)
    inlined = solve(RADIAL, (r0, TOL.rmax), y0, g=counted, **kw)
    assert calls == 1
    called = solve(RADIAL, (r0, TOL.rmax), y0, g=lambda r, y: counted(r, y), **kw)
    _assert_same_run(inlined, called)
    assert calls == 2 + called.stats["naccpt"] + called.stats["nbisect"]
    assert inlined.status == "event:entered_negative_energy"
    assert {e.kind for e in inlined.events} == set(EventKind) - {EventKind.NORM_BELOW_ETA}
    assert inlined.stats["nbisect"] > 0


def test_formula_names_are_private_to_the_loop():
    # each name a formula binds or reads is suffixed in the compiled loop,
    # so formulas may use the loop's names: e1 is the second component of
    # its fifth stage, r its radius, h its step size and c0 the first
    # component of its third stage, and an event function may assign the
    # radial flow's constant a_minus.  Each runs bitwise as its called twin,
    # the event functions through crossings that bisection refines
    import re

    from diracshoot.integrator import _DP54_SRC, _HERMITE_SRC, _REFINE_SRC

    assert not re.findall(r"\w_[fg]\b", _DP54_SRC + _REFINE_SRC + _HERMITE_SRC)
    for src in (
        "def f(x, s, e1):\n    u, v = s\n    return e1 * v, -u\n",
        "def f(x, s, c):\n    u, v = s\n    r = c * x\n    return r * v, -u\n",
        "def f(x, s, c):\n    u, v = s\n    h = c * x\n    return h * v, -u\n",
    ):
        f = formula(src, 0.5)
        run = solve(f, (1.0, 2.0), (1.0, 0.0), rel=1e-8, abs_tol=1e-8)
        _assert_same_run(run, solve(lambda r, y: f(r, y), (1.0, 2.0), (1.0, 0.0), rel=1e-8, abs_tol=1e-8))
    kw = dict(rel=1e-8, abs_tol=1e-8, detectors=[NODE])
    r0, y0 = 1e-6, taylor_start(1.0, P, 1e-6)
    for g in (  # v falls from 1 to 0.6 over the run
        formula("def f(x, s, c0):\n    u, v = s\n    return v - c0,\n", 0.8),
        formula("def f(x, s):\n    u, v = s\n    a_minus = v * v\n    return a_minus - 0.5,\n"),
    ):
        run = solve(RADIAL, (r0, 2.0), y0, g=g, **kw)
        _assert_same_run(run, solve(RADIAL, (r0, 2.0), y0, g=lambda r, y: g(r, y), **kw))
        assert len(run.events) == 1 and run.stats["nbisect"] > 0


def test_failures_match_the_reference_solve(monkeypatch):
    # step-size underflow in the finite-time blow-up of y' = y^2, sampled at
    # every step end or at a grid, and a step budget that runs out after the
    # first node of a nodal trial: the same message and the same partial run,
    # which keeps the samples up to its last accepted step
    from diracshoot import integrator as I
    from diracshoot.shooting import _events

    def blowup(r, y):
        return (y[0] * y[0],)

    def same_failure(f, span, y_start, message, r_eval=None, **kw):
        with pytest.raises(IntegrationError, match=message) as exc:
            solve(f, span, y_start, **kw)
        with pytest.raises(IntegrationError) as ref:
            _reference_solve(f, span, y_start, r_eval=r_eval, **kw)
        assert str(exc.value) == str(ref.value)
        partial = exc.value.partial if r_eval is None else exc.value.partial.sample(r_eval)
        _assert_same_run(partial, ref.value.partial)
        return partial

    blow = dict(rel=1e-10, abs_tol=1e-10)
    same_failure(blowup, (0.0, 2.0), (1.0,), "step size underflow", **blow)
    grid = np.linspace(0.0, 2.0, 41)
    partial = same_failure(blowup, (0.0, 2.0), (1.0,), "step size underflow", r_eval=grid, **blow)
    assert len(partial) == 20 and partial.r[-1] == grid[19]

    monkeypatch.setattr(I, "_MAX_STEPS", 90)  # of the trial's 104 steps, its first node in the 78th
    r0, y0 = series_start(2.5, P, TOL)
    g, dets = _events(P, False)
    kw = dict(detectors=dets, g=g, rel=TOL.rel, abs_tol=TOL.abs)
    partial = same_failure(RADIAL, (r0, TOL.rmax), y0, "step budget exhausted", **kw)
    assert partial.stats["naccpt"] + partial.stats["nrejct"] == 90
    assert partial.nodes_before() == 1



def test_overflowing_error_norm_rejects_the_step(monkeypatch):
    # near r = 1.27e29 the rescaled run at eps = 1e-100 tries steps whose
    # stages blow up: a term of the error norm is finite but its square is
    # past the float range, where ** raises, and the step is rejected as one
    # with a NaN norm is; accepted steps then alternate with such rejected
    # ones five times their size until the step budget runs out
    from diracshoot import integrator as I
    from diracshoot.asymptotics import integrate_rescaled

    monkeypatch.setattr(I, "_MAX_STEPS", 1000)
    eps = 1e-100
    r0, y0 = series_start(1.0, P, TOL, eps, 1.0 / eps)
    with pytest.raises(IntegrationError, match="step budget exhausted") as exc:
        integrate_rescaled(eps, P, TOL)
    with pytest.raises(IntegrationError) as ref:
        _reference_solve(radial_flow(P, eps), (r0, 1.0 / eps), y0, detectors=[NODE], g=v_sign, **KW)
    assert str(exc.value) == str(ref.value)
    _assert_same_run(exc.value.partial, ref.value.partial)
    assert exc.value.partial.r[-1] > 1.2e29 and exc.value.partial.stats["nrejct"] > 300

def test_stats_count_every_rhs_call(gs):
    # a counting wrapper around f is how a caller measures the work of solve;
    # it must leave the trajectory unchanged and agree with nfev.  A wrapper
    # that keeps the radial formula is called only for the first derivative
    # and the initial step size: the stages are inlined
    calls = 0

    def counted(r, y):
        nonlocal calls
        calls += 1
        return RADIAL(r, y)

    def counted_formula(r, y):
        return counted(r, y)

    counted_formula.formula = RADIAL.formula

    lam = 2.0
    r0 = 1e-6 / lam**2
    y0 = taylor_start(lam, P, r0)
    for kw in (dict(), dict(detectors=[STOP], g=v_sign)):
        plain = solve(RADIAL, (r0, 10.0), y0, rel=TOL.rel, abs_tol=TOL.abs, **kw)
        calls = 0
        wrapped = solve(counted, (r0, 10.0), y0, rel=TOL.rel, abs_tol=TOL.abs, **kw)
        assert calls == wrapped.stats["nfev"] == plain.stats["nfev"]
        assert np.array_equal(plain.r, wrapped.r) and np.array_equal(plain.y, wrapped.y)
        assert plain.events == wrapped.events
        steps = wrapped.stats["naccpt"] + wrapped.stats["nrejct"]
        assert calls == 2 + 6 * steps
        calls = 0
        inlined = solve(counted_formula, (r0, 10.0), y0, rel=TOL.rel, abs_tol=TOL.abs, **kw)
        assert calls == 2 and inlined.stats == plain.stats
        if not kw:
            assert wrapped.stats["naccpt"] == len(wrapped) - 1 and wrapped.stats["nrejct"] > 0
    assert gs.profile.stats == {} and gs.profile.table is None  # assembled outside solve
    with pytest.raises(ValueError, match="step table"):
        gs.profile.sample([1.0])


def _hex(a):
    return [float(v).hex() for v in np.ravel(a)]  # hex keeps the sign of zero and NaN


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
    run = solve(lambda r, y: (-y[0],), (0.25, 3.0), (1.0,), rel=1e-8, abs_tol=1e-8)
    with pytest.raises(ValueError, match=message):
        run.sample(r_eval)


@pytest.mark.parametrize(
    "kw, message",
    [
        (dict(detectors=[NODE]), "event function g"),
        (dict(detectors=[NODE], g=lambda r, y: (y[1], y[0])), "one value per detector, 1, got 2"),
        (dict(detectors=[NODE, STOP], g=v_sign), "one value per detector, 2, got 1"),
        (dict(abs_tol=0.0), "abs_tol must be positive"),
        (dict(abs_tol=-1e-8), "abs_tol must be positive"),
        (dict(abs_tol=math.nan), "abs_tol must be positive"),
        (dict(rel=-1e-8), "rel must be nonnegative"),
        (dict(rel=math.nan), "rel must be nonnegative"),
        (dict(rel=math.inf), "rel must be nonnegative"),
    ],
)
def test_misuse_of_solve_is_rejected(kw, message):
    # a ValueError that names the argument, before any step: not a TypeError
    # in the loop's call, a ZeroDivisionError in the initial step size or a
    # step-size underflow
    kw = dict(rel=1e-8, abs_tol=1e-8) | kw
    with pytest.raises(ValueError, match=message):
        solve(lambda r, y: (-y[1], y[0]), (0.0, 3.0), (1.0, 0.0), **kw)


def test_empty_r_eval_gives_empty_trajectory():
    run = solve(lambda r, y: (-y[1], y[0]), (0.0, 3.0), (1.0, 0.0), rel=1e-8, abs_tol=1e-8)
    traj = run.sample([])
    assert traj.status == "completed" and len(traj) == 0
    assert traj.y.shape == (0, 2)


def test_sample_of_a_terminal_run_ends_at_the_crossing():
    # the step table keeps the step that holds the crossing uncut: a point at
    # the crossing takes the event's state y*, one before it the Hermite value
    # on that step, and the points past it are left out; a grid before the
    # start is still refused
    from diracshoot.integrator import _hermite

    lam = 2.0
    r0 = 1e-6 / lam**2
    run = solve(RADIAL, (r0, 10.0), taylor_start(lam, P, r0), detectors=[STOP], g=v_sign, **KW)
    star = run.events[-1]
    assert run.status == "event:v_sign_change" and run.r[-1] == star.r < run.table[-1, 0]
    inside = 0.5 * (run.r[-2] + star.r)
    traj = run.sample([r0, inside, star.r, run.table[-1, 0], 10.0])
    assert list(traj.r) == [r0, inside, star.r]
    assert tuple(traj.y[-1].tolist()) == star.y and traj.events == run.events
    assert tuple(traj.y[1].tolist()) == _hermite(2)(run.table[-2], run.table[-1], inside)
    with pytest.raises(ValueError, match="within r_span"):
        run.sample([0.0, 1.0])


def test_crossing_is_refined_far_below_unit_radius():
    # the bisection stops at a width relative to the radius, so the first
    # node of a large datum (near 4e-11, 4e-15 and 4e-19) lands on v = 0
    from diracshoot import classify

    for lam in (1e8, 1e10, 1e12):
        node = classify(lam, P, TOL).trajectory.events_of(EventKind.V_SIGN_CHANGE)[0]
        assert abs(node.y[1]) < 1e-9, (lam, node)
