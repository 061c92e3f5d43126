import math

import numpy as np
import pytest
from reference import R0, first_order_start, rhs_first_order, taylor_start
from scipy.integrate import solve_ivp

from diracshoot import (
    Detector,
    EventKind,
    IntegrationError,
    Params,
    Tolerances,
    Trajectory,
    autonomous_flow,
    hamiltonian,
    radial_flow,
    rescaled_params,
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
    rows = solve(RADIAL, (1e-6, 30.0), y0, **KW).sample(grid)
    ref_vals = ref.sol(grid)
    err = np.max(np.abs(rows[:, 0] - ref_vals[0]) + np.abs(rows[:, 1] - ref_vals[1]))
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
    dev = np.max(np.abs(auto - sh))
    assert dev < 1e-3


def test_r_eval_sampling_and_monotonicity():
    # one row per point of the increasing grid, each the row of its point alone
    grid = [0.5, 1.0, 2.0, 5.0]
    run = solve(RADIAL, (1e-6, 10.0), taylor_start(1.0, P, 1e-6), **KW)
    rows = run.sample(grid)
    assert rows.shape == (len(grid), 2)
    assert rows.tolist() == [run.sample([x])[0].tolist() for x in grid]


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
    assert len(partial) > 10
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
    err = np.max(np.abs(full.sample(grid) - full.y[10:-10:5]))
    assert err < 1e-12  # same accepted points, no interpolation involved


def test_tableau_order_conditions():
    # each stage row sums to its node, b sums to 1 and E5 and E3 to 0, and b
    # meets the quadrature conditions sum b c^(k - 1) = 1/k of orders 1 to 8
    from diracshoot import integrator as I

    stages, b, errors = I._STAGES, I._B, I._ERRORS
    ulp = math.ulp(1.0)
    for c, *a in (*stages, *I._EXTRA):
        assert abs(math.fsum(a) - c) <= 8 * ulp
    c = [0.0] + [row[0] for row in stages]
    assert len(b) == len(c) == 12 and all(len(e) == 12 for e in errors)
    assert abs(math.fsum(b) - 1.0) <= 4 * ulp and all(abs(math.fsum(e)) <= 4 * ulp for e in errors)
    for k in range(1, 9):
        assert abs(math.fsum(bi * ci ** (k - 1) for bi, ci in zip(b, c)) - 1.0 / k) <= 4 * ulp


def _combination(weights, ks, i):
    """The sum of w k[i] over the nonzero weights, left to right."""
    terms = [float(w) * k[i] for w, k in zip(weights, ks) if w]
    total = terms[0]
    for t in terms[1:]:
        total += t
    return total


def _reference_step_853(f, r, y, k1, h, r_new, rel, abs_tol):
    """One DOP853 step from scipy's table, each stage and error sum a loop
    over the components and the nonzero coefficients, with Hairer's error
    norm; returns (y_new, err, stages): the caller evaluates the FSAL stage,
    which has no error weight, on accepted steps alone."""
    from scipy.integrate._ivp import dop853_coefficients as T

    def ahead(weights, ks, i):
        # h times a combination, or h * w * k for a single term, as the loop writes it
        single = [(float(w), k[i]) for w, k in zip(weights, ks) if w]
        return h * single[0][0] * single[0][1] if len(single) == 1 else h * _combination(weights, ks, i)

    ks = [k1]
    for s in range(1, T.N_STAGES):
        c = float(T.C[s])
        ks.append(f(r + h if c == 1.0 else r + c * h, tuple(yi + ahead(T.A[s, :s], ks, i) for i, yi in enumerate(y))))
    y_new = tuple(yi + ahead(T.B, ks, i) for i, yi in enumerate(y))
    e5 = e3 = 0.0
    try:
        for i, (yi, yn) in enumerate(zip(y, y_new)):
            sc = abs_tol + rel * max(abs(yi), abs(yn))
            e5 += (_combination(T.E5[:-1], ks, i) / sc) ** 2
            e3 += (_combination(T.E3[:-1], ks, i) / sc) ** 2
    except OverflowError:  # a square past the float range rejects the step
        return y_new, math.inf, ks
    return y_new, h * e5 / math.sqrt((e5 + 0.01 * e3) * len(y)) if e5 else 0.0, ks


def _reference_rows(f, r, y, r_new, y_new, ks):
    """The rows F0, F1, ... of the continuous extension on one step, each a
    loop over the components, from its stages ks (the FSAL one last):
    scipy's Dop853DenseOutput rows, whose three extra stages call f."""
    from scipy.integrate._ivp import dop853_coefficients as T

    h = r_new - r
    dy = [b - a for a, b in zip(y, y_new)]
    F = [y, dy, [h * k - d for k, d in zip(ks[0], dy)], [2.0 * d - h * (b + a) for d, a, b in zip(dy, ks[0], ks[-1])]]
    ks = list(ks)
    for s in range(13, 16):
        ks.append(f(r + float(T.C[s]) * h, tuple(yi + h * _combination(T.A[s, :s], ks, i) for i, yi in enumerate(y))))
    return F + [[h * _combination(row, ks, i) for i in range(len(y))] for row in T.D]


def _reference_extension(F, r, r_new, x):
    """The rows F at x on the step from r to r_new, one Horner scheme per
    component: F0 + t (F1 + (1 - t) (F2 + t (F3 + ...))), t = (x - r) / h."""
    t = (x - r) / (r_new - r)
    state = []
    for i in range(len(F[0])):
        value = F[-1][i]
        for j in range(len(F) - 2, -1, -1):
            value = F[j][i] + (t if j % 2 == 0 else 1.0 - t) * value
        state.append(value)
    return tuple(state)


def _reference_solve(f, r_span, y0, *, rel, abs_tol, detectors=(), g=None, r_eval=None, step=None):
    """solve as a Python loop over the steps and, for each accepted step,
    over the detectors, taking each value from its own call of g and each
    step from step (default _reference_step_853), and over the r_eval points,
    each the state at an equal step end or the value of the continuous
    extension on the first step ending beyond it: the bitwise reference for
    the compiled loop.  nfev counts the
    calls of f, the extension's on steps whose crossings are refined too, and
    nbisect the calls of g at bisection points.  A failure raises
    IntegrationError with the partial run."""
    from diracshoot import integrator as I

    step = step or _reference_step_853
    nfev = 0

    def counted(r, y):
        nonlocal nfev
        nfev += 1
        return f(r, y)

    r_end = float(r_span[1])
    r, y = float(r_span[0]), tuple(float(c) for c in y0)
    k1 = counted(r, y)
    nodes = [(r, y, None)]  # (r, y, stages of the step ending there)
    g_prev = [g(r, y)[i] for i in range(len(detectors))]
    events = []
    naccpt, nrejct, nbisect = 0, 0, 0

    def build(status, cut=None):
        R, Y, _ = zip(*nodes)
        R, Y = (R[:-1] + (cut[0],), Y[:-1] + (cut[1],)) if cut else (R, Y)
        if r_eval is not None:
            pts = [pt for pt in r_eval if pt <= R[-1]]
            js = [next(j for j, r in enumerate(R) if r >= pt) for pt in pts]
            Y = [Y[j] if pt == R[j] else _reference_extension(
                _reference_rows(f, *nodes[j - 1][:2], *nodes[j]), nodes[j - 1][0], nodes[j][0], pt)
                for pt, j in zip(pts, js)]
            R = pts
        stats = {"nfev": nfev, "naccpt": naccpt, "nrejct": nrejct, "nbisect": nbisect}
        return I.Trajectory((R, *zip(*Y)), events, status, stats)

    h = I._initial_step(counted, r, y, k1, r_end, rel, abs_tol)
    while r < r_end:
        if naccpt + nrejct >= I._MAX_STEPS:
            raise IntegrationError(f"step budget exhausted at r={r}", build("failed"))
        last = h >= r_end - r
        if last:
            h = r_end - r
        if not h > 1e-14 * abs(r):
            raise IntegrationError(f"step size underflow at r={r}", build("failed"))
        r_new = r_end if last else r + h
        y_new, err, ks = step(counted, r, y, k1, h, r_new, rel, abs_tol)
        if not err <= 1.0:
            nrejct += 1
            h *= max(I._MIN_FACTOR, I._SAFETY * err ** (-1.0 / 8.0))
            continue
        naccpt += 1
        k7 = counted(r_new, y_new)  # the FSAL stage, which has no error weight
        ks = [*ks, k7]
        fired, F = [], None
        for i, det in enumerate(detectors):
            g0 = g_prev[i]
            g1 = g_prev[i] = g(r_new, y_new)[i]
            if (g0 > 0.0 >= g1 or g0 < 0.0 <= g1) and I._crossed(g0, g1, det.direction):
                F = F or _reference_rows(counted, r, y, r_new, y_new, ks)
                lo_r, hi_r, g_lo = r, r_new, g0
                for _ in range(80):
                    if hi_r - lo_r <= 4e-16 * abs(hi_r):
                        break
                    mid = 0.5 * (lo_r + hi_r)
                    g_mid = g(mid, _reference_extension(F, r, r_new, mid))[i]
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
            y_star = _reference_extension(F, r, r_new, r_star)
            events.append(I.Event(det.kind, r_star, y_star))
            if det.terminal:
                nodes.append((r_new, y_new, ks))
                return build(f"event:{det.kind.value}", (r_star, y_star))
        r, y, k1 = r_new, y_new, k7
        nodes.append((r, y, ks))
        factor = I._MAX_FACTOR if err == 0.0 else min(I._MAX_FACTOR, I._SAFETY * err ** (-1.0 / 8.0))
        h *= max(I._MIN_FACTOR, factor)
    return build("completed")


def _sampled(traj, r_eval):
    """traj sampled at r_eval as a run: the points that sample gives rows for,
    with those rows, and traj's events, status and stats."""
    rows = traj.sample(r_eval)
    return Trajectory((np.asarray(r_eval)[: len(rows)], *rows.T), traj.events, traj.status, traj.stats)


def _solve(f, r_span, y0, r_eval=None, **kw):
    """solve, and its run sampled at r_eval when given: what _reference_solve
    returns for the same arguments."""
    traj = solve(f, r_span, y0, **kw)
    return traj if r_eval is None else _sampled(traj, r_eval)


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
    from diracshoot.asymptotics import _rhs_joint
    from diracshoot.phaseflow import attraction_report
    from diracshoot.shooting import _events, horizon_run

    runs = []  # (f, r_span, y0, keywords of solve)
    # shooting trials A(0), nodal (A(1)), I-candidate, undecided at a
    # horizon, and one stopped at its first node (the first four are
    # full-horizon runs); each has rejected steps.  The I-candidate is the
    # connection at (1, 0.99): the ones at P take no rejected step
    lam_star = 1.8078961487234297  # the ground state's datum at P, TOL
    p99 = Params(1.0, 0.99)
    tol99 = Tolerances().resolved(p99)
    trials = slice(len(runs), len(runs) + 5)
    for lam, p, tol, stop, horizon in [
        (lam_star - 7e-12, P, TOL, False, TOL.rmax),
        (lam_star + 3e-12, P, TOL, False, TOL.rmax),
        (0.22115975204862273, p99, tol99, False, tol99.rmax),  # its ground state's datum
        (lam_star - 7e-12, P, TOL, False, 25.0),
        (8.0, P, TOL, True, TOL.rmax),
    ]:
        r0, y0 = series_start(lam, p, tol)
        g, dets = _events(p, stop)
        runs.append((radial_flow(p), (r0, horizon), y0, dict(detectors=dets, g=g)))
    # the rescaled run with a v-sign detector at eps = 0.05, 0.2 and near
    # the bubble limit at eps = 1e-8, from its series start
    for eps, end in ((0.05, 20.0), (0.2, 5.0), (1e-8, 20.0)):
        r0, y0 = series_start(1.0, rescaled_params(eps, P), TOL, end)
        runs.append((radial_flow(rescaled_params(eps, P)), (r0, end), y0, dict(detectors=[NODE], g=v_sign)))
    # the horizon run of attraction_report to a horizon of 80, where u
    # crosses zero many times on the spiral toward the equilibrium (19 times
    # to the default 40/mu), screening the three shooting events past the
    # capture with none terminal
    tol80 = Tolerances(rmax=80.0)
    r0, y0 = series_start(2.5, P, tol80)
    g, dets = _events(P, False, False)
    i_spiral = len(runs)
    runs.append((radial_flow(P), (r0, tol80.rmax), y0, dict(detectors=dets, g=g)))
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
    start2 = first_order_start(P, R0)
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
    both = [Detector(EventKind.V_SIGN_CHANGE), Detector(EventKind.NORM_BELOW_ETA, 1)]
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
    spiral = got[i_spiral]
    assert not any(d.terminal for d in dets) and spiral.status == "completed"
    assert EventKind.ENTERED_NEGATIVE_ENERGY in {e.kind for e in spiral.events}
    _assert_same_run(horizon_run(2.5, P, tol80), spiral)
    assert attraction_report(spiral, P).u_sign_alternations > 30
    stopped = got[i_grid_stop]
    assert stopped.status == "event:v_sign_change" and stopped.r[-1] == r_star < grid[-1]
    assert stopped.y.shape == (np.count_nonzero(grid <= r_star), 2)
    assert got[i_joint_rej].y.shape[1] == 4 and got[i_joint_rej].stats["nrejct"] == 3
    stopped = got[i_joint_stop]
    assert stopped.status == "event:v_sign_change" and 1.0 < stopped.r[-1] < 5.0
    assert len(got[i_both].events_of(EventKind.V_SIGN_CHANGE)) == 9
    assert len(got[i_both].events_of(EventKind.NORM_BELOW_ETA)) == 5
    assert [e.r for t in got[zeros] for e in t.events_of(EventKind.V_SIGN_CHANGE)] == [3.0, 3.0]


def test_dop853_loop_is_bitwise_the_reference_solve():
    # a search trial three ways, as the runs above: solve(f), which inlines the
    # radial formula, solve of a counting callable around f, and the
    # reference step written from scipy's table, so the pair's literals are
    # scipy's doubles.  Search trials stopped at their first node, at a
    # capture (a datum 7e-12 below lambda* at P) and at the eta tube (the
    # ground state's datum at (1, 0.99)), and one that starts captured and
    # runs to the horizon, each with rejected steps; the counting callable
    # is called 2 + 11 (naccpt + nrejct) + naccpt times, as the FSAL stage
    # runs on accepted steps alone, and 3 times more on the step whose
    # crossing stops a run, for the extra stages of its extension
    from diracshoot.shooting import _events

    p99 = Params(1.0, 0.99)
    runs = []
    for p, lam in [(P, 8.0), (P, 1.8078961487164322), (p99, 0.22115975204859709), (P, 1.0)]:
        tol = Tolerances().resolved(p)
        r0, y0 = series_start(lam, p, tol)
        calls = 0

        def counted(r, y, f=radial_flow(p)):
            nonlocal calls
            calls += 1
            return f(r, y)

        g, dets = _events(p, True)
        kw = dict(detectors=dets, g=g, rel=tol.rel, abs_tol=tol.abs)
        span = (r0, tol.rmax)
        run = solve(radial_flow(p), span, y0, **kw)
        _assert_same_run(run, solve(counted, span, y0, **kw))
        _assert_same_run(run, _reference_solve(radial_flow(p), span, y0, **kw))
        steps, accepted = run.stats["naccpt"] + run.stats["nrejct"], run.stats["naccpt"]
        assert calls == run.stats["nfev"] == 2 + 11 * steps + accepted + 3 * (run.status != "completed")
        runs.append(run)
    assert [t.status for t in runs] == [
        "event:v_sign_change",
        "event:entered_negative_energy",
        "event:norm_below_eta",
        "completed",
    ]
    assert all(t.stats["nrejct"] > 0 for t in runs)


@pytest.mark.parametrize("rel", [1e-7, 1e-10])
@pytest.mark.parametrize("lam", [1.0, 1.8, 1.8078961487234322])
def test_dop853_steps_match_scipy(lam, rel):
    # independent oracle: scipy's DOP853 at the same rtol and atol takes the
    # same accepted steps to r = 12, or one more or fewer (its step control
    # rejects at err >= 1, and caps the factor after a rejection)
    r0, y0 = series_start(lam, P, TOL)
    mine = solve(RADIAL, (r0, 12.0), y0, rel=rel, abs_tol=rel)
    ref = solve_ivp(lambda r, y: RADIAL(r, tuple(y)), (r0, 12.0), y0, method="DOP853", rtol=rel, atol=rel)
    assert ref.success and mine.status == "completed"
    assert abs(mine.stats["naccpt"] - (len(ref.t) - 1)) <= 1



def test_dop853_extension_is_scipys_table():
    # the continuous extension's literals are scipy's doubles: the extra
    # stages' c and A rows (zero past each row's own stage) and D, bitwise;
    # a run records the stages k5 ... k11 that they weigh, as k1 ... k4 have
    # zero weight in every row
    from scipy.integrate._ivp import dop853_coefficients as T

    from diracshoot import integrator as I

    assert len(I._EXTRA) == T.N_STAGES_EXTENDED - T.N_STAGES - 1 == 3
    for i, (c, *a) in enumerate(I._EXTRA, 13):
        assert _hex([c, *a]) == _hex([T.C[i], *T.A[i, :i]]) and not T.A[i, i:].any()
    assert _hex(I._D) == _hex(T.D) and np.shape(I._D) == (4, 16)
    assert I._DENSE_STAGES == [5, 6, 7, 8, 9, 10, 11]
    assert not T.A[13:, 1:5].any() and not T.D[:, 1:5].any()


def _joint_run(eps, rel, **kw):
    from diracshoot.asymptotics import _rhs_joint

    start = (*first_order_start(P, R0), 0.0, 0.25 * (P.m**2 - P.omega**2) * R0**2)
    return solve(_rhs_joint(eps, P), (R0, 1.0 / eps), start, rel=rel, abs_tol=rel, **kw)


@pytest.mark.parametrize("eps, rel", [(0.2, 1e-8), (0.05, 1e-10), (0.3, 1e-6)])
def test_dense_sample_is_scipys_dense_output_on_the_same_steps(eps, rel):
    # independent oracle: scipy's Dop853DenseOutput built on each step of the
    # run from scipy's table (its rk_step and np.dot sums); a grid point at a
    # step end takes the row there
    from scipy.integrate._ivp import dop853_coefficients as T
    from scipy.integrate._ivp.rk import Dop853DenseOutput, rk_step

    from diracshoot.asymptotics import _rhs_joint

    run = _joint_run(eps, rel)
    f = _rhs_joint(eps, P)

    def fun(r, y):
        return np.array(f(r, tuple(y)))

    table, worst = run.table, 0.0
    for row0, row1 in zip(table, table[1:]):
        r0, y0, f0, h = row0[0], row0[1:5], row0[5:], row1[0] - row0[0]
        K = np.empty((16, 4))
        y1, f1 = rk_step(fun, r0, y0, f0, h, T.A[:12, :12], T.B, T.C[:12], K[:13])
        for s in range(13, 16):
            K[s] = fun(r0 + T.C[s] * h, y0 + np.dot(K[:s].T, T.A[s, :s]) * h)
        dy = y1 - y0
        F = np.vstack([dy, h * f0 - dy, 2.0 * dy - h * (f1 + f0), h * np.dot(T.D, K)])
        grid = np.linspace(r0, r0 + h, 9)[1:-1]
        worst = max(worst, np.max(np.abs(Dop853DenseOutput(r0, r0 + h, y0, F)(grid).T - run.sample(grid))))
    assert worst <= 1e-14  # 7.8e-16 measured
    grid = np.unique(np.concatenate([run.r[::3], np.linspace(R0, 1.0 / eps, 101)]))
    rows = run.sample(grid)
    at = np.isin(grid, run.r)
    assert _hex(rows[at]) == _hex(run.y[np.isin(run.r, grid)])


def test_dense_sample_of_a_called_flow_is_the_inlined_one():
    # a plain callable around the formula (as the benchmark's tracer wraps f)
    # takes the called path of the loop and evaluates the extension's stages
    # one step at a time on floats through the wrapper: the same rows as the
    # formula's one call on arrays, bitwise
    from diracshoot.asymptotics import _rhs_joint

    f = _rhs_joint(0.1, P)
    start = (*first_order_start(P, R0), 0.0, 0.25 * (P.m**2 - P.omega**2) * R0**2)
    grid = np.linspace(R0, 10.0, 800)
    inlined = solve(f, (R0, 10.0), start, **KW)
    called = solve(lambda r, y: f(r, y), (R0, 10.0), start, **KW)
    _assert_same_run(inlined, called)
    assert _hex(inlined.sample(grid)) == _hex(called.sample(grid))


def test_stacked_sample_is_each_runs_own():
    # the module's sample over several runs, in one pass, gives each run the
    # rows it gives alone, bitwise: two DOP853 runs of the joint formula, one
    # of them given twice, with a run of a called flow (as the benchmark's
    # tracer wraps f), all on floats step by step; two DOP853 radial runs of
    # other constants, one formula call with each constant repeated per step,
    # one of them and a run of another tolerance cut at a terminal crossing;
    # and a run without steps
    from diracshoot.asymptotics import _rhs_joint
    from diracshoot.integrator import sample

    joint = [_joint_run(eps, 1e-8) for eps in (0.2, 0.05)]
    f = _rhs_joint(0.1, P)
    start = (*first_order_start(P, R0), 0.0, 0.25 * (P.m**2 - P.omega**2) * R0**2)
    called = solve(lambda r, y: f(r, y), (R0, 10.0), start, **KW)
    r0 = 1e-6 / 4.0
    cut = [solve(RADIAL, (r0, 10.0), taylor_start(2.0, P, r0), detectors=[STOP], g=v_sign, rel=x, abs_tol=x)
           for x in (TOL.rel, 1e-8)]
    assert all(t.status == "event:v_sign_change" for t in cut)
    p = Params(2.3, 0.7)
    other = solve(radial_flow(p), (r0, 10.0), taylor_start(1.0, p, r0), **KW)
    with pytest.raises(IntegrationError) as err:
        solve(lambda r, y: (math.nan, 0.0), (0.0, 1.0), (1.0, 0.0), **KW)
    runs = [*joint, joint[0], called, *cut, other, err.value.partial]
    grids = [np.linspace(R0, 5.0, 300), np.linspace(R0, 20.0, 500), joint[0].r[::3], np.linspace(R0, 10.0, 400),
             np.linspace(r0, 10.0, 600), np.linspace(r0, 10.0, 700), np.linspace(r0, 10.0, 200), [0.0]]
    rows = sample(runs, grids)
    assert [len(x) for x in rows[4:6]] == [np.sum(g <= t.r[-1]) for g, t in zip(grids[4:6], cut)]
    assert [_hex(x) for x in rows] == [_hex(t.sample(g)) for t, g in zip(runs, grids)]


@pytest.mark.parametrize("lam, rel", [(1.0, 1e-6), (1.0, 1e-10), (1.8, 1e-10)])
def test_dense_radial_run_samples_near_a_tight_run(lam, rel):
    # a formula flow whose lines that raise check a scalar r (radial_flow's
    # r > 0) leaves them out on the extension's arrays, as run does (the
    # check raised on the arrays before): on [r_s, 20] the samples are 3.3 to
    # 15.6 times abs + rel sup off a rel = abs = 1e-13 run (measured at lambda
    # = 0.5, 1 and 1.8, rel = 1e-6 to 1e-12), the step ends 1.0 to 15 times:
    # the extension is one order below the step, as on the joint flow
    r0, y0 = series_start(lam, P, Tolerances(rel, rel).resolved(P))
    grid = np.linspace(r0, 20.0, 2000)
    run, tight = (solve(RADIAL, (r0, 20.0), y0, rel=x, abs_tol=x) for x in (rel, 1e-13))
    want = tight.sample(grid)
    err = np.max(np.abs(run.sample(grid) - want).sum(axis=1))
    assert err <= 20.0 * rel * (1.0 + np.max(np.abs(want).sum(axis=1)))


def test_sampling_a_called_flow_around_a_formula_is_the_inlined_run():
    # the extension's extra stages call a plain callable around a formula
    # that raises on a scalar r one step at a time on floats, as solve called
    # it (on arrays, its raising line raised ValueError: the truth value of
    # an array is ambiguous), bitwise the formula's one call on arrays
    r0, y0 = series_start(1.0, P, TOL)
    kw = dict(rel=1e-10, abs_tol=1e-10)
    inlined = solve(radial_flow(P), (r0, 20.0), y0, **kw)
    called = solve(lambda r, y: radial_flow(P)(r, y), (r0, 20.0), y0, **kw)
    _assert_same_run(inlined, called)
    grid = np.linspace(r0, 20.0, 700)
    assert _hex(called.sample(grid)) == _hex(inlined.sample(grid))


def _scipy_dop853(lam, **kw):
    """scipy's DOP853 radial run from lam's series start at rtol = atol = 1e-13: an oracle sharing no code with solve."""
    r0, y0 = series_start(lam, P, Tolerances(1e-10, 1e-10).resolved(P))
    return r0, y0, solve_ivp(lambda r, y: RADIAL(r, tuple(y)), (r0, kw.pop("r_end")), y0, method="DOP853", rtol=1e-13,
                             atol=1e-13, **kw)


@pytest.mark.parametrize("lam", [2.5, 10.0])
def test_refined_first_node_is_near_a_tight_run(lam):
    # independent oracle: the first root of v on scipy's DOP853 dense output at
    # rtol = atol = 1e-13.  refine bisects the run's own extension: the first
    # node of a full-horizon run at rel = abs = 1e-10 is within 1e-8 relative
    # of it (1.9e-11 to 3.6e-11 measured, where the cubic Hermite was 2.2e-8
    # to 1.1e-5 off)
    from diracshoot.shooting import _events

    r0, y0, ref = _scipy_dop853(lam, r_end=5.0, events=lambda r, y: y[1])
    g, dets = _events(P, False)
    tol = Tolerances(1e-10, 1e-10).resolved(P)
    first = solve(RADIAL, (r0, tol.rmax), y0, rel=1e-10, abs_tol=1e-10, detectors=dets, g=g).events[0]
    assert first.kind == EventKind.V_SIGN_CHANGE and first.r < 5.0
    assert abs(first.r / ref.t_events[0][0] - 1.0) <= 1e-8


def test_dense_run_failing_before_its_first_step_samples_its_start():
    # a NaN slope fails the first step size: the partial run has no step,
    # so its extension has no rows, and its start is still a sample
    with pytest.raises(IntegrationError) as err:
        solve(lambda r, y: (math.nan, 0.0), (0.0, 1.0), (1.0, 0.0), **KW)
    assert err.value.partial.sample([0.0]).tolist() == [[1.0, 0.0]]

def test_formula_event_function_is_called_only_at_the_start():
    # the sign screen and the bisection both inline a g built by formula, so
    # a counting wrapper that keeps the formula is called once per run, at
    # the start, on a nodal full-horizon run whose v-sign change is not
    # terminal and whose capture is; the run is bitwise that of the called
    # wrapper, which counts each accepted step and each bisection point
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

    from diracshoot.integrator import _EXTENSION_SRC, _LOOP_SRC, _REFINE_SRC

    assert not re.findall(r"\w_[fg]\b", _LOOP_SRC + _REFINE_SRC + _EXTENSION_SRC)
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
        partial = exc.value.partial if r_eval is None else _sampled(exc.value.partial, r_eval)
        _assert_same_run(partial, ref.value.partial)
        return partial

    blow = dict(rel=1e-10, abs_tol=1e-10)
    same_failure(blowup, (0.0, 2.0), (1.0,), "step size underflow", **blow)
    grid = np.linspace(0.0, 2.0, 41)
    partial = same_failure(blowup, (0.0, 2.0), (1.0,), "step size underflow", r_eval=grid, **blow)
    # the run's blow-up point lies 1.2e-11 past the exact r = 1, so the grid's 1.0 is within it
    assert len(partial) == 21 and partial.r[-1] == grid[20] == 1.0

    monkeypatch.setattr(I, "_MAX_STEPS", 20)  # of the trial's 23 steps, its first node in the 17th
    r0, y0 = series_start(2.5, P, TOL)
    g, dets = _events(P, False)
    kw = dict(detectors=dets, g=g, rel=TOL.rel, abs_tol=TOL.abs)
    partial = same_failure(RADIAL, (r0, TOL.rmax), y0, "step budget exhausted", **kw)
    assert partial.stats["naccpt"] + partial.stats["nrejct"] == 20
    assert partial.nodes_before() == 1



def test_overflowing_dop853_error_norm_rejects_the_step():
    # DOP853's terms (e5 / sc)^2 overflow too: a slope that jumps to 1e160 at
    # r = 0.5 inside a step, at rel = 0 (sc = abs_tol), puts them past the
    # float range, where ** raises, on every step over the jump, so the step
    # size shrinks to its underflow, as the reference step that records the
    # raise rejects it
    overflows = 0

    def step(*args):
        nonlocal overflows
        out = _reference_step_853(*args)
        overflows += out[1] == math.inf
        return out

    jump = lambda r, y: (1e160 if r > 0.5 else 0.0,)  # noqa: E731
    kw = dict(rel=0.0, abs_tol=1e-10)
    with pytest.raises(IntegrationError, match="step size underflow") as exc:
        solve(jump, (0.0, 1.0), (0.0,), **kw)
    with pytest.raises(IntegrationError) as ref:
        _reference_solve(jump, (0.0, 1.0), (0.0,), step=step, **kw)
    assert str(exc.value) == str(ref.value)
    _assert_same_run(exc.value.partial, ref.value.partial)
    assert overflows == exc.value.partial.stats["nrejct"] > 50


def test_stats_count_every_rhs_call(gs):
    # a counting wrapper around f is how a caller measures the work of solve;
    # it must leave the trajectory unchanged and agree with nfev.  A wrapper
    # that keeps the radial formula is called only for the first derivative,
    # the initial step size and the extension's three extra stages on the
    # step whose crossing stops a run: the stages are inlined.  The FSAL
    # stage, of no error weight, runs on accepted steps alone
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
    for kw in ({}, dict(detectors=[STOP], g=v_sign)):
        plain = solve(RADIAL, (r0, 10.0), y0, rel=TOL.rel, abs_tol=TOL.abs, **kw)
        calls = 0
        wrapped = solve(counted, (r0, 10.0), y0, rel=TOL.rel, abs_tol=TOL.abs, **kw)
        assert calls == wrapped.stats["nfev"] == plain.stats["nfev"]
        assert np.array_equal(plain.r, wrapped.r) and np.array_equal(plain.y, wrapped.y)
        assert plain.events == wrapped.events
        steps, extra = wrapped.stats["naccpt"] + wrapped.stats["nrejct"], 3 * bool(kw)
        assert calls == 2 + 11 * steps + wrapped.stats["naccpt"] + extra
        calls = 0
        inlined = solve(counted_formula, (r0, 10.0), y0, rel=TOL.rel, abs_tol=TOL.abs, **kw)
        assert calls == 2 + extra and inlined.stats == plain.stats
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
    assert run.sample([]).shape == (0, 2)


def test_sample_of_a_terminal_run_ends_at_the_crossing():
    # the step table keeps the step that holds the crossing uncut: a point at
    # the crossing takes the event's state y*, one before it the value of the
    # extension on that step, on which refine found y*, and the points past it
    # are left out; a grid before the start is still refused
    from diracshoot.integrator import _continuous

    lam = 2.0
    r0 = 1e-6 / lam**2
    run = solve(RADIAL, (r0, 10.0), taylor_start(lam, P, r0), detectors=[STOP], g=v_sign, **KW)
    star = run.events[-1]
    assert run.status == "event:v_sign_change" and run.r[-1] == star.r < run.table[-1, 0]
    inside = 0.5 * (run.r[-2] + star.r)
    rows = run.sample([r0, inside, star.r, run.table[-1, 0], 10.0])
    assert len(rows) == 3 and tuple(rows[0].tolist()) == tuple(run.y[0].tolist())
    assert tuple(rows[-1].tolist()) == star.y
    rows_of, extension = _continuous(2)
    F = rows_of(RADIAL, *run.table[-2].tolist(), *run._arrays[3][-1].tolist())  # with the step's stages
    assert tuple(rows[1].tolist()) == extension(F, run.table[-2, 0], run.table[-1, 0], inside)
    with pytest.raises(ValueError, match="within r_span"):
        run.sample([0.0, 1.0])


def test_run_builds_its_arrays_from_its_floats_at_the_first_read():
    # a run of solve keeps its samples as float columns, which the radial
    # commands read without numpy; the first read of r, y or table builds all
    # three, the arrays hold the columns and the table the uncut step ends
    r0 = 1e-6 / 4.0
    run = solve(RADIAL, (r0, 10.0), taylor_start(2.0, P, r0), detectors=[STOP], g=v_sign, **KW)
    r, u, v = run.columns
    assert len(run) == len(r) > 2 and "_arrays" not in vars(run)
    assert run.final_state == (u[-1], v[-1]) and r[-1] == run.events[-1].r
    assert run.closest == int(np.argmin(np.abs(u) + np.abs(v)))
    table = run.table
    assert "_arrays" in vars(run) and run.table is table
    assert run.r.tolist() == r and run.y.tolist() == [list(s) for s in zip(u, v)]
    assert table[:-1, :3].tolist() == [list(s) for s in zip(r, u, v)][:-1] and table[-1, 0] > r[-1]
    assert run.columns == (r, u, v)


def test_crossing_is_refined_far_below_unit_radius():
    # the bisection stops at a width relative to the radius, so the first
    # node of a large datum that the run resolves (near 5.8e-4, 4.7e-5 and
    # 4.0e-6 at rel = abs = 1e-12) lands on v = 0
    from diracshoot import classify

    for lam in (1e3, 1e4, 1e5):
        node = classify(lam, P, Tolerances(1e-12, 1e-12)).trajectory.events_of(EventKind.V_SIGN_CHANGE)[0]
        assert node.r < 1e-3 and abs(node.y[1]) < 1e-9, (lam, node)
