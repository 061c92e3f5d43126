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
    autonomous_flow,
    hamiltonian,
    integrate,
    radial_flow,
    solve,
    taylor_start,
)
from diracshoot.integrator import v_sign

P = Params(1.0, 0.5)
TOL = Tolerances().resolved(P)
RADIAL = radial_flow(P)
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
    traj = integrate(radial_flow, (1e-6, y0), P, TOL, r_end=30.0, r_eval=grid)
    ref_vals = ref.sol(grid)
    err = np.max(np.abs(traj.y[:, 0] - ref_vals[0]) + np.abs(traj.y[:, 1] - ref_vals[1]))
    assert err < 1e-6


def test_event_location_matches_scipy():
    lam = 2.0
    r0 = 1e-6 / lam ** 2
    y0 = taylor_start(lam, P, r0)
    det = [Detector(EventKind.V_SIGN_CHANGE)]
    traj = integrate(radial_flow, (r0, y0), P, TOL, det, r_end=10.0, g=lambda r, y: (y[1],))
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
    traj = integrate(autonomous_flow, (0.0, (0.0, v0)), P, TOL, r_end=20.0)
    assert np.max(np.abs(traj.y[:, 0])) < 1e-9
    assert np.max(np.abs(traj.y[:, 1] - v0)) < 1e-9


def test_confinement_level_set():
    for lam in (0.6, 1.4, 2.3):
        r0 = 1e-6 / max(1.0, lam * lam)
        traj = integrate(radial_flow, (r0, taylor_start(lam, P, r0)), P, TOL)
        assert traj.H.max() <= hamiltonian((0.0, lam), P) + TOL.abs


def test_shifted_approaches_autonomous():
    # (0, 1) sits on the separatrix, which amplifies the O(1/rho)
    # perturbation by roughly e^(mu T) ~ 6e3 over T = 10
    grid = np.linspace(0.0, 10.0, 200)
    auto = integrate(autonomous_flow, (0.0, (0.0, 1.0)), P, TOL, r_end=10.0, r_eval=grid)

    def shifted_flow(p):
        f = radial_flow(p)
        return lambda r, s: f(r + 1e6, s)

    sh = integrate(shifted_flow, (0.0, (0.0, 1.0)), P, TOL, r_end=10.0, r_eval=grid)
    dev = np.max(np.abs(auto.y - sh.y))
    assert dev < 1e-3


def test_r_eval_sampling_and_monotonicity():
    grid = [0.5, 1.0, 2.0, 5.0]
    traj = integrate(radial_flow, (1e-6, taylor_start(1.0, P, 1e-6)), P, TOL, r_eval=grid, r_end=10.0)
    assert np.allclose(traj.r, grid)
    assert np.all(np.diff(traj.r) > 0)


def test_strictly_increasing_r():
    traj = integrate(radial_flow, (1e-6, taylor_start(1.5, P, 1e-6)), P, TOL, r_end=30.0)
    assert np.all(np.diff(traj.r) > 0)


def test_terminal_event_truncates():
    det = [Detector(EventKind.ENTERED_NEGATIVE_ENERGY, direction=-1, terminal=True)]
    start = (1e-6, taylor_start(1.0, P, 1e-6))
    traj = integrate(radial_flow, start, P, TOL, det, g=lambda r, y: (hamiltonian(y, P) + TOL.delta,))
    assert traj.status == "event:entered_negative_energy"
    ev = traj.events[-1]
    assert hamiltonian(ev.y, P) <= -TOL.delta  # crossed-side reporting
    assert traj.r[-1] == pytest.approx(ev.r)


def test_event_carries_crossing_state():
    lam = 2.0
    r0 = 1e-6 / lam ** 2
    start = (r0, taylor_start(lam, P, r0))
    # a terminal event's state is the trajectory's last sample, bit for bit
    traj = integrate(radial_flow, start, P, TOL, [STOP], g=v_sign)
    ev = traj.events[-1]
    assert ev.kind == EventKind.V_SIGN_CHANGE
    assert ev.r == traj.r[-1]
    assert np.array_equal(np.array(ev.y), traj.y[-1])
    # a non-terminal v-sign event sits on v = 0
    traj = integrate(radial_flow, start, P, TOL, [NODE], r_end=5.0, g=v_sign)
    ev = traj.events_of(EventKind.V_SIGN_CHANGE)[0]
    assert len(ev.y) == 2
    assert abs(ev.y[1]) <= 1e-9


def test_rmax_event_emitted():
    traj = integrate(autonomous_flow, (0.0, (0.1, 0.1)), P, TOL, r_end=5.0)
    assert traj.events[-1].kind == EventKind.RMAX_REACHED
    assert traj.r[-1] == pytest.approx(5.0)
    assert np.array_equal(np.array(traj.events[-1].y), traj.y[-1])  # the final state


def test_bad_span_rejected():
    with pytest.raises(ValueError):
        solve(lambda r, y: (0.0,), (1.0, 1.0), (0.0,), rel=1e-8, abs_tol=1e-8)
    with pytest.raises(ValueError):
        integrate(radial_flow, (0.0, (0.0, 1.0)), P, TOL)


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


def test_dense_output_consistency():
    # sampling through r_eval must agree with the accepted-step solution
    y0 = taylor_start(1.1, P, 1e-6)
    full = integrate(radial_flow, (1e-6, y0), P, TOL, r_end=8.0)
    grid = full.r[10:-10:5]
    sampled = integrate(radial_flow, (1e-6, y0), P, TOL, r_end=8.0, r_eval=grid)
    err = np.max(np.abs(sampled.y - full.y[10:-10:5]))
    assert err < 1e-12  # same accepted points, no interpolation involved


def test_energy_column_matches_per_row_bitwise(gs):
    # the H trace is computed in one call on the state columns; it must be
    # bitwise the per-row evaluation for every recorded energy
    from diracshoot.asymptotics import _first_order_start, _rhs_joint, integrate_rescaled

    def same_bits(a, b):
        return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))

    y0 = taylor_start(1.8, P, 1e-6)
    radial = integrate(radial_flow, (1e-6, y0), P, TOL, r_end=20.0)
    assert same_bits(radial.H, [hamiltonian(tuple(row), P) for row in radial.y])

    eps = 0.2
    resc = integrate_rescaled(eps, P, TOL, r_end=5.0)
    assert same_bits(resc.H, [hamiltonian(tuple(row), P, eps) for row in resc.y])

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


def _bits(*values):
    return [float(v).hex() for v in values]  # hex keeps the sign of zero


def test_generated_step_is_bitwise_the_reference():
    # one step of the compiled loop against the vector-form step: the step
    # lands on r_end = r + h and the budget allows no second attempt, so
    # the loop records the accepted row r, y, f of floats, or none after a
    # rejection, and returns the next step size; the radial and joint flows
    # run both inlined and called
    from diracshoot import integrator as I
    from diracshoot.asymptotics import _first_order_start, _rhs_joint

    radial = integrate(radial_flow, (1e-6, taylor_start(1.3, P, 1e-6)), P, TOL, r_end=2.0)
    y2 = tuple(map(float, radial.y[-1]))
    joint = _rhs_joint(0.2, P)
    r4 = 0.5
    y4 = (*_first_order_start(P, r4), 1e-3, 0.25 * (P.m**2 - P.omega**2) * r4 * r4)
    cases = [  # (f, inlined, r, y, h, accepted); r + h - r == h exactly
        (f, inlined, r, y, h, accepted)
        for f, r, y, h_ok, h_bad in [(RADIAL, 2.0, y2, 2.0**-7, 1.5), (joint, r4, y4, 2.0**-7, 3.0)]
        for inlined in (True, False)
        for h, accepted in [(h_ok, True), (h_bad, False)]
    ]
    for f, inlined, r, y, h, accepted in cases:
        k1 = f(r, y)
        formula, consts = f.formula if inlined else (None, ())
        run = I._dp54(len(y), 0, formula)
        nodes = []
        status, *_, h_next, naccpt, nrejct, _, _ = run(
            f, *consts, None, r, y, k1, h, r + h, TOL.rel, TOL.abs, nodes, 0, I._MAX_STEPS - 1
        )
        y_new, k7, err = _reference_step(f, r, y, k1, h, r + h, TOL.rel, TOL.abs)
        assert (err <= 1.0) == accepted
        if accepted:
            factor = min(I._MAX_FACTOR, I._SAFETY * err**-0.2)
            assert (status, naccpt) == ("completed", 1) and len(nodes) == 1 + 2 * len(y)
            assert _bits(*nodes) == _bits(r + h, *y_new, *k7)
        else:
            factor = I._SAFETY * err**-0.2
            assert (status, naccpt, nodes) == ("step budget exhausted", 0, [])
        assert _bits(h_next) == _bits(h * max(I._MIN_FACTOR, factor))


def _row(r, y, f):
    """A step end as the row (r, *y, *f) that the loop stores and hermite reads."""
    return (r, *y, *f)


def _reference_solve(f, r_span, y0, *, rel, abs_tol, detectors=(), g=None, energy=None, r_eval=None):
    """solve as a Python loop over the steps and, for each accepted step,
    over the detectors, taking each value from its own call of g and each
    step from _reference_step, and over the r_eval points, each the state at
    an equal step end or the scalar Hermite value on the first step ending
    beyond it: the bitwise reference for the compiled loop.  A failure
    raises IntegrationError with the partial run."""
    from diracshoot import integrator as I

    r_end = float(r_span[1])
    r, y = float(r_span[0]), tuple(float(c) for c in y0)
    k1 = f(r, y)
    hermite = I._hermite(len(y))
    nodes = [(r, y, k1)]
    active = list(detectors)
    g_prev = [g(r, y)[i] for i in range(len(active))]
    events = []
    naccpt, nrejct = 0, 0

    def build(status, cut=None):
        R, Y, _ = zip(*nodes)
        R, Y = (R[:-1] + (cut[0],), Y[:-1] + (cut[1],)) if cut else (R, Y)
        if r_eval is not None:
            pts = [pt for pt in r_eval if pt <= R[-1]]
            js = [next(j for j, r in enumerate(R) if r >= pt) for pt in pts]
            Y = [Y[j] if pt == R[j] else hermite(_row(*nodes[j - 1]), _row(*nodes[j]), pt)
                 for pt, j in zip(pts, js)]
            R = pts
        rarr = np.array(R, dtype=float)
        arr = np.array(Y, dtype=float)
        H = np.asarray(energy(tuple(arr.T)), dtype=float) if energy else np.full(len(rarr), np.nan)
        stats = {"nfev": 2 + 6 * (naccpt + nrejct), "naccpt": naccpt, "nrejct": nrejct}
        return I.Trajectory(rarr, arr, H, tuple(events), status, stats)

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
        for i, det in enumerate(active):
            if det is None:
                continue
            g0 = g_prev[i]
            g1 = g_prev[i] = g(r_new, y_new)[i]
            if (g0 > 0.0 >= g1 or g0 < 0.0 <= g1) and I._crossed(g0, g1, det.direction):
                lo_r, hi_r, g_lo = r, r_new, g0
                for _ in range(80):
                    if hi_r - lo_r <= 4e-16 * max(1.0, abs(hi_r)):
                        break
                    mid = 0.5 * (lo_r + hi_r)
                    g_mid = g(mid, hermite(_row(r, y, k1), _row(r_new, y_new, k7), mid))[i]
                    if I._crossed(g_lo, g_mid, det.direction):
                        hi_r = mid
                        if abs(g_mid) <= abs_tol:
                            break
                    else:
                        lo_r, g_lo = mid, g_mid
                fired.append((hi_r, det))
                if det.once:
                    active[i] = None
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
    events.append(I.Event(EventKind.RMAX_REACHED, r_end, y))
    return build("completed")


def _assert_same_run(traj, ref):
    assert _hex(traj.r) == _hex(ref.r) and _hex(traj.y) == _hex(ref.y) and _hex(traj.H) == _hex(ref.H)
    assert (traj.status, traj.stats) == (ref.status, ref.stats)
    assert [(e.kind, _hex([e.r, *e.y])) for e in traj.events] == [
        (e.kind, _hex([e.r, *e.y])) for e in ref.events
    ]


def _rotation_events(r, y):
    return y[1], y[0]


def _cubic_runs():
    """(f, r_span, y0, keywords of solve) of the runs on a radial_flow:
    shooting trials A(0), nodal (A(1)), I-candidate, undecided at a horizon,
    and one stopped at its first node (the once certificate fires in the
    first four), then the rescaled run with a v-sign detector at eps = 0.05,
    0.2 and the eps = 0 bubble limit."""
    from diracshoot.equations import radial_start
    from diracshoot.shooting import _events

    lam_star = 1.8078961486370915  # the ground state's datum at P, TOL
    runs = []
    for lam, stop, horizon in [
        (lam_star - 7e-12, False, TOL.rmax),
        (lam_star + 3e-12, False, TOL.rmax),
        (lam_star, False, TOL.rmax),
        (lam_star, False, 15.0),
        (2.5, True, TOL.rmax),
    ]:
        r0, y0 = radial_start(lam, P, TOL)
        g, dets = _events(P, TOL, stop)
        energy = lambda y: hamiltonian(y, P)  # noqa: E731
        runs.append((RADIAL, (r0, horizon), y0, dict(detectors=dets, g=g, energy=energy)))
    for eps in (0.05, 0.2, 0.0):
        start = taylor_start(1.0, P, TOL.r0, eps)
        energy = lambda y, eps=eps: hamiltonian(y, P, eps)  # noqa: E731
        span = (TOL.r0, 1.0 / eps if eps else 20.0)
        runs.append((radial_flow(P, eps), span, start, dict(detectors=[NODE], g=v_sign, energy=energy)))
    return runs


def test_compiled_loop_is_bitwise_the_reference_solve():
    from diracshoot.asymptotics import _first_order_start, _rhs_joint
    from diracshoot.equations import radial_start
    from diracshoot.phaseflow import attraction_report

    kw = dict(rel=TOL.rel, abs_tol=TOL.abs)
    # the cubic runs take the inlined flow, the others call f
    runs = _cubic_runs()
    # the 4-D joint remainder
    start4 = (*_first_order_start(P, TOL.r0), 0.0, 0.25 * (P.m**2 - P.omega**2) * TOL.r0**2)
    runs.append((_rhs_joint(0.2, P), (TOL.r0, 5.0), start4, {}))
    # and with samples at r_eval up to a terminal event, where h1 falls
    # below -0.5 (past r = 1), so that the cut step is interpolated
    stop4 = dict(detectors=[STOP], g=lambda r, y: (y[0] + 0.5,), r_eval=np.linspace(TOL.r0, 5.0, 800))
    runs.append((_rhs_joint(0.1, P), (TOL.r0, 5.0), start4, stop4))
    # a once detector whose value keeps changing sign after it fired, next
    # to one that fires on upward crossings only
    once = [Detector(EventKind.V_SIGN_CHANGE, once=True), Detector(EventKind.CERTIFICATE_FIRED, 1)]
    runs.append((_rotation, (0.0, 30.0), (1.0, 0.1), dict(detectors=once, g=_rotation_events)))
    # a value that reaches exactly 0.0 from either side where the last step
    # lands on r_end
    for sign in (1.0, -1.0):
        g = lambda r, y, s=sign: (s * (3.0 - r),)  # noqa: E731
        runs.append((_rotation, (0.0, 3.0), (1.0, 0.1), dict(detectors=[NODE], g=g)))

    got = [solve(f, span, y0, **ev, **kw) for f, span, y0, ev in runs]
    for traj, (f, span, y0, ev) in zip(got, runs):
        _assert_same_run(traj, _reference_solve(f, span, y0, **ev, **kw))
    assert got[-4].status == "event:v_sign_change" and 1.0 < got[-4].r[-1] < 5.0
    assert [t.status for t in got[:5]] == [
        "event:entered_negative_energy",
        "event:entered_negative_energy",
        "event:norm_below_eta",
        "completed",
        "event:v_sign_change",
    ]
    assert [t.nodes_before() for t in got[:5]] == [0, 1, 0, 0, 1]
    assert len(got[-3].events_of(EventKind.V_SIGN_CHANGE)) == 1
    assert len(got[-3].events_of(EventKind.CERTIFICATE_FIRED)) == 5
    assert [e.r for t in got[-2:] for e in t.events_of(EventKind.V_SIGN_CHANGE)] == [3.0, 3.0]

    # attraction_report's run to the horizon, where u crosses zero many
    # times on the spiral toward the equilibrium
    lam = 2.5
    report = attraction_report(lam, P, TOL)
    r0, y0 = radial_start(lam, P, TOL)
    ev = dict(detectors=[NODE], g=v_sign, energy=lambda y: hamiltonian(y, P))
    _assert_same_run(report.trajectory, _reference_solve(RADIAL, (r0, TOL.rmax), y0, **ev, **kw))
    assert report.u_sign_alternations > 30


def test_inlined_radial_flow_is_bitwise_the_called_one():
    # a radial_flow takes the loop with its formula written in; the same flow
    # behind a plain callable takes the loop that calls it
    kw = dict(rel=TOL.rel, abs_tol=TOL.abs)
    for f, span, y0, ev in _cubic_runs():
        _assert_same_run(solve(f, span, y0, **ev, **kw), solve(lambda r, y: f(r, y), span, y0, **ev, **kw))


def test_inlined_perturbation_flows_are_bitwise_the_called_ones():
    # the first-order flow over the log-law window and the joint remainder
    # flow on (0, 1/eps), sampled as asymptotics samples them
    from diracshoot.asymptotics import _first_order_start, _rhs_first_order, _rhs_joint

    kw = dict(rel=TOL.rel, abs_tol=TOL.abs)
    r0 = TOL.r0
    start2 = _first_order_start(P, r0)
    runs = [(_rhs_first_order(P), (r0, 1e6), start2, np.geomspace(1e3, 1e6, 200))]
    for eps in (0.3, 0.1, 0.02):
        start4 = (*start2, 0.0, 0.25 * (P.m**2 - P.omega**2) * r0 * r0)
        runs.append((_rhs_joint(eps, P), (r0, 1.0 / eps), start4, np.linspace(r0, 1.0 / eps, 800)))
    for f, span, y0, grid in runs:
        inlined = solve(f, span, y0, r_eval=grid, **kw)
        _assert_same_run(inlined, solve(lambda r, y: f(r, y), span, y0, r_eval=grid, **kw))
        assert len(inlined) == len(grid)


def test_formula_name_clashing_with_the_loop_raises():
    # e1 is the second component of the loop's fifth stage, r its radius
    from diracshoot.integrator import formula_flow

    for src in (
        "def f(x, s, e1):\n    u, v = s\n    return e1 * v, -u\n",
        "def f(x, s, c):\n    u, v = s\n    r = c * x\n    return r * v, -u\n",
    ):
        f = formula_flow(src, 0.5)
        with pytest.raises(ValueError, match="also names of the loop"):
            solve(f, (1.0, 2.0), (1.0, 0.0), rel=1e-8, abs_tol=1e-8)


def test_failures_match_the_reference_solve(monkeypatch):
    # step-size underflow in the finite-time blow-up of y' = y^2, and a step
    # budget that runs out after the first node of a nodal trial: the same
    # message and the same partial run
    from diracshoot import integrator as I
    from diracshoot.equations import radial_start
    from diracshoot.shooting import _events

    def blowup(r, y):
        return (y[0] * y[0],)

    def same_failure(f, span, y_start, message, **kw):
        with pytest.raises(IntegrationError, match=message) as exc:
            solve(f, span, y_start, **kw)
        with pytest.raises(IntegrationError) as ref:
            _reference_solve(f, span, y_start, **kw)
        assert str(exc.value) == str(ref.value)
        _assert_same_run(exc.value.partial, ref.value.partial)
        return exc.value.partial

    same_failure(blowup, (0.0, 2.0), (1.0,), "step size underflow", rel=1e-10, abs_tol=1e-10)

    monkeypatch.setattr(I, "_MAX_STEPS", 120)
    r0, y0 = radial_start(2.5, P, TOL)
    g, dets = _events(P, TOL, False)
    kw = dict(detectors=dets, g=g, energy=lambda y: hamiltonian(y, P), rel=TOL.rel, abs_tol=TOL.abs)
    partial = same_failure(RADIAL, (r0, TOL.rmax), y0, "step budget exhausted", **kw)
    assert partial.stats["naccpt"] + partial.stats["nrejct"] == 120
    assert partial.nodes_before() == 1


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
    grid = np.linspace(0.5, 9.5, 50)
    for kw in (dict(), dict(r_eval=grid, detectors=[STOP], g=v_sign)):
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
    assert gs.profile.stats == {}  # assembled outside solve


def _hex(a):
    return [float(v).hex() for v in np.ravel(a)]  # hex keeps the sign of zero and NaN


def _dense_reference(f, r_span, y0, grid, energy=None, **kw):
    """(r, y, H) at the grid, one point at a time: a point equal to a recorded
    step end takes the state there, any other the scalar Hermite value on
    the first step ending at or beyond it.  The steps come from a run
    without r_eval; f is pure, so f(r, y) at a step end is its FSAL
    derivative, and the last call of f ends the step a terminal event cuts."""
    from diracshoot.integrator import _hermite

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
    hermite = _hermite(len(ys[0]))
    out_r, out_y = [], []
    for pt in grid:
        if pt > rs[-1]:
            break
        j = next(j for j, r in enumerate(rs) if r >= pt)
        out_r.append(pt)
        out_y.append(ys[j] if pt == rs[j] else hermite(_row(*nodes[j - 1]), _row(*nodes[j]), pt))
    H = [energy(row) if energy else math.nan for row in out_y]
    return out_r, out_y, H


def test_dense_output_is_bitwise_the_scalar_loop():
    from diracshoot.asymptotics import _first_order_start, _rhs_joint

    radial = RADIAL

    def energy(y):
        return hamiltonian(y, P)

    lam = 2.0
    r0 = 1e-6 / lam**2
    y0 = taylor_start(lam, P, r0)
    kw = dict(rel=TOL.rel, abs_tol=TOL.abs)
    steps = solve(radial, (r0, 10.0), y0, **kw).r
    stop = solve(radial, (r0, 10.0), y0, detectors=[STOP], g=v_sign, **kw)
    r_star = stop.events[-1].r
    # r0, accepted step ends, the terminal crossing, interior points and r_end
    grid = np.unique(np.concatenate([steps[:60:4], [r_star], np.linspace(r0, 10.0, 301)]))
    start4 = (*_first_order_start(P, TOL.r0), 0.0, 0.25 * (P.m**2 - P.omega**2) * TOL.r0**2)
    stop_kw = dict(detectors=[STOP], g=v_sign)
    runs = [  # (f, r_span, y0, grid, energy, detectors and g)
        (radial, (r0, 10.0), y0, grid, energy, {}),
        (_rhs_joint(0.2, P), (TOL.r0, 5.0), start4, np.linspace(TOL.r0, 5.0, 800), None, {}),
        (radial, (r0, 10.0), y0, grid, energy, stop_kw),
    ]
    for f, span, y_start, pts, en, ev in runs:
        traj = solve(f, span, y_start, r_eval=pts, energy=en, **ev, **kw)
        r, y, H = _dense_reference(f, span, y_start, pts, en, **ev, **kw)
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
