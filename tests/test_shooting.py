import math

import collocation
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import certificate_check

from diracshoot import (
    Bracket,
    DecayWindowError,
    EventKind,
    Params,
    Tolerances,
    Trajectory,
    bisect,
    bracket_search,
    classify,
    decay_fit,
    ground_state,
    hamiltonian,
    universal_constant,
)
from diracshoot.shooting import _decay_window, _tail_basis, extend_with_decay_tail

P = Params(1.0, 0.5)
TOL = Tolerances()


def test_universal_constant_frozen():
    assert universal_constant(P) == pytest.approx(0.025)


def test_certificate_check_frozen():
    # H(0.01, 0.01) = 1e-8 + 5e-5 = 5.001e-5 by direct evaluation;
    # all three firing conditions hold
    cert = certificate_check(2.0, (0.01, 0.01), P)
    assert cert is not None
    assert cert.H_at_R == pytest.approx(5.001e-5, rel=1e-12)
    assert cert.H_at_R < cert.C0 / 2.0
    assert certificate_check(0.5, (0.01, 0.01), P) is None  # needs r > 1
    assert certificate_check(2.0, (-0.01, 0.01), P) is None  # u v <= 0
    assert certificate_check(2.0, (0.01, 1.5), P) is None  # v^2 too large


def test_classify_rejects_nonpositive():
    # the series start rejects NaN and inf, before its start energy could
    # be read as an overflow
    for lam in (0.0, -2.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="datum must be positive and finite"):
            classify(lam, P, TOL)


def test_tiny_datum_completes_inside_the_eta_tube():
    # |u| + |v| starts below eta, so no crossing into the tube fires: the
    # run completes there and is an I-candidate without nodes
    c = classify(1e-40, P, TOL)
    assert (c.trajectory.status, c.trajectory.events) == ("completed", ())
    assert (c.verdict, c.node_count) == ("I-candidate", 0)
    assert c.evidence["r"] == c.summary["r_end"] == TOL.resolved(P).rmax


def test_classification_evidence_consistent():
    # verify's classification_evidence checks the H evidence and the node
    # count before the capture radius at this datum
    c = classify(2.0, P, TOL)
    assert (c.verdict, c.node_count) == ("A", 1)


def test_certificate_fires_on_near_connection():
    c = classify(1.8078, P, TOL)
    cert = c.certificate
    assert cert is not None
    assert cert.R > 1.0
    assert cert.H_at_R < cert.C0 / cert.R
    assert cert.uv_product > 0.0
    assert cert.v_squared < 2.0 * P.gap


def test_fired_certificate_is_certificate_check_at_its_event():
    # one constructor: the event's state gives the classification's certificate
    fired = 0
    for lam in (1.5, 1.7, 1.8, 1.8078, 1.81):
        c = classify(lam, P, TOL)
        for ev in c.trajectory.events_of(EventKind.CERTIFICATE_FIRED):
            cert = certificate_check(ev.r, ev.y, P)
            if cert is not None:
                fired += 1
                assert cert == c.certificate
    assert fired > 0


def test_capture_region_start_logs_the_start_state():
    c = classify(0.5, P, TOL)
    (ev,) = c.trajectory.events
    assert ev.kind == EventKind.ENTERED_NEGATIVE_ENERGY
    assert ev.y == tuple(c.trajectory.y[0])
    assert c.evidence["H"] == hamiltonian(ev.y, P)


def test_bracket_search():
    b = bracket_search(P, TOL)
    assert b.lo == pytest.approx(1.0)
    assert b.hi == pytest.approx(2.0)
    assert b.history[0].verdict == "A" and b.history[0].node_count == 0
    assert b.history[-1].node_count >= 1


def test_bracket_requires_order():
    with pytest.raises(ValueError):
        Bracket(2.0, 1.0, ())


def test_bracket_search_failure_when_capped(monkeypatch):
    # with the doubling capped before the first nodal datum the search
    # must report a bracket failure rather than fabricate an endpoint
    from diracshoot import shooting

    monkeypatch.setattr(shooting, "_MAX_FACTOR", 1.5)
    with pytest.raises(shooting.BracketError):
        bracket_search(P, TOL)


def test_bisect_ground_state(gs):
    # width, node count and decay slope are acceptance criteria 1 and 2
    assert gs.lambda_star == pytest.approx(1.8078961486, abs=1e-9)
    assert gs.converged


def test_bisect_history_sides_consistent(gs):
    # every node-free datum in the history, captured (A(0)) or a connection
    # (I-candidate), sits below every datum that showed a sign change;
    # bracket nesting guarantees this ordering.  Replayed by node count, the
    # history gives the final bracket, whose lower end may be the connection
    free = [c.lam for c in gs.history if c.verdict in ("A", "I-candidate") and c.node_count == 0]
    nodal = [c.lam for c in gs.history if c.node_count >= 1]
    assert free and nodal
    assert max(free) < min(nodal)
    lo, hi = -math.inf, math.inf
    for c in gs.history:
        if c.node_count >= 1:
            hi = min(hi, c.lam)
        else:
            lo = max(lo, c.lam)
    assert hi - lo == gs.bracket_width
    assert abs(gs.lambda_star - max(free)) <= max(gs.bracket_width, 1e-12)


def test_undecided_trial_is_retried_on_a_doubled_horizon():
    # at (1, 0.4) and rmax = 18 one trial datum is still undecided at the
    # horizon; bisect classifies it again to 36, where it reaches the eta
    # tube, and the search ends where the default one does
    p = Params(1.0, 0.4)
    short = ground_state(p, Tolerances(rmax=18.0))
    lams = [c.lam for c in short.history]
    retried = [c.verdict for c in short.history if lams.count(c.lam) == 2]
    assert retried == ["undecided", "I-candidate"]
    assert short.converged and short.node_count == 0
    assert short.lambda_star == pytest.approx(ground_state(p, TOL).lambda_star, rel=1e-10)


def test_ground_state_profile_localized(gs):
    # |u| + |v| at r = 40 is acceptance criterion 1
    prof = gs.profile
    assert prof.norm1[-1] < 1e-12
    assert np.all(np.diff(prof.r) > 0)


_BESSEL_X = (1e-8, 1e-6, 1e-3, 1e-2, 1.0, 10.0, 40.0, 200.0, 700.0)


@pytest.mark.parametrize("m, omega", [(1.0, 0.5), (1.0, 0.9)])
def test_tail_basis_matches_mpmath_bessel_pair(m, omega):
    # oracle: (mu K1(mu r)/(m+omega), K0(mu r)) in 30-digit mpmath, which
    # solves u' + u/r = -(m-omega) v and v' = -(m+omega) u; each x = mu r
    # alone, and once in one call spanning them all, where the quadrature
    # step must come from the largest x and its range from the smallest
    import mpmath

    mu = math.sqrt(m * m - omega * omega)
    rs = np.array(_BESSEL_X) / mu
    p = Params(m, omega)
    wide_u, wide_v = _tail_basis(rs, p)
    with mpmath.workdps(30):
        mm, om = mpmath.mpf(m), mpmath.mpf(omega)
        mu_mp = mpmath.sqrt(mm * mm - om * om)

        def pair_u(r):
            return mu_mp * mpmath.besselk(1, mu_mp * r) / (mm + om)

        def pair_v(r):
            return mpmath.besselk(0, mu_mp * r)

        for r, w_u, w_v in zip(rs, wide_u, wide_v):
            s_u, s_v = _tail_basis(r, p)
            r = mpmath.mpf(r)
            u, v = pair_u(r), pair_v(r)
            for got_u, got_v in ((s_u, s_v), (w_u, w_v)):
                assert abs(got_u - u) <= 1e-12 * abs(u)
                assert abs(got_v - v) <= 1e-12 * abs(v)
            du, dv = mpmath.diff(pair_u, r), mpmath.diff(pair_v, r)
            assert abs(du + u / r + (mm - om) * v) <= 1e-20 * (abs(du) + abs(u / r))
            assert abs(dv + (mm + om) * u) <= 1e-20 * abs(dv)


def _bessel_k01_direct(x):
    """shooting._bessel_k01 with its nodes computed on every call."""
    x = np.asarray(x, dtype=float)
    h = min(0.1, 0.7 / math.sqrt(float(x.max())))
    t_end = 2.0 * math.asinh(math.sqrt(22.5 / float(x.min()))) + 2.0
    t = h * np.arange(math.ceil(t_end / h) + 1)
    e = np.exp(-2.0 * np.multiply.outer(x, np.sinh(0.5 * t) ** 2))
    e[..., 0] *= 0.5
    scale = h * np.exp(-x)
    return scale * e.sum(axis=-1), scale * (e * np.cosh(t)).sum(axis=-1)


def test_bessel_node_cache_is_bitwise_the_direct_formula():
    # scalars across the range, repeated so that cached grids are reused,
    # and arrays whose largest x sets a step below 0.1
    from diracshoot.shooting import _bessel_k01, _k01_nodes

    scalars = [*np.geomspace(1e-8, 700.0, 97), *np.linspace(20.0, 40.0, 50)]
    arrays = [np.linspace(1.0, 60.0, 40), np.geomspace(1e-3, 700.0, 30), np.array(_BESSEL_X)]
    for x in [*scalars, *arrays, *scalars[::7]]:
        got, want = _bessel_k01(x), _bessel_k01_direct(x)
        assert [np.asarray(a).tobytes() for a in got] == [np.asarray(a).tobytes() for a in want]
    info = _k01_nodes.cache_info()
    assert info.hits > 0 and info.currsize <= info.maxsize
    s2, ch = _k01_nodes(0.1, 64)
    assert not (s2.flags.writeable or ch.flags.writeable)


def test_degenerate_bracket_returns_immediately():
    lam = 1.8078961486370915
    gs2 = bisect(Bracket(lam, lam, ()), P, TOL)
    assert gs2.lambda_star == pytest.approx(lam, rel=1e-12)


def test_decay_fit_exact_exponential():
    # the K0 tail model e^(-mu r)/sqrt(r) is fitted exactly
    r = np.linspace(1.0, 10.0, 200)
    vals = 3.0 * np.exp(-0.4 * r) / np.sqrt(r)
    traj = Trajectory(r, np.column_stack([vals / 2.0, vals / 2.0]), (), "completed")
    slope = decay_fit(traj, (1.0, 10.0))
    assert slope == pytest.approx(-0.4, abs=1e-6)


def test_decay_fit_constant_is_flat():
    # mu = 0: the 1/sqrt(r) prefactor alone has slope 0
    r = np.linspace(1.0, 5.0, 50)
    traj = Trajectory(r, np.full((len(r), 2), 0.5) / np.sqrt(r)[:, None], (), "completed")
    assert decay_fit(traj, (1.0, 5.0)) == pytest.approx(0.0, abs=1e-12)


def _mp_lsq_slope(x, y):
    # the least-squares slope of the float samples, at 40 digits
    import mpmath

    with mpmath.workdps(40):
        X, Y = [mpmath.mpf(a) for a in x.tolist()], [mpmath.mpf(b) for b in y.tolist()]
        mx, my = mpmath.fsum(X) / len(X), mpmath.fsum(Y) / len(Y)
        num = mpmath.fsum((a - mx) * (b - my) for a, b in zip(X, Y))
        return float(num / mpmath.fsum((a - mx) ** 2 for a in X))


@given(
    omega=st.floats(0.05, 0.99),
    amp_exp=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 300),
)
@settings(max_examples=60, deadline=None)
def test_decay_fit_is_the_least_squares_slope_to_a_few_ulp(omega, amp_exp, seed, n):
    # a scaled Bessel tail sampled at random radii and fitted between two
    # random samples, down to two neighbours, where the offset of
    # log((|u| + |v|) sqrt(r)) dwarfs its spread: np.polyfit was up to 5.8e3
    # ulp off on such windows, and the closed form at most 6 ulp over 2,000
    rng = np.random.default_rng(seed)
    r = np.unique(rng.uniform(0.1, 60.0, n))
    if len(r) < 2:
        return
    bu, bv = _tail_basis(r, Params(1.0, omega))
    amp = 10.0 ** amp_exp
    traj = Trajectory(r, np.column_stack([amp * bu, -amp * bv]), (), "completed")
    i, j = np.sort(rng.choice(len(r), 2, replace=False))
    window = (float(r[i]), float(r[j]))
    inside = r[i : j + 1]
    want = _mp_lsq_slope(inside, np.log(traj.norm1[i : j + 1] * np.sqrt(inside)))
    assert abs(decay_fit(traj, window) - want) <= 8 * math.ulp(want)


def test_decay_fit_domain_errors():
    r = np.linspace(1.0, 5.0, 50)
    traj = Trajectory(r, np.zeros((len(r), 2)), (), "completed")
    with pytest.raises(ValueError):
        decay_fit(traj, (1.0, 5.0))  # |u|+|v| = 0 in window
    with pytest.raises(ValueError):
        decay_fit(traj, (5.0, 1.0))  # reversed window
    with pytest.raises(ValueError, match="fewer than two samples"):
        decay_fit(traj, (1.01, 1.05))  # between two samples


def test_tail_match_without_linear_samples_raises():
    # |u| + |v| stays above the linear bound (1e-2 at P) up to the closest
    # approach (the last sample): there is no decay window to match the tail on
    r = np.linspace(1.0, 5.0, 41)
    bu, bv = _tail_basis(r, P)
    traj = Trajectory(r, np.column_stack([10.0 * bu, 10.0 * bv]), (), "completed")
    assert traj.closest == 40 and traj.norm1.min() > 1e-2
    with pytest.raises(DecayWindowError):
        extend_with_decay_tail(traj, P, 10.0)


def test_tail_match_reads_the_decaying_amplitude_past_a_growing_mode():
    # an exact solution of the linearized system, A times the decaying pair
    # plus B times the growing one (-mu I1(mu r)/(m + omega), I0(mu r)), whose
    # closest approach lies inside the samples (near r = 15.3): the window
    # ends where the growing share is below 1e-6, so the match reads A within
    # 1.4e-11; the last half of the radius before the closest approach read it
    # 9.0e-6 off
    from scipy.special import i0, i1

    A, B = 1e-3, 1e-14
    mu = math.sqrt(P.m * P.m - P.omega * P.omega)
    r = np.linspace(0.5, 30.0, 300)
    bu, bv = _tail_basis(r, P)
    u = A * bu - B * mu * i1(mu * r) / (P.m + P.omega)
    v = A * bv + B * i0(mu * r)
    traj = Trajectory(r, np.column_stack([u, v]), (), "completed")
    assert 0 < traj.closest < len(r) - 1
    _, r_c, amp = extend_with_decay_tail(traj, P, 40.0)
    assert r_c == r[traj.closest]
    assert abs(amp / A - 1.0) <= 1e-9


def test_wronskian_sign_and_linearity(gs):
    # F = r (u K_v - v K_u) changes sign with the node-count verdict and is
    # proportional to lambda - lambda* near lambda*.  The guard on the datum
    # lambda* - 1e-7 dates from reading F only below |u| + |v| = 7.1e-5;
    # its closest approach is 8.0e-5 and it now carries F as well.
    ratios = []
    for d in (1e-7, 1e-8, 1e-9, 1e-10, 1e-11):
        below = classify(gs.lambda_star - d, P, TOL, stop_at_first_node=True, keep_trajectory=False)
        above = classify(gs.lambda_star + d, P, TOL, stop_at_first_node=True, keep_trajectory=False)
        assert below.verdict == "A" and below.node_count == 0
        assert above.node_count >= 1 and above.wronskian > 0.0
        ratios.append(above.wronskian / d)
        if d <= 1e-8 or below.wronskian is not None:
            assert below.wronskian < 0.0
            ratios.append(below.wronskian / -d)
    mid = float(np.median(ratios))
    assert mid == pytest.approx(0.1831, rel=1e-3)
    assert max(abs(x / mid - 1.0) for x in ratios) < 0.01


def test_full_horizon_classify_records_no_wronskian():
    # only the shooting trials carry F; the reported classification does not
    assert classify(1.8078961486, P, TOL).wronskian is None


# (m, omega) across the ratio range, both limits included
SEARCH_POINTS = [(1.0, 0.5), (1.0, 0.1), (1.0, 0.9), (2.0, 0.6), (1.0, 0.01), (1.0, 0.99)]


@pytest.fixture(scope="module", params=SEARCH_POINTS, ids=lambda mw: f"{mw[0]}-{mw[1]}")
def searched(request):
    p = Params(*request.param)
    return p, ground_state(p, TOL)


def test_search_needs_few_classifications(searched):
    # deterministic counter: 8-11 at these points; 9-12 with ITP steps on F,
    # and 27-29 when F was read only near lambda* and most trials were
    # midpoints
    _, gs = searched
    assert len(gs.history) <= 11


def test_decay_slope_reads_minus_mu(searched):
    # the fit of log((|u| + |v|) sqrt(r)) reads the K0(mu r) tail's rate
    # (off by 0.29% at worst here); a window that reached into the closest
    # approach read (1, 0.99) 1.3% off
    p, gs = searched
    mu = math.sqrt(p.m * p.m - p.omega * p.omega)
    assert abs(gs.decay_slope + mu) <= 0.01 * mu


@pytest.mark.parametrize(
    "mw",
    [(1.0, 0.5), (1.0, 0.1), (2.3, 0.7), (4.0, 1.0), (1.0, 0.99)],
    ids=lambda mw: f"{mw[0]}-{mw[1]}",
)
def test_decay_slope_reads_minus_mu_at_rel_1e_6(mw):
    # the decay window ends where the growing mode's share is small, so a
    # closest approach far from the origin does not bend the fit: within 0.32%
    # of mu at rel = abs = 1e-6 and 1.6% at 1e-4 here (at worst).  A window
    # that reached into the closest approach was 1.6% off at 1e-6 and 4.0% to
    # 13% off at 1e-4
    p = Params(*mw)
    mu = math.sqrt(p.m * p.m - p.omega * p.omega)
    for rel, bound in ((1e-6, 0.01), (1e-4, 0.03)):
        gs = ground_state(p, Tolerances(rel=rel, abs=rel))
        assert abs(gs.decay_slope + mu) <= bound * mu



@pytest.mark.parametrize("mw", [(1.0, 0.99999), (1e-5, 5e-6)], ids=lambda mw: f"{mw[0]}-{mw[1]}")
def test_decay_window_stays_in_the_tail_where_lambda_star_is_below_1e_2(mw):
    # lambda* is 7.0e-3 and 5.7e-3 here.  A linear bound of a bare 1e-2 took
    # the whole core for linear: its window began at the first sample, the
    # slope read mu 28% and 8.4% off and the tail missed the run by 77% and
    # 53% on it.  Scaled by sqrt(2 (m - omega)), the slope is within 0.36% and
    # the tail within 4.6e-5 of the run on the window that matched it
    p = Params(*mw)
    gs = ground_state(p, Tolerances())
    mu = math.sqrt(p.m * p.m - p.omega * p.omega)
    assert gs.converged and gs.lambda_star < 1e-2
    assert abs(gs.decay_slope + mu) <= 0.01 * mu
    t = gs.profile
    i = int(np.searchsorted(t.r, gs.anchor_r))  # the anchor; the tail follows
    amp = t.v[i + 1] / _tail_basis(float(t.r[i + 1]), p)[1]
    r_a, r_b = _decay_window(t, gs.anchor_r, p)
    assert t.r[0] < r_a < r_b < gs.anchor_r
    fit = (t.r >= r_a) & (t.r <= r_b)
    bu, bv = _tail_basis(t.r[fit], p)
    assert np.max(np.abs(amp * (np.abs(bu) + np.abs(bv)) / t.norm1[fit] - 1.0)) <= 1e-3

def test_search_closes_the_bracket_to_its_target(searched):
    # the settled trial, and where it leaves the bracket wide the closing
    # trial across from it, close the bracket; at (1, 0.99) a search that
    # stopped on its connection inside the bracket reported 8.6e-8 against a
    # target of 2.2e-12
    _, gs = searched
    assert gs.bracket_width <= 0.1 * TOL.rel * gs.lambda_star


def test_bracket_closes_after_a_second_connection():
    # at omega/m = 0.9999 the eta tube is wider than the target: the closing
    # trial at lo + target/2 connects too, and midpoints close the rest (a
    # search that stopped on such a second connection at 0.999 reported
    # 6.45e-10 against 6.98e-13)
    gs = ground_state(Params(1.0, 0.9999), TOL)
    assert sum(c.verdict == "I-candidate" for c in gs.history) >= 2
    assert gs.bracket_width <= 0.1 * TOL.rel * gs.lambda_star
    assert gs.converged and gs.node_count == 0


def _ran_loose(gs, p, tol):
    return [c for c in gs.history if c.tol != tol.resolved(p)]


@pytest.mark.parametrize("rel", [1e-8, 1e-12])
@pytest.mark.parametrize("mw", SEARCH_POINTS, ids=lambda mw: f"{mw[0]}-{mw[1]}")
def test_loose_trials_decide_as_full_tolerance_runs(mw, rel):
    # a trial far from the origin's saddle decides its side at the loose
    # tolerance; the run at tol gives the same node verdict at its datum
    p, tol = Params(*mw), Tolerances(rel=rel, abs=rel)
    gs = ground_state(p, tol)
    assert gs.converged and gs.node_count == 0
    loose = _ran_loose(gs, p, tol)
    assert loose and all(c.tol.rel == c.tol.abs == 1e-7 for c in loose)
    for c in loose:
        full = classify(c.lam, p, tol, stop_at_first_node=True, keep_trajectory=False)
        assert (c.verdict, c.node_count) == (full.verdict, full.node_count)


@pytest.mark.parametrize("rel", [1e-7, 1e-6])
def test_no_trial_runs_loose_at_or_above_the_floor(rel):
    p, tol = P, Tolerances(rel=rel, abs=rel)
    gs = ground_state(p, tol)
    assert gs.history and not _ran_loose(gs, p, tol)


@pytest.mark.parametrize(
    "mw, lam", [((1.0, 0.999), 0.06978858036), ((4.0, 1.0), None)], ids=["1-0.999", "4-1"]
)
def test_loose_floor_keeps_the_search_at_rel_1e_6(mw, lam):
    # with the loose trials at 1e3 tol.rel instead of max(tol.rel, 1e-7),
    # trials of (4, 1) came out node-free where the runs at tol have a node,
    # and the search raised DecayWindowError
    gs = ground_state(Params(*mw), Tolerances(rel=1e-6, abs=1e-6))
    assert gs.converged and gs.node_count == 0
    if lam is not None:
        assert abs(gs.lambda_star / lam - 1.0) <= 1e-9


def _search_rhs_calls(points, monkeypatch, loose):
    """RHS calls of the searches at points, summed over the stats of every
    solve run that shooting makes; without loose, every trial runs at tol."""
    from diracshoot import shooting

    real, calls = shooting.solve, 0

    def counted(*args, **kwargs):
        nonlocal calls
        traj = real(*args, **kwargs)
        calls += traj.stats["nfev"]
        return traj

    with monkeypatch.context() as m:
        m.setattr(shooting, "solve", counted)
        if not loose:
            m.setattr(shooting, "_loose", lambda tol: None)
        for mw in points:
            assert ground_state(Params(*mw), TOL).converged
    return calls


def test_loose_trials_cut_the_rhs_calls_of_a_search(monkeypatch):
    # the searches over SEARCH_POINTS took 29,784 RHS calls against 39,810
    # with every trial at tol (ratio 0.748)
    loose = _search_rhs_calls(SEARCH_POINTS, monkeypatch, loose=True)
    tight = _search_rhs_calls(SEARCH_POINTS, monkeypatch, loose=False)
    assert 0 < loose <= 0.8 * tight


def test_loose_trials_cut_the_rhs_calls_at_1_05(monkeypatch):
    # the secant converges from above here: every trial after the first has
    # a node.  The search settles on that converged root, so the loose
    # search takes 6,072 RHS calls against 6,196 with every trial at tol.
    # When it ran on until the bracket closed, the loose one took 10 trials
    # and 7,124 calls
    loose = _search_rhs_calls([(1.0, 0.5)], monkeypatch, loose=True)
    tight = _search_rhs_calls([(1.0, 0.5)], monkeypatch, loose=False)
    assert loose < tight


def _sign_only(traj, p):
    # a useless F: a constant carrying the verdict's sign, 1e3 times larger
    # on nodal data
    return 1e3 if traj.events_of(EventKind.V_SIGN_CHANGE) else -1.0


def test_useless_wronskian_falls_back_to_midpoints(monkeypatch):
    # under a sign-only F each secant step moves lo by a thousandth of the
    # width, as a stalled regula falsi does.  After n_max trials every trial
    # is the midpoint of its bracket, and the search still closes within
    # 2 n_max
    from diracshoot import shooting

    monkeypatch.setattr(shooting, "_closest_approach_wronskian", _sign_only)
    b = bracket_search(P, TOL)
    gs2 = bisect(b, P, TOL)
    target0 = 0.1 * TOL.rel * b.hi
    n_max = math.ceil(math.log2((b.hi - b.lo) / target0)) + 1
    trials = gs2.history[len(b.history):]
    assert n_max < len(trials) <= 2 * n_max
    lo, hi = b.lo, b.hi
    for j, c in enumerate(trials):
        assert lo < c.lam < hi
        if j >= n_max:
            assert c.lam == 0.5 * (lo + hi)
        if c.node_count >= 1:
            hi = c.lam
        else:
            lo = c.lam
    assert hi - lo == gs2.bracket_width <= 0.1 * TOL.rel * hi
    assert gs2.node_count == 0 and gs2.converged


def test_search_replays_inside_its_bracket():
    # replaying the verdicts at the default target: every trial lies strictly
    # inside the bracket of its time, within the n_max secant steps that
    # bisect allows before it falls back to midpoints, and the bracket they
    # leave is the reported one
    b = bracket_search(P, TOL)
    gs2 = bisect(b, P, TOL)
    lo, hi = b.lo, b.hi
    trials = gs2.history[len(b.history):]
    n_max = math.ceil(math.log2((hi - lo) / (0.1 * TOL.rel * hi))) + 1
    assert 0 < len(trials) <= n_max
    for c in trials:
        assert lo < c.lam < hi
        if c.node_count >= 1:
            hi = c.lam
        else:
            lo = c.lam
    assert hi - lo == gs2.bracket_width <= 0.1 * TOL.rel * hi
    a0 = [c.lam for c in gs2.history if c.verdict == "A" and c.node_count == 0]
    nodal = [c.lam for c in gs2.history if c.node_count >= 1]
    assert max(a0) < min(nodal)


def test_ends_without_wronskian_take_the_midpoint_first():
    # a bracket whose ends carry no trial, so no F: no secant, the midpoint
    gs2 = bisect(Bracket(1.0, 2.5, ()), P, TOL)
    assert gs2.history[0].lam == 1.75
    assert gs2.node_count == 0 and gs2.converged


def test_every_shooting_trial_carries_signed_wronskian(searched):
    # F at the closest approach is negative for node-free captured data and
    # positive for nodal ones, which lets the secant step from the first
    # bracket.
    # The first datum sqrt(2(m - omega)) has H(0, v) = 0, and its series
    # start lies inside {H < -delta}: it takes no step, and F is read at its
    # start.  Every later datum is larger, where H(0, v) > 0, and integrated
    _, gs = searched
    first, *later = gs.history
    assert (first.verdict, first.summary["samples"]) == ("A", 1)
    assert all(c.summary["samples"] > 1 for c in later)
    for c in gs.history:
        if c.verdict == "I-candidate":
            # a connection: F is at the integration error, either sign
            assert c.wronskian is not None
        elif c.node_count >= 1:
            assert c.wronskian > 0.0
        else:
            assert c.verdict == "A" and c.wronskian < 0.0


def test_closest_approach_is_near_the_eta_tube(searched):
    # the profile's closest approach is measured before its first node, so a
    # probe whose v changes sign after approaching the origin still competes;
    # when such probes were dropped, (2, 0.6) fell back to lo at 5.0e-7
    _, gs = searched
    assert gs.closest_approach <= 3e-8


def _event_bytes(events):
    return [(e.kind, *(float(x).hex() for x in (e.r, *e.y))) for e in events]


@pytest.mark.parametrize(
    "case",
    [*SEARCH_POINTS, "no-F-ends", "no-F-ends-sign-only"],
    ids=lambda c: c if isinstance(c, str) else f"{c[0]}-{c[1]}",
)
def test_profile_candidates_are_the_search_trials_cut_at_their_first_node(monkeypatch, case):
    # every classification of a search is a trial, and none screens the
    # capture certificate.  A settled search (on a connection or on a
    # converged secant root) has one candidate, the settled trial.  The
    # bracket (1, 2.5) carries no F at its ends, and its own trials settle
    # it; under a sign-only F the midpoints override the secant, the search
    # never settles, and the candidates are the two ends.  The steps do not
    # depend on the events screened, so cut at its first node a trial is
    # the full-horizon run cut there, up to that run's certificate
    from diracshoot import shooting

    real, cut = shooting.classify, shooting._before_first_node
    calls, full, candidates = [], [], []

    def recording(lam, *args, **kwargs):
        calls.append(real(lam, *args, **kwargs))
        if not kwargs.get("stop_at_first_node"):
            full.append(calls[-1])
        return calls[-1]

    def recording_cut(c, p):
        candidates.append(cut(c, p))
        return candidates[-1]

    monkeypatch.setattr(shooting, "classify", recording)
    monkeypatch.setattr(shooting, "_before_first_node", recording_cut)
    if isinstance(case, str):
        p = P
        if case.endswith("sign-only"):
            monkeypatch.setattr(shooting, "_closest_approach_wronskian", _sign_only)
        gs = shooting.bisect(Bracket(1.0, 2.5, ()), p, TOL)
    else:
        p = Params(*case)
        gs = shooting.ground_state(p, TOL)
    if any(c.verdict == "I-candidate" for c in gs.history):
        # the connection is the profile and the bracket's lower end
        free = [c.lam for c in gs.history if c.node_count == 0]
        assert gs.lambda_star == max(free)
    assert len(full) == 0
    # no classification lies outside the history
    searched = {c.lam for c in gs.history}
    assert all(c.lam in searched for c in calls)
    assert gs.lambda_star in searched
    for c in calls:
        assert c.certificate is None and not c.trajectory.events_of(EventKind.CERTIFICATE_FIRED)
    if case == "no-F-ends-sign-only":
        lo, hi = (c.lam for c in candidates)
        assert hi - lo == gs.bracket_width and gs.lambda_star in (lo, hi)
    else:
        assert [c.lam for c in candidates] == [gs.lambda_star]
    for c in candidates:
        fresh = cut(real(c.lam, p, TOL, stop_at_first_node=True), p)
        whole = cut(real(c.lam, p, TOL), p)
        for name in ("r", "y"):
            a, b, w = (getattr(x.trajectory, name) for x in (c, fresh, whole))
            assert a.shape == b.shape == w.shape
            assert a.tobytes() == b.tobytes() == w.tobytes()
        assert _event_bytes(c.trajectory.events) == _event_bytes(fresh.trajectory.events)
        kept = [e for e in whole.trajectory.events if e.kind != EventKind.CERTIFICATE_FIRED]
        assert _event_bytes(c.trajectory.events) == _event_bytes(kept)
        assert c.trajectory.nodes_before() == 0
        assert repr(c.summary) == repr(fresh.summary) == repr(whole.summary)


def test_lambda_star_matches_the_collocation_oracle():
    # oracle: Chebyshev collocation of the radial problem (tests/collocation.py),
    # 1.807896148773706 here, within 2e-15 of the 40-digit Taylor
    # integrator's 1.807896148773709416.  The search at the default tolerance
    # is 5.8e-11 above it, relative
    lam = ground_state(P, TOL).lambda_star
    assert abs(lam / collocation.lambda_coll(1.0, 0.5) - 1.0) < 1e-10


@pytest.mark.parametrize("omega", [0.5, 0.1, 0.99])
def test_lambda_star_at_rel_1e_13_matches_the_collocation_oracle(omega):
    # -1.8e-14, -9.5e-14 and +4.1e-12 relative
    tol = Tolerances(rel=1e-13, abs=1e-13)
    lam = ground_state(Params(1.0, omega), tol).lambda_star
    assert abs(lam / collocation.lambda_coll(1.0, omega) - 1.0) < 1e-11


def test_collocation_townes_profile_matches_its_known_q0():
    # Q'' + Q'/r - Q + Q^3 = 0, the NLS limit omega -> m of the radial system
    assert abs(collocation.townes_q0() / 2.2062008646507 - 1.0) < 1e-13


@given(st.floats(0.5, 4.0), st.floats(0.05, 0.95))
@settings(max_examples=5, deadline=None)
def test_scaling_covariance(m, ratio):
    # r -> r/m, (u, v) -> sqrt(m) (u, v) maps (1, omega/m) onto (m, omega)
    lam_m = ground_state(Params(m, ratio * m), TOL).lambda_star
    lam_1 = ground_state(Params(1.0, ratio), TOL).lambda_star
    assert lam_m == pytest.approx(math.sqrt(m) * lam_1, rel=10.0 * TOL.rel)
