"""Classification of initial data and the ground-state search.

A datum lambda = v(0) is classified by the fate of its radial trajectory:
capture by the negative-energy region after k sign changes of v (verdict
"A", k nodes), decay to the origin (verdict "I-candidate"), or neither
within the horizon ("undecided").  The node-free ground state sits at the
supremum of the node-free captured set.  The search narrows a bracket
whose sides are set by the node count alone.  Every trial trajectory also
yields a signed shooting function, the Wronskian F = r (u K_v - v K_u)
against the decaying Bessel mode, read at its closest approach to the
origin: it is conserved by the linearized flow and close to linear in
lambda - lambda* across the whole bracket, so each trial datum is a secant
step on F from the first bracket on.  One settled trial, a connection to the
origin or a converged secant root, ends the search and gives the profile.

Shooting into a saddle point cannot hold the connection forever: the best
double-precision trajectory leaves the origin again after its closest
approach.  The converged profile is therefore assembled from the numerical
trajectory up to that closest approach and the exact decaying solution of
the linearized system (a modified Bessel pair) beyond it; the matched tail
solves the radial system to below the integrator's own residual.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from . import _lazy as np
from .equations import ENERGY, first_node, hamiltonian, radial_flow, series_start
from .integrator import Detector, Event, EventKind, IntegrationError, Trajectory, formula, solve
from .params import Params, Tolerances

# the search stops at its width target (or at one ulp when that is finer)
# long before this; the cap only guards the loop
_MAX_BISECT_ITER = 200
# the search stops once hi - lo <= _STOP_REL * tol.rel * hi, the accuracy in
# lambda* that the integration tolerance supports
_STOP_REL = 0.1
# samples of the matched decay tail between the anchor and the horizon, or mu r = _K_END before it: up to there
# _bessel_k01 holds K0 and K1 to a few ulp as normal floats, and from mu r = 742 on both are 0 in double
_N_TAIL, _K_END = 256, 700.0
# bracket_search doubles the datum up to this multiple of its first one
_MAX_FACTOR = 1e6
# the loose tolerance of search trials and its two distances (see bisect)
_LOOSE_TOL = 1e-7
_DECIDE_REL = 1e-3
_NEAR_REL = 1e-2
# the verdict thresholds: the origin's eta tube |u| + |v| < ETA, the capture
# region {H < -capture_depth}, and the linear regime |u| + |v| <= _LINEAR a,
# a = sqrt(2 (m - omega)), where u^2 + v^2 is at most 2e-4 of the gap
ETA = 1e-8
_LINEAR = 1e-2


def capture_depth(p: Params) -> float:
    """delta = 1e-8 (m - omega)^2 keeps the capture test {H < -delta} away
    from the separatrix {H = 0}."""
    return 1e-8 * p.gap ** 2


VERDICT_A = "A"
VERDICT_I = "I-candidate"
VERDICT_UNDECIDED = "undecided"
# the verdict of each deciding event of a radial run (see decide)
_DECIDED = {EventKind.ENTERED_NEGATIVE_ENERGY: VERDICT_A, EventKind.NORM_BELOW_ETA: VERDICT_I}


class BracketError(RuntimeError):
    """No node-bearing datum found while doubling the initial datum."""


class DecayWindowError(RuntimeError):
    """No decay window to fit before the anchor: the horizon is too short."""


class Certificate(NamedTuple):
    """Fired capture certificate: at radius R the trajectory satisfies
    H < C0/R, u v > 0 and v^2 < 2(m - omega), which pins the datum to
    at most one further sign change."""

    R: float
    H_at_R: float
    uv_product: float
    v_squared: float
    C0: float


class Classification(NamedTuple):
    lam: float
    verdict: str
    node_count: int
    # the run stops where it is decided, so r_end and H_end (see _summary)
    # are the radius and energy of its verdict
    summary: dict
    certificate: Certificate | None = None
    note: str | None = None  # why an undecided run stopped: the horizon, its first node or its failure
    trajectory: Trajectory | None = None
    # shooting function F = r (u K_v - v K_u) read at the trajectory's
    # closest approach; only stop_at_first_node runs record it
    wronskian: float | None = None
    tol: Tolerances | None = None  # the resolved tolerances of the run


class Bracket(NamedTuple):
    lo: float
    hi: float
    history: tuple[Classification, ...]


class GroundState(NamedTuple):
    lambda_star: float
    bracket_width: float
    profile: Trajectory
    decay_slope: float
    node_count: int
    converged: bool
    anchor_r: float
    closest_approach: float  # least |u| + |v| at a step end before the first sign change of v
    history: tuple[Classification, ...] = ()


def universal_constant(p: Params) -> float:
    """Capture-certificate constant C0 = (m-omega)^2 / (4 (3m - omega))."""
    return p.gap ** 2 / (4.0 * (3.0 * p.m - p.omega))


def _certificate(traj: Trajectory, p: Params) -> Certificate | None:
    """The capture certificate at the first sample past r = 1 with H < C0/r,
    u v > 0 and v^2 < 2(m - omega), or None where no sample holds it."""
    c0 = universal_constant(p)
    for r, u, v in zip(*traj.columns):
        if r > 1.0 and u * v > 0.0 and v * v < 2.0 * p.gap and (H := hamiltonian((u, v), p)) < c0 / r:
            return Certificate(r, H, u * v, v * v, c0)
    return None


# event values of a classification, with H the energy text of equations:
# v, H + delta and |u| + |v| - eta
_TRIAL = f"""
def f(x, s, m, omega, delta, eta):
    u, v = s
    q = u * u + v * v
    return v, {ENERGY} + delta, abs(u) + abs(v) - eta
"""


@functools.lru_cache(maxsize=16)
def _events(p: Params, stop_at_first_node: bool, stop_at_verdict: bool = True):
    """(g, detectors) of a shooting trial, which stops at its first node, of a
    classification, which stops at its verdict, or of a horizon run; built
    once per key, as a search runs many trials of one key.  All screen the
    same event values; only the terminal flags differ."""
    dets = (
        Detector(EventKind.V_SIGN_CHANGE, terminal=stop_at_first_node),
        Detector(EventKind.ENTERED_NEGATIVE_ENERGY, direction=-1, terminal=stop_at_verdict),
        Detector(EventKind.NORM_BELOW_ETA, direction=-1, terminal=stop_at_verdict),
    )
    return formula(_TRIAL, p.m, p.omega, capture_depth(p), ETA), dets


# the radial flow of p, bound once per search like _events
_flow = functools.lru_cache(maxsize=16)(radial_flow)


def _closest_approach_wronskian(traj: Trajectory, p: Params) -> float:
    """F = r (u K_v - v K_u) at the sample of least |u| + |v| (the closest
    approach that _summary reports); F changes sign with lambda - lambda*."""
    i = traj.closest
    r, u, v = (column[i] for column in traj.columns)
    bu, bv = _tail_basis(r, p)
    return r * (u * float(bv) - v * float(bu))


def _summary(traj: Trajectory, p: Params) -> dict:
    i = traj.closest
    r, u, v = traj.columns
    return {
        "r_end": r[-1],
        "H_end": hamiltonian((u[-1], v[-1]), p),
        "min_norm1": abs(u[i]) + abs(v[i]),
        "r_at_min": r[i],
        "samples": len(r),
    }


def _before_first_node(c: Classification, p: Params) -> Classification:
    """The trial c with samples and events strictly before its first sign
    change of v, and no step table: a trial that has one ends on its last sample there."""
    t = c.trajectory
    if t.status != f"event:{EventKind.V_SIGN_CHANGE.value}":
        return c
    cut = Trajectory(tuple(col[:-1] for col in t.columns), t.events[:-1], t.status, t.stats)
    return c._replace(trajectory=cut, summary=_summary(cut, p))


def _with_first_node(traj: Trajectory, lam: float, p: Params) -> Trajectory:
    """traj with r1 = first_node(lam, p) leading its event log in place of the run's first sign change of v,
    or added where it has none, and no step table; the state there is the bubble's (lam U0(R1), 0), R1 = lam^2
    r1.  The verdict and the later nodes stay the run's, also any that a loose run put before r1 (at lambda
    = 1e40 and rel = 1e-8).  A run that ends before r1 (failed at its start) comes back as it is."""
    r1 = first_node(lam, p)
    if not r1 < traj.columns[0][-1]:
        return traj
    R1 = lam * lam * r1
    node = Event(EventKind.V_SIGN_CHANGE, r1, (2.0 * lam * R1 / (4.0 + R1 * R1), 0.0))
    first = next((e for e in traj.events if e.kind == EventKind.V_SIGN_CHANGE), None)
    events = [node, *(e for e in traj.events if e is not first)]
    return Trajectory(traj.columns, events, traj.status, traj.stats)


def decide(traj: Trajectory, p: Params) -> tuple[str, float]:
    """(verdict, r) of a radial run, the one rule for every run: A at a start
    inside {H < -capture_depth(p)}, else the first deciding event's verdict
    at its crossing, else undecided at the last sample."""
    r, u, v = traj.columns
    if hamiltonian((u[0], v[0]), p) < -capture_depth(p):
        return VERDICT_A, r[0]
    e = next((e for e in traj.events if e.kind in _DECIDED), None)
    return (_DECIDED[e.kind], e.r) if e else (VERDICT_UNDECIDED, r[-1])


def horizon_run(lam: float, p: Params, tol: Tolerances) -> Trajectory:
    """The run of lam from its series start to tol.rmax, also from a start in
    the capture region.  It screens classify's events with none terminal, and
    the steps do not depend on the events screened, so up to its deciding
    event it is a full-horizon classify's run step for step.  A failure raises IntegrationError."""
    tol = tol.resolved(p)
    r0, y0 = series_start(lam, p, tol)
    g, dets = _events(p, False, False)
    return solve(_flow(p), (r0, tol.rmax), y0, rel=tol.rel, abs_tol=tol.abs, detectors=dets, g=g)


def classify(
    lam: float,
    p: Params,
    tol: Tolerances,
    *,
    stop_at_first_node: bool = False,
    keep_trajectory: bool = True,
) -> Classification:
    """Classify one initial datum by integrating its radial trajectory.

    The run counts sign changes of v and stops at its first deciding event:
    an entry into {H < -capture_depth(p)} or a drop of |u| + |v| below ETA.
    decide reads the verdict, A(k) or I-candidate(k) with k the run's sign
    changes of v, or undecided where the run reaches the horizon tol.rmax,
    stops at its first node (a trial) or fails; its note says which.  A
    search trial (stop_at_first_node) ends at the first sign change of v and
    records the shooting function F at its closest approach to the origin
    (see _closest_approach_wronskian); its certificate is None.  A
    full-horizon run reads the capture certificate at its first sample that
    holds it (see _certificate).  A classification records the resolved
    tolerances it ran at: a search runs its trials far from lambda* at a
    looser one (see bisect), and its history shows which.

    Where eps^2 m = m / lambda^2 <= tol.rel (lambda >= 1e5 at the defaults),
    the first-order term that places a large datum's first node sinks to the
    run's own tolerance (from lambda = 1e7 on at rel = 1e-10 the run finds
    none), and the node is the closed form first_node (see _with_first_node):
    node_count is max(1, the run's count).  Its error, 1.2e-4 at lambda = 1e3
    and about 2e-6 from 1e4 on, passes the run's where rel is looser than
    about 1e-6, as the switch then comes below lambda = 1e3.
    """
    tol = tol.resolved(p)
    r0, y0 = series_start(lam, p, tol)
    H0 = hamiltonian(y0, p)
    if not math.isfinite(H0):
        # from lambda ~ 1.2e77 the start's energy overflows; no step is taken and no sample recorded
        nan = float("nan")
        note = f"float overflow at the series start: H = {H0}"
        summ = {"r_end": nan, "H_end": nan, "min_norm1": nan, "r_at_min": nan, "samples": 0}
        return Classification(lam, VERDICT_UNDECIDED, 0, summ, None, note, tol=tol)
    failure = None
    if H0 < -capture_depth(p):
        # the datum starts inside the capture region, where H only decreases: a one-sample run
        traj = Trajectory(([r0], [y0[0]], [y0[1]]), (), "completed")
    else:
        g, dets = _events(p, stop_at_first_node)
        try:
            traj = solve(_flow(p), (r0, tol.rmax), y0, rel=tol.rel, abs_tol=tol.abs, detectors=dets, g=g)
        except IntegrationError as err:
            traj, failure = err.partial, str(err)

    if not stop_at_first_node and p.m / (lam * lam) <= tol.rel:
        traj = _with_first_node(traj, lam, p)
    cert = None if stop_at_first_node else _certificate(traj, p)
    wronskian = _closest_approach_wronskian(traj, p) if stop_at_first_node else None
    verdict = decide(traj, p)[0]
    note = None
    if verdict == VERDICT_UNDECIDED:
        note = failure or ("horizon reached" if traj.status == "completed" else "stopped at first node")

    kept = traj if keep_trajectory else None
    return Classification(lam, verdict, traj.nodes_before(), _summary(traj, p), cert, note, kept, wronskian, tol)


@functools.lru_cache(maxsize=16)
def _loose(tol: Tolerances) -> Tolerances | None:
    """The loose tolerance of search trials at tol, None where it is tol."""
    loose = Tolerances(max(tol.rel, _LOOSE_TOL), max(tol.abs, _LOOSE_TOL), tol.rmax)
    return None if loose == tol else loose


def _trial(lam: float, p: Params, tol: Tolerances, history: list) -> Classification:
    """Classify a search trial, loose where the policy of bisect allows, and
    append the run that decides its side to the search's history."""
    loose = _loose(tol)
    near = any(h.summary.get("min_norm1", math.inf) < _NEAR_REL * h.lam for h in history)
    if loose is not None and not near:
        c = classify(lam, p, loose, stop_at_first_node=True)
        decided = c.verdict != VERDICT_UNDECIDED or c.node_count >= 1
        if decided and c.summary["min_norm1"] >= _DECIDE_REL * lam:
            history.append(c)
            return c
    c = classify(lam, p, tol, stop_at_first_node=True)
    history.append(c)
    return c


def bracket_search(p: Params, tol: Tolerances) -> Bracket:
    """Bracket the node-free/nodal transition by doubling the datum.

    Starts at sqrt(2(m-omega)) (guaranteed captured without nodes) and
    doubles until a trajectory shows a sign change of v.  If that first
    datum is undecided, the horizon is too short to classify anything and
    the search stops there.  Each datum is a search trial, run at the
    loose tolerance far from the origin's saddle (see bisect).
    """
    tol = tol.resolved(p)
    lam0 = math.sqrt(2.0 * p.gap)
    lam = lam0
    history: list[Classification] = []
    last_a0 = None
    while lam <= _MAX_FACTOR * lam0:
        c = _trial(lam, p, tol, history)
        if c.node_count >= 1:
            if last_a0 is None:
                raise BracketError(
                    f"first datum {lam} already has a node; no node-free lower bound"
                )
            return Bracket(last_a0.lam, c.lam, tuple(history))
        if c.verdict == VERDICT_UNDECIDED and lam == lam0:
            raise BracketError(
                f"the node-free first datum {lam:.6g} is undecided at the horizon "
                f"rmax = {tol.rmax:.6g}; the horizon is too short to classify any datum"
            )
        if c.verdict == VERDICT_A and c.node_count == 0:
            last_a0 = c
        lam *= 2.0
    raise BracketError(f"no sign change found up to lambda = {_MAX_FACTOR * lam0:.3e}")


def decay_fit(t: Trajectory, window: tuple[float, float]) -> float:
    """Least-squares slope of log((|u| + |v|) sqrt(r)) over the radius window:
    the tail is K0(mu r) ~ e^(-mu r)/sqrt(r), so the slope reads -mu."""
    r_a, r_b = window
    if not r_a < r_b:
        raise ValueError(f"need r_a < r_b, got {window}")
    mask = (t.r >= r_a) & (t.r <= r_b)
    if int(mask.sum()) < 2:
        raise ValueError("window contains fewer than two samples")
    n1 = t.norm1[mask]
    if np.any(n1 <= 0.0):
        raise ValueError("window contains non-positive |u| + |v|")
    r = t.r[mask]
    y = np.log(n1 * np.sqrt(r))
    return float(lsq_slope(r, y - y.mean())[0])


def lsq_slope(x, y):
    """(slope, mean of x) of the least-squares line of y on x: sum((x - mean) y)
    / sum((x - mean)^2).  Centre y where its offset would swamp x - mean's rounding."""
    mean = x.mean()
    d = x - mean
    return (d @ y) / (d @ d), mean


def _bessel_k01(x):
    """(K0(x), K1(x)) for x > 0, elementwise over an array or a scalar.

    The trapezoid rule on K_nu(x) = e^-x int_0^inf exp(-2x sinh^2(t/2))
    cosh(nu t) dt, whose integrand is even and analytic in a strip, so the
    rule converges exponentially (Trefethen & Weideman, SIAM Rev. 56(3),
    2014).  The largest x up to 745, past which both are 0 in double, sets
    the step (the integrand narrows like 1/sqrt(x)); the smallest sets the
    range (the integrand falls below e^-45 past sinh^2(t/2) = 22.5/x, plus 2
    for the growth of cosh t).  Pairwise sums keep both within a few ulp on
    [1e-8, 700].  A float x takes the operations of a 0-d array in fewer
    numpy calls.
    """
    scalar = isinstance(x, float)
    lo, hi = (x, x) if scalar else (float(x.min()), float(x.max()))
    h = min(0.1, 0.7 / math.sqrt(min(hi, 745.0)))
    t_end = 2.0 * math.asinh(math.sqrt(22.5 / lo)) + 2.0
    size = math.ceil(t_end / h) + 1
    # a power of two, so a few tables serve all sizes, but not past t = 710,
    # where sinh^2(t/2) and cosh t overflow
    m2s2, ch = _k01_nodes(h, max(size, min(1 << (size - 1).bit_length(), int(710.0 / h))))
    e = x * m2s2[:size] if scalar else np.multiply.outer(x, m2s2[:size])
    np.exp(e, out=e)  # one (points x nodes) buffer, reused in place
    e.T[0] *= 0.5
    scale = h * np.exp(-x)
    k0 = scale * np.add.reduce(e, -1)
    return k0, scale * np.add.reduce(np.multiply(e, ch[:size], out=e), -1)


@functools.lru_cache(maxsize=32)
def _k01_nodes(h: float, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only -2 sinh^2(t/2), cosh t at t = h * arange(size); -2 scales
    exactly, so x times the first is -2 x sinh^2(t/2)."""
    t = h * np.arange(size)
    m2s2, ch = -2.0 * np.sinh(0.5 * t) ** 2, np.cosh(t)
    m2s2.flags.writeable = ch.flags.writeable = False
    return m2s2, ch


def _tail_basis(r, p: Params):
    """Decaying solution of the linearized radial system.

    (u, v) = (mu K1(mu r)/(m+omega), K0(mu r)) with mu = Params.mu
    solves u' + u/r = -(m-omega) v, v' = -(m+omega) u exactly.  The modified
    Bessel pair comes from _bessel_k01, so no path needs more than numpy.
    """
    mu = p.mu
    k0, k1 = _bessel_k01(mu * (r if isinstance(r, float) else np.asarray(r, dtype=float)))
    return mu * k1 / (p.m + p.omega), k0


def _decay_window(t: Trajectory, anchor_r: float, p: Params) -> tuple[float, float]:
    """Radii of the samples up to the anchor with sqrt(L g) <= |u| + |v| <= L:
    L = _LINEAR a bounds the linear regime, and g = min max(1, (m + omega)/(2 mu))
    the growing mode at the anchor, where |u| + |v| = min; near a zero of v, min
    = |u| is 2 mu/(m + omega) of it.  There the growing share is below g/L.  A
    coarser run takes the last sample above L and the first below; with none at or below L it raises."""
    lin = _LINEAR * math.sqrt(2.0 * p.gap)
    head = t.norm1[: np.searchsorted(t.r, anchor_r, side="right")]
    linear = head <= lin
    if not linear.any():
        raise DecayWindowError("no linear sample before the anchor")
    grow = float(head[-1]) * max(1.0, math.sqrt((p.m + p.omega) / (4.0 * p.gap)))
    clean = linear & (head >= math.sqrt(lin * grow))
    k = max(int(np.argmax(linear)), 1)
    rs = t.r[: len(head)][clean] if int(clean.sum()) >= 2 else t.r[k - 1 : k + 1]
    return float(rs[0]), float(rs[-1])


def extend_with_decay_tail(
    traj: Trajectory, p: Params, r_end: float
) -> tuple[Trajectory, float, float]:
    """Truncate a near-connection trajectory at its closest approach to the
    origin and continue it with the matched decaying tail up to r_end, or up
    to mu r = _K_END before it, past which the tail leaves the normal floats.

    Returns (profile, anchor_r, tail_amplitude).  The tail is matched by least
    squares on _decay_window, where decay_fit reads the slope; an anchor at
    r_end leaves no room for it, and the profile ends there.  A one-sample
    run has no window and raises DecayWindowError.
    """
    if len(traj) < 2:
        raise DecayWindowError("a one-sample run has no decay window to match the tail on")
    i_c = max(traj.closest, 1)
    r_c = float(traj.r[i_c])
    r_a, r_b = _decay_window(traj, r_c, p)
    fit = (traj.r >= r_a) & (traj.r <= r_b)
    bu, bv = _tail_basis(traj.r[fit], p)
    num = float(np.dot(traj.u[fit], bu) + np.dot(traj.v[fit], bv))
    den = float(np.dot(bu, bu) + np.dot(bv, bv))
    amp = num / den

    r_end = min(float(r_end), _K_END / p.mu)
    r_tail = np.linspace(r_c, r_end, _N_TAIL + 1)[1:] if r_c < r_end else np.empty(0)
    bu, bv = _tail_basis(r_tail, p) if r_tail.size else (r_tail, r_tail)

    columns = (
        np.concatenate([traj.r[: i_c + 1], r_tail]),
        np.concatenate([traj.u[: i_c + 1], amp * bu]),
        np.concatenate([traj.v[: i_c + 1], amp * bv]),
    )
    profile = Trajectory(columns, (e for e in traj.events if e.r <= r_c), "completed")
    return profile, r_c, amp


def _secant(a, b):
    """Root of the secant of F through two (datum, F) trials, or None where
    one carries no F or the two F are equal."""
    (x0, f0), (x1, f1) = a, b
    if f0 is None or f1 is None or f0 == f1:
        return None
    return x1 - f1 * (x1 - x0) / (f1 - f0)


def bisect(bracket: Bracket, p: Params, tol: Tolerances) -> GroundState:
    """Narrow the bracket on the node count: node-free data move the lower
    endpoint, any datum with a sign change moves the upper one.

    Each trial datum is the root of the secant of the shooting function F
    through the two latest trials (Dekker 1969), the first through the
    bracket's ends with the F their trials recorded (bracket_search's last
    two).  Where there is no root (a trial without F, or two equal F) or it
    leaves (lo, hi), the trial is the midpoint.  After n_max =
    ceil(log2(w0 / target0)) + 1 trials, bisection's count for the initial
    bracket, every trial is the midpoint, so no search takes more than
    2 n_max trials.  The loop stops when hi - lo <= target = 0.1 tol.rel hi,
    or at one ulp if that is finer.  One settled trial ends the search: the
    last connection (a node-free trial that reached the eta tube) or a
    secant root within target of the trial before it, whose trial still
    runs.  It becomes an end like any trial, and one closing trial target/2
    across from that end, clamped to the midpoint, follows; where the eta
    tube is wider than the target it connects too, and midpoints close the
    rest.  The profile is the settled trial, cut at its first sign change of
    v and continued beyond its closest approach with the matched decay tail.
    A search whose secant never converges (the trials carry no F, or the
    n_max midpoints override a useless one) takes the better of its final
    ends instead.  So a search runs no full-horizon integration and none past
    tol.rmax: a node-free trial undecided there is a lower end, not converged.

    A trajectory's side is settled where it passes the saddle at the
    origin, so a trial far from it cannot change sides through an error
    much smaller than that distance.  A trial (here and in bracket_search)
    runs at rel = abs = max(tol, _LOOSE_TOL = 1e-7), never tighter than tol,
    and decides its side if it ended on a node, a capture or the eta tube
    with min |u| + |v| >= _DECIDE_REL lambda = 1e-3 lambda; any other runs
    again at tol, and only that run enters the history.  Once a trial came
    within _NEAR_REL lambda = 1e-2 lambda of the origin, every later one
    runs at tol, so a connection, the closing trials and the candidates
    (a loose one runs again) are runs at tol.  At a loose 1e3 tol.rel
    instead of the floor, trials of (4, 1) at rel = 1e-6 came out node-free
    2e-2 lambda from the origin where the runs at tol have a node.
    """
    lo, hi = bracket.lo, bracket.hi
    # a degenerate bracket (lo == hi) is allowed and returned as-is
    if not lo <= hi:
        raise ValueError(f"need lo <= hi, got [{lo}, {hi}]")
    tol = tol.resolved(p)
    # every trial by datum, and the (datum, F) of the two latest, first the ends'
    trials = {c.lam: c for c in bracket.history}
    latest = [(x, trials[x].wronskian if x in trials else None) for x in (lo, hi)]
    history = list(bracket.history)
    converged = True
    settled = None  # the datum whose trial ends the search
    n_max = math.ceil(math.log2(max((hi - lo) / (_STOP_REL * tol.rel * hi), 1.0))) + 1

    closing = False
    for j in range(_MAX_BISECT_ITER):
        target = _STOP_REL * tol.rel * hi
        if hi - lo <= target:
            break
        mid = 0.5 * (lo + hi)
        if settled is None:
            lam = _secant(*latest) if j < n_max else None
            if lam is None or not lo < lam < hi:
                lam = mid
            elif abs(lam - latest[-1][0]) <= target:
                settled = lam  # a converged secant root
        elif not closing:
            # across from the end that the settled trial became
            lam = max(hi - 0.5 * target, mid) if settled == hi else min(lo + 0.5 * target, mid)
            closing = True
        else:
            lam = mid
        if not lo < lam < hi:
            break
        c = trials[lam] = _trial(lam, p, tol, history)
        if c.verdict == VERDICT_I:
            settled = lam
        latest = [latest[-1], (lam, c.wronskian)]
        if c.node_count >= 1:
            hi = lam
        else:
            converged = converged and c.verdict != VERDICT_UNDECIDED
            lo = lam

    # every candidate is a run at tol
    candidates = []
    for x in [lo, hi] if settled is None else [settled]:
        c = trials.get(x)
        if c is None or c.tol != tol:
            c = classify(x, p, tol, stop_at_first_node=True)
        candidates.append(_before_first_node(c, p))
    ideal = [c for c in candidates if c.verdict == VERDICT_I and c.node_count == 0]
    best = ideal[0] if ideal else min(candidates, key=lambda c: c.summary["min_norm1"])

    profile, anchor_r, _amp = extend_with_decay_tail(best.trajectory, p, tol.rmax)
    node_count = profile.nodes_before()
    # the tail match's window again (its signature is public): the profile is the run there
    slope = decay_fit(profile, _decay_window(profile, anchor_r, p))

    return GroundState(
        lambda_star=best.lam,
        bracket_width=hi - lo,
        profile=profile,
        decay_slope=slope,
        node_count=node_count,
        converged=converged and node_count == 0,
        anchor_r=anchor_r,
        closest_approach=best.summary["min_norm1"],
        history=tuple(history),
    )


def ground_state(p: Params, tol: Tolerances) -> GroundState:
    """Full pipeline: bracket the transition, bisect, assemble the profile."""
    return bisect(bracket_search(p, tol), p, tol)
