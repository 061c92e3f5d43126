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
from dataclasses import dataclass, replace

import numpy as np

from .equations import ENERGY, energy_constants, hamiltonian, radial_flow, series_start
from .integrator import Detector, Event, EventKind, IntegrationError, Trajectory, formula, solve
from .params import Params, Tolerances

# the search stops at its width target (or at one ulp when that is finer)
# long before this; the cap only guards the loop
_MAX_BISECT_ITER = 200
# the search stops once hi - lo <= _STOP_REL * tol.rel * hi, the accuracy in
# lambda* that the integration tolerance supports
_STOP_REL = 0.1
# samples of the matched decay tail between the anchor and the horizon
_N_TAIL = 256
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


class BracketError(RuntimeError):
    """No node-bearing datum found while doubling the initial datum."""


class DecayWindowError(RuntimeError):
    """No decay window to fit before the anchor: the horizon is too short."""


@dataclass(frozen=True)
class Certificate:
    """Fired capture certificate: at radius R the trajectory satisfies
    H < C0/R, u v > 0 and v^2 < 2(m - omega), which pins the datum to
    at most one further sign change."""

    R: float
    H_at_R: float
    uv_product: float
    v_squared: float
    C0: float


@dataclass(frozen=True)
class Classification:
    lam: float
    verdict: str
    node_count: int
    evidence: dict
    summary: dict
    trajectory: Trajectory | None = None
    # shooting function F = r (u K_v - v K_u) read at the trajectory's
    # closest approach; only integrated stop_at_first_node runs record it
    wronskian: float | None = None
    tol: Tolerances | None = None  # the resolved tolerances of the run

    @property
    def certificate(self) -> Certificate | None:
        return self.evidence.get("certificate")


@dataclass(frozen=True)
class Bracket:
    lo: float
    hi: float
    history: tuple[Classification, ...]

    def __post_init__(self):
        # a degenerate bracket (lo == hi) is allowed and returned as-is
        if not self.lo <= self.hi:
            raise ValueError(f"need lo <= hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class GroundState:
    lambda_star: float
    bracket_width: float
    profile: Trajectory
    decay_slope: float
    node_count: int
    converged: bool
    anchor_r: float
    closest_approach: float  # least |u| + |v| before the first sign change of v
    history: tuple[Classification, ...] = ()


def universal_constant(p: Params) -> float:
    """Capture-certificate constant C0 = (m-omega)^2 / (4 (3m - omega))."""
    return p.gap ** 2 / (4.0 * (3.0 * p.m - p.omega))


def _certificate(r: float, s: tuple[float, float], p: Params) -> Certificate:
    u, v = s
    return Certificate(r, hamiltonian(s, p), u * v, v * v, universal_constant(p))


# event values of a shooting trial, with H the energy text of equations:
# v, H + delta and |u| + |v| - eta
_TRIAL = f"""
def f(x, s, hm, hw, delta, eta):
    u, v = s
    q = u * u + v * v
    return v, {ENERGY} + delta, abs(u) + abs(v) - eta
"""
# a full-horizon run also screens the capture certificate: min(C0/r - H, u v,
# 2(m - omega) - v^2), the first least or NaN, past r = 1
_FULL = f"""
def f(x, s, hm, hw, delta, eta, gap2, cap):
    u, v = s
    q = u * u + v * v
    H = {ENERGY}
    a, b, c = cap / x - H, u * v, gap2 - v * v
    b = b if b < a else a
    return v, H + delta, abs(u) + abs(v) - eta, -1.0 if x <= 1.0 else c if c < b else b
"""


@functools.lru_cache(maxsize=16)
def _events(p: Params, stop_at_first_node: bool):
    """(g, detectors) of a shooting trial, which stops at its first node, or
    of a full-horizon run; built once per key, as a search runs many trials
    of one key.  Only the latter screens the capture certificate: it bounds
    the sign changes after its radius, which a trial never reaches."""
    consts = (*energy_constants(p), capture_depth(p), ETA)
    dets = (
        Detector(EventKind.V_SIGN_CHANGE, terminal=stop_at_first_node),
        Detector(EventKind.ENTERED_NEGATIVE_ENERGY, direction=-1, terminal=True),
        Detector(EventKind.NORM_BELOW_ETA, direction=-1, terminal=True),
    )
    if stop_at_first_node:
        return formula(_TRIAL, *consts), dets
    certificate = Detector(EventKind.CERTIFICATE_FIRED, direction=1)
    return formula(_FULL, *consts, 2.0 * p.gap, universal_constant(p)), (*dets, certificate)


# the radial flow of p, bound once per search like _events
_flow = functools.lru_cache(maxsize=16)(radial_flow)


def _closest_approach_wronskian(traj: Trajectory, p: Params) -> float:
    """F = r (u K_v - v K_u) at the sample of least |u| + |v| (the closest
    approach that _summary reports); F changes sign with lambda - lambda*."""
    i = traj.closest
    r, (u, v) = float(traj.r[i]), traj.y[i, :2].tolist()
    bu, bv = _tail_basis(r, p)
    return r * (u * float(bv) - v * float(bu))


def _summary(traj: Trajectory, p: Params) -> dict:
    i = traj.closest
    u, v = traj.y[i, :2].tolist()
    return {
        "r_end": float(traj.r[-1]),
        "H_end": hamiltonian(traj.final_state, p),
        "min_norm1": abs(u) + abs(v),
        "r_at_min": float(traj.r[i]),
        "samples": len(traj),
    }


def _before_first_node(c: Classification, p: Params) -> Classification:
    """c with samples and events strictly before its first sign change of v."""
    t = c.trajectory
    i = next((k for k, e in enumerate(t.events) if e.kind == EventKind.V_SIGN_CHANGE), None)
    if i is None:
        return c
    n = int(np.searchsorted(t.r, t.events[i].r))
    cut = replace(t, r=t.r[:n], y=t.y[:n], events=t.events[:i])
    return replace(c, trajectory=cut, summary=_summary(cut, p))


def classify(
    lam: float,
    p: Params,
    tol: Tolerances,
    *,
    stop_at_first_node: bool = False,
    horizon: float | None = None,
    keep_trajectory: bool = True,
) -> Classification:
    """Classify one initial datum by integrating its radial trajectory.

    Counts sign changes of v; stops at the first entry into {H < -delta},
    delta = capture_depth(p) (verdict A(k)), or at the first drop of |u| +
    |v| below ETA while the energy is still above -delta (verdict
    I-candidate(k)).  A trajectory that reaches the horizon undecided is
    reported as such.  With stop_at_first_node (a search trial) the run
    ends at the first sign change of v and also records the shooting
    function F at its closest approach to the origin (see
    _closest_approach_wronskian); it does not screen the capture
    certificate, so its certificate is None.  The steps do not depend on the
    events screened, so a trial takes the steps of the full-horizon run up
    to its terminal event.  The classification records the resolved
    tolerances it ran at: a search runs its trials far from lambda* at a
    looser one (see bisect), and its history shows which.
    """
    tol = tol.resolved(p)
    r0, y0 = series_start(lam, p, tol)
    rmax = float(horizon) if horizon is not None else tol.rmax
    delta = capture_depth(p)

    H0 = hamiltonian(y0, p)
    if not math.isfinite(H0):
        # from lambda ~ 1.2e77 the start's energy overflows; no step is taken and no sample recorded
        nan = float("nan")
        note = f"float overflow at the series start: H = {H0}"
        evid = {"r": nan, "H": nan, "certificate": None, "note": note}
        summ = {"r_end": nan, "H_end": nan, "min_norm1": nan, "r_at_min": nan, "samples": 0}
        return Classification(lam, VERDICT_UNDECIDED, 0, evid, summ, None, tol=tol)
    if H0 < -delta:
        # the datum starts inside the capture region and H only decreases
        ev = Event(EventKind.ENTERED_NEGATIVE_ENERGY, r0, y0)
        traj = Trajectory(np.array([r0]), np.array([y0]), (ev,), "event:entered_negative_energy")
        evid, summ = {"r": r0, "H": H0, "certificate": None}, _summary(traj, p)
        wronskian = _closest_approach_wronskian(traj, p) if stop_at_first_node else None
        return Classification(lam, VERDICT_A, 0, evid, summ, traj if keep_trajectory else None, wronskian, tol)

    g, dets = _events(p, stop_at_first_node)
    try:
        traj = solve(_flow(p), (r0, rmax), y0, rel=tol.rel, abs_tol=tol.abs, detectors=dets, g=g)
    except IntegrationError as err:
        traj = err.partial
        ev = {"r": float("nan"), "H": float("nan"), "certificate": None, "note": str(err)}
        summ = _summary(traj, p) if traj is not None and len(traj) else {}
        nodes = traj.nodes_before() if traj is not None else 0
        return Classification(
            lam, VERDICT_UNDECIDED, nodes, ev, summ, traj if keep_trajectory else None, tol=tol
        )

    fired = traj.events_of(EventKind.CERTIFICATE_FIRED)
    cert = _certificate(fired[0].r, fired[0].y, p) if fired else None
    wronskian = _closest_approach_wronskian(traj, p) if stop_at_first_node else None
    summ = _summary(traj, p)
    # a terminal crossing is the run's last sample
    evid = {"r": summ["r_end"], "H": summ["H_end"], "certificate": cert}

    decided = {EventKind.ENTERED_NEGATIVE_ENERGY: VERDICT_A, EventKind.NORM_BELOW_ETA: VERDICT_I}
    if traj.status != "completed":  # ended at a terminal event: capture, the eta tube or a node
        terminal = traj.events[-1]
        if terminal.kind in decided:
            k, verdict = traj.nodes_before(terminal.r), decided[terminal.kind]
        else:
            k, verdict = 1, VERDICT_UNDECIDED
            evid["note"] = "stopped at first node"
    else:
        k = traj.nodes_before()
        if float(traj.norm1[-1]) < ETA and summ["H_end"] >= -delta:
            verdict = VERDICT_I
        else:
            verdict = VERDICT_UNDECIDED
            evid["note"] = "horizon reached"

    traj = traj if keep_trajectory else None
    return Classification(lam, verdict, k, evid, summ, traj, wronskian, tol)


@functools.lru_cache(maxsize=16)
def _loose(tol: Tolerances) -> Tolerances | None:
    """The loose tolerance of search trials at tol, None where it is tol."""
    loose = replace(tol, rel=max(tol.rel, _LOOSE_TOL), abs=max(tol.abs, _LOOSE_TOL))
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
    2014).  The largest x sets the step (the integrand narrows like
    1/sqrt(x)); the smallest sets the range (the integrand falls below
    e^-45 past sinh^2(t/2) = 22.5/x, plus 2 for the growth of cosh t).
    Pairwise sums keep both within a few ulp on [1e-8, 700].  A float x
    takes the operations of a 0-d array in fewer numpy calls.
    """
    scalar = isinstance(x, float)
    lo, hi = (x, x) if scalar else (float(x.min()), float(x.max()))
    h = min(0.1, 0.7 / math.sqrt(hi))
    t_end = 2.0 * math.asinh(math.sqrt(22.5 / lo)) + 2.0
    size = math.ceil(t_end / h) + 1
    m2s2, ch = _k01_nodes(h, 1 << (size - 1).bit_length())
    e = x * m2s2[:size] if scalar else np.multiply.outer(x, m2s2[:size])
    np.exp(e, out=e)  # one (points x nodes) buffer, reused in place
    e.T[0] *= 0.5
    scale = h * np.exp(-x)
    k0 = scale * np.add.reduce(e, -1)
    return k0, scale * np.add.reduce(np.multiply(e, ch[:size], out=e), -1)


@functools.lru_cache(maxsize=32)
def _k01_nodes(h: float, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only -2 sinh^2(t/2), cosh t at t = h * arange(size), a power of
    two; -2 scales exactly, so x times the first is -2 x sinh^2(t/2)."""
    t = h * np.arange(size)
    m2s2, ch = -2.0 * np.sinh(0.5 * t) ** 2, np.cosh(t)
    m2s2.flags.writeable = ch.flags.writeable = False
    return m2s2, ch


def _tail_basis(r, p: Params):
    """Decaying solution of the linearized radial system.

    (u, v) = (mu K1(mu r)/(m+omega), K0(mu r)) with mu = sqrt(m^2 - omega^2)
    solves u' + u/r = -(m-omega) v, v' = -(m+omega) u exactly.  The modified
    Bessel pair comes from _bessel_k01, so no path needs more than numpy.
    """
    mu = math.sqrt(p.m * p.m - p.omega * p.omega)
    k0, k1 = _bessel_k01(mu * (r if isinstance(r, float) else np.asarray(r, dtype=float)))
    return mu * k1 / (p.m + p.omega), k0


def _decay_window(t: Trajectory, anchor_r: float, p: Params) -> tuple[float, float]:
    """Radii of the samples up to the anchor with sqrt(L g) <= |u| + |v| <= L:
    L = _LINEAR a bounds the linear regime, and g = min max(1, (m + omega)/(2 mu))
    the growing mode at the anchor, where |u| + |v| = min; near a zero of v, min
    = |u| is 2 mu/(m + omega) of it.  There the growing share is below g/L.  A
    coarser run takes the last sample above L and the first below."""
    lin = _LINEAR * math.sqrt(2.0 * p.gap)
    head = t.norm1[: np.searchsorted(t.r, anchor_r, side="right")]
    linear = head <= lin
    if int(linear.sum()) < 2:
        raise DecayWindowError("fewer than two linear samples before the anchor")
    grow = float(head[-1]) * max(1.0, math.sqrt((p.m + p.omega) / (4.0 * p.gap)))
    clean = linear & (head >= math.sqrt(lin * grow))
    k = max(int(np.argmax(linear)), 1)
    rs = t.r[: len(head)][clean] if int(clean.sum()) >= 2 else t.r[k - 1 : k + 1]
    return float(rs[0]), float(rs[-1])


def extend_with_decay_tail(
    traj: Trajectory, p: Params, r_end: float
) -> tuple[Trajectory, float, float]:
    """Truncate a near-connection trajectory at its closest approach to the
    origin and continue it with the matched decaying tail up to r_end.

    Returns (profile, anchor_r, tail_amplitude).  The tail is matched by least
    squares on _decay_window, where decay_fit reads the slope; an anchor at
    r_end leaves no room for it, and the profile ends there.
    """
    i_c = max(traj.closest, 1)
    r_c = float(traj.r[i_c])
    r_a, r_b = _decay_window(traj, r_c, p)
    fit = (traj.r >= r_a) & (traj.r <= r_b)
    bu, bv = _tail_basis(traj.r[fit], p)
    num = float(np.dot(traj.u[fit], bu) + np.dot(traj.v[fit], bv))
    den = float(np.dot(bu, bu) + np.dot(bv, bv))
    amp = num / den

    r_tail = np.linspace(r_c, float(r_end), _N_TAIL + 1)[1:] if r_c < r_end else np.empty(0)
    bu, bv = _tail_basis(r_tail, p) if r_tail.size else (r_tail, r_tail)

    profile = Trajectory(
        np.concatenate([traj.r[: i_c + 1], r_tail]),
        np.concatenate([traj.y[: i_c + 1], np.column_stack([amp * bu, amp * bv])]),
        tuple(e for e in traj.events if e.r <= r_c),
        "completed",
    )
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
    ends instead.  So a search runs no full-horizon integration.

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
    tol = tol.resolved(p)
    lo, hi = bracket.lo, bracket.hi
    # every trial at the default horizon by datum (not the doubled-horizon
    # retries), and the (datum, F) of the two latest, first the ends'
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
        if c.verdict == VERDICT_UNDECIDED and c.node_count == 0:
            # undecided without a node: retry once on a doubled horizon,
            # then count as a lower point while the energy stayed positive
            c = classify(lam, p, tol, stop_at_first_node=True, horizon=2.0 * tol.rmax)
            history.append(c)
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
