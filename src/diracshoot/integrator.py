"""Adaptive embedded Runge-Kutta 5(4) integration with event detection.

The stepper is the classic Dormand-Prince pair with FSAL, working on plain
float tuples (the systems here are 2- or 4-dimensional and are integrated
many thousands of times during a shooting run, so the per-step overhead
matters).  Events are located by sign bracketing over each accepted step
and refined by bisection on the cubic Hermite dense output (Hairer, Norsett
& Wanner, Solving ODEs I, II.6); r_eval samples are interpolated with the
same polynomial, in one array pass over the recorded step ends.

The step and its Hermite dense output are written once, in _DP54_SRC, as
per-component expressions over the tableau constants below; _dp54(n)
expands them for an n-dimensional state and compiles the result once per
n, as dataclasses builds __init__.  A loop over components (a generator
over zip per stage) costs about six times the arithmetic it performs; the
expanded code keeps the same operation order, so it is bitwise the loop.
"""

from __future__ import annotations

import enum
import functools
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .equations import hamiltonian
from .params import Params, Tolerances

# Dormand-Prince 5(4) tableau
_C2, _C3, _C4, _C5 = 0.2, 0.3, 0.8, 8.0 / 9.0
_A21 = 0.2
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
# error weights: 5th order minus embedded 4th order
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_MAX_STEPS = 5_000_000


class EventKind(str, enum.Enum):
    V_SIGN_CHANGE = "v_sign_change"
    ENTERED_NEGATIVE_ENERGY = "entered_negative_energy"
    NORM_BELOW_ETA = "norm_below_eta"
    CERTIFICATE_FIRED = "certificate_fired"
    RMAX_REACHED = "rmax_reached"


@dataclass(frozen=True)
class Event:
    kind: EventKind
    r: float
    payload: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Detector:
    """Scalar event function g whose root (with the given crossing
    direction) marks an event.  direction: -1 crossing into g <= 0,
    +1 crossing into g >= 0, 0 any sign change."""

    kind: EventKind
    g: Callable[[float, tuple], float]
    direction: int = 0
    terminal: bool = False
    once: bool = False
    payload: Callable[[float, tuple], dict] | None = None


def v_sign_detector(terminal: bool = False) -> Detector:
    """Any sign change of v, reporting u at the crossing."""
    return Detector(
        EventKind.V_SIGN_CHANGE,
        lambda r, y: y[1],
        terminal=terminal,
        payload=lambda r, y: {"u": y[0]},
    )


class IntegrationError(RuntimeError):
    """Step-size underflow; carries the trajectory integrated so far."""

    def __init__(self, message: str, partial: "Trajectory | None" = None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class Trajectory:
    """Recorded integration path: samples (r, state, H) plus the event log.
    r is strictly increasing; arrays are never mutated.  y has one row per
    sample; its first two columns are the (u, v) plane for the 2-dimensional
    flows.  stats holds solve's counters in the DOPRI5 names: nfev (calls of
    f), naccpt and nrejct (accepted and rejected steps); it is empty for
    paths assembled outside solve."""

    r: np.ndarray
    y: np.ndarray
    H: np.ndarray
    events: tuple[Event, ...]
    status: str  # "completed" or "event:<kind>"
    stats: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.r)

    @property
    def u(self) -> np.ndarray:
        return self.y[:, 0]

    @property
    def v(self) -> np.ndarray:
        return self.y[:, 1]

    @property
    def norm1(self) -> np.ndarray:
        return np.abs(self.u) + np.abs(self.v)

    @property
    def final_state(self) -> tuple[float, float]:
        return float(self.u[-1]), float(self.v[-1])

    def events_of(self, kind: EventKind) -> list[Event]:
        return [e for e in self.events if e.kind == kind]

    def nodes_before(self, r: float = math.inf) -> int:
        """Number of recorded sign changes of v strictly before radius r."""
        return sum(1 for e in self.events if e.kind == EventKind.V_SIGN_CHANGE and e.r < r)


# [expr] expands to "expr_0, expr_1, ..., " and [+expr] to "expr_0 + expr_1 + ...",
# with # the component index.  step returns (y_new, k7, err): the 5th-order
# solution, the FSAL derivative f(r_new, y_new) and the RMS error norm.  hermite
# takes floats or, elementwise in the same operation order, NumPy columns.
_DP54_SRC = """
def step(f, r, y, k1, h, r_new, rel, abs_tol):
    [y#] = y
    [a#] = k1
    [b#] = f(r + _C2 * h, ([y# + h * _A21 * a#]))
    [c#] = f(r + _C3 * h, ([y# + h * (_A31 * a# + _A32 * b#)]))
    [d#] = f(r + _C4 * h, ([y# + h * (_A41 * a# + _A42 * b# + _A43 * c#)]))
    [e#] = f(r + _C5 * h, ([y# + h * (_A51 * a# + _A52 * b# + _A53 * c# + _A54 * d#)]))
    [g#] = f(r + h, ([y# + h * (_A61 * a# + _A62 * b# + _A63 * c# + _A64 * d# + _A65 * e#)]))
    [n#] = [y# + h * (_B1 * a# + _B3 * c# + _B4 * d# + _B5 * e# + _B6 * g#)]
    k7 = f(r_new, ([n#]))
    [s#] = k7
    err = [+(h * (_E1 * a# + _E3 * c# + _E4 * d# + _E5 * e# + _E6 * g# + _E7 * s#)
            / (abs_tol + rel * max(abs(y#), abs(n#)))) ** 2]
    return ([n#]), k7, math.sqrt(err / {n})

def hermite(r0, y0, f0, r1, y1, f1, r):
    h = r1 - r0
    t = (r - r0) / h
    t2 = t * t
    t3 = t2 * t
    c00 = 2.0 * t3 - 3.0 * t2 + 1.0
    c10 = t3 - 2.0 * t2 + t
    c01 = -2.0 * t3 + 3.0 * t2
    c11 = t3 - t2
    [a#] = y0
    [fa#] = f0
    [b#] = y1
    [fb#] = f1
    return ([c00 * a# + c10 * h * fa# + c01 * b# + c11 * h * fb#])
"""


@functools.cache
def _dp54(n: int):
    """(step, hermite) for n-dimensional states, compiled from _DP54_SRC."""

    def expand(m):
        terms = [m[2].replace("#", str(i)) for i in range(n)]
        return " + ".join(terms) if m[1] else "".join(t + ", " for t in terms)

    ns: dict = {}
    exec(re.sub(r"\[(\+?)(.*?)\]", expand, _DP54_SRC.format(n=n), flags=re.S), globals(), ns)
    return ns["step"], ns["hermite"]


def _crossed(g0: float, g1: float, direction: int) -> bool:
    if direction < 0:
        return g0 > 0.0 >= g1
    if direction > 0:
        return g0 < 0.0 <= g1
    return (g0 > 0.0 >= g1) or (g0 < 0.0 <= g1)


def _event(det: Detector, r_star: float, y_star: tuple, step: tuple) -> Event:
    payload = dict(det.payload(r_star, y_star)) if det.payload else {}
    payload["step"] = step  # the bracketing step of the crossing
    return Event(det.kind, r_star, payload)


def _initial_step(f, r0, y0, f0, r_end, rel, abs_tol):
    span = r_end - r0
    sc = [abs_tol + rel * abs(yi) for yi in y0]
    d0 = math.sqrt(sum((yi / c) ** 2 for yi, c in zip(y0, sc)) / len(y0))
    d1 = math.sqrt(sum((fi / c) ** 2 for fi, c in zip(f0, sc)) / len(y0))
    h0 = 1e-6 * span if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    y1 = tuple(yi + h0 * fi for yi, fi in zip(y0, f0))
    f1 = f(r0 + h0, y1)
    d2 = math.sqrt(sum(((a - b) / c) ** 2 for a, b, c in zip(f1, f0, sc)) / len(y0)) / h0
    if max(d1, d2) < 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, span)


def solve(
    f: Callable[[float, tuple], tuple],
    r_span: tuple[float, float],
    y0: Sequence[float],
    *,
    rel: float,
    abs_tol: float,
    detectors: Sequence[Detector] = (),
    r_eval: Sequence[float] | None = None,
    energy: Callable[[tuple], np.ndarray] | None = None,
) -> Trajectory:
    """Integrate y' = f(r, y) over r_span with event detection.

    Samples are recorded at every accepted step, or exactly at the 1-D,
    strictly increasing r_eval within r_span when given: a point equal to a
    step end takes the state there, any other is interpolated in one pass
    from the recorded step ends with the Hermite polynomial that refines
    events.  energy, when given, is called once on the tuple of state
    columns and returns the H trace elementwise.  A terminal event truncates
    the trajectory at the refined crossing; otherwise the run ends with an
    RMAX_REACHED event at r_span[1].  f is called 2 + 6 (naccpt + nrejct)
    times: at the start, once for the initial step size and six times per
    step.
    """
    r0, r_end = float(r_span[0]), float(r_span[1])
    if not r_end > r0:
        raise ValueError(f"need r_end > r_start, got {r_span}")
    y = tuple(float(c) for c in y0)
    n = len(y)
    r = r0
    k1 = f(r, y)
    step, hermite = _dp54(n)

    grid = None
    if r_eval is not None:
        grid = np.array(r_eval, dtype=float)
        if grid.ndim != 1:
            raise ValueError(f"r_eval must be one-dimensional, got shape {grid.shape}")
        if not np.all(grid[1:] > grid[:-1]):
            raise ValueError("r_eval must be strictly increasing")
        if grid.size and not (grid[0] >= r0 and grid[-1] <= r_end):
            raise ValueError("r_eval must lie within r_span")

    nodes = [(r, y, k1)]  # accepted (r, y, f); step j runs from node j-1 to node j
    active = list(detectors)
    g_prev = [d.g(r, y) for d in active]
    events: list[Event] = []

    def build(status_str, cut=None) -> Trajectory:
        # the samples are the nodes, the last one replaced by the terminal
        # crossing cut = (r_star, y_star) inside the last step
        R, Y, K = zip(*nodes)
        rarr = np.array(R[:-1] + (cut[0],) if cut else R, dtype=float)
        arr = np.array(Y[:-1] + (cut[1],) if cut else Y, dtype=float)
        if grid is not None:
            # each grid point up to the last sample lies on the first step
            # ending at or beyond it: equal to that end it takes the sample
            # there, otherwise the step's Hermite value
            pts = grid[: np.searchsorted(grid, rarr[-1], "right")]
            j = np.searchsorted(rarr, pts)
            inner = pts != rarr[j]
            rarr, arr = pts, arr[j]
            j, R, Y, K = j[inner], np.array(R), np.array(Y).T, np.array(K).T
            i = j - 1
            arr[inner] = np.transpose(
                hermite(R[i], Y[:, i], K[:, i], R[j], Y[:, j], K[:, j], pts[inner])
            )
        Harr = (
            np.asarray(energy(tuple(arr.T)), dtype=float)
            if energy is not None
            else np.full(len(rarr), np.nan)
        )
        stats = {"nfev": 2 + 6 * (naccpt + nrejct), "naccpt": naccpt, "nrejct": nrejct}
        return Trajectory(rarr, arr, Harr, tuple(events), status_str, stats)

    h = _initial_step(f, r, y, k1, r_end, rel, abs_tol)
    naccpt, nrejct = 0, 0
    while r < r_end:
        if naccpt + nrejct >= _MAX_STEPS:
            raise IntegrationError(f"step budget exhausted at r={r}", build("failed"))
        last = h >= r_end - r
        if last:
            h = r_end - r
        if h < 1e-14 * max(1.0, abs(r)):
            raise IntegrationError(f"step size underflow at r={r}", build("failed"))
        # land exactly on r_end so endpoint r_eval samples are never dropped
        r_new = r_end if last else r + h
        y_new, k7, err = step(f, r, y, k1, h, r_new, rel, abs_tol)
        if err > 1.0:
            nrejct += 1
            h *= max(_MIN_FACTOR, _SAFETY * err ** -0.2)
            continue
        naccpt += 1

        # accepted: locate events inside [r, r_new]
        fired: list[tuple[float, Detector]] = []
        for i, det in enumerate(active):
            if det is None:
                continue
            g0 = g_prev[i]
            g1 = g_prev[i] = det.g(r_new, y_new)
            # any crossing is a sign change; only then does the direction matter
            if (g0 > 0.0 >= g1 or g0 < 0.0 <= g1) and _crossed(g0, g1, det.direction):
                # bisect on the dense output; hi_r stays on the crossed side
                # so the event condition holds at the reported point
                lo_r, hi_r = r, r_new
                g_lo = g0
                for _ in range(80):
                    if hi_r - lo_r <= 4e-16 * max(1.0, abs(hi_r)):
                        break
                    mid = 0.5 * (lo_r + hi_r)
                    y_mid = hermite(r, y, k1, r_new, y_new, k7, mid)
                    g_mid = det.g(mid, y_mid)
                    if _crossed(g_lo, g_mid, det.direction):
                        hi_r = mid
                        if abs(g_mid) <= abs_tol:
                            break
                    else:
                        lo_r, g_lo = mid, g_mid
                fired.append((hi_r, det))
                if det.once:
                    active[i] = None

        if fired:
            fired.sort(key=lambda t: t[0])
            for r_star, det in fired:
                y_star = hermite(r, y, k1, r_new, y_new, k7, r_star)
                events.append(_event(det, r_star, y_star, (r, r_new)))
                if det.terminal:
                    nodes.append((r_new, y_new, k7))
                    return build(f"event:{det.kind.value}", (r_star, y_star))

        r, y, k1 = r_new, y_new, k7
        nodes.append((r, y, k1))
        factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err ** -0.2)
        h *= max(_MIN_FACTOR, factor)

    events.append(Event(EventKind.RMAX_REACHED, r_end, {}))
    return build("completed")


def integrate(
    rhs: Callable[[float, tuple, Params], tuple],
    start: tuple[float, tuple[float, float]],
    p: Params,
    tol: Tolerances,
    detectors: Sequence[Detector] = (),
    r_end: float | None = None,
    r_eval: Sequence[float] | None = None,
) -> Trajectory:
    """Integrate the flow rhs(r, s, p) from start = (r_start, (u, v)).

    Runs up to r_end (default tol.rmax) or to the first terminal event,
    recording the energy trace alongside the samples.  rhs_radial raises
    for r <= 0, so the radial flow cannot start at the origin.
    """
    tol = tol.resolved(p)
    r_start, y_start = start
    end = float(r_end) if r_end is not None else float(tol.rmax)
    return solve(
        lambda r, y: rhs(r, y, p),
        (r_start, end),
        y_start,
        rel=tol.rel,
        abs_tol=tol.abs,
        detectors=detectors,
        r_eval=r_eval,
        energy=lambda y: hamiltonian(y, p),
    )
