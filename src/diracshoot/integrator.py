"""Adaptive embedded Runge-Kutta 5(4) integration with event detection.

The stepper is the classic Dormand-Prince pair with FSAL, working on plain
float tuples (the systems here are 2- or 4-dimensional and are integrated
many thousands of times during a shooting run, so the per-step overhead
matters).  Events are located by sign bracketing over each accepted step
and refined by bisection on the cubic Hermite dense output (Hairer, Norsett
& Wanner, Solving ODEs I, II.6); an event records the interpolated state at
its crossing, from which callers compute any value there.  A trajectory
keeps the step table of its run, and Trajectory.sample interpolates it at
any radii with the same polynomial, in one array pass.

The adaptive loop, with a sign screen of the event values, the bisection
that refines a crossing and the Hermite dense output are written once, in
_DP54_SRC (its stages, update and error sum from the pair's table _DP54),
_REFINE_SRC and _HERMITE_SRC, as per-component expressions.  Their compilers
_dp54(n, k, flow, events), for the loop and the bisection, and _hermite(n)
exec them once per key, as dataclasses builds __init__.  Python loops over
components or detectors cost several times their arithmetic; the expanded
code keeps their operation order, so it is bitwise the loops.  A right-hand
side or event function built by formula carries its source text: each stage
evaluates the flow's formula in place of calling it, and the sign screen and
each bisection point the event function's, bitwise the same way.
"""

from __future__ import annotations

import enum
import functools
import keyword
import math
import re
import struct
import types
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

# Dormand-Prince 5(4) (Dormand & Prince 1980; Hairer, Norsett & Wanner, II.5):
# (c, row of A) per stage after k0, the update's weights b, and the error
# weights e (5th order minus embedded 4th order) over k0 ... k6, k6 the FSAL one
_DP54 = (
    (0.2, 0.2),
    (0.3, 3.0 / 40.0, 9.0 / 40.0),
    (0.8, 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (8.0 / 9.0, 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (1.0, 9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
    (71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0, -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0),
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


@dataclass(frozen=True)
class Event:
    """An event of the given kind at its refined crossing r, with the state
    y there."""

    kind: EventKind
    r: float
    y: tuple


@dataclass(frozen=True)
class Detector:
    """The event marked by a root of one value of solve's event function g.
    direction: -1 crossing into g <= 0, +1 crossing into g >= 0, 0 any
    sign change.  A crossing is logged as Event(kind, r, y); anything else
    about it follows from y."""

    kind: EventKind
    direction: int = 0
    terminal: bool = False


class IntegrationError(RuntimeError):
    """Step-size underflow or no step budget left; carries the run so far."""

    def __init__(self, message: str, partial: "Trajectory | None" = None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class Trajectory:
    """Recorded integration path: samples (r, state) plus the event log.
    r is strictly increasing; arrays are never mutated.  y has one row per
    sample; its first two columns are the (u, v) plane for the 2-dimensional
    flows.  stats holds solve's counters in the DOPRI5 names: nfev
    (right-hand side evaluations), naccpt and nrejct (accepted and rejected
    steps), and nbisect (event function evaluations that refine crossings).
    table holds solve's step ends as rows (r, y, dy/dr), uncut at a terminal
    crossing, which sample interpolates.  stats and table are empty for
    paths assembled outside solve."""

    r: np.ndarray
    y: np.ndarray
    events: tuple[Event, ...]
    status: str  # "completed" or "event:<kind>"
    stats: dict = field(default_factory=dict)
    table: np.ndarray | None = None

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

    @functools.cached_property
    def closest(self) -> int:
        """Index of the sample of least |u| + |v|, the closest approach to
        the origin; computed once per trajectory."""
        return int(np.argmin(self.norm1))

    @property
    def final_state(self) -> tuple[float, float]:
        return tuple(self.y[-1, :2].tolist())

    def events_of(self, kind: EventKind) -> list[Event]:
        return [e for e in self.events if e.kind == kind]

    def nodes_before(self, r: float = math.inf) -> int:
        """Number of recorded sign changes of v strictly before radius r."""
        return sum(1 for e in self.events if e.kind == EventKind.V_SIGN_CHANGE and e.r < r)

    def sample(self, grid) -> Trajectory:
        """This run at the 1-D, strictly increasing grid, from its step
        table: a point equal to a sample takes the state there, any other
        the Hermite value on the step ending beyond it (the polynomial that
        refines events, in one array pass).  The grid lies within the run's
        r_span; points past the last sample of a run that stopped early, at
        a terminal crossing or a failure, are left out."""
        if self.table is None:
            raise ValueError("only a run of solve has a step table to sample")
        grid = np.array(grid, dtype=float)
        if grid.ndim != 1:
            raise ValueError(f"grid must be one-dimensional, got shape {grid.shape}")
        if not np.all(grid[1:] > grid[:-1]):
            raise ValueError("grid must be strictly increasing")
        r = self.r
        if grid.size and not (grid[0] >= r[0] and (grid[-1] <= r[-1] or self.status != "completed")):
            raise ValueError("grid must lie within r_span of the run")
        pts = grid[: np.searchsorted(grid, r[-1], "right")]
        j = np.searchsorted(r, pts)
        inner = pts != r[j]
        y = self.y[j]
        j = j[inner]
        y[inner] = np.transpose(_hermite(y.shape[1])(self.table[j - 1].T, self.table[j].T, pts[inner]))
        return replace(self, r=pts, y=y)


# [expr] expands to "expr_0, expr_1, ..., ", [+expr] to "expr_0 + expr_1 + ..." and
# [|expr] to "expr_0 or expr_1 or ...", with # the state component index or $ the
# event value index; lines starting with ? (the sign screen) are kept for k > 0.
# run appends each accepted r, y and f = dy/dr to the flat list nodes and returns
# (status, r, y, dy, h, naccpt, nrejct, p, q): "completed" at r_end, "event" after
# a step over which some value changed sign from p to q, or a failure; its stages
# k1# ... k5#, update n# and error terms are written from _DP54.  hermite
# interpolates between two rows, of floats or arrays.
_DP54_SRC = """
def run(f, g, r, y, dy, h, r_end, rel, abs_tol, nodes, naccpt, nrejct, [p$]):
    [y#] = y
    [k0#] = dy
    [ay#] = [abs(y#)]
    while r < r_end:
        if naccpt + nrejct >= _MAX_STEPS:
            return "step budget exhausted", r, ([y#]), ([k0#]), h, naccpt, nrejct, (), ()
        last = h >= r_end - r
        if last:
            h = r_end - r
        # relative to r, and negated so that a NaN step size (from a non-finite start) fails here
        if not h > 1e-14 * abs(r):
            return "step size underflow", r, ([y#]), ([k0#]), h, naccpt, nrejct, (), ()
        # land exactly on r_end, so that a sample there takes the step end
        r_new = r_end if last else r + h
STAGES
        [k6#] = f(r_new, ([n#]))
        [an#] = [abs(n#)]
        # the scale is max(ay#, an#), written out: ay# unless an# is larger
        try:
            err = math.sqrt(([+(ERROR
                                / (abs_tol + rel * (an# if an# > ay# else ay#))) ** 2]) / {n})
        except OverflowError:  # a square past the float range, where ** raises
            err = math.inf
        if not err <= 1.0:  # an infinite or NaN error norm rejects the step
            nrejct += 1
            fac = _SAFETY * err ** -0.2
            h *= fac if fac > _MIN_FACTOR else _MIN_FACTOR
            continue
        naccpt += 1
        r = r_new
        [y#][ay#][k0#] = [n#][an#][k6#]
        nodes += (r, [n#][k6#])
        # err <= 1 here, so the factor is at least _SAFETY > _MIN_FACTOR
        fac = _MAX_FACTOR if err == 0.0 else _SAFETY * err ** -0.2
        h *= fac if fac < _MAX_FACTOR else _MAX_FACTOR
?        [q$] = g(r, ([y#]))
?        if [|p$ > 0.0 >= q$ or p$ < 0.0 <= q$]:
?            return "event", r, ([y#]), ([k0#]), h, naccpt, nrejct, ([p$]), ([q$])
?        [p$] = [q$]
    return "completed", r, ([y#]), ([k0#]), h, naccpt, nrejct, (), ()
"""


def _weighted(weights) -> str:
    """h times the stages k0#, k1#, ... weighted by weights, zeros left out."""
    terms = [f"{w!r} * k{j}#" for j, w in enumerate(weights) if w]
    return "h * " + (terms[0] if len(terms) == 1 else f"({' + '.join(terms)})")


_DP54_SRC = _DP54_SRC.replace("ERROR", _weighted(_DP54[-1])).replace("STAGES\n", "".join(
    f"        [k{i}#] = f(r + {'h' if c == 1.0 else f'{c!r} * h'}, ([y# + {_weighted(a)}]))\n"
    for i, (c, *a) in enumerate(_DP54[:-2], 1)) + f"        [n#] = [y# + {_weighted(_DP54[-2])}]\n")

_HERMITE_SRC = """
def hermite(row0, row1, r):
    r0, [a#][fa#] = row0
    r1, [b#][fb#] = row1
    h = r1 - r0
    t = (r - r0) / h
    t2 = t * t
    t3 = t2 * t
    c00 = 2.0 * t3 - 3.0 * t2 + 1.0
    c10 = t3 - 2.0 * t2 + t
    c01 = -2.0 * t3 + 3.0 * t2
    c11 = t3 - t2
    return ([c00 * a# + c10 * h * fa# + c01 * b# + c11 * h * fb#])
"""

# refine bisects the step between two rows for the crossing of value i from
# its value lo at row0, down to a width relative to r, as runs below r = 1
# need; hi_r stays on the crossed side so the event condition holds at the
# reported point.  Each point r runs hermite's lines, which pass its value to
# g.  It returns hi_r and the number of points.
_REFINE_SRC = """
def refine(g, row0, row1, i, direction, lo, abs_tol):
    lo_r, hi_r, count = row0[0], row1[0], 0
    while count < 80 and not hi_r - lo_r <= 4e-16 * abs(hi_r):
        r = 0.5 * (lo_r + hi_r)
HERMITE        value = ([q$])[i]
        count += 1
        if direction <= 0 and lo > 0.0 >= value or direction >= 0 and lo < 0.0 <= value:
            hi_r = r
            if abs(value) <= abs_tol:
                break
        else:
            lo_r, lo = r, value
    return hi_r, count
"""
_REFINE_SRC = _REFINE_SRC.replace("HERMITE", re.sub(
    r"return (.*)", r"[q$] = g(r, \1)", re.sub(r"(?m)^(?=.)", "    ", _HERMITE_SRC.split(":\n")[1])
))


def _compile(src: str, n: int, k: int = 0):
    def expand(m):
        index, count = ("$", k) if "$" in m[2] else ("#", n)
        terms = [m[2].replace(index, str(i)) for i in range(count)]
        return {"+": " + ", "|": " or "}[m[1]].join(terms) if m[1] else "".join(t + ", " for t in terms)

    src = re.sub(r"^\?(.*\n)", r"\1" if k else "", src.format(n=n), flags=re.M)
    # the step-size factors as literals
    src = re.sub(r"\b_(SAFETY|M[AI][XN]_FACTOR)\b", lambda m: repr(globals()[m[0]]), src)
    # a bracket expands when it holds an index, so [i] stays a subscript
    exec(re.sub(r"\[([+|]?)([^]]*[#$][^]]*)\]", expand, src), globals(), ns := {})
    return ns


@functools.cache
def _definition(src: str):
    exec(src, ns := {})
    return ns["f"]


def formula(src: str, *consts):
    """The function f(r, s) that src defines as def f(x, s, *names), with
    consts bound to the names: a flow returning the derivative tuple, or an
    event function returning the event values.  src is plain arithmetic: the
    radius x, the state s unpacked first, one return, under any names.
    solve writes f.formula = (src, consts) into run under names of its own, a
    flow's into each stage and an event function's into the sign screen,
    with the constants as run's arguments, so the inlined f is bitwise the
    called one; the lines that raise check the arguments, and run leaves
    them out as it starts where solve called f."""
    fn = _definition(src)
    f = types.FunctionType(fn.__code__, fn.__globals__, "f", consts)
    f.formula = src, consts
    return f


# the event values of a run on (u, v) with one V_SIGN_CHANGE detector
v_sign = formula("def f(x, s):\n    u, v = s\n    return v,\n")


@functools.cache
def _dp54(n: int, k: int, flow: str | None, events: str | None):
    """(run, refine) for n components and k event values, refine None for
    k = 0.  The formula of a flow replaces each call [x#] = f(radius,
    ([arguments])) and that of an event function each call [q$] = g(...),
    and their constants follow g among the arguments, the event function's
    alone in refine's.  Each name a formula binds or reads takes the suffix
    _f in a flow and _g in an event function, which no name of the loop
    ends in, so the formulas' names are their own."""
    src = _DP54_SRC + _REFINE_SRC if k else _DP54_SRC
    params = {"f": "", "g": ""}
    for callee, text in (("f", flow), ("g", events)):
        if text is None:
            continue
        # each name but keywords and called ones (abs, the head's f) takes the
        # suffix; the exponent of a float such as 1.e5 is no name
        text = re.sub(r"(?<![\w.])[A-Za-z_]\w*(?![\w(])",
                      lambda m: m[0] if keyword.iskeyword(m[0]) else f"{m[0]}_{callee}", text)
        head, unpack, *body, ret = [x.strip() for x in text.strip().splitlines() if " raise " not in x]
        radius, state, *own = head.removeprefix("def f(").removesuffix("):").split(", ")
        ret = ret.removeprefix("return ")
        params[callee] = "".join(c + ", " for c in own)
        lines = [f"{radius} = \\4", unpack.removesuffix(state) + "(\\5)", *body, f"[\\2\\3] = {ret}"]
        stage = "".join(r"\1" + x + "\n" for x in lines)
        call = rf"^(\?? *)\[(\w+)([#$])\] = {callee}\((.+?), \((\[.+\])\)\)\n"
        src = re.sub(call, stage, src, flags=re.M)
    src = src.replace("def run(f, g, ", "def run(f, g, " + params["f"] + params["g"])
    src = src.replace("def refine(g, ", "def refine(g, " + params["g"])
    ns = _compile(src, n, k)
    return ns["run"], ns.get("refine")


@functools.cache
def _hermite(n: int):
    return _compile(_HERMITE_SRC, n)["hermite"]


def _crossed(g0: float, g1: float, direction: int) -> bool:
    return (direction <= 0 and g0 > 0.0 >= g1) or (direction >= 0 and g0 < 0.0 <= g1)


def _rms(xs: list) -> float:
    try:
        return math.sqrt(sum(x ** 2 for x in xs) / len(xs))
    except OverflowError:  # a square past the float range: factor out the largest term
        big = max(map(abs, xs))
        return big * math.sqrt(sum((x / big) ** 2 for x in xs) / len(xs))


def _initial_step(f, r0, y0, f0, r_end, rel, abs_tol):
    span = r_end - r0
    sc = [abs_tol + rel * abs(yi) for yi in y0]
    d0 = _rms([yi / c for yi, c in zip(y0, sc)])
    d1 = _rms([fi / c for fi, c in zip(f0, sc)])
    h0 = 1e-6 * span if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    y1 = tuple(yi + h0 * fi for yi, fi in zip(y0, f0))
    f1 = f(r0 + h0, y1)
    d2 = _rms([(a - b) / c for a, b, c in zip(f1, f0, sc)]) / h0
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
    g: Callable[[float, tuple], tuple] | None = None,
) -> Trajectory:
    """Integrate y' = f(r, y) over r_span with event detection.

    g(r, y) returns the event values, one per detector in their order; it is
    called at the start and evaluated per accepted step and per bisection
    point of a crossing, where the loop's sign screen and the bisection
    inline the source text of a g built by formula.  Samples are recorded at
    every accepted step, and the trajectory keeps the step table that its
    sample method interpolates at any radii.  A terminal event truncates the
    samples at the refined crossing; otherwise the run ends at r_span[1]
    with status "completed".  The right-hand side is evaluated
    2 + 6 (naccpt + nrejct) times: at the start, for the initial step size
    and six times per step, each a call of f unless f was built by formula,
    whose source text the loop's stages inline.  stats also counts in
    nbisect the evaluations of g that refine the crossings.
    """
    r0, r_end = float(r_span[0]), float(r_span[1])
    if not r_end > r0:
        raise ValueError(f"need r_end > r_start, got {r_span}")
    if not 0.0 < abs_tol < math.inf:
        raise ValueError(f"abs_tol must be positive and finite, got {abs_tol}")
    if not 0.0 <= rel < math.inf:
        raise ValueError(f"rel must be nonnegative and finite, got {rel}")
    if detectors and g is None:
        raise ValueError("detectors need an event function g")
    y = tuple(float(c) for c in y0)
    r = r0
    k1 = f(r, y)
    n = len(y)
    flow, consts = getattr(f, "formula", (None, ()))
    events, g_consts = getattr(g, "formula", (None, ())) if detectors else (None, ())
    (run, refine), hermite = _dp54(n, len(detectors), flow, events), _hermite(n)

    # the accepted (r, y, f) as rows of 1 + 2n floats; step j runs from row j-1 to row j
    nodes = [r, *y, *k1]
    w = 1 + 2 * n
    g_prev = tuple(g(r, y)) if detectors else ()
    if len(g_prev) != len(detectors):
        raise ValueError(f"g must return one value per detector, {len(detectors)}, got {len(g_prev)}")
    events: list[Event] = []

    def build(status_str, cut=None) -> Trajectory:
        # the samples are the nodes, the last one replaced by the terminal
        # crossing cut = (r_star, y_star) inside the last step
        # one buffer of C doubles, which numpy reads in place (about twice
        # as fast as np.fromiter over the list)
        table = np.frombuffer(struct.pack(f"{len(nodes)}d", *nodes)).reshape(-1, w)
        rarr, arr = table[:, 0].copy(), table[:, 1 : n + 1].copy()
        if cut:
            rarr[-1], arr[-1] = cut
        stats = dict(nfev=2 + 6 * (naccpt + nrejct), naccpt=naccpt, nrejct=nrejct, nbisect=nbisect)
        return Trajectory(rarr, arr, tuple(events), status_str, stats, table)

    h, naccpt, nrejct, nbisect = _initial_step(f, r, y, k1, r_end, rel, abs_tol), 0, 0, 0
    while True:
        status, r, y, k1, h, naccpt, nrejct, g0, g1 = run(
            f, g, *consts, *g_consts, r, y, k1, h, r_end, rel, abs_tol, nodes, naccpt, nrejct, *g_prev
        )
        if status == "completed":
            return build("completed")
        if status != "event":
            raise IntegrationError(f"{status} at r={r}", build("failed"))
        # some value changed sign over the step between the last two rows
        a, b = nodes[-2 * w : -w], nodes[-w:]
        fired: list[tuple[float, Detector]] = []
        for i, det in enumerate(detectors):
            if not _crossed(g0[i], g1[i], det.direction):
                continue
            r_star, count = refine(g, *g_consts, a, b, i, det.direction, g0[i], abs_tol)
            nbisect += count
            fired.append((r_star, det))
        for r_star, det in sorted(fired, key=lambda t: t[0]):
            y_star = hermite(a, b, r_star)
            events.append(Event(det.kind, r_star, y_star))
            if det.terminal:
                return build(f"event:{det.kind.value}", (r_star, y_star))
        g_prev = g1
