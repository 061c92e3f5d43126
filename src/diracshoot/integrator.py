"""Adaptive embedded Runge-Kutta integration with event detection.

The stepper is the Dormand-Prince 8(5,3) pair with FSAL (DOP853; Hairer,
Norsett & Wanner, Solving ODEs I, II.10) on plain float tuples (the systems
here are 2- or 4-dimensional and are integrated many thousands of times
during a shooting run, so the per-step overhead matters).  Every run records
the stages that its continuous extension (CONTD8, II.6) weighs: events are
located by sign bracketing over each accepted step and refined by bisection
on it, and sample reads it at any radii of several runs in one array pass.
A trajectory holds its samples as float columns and the step list of its
run, as arrays from their first read.

The loop with a sign screen of the event values (_LOOP_SRC, written from the
table by _loop) and the extension with the bisection on it are written once,
as per-component expressions that _compiled and _continuous exec once per
key, as dataclasses builds __init__: Python loops over components or
detectors cost several times their arithmetic, and the expanded code keeps
their operation order, so it is bitwise the loops.  A flow or event function
built by formula carries its source text, which each stage, the sign screen
and each bisection point evaluate in place of a call, bitwise the same way.
"""

from __future__ import annotations

import enum
import functools
import keyword
import math
import re
import struct
import types
from typing import Callable, NamedTuple, Sequence

from . import _lazy as np

# Dormand-Prince 8(5,3) (Hairer, Norsett & Wanner, II.10): scipy's DOP853 table as doubles, (c, row of A) per stage
# after k0, b, E5 and E3, then the continuous extension (CONTD8, II.6): (c, row of A) of k13 ... k15, after the FSAL
# k12, and D over k0 ... k15
_DOP853 = (
    (0.05260015195876773, 0.05260015195876773), (0.0789002279381516, 0.0197250569845379, 0.0591751709536137),
    (0.1183503419072274, 0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2816496580927726, 0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.3333333333333333, 0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.25, 0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.3076923076923077, 0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
     0.008273789163814023),
    (0.6512820512820513, 0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996),
    (0.6, 0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (0.8571428571428571, -0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    (1.0, 2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188, 27.94888452941996,
     -2.8589982771350235, -8.87285693353063, 12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
     0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259),
    (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
     -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294),
    (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
     -0.4226823213237919, -0.1521609496625161, 0.20136540080403034, 0.02265179219836082),
    (0.1, 0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483, -0.2462390374708025, -0.12419142326381637,
     0.15329179827876568, 0.00820105229563469, 0.007567897660545699, -0.008298),
    (0.2, 0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566, -0.05492374857139099,
     0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325),
    (0.7777777777777778, -0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145, 2.9475147891527724,
     -9.15095847217987),
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688, -0.08899033645133331,
     18.148505520854727, -9.194632392478356, -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229, 15.697238121770845,
     -31.139403219565178, -9.35292435884448, 35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443, -2.778205752353508,
     -60.19669523126412, 84.32040550667716, 11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605, -43.53345659001114, 96.32455395918828,
     -39.17726167561544, -149.72683625798564),
)


_STAGES, _B, _ERRORS, _EXTRA, _D = _DOP853[:11], _DOP853[11], _DOP853[12:14], _DOP853[14:17], _DOP853[17:]
_EXPONENT = -0.125  # of the step-size factor
# the stages k1 ... k12 of a step that the extension weighs (k5 ... k11), which every run records
_DENSE_STAGES = [j for j, *w in zip(range(len(_STAGES) + 1), *_D, *(a[1:] for a in _EXTRA)) if j and any(w)]
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _MAX_STEPS = 0.9, 0.2, 10.0, 5_000_000


class EventKind(str, enum.Enum):
    V_SIGN_CHANGE = "v_sign_change"
    ENTERED_NEGATIVE_ENERGY = "entered_negative_energy"
    NORM_BELOW_ETA = "norm_below_eta"


class Event(NamedTuple):
    """An event of the given kind at its refined crossing r, with the state y there."""

    kind: EventKind
    r: float
    y: tuple


class Detector(NamedTuple):
    """The event marked by a root of one value of solve's event function g.
    direction: -1 crossing into g <= 0, +1 crossing into g >= 0, 0 any
    sign change.  A crossing is logged as Event(kind, r, y); anything else
    about it follows from y."""

    kind: EventKind
    direction: int = 0
    terminal: bool = False


class IntegrationError(RuntimeError):
    """Step-size underflow or no step budget left; carries the run so far."""

    def __init__(self, message: str, partial: "Trajectory"):
        super().__init__(message)
        self.partial = partial


class Trajectory:
    """Recorded integration path: the columns (r, y_0, y_1, ...) of its
    samples, float lists or arrays, plus the event log.  r is strictly
    increasing; y has one row per sample, and its first two columns are the
    (u, v) plane for the 2-dimensional flows.  r, y and table are arrays
    built at their first read and never mutated.  stats holds solve's
    counters in the DOPRI5 names: nfev (right-hand side evaluations, see
    solve), naccpt and nrejct (accepted and rejected steps), and nbisect (event
    function evaluations that refine crossings).  table holds solve's step ends as
    rows (r, y, dy/dr), uncut at a terminal crossing, which sample reads with the
    recorded stages of the step ending there, from the flat list steps of both, and
    the run's flow f for the extension's extra stages; stats and table are empty
    for paths given no steps."""

    def __init__(self, columns, events, status, stats=None, steps=None, f=None):
        self.columns = columns
        self.events = tuple(events)
        self.status = status  # "completed", "failed" or "event:<kind>"
        self.stats = stats or {}
        self._steps = steps
        self._f = f

    @functools.cached_property
    def _arrays(self) -> tuple:
        columns, steps, n = self.columns, self._steps, len(self.columns) - 1
        self._steps = None  # the arrays hold the steps from here, and the columns the floats of the samples
        if steps is None:
            a = np.array(columns)
            return a[0], a[1:].T, None, None
        # the step list as one buffer of C doubles, which numpy reads in place (twice as fast as np.fromiter), a row
        # per sample; its first columns are the samples but the last, which a terminal crossing cuts
        rows = np.frombuffer(struct.pack(f"{len(steps)}d", *steps)).reshape(len(columns[0]), -1)
        a = rows[:, : n + 1].T.copy()
        a[:, -1] = [column[-1] for column in columns]
        return a[0], a[1:].T, rows[:, : 1 + 2 * n], rows

    r = property(lambda self: self._arrays[0])
    y = property(lambda self: self._arrays[1])
    table = property(lambda self: self._arrays[2])

    def __len__(self) -> int:
        return len(self.columns[0])

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
        the origin (the first of equal ones); computed once per trajectory."""
        norm1 = [abs(u) + abs(v) for u, v in zip(*self.columns[1:3])]
        return norm1.index(min(norm1))

    @property
    def final_state(self) -> tuple[float, float]:
        return tuple(column[-1] for column in self.columns[1:3])

    def events_of(self, kind: EventKind) -> list[Event]:
        return [e for e in self.events if e.kind == kind]

    def nodes_before(self, r: float = math.inf) -> int:
        """Number of recorded sign changes of v strictly before radius r."""
        return sum(1 for e in self.events if e.kind == EventKind.V_SIGN_CHANGE and e.r < r)

    def sample(self, grid) -> np.ndarray:
        """The states of this run at the grid: sample((self,), (grid,))[0]."""
        return sample((self,), (grid,))[0]


def sample(runs, grids) -> list:
    """The states of each run at its 1-D, strictly increasing grid, one row per point, from its step
    table: a point equal to a sample takes the state there, any other the value of the continuous
    extension on the step ending beyond it, the polynomial on which refine locates events.  A grid lies
    within its run's r_span; a run that stopped early, at a terminal crossing or a failure, has no row past
    its last sample.  One array pass serves the runs of one dimension (a run given twice once).
    The extra stages that DOP853's extension evaluates are no calls that stats["nfev"] counts."""
    groups = {}
    for k, (t, grid) in enumerate(zip(runs, grids)):
        if t.table is None:
            raise ValueError("only a run of solve has a step table to sample")
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1:
            raise ValueError(f"grid must be one-dimensional, got shape {grid.shape}")
        if not np.all(grid[1:] > grid[:-1]):
            raise ValueError("grid must be strictly increasing")
        r = t.r
        if grid.size and not (grid[0] >= r[0] and (grid[-1] <= r[-1] or t.status != "completed")):
            raise ValueError("grid must lie within r_span of the run")
        pts = grid[: np.searchsorted(grid, r[-1], "right")]
        groups.setdefault(len(t.columns), []).append((k, t, pts, np.searchsorted(r, pts)))
    out = [None] * len(runs)
    for group in groups.values():
        ks, runs, pts, js = zip(*group)
        n = len(runs[0].columns) - 1
        uniq = list({id(t): t for t in runs}.values())
        rows = np.cumsum([0] + [len(t.table) for t in uniq])  # each run's first row in the stack
        first, ends = dict(zip(map(id, uniq), rows.tolist())), np.cumsum([len(x) for x in pts]).tolist()
        j, pts = np.concatenate([j + first[id(t)] for t, j in zip(runs, js)]), np.concatenate(pts)
        y = np.concatenate([t.y for t in uniq]).take(j, axis=0)  # the samples at or next beyond the points
        inner = pts != np.concatenate([t.r for t in uniq]).take(j)
        if inner.any():
            table = np.concatenate([t._arrays[3] for t in uniq]).T  # component-major: one row per column
            y[inner] = _extension(n, uniq, table, rows, pts[inner], j[inner]).T
        for k, a, b in zip(ks, [0, *ends], ends):
            out[k] = y[a:b]
    return out


def _extension(n: int, runs, table, rows, pts, j) -> np.ndarray:
    """The (n, len(pts)) states at pts, point k on the step ending at row j[k] of runs' stacked rows with stages (run i
    from row rows[i]).  The steps holding a point take one call of rows for one component on (n, steps) arrays, its
    stages one of the runs' shared formula without its raising lines, each constant repeated per step; a flow of any
    other kind takes each step's rows on floats, its stages called as solve called it."""
    steps, at = np.unique(j, return_inverse=True)
    run, w = np.searchsorted(rows, steps, "right") - 1, 1 + 2 * n
    a, b = table[:w, steps - 1], table[:, steps]  # a step's rows (r, y, dy/dr) at its ends, and its stages
    fs = [t._f for t in runs]
    srcs = {getattr(f, "formula", (None,))[0] for f in fs}
    if len(srcs) == 1 and None not in srcs:
        fn = _definition(_unchecked(*srcs))
        consts = np.array([f.formula[1] for f in fs]).reshape(len(fs), -1).take(run, axis=0).T
        f = lambda x, s: (np.array(np.broadcast_arrays(*fn(x, s[0], *consts))),)  # noqa: E731
        # each row's r, then its y, dy/dr and stages as (n, steps) blocks
        blocks = (v for x in (a, b) for v in (x[0], *x[1:].reshape(-1, n, len(steps))))
        F = np.array(_continuous(1)[0](f, *blocks))
    else:
        rows_of, args = _continuous(n)[0], np.vstack([a, b]).T.tolist()
        F = np.array([rows_of(fs[i], *x) for i, x in zip(run.tolist(), args)]).T.reshape(-1, n, len(steps))
    # evaluated a component at a time, which holds the rows of one at the points
    r0, r1, extension = a[0].take(at), b[0].take(at), _continuous(1)[1]
    return np.array([extension(tuple(F[:, i].take(at, axis=1)), r0, r1, pts)[0] for i in range(n)])


# [expr] expands to "expr_0, expr_1, ..., ", [+expr] to "expr_0 + expr_1 + ..." and [|expr] to "expr_0 or expr_1
# or ...", with # the state component index or $ the event value index; lines starting with ? (the sign screen) are
# kept for k > 0.  run appends each accepted r, y, f = dy/dr and the step's stages _DENSE_STAGES to the flat list
# nodes, and returns (status, r, y, dy, h, naccpt, nrejct, p, q): "completed" at r_end, "event" after a step over
# which some value changed sign from p to q, or a failure; _loop writes its stages k1# ..., update n# and error weights
# E5 and E3 from the table.  The error norm is Hairer's |h| e5 / sqrt((e5 + 0.01 e3) n): a zero e5 is a
# zero norm, and any other leaves a positive denominator.
_LOOP_SRC = """
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
        [an#] = [abs(n#)]
        # the scale is max(ay#, an#), written out: ay# unless an# is larger
        try:
            [sc#] = [abs_tol + rel * (an# if an# > ay# else ay#)]
            e5, e3 = [+(E5 / sc#) ** 2], [+(E3 / sc#) ** 2]
            err = h * e5 / math.sqrt((e5 + 0.01 * e3) * {n}) if e5 else 0.0
        except OverflowError:  # a square past the float range, where ** raises
            err = math.inf
        if not err <= 1.0:  # an infinite or NaN error norm rejects the step
            nrejct += 1
            fac = _SAFETY * err ** _EXPONENT
            h *= fac if fac > _MIN_FACTOR else _MIN_FACTOR
            continue
        naccpt += 1
        r = r_new
        # the FSAL stage, of no error weight, on accepted steps alone
        [kS#] = f(r_new, ([n#]))
        [y#][ay#][k0#] = [n#][an#][kS#]
        nodes += (r, [n#][kS#]RECORDED)
        # err <= 1 here, so the factor is at least _SAFETY > _MIN_FACTOR
        fac = _MAX_FACTOR if err == 0.0 else _SAFETY * err ** _EXPONENT
        h *= fac if fac < _MAX_FACTOR else _MAX_FACTOR
?        [q$] = g(r, ([y#]))
?        if [|p$ > 0.0 >= q$ or p$ < 0.0 <= q$]:
?            return "event", r, ([y#]), ([k0#]), h, naccpt, nrejct, ([p$]), ([q$])
?        [p$] = [q$]
    return "completed", r, ([y#]), ([k0#]), h, naccpt, nrejct, (), ()
"""


def _weighted(weights) -> str:
    """The stages k0#, k1#, ... weighted by weights, zeros left out."""
    terms = [f"{w!r} * k{j}#" for j, w in enumerate(weights) if w]
    return terms[0] if len(terms) == 1 else f"({' + '.join(terms)})"


def _named(src: str) -> str:
    """src with the stages that a run records, _DENSE_STAGES, for RECORDED, and its stage names k0#, k1#, ... and
    kS# (the FSAL stage) at one width: k1 of component 10 is no k11."""
    s, src = len(_STAGES) + 1, src.replace("RECORDED", "".join(f"[k{j}#]" for j in _DENSE_STAGES))
    return re.sub(r"\bk(\d+|S)#", lambda m: f"k{s if m[1] == 'S' else int(m[1]):0{len(str(s))}d}#", src)


def _loop() -> str:
    """_LOOP_SRC written from the table."""
    stages = [f"[k{i}#] = f(r + {'h' if c == 1.0 else f'{c!r} * h'}, ([y# + h * {_weighted(a)}]))"
              for i, (c, *a) in enumerate(_STAGES, 1)] + [f"[n#] = [y# + h * {_weighted(_B)}]"]
    e5, e3 = map(_weighted, _ERRORS)
    src = _LOOP_SRC.replace("STAGES\n", "".join(" " * 8 + x + "\n" for x in stages))
    return _named(src.replace("E5", e5).replace("E3", e3))


# rows writes a step's extension from its rows (r, y, dy/dr) at both ends and its recorded stages, after the extra
# ones: F0 = y0, F1 = y1 - y0, F2 = h k0 - F1, F3 = 2 F1 - h (kS + k0), F4 ... = h D K, one flat tuple row by row.
# extension evaluates them at r, floats or arrays, by the alternating Horner scheme F0 + x (F1 + (1 - x) (F2 + ...)).
# refine bisects the step for the crossing of value i from its value lo at r0, down to a width relative to r, as runs
# below r = 1 need; hi_r stays on the crossed side so the event condition holds at the reported point.  Each point r
# runs extension's lines, which pass its state to g.  It returns hi_r and the number of points.
_EXTENSION_SRC = """
def rows(f, r0, [y#][k0#]r1, [n#][kS#]RECORDED):
    h = r1 - r0
EXTRA
    [d#] = [n# - y#]
    return ([y#][d#][h * k0# - d#][2.0 * d# - h * (kS# + k0#)]WEIGHED)

def extension(F, r0, r1, r):
    ROWS = F
    x = (r - r0) / (r1 - r0)
    x1 = 1.0 - x
    return ([STATE])
"""
_REFINE_SRC = """
def refine(g, F, r0, r1, i, direction, lo, abs_tol):
    ROWS = F
    lo_r, hi_r, count = r0, r1, 0
    while count < 80 and not hi_r - lo_r <= 4e-16 * abs(hi_r):
        r = 0.5 * (lo_r + hi_r)
        x = (r - r0) / (r1 - r0)
        x1 = 1.0 - x
        [q$] = g(r, ([STATE]))
        value = ([q$])[i]
        count += 1
        if direction <= 0 and lo > 0.0 >= value or direction >= 0 and lo < 0.0 <= value:
            hi_r = r
            if abs(value) <= abs_tol:
                break
        else:
            lo_r, lo = r, value
    return hi_r, count
"""


def _extension_src(src: str) -> str:
    """src, _EXTENSION_SRC or _REFINE_SRC, written from the table: its extra stages, rows of D and Horner scheme."""
    extra = "".join(f"    [k{i}#] = f(r0 + {c!r} * h, ([y# + h * {_weighted(a)}]))\n"
                    for i, (c, *a) in enumerate(_EXTRA, len(_STAGES) + 2))
    state = f"F{len(_D) + 3}_#"
    for i in range(len(_D) + 2, -1, -1):  # F_i plus (x or 1 - x, alternating) times the rows after it
        state = f"F{i}_# + {'x1' if i % 2 else 'x'} * ({state})"
    src = src.replace("EXTRA\n", extra).replace("STATE", state)
    src = src.replace("WEIGHED", "".join(f"[h * {_weighted(w)}]" for w in _D))
    return _named(src.replace("ROWS", "".join(f"[F{i}_#]" for i in range(len(_D) + 4))))


def _compile(src: str, n: int, k: int = 0):
    def expand(m):
        index, count = ("$", k) if "$" in m[2] else ("#", n)
        terms = [m[2].replace(index, str(i)) for i in range(count)]
        return {"+": " + ", "|": " or "}[m[1]].join(terms) if m[1] else "".join(t + ", " for t in terms)

    src = re.sub(r"^\?(.*\n)", r"\1" if k else "", src.format(n=n), flags=re.M)
    # the step-size factors and exponent as literals
    src = re.sub(r"\b_(SAFETY|M[AI][XN]_FACTOR|EXPONENT)\b", lambda m: repr(globals()[m[0]]), src)
    # a bracket expands when it holds an index, so [i] stays a subscript
    exec(re.sub(r"\[([+|]?)([^]]*[#$][^]]*)\]", expand, src), globals(), ns := {})
    return ns


def _unchecked(src: str) -> str:
    """src without its lines that raise, which check the arguments of a call."""
    return "".join(x for x in src.splitlines(True) if " raise " not in x)


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
def _compiled(n: int, k: int, flow: str | None, events: str | None):
    """(run, refine) for n components and k event values, refine None for k = 0.  The formula of a flow
    replaces each call [x#] = f(radius, ([arguments])) and that of an event function each call [q$] = g(...), and their
    constants follow g among the arguments, the event function's alone in refine's.  Each name a formula binds or reads
    takes the suffix _f in a flow and _g in an event function, which no name of the loop ends in, so the formulas'
    names are their own."""
    src = _loop() + (_extension_src(_REFINE_SRC) if k else "")
    params = {"f": "", "g": ""}
    for callee, text in (("f", flow), ("g", events)):
        if text is None:
            continue
        # each name but keywords and called ones (abs, the head's f) takes the
        # suffix; the exponent of a float such as 1.e5 is no name
        text = re.sub(r"(?<![\w.])[A-Za-z_]\w*(?![\w(])",
                      lambda m: m[0] if keyword.iskeyword(m[0]) else f"{m[0]}_{callee}", text)
        head, unpack, *body, ret = [x.strip() for x in _unchecked(text).strip().splitlines()]
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
def _continuous(n: int):
    """(rows, extension) for n components (see _EXTENSION_SRC)."""
    ns = _compile(_extension_src(_EXTENSION_SRC), n)
    return ns["rows"], ns["extension"]


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
        h1 = (0.01 / max(d1, d2)) ** -_EXPONENT
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

    g(r, y) returns the event values, one per detector in their order; it is called at the start and evaluated per
    accepted step and per bisection point of a crossing, where the loop's sign screen and the bisection inline the
    source text of a g built by formula.  Samples are recorded at every accepted step, and the trajectory keeps the
    step table and the stages that the continuous extension weighs, which its sample method reads at any radii and
    refine bisects for a crossing.  A terminal event truncates the samples at the refined crossing; otherwise the run
    ends at r_span[1] with status "completed".  It evaluates the right-hand side 2 + 11 (naccpt + nrejct) + naccpt
    times (the FSAL stage, of no error weight, runs on accepted steps alone) + 3 per step whose crossing refine reads
    (the extension's extra stages): at the start, for the initial step size and per stage, each a call of f unless f
    was built by formula, whose source text the loop's stages inline.  nbisect counts the evaluations of g that refine
    crossings.
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
    (run, refine), (rows, extension) = _compiled(n, len(detectors), flow, events), _continuous(n)

    # the accepted (r, y, f) and the recorded stages of the step ending there as rows of 1 + 2n + m floats;
    # step j runs from row j-1 to row j
    m = n * len(_DENSE_STAGES)
    nodes, w = [r, *y, *k1, *[0.0] * m], 1 + 2 * n + m
    g_prev = tuple(g(r, y)) if detectors else ()
    if len(g_prev) != len(detectors):
        raise ValueError(f"g must return one value per detector, {len(detectors)}, got {len(g_prev)}")
    events: list[Event] = []

    def build(status_str, cut=None) -> Trajectory:
        # the samples are the nodes, the last one replaced by the terminal
        # crossing cut = (r_star, y_star) inside the last step
        columns = tuple(nodes[k::w] for k in range(n + 1))
        if cut:
            for column, x in zip(columns, (cut[0], *cut[1])):
                column[-1] = x
        nfev = 2 + len(_STAGES) * (naccpt + nrejct) + naccpt + len(_EXTRA) * refined
        stats = dict(nfev=nfev, naccpt=naccpt, nrejct=nrejct, nbisect=nbisect)
        return Trajectory(columns, events, status_str, stats, nodes, f)

    h, naccpt, nrejct, nbisect, refined = _initial_step(f, r, y, k1, r_end, rel, abs_tol), 0, 0, 0, 0
    while True:
        status, r, y, k1, h, naccpt, nrejct, g0, g1 = run(
            f, g, *consts, *g_consts, r, y, k1, h, r_end, rel, abs_tol, nodes, naccpt, nrejct, *g_prev
        )
        if status == "completed":
            return build("completed")
        if status != "event":
            raise IntegrationError(f"{status} at r={r}", build("failed"))
        # some value changed sign over the step between the last two rows, whose extension's rows F a
        # detector that takes the crossing refines
        fired: list[tuple[float, Detector]] = []
        for i, det in enumerate(detectors):
            if not _crossed(g0[i], g1[i], det.direction):
                continue
            if not fired:
                r_a, r_b, F = nodes[-2 * w], nodes[-w], rows(f, *nodes[-2 * w : -w - m], *nodes[-w:])
            r_star, count = refine(g, *g_consts, F, r_a, r_b, i, det.direction, g0[i], abs_tol)
            nbisect += count
            fired.append((r_star, det))
        refined += bool(fired)
        for r_star, det in sorted(fired, key=lambda t: t[0]):
            y_star = extension(F, r_a, r_b, r_star)
            events.append(Event(det.kind, r_star, y_star))
            if det.terminal:
                return build(f"event:{det.kind.value}", (r_star, y_star))
        g_prev = g1
