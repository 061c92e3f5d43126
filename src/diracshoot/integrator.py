"""Adaptive embedded Runge-Kutta integration with event detection.

The stepper is a Dormand-Prince pair with FSAL, 5(4) or 8(5,3), on plain
float tuples (the systems here are 2- or 4-dimensional and are integrated
many thousands of times during a shooting run, so the per-step overhead
matters).  Events are located by sign bracketing over each accepted step
and refined by bisection on the cubic Hermite dense output (Hairer, Norsett
& Wanner, Solving ODEs I, II.6); an event records the interpolated state at
its crossing, from which callers compute any value there.  A trajectory
holds its samples as float columns and the step list of its run, as arrays
from their first read; Trajectory.sample interpolates the steps at any radii
with that polynomial, or DOP853's own 7th-order one on a dense run (CONTD8,
II.6), in one array pass, into rows of states.

The adaptive loop, with a sign screen of the event values, the bisection
that refines a crossing and the Hermite dense output are written once, in
_DP54_SRC (written from a Pair's table by _loop), _REFINE_SRC and
_HERMITE_SRC, as per-component expressions.  Their compilers
_dp54(n, k, flow, events, pair), for the loop and the bisection, and _hermite(n)
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
from typing import Callable, NamedTuple, Sequence

from . import _lazy as np

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

# Dormand-Prince 8(5,3) (Hairer, Norsett & Wanner, II.10): scipy's DOP853 table as doubles, E5 and E3 after b, then
# the continuous extension (CONTD8, II.6): (c, row of A) of k13 ... k15, after the FSAL k12, and D over k0 ... k15
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


class Pair(NamedTuple):
    """A pair with FSAL: one error vector is DOPRI5's RMS norm, two Hairer's |h| e5 / sqrt((e5 + 0.01 e3) n)."""

    stages: tuple  # (c, row of A) per stage after k0
    b: tuple
    errors: tuple
    exponent: float  # of the step-size factor
    extra: tuple = ()  # the continuous extension's (c, row of A) per stage after the FSAL one
    d: tuple = ()  # and its rows of D, none for a pair without one
    # DOPRI5's error weights reach the FSAL stage kS#, so it runs before the error norm, on rejected steps too
    fsal_in_error = property(lambda self: len(self.errors[0]) > len(self.stages) + 1)
    # the stages k1 ... of a step that the extension weighs, which a dense run records
    dense_stages = property(lambda self: [j for j, *w in zip(range(len(self.stages) + 1), *self.d, *(
        a[1:] for a in self.extra)) if j and any(w)])


DP5 = Pair(_DP54[:-2], _DP54[-2], _DP54[-1:], -0.2)
DOP853 = Pair(_DOP853[:11], _DOP853[11], _DOP853[12:14], -0.125, _DOP853[14:17], _DOP853[17:])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_MAX_STEPS = 5_000_000


class EventKind(str, enum.Enum):
    V_SIGN_CHANGE = "v_sign_change"
    ENTERED_NEGATIVE_ENERGY = "entered_negative_energy"
    NORM_BELOW_ETA = "norm_below_eta"


class Event(NamedTuple):
    """An event of the given kind at its refined crossing r, with the state
    y there."""

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
    rows (r, y, dy/dr), uncut at a terminal crossing, which sample
    interpolates; it is built from the flat list steps, and stats and table
    are empty for paths given no steps; dense is a dense run's (f, pair, stages)."""

    def __init__(self, columns, events, status, stats=None, steps=None, dense=None):
        self.columns = columns
        self.events = tuple(events)
        self.status = status  # "completed", "failed" or "event:<kind>"
        self.stats = stats or {}
        self._steps = steps
        self._dense = dense  # (f, pair, recorded stages) of a dense run

    @functools.cached_property
    def _arrays(self) -> tuple:
        columns, steps = self.columns, self._steps
        if steps is None:
            table, a = None, np.array(columns)
        else:
            # the step list as one buffer of C doubles, which numpy reads in place (twice as fast as
            # np.fromiter); its first rows are the samples but the last, which a terminal crossing cuts
            table = np.frombuffer(struct.pack(f"{len(steps)}d", *steps)).reshape(-1, 2 * len(columns) - 1)
            a = table[: len(columns[0]), : len(columns)].T.copy()
            a[:, -1] = [column[-1] for column in columns]
        return a[0], a[1:].T, table

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
        """The states of this run at the 1-D, strictly increasing grid, one
        row per point, from its step table: a point equal to a sample takes
        the state there, any other, in one array pass, the value on the step
        ending beyond it of a dense run's degree-7 extension (rows h D K built
        once per run); a run without stages takes the cubic Hermite, which
        refine uses, unchanged, for the events of every run.
        The grid lies within the run's r_span; points past the last sample
        of a run that stopped early, at a terminal crossing or a failure,
        have no row, so the rows are those of the first points of grid."""
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
        if self._dense:
            r0, h, c = self._extension
            x = ((pts[inner] - r0[j - 1]) / h[j - 1])[:, None]
            c, x, acc = c.take(j - 1, axis=1), (1.0 - x, x), 0.0
            for i in range(len(c) - 1, 0, -1):  # c0 + x (c1 + (1 - x) (c2 + x (c3 + ... + x c7)))
                acc = (acc + c[i]) * x[i % 2]
            y[inner] = c[0] + acc
        else:
            y[inner] = np.transpose(_hermite(y.shape[1])(self.table[j - 1].T, self.table[j].T, pts[inner]))
        return y

    @functools.cached_property
    def _extension(self) -> tuple:
        """Per step: r0, h and the rows y0, F0 ... F6 of the extension (scipy's Dop853DenseOutput), all at once."""
        (f, pair, stages), t, n = self._dense, self.table, len(self.columns) - 1
        r0, h, y0, y1 = t[:-1, 0], np.diff(t[:, 0])[:, None], t[:-1, 1 : n + 1], t[1:, 1 : n + 1]
        # the stages k0 ... per step, k[s] the FSAL one and zero where no weight reads them
        k, s = np.zeros((len(pair.d[0]), len(h), n)), len(pair.stages) + 1
        stages = np.frombuffer(struct.pack(f"{len(stages)}d", *stages)).reshape(len(h), len(pair.dense_stages), n)
        k[pair.dense_stages], k[0], k[s] = stages.swapaxes(0, 1), t[:-1, n + 1 :], t[1:, n + 1 :]
        # the weighted sums by einsum, whose loops call no BLAS routine; f on arrays
        for i, (c, *a) in enumerate(pair.extra, s + 1):
            k[i] = np.transpose(f(r0 + c * h[:, 0], tuple((y0 + h * np.einsum("j,j...", a, k[:i])).T)))
        dy = y1 - y0
        F = [y0, dy, h * k[0] - dy, 2.0 * dy - h * (k[s] + k[0]), *(h * np.einsum("ij,j...->i...", pair.d, k))]
        return r0, h[:, 0], np.array(F)


# [expr] expands to "expr_0, expr_1, ..., ", [+expr] to "expr_0 + expr_1 + ..." and
# [|expr] to "expr_0 or expr_1 or ...", with # the state component index or $ the
# event value index; lines starting with ? (the sign screen) are kept for k > 0.
# run appends each accepted r, y and f = dy/dr to the flat list nodes (and a dense
# run the stages pair.dense_stages to the flat list stages) and returns
# (status, r, y, dy, h, naccpt, nrejct, p, q): "completed" at r_end, "event" after
# a step over which some value changed sign from p to q, or a failure; _loop
# writes its stages k1# ..., update n#, error norm, exponent and FSAL stage kS#
# from a Pair.  hermite interpolates between two rows, of floats or arrays.
_DP54_SRC = """
def run(f, g, r, y, dy, h, r_end, rel, abs_tol, nodes, stages, naccpt, nrejct, [p$]):
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
ERROR
        except OverflowError:  # a square past the float range, where ** raises
            err = math.inf
        if not err <= 1.0:  # an infinite or NaN error norm rejects the step
            nrejct += 1
            fac = _SAFETY * err ** EXPONENT
            h *= fac if fac > _MIN_FACTOR else _MIN_FACTOR
            continue
        naccpt += 1
        r = r_new
FSAL
        [y#][ay#][k0#] = [n#][an#][kS#]
        nodes += (r, [n#][kS#])
        # err <= 1 here, so the factor is at least _SAFETY > _MIN_FACTOR
        fac = _MAX_FACTOR if err == 0.0 else _SAFETY * err ** EXPONENT
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


def _loop(pair: Pair, dense: bool) -> str:
    """_DP54_SRC written from pair, recording pair.dense_stages if dense.  The FSAL stage kS# follows the update where
    it enters the error norm (pair.fsal_in_error), else the acceptance.  Stage names share one width: k1 of component 10
    is no k11."""
    s, scale, fsal = len(pair.stages) + 1, "abs_tol + rel * (an# if an# > ay# else ay#)", ["[kS#] = f(r_new, ([n#]))"]
    stages = [f"[k{i}#] = f(r + {'h' if c == 1.0 else f'{c!r} * h'}, ([y# + h * {_weighted(a)}]))"
              for i, (c, *a) in enumerate(pair.stages, 1)] + [f"[n#] = [y# + h * {_weighted(pair.b)}]"]
    stages, fsal = (stages + fsal, []) if pair.fsal_in_error else (stages, fsal)
    if len(pair.errors) == 1:
        error = [f"err = math.sqrt(([+(h * {_weighted(pair.errors[0])}\n{' ' * 32}/ ({scale})) ** 2]) / {{n}})"]
    else:  # a zero e5 is a zero norm, and any other leaves a positive denominator
        e5, e3 = (f"[+({_weighted(e)} / sc#) ** 2]" for e in pair.errors)
        error = [f"[sc#] = [{scale}]", f"e5, e3 = {e5}, {e3}",
                 "err = h * e5 / math.sqrt((e5 + 0.01 * e3) * {n}) if e5 else 0.0"]
    src = _DP54_SRC.replace("EXPONENT", repr(pair.exponent))
    fsal += [f"stages += ({''.join(f'[k{j}#]' for j in pair.dense_stages)})"] if dense else []
    for key, lines, indent in (("STAGES", stages, 8), ("ERROR", error, 12), ("FSAL", fsal, 8)):
        src = src.replace(key + "\n", "".join(" " * indent + x + "\n" for x in lines))
    return re.sub(r"\bk(\d+|S)#", lambda m: f"k{s if m[1] == 'S' else int(m[1]):0{len(str(s))}d}#", src)


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
def _dp54(n: int, k: int, flow: str | None, events: str | None, pair: Pair, dense: bool):
    """(run, refine) of pair for n components and k event values, refine
    None for k = 0 (run records stages if dense).  The formula of a flow replaces each call [x#] = f(radius,
    ([arguments])) and that of an event function each call [q$] = g(...),
    and their constants follow g among the arguments, the event function's
    alone in refine's.  Each name a formula binds or reads takes the suffix
    _f in a flow and _g in an event function, which no name of the loop
    ends in, so the formulas' names are their own."""
    src = _loop(pair, dense) + (_REFINE_SRC if k else "")
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


def _initial_step(f, r0, y0, f0, r_end, rel, abs_tol, exponent):
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
        h1 = (0.01 / max(d1, d2)) ** -exponent
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
    pair: Pair = DP5,
    dense: bool = False,
) -> Trajectory:
    """Integrate y' = f(r, y) over r_span with event detection.

    g(r, y) returns the event values, one per detector in their order; it is
    called at the start and evaluated per accepted step and per bisection
    point of a crossing, where the loop's sign screen and the bisection
    inline the source text of a g built by formula.  Samples are recorded at
    every accepted step, and the trajectory keeps the step table that its
    sample method interpolates at any radii.  A terminal event truncates the
    samples at the refined crossing; otherwise the run ends at r_span[1]
    with status "completed".  pair steps: DP5 evaluates the right-hand side
    2 + 6 (naccpt + nrejct) times, DOP853 2 + 11 (naccpt + nrejct) + naccpt
    (its FSAL stage, of no error weight, runs on accepted steps alone): at the
    start, for the initial step size and per stage, each a call of f unless f
    was built by formula, whose source text the stages inline.  nbisect counts
    the evaluations of g that refine crossings.  dense records the stages
    that pair's continuous extension weighs (ValueError for DP5, which has
    none) for sample, which evaluates its 3 other stages, uncounted.
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
    if dense and not pair.d:
        raise ValueError("dense output needs a pair with a continuous extension")
    y = tuple(float(c) for c in y0)
    r = r0
    k1 = f(r, y)
    n = len(y)
    flow, consts = getattr(f, "formula", (None, ()))
    events, g_consts = getattr(g, "formula", (None, ())) if detectors else (None, ())
    (run, refine), hermite = _dp54(n, len(detectors), flow, events, pair, dense), _hermite(n)

    # the accepted (r, y, f) as rows of 1 + 2n floats; step j runs from row j-1 to row j
    nodes = [r, *y, *k1]
    w, stages = 1 + 2 * n, [] if dense else None
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
        nfev = 2 + len(pair.stages) * (naccpt + nrejct) + naccpt + (nrejct if pair.fsal_in_error else 0)
        stats = dict(nfev=nfev, naccpt=naccpt, nrejct=nrejct, nbisect=nbisect)
        return Trajectory(columns, events, status_str, stats, nodes, (f, pair, stages) if dense else None)

    h, naccpt, nrejct, nbisect = _initial_step(f, r, y, k1, r_end, rel, abs_tol, pair.exponent), 0, 0, 0
    while True:
        status, r, y, k1, h, naccpt, nrejct, g0, g1 = run(
            f, g, *consts, *g_consts, r, y, k1, h, r_end, rel, abs_tol, nodes, stages, naccpt, nrejct, *g_prev
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
