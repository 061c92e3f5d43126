"""Spans and counters for the benchmark's traced runs, and their aggregation.

Tracing is installed from outside the program: every public function of
interest is replaced, wherever a diracshoot module namespace refers to it
(including module-level lists and dicts such as ``verify.ALL_CHECKS`` and
the CLI's dispatch table), by a wrapper that records a span around the
call.  RHS and energy evaluations are counted, not spanned.  Outside a unit
(warm-up, correctness gates) the wrappers call straight through.

A span is ``[name, start, end, parent, unit]`` with ``parent`` the index of
the enclosing span in the same list; each unit has one root span ``unit``.
This module uses only the standard library, so the client can aggregate
without importing numpy.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# a bisection classification is useful while the bracket is wider than this
# share of lambda*; below it the default tolerance no longer resolves lambda*
USEFUL_WIDTH = 1e-10

SPANNED = {
    "shooting": ("bracket_search", "extend_with_decay_tail", "decay_fit"),
    "asymptotics": (
        "convergence_study",
        "first_order_log_fit",
        "integrate_remainder",
        "node_radius",
        "integrate_rescaled",
        "integrate_first_order",
    ),
    "phaseflow": ("level_set", "attraction_report", "stability_compare"),
    "verify": ("run_suite",),
    "cli": ("render_json", "render_csv", "write_output"),
}
CLI_RUNNERS = {
    "ground-state": "run_ground_state",
    "classify": "run_classify",
    "asymptotics": "run_asymptotics",
    "portrait": "run_portrait",
    "verify": "run_verify",
}
BOUND_DIAGNOSTIC = "remainder bound exceeded"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = {}
        self.unit: int | None = None
        self.counter: Counter | None = None
        self.bracket: list | None = None  # [lo, hi, widths] inside shooting.bisect
        self._stack: list[int] = []

    def begin_unit(self, unit: int, start: float | None = None) -> None:
        self.unit = unit
        self.counter = self.counts.setdefault(unit, Counter())
        self.begin("unit", start)

    def end_unit(self) -> None:
        self.end()
        self.unit = self.counter = None

    def begin(self, name: str, start: float | None = None) -> None:
        parent = self._stack[-1] if self._stack else None
        t = time.perf_counter() if start is None else start
        self.spans.append([name, t, None, parent, self.unit])
        self._stack.append(len(self.spans) - 1)

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.unit is None:
                return fn(*args, **kwargs)
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return wrapper

    def hamiltonian(self, fn):
        """equations.hamiltonian, counted (it is called once per sample)."""

        @functools.wraps(fn)
        def wrapper(*args):
            counter = self.counter
            if counter is not None:
                counter["equations.hamiltonian"] += 1
            return fn(*args)

        return wrapper

    def solve(self, fn):
        """integrator.solve with its right-hand side counted."""

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            if self.unit is None:
                return fn(f, *args, **kwargs)
            calls = 0

            def rhs(r, y):
                nonlocal calls
                calls += 1
                return f(r, y)

            self.begin("integrator.solve")
            try:
                traj = fn(rhs, *args, **kwargs)
            finally:
                self.end()
                self.counter["integrator.rhs"] += calls
            self.counter["integrator.samples"] += len(traj)
            return traj

        return wrapper

    def classify(self, fn, verdict_connection: str):
        """shooting.classify; inside bisect it also tracks the bracket width.

        The bracket is [largest node-free datum, smallest nodal datum] seen
        so far, which is what any node-count search narrows.
        """
        inner = self.span("shooting.classify", fn)

        @functools.wraps(fn)
        def wrapper(lam, *args, **kwargs):
            if self.unit is None:
                return fn(lam, *args, **kwargs)
            if kwargs.get("horizon") is not None:
                self.counter["shooting.retry"] += 1
            br = self.bracket if kwargs.get("stop_at_first_node") else None
            if br is not None:
                br[2].append(br[1] - br[0])
            c = inner(lam, *args, **kwargs)
            if br is not None:
                if c.node_count >= 1:
                    br[1] = min(br[1], lam)
                elif c.verdict != verdict_connection:
                    br[0] = max(br[0], lam)
            return c

        return wrapper

    def bisect(self, fn):
        inner = self.span("shooting.bisect", fn)

        @functools.wraps(fn)
        def wrapper(bracket, *args, **kwargs):
            if self.unit is None:
                return fn(bracket, *args, **kwargs)
            outer, self.bracket = self.bracket, [bracket.lo, bracket.hi, []]
            try:
                gs = inner(bracket, *args, **kwargs)
            finally:
                widths = self.bracket[2]
                self.bracket = outer
            limit = USEFUL_WIDTH * gs.lambda_star
            self.counter["shooting.bisect_classify"] += len(widths)
            self.counter["shooting.bisect_useful"] += sum(1 for w in widths if w > limit)
            return gs

        return wrapper

    def runner(self, name: str, fn):
        """A cli.run_* command; counts the known-red remainder-bound diagnostic."""
        inner = self.span(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            envelope = inner(*args, **kwargs)
            if self.counter is not None:
                self.counter["asymptotics.bound_exceeded"] += sum(
                    1 for d in envelope["diagnostics"] if d.startswith(BOUND_DIAGNOSTIC)
                )
            return envelope

        return wrapper


def install(tracer: Tracer):
    """Wrap the traced functions wherever a diracshoot namespace refers to them.

    All diracshoot modules must already be imported (``diracshoot.cli``
    imports every other one).  A missing target raises AttributeError.
    Returns ``switch(on)``, which rebinds the wrappers (on) or the original
    functions (off); the wrappers are bound on return.
    """
    mods = {
        name.removeprefix("diracshoot."): mod
        for name, mod in list(sys.modules.items())
        if name.startswith("diracshoot.")
    }
    shooting, verify, cli = mods["shooting"], mods["verify"], mods["cli"]
    wrap = {
        mods["integrator"].solve: tracer.solve(mods["integrator"].solve),
        mods["equations"].hamiltonian: tracer.hamiltonian(mods["equations"].hamiltonian),
        shooting.classify: tracer.classify(shooting.classify, shooting.VERDICT_I),
        shooting.bisect: tracer.bisect(shooting.bisect),
    }
    for mod, names in SPANNED.items():
        for name in names:
            fn = getattr(mods[mod], name)
            wrap[fn] = tracer.span(f"{mod}.{name}", fn)
    for check in verify.ALL_CHECKS:
        wrap[check] = tracer.span(f"verify.{check.__name__}", check)
    for name in CLI_RUNNERS.values():
        fn = getattr(cli, name)
        wrap[fn] = tracer.runner(f"cli.{name}", fn)

    by_id = {id(orig): w for orig, w in wrap.items()}
    bindings = []  # (module, attribute, original value, traced value)
    for mod in [sys.modules["diracshoot"], *mods.values()]:
        for attr, val in list(vars(mod).items()):
            if id(val) in by_id:
                traced = by_id[id(val)]
            elif isinstance(val, list) and any(id(v) in by_id for v in val):
                traced = [by_id.get(id(v), v) for v in val]
            elif isinstance(val, dict) and any(id(v) in by_id for v in val.values()):
                traced = {k: by_id.get(id(v), v) for k, v in val.items()}
            else:
                continue
            bindings.append((mod, attr, val, traced))

    def switch(on: bool) -> None:
        for mod, attr, original, traced in bindings:
            setattr(mod, attr, traced if on else original)

    switch(True)
    return switch


# --- aggregation ------------------------------------------------------------


def _ancestors(spans, i):
    p = spans[i][3]
    while p is not None:
        yield spans[p][0]
        p = spans[p][3]


def summarize(spans, counts, scale):
    """Totals over all units: outermost time, calls and self time per name.

    Durations are multiplied by ``scale[unit]`` (the unit's calibration
    factor).  Outermost time counts a span only when no enclosing span has
    the same name.  ``cli.*`` spans count only outside any ``cli.run_*``
    span, so the CLI rendering and commands nested inside ``verify`` (its
    determinism checks) stay with verify.
    """
    total = defaultdict(float)
    calls = Counter()
    self_time = defaultdict(float)
    child_time = defaultdict(float)
    top_cli = defaultdict(list)
    for i, (name, t0, t1, parent, unit) in enumerate(spans):
        d = (t1 - t0) * scale[unit]
        calls[name] += 1
        if parent is not None:
            child_time[parent] += d
        anc = list(_ancestors(spans, i))
        if name.startswith("cli."):
            if not any(a.startswith("cli.run_") for a in anc):
                top_cli[name].append(d)
        elif name not in anc:
            total[name] += d
    for i, (name, t0, t1, _parent, unit) in enumerate(spans):
        self_time[name] += (t1 - t0) * scale[unit] - child_time[i]
    counters = Counter()
    for c in counts.values():
        counters.update(c)
    return total, calls, self_time, top_cli, counters


def coverage(spans, unit_walls=None):
    """Share of unit wall time covered by the spans directly under each unit.

    unit_walls maps unit -> wall time measured outside the process (CLI
    units); by default the root span's own duration is the unit's wall.
    """
    covered = defaultdict(float)
    walls = {}
    for name, t0, t1, parent, unit in spans:
        if name == "unit":
            walls[unit] = t1 - t0
        elif parent is not None and spans[parent][0] == "unit":
            covered[unit] += t1 - t0
    if unit_walls is not None:
        walls = unit_walls
    return sum(covered[u] for u in walls) / sum(walls.values())


def layer_metrics(spans, counts, scale, check_names):
    """Per-unit layer metrics from one traced phase (one unit per scale entry).

    Times are calibrated with ``scale``.  ``cli.run_s.<command>`` is per
    invocation of that command; every other metric is a total over the
    phase divided by the number of units.
    """
    total, calls, _self, top_cli, c = summarize(spans, counts, scale)
    n_units = len(scale)
    n = float(n_units)
    rhs = c["integrator.rhs"]
    out = {
        "integrator.rhs_calls": rhs / n,
        "integrator.solve_calls": calls["integrator.solve"] / n,
        "integrator.samples": c["integrator.samples"] / n,
        "integrator.solve_s": total["integrator.solve"] / n,
        "integrator.us_per_rhs": 1e6 * total["integrator.solve"] / rhs if rhs else 0.0,
        "equations.hamiltonian_calls": c["equations.hamiltonian"] / n,
        "shooting.classify_calls": calls["shooting.classify"] / n,
        "shooting.retry_calls": c["shooting.retry"] / n,
        "shooting.useful_bisect_frac": (
            c["shooting.bisect_useful"] / c["shooting.bisect_classify"]
            if c["shooting.bisect_classify"]
            else 0.0
        ),
        "shooting.bracket_s": total["shooting.bracket_search"] / n,
        "shooting.bisect_s": total["shooting.bisect"] / n,
        "shooting.classify_s": total["shooting.classify"] / n,
        "shooting.tail_s": total["shooting.extend_with_decay_tail"] / n,
        "shooting.decay_fit_s": total["shooting.decay_fit"] / n,
        "asymptotics.remainder_s": total["asymptotics.integrate_remainder"] / n,
        "asymptotics.convergence_s": total["asymptotics.convergence_study"] / n,
        "asymptotics.log_fit_s": total["asymptotics.first_order_log_fit"] / n,
        "asymptotics.node_radius_s": total["asymptotics.node_radius"] / n,
        "asymptotics.bound_exceeded": c["asymptotics.bound_exceeded"] / n,
        "phaseflow.level_set_s": total["phaseflow.level_set"] / n,
        "phaseflow.attraction_s": total["phaseflow.attraction_report"] / n,
        "verify.suite_s": total["verify.run_suite"] / n,
    }
    for check in check_names:
        out[f"verify.check_s.{check}"] = total[f"verify.check_{check}"] / n
    for command, fn in CLI_RUNNERS.items():
        runs = top_cli[f"cli.{fn}"]
        out[f"cli.run_s.{command}"] = sum(runs) / len(runs) if runs else 0.0
    renders = top_cli["cli.render_json"] + top_cli["cli.render_csv"]
    out["cli.render_s"] = sum(renders) / n
    return out


# span (or counter) names each workload must record at least once; a wrapper
# that stays silent where its layer runs means the tracing missed a reference
REQUIRED_COMMON = ("integrator.solve", "integrator.rhs", "integrator.samples", "cli.render_json")
REQUIRED = {
    "gs_sweep": REQUIRED_COMMON
    + (
        "equations.hamiltonian",
        "shooting.classify",
        "shooting.bracket_search",
        "shooting.bisect",
        "shooting.bisect_classify",
        "shooting.extend_with_decay_tail",
        "shooting.decay_fit",
        "cli.run_ground_state",
    ),
    "asym_sweep": REQUIRED_COMMON
    + (
        "asymptotics.convergence_study",
        "asymptotics.first_order_log_fit",
        "asymptotics.integrate_remainder",
        "asymptotics.node_radius",
        "asymptotics.integrate_rescaled",
        "asymptotics.integrate_first_order",
        "cli.run_asymptotics",
    ),
}


def required(workload, check_names):
    if workload != "cli_cold":
        return REQUIRED[workload]
    names = set(REQUIRED["gs_sweep"]) | set(REQUIRED["asym_sweep"])
    names |= {f"{m}.{n}" for m, ns in SPANNED.items() for n in ns}
    names |= {f"cli.{fn}" for fn in CLI_RUNNERS.values()}
    names |= {f"verify.check_{c}" for c in check_names}
    return tuple(sorted(names))


def silent(spans, counts, names):
    """Required names that recorded no span and no count."""
    seen = {s[0] for s in spans}
    for c in counts.values():
        seen.update(k for k, v in c.items() if v)
    return [n for n in names if n not in seen]
