"""Runnable invariant suite covering every module at default parameters.

Each check is one function registered by @_check(module) and returning
(passed, detail); run_suite executes them in definition order and is what
the CLI's verify command reports.  Thresholds are either the documented
tolerance-scaled bounds or constants frozen from oracle runs.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from . import _lazy as np
from . import asymptotics
from .equations import (
    autonomous_flow,
    equilibria,
    hamiltonian,
    hamiltonian_rate,
    r2h_rate,
    radial_flow,
    series_start,
)
from .integrator import solve
from .params import Params, Tolerances
from .phaseflow import attraction_report, level_set, stability_compare
from .shooting import VERDICT_A, capture_depth, classify, ground_state, horizon_run


class CheckResult(NamedTuple):
    name: str
    module: str
    passed: bool
    detail: str


# registered checks, each also bound to its check_* name; run_suite reads the
# list when called, so wrappers rebound on both (the benchmark's tracer) run
ALL_CHECKS = []


def _check(module: str):
    """Register a check of module in ALL_CHECKS, in definition order.

    The check returns (passed, detail); the registered function returns the
    CheckResult named after it without its check_ prefix.  The check gets
    tol resolved, and a check that raises is a failed result of its module.
    """

    def register(fn):
        name = fn.__name__.removeprefix("check_")

        @functools.wraps(fn)
        def check(p, tol) -> CheckResult:
            try:
                passed, detail = fn(p, tol.resolved(p))
            except Exception as err:  # a crashing check is a failing check
                return CheckResult(name, module, False, f"raised {err!r}")
            return CheckResult(name, module, bool(passed), detail)

        ALL_CHECKS.append(check)
        return check

    return register


@functools.cache
def _shared(fn, *args):
    """fn(*args), computed once per run_suite and shared by the checks.  The
    callers read fn from its module at each call, so a wrapper bound there
    (as the benchmark's tracer binds) still runs."""
    return fn(*args)


def _worst_rise(H, tol) -> float:
    """Largest step rise of the energies H along a run beyond 10 rel (1 + |H|);
    at most 0 when H is non-increasing to within the tolerance."""
    return float(np.max(np.diff(H) - 10.0 * tol.rel * (1.0 + np.abs(H[:-1]))))


@_check("radial-core")
def check_energy_monotone(p, tol):
    worst = -np.inf
    for lam in (0.5, 1.0, 1.8, 2.5):
        t = _shared(horizon_run, lam, p, tol)
        worst = max(worst, _worst_rise(hamiltonian((t.u, t.v), p), tol))
    return worst <= 0.0, f"worst scaled rise {worst:.3e}"


@_check("radial-core")
def check_confinement(p, tol):
    worst = -np.inf
    for lam in (0.5, 1.3, 2.2):
        t = _shared(horizon_run, lam, p, tol)
        cap = hamiltonian((0.0, lam), p) + tol.abs
        worst = max(worst, float((hamiltonian((t.u, t.v), p) - cap).max()))
    return worst <= 0.0, f"worst excess {worst:.3e}"


@_check("radial-core")
def check_sign_symmetry(p, tol):
    r0, y0 = series_start(1.3, p, tol, 20.0)
    a, b = (solve(radial_flow(p), (r0, 20.0), y, rel=tol.rel, abs_tol=tol.abs) for y in (y0, (-y0[0], -y0[1])))
    # the flow is odd and every operation of a step commutes with negation,
    # so the mirrored run is the exact negative of the first
    d = float(np.max(np.abs(a.y + b.y)))
    return d == 0.0, f"max |y_+ + y_-| = {d:.3e}"


@_check("radial-core")
def check_rate_identities(p, tol):
    # finite differences of H and r^2 H against the trapezoid of their rates
    t = _shared(horizon_run, 1.3, p, Tolerances(tol.rel, tol.abs, 20.0))
    r, h, states = t.r, np.diff(t.r), list(zip(t.r, zip(t.u, t.v)))
    H = hamiltonian((t.u, t.v), p)
    worst = -np.inf
    for g, rate in (
        (H, np.array([hamiltonian_rate(rr, s, p) for rr, s in states])),
        (r * r * H, r * np.array([r2h_rate(rr, s, p) for rr, s in states])),
    ):
        trap = 0.5 * (rate[:-1] + rate[1:])
        err = np.abs(np.diff(g) / h - trap) - (h * h * (1.0 + np.abs(trap)) + 1e-9)
        worst = max(worst, float(err.max()))
    return worst <= 0.0, f"worst scaled defect {worst:.3e}"


@_check("radial-core")
def check_autonomous_conservation(p, tol):
    t = solve(autonomous_flow(p), (0.0, 50.0), (0.3, 0.8), rel=tol.rel, abs_tol=tol.abs)
    H = hamiltonian((t.u, t.v), p)
    drift = float(np.max(np.abs(H - H[0])))
    limit = 1e3 * tol.abs
    return drift < limit, f"drift {drift:.3e} < {limit:.1e}"


@_check("radial-core")
def check_taylor_consistency(p, tol):
    # the series start (the Taylor series at the origin): a tight run from the
    # nearer start of a series summed 1e4 times tighter (at most to 1e-14) must
    # land on the start at tol to within the accuracy rel lambda + abs it sums
    # to.  The run is no tighter than 1e-16, near the float's resolution; at
    # rel = abs = 1e-16 so is the bound, and the check fails by 2 to 7 times
    tight = Tolerances(min(tol.rel / 1e4, 1e-14), min(tol.abs / 1e4, 1e-14), tol.rmax)
    rel, abs_tol = max(tight.rel, 1e-16), max(tight.abs, 1e-16)
    defects = {}
    for lam in (0.5, 1.3, 1e4):
        (r_t, y_t), (r_s, y_s) = series_start(lam, p, tight), series_start(lam, p, tol)
        if r_t < r_s:
            y_t = solve(radial_flow(p), (r_t, r_s), y_t, rel=rel, abs_tol=abs_tol).y[-1]
        defects[lam] = (abs(y_t[0] - y_s[0]) + abs(y_t[1] - y_s[1])) / (tol.rel * lam + tol.abs)
    at = max(defects, key=defects.get)
    return defects[at] <= 1.0, f"worst defect {defects[at]:.2e} of rel lambda + abs, at lambda = {at:g}"


@_check("radial-core")
def check_equilibria(p, tol):
    eqs = equilibria(p)
    ok = eqs[0][1] == 0.0
    worst = 0.0
    f = autonomous_flow(p)
    for (pt, H) in eqs[1:]:
        worst = max(worst, abs(H + p.gap ** 2 / 4.0))
        du, dv = f(0.0, pt)
        worst = max(worst, abs(du), abs(dv))
    return ok and worst < 1e-12, f"worst defect {worst:.3e}"


@_check("shooting")
def check_classification_evidence(p, tol):
    for lam in (0.5, 1.0, 2.0):
        c = classify(lam, p, tol)
        if c.verdict == VERDICT_A:
            if not c.summary["H_end"] < -capture_depth(p):
                return False, f"H evidence fails at {lam}"
            if c.trajectory is not None and c.trajectory.nodes_before(c.summary["r_end"]) != c.node_count:
                return False, f"node count mismatch at {lam}"
    return True, "A-verdicts consistent"


@_check("shooting")
def check_certificate_soundness(p, tol):
    checked = 0
    for lam in (1.5, 1.7, 1.8, 1.8078, 1.81):
        c = classify(lam, p, tol)
        cert = c.certificate
        if cert is None or c.trajectory is None:
            continue
        checked += 1
        # a captured run stops at its capture, and v keeps its sign inside
        # {H < 0} since H(u, 0) >= 0, so its count holds every node it will have
        if c.trajectory.nodes_before() > c.trajectory.nodes_before(cert.R) + 1:
            return False, f"violated at lambda={lam}"
    return True, f"{checked} fired certificates sound"


def _union(*grids) -> np.ndarray:
    """np.union1d of the grids, sorted without repeats, minus its numpy.ma import."""
    return np.array(sorted(set(np.concatenate(grids).tolist())))


@_check("shooting")
def check_ground_state_residual(p, tol):
    # up to anchor_r the profile is the integrated trajectory; beyond it the
    # Bessel pair solves the linear part exactly, so the residual of the
    # radial system there is the neglected cubic term (u^2 + v^2)(v, -u)
    gs = _shared(ground_state, p, tol)
    t = gs.profile
    tail = t.r > gs.anchor_r
    u, v = t.u[tail], t.v[tail]
    n1 = np.abs(u) + np.abs(v)
    excess = (u * u + v * v) * n1 - 1e3 * tol.rel * (1.0 + n1)
    worst = float(np.max(excess, initial=0.0))
    ok = len(n1) > 0 and worst <= 0.0
    return ok, f"worst scaled residual {worst:.3e}"


@_check("shooting")
def check_decay_bound(p, tol):
    gs = _shared(ground_state, p, tol)
    t = gs.profile
    logn = np.log(np.maximum(t.norm1, 1e-300))
    worst = -np.inf
    a, b = gs.anchor_r, tol.rmax
    for r in _union(np.linspace(1.05 * a, b, 24), np.linspace(1.2 * a, b, 16)):
        if r / 2.0 < t.r[0] or r > t.r[-1]:
            continue
        n_r = math.exp(np.interp(r, t.r, logn))
        n_half = math.exp(np.interp(r / 2.0, t.r, logn))
        worst = max(worst, n_r - n_half * math.exp(-p.gap * (r - r / 2.0) / 2.0) * 1.1)
    return worst <= 0.0, f"worst excess {worst:.3e}"


@_check("shooting")
def check_bisection_bracketing(p, tol):
    gs = _shared(ground_state, p, tol)
    # trials and full-horizon runs step alike: at (1, 0.5), (4, 2) and (1e4, 5e3) the runs put the transition
    # within 6.3e-6 (tol.abs + tol.rel lambda*) of lambda*, far below d and the stop width 0.1 tol.rel lambda*
    d = max(10.0 * tol.abs, 2.0 * tol.rel * gs.lambda_star)
    below = classify(gs.lambda_star - d, p, tol)
    above = classify(gs.lambda_star + d, p, tol)
    offset = f"{d:.2g}".replace("e-0", "e-")  # 1e-9 at the default tolerances up to lambda* = 5
    return below.node_count == 0 and above.node_count >= 1, (
        f"lambda*-{offset} -> {below.verdict}({below.node_count}), "
        f"+{offset} -> {above.verdict}({above.node_count})"
    )


@_check("asymptotics")
def check_rescaling_commutation(p, tol):
    worst = 0.0
    spans = ((0.05, 160), (0.05, 120), (0.02, 250))
    grid = _union(*[np.linspace(r, 5.0, n) for r, n in spans])
    for eps in (0.5, 0.1):
        # the run to 1/0.1 = 10 is rescaled_energy's too
        resc = _shared(asymptotics.integrate_rescaled, eps, p, tol, max(5.0, 1.0 / eps))
        r_s, y_s = series_start(1.0 / eps, p, tol)
        rad = solve(radial_flow(p), (r_s, eps * eps * 5.0 * 1.01), y_s, rel=tol.rel, abs_tol=tol.abs)
        # the grid above both starts, the radial one at R = r_s / eps^2
        at = grid[grid > max(resc.r[0], r_s / (eps * eps))]
        a, b = resc.sample(at), rad.sample(eps * eps * at)
        d = np.max(np.abs(eps * b[:, 0] - a[:, 0]) + np.abs(eps * b[:, 1] - a[:, 1]))
        worst = max(worst, float(d))
    limit = 1e3 * tol.rel
    return worst < limit, f"worst {worst:.3e} < {limit:.1e}"


@_check("asymptotics")
def check_bubble_exactness(p, tol):
    grid = _union(*(np.geomspace(1e-3, 1e6, n) for n in (400, 701, 901)))
    res = asymptotics.bubble_residual(grid)
    return res < 1e-12, f"residual {res:.3e}"


@_check("asymptotics")
def check_bubble_limit_agreement(p, tol):
    # the massless flow must land on the closed form: eps = 0 has no Params, and at eps = 1e-8 the
    # mass terms eps^2 (m +- omega) are 1.5e-16 at the defaults; reads the module's bubble attribute
    # so a corrupted formula is caught here
    t = asymptotics.integrate_rescaled(1e-8, p, tol, r_end=20.0)
    u0, v0 = asymptotics.bubble(t.r)
    d = float(np.max(np.abs(t.y[:, 0] - u0) + np.abs(t.y[:, 1] - v0)))
    return d < 1e-7, f"sup distance {d:.3e}"


@_check("asymptotics")
def check_rescaled_energy(p, tol):
    for eps in (0.3, 0.1):
        t = _shared(asymptotics.integrate_rescaled, eps, p, tol, 1.0 / eps)
        H = hamiltonian((t.u, t.v), asymptotics.rescaled_params(eps, p))
        if not float(H[0]) <= 1.0:
            return False, "datum energy above 1"
        if _worst_rise(H, tol) > 0.0:
            return False, f"eps={eps} energy rise"
    return True, "non-increasing, bounded by datum"


@_check("asymptotics")
def check_first_order_log_law(p, tol):
    # the closed form against the (h1, k1) columns the joint flow integrates,
    # read between step ends through DOP853's 7th-order extension: 0.1-2.1 x
    # abs + rel sup from m = 0.01 to 10 and rel = abs = 1e-6 to 1e-13
    fit = asymptotics.first_order_log_fit(p)
    rec = _shared(asymptotics.integrate_remainder, (0.2, 0.1, 0.05), p, tol)[0]
    h1, k1 = asymptotics.integrate_first_order(p, rec.r)
    dev = float(np.max(np.abs(h1 - rec.h1) + np.abs(k1 - rec.k1)))
    bound = 10.0 * (tol.abs + tol.rel * float(np.max(np.abs(h1) + np.abs(k1))))
    ok = fit.c > 0.0 and fit.max_rel_residual < 0.1 and dev <= bound
    detail = f"c={fit.c:.4f}, rel residual {fit.max_rel_residual:.2e}"
    return ok, f"{detail}, joint flow off by {dev:.2e} <= {bound:.2e}"


@_check("asymptotics")
def check_remainder_crosscheck(p, tol):
    rec = _shared(asymptotics.integrate_remainder, (0.2, 0.1, 0.05), p, tol)[0]
    ok = rec.rel_discrepancy < asymptotics.CROSSCHECK_REL_BOUND
    return ok, f"relative discrepancy {rec.rel_discrepancy:.2e}"


@_check("asymptotics")
def check_remainder_threshold(p, tol):
    for rec in _shared(asymptotics.integrate_remainder, (0.2, 0.1, 0.05), p, tol):
        if not rec.threshold_ok:
            return False, f"eps={rec.epsilon} breached eps^-3/2 at r={rec.breach_r}"
    return True, "sup below eps^-3/2 throughout"


@_check("phaseflow")
def check_levelset_residual(p, tol):
    worst = 0.0
    nonempty = 0
    for level in (0.0, -p.gap ** 2 / 8.0, 0.2):
        pieces = level_set(level, p)
        if not pieces:
            continue
        nonempty += 1
        pts = np.vstack(pieces)
        H = hamiltonian((pts[:, 0], pts[:, 1]), p)
        worst = max(worst, float(np.max(np.abs(H - level))))
    ok = nonempty == 3 and worst < 1e-9
    return ok, f"worst |H - level| {worst:.3e} over {nonempty} level sets"


@_check("phaseflow")
def check_attraction(p, tol):
    for lam in (0.5, 2.0):
        t = _shared(horizon_run, lam, p, tol)
        rep = attraction_report(t, p)
        after = t.r >= rep.entered_at
        H = hamiltonian((t.u[after], t.v[after]), p)
        H_end = float(H[-1])
        in_window = -p.gap ** 2 / 4.0 - tol.abs <= H_end <= -capture_depth(p)
        if _worst_rise(H, tol) > 0.0 or not in_window or rep.u_sign_alternations < 2:
            return False, f"lambda={lam} violates spiral window"
    return True, "energy window and spiral alternations hold"


@_check("phaseflow")
def check_stability_monotone(p, tol):
    # the deviation from the autonomous flow is first order in 1/rho: each
    # doubling of the shift halves it (a ratio in [1.5, 2.5]), so it never grows
    devs = stability_compare((1e3, 2e3, 4e3, 8e3), (0.0, 1.0), 10.0, p, tol)
    ratios = [a / b for a, b in zip(devs, devs[1:])]
    ok = all(1.5 <= r <= 2.5 for r in ratios)
    return ok, f"devs {', '.join(f'{d:.3e}' for d in devs)}; ratios {', '.join(f'{r:.3f}' for r in ratios)}"


@_check("cli")
def check_envelope_determinism(p, tol):
    from . import cli

    cfg = cli.RunConfig(m=p.m, omega=p.omega, lambdas=(0.5, 2.0))
    a = cli.render_json(cli.run_classify(cfg))
    b = cli.render_json(cli.run_classify(cfg))
    return a == b, f"{len(a)} bytes reproduced"


@_check("cli")
def check_csv_schema(p, tol):
    from . import cli

    cfg = cli.RunConfig(m=p.m, omega=p.omega, lambdas=(0.5,))
    text = cli.render_csv(cli.run_classify(cfg))
    header = text.splitlines()[0]
    ok = header == cli.CSV_HEADERS["classify"] and text.endswith("\n") and "\r" not in text
    return ok, f"header: {header}"


def run_suite(p: Params = Params(), tol: Tolerances = Tolerances()) -> list[CheckResult]:
    """Execute every invariant check; failures are reported, not raised."""
    # the shared results live for one run: a later run checks the code as it is then
    _shared.cache_clear()
    return [check(p, tol) for check in ALL_CHECKS]
