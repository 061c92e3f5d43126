"""Runnable invariant suite covering every module at default parameters.

Each check is a named function returning a CheckResult; run_suite executes
all of them and is what the CLI's verify command reports.  Thresholds are
either the documented tolerance-scaled bounds or constants frozen from
oracle runs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import asymptotics
from .equations import (
    autonomous_flow,
    equilibria,
    hamiltonian,
    hamiltonian_rate,
    r2h_rate,
    radial_flow,
    radial_start,
    rhs_autonomous,
    taylor_start,
)
from .integrator import integrate
from .params import Params, Tolerances
from .phaseflow import attraction_report, level_set, stability_compare
from .shooting import VERDICT_A, classify, ground_state


@dataclass(frozen=True)
class CheckResult:
    name: str
    module: str
    passed: bool
    detail: str


def _result(name, module, passed, detail) -> CheckResult:
    return CheckResult(name, module, bool(passed), detail)


def _radial_trajectory(lam, p, tol, r_end=None):
    return integrate(radial_flow, radial_start(lam, p, tol), p, tol, r_end=r_end)


def check_energy_monotone(p, tol) -> CheckResult:
    worst = -np.inf
    for lam in (0.5, 1.0, 1.8, 2.5):
        t = _radial_trajectory(lam, p, tol)
        rise = np.diff(t.H) - 10.0 * tol.rel * (1.0 + np.abs(t.H[:-1]))
        worst = max(worst, float(rise.max()))
    return _result(
        "energy_monotone", "radial-core", worst <= 0.0, f"worst scaled rise {worst:.3e}"
    )


def check_confinement(p, tol) -> CheckResult:
    worst = -np.inf
    for lam in (0.5, 1.3, 2.2):
        t = _radial_trajectory(lam, p, tol)
        cap = hamiltonian((0.0, lam), p) + tol.abs
        worst = max(worst, float((t.H - cap).max()))
    return _result("confinement", "radial-core", worst <= 0.0, f"worst excess {worst:.3e}")


def check_sign_symmetry(p, tol) -> CheckResult:
    r0, y0 = radial_start(1.3, p, tol)
    a = integrate(radial_flow, (r0, y0), p, tol, r_end=20.0)
    b = integrate(radial_flow, (r0, (-y0[0], -y0[1])), p, tol, r_end=20.0)
    d = float(np.max(np.abs(a.y + b.y)))
    return _result("sign_flip_symmetry", "radial-core", d <= 1e-12, f"max |y_+ + y_-| = {d:.3e}")


def check_rate_identities(p, tol) -> CheckResult:
    t = _radial_trajectory(1.3, p, tol, r_end=20.0)
    r, H = t.r, t.H
    h = np.diff(r)
    rate = np.array([hamiltonian_rate(rr, (uu, vv), p) for rr, uu, vv in zip(r, t.u, t.v)])
    fd = np.diff(H) / h
    trap = 0.5 * (rate[:-1] + rate[1:])
    err1 = np.abs(fd - trap) - (h * h * (1.0 + np.abs(trap)) + 1e-9)
    r2h = r * r * H
    rate2 = r * np.array([r2h_rate(rr, (uu, vv), p) for rr, uu, vv in zip(r, t.u, t.v)])
    fd2 = np.diff(r2h) / h
    trap2 = 0.5 * (rate2[:-1] + rate2[1:])
    err2 = np.abs(fd2 - trap2) - (h * h * (1.0 + np.abs(trap2)) + 1e-9)
    worst = float(max(err1.max(), err2.max()))
    return _result(
        "rate_identities_fd", "radial-core", worst <= 0.0, f"worst scaled defect {worst:.3e}"
    )


def check_autonomous_conservation(p, tol) -> CheckResult:
    t = integrate(autonomous_flow, (0.0, (0.3, 0.8)), p, tol, r_end=50.0)
    drift = float(np.max(np.abs(t.H - t.H[0])))
    limit = 1e3 * tol.abs
    return _result(
        "autonomous_conservation", "radial-core", drift < limit, f"drift {drift:.3e} < {limit:.1e}"
    )


def check_taylor_consistency(p, tol) -> CheckResult:
    # integrating from r0/2 to r0 must reproduce the series start to O(r0^3)
    lam = 1.3
    diffs = []
    for r0 in (1e-2, 5e-3):
        t = integrate(radial_flow, (r0 / 2.0, taylor_start(lam, p, r0 / 2.0)), p, tol, r_end=r0)
        su, sv = taylor_start(lam, p, r0)
        diffs.append(abs(t.u[-1] - su) + abs(t.v[-1] - sv))
    ratio = diffs[0] / max(diffs[1], 1e-300)
    ok = diffs[0] < 1e-5 and 4.0 < ratio < 16.0
    return _result(
        "taylor_consistency",
        "radial-core",
        ok,
        f"diff(1e-2)={diffs[0]:.2e}, third-order ratio {ratio:.2f}",
    )


def check_equilibria(p, tol) -> CheckResult:
    eqs = equilibria(p)
    ok = eqs[0][1] == 0.0
    worst = 0.0
    for (pt, H) in eqs[1:]:
        worst = max(worst, abs(H + p.gap ** 2 / 4.0))
        du, dv = rhs_autonomous(0.0, pt, p)
        worst = max(worst, abs(du), abs(dv))
    return _result(
        "equilibrium_energies", "radial-core", ok and worst < 1e-12, f"worst defect {worst:.3e}"
    )


def check_classification_evidence(p, tol) -> CheckResult:
    tol_r = tol.resolved(p)
    for lam in (0.5, 1.0, 2.0):
        c = classify(lam, p, tol)
        if c.verdict == VERDICT_A:
            if not c.evidence["H"] < -tol_r.delta:
                return _result(
                    "classification_evidence", "shooting", False, f"H evidence fails at {lam}"
                )
            if c.trajectory is not None:
                if c.trajectory.nodes_before(c.evidence["r"]) != c.node_count:
                    return _result(
                        "classification_evidence", "shooting", False, f"node count mismatch at {lam}"
                    )
    return _result("classification_evidence", "shooting", True, "A-verdicts consistent")


def check_certificate_soundness(p, tol) -> CheckResult:
    tol_r = tol.resolved(p)
    checked = 0
    for lam in (1.5, 1.7, 1.8, 1.8078, 1.81):
        c = classify(lam, p, tol)
        cert = c.certificate
        if cert is None or c.trajectory is None:
            continue
        checked += 1
        k_before = c.trajectory.nodes_before(cert.R)
        total = c.trajectory.nodes_before()
        entered = c.verdict == VERDICT_A
        if not (total <= k_before + 1 or entered):
            return _result(
                "certificate_soundness", "shooting", False, f"violated at lambda={lam}"
            )
    return _result("certificate_soundness", "shooting", True, f"{checked} fired certificates sound")


# shared by the checks; keyed on the whole (frozen) Params and Tolerances
_ground_state_cached = functools.cache(ground_state)


def check_ground_state_residual(p, tol) -> CheckResult:
    # up to anchor_r the profile is the integrated trajectory; beyond it the
    # Bessel pair solves the linear part exactly, so the residual of the
    # radial system there is the neglected cubic term (u^2 + v^2)(v, -u)
    tol_r = tol.resolved(p)
    gs = _ground_state_cached(p, tol)
    t = gs.profile
    tail = t.r > gs.anchor_r
    u, v = t.u[tail], t.v[tail]
    n1 = np.abs(u) + np.abs(v)
    excess = (u * u + v * v) * n1 - 1e3 * tol_r.rel * (1.0 + n1)
    worst = float(np.max(excess, initial=0.0))
    return _result(
        "ground_state_residual", "shooting", worst <= 0.0, f"worst scaled residual {worst:.3e}"
    )


def check_decay_bound(p, tol) -> CheckResult:
    tol_r = tol.resolved(p)
    gs = _ground_state_cached(p, tol)
    t = gs.profile
    logn = np.log(np.maximum(t.norm1, 1e-300))
    worst = -np.inf
    for r in np.linspace(1.05 * gs.anchor_r, tol_r.rmax, 24):
        if r / 2.0 < t.r[0] or r > t.r[-1]:
            continue
        n_r = math.exp(np.interp(r, t.r, logn))
        n_half = math.exp(np.interp(r / 2.0, t.r, logn))
        worst = max(worst, n_r - n_half * math.exp(-p.gap * (r - r / 2.0) / 2.0) * 1.1)
    return _result("decay_bound", "shooting", worst <= 0.0, f"worst excess {worst:.3e}")


def check_bisection_bracketing(p, tol) -> CheckResult:
    gs = _ground_state_cached(p, tol)
    # 1e-9 is well above the search's stop width (0.1 tol.rel lambda*)
    below = classify(gs.lambda_star - 1e-9, p, tol)
    above = classify(gs.lambda_star + 1e-9, p, tol)
    ok = below.node_count == 0 and above.node_count >= 1
    return _result(
        "bisection_bracketing",
        "shooting",
        ok,
        f"lambda*-1e-9 -> {below.verdict}({below.node_count}), +1e-9 -> {above.verdict}({above.node_count})",
    )


def check_rescaling_commutation(p, tol) -> CheckResult:
    tol_r = tol.resolved(p)
    worst = 0.0
    for eps in (0.5, 0.1):
        grid = np.linspace(0.05, 5.0, 160)
        resc = asymptotics.integrate_rescaled(eps, p, tol, r_end=5.0, r_eval=grid)
        rad = integrate(
            radial_flow,
            radial_start(1.0 / eps, p, tol_r),
            p,
            tol,
            r_end=eps * eps * 5.0 * 1.01,
            r_eval=eps * eps * grid,
        )
        d = np.max(
            np.abs(eps * rad.y[:, 0] - resc.y[:, 0]) + np.abs(eps * rad.y[:, 1] - resc.y[:, 1])
        )
        worst = max(worst, float(d))
    limit = 1e3 * tol_r.rel
    return _result(
        "rescaling_commutation", "asymptotics", worst < limit, f"worst {worst:.3e} < {limit:.1e}"
    )


def check_bubble_exactness(p, tol) -> CheckResult:
    grid = np.geomspace(1e-3, 1e6, 400)
    res = asymptotics.bubble_residual(grid)
    return _result("bubble_exactness", "asymptotics", res < 1e-12, f"residual {res:.3e}")


def check_bubble_limit_agreement(p, tol) -> CheckResult:
    # the eps = 0 flow must land on the closed form; reads the module's
    # bubble attribute so a corrupted formula is caught here
    t = asymptotics.integrate_rescaled(0.0, p, tol, r_end=20.0)
    u0, v0 = asymptotics.bubble(t.r)
    d = float(np.max(np.abs(t.y[:, 0] - u0) + np.abs(t.y[:, 1] - v0)))
    return _result("bubble_limit_agreement", "asymptotics", d < 1e-7, f"sup distance {d:.3e}")


def check_rescaled_energy(p, tol) -> CheckResult:
    for eps in (0.3, 0.1):
        t = asymptotics.integrate_rescaled(eps, p, tol, r_end=1.0 / eps)
        if not float(t.H[0]) <= 1.0:
            return _result("rescaled_energy", "asymptotics", False, "datum energy above 1")
        rise = np.diff(t.H) - 10.0 * tol.rel * (1.0 + np.abs(t.H[:-1]))
        if rise.max() > 0.0:
            return _result("rescaled_energy", "asymptotics", False, f"eps={eps} energy rise")
    return _result("rescaled_energy", "asymptotics", True, "non-increasing, bounded by datum")


def check_first_order_log_law(p, tol) -> CheckResult:
    fit = asymptotics.first_order_log_fit(p, tol)
    ok = fit.c > 0.0 and fit.max_rel_residual < 0.1
    return _result(
        "first_order_log_law",
        "asymptotics",
        ok,
        f"c={fit.c:.4f}, rel residual {fit.max_rel_residual:.2e}",
    )


@functools.cache
def _remainder_cached(eps, p, tol):
    # shared by the two remainder checks; the module attribute is read on each
    # miss, so a wrapper bound there (as the benchmark's tracer binds) still runs
    return asymptotics.integrate_remainder(eps, p, tol)


def check_remainder_crosscheck(p, tol) -> CheckResult:
    rec = _remainder_cached(0.2, p, tol)
    return _result(
        "remainder_crosscheck",
        "asymptotics",
        rec.rel_discrepancy < asymptotics.CROSSCHECK_REL_BOUND,
        f"relative discrepancy {rec.rel_discrepancy:.2e}",
    )


def check_remainder_threshold(p, tol) -> CheckResult:
    for eps in (0.2, 0.1, 0.05):
        rec = _remainder_cached(eps, p, tol)
        if not rec.threshold_ok:
            return _result(
                "remainder_threshold",
                "asymptotics",
                False,
                f"eps={eps} breached eps^-3/2 at r={rec.breach_r}",
            )
    return _result("remainder_threshold", "asymptotics", True, "sup below eps^-3/2 throughout")


def check_levelset_residual(p, tol) -> CheckResult:
    worst = 0.0
    nonempty = 0
    for level in (0.0, -p.gap ** 2 / 8.0, 0.2):
        ls = level_set(level, p)
        pts = ls.points
        if len(pts) == 0:
            continue
        nonempty += 1
        H = np.array([hamiltonian((uu, vv), p) for uu, vv in pts])
        worst = max(worst, float(np.max(np.abs(H - level))))
    return _result(
        "levelset_residual",
        "phaseflow",
        nonempty == 3 and worst < 1e-9,
        f"worst |H - level| {worst:.3e} over {nonempty} level sets",
    )


def check_attraction(p, tol) -> CheckResult:
    tol_r = tol.resolved(p)
    for lam in (0.5, 2.0):
        rep = attraction_report(lam, p, tol)
        t = rep.trajectory
        mask = t.r >= rep.entered_at
        H = t.H[mask]
        rise = np.diff(H) - 10.0 * tol_r.rel * (1.0 + np.abs(H[:-1]))
        H_end = float(H[-1])
        in_window = -p.gap ** 2 / 4.0 - tol_r.abs <= H_end <= -tol_r.delta
        if rise.max() > 0.0 or not in_window or rep.u_sign_alternations < 2:
            return _result("attraction", "phaseflow", False, f"lambda={lam} violates spiral window")
    return _result("attraction", "phaseflow", True, "energy window and spiral alternations hold")


def check_stability_monotone(p, tol) -> CheckResult:
    devs = [stability_compare(rho, (0.0, 1.0), 10.0, p, tol) for rho in (1e3, 2e3, 4e3)]
    ok = all(b <= a * 1.1 for a, b in zip(devs, devs[1:]))
    return _result(
        "stability_monotone",
        "phaseflow",
        ok,
        "devs " + ", ".join(f"{d:.3e}" for d in devs),
    )


def check_envelope_determinism(p, tol) -> CheckResult:
    from . import cli

    cfg = cli.RunConfig(m=p.m, omega=p.omega, lambdas=(0.5, 1.0))
    a = cli.render_json(cli.run_classify(cfg))
    b = cli.render_json(cli.run_classify(cfg))
    return _result("envelope_determinism", "cli", a == b, f"{len(a)} bytes reproduced")


def check_csv_schema(p, tol) -> CheckResult:
    from . import cli

    cfg = cli.RunConfig(m=p.m, omega=p.omega, lambdas=(0.5,))
    text = cli.render_csv(cli.run_classify(cfg))
    header = text.splitlines()[0]
    ok = header == cli.CSV_HEADERS["classify"] and text.endswith("\n") and "\r" not in text
    return _result("csv_schema", "cli", ok, f"header: {header}")


ALL_CHECKS = [
    check_energy_monotone,
    check_confinement,
    check_sign_symmetry,
    check_rate_identities,
    check_autonomous_conservation,
    check_taylor_consistency,
    check_equilibria,
    check_classification_evidence,
    check_certificate_soundness,
    check_ground_state_residual,
    check_decay_bound,
    check_bisection_bracketing,
    check_rescaling_commutation,
    check_bubble_exactness,
    check_bubble_limit_agreement,
    check_rescaled_energy,
    check_first_order_log_law,
    check_remainder_crosscheck,
    check_remainder_threshold,
    check_levelset_residual,
    check_attraction,
    check_stability_monotone,
    check_envelope_determinism,
    check_csv_schema,
]


def run_suite(p: Params | None = None, tol: Tolerances | None = None) -> list[CheckResult]:
    """Execute every invariant check; failures are reported, not raised."""
    p = p or Params()
    tol = (tol or Tolerances()).resolved(p)
    results = []
    for check in ALL_CHECKS:
        try:
            results.append(check(p, tol))
        except Exception as err:  # a crashing check is a failing check
            results.append(
                CheckResult(check.__name__.removeprefix("check_"), "suite", False, f"raised {err!r}")
            )
    return results
