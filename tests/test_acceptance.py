"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria run at their stated tolerances; shared expensive artifacts (the
ground-state envelope, the convergence study) are computed once per module.
A criterion that a verify check defines calls that check and prints its
detail, so each invariant has one definition.
"""

import json
import math
import time

import numpy as np
import pytest
from reference import R0, taylor_start

from diracshoot import (
    Params,
    Tolerances,
    classify,
    convergence_study,
    hamiltonian,
    integrate_remainder,
    radial_flow,
    solve,
    verify,
)
from diracshoot.cli import RunConfig, run_ground_state

P = Params(1.0, 0.5)
TOL = Tolerances()


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _report_check(num: int, result) -> None:
    _report(num, result.passed, f"{result.name}: {result.detail}")


@pytest.fixture(scope="module")
def ground_state_run():
    t0 = time.perf_counter()
    env = run_ground_state(RunConfig())
    return env, time.perf_counter() - t0


def test_criterion_01_ground_state_found(ground_state_run):
    env, elapsed = ground_state_run
    pl = env["payload"]
    prof = pl["profile"]
    n40 = float(
        np.interp(40.0, np.asarray(prof["r"]), np.abs(prof["u"]) + np.abs(prof["v"]))
    )
    ok = (
        pl["node_count"] == 0
        and n40 < 1e-6
        and pl["bracket_width"] < 1e-10
        and elapsed < 10.0
    )
    _report(
        1,
        ok,
        f"lambda*={pl['lambda_star']:.12f}, nodes={pl['node_count']}, "
        f"|u|+|v|(40)={n40:.2e}, width={pl['bracket_width']:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_decay_slope(ground_state_run):
    env, _ = ground_state_run
    slope = env["payload"]["decay_slope"]
    bound = -P.gap / 2.0 + 0.05
    _report(2, slope <= bound, f"slope {slope:.4f} <= {bound:.2f}")


def test_criterion_03_capture_interval():
    t0 = time.perf_counter()
    verdicts = {lam: classify(lam, P, TOL) for lam in (0.25, 0.5, 0.75, 1.0)}
    elapsed = time.perf_counter() - t0
    ok = all(c.verdict == "A" and c.node_count == 0 for c in verdicts.values())
    ok = ok and elapsed < 2.0
    _report(
        3,
        ok,
        "verdicts "
        + ", ".join(f"{lam}->A({c.node_count})" for lam, c in verdicts.items())
        + f", {elapsed:.2f}s",
    )


def test_criterion_04_capture_set_bounded():
    t0 = time.perf_counter()
    nodes = {lam: classify(lam, P, TOL).node_count for lam in (10.0, 100.0)}
    elapsed = time.perf_counter() - t0
    ok = all(k >= 1 for k in nodes.values()) and elapsed < 2.0
    _report(4, ok, f"node counts {nodes}, {elapsed:.2f}s")


def _random_parameter_sample(n=100):
    rng = np.random.RandomState(20260810)
    for _ in range(n):
        m = rng.uniform(0.2, 2.0)
        om = m * rng.uniform(0.02, 0.98)
        lam = rng.uniform(1e-3, 5.0)
        yield Params(m, om), lam


def test_criterion_05_energy_monotonicity():
    worst = -np.inf
    for p, lam in _random_parameter_sample():
        tol = Tolerances(rmax=40.0).resolved(p)
        r0 = R0 / max(1.0, lam * lam)
        traj = solve(radial_flow(p), (r0, 40.0), taylor_start(lam, p, r0), rel=tol.rel, abs_tol=tol.abs)
        if len(traj) > 1:
            worst = max(worst, float(np.diff(hamiltonian((traj.u, traj.v), p)).max()))
    _report(5, worst < 1e-8, f"max per-step H increase {worst:.3e} < 1e-8")


def test_criterion_06_equilibrium_energies():
    results = [verify.check_equilibria(p, TOL) for p, _ in _random_parameter_sample()]
    failed = [r for r in results if not r.passed]
    shown = failed[0] if failed else results[0]
    detail = f"{shown.name}: {len(failed)} of {len(results)} random (m, omega) fail; {shown.detail}"
    _report(6, not failed, detail)


def test_criterion_07_bubble_exactness():
    _report_check(7, verify.check_bubble_exactness(P, TOL))


def test_criterion_08_second_order_convergence():
    t0 = time.perf_counter()
    records = [integrate_remainder(eps, P, TOL, 10.0) for eps in (0.2, 0.1, 0.05, 0.025)]
    study = convergence_study(records, 10.0)
    elapsed = time.perf_counter() - t0
    ok = all(3.0 <= r <= 5.0 for r in study["ratios"]) and elapsed < 30.0
    _report(
        8,
        ok,
        "ratios " + ", ".join(f"{r:.3f}" for r in study["ratios"]) + f", {elapsed:.1f}s",
    )


def test_criterion_09_first_order_log_law():
    _report_check(9, verify.check_first_order_log_law(P, TOL))


def test_criterion_10_remainder_oracles_and_bound():
    # The h2 source -(m - omega) k1 with k1 ~ -2(m + omega) ln r gives
    # h2 = mu^2 r (ln r - a) + o(r), mu^2 = m^2 - omega^2, which leads at
    # (1, 0.5).  So sup |h2|+|k2| on (0, 1/eps) is mu^2/eps (ln(1/eps) - a)
    # to leading order and climbs towards the bound mu^2 ln(1/eps)/eps from
    # below; no constant fitted at one eps bounds the smaller ones.
    t0 = time.perf_counter()
    mu2 = P.m ** 2 - P.omega ** 2
    rec02 = integrate_remainder(0.2, P, TOL)
    agree = rec02.rel_discrepancy < 1e-4
    bound_ok = True
    worst = 0.0
    details = [f"crosscheck rel {rec02.rel_discrepancy:.2e}"]
    for k in range(13):  # eps = 0.2 ... 0.003125, halving every two rungs
        eps = 0.2 * 2.0 ** (-k / 2)
        rec = rec02 if k == 0 else integrate_remainder(eps, P, TOL)
        limit = mu2 * math.log(1.0 / eps) / eps
        ok = rec.sup_norm <= limit
        bound_ok = bound_ok and ok
        worst = max(worst, rec.sup_norm / limit)
        if (k % 2 == 0 and k <= 4) or not ok:
            details.append(
                f"eps={eps:.4g}: sup={rec.sup_norm:.3f} vs mu^2-bound {limit:.3f} "
                f"{'ok' if ok else 'EXCEEDED'}"
            )
    details.append(f"worst sup/bound {worst:.3f} down to eps={eps:.4g}")
    # leading coefficient: h2/r - mu^2 ln r tends to the constant -mu^2 a
    deep = integrate_remainder(1e-6, P, TOL)
    far = deep.r >= 1e4
    offset = deep.h2[far] / deep.r[far] - mu2 * np.log(deep.r[far])
    spread = float(np.ptp(offset))
    coef_ok = spread < 5e-3
    details.append(
        f"eps=1e-6: h2/r - mu^2 ln r spread {spread:.2e} < 5e-3 on [1e4, 1e6] "
        f"(a={-offset[-1] / mu2:.4f})"
    )
    elapsed = time.perf_counter() - t0
    details.append(f"{elapsed:.1f}s")
    _report(10, agree and bound_ok and coef_ok and elapsed < 60.0, "; ".join(details))


def test_criterion_11_rescaling_commutation():
    _report_check(11, verify.check_rescaling_commutation(P, TOL))


def test_criterion_12_shifted_stability():
    _report_check(12, verify.check_stability_monotone(P, TOL))


def test_criterion_13_determinism(ground_state_run):
    env_first, _ = ground_state_run
    env_second = run_ground_state(RunConfig())
    a = json.dumps(env_first["payload"], sort_keys=True)
    b = json.dumps(env_second["payload"], sort_keys=True)
    _report(13, a.encode() == b.encode(), f"payloads byte-identical ({len(a)} bytes)")
