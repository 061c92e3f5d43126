import pytest

from diracshoot import verify


@pytest.fixture(scope="module")
def suite():
    # one run at (Params(), Tolerances()) serves every check's test id
    return verify.run_suite()


@pytest.mark.parametrize(
    "i",
    range(len(verify.ALL_CHECKS)),
    ids=[check.__name__.removeprefix("check_") for check in verify.ALL_CHECKS],
)
def test_check_passes(suite, i):
    r = suite[i]
    assert r.passed, f"{r.module}/{r.name}: {r.detail}"


def test_checks_resolve_the_tolerances_they_get():
    # each registered check resolves tol, as every solver does on entry, so a
    # direct call with the unresolved defaults passes as in run_suite
    # (decay_bound read the unset rmax and raised a TypeError)
    from diracshoot import Params, Tolerances

    results = [check(Params(), Tolerances()) for check in verify.ALL_CHECKS]
    assert [(r.name, r.detail) for r in results if not r.passed] == []


def test_suite_covers_every_module(suite):
    assert len(suite) == len(verify.ALL_CHECKS)
    modules = {r.module for r in suite}
    assert {"radial-core", "shooting", "asymptotics", "phaseflow", "cli"} <= modules


def test_result_names_are_the_check_names(suite):
    # the name verify prints is the test id, so -k <name> selects that check
    assert [r.name for r in suite] == [c.__name__.removeprefix("check_") for c in verify.ALL_CHECKS]


def test_raising_check_is_a_failure_of_its_module(monkeypatch, capsys):
    import json

    from diracshoot import asymptotics, cli

    def broken(grid):
        raise RuntimeError("broken residual")

    monkeypatch.setattr(asymptotics, "bubble_residual", broken)
    assert cli.main(["verify"]) == 3
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["payload"]["checks"]}
    assert checks["bubble_exactness"] == {
        "name": "bubble_exactness",
        "module": "asymptotics",
        "passed": False,
        "detail": "raised RuntimeError('broken residual')",
    }
    assert all(c["passed"] for name, c in checks.items() if name != "bubble_exactness")


def test_corrupted_bubble_is_caught(monkeypatch):
    from diracshoot import asymptotics

    real = asymptotics.bubble

    def corrupted(r):
        u0, v0 = real(r)
        return u0, v0 * (1.0 + 1e-3)

    monkeypatch.setattr(asymptotics, "bubble", corrupted)
    results = verify.run_suite()
    assert any(not r.passed for r in results)
    names = {r.name for r in results if not r.passed}
    assert "bubble_limit_agreement" in names


@pytest.mark.parametrize("m", [4.0, 1e4])
def test_bisection_bracketing_holds_at_large_lambda_star(m):
    # the check classifies lambda* -+ d with full-horizon DP5 runs, and the
    # search's trials run DOP853: at (1e4, 5e3), lambda* = 180.79, the two put
    # the transition 5.4e-9 apart, and a fixed d = 1e-9 failed there; d =
    # max(10 tol.abs, 2 tol.rel lambda*) is 3.6e-8 there and 1e-9 at (4, 2),
    # where the transitions lie 2.1e-10 apart
    from diracshoot import Params, Tolerances

    r = verify.check_bisection_bracketing(Params(m, m / 2), Tolerances())
    assert r.passed, r.detail


def test_bisection_bracketing_catches_a_displaced_lambda_star(monkeypatch):
    # lambda* moved by 1e-7 (relative), 180 times the check's offset at (1, 0.5)
    from diracshoot import Params, Tolerances

    real = verify.ground_state

    def displaced(p, tol):
        gs = real(p, tol)
        return gs._replace(lambda_star=gs.lambda_star * (1.0 + 1e-7))

    monkeypatch.setattr(verify, "ground_state", displaced)
    r = verify.check_bisection_bracketing(Params(), Tolerances())
    assert not r.passed and r.detail.startswith("lambda*-1e-9 -> "), r.detail


def test_certificate_soundness_counts_the_nodes_of_a_captured_run(monkeypatch):
    # a captured datum with two sign changes of v past its certificate's R
    # has one more than the certificate allows, whatever its verdict
    from diracshoot import Event, EventKind, Trajectory

    real = verify.classify

    def two_late_nodes(lam, p, tol, **kw):
        c = real(lam, p, tol, **kw)
        t, R = c.trajectory, c.certificate.R
        late = tuple(Event(EventKind.V_SIGN_CHANGE, R + d, (0.0, 0.0)) for d in (1e-3, 2e-3))
        assert c.verdict == "A"
        events = t.events[:-1] + late + t.events[-1:]
        return c._replace(trajectory=Trajectory(t.columns, events, t.status, t.stats))

    monkeypatch.setattr(verify, "classify", two_late_nodes)
    r = verify.check_certificate_soundness(verify.Params(), verify.Tolerances())
    assert (r.passed, r.detail) == (False, "violated at lambda=1.5")


def test_envelope_determinism_renders_an_integrated_run(monkeypatch):
    # lambda = 0.5 starts inside {H < -delta}, a one-sample run with empty
    # stats; the check also renders an integrated run, 2.0 of A(1)
    from diracshoot import cli

    real, envelopes = cli.run_classify, []

    def kept(cfg):
        envelopes.append(real(cfg))
        return envelopes[-1]

    monkeypatch.setattr(cli, "run_classify", kept)
    assert verify.check_envelope_determinism(verify.Params(), verify.Tolerances()).passed
    assert len(envelopes) == 2
    samples = [c["summary"]["samples"] for c in envelopes[0]["payload"]["classifications"]]
    assert max(samples) > 1


def test_suite_caches_live_for_one_run(monkeypatch):
    # a second run recomputes the shared ground state and remainders, so it
    # sees a bubble corrupted after the first run
    from diracshoot import asymptotics

    real = asymptotics.bubble
    assert all(r.passed for r in verify.run_suite() if r.name == "remainder_crosscheck")
    monkeypatch.setattr(asymptotics, "bubble", lambda r: tuple(1.01 * x for x in real(r)))
    results = {r.name: r.passed for r in verify.run_suite()}
    assert results["remainder_crosscheck"] is False


def test_ground_state_cache_keys_on_all_tolerances():
    from diracshoot import Params, Tolerances, ground_state

    p = Params(1.0, 0.5)
    a = verify._shared(ground_state, p, Tolerances(rmax=80.0))
    b = verify._shared(ground_state, p, Tolerances(rmax=60.0))
    assert a is not b
    assert a.profile.r[-1] == 80.0
    assert b.profile.r[-1] == 60.0


def test_remainder_checks_share_one_integration_per_eps(monkeypatch):
    from diracshoot import Params, Tolerances, asymptotics

    real = asymptotics.integrate_remainder
    calls = []

    def counted(epsilons, p, tol):
        calls.extend(epsilons)
        return real(epsilons, p, tol)

    monkeypatch.setattr(asymptotics, "integrate_remainder", counted)
    p = Params()
    tol = Tolerances().resolved(p)
    verify._shared.cache_clear()
    try:
        assert verify.check_remainder_crosscheck(p, tol).passed
        assert verify.check_remainder_threshold(p, tol).passed
    finally:
        verify._shared.cache_clear()
    assert calls == [0.2, 0.1, 0.05]


def _flow_key(f):
    """A flow by its formula and constants, or by its code and the flows and
    values its closure holds (the shifted flows of stability_compare)."""
    if hasattr(f, "formula"):
        return f.formula
    cells = tuple(c.cell_contents for c in f.__closure__ or ())
    return f.__code__, tuple(_flow_key(c) if callable(c) else c for c in cells)


def test_suite_repeats_only_its_deliberate_runs(monkeypatch):
    # every solve of the suite, keyed on its flow, span, start, tolerances
    # and detectors: the radial checks and attraction share one horizon run
    # per datum and stability_compare one autonomous run, so the only exact
    # repeats are envelope_determinism's two classify(2.0) runs (classify(2.0)
    # of classification_evidence is the first) and the rescaled eps = 0.1 run
    # that integrate_remainder integrates again after rescaling_commutation
    import sys

    from diracshoot import Params, Tolerances, integrator, radial_flow, rescaled_params, series_start
    from diracshoot.shooting import _events

    real = integrator.solve
    runs = []

    def counted(f, r_span, y0, *, rel, abs_tol, detectors=(), g=None, pair=integrator.DP5):
        t = real(f, r_span, y0, rel=rel, abs_tol=abs_tol, detectors=detectors, g=g, pair=pair)
        key = (_flow_key(f), tuple(map(float, r_span)), tuple(map(float, y0)), rel, abs_tol, tuple(detectors), pair)
        runs.append((key, t.stats["nfev"]))
        return t

    for name, mod in list(sys.modules.items()):
        if name.startswith("diracshoot.") and getattr(mod, "solve", None) is real:
            monkeypatch.setattr(mod, "solve", counted)
    assert all(r.passed for r in verify.run_suite())

    seen, repeats = set(), []
    for key, nfev in runs:
        if key in seen:
            repeats.append((key, nfev))
        seen.add(key)
    p = Params()
    tol = Tolerances().resolved(p)
    r2, y2 = series_start(2.0, p, tol)
    classify2 = (radial_flow(p).formula, (r2, tol.rmax), y2, tol.rel, tol.abs, _events(p, False)[1], integrator.DP5)
    (rescaled, n_rescaled), *envelope = repeats
    assert envelope == [(classify2, 632)] * 2
    assert (rescaled[0], rescaled[1][1], n_rescaled) == (radial_flow(rescaled_params(0.1, p)).formula, 10.0, 434)
    assert sum(nfev for _, nfev in runs) <= 74396


def test_taylor_consistency_catches_a_perturbed_series_start(monkeypatch):
    # v of the start at the default tolerance moved by 1e-9, ten times the
    # accuracy rel lambda + abs at lambda = 0.5; the tight start is left as it is
    real = verify.series_start

    def perturbed(lam, p, tol):
        r, (u, v) = real(lam, p, tol)
        return r, (u, v + 1e-9 if tol.rel > 1e-14 else v)

    monkeypatch.setattr(verify, "series_start", perturbed)
    p, tol = verify.Params(), verify.Tolerances()
    assert verify.check_taylor_consistency(p, tol.resolved(p)).passed is False


def test_taylor_consistency_integrates_at_rel_1e_15(monkeypatch):
    # the tight series sums to tol / 1e4, so at rel = abs = 1e-15 every datum
    # starts nearer the origin than the start at tol and is integrated to it
    # (when it summed to min(tol, 1e-14), it was the start at tol, with a
    # defect of 0); the check passes, and fails on a perturbed start
    p = verify.Params()
    tol = verify.Tolerances(rel=1e-15, abs=1e-15).resolved(p)
    real_solve, real_start = verify.solve, verify.series_start
    runs = []

    def counted(f, r_span, y0, **kwargs):
        runs.append(r_span)
        return real_solve(f, r_span, y0, **kwargs)

    monkeypatch.setattr(verify, "solve", counted)
    assert verify.check_taylor_consistency(p, tol).passed
    assert len(runs) == 3 and all(r_t < r_s for r_t, r_s in runs)

    def perturbed(lam, p, tol):
        # v of the start at tol moved by ten times rel lambda + abs
        r, (u, v) = real_start(lam, p, tol)
        return r, (u, v + 10.0 * (tol.rel * lam + tol.abs) if tol.rel == 1e-15 else v)

    monkeypatch.setattr(verify, "series_start", perturbed)
    assert verify.check_taylor_consistency(p, tol).passed is False


def test_suite_integrates_each_rescaled_run_once(monkeypatch):
    # the checks read one cached run per (eps, r_end), the run to 1/0.1 = 10
    # serving both rescaling_commutation and rescaled_energy; the remainder
    # integrates its own run per eps, as asymptotics does
    import sys

    from diracshoot import asymptotics

    real = asymptotics.integrate_rescaled
    calls = {"diracshoot.verify": [], "diracshoot.asymptotics": []}

    def counted(eps, p, tol, r_end=None, horizon=None):
        calls[sys._getframe(1).f_globals["__name__"]].append((eps, r_end))
        return real(eps, p, tol, r_end, horizon)

    monkeypatch.setattr(asymptotics, "integrate_rescaled", counted)
    verify.run_suite()
    checks, remainder = calls["diracshoot.verify"], calls["diracshoot.asymptotics"]
    assert sorted(checks) == [(1e-08, 20.0), (0.1, 10.0), (0.3, 1.0 / 0.3), (0.5, 5.0)]
    assert sorted(remainder) == [(0.05, 20.0), (0.1, 10.0), (0.2, 5.0)]
