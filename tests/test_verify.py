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

    def counted(eps, p, tol):
        calls.append(eps)
        return real(eps, p, tol)

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


def test_suite_integrates_each_radial_datum_once(monkeypatch):
    # energy_monotone and confinement share the run of lambda = 0.5 to the
    # horizon, sign_symmetry and rate_identities that of lambda = 1.3 to r = 20
    from diracshoot import Params, Tolerances

    real = verify.solve
    runs = []

    def counted(f, r_span, y0, **kwargs):
        runs.append((tuple(r_span), tuple(y0)))
        return real(f, r_span, y0, **kwargs)

    monkeypatch.setattr(verify, "solve", counted)
    assert all(r.passed for r in verify.run_suite())
    # the two shared runs came to 16 integrations before; 6 data run to the
    # horizon, 2 to r = 20 (the autonomous run ends at r = 50, series_consistency
    # runs 3 short spans)
    horizon = Tolerances().resolved(Params()).rmax
    assert len(runs) == len(set(runs)) == 14
    assert sum(1 for (_, end), _ in runs if end in (horizon, 20.0)) == 8


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
    assert sorted(checks) == [(0.0, 20.0), (0.1, 10.0), (0.3, 1.0 / 0.3), (0.5, 5.0)]
    assert sorted(remainder) == [(0.05, 20.0), (0.1, 10.0), (0.2, 5.0)]
