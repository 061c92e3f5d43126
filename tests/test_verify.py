from diracshoot import verify


def test_full_suite_passes():
    results = verify.run_suite()
    failed = [r for r in results if not r.passed]
    assert not failed, "; ".join(f"{r.module}/{r.name}: {r.detail}" for r in failed)


def test_suite_covers_every_module():
    modules = {r.module for r in verify.run_suite()}
    assert {"radial-core", "shooting", "asymptotics", "phaseflow", "cli"} <= modules


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


def test_ground_state_cache_keys_on_all_tolerances():
    from diracshoot import Params, Tolerances

    p = Params(1.0, 0.5)
    a = verify._ground_state_cached(p, Tolerances(rmax=80.0))
    b = verify._ground_state_cached(p, Tolerances(rmax=60.0))
    assert a is not b
    assert a.profile.r[-1] == 80.0
    assert b.profile.r[-1] == 60.0
