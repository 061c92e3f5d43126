import math

import pytest

from diracshoot import Params, Tolerances
from diracshoot.shooting import capture_depth


def test_params_validation():
    Params(1.0, 0.5)
    with pytest.raises(ValueError):
        Params(1.0, 1.5)
    with pytest.raises(ValueError):
        Params(1.0, -0.1)
    with pytest.raises(ValueError):
        Params(-1.0, 0.5)
    with pytest.raises(ValueError):
        Params(1.0, 1.0)


def test_gap():
    assert Params(2.0, 0.5).gap == 1.5


def test_tolerances_resolution():
    p = Params(1.0, 0.5)
    t = Tolerances().resolved(p)
    # forty decay lengths 1/mu, mu = sqrt(m^2 - omega^2)
    assert p.mu == math.sqrt(0.75)
    assert t.rmax == 40.0 / p.mu == 46.188021535170066
    # an explicit horizon wins over the derived default
    t2 = Tolerances(rmax=30.0).resolved(p)
    assert t2.rmax == 30.0
    # every solver resolves its tolerances on entry, so a resolved instance,
    # or one with rmax set, comes back as it is, not copied
    assert t.resolved(p) is t and t2.resolved(p) is t2


def test_capture_depth_is_fixed_by_the_classifier():
    # delta and eta are the classifier's thresholds, fixed in shooting, so
    # no setting of Tolerances reaches them
    for p in (Params(1.0, 0.5), Params(2.3, 0.7), Params(1.0, 0.99)):
        assert capture_depth(p) == 1e-8 * p.gap ** 2
    for name in ("eta", "delta"):
        with pytest.raises(TypeError, match=name):
            Tolerances(**{name: 1e-8})


@pytest.mark.parametrize("m, omega", [(1e160, 5e159), (1e-160, 5e-161)], ids=["overflow", "underflow"])
def test_gap_whose_square_leaves_the_float_range_is_rejected(m, omega):
    # (m - omega)^2 overflows past 1.3e154; below 2e-158 the capture depth
    # 1e-8 (m - omega)^2 rounds to 0
    with pytest.raises(ValueError, match=r"m - omega = 5e[+-]\d+ must lie in \(1e-150, 1e150\)"):
        Tolerances().resolved(Params(m, omega))
    with pytest.raises(ValueError, match="m - omega"):
        Tolerances(rmax=30.0).resolved(Params(m, omega))


def test_mu_whose_square_is_not_a_positive_finite_float_is_rejected():
    # m - omega = 1e149 lies in range, but m^2 and omega^2 overflow to inf,
    # so m^2 - omega^2 is nan; the check comes before an explicit rmax returns
    p = Params(1e155, 1e155 - 1e149)
    for tol in (Tolerances(), Tolerances(rmax=30.0)):
        with pytest.raises(ValueError, match=r"m\^2 - omega\^2 at m = 1e\+155, .* is not a positive finite float"):
            tol.resolved(p)


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(rel=0.0)
    with pytest.raises(ValueError, match="abs must be positive"):
        Tolerances(abs=-1e-10)
    with pytest.raises(ValueError):
        Tolerances(rmax=-1.0)


def test_records_are_frozen_hashable_and_checked_by_name():
    # the NamedTuple records keep what the frozen dataclasses gave: no field
    # assignment, equal records hashing equal (they key the solvers' caches),
    # a TypeError that names an unknown field (Tolerances' eta and delta in
    # test_capture_depth_is_fixed_by_the_classifier), and their checks on
    # every build; test_tolerances_resolution checks that resolved returns
    # a record with rmax set as it is
    p, tol = Params(), Tolerances()
    for record, name in ((p, "m"), (tol, "rmax")):
        with pytest.raises(AttributeError):
            setattr(record, name, 2.0)
    assert Params(1.0, 0.5) == p and hash(Params(1.0, 0.5)) == hash(p)
    resolved = tol.resolved(p)
    assert resolved == Tolerances(rmax=40.0 / p.mu) and hash(resolved) == hash(Tolerances(rmax=40.0 / p.mu))
    assert len({p: 0, Params(m=1.0, omega=0.5): 1}) == 1
    with pytest.raises(TypeError, match="mass"):
        Params(mass=1.0)
    with pytest.raises(ValueError, match="need 0 < omega < m"):
        Params(omega=2.0)
    with pytest.raises(ValueError, match="rmax must be positive"):
        Tolerances(1e-10, 1e-10, 0.0)


def test_replace_runs_the_record_checks():
    # _replace builds its copy through _make, which the records route through
    # their checked constructor: each bad copy raises as a bad build does
    from diracshoot.cli import RunConfig

    for record, change, message in (
        (Params(), dict(omega=2.0), "need 0 < omega < m"),
        (Tolerances(), dict(rel=-1.0), "rel must be positive"),
        (RunConfig(), dict(resolution=0), "resolution must be at least 2"),
    ):
        with pytest.raises(ValueError, match=message):
            record._replace(**change)
        assert record._replace() == record
