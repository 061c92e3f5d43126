import pytest

from diracshoot import Params, Tolerances


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
    assert t.delta == pytest.approx(1e-8 * 0.25)
    assert t.rmax == pytest.approx(80.0)
    # explicit values win over derived defaults
    t2 = Tolerances(delta=1e-6, rmax=30.0).resolved(p)
    assert t2.delta == 1e-6 and t2.rmax == 30.0
    # H >= -(m - omega)^2/4, so no datum reaches a delta at that depth
    assert Tolerances(delta=0.0624).resolved(p).delta == 0.0624
    with pytest.raises(ValueError, match=r"depth \(m - omega\)\^2/4 = 0.0625"):
        Tolerances(delta=0.0625).resolved(p)
    # every solver resolves its tolerances on entry, so a resolved instance
    # comes back as it is, not copied; its delta is still checked
    assert t.resolved(p) is t and t2.resolved(p) is t2
    with pytest.raises(ValueError, match="depth"):
        Tolerances(delta=0.0624, rmax=30.0).resolved(Params(1.0, 0.9))


@pytest.mark.parametrize("m, omega", [(1e160, 5e159), (1e-160, 5e-161)], ids=["overflow", "underflow"])
def test_gap_whose_square_leaves_the_float_range_is_rejected(m, omega):
    # (m - omega)^2 overflows past 1.3e154; below 2e-158 the default delta
    # 1e-8 (m - omega)^2 rounds to 0
    with pytest.raises(ValueError, match=r"m - omega = 5e[+-]\d+ must lie in \(1e-150, 1e150\)"):
        Tolerances().resolved(Params(m, omega))
    with pytest.raises(ValueError, match="m - omega"):
        Tolerances(delta=1e-9, rmax=30.0).resolved(Params(m, omega))


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(rel=0.0)
    with pytest.raises(ValueError):
        Tolerances(rmax=-1.0)
    with pytest.raises(ValueError, match="delta must be positive"):
        Tolerances(delta=0.0)
