import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracshoot import (
    Params,
    Tolerances,
    attraction_report,
    equilibria,
    hamiltonian,
    horizon_run,
    level_set,
    stability_compare,
)

P = Params(1.0, 0.5)
TOL = Tolerances()


def _residual(level, p, **kw):
    pieces = level_set(level, p, **kw)
    if not pieces:
        return 0.0
    H = np.array([hamiltonian((u, v), p) for u, v in np.vstack(pieces)])
    return float(np.max(np.abs(H - level)))


def test_zero_level_contains_saddle_and_axis_crossings():
    pieces = level_set(0.0, P)
    assert len(pieces) == 2  # two lobes meeting at the origin
    pts = np.vstack(pieces)
    assert np.min(np.hypot(pts[:, 0], pts[:, 1])) == 0.0
    vb = math.sqrt(2.0 * P.gap)
    assert np.min(np.hypot(pts[:, 0], pts[:, 1] - vb)) < 1e-12
    assert np.min(np.hypot(pts[:, 0], pts[:, 1] + vb)) < 1e-12


def test_minimum_level_degenerates_to_points():
    pieces = level_set(-P.gap ** 2 / 4.0, P)
    pts = sorted(tuple(map(float, q)) for piece in pieces for q in piece)
    v0 = math.sqrt(P.gap)
    assert pts[0] == pytest.approx((0.0, -v0))
    assert pts[-1] == pytest.approx((0.0, v0))


def test_below_minimum_is_empty():
    assert level_set(-1.0, P) == ()


def test_negative_level_two_ovals():
    assert len(level_set(-0.03, P)) == 2
    assert _residual(-0.03, P) < 1e-9


def test_positive_level_single_curve():
    (piece,) = level_set(0.2, P)  # its residual is verify's levelset_residual
    assert np.allclose(piece[0], piece[-1])  # closed polyline


@pytest.mark.parametrize("level", [0.0, -P.gap ** 2 / 8.0, 0.2])
def test_columnwise_energy_is_bitwise_the_per_point_calls(level):
    # verify's levelset_residual evaluates H once on the point columns; the
    # elementwise operations are the scalar ones, so the values are the same
    pts = np.vstack(level_set(level, P))
    per_point = np.array([hamiltonian((u, v), P) for u, v in pts])
    assert hamiltonian((pts[:, 0], pts[:, 1]), P).tobytes() == per_point.tobytes()
    # and so are the values of float lists, the portrait's r, u, v, H table
    assert np.array(hamiltonian((pts[:, 0].tolist(), pts[:, 1].tolist()), P)).tobytes() == per_point.tobytes()


@pytest.mark.parametrize(("level", "resolution"), [(0.0, 512), (-0.03, 16), (-P.gap ** 2 / 8.0, 33), (0.2, 2)])
def test_level_set_pieces_are_the_numpy_columns(level, resolution):
    # each piece climbs its v-span at np.linspace's points, bitwise, with u
    # the numpy column of the root q(v), then comes back down on the mirror
    # image u -> -u and closes on its first point
    mp = P.m + P.omega
    for piece in level_set(level, P, resolution):
        right = piece[:resolution]
        v = np.linspace(right[0][1], right[-1][1], resolution)
        u = np.sqrt(np.maximum(-mp + np.sqrt(mp * mp + 4.0 * (P.m * v * v + level)) - v * v, 0.0))
        assert right == list(zip(u.tolist(), v.tolist()))
        assert piece[resolution:] == [(-a, b) for a, b in right[-2:0:-1]] + right[:1]


@pytest.mark.parametrize("resolution", [1, 0, -3])
def test_level_set_needs_two_points_per_span(resolution):
    # one point leaves no step between a span's ends, fewer no point at all
    with pytest.raises(ValueError, match="resolution must be at least 2, got"):
        level_set(-0.03, P, resolution)


def test_level_set_past_the_float_range_raises():
    # at (1, 0.5) the radicand (m + omega)^2 + 4 (m v_hi^2 + level) of the curve's top overflows from 4.5e307,
    # where the set held inf and nan points
    assert all(math.isfinite(x) for piece in level_set(4.4e307, P, 8) for pt in piece for x in pt)
    with pytest.raises(ValueError, match="the level set of 4.5e[+]307 leaves the float range"):
        level_set(4.5e307, P)


@given(st.floats(-0.06, 2.0))
@settings(max_examples=25, deadline=None)
def test_levelset_residual_random_levels(level):
    assert _residual(level, P, resolution=128) < 1e-9


def _report(lam):
    return attraction_report(horizon_run(lam, P, TOL), P)


def test_attraction_report_small_datum():
    rep = _report(0.5)
    assert rep.nearest_equilibrium[1] == pytest.approx(math.sqrt(P.gap))
    # the energy window and the spiral's alternations are verify's attraction
    assert rep.terminal_distance < 0.05  # slow 1/r energy drain of the spiral


def test_attraction_report_nodal_datum_lands_on_lower_lobe():
    rep = _report(2.0)
    assert rep.nearest_equilibrium[1] == pytest.approx(-math.sqrt(P.gap))
    assert rep.terminal_distance < 0.1


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_attraction_report_lands_on_the_nearest_well_of_equilibria(lam):
    # the wells are equilibria's last two points, the upper one first
    rep = _report(lam)
    u, v = horizon_run(lam, P, TOL).final_state
    dist = {pt: math.hypot(u - pt[0], v - pt[1]) for pt, _H in equilibria(P)[1:]}
    nearest = min(dist, key=dist.get)
    assert rep.nearest_equilibrium == nearest
    assert rep.terminal_distance == dist[nearest]


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_attraction_alternations_are_the_numpy_count(lam):
    # the sign changes of u after the entry, zeros left out, as numpy counts them
    t = horizon_run(lam, P, TOL)
    rep = attraction_report(t, P)
    signs = np.sign(t.u[t.r >= rep.entered_at])
    signs = signs[signs != 0.0]
    assert rep.u_sign_alternations == np.count_nonzero(np.diff(signs)) > 2


def test_attraction_report_requires_captured_datum():
    with pytest.raises(ValueError, match=r"got I-candidate\(0\)"):
        _report(1.8078961488783114)  # near-connection datum


def test_stability_zero_horizon():
    assert stability_compare((1e3, 2e3), (0.0, 1.0), 0.0, P, TOL) == [0.0, 0.0]


def test_stability_rejects_bad_rho():
    with pytest.raises(ValueError):
        stability_compare((1e3, -1.0), (0.0, 1.0), 1.0, P, TOL)


def test_stability_rejects_negative_horizon():
    with pytest.raises(ValueError, match="T must be nonnegative"):
        stability_compare((1e3,), (0.0, 1.0), -1.0, P, TOL)


def test_stability_from_equilibrium_is_small():
    v0 = math.sqrt(P.gap)
    (dev,) = stability_compare((1e4,), (0.0, v0), 10.0, P, TOL)
    assert dev < 1e-3  # u stays 0, the singular term never activates


@pytest.mark.parametrize("offset", [1e-9, 1e-11])
def test_tiny_ovals_just_above_minimum(offset):
    # the span ends are closed-form roots, so ovals far smaller than any
    # scan spacing are still found
    level = -P.gap ** 2 / 4.0 + offset
    assert len(level_set(level, P)) == 2
    assert _residual(level, P) < 1e-12


@pytest.mark.parametrize(("level", "n_pieces"), [(1e-10, 2), (1e-8, 1)])
def test_pinch_rule_near_zero_level(level, n_pieces):
    # a curve with q(0) <= 1e-9 is split into two lobes at the saddle
    assert len(level_set(level, P)) == n_pieces
