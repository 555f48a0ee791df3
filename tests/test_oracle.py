import math

import numpy as np
import pytest

from landaukol.landau2 import sigma1, sigma_inf_value, sigma_pointwise, PointwiseQuery
from landaukol.oracle import (
    BangBangControl,
    SimplexError,
    _decode,
    bangbang_sigma1_search,
    build_pointwise_lp,
    lp_max_pointwise_derivative,
    random_member,
    simplex_maximize,
)
from landaukol.pwpoly import membership, total_variation

SQRT2 = math.sqrt(2.0)


def test_simplex_small_known_lp():
    # max x + y st x <= 2, y <= 3, x + y <= 4  -> 4 at a vertex
    c = np.array([1.0, 1.0])
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = np.array([2.0, 3.0, 4.0])
    x, value, _ = simplex_maximize(c, A, b)
    assert value == pytest.approx(4.0, abs=1e-12)
    assert x.sum() == pytest.approx(4.0, abs=1e-12)


def test_simplex_rejects_negative_rhs():
    with pytest.raises(SimplexError):
        simplex_maximize(np.array([1.0]), np.array([[1.0]]), np.array([-1.0]))


def test_lp_matches_closed_forms_small():
    assert lp_max_pointwise_derivative(1, 1, 1.0, 0.0, 200) == pytest.approx(2.5, rel=0.02)
    assert lp_max_pointwise_derivative(1, 1, 4.0, 2.0, 200) == pytest.approx(SQRT2, rel=0.02)
    assert lp_max_pointwise_derivative(4, 1, 2.0, 0.0, 200) == pytest.approx(5.0, rel=0.02)
    # right-endpoint stencil mirrors the left one
    assert lp_max_pointwise_derivative(1, 1, 1.0, 1.0, 200) == pytest.approx(2.5, rel=0.02)


def test_lp_interior_matches_pointwise_formula():
    for (t0, T) in [(1.0, 10.0), (0.5, 2.0)]:
        closed = sigma_pointwise(PointwiseQuery(t0, T)).value
        lp = lp_max_pointwise_derivative(1, 1, T, t0, 200)
        assert lp == pytest.approx(closed, rel=0.02)


def test_lp_oh_slack_calibration():
    # |LP - closed| <= c h with c <= 5 across the order-2 suite
    cases = [(1, 1, 1.0, 0.0), (1, 1, 2.0, 0.0), (1, 1, 10.0, 5.0), (4, 1, 2.0, 0.0)]
    for (a, b, T, t0) in cases:
        closed = sigma_pointwise(PointwiseQuery(t0, T, a, b)).value
        for M in (100, 200):
            h = T / M
            lp = lp_max_pointwise_derivative(a, b, T, t0, M)
            assert abs(lp - closed) <= 5 * h


def test_lp_grid_convergence():
    v1 = lp_max_pointwise_derivative(1, 1, 10.0, 5.0, 100)
    v2 = lp_max_pointwise_derivative(1, 1, 10.0, 5.0, 200)
    assert abs(v1 - v2) <= 0.02 * v2


def test_lp_determinism_bit_identical():
    lp = build_pointwise_lp(1, 1, 2.0, 0.0, 100)
    v1, x1, i1 = lp.solve()
    v2, x2, i2 = lp.solve()
    assert v1 == v2 and i1 == i2
    assert np.array_equal(x1, x2)


def test_lp_solution_is_discretely_feasible():
    lp = build_pointwise_lp(1, 1, 2.0, 0.0, 100)
    value, v, _ = lp.solve()
    h = lp.h
    assert np.all(np.abs(v) <= 1 + 1e-9)
    second = v[:-2] - 2 * v[1:-1] + v[2:]
    assert np.all(np.abs(second) <= h * h + 1e-12)
    stencil = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * h)
    assert stencil == pytest.approx(value, abs=1e-9)


def test_lp_validates_input():
    with pytest.raises(ValueError):
        build_pointwise_lp(1, 1, 1.0, 0.0, 10)
    with pytest.raises(ValueError):
        build_pointwise_lp(1, 1, 1.0, 2.0, 100)


def test_bangbang_reaches_exact_sigma1_values():
    for T, target in [(2.0, 2.0), (3.0, 2.5)]:
        value, ctrl = bangbang_sigma1_search(1, 1, T, restarts=20, seed=7)
        assert value >= target - 1e-4
        assert value <= target + 1e-9  # certified lower bound never exceeds
        f = ctrl.to_piecewise(1.0, T)
        assert membership(f, 2, 1, 1).ok
        assert total_variation(f) == pytest.approx(value, abs=1e-8)


def test_bangbang_respects_sigma1_upper():
    for T in (1.3, 2.6, 5.1):
        value, _ = bangbang_sigma1_search(1, 1, T, restarts=20, seed=3)
        assert value <= sigma1(1, 1, T).upper + 1e-9


def test_bangbang_determinism():
    v1, c1 = bangbang_sigma1_search(1, 1, 2.5, restarts=20, seed=11)
    v2, c2 = bangbang_sigma1_search(1, 1, 2.5, restarts=20, seed=11)
    assert v1 == v2 and c1 == c2


def test_decode_matches_elementwise_clip():
    # the vectorized clip-and-sort against the per-element loop it replaced
    rng = np.random.default_rng(2024)
    for _ in range(50):
        theta = rng.uniform(-3.0, 8.0, size=int(rng.integers(2, 10)))
        f0, fp0, switches = _decode(theta, 5.0)
        assert (f0, fp0) == (float(theta[0]), float(theta[1]))
        assert switches == sorted(min(max(float(s), 0.0), 5.0) for s in theta[2:])


def test_bangbang_scaling():
    v, ctrl = bangbang_sigma1_search(2, 0.5, 4.0, restarts=20, seed=5)
    f = ctrl.to_piecewise(0.5, 4.0)
    assert membership(f, 2, 2, 0.5).ok
    assert v <= sigma1(2, 0.5, 4.0).upper + 1e-9


def test_bangbang_preconditions():
    with pytest.raises(ValueError):
        bangbang_sigma1_search(1, 1, 10.0, max_switches=2, restarts=20)
    with pytest.raises(ValueError):
        bangbang_sigma1_search(1, 1, 2.0, restarts=5)


def test_random_member_always_member():
    for seed in range(60):
        f = random_member(1, 1, 10.0, seed=seed)
        assert membership(f, 2, 1, 1).ok


def test_random_member_determinism():
    f1 = random_member(1, 1, 5.0, seed=123)
    f2 = random_member(1, 1, 5.0, seed=123)
    assert f1.knots == f2.knots
    assert f1.pieces == f2.pieces


def test_random_member_speed_never_exceeds_sup():
    worst = 0.0
    for seed in range(1000):
        f = random_member(1, 1, 10.0, seed=seed)
        for i in range(26):
            t = 10.0 * i / 25
            worst = max(worst, abs(float(f.deriv_value(t, 1))))
    assert worst <= sigma_inf_value(1, 1, 10.0) + 1e-9


def test_random_member_scaled_class():
    for seed in range(20):
        f = random_member(3.0, 0.25, 8.0, seed=seed)
        assert membership(f, 2, 3.0, 0.25).ok


def test_control_roundtrip():
    ctrl = BangBangControl(f0=-1.0, fp0=2.0, switches=(2 + SQRT2,), sign=-1)
    f = ctrl.to_piecewise(1.0, 2 * SQRT2 + 4)
    assert membership(f, 2, 1, 1).ok
    assert total_variation(f) == pytest.approx(6.0, abs=1e-9)
