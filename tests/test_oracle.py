import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.optimize import minimize as scipy_minimize

from landaukol import oracle
from landaukol.bounds import BoundQuery, Segment
from landaukol.landau2 import sigma1, sigma_inf, sigma_pointwise
from landaukol.oracle import (
    BangBangControl,
    SimplexError,
    _decode,
    _evaluate_bangbang,
    bangbang_sigma1_search,
    build_pointwise_lp,
    lp_max_pointwise_derivative,
    random_member,
    simplex_maximize,
)
from landaukol.pwpoly import MIN_KNOT_GAP, membership, piece_sup, total_variation

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
    # the all-slack start x = 0, s = b must lie within the bounds: b < 0,
    # b > s_max and x_max < 0 each leave it
    for b, bounds in [(-1.0, {}), (2.0, {"s_max": 1.0}), (1.0, {"x_max": -0.5})]:
        with pytest.raises(SimplexError):
            simplex_maximize(np.array([1.0]), np.array([[1.0]]), np.array([b]), **bounds)


def _random_box_lp(seed, m=30, n=600, density=0.02):
    """Sparse random rows over many variables, each variable boxed by 1: the
    pivot rows have nonzeros in several runs of columns far apart."""
    rng = np.random.default_rng(seed)
    A = np.vstack([rng.uniform(-1.0, 1.0, size=(m, n)) * (rng.random((m, n)) < density), np.eye(n)])
    b = np.concatenate([rng.uniform(0.0, 2.0, size=m), np.ones(n)])
    return rng.uniform(-1.0, 1.0, size=n), A, b


def _pointwise(T, t0, M):
    return build_pointwise_lp(1, 1, T, t0, M).solve()


def _random(seed):
    x, value, pivots = simplex_maximize(*_random_box_lp(seed))
    return value, x, pivots


# (value, pivots, sha256 of x).  random-2024, a general LP with no finite
# bound, comes from the dense-update simplex, which updated every column of the
# tableau on every pivot.  The pointwise rows come from the bounded-variable
# simplex over the M - 1 range rows; each value is within 1e-9 of HiGHS and
# within 2e-14 relative of the value of the earlier formulation, whose M + 1
# box rows and 2(M - 1) curvature rows were general <= rows.  The pins hold
# bit for bit on OpenBLAS's SkylakeX, Cooperlake and SapphireRapids kernels
# (5/5 with OPENBLAS_CORETYPE set to each); the Haswell and Zen `dger` rounds
# differently in the last bits (3/5 fail there), and SandyBridge fails 5/5
@pytest.mark.parametrize("solve, args, value, pivots, digest", [
    (_pointwise, (10, 5, 800), "1.4079646017699778", 572,
     "d9e60561787768dd2ea97d9ef0ac837a934f4dd927027e341bf0f45912eaf53b"),
    (_pointwise, (1, 0, 200), "2.500000000000019", 199,
     "012cc49238b4b9d3d032795e47a8aa1c120020fd37591a7c1de42f37202ca709"),
    (_pointwise, (4, 0.5, 200), "1.6166037735849124", 205,
     "f7011d41fed3e6183f04ebd4a961d89fb1cd75865f5e962b0539efea6c2346f0"),
    (_pointwise, (10, 5, 200), "1.389285714285715", 146,
     "9d7b063ec766fd22435f57c3d66097a6954a6ebec1c31fde70799c3f4e6a0f89"),
    (_random, (2024,), "144.33308368088413", 347,
     "355e878ea0346d62518aedb7deb35448529b4f2f07a859fb5c7a173cb27f0940"),
], ids=["interior-800", "short-200", "free-end-200", "interior-200", "random-2024"])
def test_simplex_outputs_are_pinned_bit_for_bit(solve, args, value, pivots, digest):
    v, x, p = solve(*args)
    assert (repr(v), p, hashlib.sha256(x.tobytes()).hexdigest()) == (value, pivots, digest)


def _highs_max(c, A_ub, b_ub, bounds):
    res = linprog(-c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert res.status == 0
    return -res.fun


@pytest.mark.parametrize("T, t0, M", [(1, 0, 200), (4, 0.5, 200), (10, 5, 200), (10, 5, 800)],
                         ids=["1-0", "4-0.5", "10-5", "10-5-800"])
def test_simplex_agrees_with_highs_on_pointwise_lps(T, t0, M):
    # the range rows -rhs <= A u <= rhs written as two one-sided blocks
    lp = build_pointwise_lp(1, 1, T, t0, M)
    highs = _highs_max(lp.c, np.vstack([lp.A, -lp.A]), np.concatenate([lp.rhs, lp.rhs]), (0, 2 * lp.a))
    assert lp.solve()[0] == pytest.approx(highs, rel=1e-9)


_quarters = st.integers(-8, 8).map(lambda k: k / 4)
# an upper bound (x_max_j, or s_max_i - b_i for a row): none, 0 (for a row,
# a degenerate range b_i <= A_i x <= b_i) or a quarter step up to 3
_widths = st.one_of(st.just(math.inf), st.integers(0, 12).map(lambda k: k / 4))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda m: st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(_quarters, min_size=n, max_size=n),
    st.lists(st.lists(_quarters, min_size=n, max_size=n), min_size=m, max_size=m),
    st.lists(st.integers(0, 12).map(lambda k: k / 4), min_size=m, max_size=m),
    st.lists(st.integers(1, 12).map(lambda k: k / 4), min_size=n, max_size=n),
    st.lists(_widths, min_size=n, max_size=n),
    st.lists(_widths, min_size=m + n, max_size=m + n),
))))
def test_simplex_agrees_with_highs_on_random_bounded_lps(lp):
    # rhs - s_max <= A x <= rhs with rhs >= 0 (degenerate when some rhs_i = 0
    # or s_max_i = rhs_i), 0 <= x <= x_max, and a box block
    c, rows, b, box, x_max, widths = (np.array(v, dtype=float) for v in lp)
    A = np.vstack([rows, np.eye(len(c))])
    rhs = np.concatenate([b, box])
    s_max = rhs + widths
    x, value, _ = simplex_maximize(c, A, rhs, x_max=x_max, s_max=s_max)
    assert np.all(A @ x <= rhs + 1e-9) and np.all(A @ x >= rhs - s_max - 1e-9)
    assert np.all(x >= -1e-9) and np.all(x <= x_max + 1e-9)
    assert value == pytest.approx(c @ x, rel=1e-9, abs=1e-12)
    lower = np.isfinite(s_max)
    highs = _highs_max(c, np.vstack([A, -A[lower]]), np.concatenate([rhs, (s_max - rhs)[lower]]),
                       [(0, None if math.isinf(u) else u) for u in x_max])
    assert value == pytest.approx(highs, rel=1e-9, abs=1e-12)


def test_simplex_refuses_an_update_that_did_not_run_in_place(monkeypatch):
    # a BLAS wrapper that returned a copy would drop the update silently
    monkeypatch.setattr(oracle, "dger", lambda alpha, x, y, a, overwrite_a: a.copy())
    with pytest.raises(SimplexError):
        simplex_maximize(np.array([1.0]), np.array([[1.0]]), np.array([1.0]))


def test_lp_matches_closed_forms_small():
    assert lp_max_pointwise_derivative(1, 1, 1.0, 0.0, 200) == pytest.approx(2.5, rel=0.02)
    assert lp_max_pointwise_derivative(1, 1, 4.0, 2.0, 200) == pytest.approx(SQRT2, rel=0.02)
    assert lp_max_pointwise_derivative(4, 1, 2.0, 0.0, 200) == pytest.approx(5.0, rel=0.02)
    # right-endpoint stencil mirrors the left one
    assert lp_max_pointwise_derivative(1, 1, 1.0, 1.0, 200) == pytest.approx(2.5, rel=0.02)


def test_lp_interior_matches_pointwise_formula():
    for (t0, T) in [(1.0, 10.0), (0.5, 2.0)]:
        closed = sigma_pointwise(BoundQuery(2, 1, 1.0, 1.0, Segment(T), t0=t0)).value
        lp = lp_max_pointwise_derivative(1, 1, T, t0, 200)
        assert lp == pytest.approx(closed, rel=0.02)


def test_lp_oh_slack_calibration():
    # |LP - closed| <= c h with c <= 5 across the order-2 suite
    cases = [(1, 1, 1.0, 0.0), (1, 1, 2.0, 0.0), (1, 1, 10.0, 5.0), (4, 1, 2.0, 0.0)]
    for (a, b, T, t0) in cases:
        closed = sigma_pointwise(BoundQuery(2, 1, a, b, Segment(T), t0=t0)).value
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
    # the search's list of plain floats against a clip and sort written out
    # element by element
    rng = np.random.default_rng(2024)
    for _ in range(50):
        theta = rng.uniform(-3.0, 8.0, size=int(rng.integers(2, 10))).tolist()
        f0, fp0, switches = _decode(theta, 5.0)
        assert (f0, fp0) == (float(theta[0]), float(theta[1]))
        assert switches == sorted(min(max(float(s), 0.0), 5.0) for s in theta[2:])


@pytest.mark.parametrize("a, b, T, seed", [
    (1, 1, 1.3, 1), (1, 1, 2.2, 2), (1, 1, 3.7, 4), (2, 0.5, 4.0, 5), (0.5, 3.0, 2.0, 6),
])
def test_bangbang_value_is_the_variation_of_its_member(a, b, T, seed):
    # the search and the member it reports skip the same short arcs, so the
    # value is the member's variation up to rounding, not up to a dropped arc
    value, ctrl = bangbang_sigma1_search(a, b, T, restarts=20, seed=seed)
    assert value == pytest.approx(total_variation(ctrl.to_piecewise(b, T)), rel=1e-12)


@st.composite
def _bangbang_controls(draw):
    b = draw(st.floats(0.1, 5.0))
    T = draw(st.floats(0.1, 10.0))
    switches = [T * s for s in draw(st.lists(st.floats(0.0, 1.0), max_size=8))]
    # switches a knot gap or less apart, and a little more than that
    for s, gap in draw(st.lists(st.tuples(st.floats(0.0, 1.0), st.sampled_from(
            [0.0, 0.5 * MIN_KNOT_GAP, MIN_KNOT_GAP, 3 * MIN_KNOT_GAP, 1e-9])), max_size=3)):
        switches += [T * s, min(T * s + gap, T)]
    f0, fp0 = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
    return f0, fp0, sorted(switches), draw(st.sampled_from([-1, 1])), b, T


@settings(max_examples=150, deadline=None)
@given(_bangbang_controls())
def test_evaluator_matches_the_member_it_describes(case):
    f0, fp0, switches, sign, b, T = case
    variation, max_abs = _evaluate_bangbang(f0, fp0, switches, sign, b, T)
    f = BangBangControl(f0, fp0, tuple(switches), sign).to_piecewise(b, T)
    sup = max(piece_sup(p, lo, hi, False) for p, lo, hi in zip(f.pieces, f.knots, f.knots[1:]))
    # a bound on |f| over the domain sets the scale of the rounding
    tol = 1e-11 * (abs(f0) + abs(fp0) * T + b * T * T)
    assert variation == pytest.approx(total_variation(f), rel=1e-11, abs=tol)
    assert max_abs == pytest.approx(sup, rel=1e-11, abs=tol)


def _rosenbrock(x):
    return sum(100.0 * (x[i + 1] - x[i] ** 2) ** 2 + (1.0 - x[i]) ** 2 for i in range(len(x) - 1))


def test_nelder_mead_follows_scipy_bit_for_bit():
    # numpy's argsort need not keep tied f values in order (its SIMD sorts
    # are not stable), while oracle.minimize keeps them in simplex order; so
    # the paths are compared only on runs whose evaluations never tie
    compared = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-2.0, 2.0, size=2 + seed % 5).tolist()
        opts = {"maxiter": 400 * (len(x0) + 1), "xatol": 1e-12, "fatol": 1e-14}
        seen = []
        ours = oracle.minimize(lambda x: seen.append(_rosenbrock(x)) or seen[-1], x0, **opts)
        if len(set(seen)) < len(seen):
            continue
        ref = scipy_minimize(_rosenbrock, np.array(x0), method="Nelder-Mead", options=opts)
        assert (ours.x, ours.nfev) == (ref.x.tolist(), ref.nfev), seed
        compared += 1
    assert compared >= 30


def test_nelder_mead_keeps_tied_vertices_in_simplex_order():
    # on a flat f every step ties, every step shrinks towards the first
    # vertex, and a stable order keeps x0 first until the simplex collapses
    x0 = [0.5, -2.0, 3.0]
    res = oracle.minimize(lambda x: 1.0, x0, maxiter=1000, xatol=1e-12, fatol=1e-14)
    assert res.x == x0 and res.x is not x0


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
    assert worst <= sigma_inf(1, 1, Segment(10.0)).value + 1e-9


def test_random_member_scaled_class():
    for seed in range(20):
        f = random_member(3.0, 0.25, 8.0, seed=seed)
        assert membership(f, 2, 3.0, 0.25).ok


def test_control_roundtrip():
    ctrl = BangBangControl(f0=-1.0, fp0=2.0, switches=(2 + SQRT2,), sign=-1)
    f = ctrl.to_piecewise(1.0, 2 * SQRT2 + 4)
    assert membership(f, 2, 1, 1).ok
    assert total_variation(f) == pytest.approx(6.0, abs=1e-9)
