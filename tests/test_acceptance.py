"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run with `pytest tests/test_acceptance.py -v -s`)."""
import math
import time
from fractions import Fraction

import pytest

from landaukol.bounds import FullLine, HalfLine, Segment
from landaukol.eulerspline import favard, r_n, s_n
from landaukol.exactnum import Poly, euler_number
from landaukol.landau2 import PointwiseQuery, prolong_affine, sigma1, sigma_inf, sigma_pointwise
from landaukol.landaun import (
    B_nk_kallioniemi,
    B_nk_lower,
    kolmogorov_bound,
    sato_segment,
    sato_t0,
)
from landaukol.oracle import bangbang_sigma1_search, lp_max_pointwise_derivative, random_member
from landaukol.peano import (
    LinearFunctional,
    _solve_exact,
    deriv_kernel_l1_exact,
    derivative_functional,
    kernel_pieces,
)
from landaukol.pwpoly import PiecewisePoly, is_extreme_point, membership, transform

SQRT2 = math.sqrt(2.0)
_T0 = time.perf_counter()


def _report(k: int, message: str) -> None:
    print(f"ACCEPTANCE {k}: PASS - {message}")


def _favard_series(n: int, terms: int = 20000) -> float:
    """Independent oracle: partial sum plus an Euler-Maclaurin tail bound."""
    s = n + 1
    if n % 2 == 1:
        total = sum((2 * k + 1.0) ** (-s) for k in range(terms))
        K = terms
        f = (2 * K + 1.0) ** (-s)
        fp = -2 * s * (2 * K + 1.0) ** (-s - 1)
        total += (2 * K + 1.0) ** (1 - s) / (2 * (s - 1)) + f / 2 - fp / 12
    else:
        J = terms // 2
        total = sum((4 * j + 1.0) ** (-s) - (4 * j + 3.0) ** (-s) for j in range(J))
        if s == 1:
            integral = 0.25 * math.log((4 * J + 3.0) / (4 * J + 1.0))
        else:
            integral = ((4 * J + 1.0) ** (1 - s) - (4 * J + 3.0) ** (1 - s)) / (4 * (s - 1))
        g = (4 * J + 1.0) ** (-s) - (4 * J + 3.0) ** (-s)
        gp = -4 * s * ((4 * J + 1.0) ** (-s - 1) - (4 * J + 3.0) ** (-s - 1))
        total += integral + g / 2 - gp / 12
    return 4 / math.pi * total


def test_criterion_1_exact_constants():
    start = time.perf_counter()
    assert [euler_number(m) for m in range(9)] == [1, 0, -1, 0, 5, 0, -61, 0, 1385]
    expected_r = [
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(1, 4),
        Fraction(5, 16),
        Fraction(1, 2),
    ]
    assert [r_n(n) for n in range(6)] == expected_r
    assert abs(favard(1) - math.pi / 2) <= 1e-12
    worst = max(abs(favard(n) - _favard_series(n)) for n in range(11))
    assert worst <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"exact constants; series agreement {worst:.2e}; {elapsed:.2f}s")


def test_criterion_2_order2_closed_forms():
    for T, expected in [(1, 2.5), (2, 2.0), (10, 2.0)]:
        assert abs(sigma_inf(1, 1, Segment(T)).value - expected) <= 1e-12
    assert abs(sigma_inf(1, 1, FullLine).value - SQRT2) <= 1e-12
    targets = [((0, 2), 2.0), ((1, 10), math.sqrt(6) - 1), ((2, 6), SQRT2)]
    for (t0, T), expected in targets:
        assert abs(sigma_pointwise(PointwiseQuery(t0, T)).value - expected) <= 1e-12
    _report(2, "segment/half-line/line sup and three pointwise branches to 1e-12")


def test_criterion_3_lp_oracle_agreement():
    t = time.perf_counter()
    v1 = lp_max_pointwise_derivative(1, 1, 1.0, 0.0, 800)
    t1 = time.perf_counter() - t
    assert t1 < 60
    assert abs(v1 - 2.5) <= 0.02 * 2.5

    t = time.perf_counter()
    v2 = lp_max_pointwise_derivative(1, 1, 10.0, 5.0, 800)
    t2 = time.perf_counter() - t
    assert t2 < 60
    assert abs(v2 - SQRT2) <= 0.02 * SQRT2

    v1_400 = lp_max_pointwise_derivative(1, 1, 1.0, 0.0, 400)
    v2_400 = lp_max_pointwise_derivative(1, 1, 10.0, 5.0, 400)
    assert abs(v1_400 - v1) <= 0.02 * v1
    assert abs(v2_400 - v2) <= 0.02 * v2
    _report(3, f"LP within 2% ({v1:.4f}, {v2:.4f}); times {t1:.1f}s/{t2:.1f}s; grids agree")


def test_criterion_4_sigma1_suite():
    assert abs(sigma1(1, 1, 2).exact - 2.0) <= 1e-12
    assert abs(sigma1(1, 1, 3).exact - 2.5) <= 1e-12
    assert abs(sigma1(1, 1, 2 * SQRT2 + 4).exact - 6.0) <= 1e-9

    gaps = []
    for T, target in [(2.0, 2.0), (3.0, 2.5), (2 * SQRT2 + 4, 6.0)]:
        t = time.perf_counter()
        value, _ = bangbang_sigma1_search(1, 1, T, restarts=50, seed=2024)
        elapsed = time.perf_counter() - t
        assert elapsed < 120
        assert value >= target - 1e-3
        assert value <= target + 1e-9
        gaps.append(target - value)

    res = sigma1(1, 1, 100)
    assert res.exact is None
    assert res.lower >= 70.71 and res.upper <= 75.71
    _report(4, f"sigma1 exact + search gaps {[f'{g:.1e}' for g in gaps]}; interval "
               f"[{res.lower:.2f}, {res.upper:.2f}] in [70.71, 75.71]")


def test_criterion_5_kolmogorov_constants():
    assert abs(kolmogorov_bound(2, 1, 1, 1) - SQRT2) <= 1e-12
    assert abs(kolmogorov_bound(3, 1, 1, 1) - (9 / 8) ** (1 / 3)) <= 1e-12
    cap = math.pi / 2
    for n in range(2, 13):
        for k in range(n + 1):
            assert kolmogorov_bound(n, k, 1, 1) <= cap + 1e-12
    _report(5, "whole-line constants sharp at (2,1), (3,1); all n <= 12 below pi/2")


def test_criterion_6_sato_suite():
    t0 = sato_t0(1, 1)
    for k in (1, 2):
        below = sato_segment(k, 1, 1, t0 * (1 - 1e-12)).value_for(k)
        above = sato_segment(k, 1, 1, t0 * (1 + 1e-12)).value_for(k)
        assert abs(below - above) <= 1e-9
    assert abs(sato_segment(1, 1, 1, 1e9).value_k1 - 3 ** (5 / 3) / 2) <= 1e-12
    assert abs(sato_segment(2, 1, 1, 1e9).value_k2 - 2 * 3 ** (1 / 3)) <= 1e-12
    assert abs(sato_segment(1, 1, 1, t0).alpha - 1 / 3) <= 1e-12
    _report(6, "order-3 segment: continuity at T0, sharp limits, alpha(T0) = 1/3")


def _two_contact_extreme(t0, T):
    t0, T = Fraction(t0), Fraction(T)
    C = 2 / T + (t0**2 + (T - t0) ** 2) / (2 * T)
    left = Poly([Fraction(-1), C - t0, Fraction(1, 2)])
    right = Poly([Fraction(1), C - T + t0, Fraction(-1, 2)]).compose_affine(-T, Fraction(1))
    return PiecewisePoly([Fraction(0), t0, T], [left, right], 2)


def test_criterion_7_extreme_point_certifier():
    start = time.perf_counter()
    f = _two_contact_extreme(1, 2)
    assert is_extreme_point(f, 2, Fraction(1), Fraction(1)).is_extreme

    cap = PiecewisePoly([Fraction(0), Fraction(1)], [Poly([Fraction(1), Fraction(0), Fraction(-1, 2)])], 2)
    assert is_extreme_point(cap, 2, Fraction(1), Fraction(1)).is_extreme

    zero = PiecewisePoly([Fraction(0), Fraction(1)], [Poly([Fraction(0)])], 2)
    assert not is_extreme_point(zero, 2, Fraction(1), Fraction(1)).is_extreme

    g = PiecewisePoly(
        [Fraction(0), Fraction(2)],
        [Poly([Fraction(-1), Fraction(2), Fraction(-1, 2)])],
        2,
    )
    mid = PiecewisePoly(
        f.knots,
        [(f.pieces[0] + g.pieces[0]) * Fraction(1, 2), (f.pieces[1] + g.pieces[0]) * Fraction(1, 2)],
        2,
    )
    assert membership(mid, 2, 1, 1).ok
    assert not is_extreme_point(mid, 2, Fraction(1), Fraction(1)).is_extreme
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(7, f"certifier accepts both extremes, rejects zero and midpoint; {elapsed:.2f}s")


def _random_order2_functional(rng, T):
    if rng.random() < 0.5:
        return derivative_functional(Fraction(rng.randint(0, 16), 16) * T, T)
    while True:
        alphas = sorted(Fraction(rng.randint(0, 24), 24) * T for _ in range(3))
        if len(set(alphas)) == 3:
            break
    matrix = [[alphas[i] ** j for i in range(2)] for j in range(2)]
    rhs = [-(alphas[2] ** j) for j in range(2)]
    (sol,) = _solve_exact(matrix, [rhs])
    terms = tuple((alphas[i], 0, sol[i]) for i in range(2)) + ((alphas[2], 0, Fraction(1)),)
    return LinearFunctional(terms, T, 2)


def test_criterion_8_peano_representation():
    import random

    rng = random.Random(808)
    worst = 0.0
    for trial in range(50):
        T = float(rng.randint(1, 3))
        L = _random_order2_functional(rng, Fraction(int(T)))
        f = random_member(1, 1, T, seed=trial)
        lhs = L(f)
        rhs = 0.0
        fknots = [float(k) for k in f.knots]
        for lo, hi, poly in kernel_pieces(L):
            cuts = sorted({float(lo), float(hi)} | {k for k in fknots if float(lo) < k < float(hi)})
            anti = poly.antiderivative().to_float()
            for u, v in zip(cuts, cuts[1:]):
                mid = (u + v) / 2
                fpp = float(f.pieces[f.piece_index(mid)].nth_derivative(2)(mid))
                rhs += fpp * (anti(v) - anti(u))
        rel = abs(lhs - rhs) / max(1.0, abs(lhs))
        worst = max(worst, rel)
        assert rel <= 1e-8
    assert deriv_kernel_l1_exact(Fraction(0), Fraction(2)) == 1
    _report(8, f"50 random representation identities, worst rel err {worst:.2e}; "
               "L1 norm at (x=0, T=2) exactly 1")


def test_criterion_9_kallioniemi_ratio():
    lo, hi = math.inf, 0.0
    for n in range(2, 11):
        for k in range(1, n):
            ratio = B_nk_kallioniemi(n, k) / B_nk_lower(n, k)
            lo, hi = min(lo, float(ratio)), max(hi, float(ratio))
            assert 1 < ratio <= 2
    _report(9, f"admissible-constant ratio in (1, 2]: observed [{lo:.3f}, {hi:.3f}]")


def test_criterion_10_property_suites():
    import random

    rng = random.Random(1010)

    # comparison inequality on 200 random members, T >= 2 sqrt(2)
    violations = 0
    for trial in range(200):
        T = rng.uniform(2 * SQRT2, 12.0)
        f = random_member(1, 1, T, seed=trial + 5000)
        for i in range(60):
            t = SQRT2 + (T - 2 * SQRT2) * i / 59
            speed = abs(float(f.deriv_value(t, 1)))
            position = max(-1.0, min(1.0, float(f(t))))
            if speed > math.sqrt(2 * (1 - abs(position))) + 1e-9:
                violations += 1
    assert violations == 0

    # prolongation membership
    for trial in range(30):
        T = rng.uniform(1.0, 6.0)
        f = random_member(1, 1, T, seed=trial + 9000)
        eps = rng.uniform(0.05, 1.0)
        theta = rng.uniform(-1.0, 1.0)
        from landaukol.landau2 import sigma_inf_value

        h = eps / (abs(theta) + sigma_inf_value(1, 1, T)) * rng.uniform(0.1, 1.0)
        g = prolong_affine(f, h=h, epsilon=eps, theta=theta)
        assert membership(g, 2, 1, 1).ok

    # scaling equivariance on random members
    for trial in range(30):
        T = rng.uniform(1.0, 6.0)
        f = random_member(1, 1, T, seed=trial + 12000)
        mu = rng.choice([-1, 1]) * rng.uniform(0.3, 3.0)
        lam = rng.choice([-1, 1]) * rng.uniform(0.3, 3.0)
        t_shift = rng.uniform(-2, 2)
        g = transform(f, mu=mu, lam=lam, t0=t_shift)
        assert membership(g, 2, abs(mu), abs(mu * lam**2)).ok

    # sigma1 subadditivity on a grid
    blocks = [0.5 * i for i in range(1, 9)]
    for t1 in blocks:
        for t2 in blocks + [5.3, 8.8, 12.1, 47.0]:
            assert sigma1(1, 1, t1 + t2).upper <= sigma1(1, 1, t1).upper + sigma1(1, 1, t2).upper + 1e-9

    elapsed = time.perf_counter() - _T0
    assert elapsed < 300
    _report(10, f"comparison/prolongation/scaling/subadditivity clean; module total {elapsed:.0f}s")
