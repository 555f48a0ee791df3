import math
import random
from fractions import Fraction

import pytest

from landaukol.eulerspline import (
    e_n,
    e_n_exact,
    euler_spline,
    favard,
    favard_best_approx,
    q_n,
    q_n_deriv_sup,
    q_n_piecewise,
    q_n_scale,
    r_n,
    s_n,
)

F = Fraction


def test_e_n_spot_values():
    assert e_n(2, F(1, 2)) == -0.25
    assert e_n(1, 0) == -0.5
    # antiperiod rule sends 3/2 to -E_3(1/2), and E_3(1/2) = 0:
    # direct polynomial evaluation 1/8 - 3/8 + 1/4 confirms the zero.
    assert e_n_exact(3, F(3, 2)) == 0
    assert e_n(3, 1.5) == pytest.approx(0.0, abs=1e-15)
    assert e_n(0, 0.5) == 1.0 and e_n(0, 1.5) == -1.0 and e_n(0, 2) == 0.0


def test_r_n_table():
    expected = [F(1), F(1, 2), F(1, 4), F(1, 4), F(5, 16), F(1, 2)]
    assert [r_n(n) for n in range(6)] == expected
    for n in range(20):
        assert r_n(n) > 0


def test_s_n_values():
    assert s_n(1) == F(1, 2)
    assert s_n(2) == F(1, 8)
    assert s_n(3) == F(1, 24)


def test_antiperiodicity_and_symmetry_exact():
    rng = random.Random(7)
    for n in range(11):
        for _ in range(20):
            x = F(rng.randint(-400, 400), rng.randint(1, 40))
            assert e_n_exact(n, x + 1) == -e_n_exact(n, x)
            assert e_n_exact(n, 1 - x) == (-1) ** n * e_n_exact(n, x)


def test_derivative_cascade_numeric():
    rng = random.Random(11)
    h = 1e-6
    for n in range(1, 8):
        count = 0
        while count < 100:
            x = rng.uniform(-3, 3)
            if abs(x - round(x)) < 10 * h:
                continue
            count += 1
            diff = (e_n(n, x + h) - e_n(n, x - h)) / (2 * h)
            expected = n * e_n(n - 1, x)
            assert abs(diff - expected) <= 1e-6 * max(1.0, abs(expected))


def _favard_series(n: int, terms: int = 200000) -> float:
    """Independent oracle: the (4/pi) sum over odd integers of (2k+1)^(-n-1),
    alternating for even n, with an Euler-Maclaurin tail correction."""
    s = n + 1

    if n % 2 == 1:
        total = sum((2 * k + 1.0) ** (-s) for k in range(terms))
        # tail of sum_{k>=K} f(k), f(t) = (2t+1)^(-s)
        K = terms
        f = (2 * K + 1.0) ** (-s)
        fp = -2 * s * (2 * K + 1.0) ** (-s - 1)
        integral = (2 * K + 1.0) ** (1 - s) / (2 * (s - 1))
        total += integral + f / 2 - fp / 12
    else:
        # pair terms: g(j) = (4j+1)^(-s) - (4j+3)^(-s)
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


def test_favard_values_and_series_agreement():
    assert favard(1) == pytest.approx(math.pi / 2, abs=1e-12)
    assert favard(2) == pytest.approx(math.pi**2 / 8, abs=1e-12)
    for n in range(11):
        assert favard(n) == pytest.approx(_favard_series(n), abs=1e-10)
    assert abs(favard(20) - 4 / math.pi) < 1e-6


def test_favard_sequences_bracket_limit():
    # adjacent sequences: evens increase to 4/pi from below (their series is
    # alternating, so < 1), odds decrease to it from above
    limit = 4 / math.pi
    evens = [favard(n) for n in range(0, 21, 2)]
    odds = [favard(n) for n in range(1, 21, 2)]
    for a, b in zip(evens, evens[1:]):
        assert a < b < limit
    for a, b in zip(odds, odds[1:]):
        assert a > b > limit


def test_euler_spline_normalization_and_antiperiod():
    for n in range(1, 10):
        assert euler_spline(n, 0) == pytest.approx(1.0, abs=1e-14)
    assert euler_spline(2, 1) == pytest.approx(-1.0, abs=1e-14)
    for n in range(1, 8):
        for x in [0.3, 0.7, 1.9, -0.4]:
            assert euler_spline(n, x + 1) == pytest.approx(-euler_spline(n, x), abs=1e-12)


def test_euler_spline_close_to_cosine():
    # sup deviation from cos(pi x) decays like 3^-n; the constant is
    # calibrated from the measured n = 3..8 decay and capped at 10.
    xs = [i / 500 for i in range(1001)]
    for n in range(3, 9):
        dev = max(abs(euler_spline(n, x) - math.cos(math.pi * x)) for x in xs)
        assert dev <= 10 * 3.0 ** (-n)


def test_q_n_deriv_sup_values():
    assert q_n_deriv_sup(2, 1) == pytest.approx(math.sqrt(2), abs=1e-12)
    assert q_n_deriv_sup(2, 0) == pytest.approx(1.0, abs=1e-12)
    assert q_n_deriv_sup(3, 1) == pytest.approx((9 / 8) ** (1 / 3), abs=1e-12)
    for n in range(2, 13):
        for k in range(1, n):
            assert q_n_deriv_sup(n, k) <= math.pi / 2 + 1e-12


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_q_n_and_its_scale_refuse_n_below_2(n):
    # `spline --what qn` takes its default window from q_n_scale before it calls q_n
    for fn in (q_n_scale, q_n_piecewise, lambda n: q_n(n, 0.5)):
        with pytest.raises(ValueError, match="q_n needs n >= 2"):
            fn(n)


def test_q_n_is_bounded_by_one():
    for n in range(2, 8):
        for i in range(400):
            x = -20 + 0.1 * i
            assert abs(q_n(n, x)) <= 1 + 1e-12


def test_piecewise_exporters():
    from fractions import Fraction as Fr

    from landaukol.eulerspline import euler_spline_piecewise, q_n_piecewise
    from landaukol.pwpoly import membership

    for n in range(2, 7):
        f = euler_spline_piecewise(n, Fr(0), Fr(4))
        assert f.is_exact()
        for i in range(0, 41):
            x = Fr(i, 10)
            assert float(f(x)) == pytest.approx(euler_spline(n, x), abs=1e-11)
        q = q_n_piecewise(n)
        assert membership(q, n, 1, 1).ok
        span = float(q.t_end)
        for i in range(60):
            x = span * i / 59
            assert float(q(x)) == pytest.approx(q_n(n, x), abs=1e-9)


def _compose_affine_construction(n, x0, x1):
    """EE_n on [x0, x1] built piece by piece as E_n(x + eps - k) by Horner over
    Poly, then scaled by (-1)^k / e_n(eps): the reference for the exporter."""
    from landaukol.exactnum import euler_poly
    from landaukol.pwpoly import PiecewisePoly, cut

    eps = F(0) if n % 2 else F(1, 2)
    denom = e_n_exact(n, eps)
    ks = range(math.floor(x0 + eps), math.ceil(x1 + eps))
    knots = [k - eps for k in ks] + [ks[-1] + 1 - eps]
    pieces = [euler_poly(n).compose_affine(eps - k, F(1)) * (F(-1 if k % 2 else 1) / denom) for k in ks]
    return PiecewisePoly(*cut(knots, pieces, x0, x1), n)


@pytest.mark.parametrize("n", range(1, 13))
def test_exported_pieces_are_those_of_the_compose_affine_construction(n):
    from landaukol.eulerspline import euler_spline_piecewise

    for j in range(-9, 10):
        x0 = F(j, 4)
        for length in (F(1, 3), F(1), F(11, 4), F(6)):
            got = euler_spline_piecewise(n, x0, x0 + length)
            want = _compose_affine_construction(n, x0, x0 + length)
            assert got.knots == want.knots and got.n_smooth == want.n_smooth == n
            assert [p.coeffs for p in got.pieces] == [p.coeffs for p in want.pieces]
            assert got.to_json() == want.to_json()


def test_favard_best_approx():
    assert favard_best_approx(1, 1, 2 * math.pi) == pytest.approx(math.pi / 2, abs=1e-12)
    for n in range(1, 9):
        assert favard_best_approx(n, 1, 2 * math.pi) == pytest.approx(favard(n), abs=1e-12)
    assert favard_best_approx(2, 2, 2 * math.pi) == pytest.approx(math.pi**2 / 32, abs=1e-12)
    with pytest.raises(ValueError):
        favard_best_approx(2, 1, 0.0)
