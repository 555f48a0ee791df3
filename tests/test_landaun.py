import math
from fractions import Fraction

import pytest

from landaukol.landaun import (
    B_nk_cartan,
    B_nk_kallioniemi,
    B_nk_lower,
    A_nk_markov,
    C31,
    C32,
    chebyshev_deriv_at_one,
    chebyshev_poly,
    cnk_bracket,
    kolmogorov_bound,
    mu_malliavin,
    sato_segment,
    sato_t0,
)

F = Fraction


def test_kolmogorov_bound_values():
    assert kolmogorov_bound(2, 1, 1, 1) == pytest.approx(math.sqrt(2), abs=1e-12)
    assert kolmogorov_bound(3, 1, 1, 1) == pytest.approx((9 / 8) ** (1 / 3), abs=1e-12)
    for n in range(2, 13):
        assert kolmogorov_bound(n, 0, 2.7, 3.1) == pytest.approx(2.7, abs=1e-12)
        for k in range(n + 1):
            assert kolmogorov_bound(n, k, 1, 1) <= math.pi / 2 + 1e-12
    with pytest.raises(ValueError):
        kolmogorov_bound(13, 1, 1, 1)


def test_kolmogorov_bound_scaling():
    for n in range(2, 8):
        for k in range(1, n):
            unit = kolmogorov_bound(n, k, 1, 1)
            scaled = kolmogorov_bound(n, k, 3.7, 0.4)
            assert scaled == pytest.approx(unit * 3.7 ** (1 - k / n) * 0.4 ** (k / n), rel=1e-12)


def test_sato_boundary_alpha_and_value():
    t0 = sato_t0(1, 1)
    assert t0 == pytest.approx(81 ** (1 / 3), abs=1e-12)
    res = sato_segment(1, 1, 1, t0)
    assert res.regime == "long"
    assert res.alpha == pytest.approx(1 / 3, abs=1e-12)
    assert res.value_k1 == pytest.approx(C31, abs=1e-12)
    # approaching from below the short branch solves to alpha -> 1/3
    res2 = sato_segment(1, 1, 1, t0 * (1 - 1e-12))
    assert res2.alpha == pytest.approx(1 / 3, abs=1e-9)


def test_sato_continuity_at_t0():
    t0 = sato_t0(1, 1)
    for k in (1, 2):
        below = sato_segment(k, 1, 1, t0 * (1 - 1e-12)).value_for(k)
        above = sato_segment(k, 1, 1, t0 * (1 + 1e-12)).value_for(k)
        assert abs(below - above) <= 1e-9
    # general (a, b)
    t0ab = sato_t0(2.5, 0.3)
    for k in (1, 2):
        below = sato_segment(k, 2.5, 0.3, t0ab * (1 - 1e-12)).value_for(k)
        above = sato_segment(k, 2.5, 0.3, t0ab * (1 + 1e-12)).value_for(k)
        assert abs(below - above) <= 1e-9 * max(1.0, above)


def test_sato_limits():
    assert sato_segment(2, 1, 1, 1e6).value_k2 == pytest.approx(2 * 3 ** (1 / 3), abs=1e-12)
    assert sato_segment(1, 1, 1, 1e6).value_k1 == pytest.approx(3 ** (5 / 3) / 2, abs=1e-12)


def test_sato_short_branch_decreasing_in_T():
    t0 = sato_t0(1, 1)
    values = []
    for t in [0.5, 1.0, 2.0, 3.0, t0 * 0.999]:
        res = sato_segment(1, 1, 1, t)
        assert res.regime == "short"
        assert 1 / 3 <= res.alpha < 0.5
        values.append(res.value_k1)
    for u, v in zip(values, values[1:]):
        assert v < u
    # segment sup always dominates the whole-line sup
    assert values[-1] >= kolmogorov_bound(3, 1, 1, 1)


def test_chebyshev_derivatives():
    assert chebyshev_deriv_at_one(3, 1) == 4
    assert chebyshev_deriv_at_one(2, 1) == 1
    assert chebyshev_deriv_at_one(5, 2) == 80  # T_4'' = 96 x^2 - 16 at 1
    assert A_nk_markov(3, 1) == 8
    assert A_nk_markov(2, 1) == 2
    assert A_nk_markov(5, 2) == 320
    # closed form against exact polynomial differentiation
    for n in range(2, 11):
        for k in range(1, n):
            poly_value = chebyshev_poly(n - 1).nth_derivative(k)(F(1))
            assert chebyshev_deriv_at_one(n, k) == poly_value


def test_kallioniemi_bounds():
    assert B_nk_lower(2, 1) == F(3, 8)
    for n in range(2, 11):
        for k in range(1, n):
            ratio = B_nk_kallioniemi(n, k) / B_nk_lower(n, k)
            assert 1 < ratio <= 2
            assert B_nk_cartan(n, k) >= B_nk_kallioniemi(n, k)


def test_mu_malliavin():
    # mu(1/2) = 2 G / pi with G Catalan's constant
    catalan = 0.9159655941772190
    assert mu_malliavin(0.5) == pytest.approx(2 * catalan / math.pi, abs=1e-9)
    assert mu_malliavin(0.25) > 0


def test_mu_malliavin_against_riemann_oracle():
    # independent quadrature: subtract the elementary log part (integrated in
    # closed form), midpoint-rule the smooth remainder on 10^6 points
    for lam in (0.2, 0.5, 0.9):
        npts = 10**6
        h = lam / npts
        smooth = 0.0
        for i in range(npts):
            t = (i + 0.5) * h
            x = math.pi * t / 2
            smooth += math.log(math.tan(x) / x)
        oracle = -(smooth * h + lam * (math.log(math.pi * lam / 2) - 1))
        assert mu_malliavin(lam) == pytest.approx(oracle, abs=1e-8)


def test_cnk_bracket_exact_values():
    assert cnk_bracket(2, 1).exact == 2.0
    assert cnk_bracket(3, 1).exact == pytest.approx(3 ** (5 / 3) / 2, abs=1e-12)
    assert cnk_bracket(3, 2).exact == pytest.approx(2 * 3 ** (1 / 3), abs=1e-12)
    # the comparison-method upper bound at (3, 1) lands exactly on the sharp
    # value: 9 / 24^(1/3) = 3^(5/3) / 2
    br = cnk_bracket(3, 1)
    assert br.matorin == pytest.approx(br.exact, rel=1e-12)
    assert br.malliavin > 0
    assert br.as_dict(1, 1)["lower_kappa_free"] is True


def test_cnk_upper_dominates_whole_line():
    for n in range(2, 11):
        for k in range(1, n):
            assert kolmogorov_bound(n, k, 1, 1) <= cnk_bracket(n, k).upper + 1e-9


def test_cnk_bracket_full_range_smoke():
    for n in range(2, 31):
        for k in range(1, n):
            br = cnk_bracket(n, k)
            assert br.upper > 0 and br.malliavin > 0 and br.matorin > 0
            assert br.lower > 0
            if br.exact is not None:
                assert br.exact <= br.upper + 1e-9


def test_cnk_bracket_range_checks():
    with pytest.raises(ValueError):
        cnk_bracket(31, 1)
    with pytest.raises(ValueError):
        cnk_bracket(5, 0)
    with pytest.raises(ValueError):
        cnk_bracket(5, 5)
