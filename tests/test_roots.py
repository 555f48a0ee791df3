import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landaukol._roots import WIDTH, Root, real_roots_exact, real_roots_float, taylor_coefficients
from landaukol.exactnum import Poly, euler_poly

F = Fraction


def prod(*factors):
    p = Poly([F(1)])
    for f in factors:
        p = p * f
    return p


def lin(r):
    return Poly([-F(r), F(1)])


def pw(f, m):
    return prod(*([f] * m))


def _product(roots):
    return prod(*map(lin, roots))


# (name, p, lo, hi, real_roots_exact(p, lo, hi)): every field pinned bit for bit,
# as the Fraction Sturm-chain implementation returned it
PINNED = [
    # multiplicities 1..4, each a square-free factor of degree 1, so every root exact
    ('mult_1_to_4', prod(pw(lin(F(1, 3)), 4), pw(lin(F(1, 2)), 3), pw(lin(F(2, 7)), 2), lin(F(3, 5))), 0, 1, [
        Root(0.2857142857142857, 2, F(2, 7), (F(2, 7), F(2, 7))),
        Root(0.3333333333333333, 4, F(1, 3), (F(1, 3), F(1, 3))),
        Root(0.5, 3, F(1, 2), (F(1, 2), F(1, 2))),
        Root(0.6, 1, F(3, 5), (F(3, 5), F(3, 5))),
    ]),
    ('x2_minus_2', Poly([-2, 0, 1]), -2, 2, [
        Root(-1.414213562372879, 1, None, (F(-388736063997, 274877906944), F(-1554944255987, 1099511627776))),
        Root(1.414213562372879, 1, None, (F(1554944255987, 1099511627776), F(388736063997, 274877906944))),
    ]),
    ('x2_minus_2_squared_times_x_minus_1', prod(pw(Poly([-2, 0, 1]), 2), lin(1)), 0, 2, [
        Root(1.0, 1, F(1), (F(1), F(1))),
        Root(1.414213562372879, 2, None, (F(1554944255987, 1099511627776), F(388736063997, 274877906944))),
    ]),
    ('roots_at_lo_and_hi', prod(lin(0), lin(1), lin(F(1, 3))), 0, 1, [
        Root(0.0, 1, F(0), (F(0), F(0))),
        Root(0.3333333333334849, 1, None, (F(366503875925, 1099511627776), F(183251937963, 549755813888))),
        Root(1.0, 1, F(1), (F(1), F(1))),
    ]),
    ('double_roots_at_lo_and_hi', prod(pw(lin(F(-1, 2)), 2), pw(lin(F(5, 3)), 3), lin(F(1, 7))), F(-1, 2), F(5, 3), [
        Root(-0.5, 2, F(-1, 2), (F(-1, 2), F(-1, 2))),
        Root(0.14285714285714285, 1, F(1, 7), (F(1, 7), F(1, 7))),
        Root(1.6666666666666667, 3, F(5, 3), (F(5, 3), F(5, 3))),
    ]),
    ('dyadic_midpoints', prod(lin(F(1, 4)), lin(F(3, 8)), lin(F(13, 16)), lin(F(1, 10))), 0, 1, [
        Root(0.09999999999990905, 1, None, (F(109951162777, 1099511627776), F(54975581389, 549755813888))),
        Root(0.25, 1, F(1, 4), (F(1, 4), F(1, 4))),
        Root(0.375, 1, F(3, 8), (F(3, 8), F(3, 8))),
        Root(0.8125, 1, F(13, 16), (F(13, 16), F(13, 16))),
    ]),
    ('deflation_at_first_midpoint', prod(lin(F(1, 2)), lin(F(1, 10)), lin(F(9, 10)), Poly([F(-1, 2), 0, 1])), 0, 1, [
        Root(0.09999999999990905, 1, None, (F(109951162777, 1099511627776), F(54975581389, 549755813888))),
        Root(0.5, 1, F(1, 2), (F(1, 2), F(1, 2))),
        Root(0.7071067811862122, 1, None, (F(777472127993, 1099511627776), F(388736063997, 549755813888))),
        Root(0.900000000000091, 1, None, (F(494780232499, 549755813888), F(989560464999, 1099511627776))),
    ]),
    ('deflation_then_more_roots', prod(lin(F(3, 4)), lin(F(5, 8)), lin(F(7, 8)), lin(F(11, 16)), Poly([-3, 0, 1])), 0, 2, [
        Root(0.625, 1, F(5, 8), (F(5, 8), F(5, 8))),
        Root(0.6875, 1, F(11, 16), (F(11, 16), F(11, 16))),
        Root(0.75, 1, F(3, 4), (F(3, 4), F(3, 4))),
        Root(0.875, 1, F(7, 8), (F(7, 8), F(7, 8))),
        Root(1.732050807568612, 1, None, (F(476102500705, 274877906944), F(1904410002821, 1099511627776))),
    ]),
    ('three_irrational_roots', Poly([1, -3, 0, 1]), -2, 2, [
        Root(-1.8793852415715264, 1, None, (F(-2066405926179, 1099511627776), F(-1033202963089, 549755813888))),
        Root(0.34729635533358305, 1, None, (F(381856380973, 1099511627776), F(190928190487, 549755813888))),
        Root(1.5320888862383981, 1, None, (F(1684549545205, 1099511627776), F(842274772603, 549755813888))),
    ]),
    ('close_roots', prod(lin(F(1, 3)), lin(F(1, 3) + F(1, 10**14))), 0, 1, [
        Root(0.3333333333333286, 1, None, (F(5864062014805, 17592186044416), F(11728124029611, 35184372088832))),
        Root(0.333333333333357, 1, None, (F(11728124029611, 35184372088832), F(2932031007403, 8796093022208))),
    ]),
    ('negative_lead_big_denominators', Poly([F(7, 1234567), F(-3, 1001), F(0), F(-22, 7), F(5, 9)]) * F(-3, 11), F(-3, 2), F(7, 3), [
        Root(0.0018848713686831313, 1, None, (F(8289751945, 4398046511104), F(49738511693, 26388279066624))),
    ]),
    ('roots_outside', prod(lin(5), lin(-4), Poly([1, 0, 1])), -1, 1, [
    ]),
    ('constant', Poly([F(3)]), 0, 1, [
    ]),
    ('zero', Poly(), 0, 1, [
    ]),
    ('euler_e5', euler_poly(5), 0, 1, [
        Root(0.5, 1, F(1, 2), (F(1, 2), F(1, 2))),
    ]),
    ('euler_e6_derivative', euler_poly(6).derivative(), F(-1, 2), F(3, 2), [
        Root(0.5, 1, F(1, 2), (F(1, 2), F(1, 2))),
    ]),
    ('euler_e7_shifted_minus_one', euler_poly(7).compose_affine(F(-1, 3), F(1)) - Poly([F(1, 100)]), F(-1, 3), F(5, 3), [
        Root(-0.16294515845205146, 1, None, (F(-537480289225, 3298534883328), F(-268740144611, 1649267441664))),
        Root(0.8318344987739389, 1, None, (F(42872423615, 51539607552), F(2743835111363, 3298534883328))),
    ]),
    ('integer_coeffs', Poly([6, -5, 1]), 0, 3, [
        Root(2.0, 1, F(2), (F(2), F(2))),
        Root(3.0, 1, F(3), (F(3), F(3))),
    ]),
]


@pytest.mark.parametrize("p, lo, hi, want", [case[1:] for case in PINNED], ids=[case[0] for case in PINNED])
def test_exact_lane_is_pinned_bit_for_bit(p, lo, hi, want):
    got = real_roots_exact(p, F(lo), F(hi))
    assert got == want
    assert [repr(r) for r in got] == [repr(r) for r in want]  # 0.0 vs -0.0, int vs Fraction


def _located(root, r):
    lo, hi = root.bracket
    return lo <= r <= hi and root.multiplicity == 1


def test_exact_root_at_a_split_midpoint_keeps_the_other_intervals():
    # 3/4 is the midpoint of the second split; isolating it must not drop
    # the interval (0, 1/2] that holds 1/10
    want = [F(1, 10), F(3, 4), F(7, 8)]
    roots = real_roots_exact(_product(want), F(0), F(1))
    assert len(roots) == 3 and all(_located(root, r) for root, r in zip(roots, want))
    assert [r.exact for r in roots[1:]] == want[1:]  # dyadic, hit exactly


@settings(max_examples=60, deadline=None)
@given(st.sets(st.fractions(min_value=0, max_value=1, max_denominator=64), min_size=1, max_size=6))
def test_exact_lane_finds_every_rational_root(roots):
    want = sorted(roots)
    found = real_roots_exact(_product(want), F(0), F(1))
    assert len(found) == len(want)
    assert all(_located(root, r) for root, r in zip(found, want))


def test_float_roots_are_plain_floats():
    # (t - 1/2)^2 (t - 1/4): a double root comes back once or twice, as floats
    # with no multiplicity
    p = _product([F(1, 2), F(1, 2), F(1, 4)]).to_float()
    roots = real_roots_float(p, 0.0, 1.0)
    assert all(type(r) is float for r in roots)
    assert {round(r, 6) for r in roots} == {0.25, 0.5}


def test_float_roots_of_a_wide_interval_survive_an_overflowing_companion():
    # p'(t) = 1e-300 (t - 1.25e300)(t + 1e10): -c0/c2 = 1.25e310 overflows, so the
    # roots are found in t / 2^e; the one inside [1e300, 1.5e300] is still there
    p = Poly([-1.25e10, -1.25, 1e-300])
    roots = real_roots_float(p, 1e300, 1.5e300)
    assert len(roots) == 1 and math.isclose(roots[0], 1.25e300, rel_tol=1e-12)
    # with no real root, and with the roots outside the interval, none comes back
    assert real_roots_float(Poly([1e10, 2e-300, 3e-300]), 1e300, 1.5e300) == []
    assert real_roots_float(p, 1.3e300, 1.5e300) == []


def _below_sqrt(r, s, q):
    """r <= s * sqrt(q) for rational r, s = +-1 and q > 0."""
    return (r < 0 or r * r <= q) if s > 0 else (r <= 0 and r * r >= q)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(st.fractions(min_value=-3, max_value=3, max_denominator=16), st.integers(1, 4)),
             max_size=4),
    st.lists(st.tuples(st.sampled_from([2, 3, 5, 6, 7, 8, 10, 11]), st.integers(1, 3)), max_size=2),
)
def test_exact_lane_locates_rational_and_quadratic_roots(linear, quadratic):
    # p = prod (x - r)^m * prod (x^2 - q)^m with q not a square, on [-3, 3]:
    # each root inside is found once, in a bracket at most WIDTH wide (zero
    # wide when it is exact), with the multiplicity it has in p
    p, want = Poly([F(1)]), {}
    for r, m in linear:
        p = prod(p, pw(lin(r), m))
        want[r] = want.get(r, 0) + m
    for q, m in quadratic:
        p = prod(p, pw(Poly([-q, 0, 1]), m))
        if q < 9:  # +-sqrt(q) inside [-3, 3]
            for s in (1, -1):
                want[s, q] = want.get((s, q), 0) + m
    found = real_roots_exact(p, F(-3), F(3))
    located = []
    for root in found:
        lo, hi = root.bracket
        assert hi - lo <= WIDTH and (root.exact is None or lo == root.exact == hi)
        inside = [key for key in want if (lo <= key <= hi if isinstance(key, F) else
                                          _below_sqrt(lo, *key) and not _below_sqrt(hi, *key))]
        assert len(inside) == 1 and root.multiplicity == want[inside[0]]
        assert isinstance(inside[0], F) or root.exact is None
        located.append(inside[0])
    assert len(located) == len(set(located)) == len(want)


@settings(max_examples=200, deadline=None)
@given(
    coeffs=st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=12), max_size=7),
    x=st.fractions(min_value=-3, max_value=3, max_denominator=30),
)
def test_taylor_coefficients_are_the_scaled_derivatives(coeffs, x):
    p = Poly(coeffs)
    taylor = taylor_coefficients(p, x)
    assert len(taylor) == p.degree + 1
    assert taylor == [p.nth_derivative(m)(x) / math.factorial(m) for m in range(p.degree + 1)]
