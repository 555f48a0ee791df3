import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from landaukol import pwpoly
from landaukol._roots import _cleared, _values, real_roots_exact, real_roots_float, taylor_coefficients
from landaukol.bounds import BoundQuery, FullLine, HalfLine, Segment, compute_bound
from landaukol.eulerspline import euler_spline_piecewise
from landaukol.exactnum import Poly
from landaukol.landau2 import PointwiseQuery, q_train, sigma_pointwise
from landaukol.oracle import random_member
from landaukol.pwpoly import (
    MIN_KNOT_GAP,
    ContactInterval,
    ContactPoint,
    MembershipError,
    MembershipReport,
    PiecewisePoly,
    StructuralError,
    Violation,
    cut,
    from_arcs,
    is_extreme_point,
    membership,
    piece_sup,
    total_variation,
    transform,
    variation,
)

F = Fraction
SQRT2 = math.sqrt(2.0)


def steep_ramp(T):
    """Quadratic with f(0) = -1, f'' = -1 and maximal initial slope 2/T + T/2."""
    T = F(T)
    return PiecewisePoly([F(0), T], [Poly([F(-1), 2 / T + T / 2, F(-1, 2)])], 2)


def two_contact_extreme(t0, T):
    """Increasing bang-bang spline with f(0) = -1, f(T) = 1 and f'(t0) = C."""
    t0, T = F(t0), F(T)
    C = 2 / T + (t0**2 + (T - t0) ** 2) / (2 * T)
    left = Poly([F(-1), C - t0, F(1, 2)])
    right = Poly([F(1), C - T + t0, F(-1, 2)]).compose_affine(-T, F(1))
    if t0 == 0:
        return PiecewisePoly([F(0), T], [right], 2)
    if t0 == T:
        return PiecewisePoly([F(0), T], [left], 2)
    return PiecewisePoly([F(0), t0, T], [left, right], 2)


def q_restriction_pieces():
    """The comparison parabola train on [0, 4*sqrt(2)] (float knots)."""
    k = [0.0, SQRT2, 3 * SQRT2, 4 * SQRT2]
    p0 = Poly([1.0, 0.0, -0.5])
    p1 = Poly([1.0, 0.0, -0.5]).compose_affine(-2 * SQRT2, 1.0) * -1.0
    p2 = Poly([1.0, 0.0, -0.5]).compose_affine(-4 * SQRT2, 1.0)
    return PiecewisePoly(k, [p0, p1, p2], 2)


def test_membership_examples():
    assert membership(steep_ramp(2), 2, 1, 1).ok
    zero = PiecewisePoly([F(0), F(1)], [Poly([F(0)])], 2)
    assert membership(zero, 2, 1, 1).ok
    bad = PiecewisePoly([F(0), F(1)], [Poly([F(0), F(0), F(1)])], 2)
    rep = membership(bad, 2, 1, 1)
    assert not rep.ok and any(v.kind == "nth-derivative" for v in rep.violations)


def test_membership_join_and_sup_violations():
    broken = PiecewisePoly([F(0), F(1), F(2)], [Poly([F(0)]), Poly([F(1, 2)])], 2)
    rep = membership(broken, 2, 1, 1)
    assert any(v.kind == "join" for v in rep.violations)
    tall = PiecewisePoly([F(0), F(4)], [Poly([F(0), F(1)])], 2)
    rep = membership(tall, 2, 1, 1)
    assert any(v.kind == "sup" for v in rep.violations)
    sneaky = PiecewisePoly([F(-1), F(1)], [Poly([F(2), F(0), F(-1, 2)])], 2)
    # interior maximum 2 at t=0 even though endpoint values are 3/2
    rep = membership(sneaky, 2, 1, 1)
    assert any(v.kind == "sup" for v in rep.violations)


def test_membership_reports_a_piece_above_degree_n():
    for num in (F, float):
        cubic = PiecewisePoly([num(0), num(1)], [Poly([num(0), num(0), num(0), num(1) / 8])], 2)
        rep = membership(cubic, 2, 1, 1)
        assert not rep.ok
        assert rep.violations == (Violation("degree", 0.0, "piece 0 has degree 3 > 2"),), num


def test_structural_errors():
    with pytest.raises(StructuralError):
        PiecewisePoly([F(1), F(0)], [Poly([F(0)])], 2)
    with pytest.raises(StructuralError):
        PiecewisePoly([0.0, 5e-13], [Poly([F(0)])], 2)
    with pytest.raises(StructuralError):
        PiecewisePoly([F(0), F(1)], [], 2)


def _top_derivative(f, n):
    """The largest |f^(n)| over the pieces of f."""
    return max(pwpoly._nth_derivative_abs(p, n) for p in f.pieces)


def test_contact_set_two_endpoints():
    f = two_contact_extreme(1, 2)
    verdict = is_extreme_point(f, 2, F(1), F(1))
    assert not verdict.contact_intervals
    assert [(round(p.t, 12), p.sign, p.multiplicity) for p in verdict.contact_points] == [
        (0.0, -1, 1),
        (2.0, 1, 1),
    ]


@pytest.mark.parametrize("a", [0, -1.0, F(-1), math.inf, math.nan])
def test_contact_set_refuses_a_bound_that_is_not_positive_and_finite(a):
    # an inf bound once gave contact intervals of both signs on one piece, and
    # a negative one contacts with flipped signs
    f = PiecewisePoly([F(0), F(4)], [Poly([F(-1), F(2), F(-1, 2)])], 2)
    for g in (f, _float_copy(f)):
        with pytest.raises(ValueError):
            is_extreme_point(g, 2, a, 1)


def test_contact_interval():
    f = PiecewisePoly([F(0), F(1)], [Poly([F(1)])], 2)
    verdict = is_extreme_point(f, 2, F(1), F(1))
    assert verdict.contact_points == ()
    assert verdict.contact_intervals == (ContactInterval(0.0, 1.0, 1),)


def test_adjacent_contact_intervals_of_one_sign_merge():
    for num in (F, float):
        f = PiecewisePoly([num(0), num(1), num(2), num(3)], [Poly([num(1)])] * 3, 2)
        verdict = is_extreme_point(f, 2, num(1), num(1))
        assert verdict.contact_points == () and verdict.contact_intervals == (ContactInterval(0.0, 3.0, 1),), num


def test_a_long_float_piece_with_small_coefficients_is_no_contact_interval():
    # the first piece of this witness is 1 - 1.1e-67 t^2 + ... on [0, 6.6e33]:
    # every coefficient of p - 1 is below REL_TOL, yet p falls from +1 to -1
    w = compute_bound(BoundQuery(9, 1, 1.0, 1e-300, FullLine)).witness
    verdict = is_extreme_point(w, 9, 1.0, 1e-300)
    assert verdict.contact_intervals == ()
    assert [p.multiplicity for p in verdict.contact_points] == [2] * 5
    assert verdict.multiplicity_sum == 10 and not verdict.condition_ii_violations


def test_contact_set_q_restriction():
    f = q_restriction_pieces()
    verdict = is_extreme_point(f, 2, 1, 1)
    points = verdict.contact_points
    assert not verdict.contact_intervals
    ts = sorted(p.t for p in points)
    assert ts == pytest.approx([0.0, 2 * SQRT2, 4 * SQRT2], abs=1e-9)
    assert all(p.multiplicity == 2 for p in points)
    signs = [p.sign for p in sorted(points, key=lambda p: p.t)]
    assert signs == [1, -1, 1]


def _float_copy(f):
    return PiecewisePoly([float(k) for k in f.knots], [p.to_float() for p in f.pieces], f.n_smooth)


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.builds(lambda n, j: euler_spline_piecewise(n, F(j, 4), F(j, 4) + 6),
              st.integers(2, 9), st.integers(0, 8)),
    # T <= 2 keeps the two-contact rise a member for every t0 in [0, T]
    st.builds(lambda k, i: two_contact_extreme(F(k, 8) * i / 8, F(k, 8)),
              st.integers(1, 16), st.integers(0, 8)),
))
def test_float_contact_sets_match_the_exact_lane(f):
    n = f.n_smooth
    b = _top_derivative(f, n)
    exact, rounded = is_extreme_point(f, n, F(1), b), is_extreme_point(_float_copy(f), n, 1.0, float(b))
    exact_points, points = exact.contact_points, rounded.contact_points
    assert not exact.contact_intervals and not rounded.contact_intervals
    assert [(p.sign, p.multiplicity) for p in points] == [
        (p.sign, p.multiplicity) for p in exact_points
    ]
    tol = 1e-9 * max(1.0, f.length)
    assert all(abs(p.t - q.t) <= tol for p, q in zip(points, exact_points))


def test_float_contact_sets_match_the_exact_lane_at_high_order():
    # derivatives count as zero within their own rounding allowance: a fixed
    # 1e-6 gave multiplicity 1 at the knot contacts 7 and 8 (n = 11, 12); the
    # positions of contacts of high multiplicity are ill-conditioned (up to
    # 4.1e-8 * length off), so only signs and multiplicities are compared
    for n in (10, 11, 12):
        for j in range(9):
            f = euler_spline_piecewise(n, F(j, 4), F(j, 4) + 6)
            b = _top_derivative(f, n)
            exact_points = is_extreme_point(f, n, F(1), b).contact_points
            points = is_extreme_point(_float_copy(f), n, 1.0, float(b)).contact_points
            assert [(p.sign, p.multiplicity) for p in points] == [
                (p.sign, p.multiplicity) for p in exact_points
            ], (n, j)


def _unit_class_splines():
    """(spline, b, member, extreme) in the class |f| <= 1, |f^(n)| <= b."""
    parabola = Poly([-1.0, 2.0, -0.5])  # -1 -> 1 -> -1 on [0, 4]
    euler3 = euler_spline_piecewise(3, F(0), F(6))
    return [
        (two_contact_extreme(1, 2), 1.0, True, True),
        (steep_ramp(1), 1.0, True, True),
        (PiecewisePoly([0.0, 4.0], [parabola], 2), 1.0, True, True),
        (PiecewisePoly([0.0, 4.0], [parabola * 1.01], 2), 1.0, False, False),
        (PiecewisePoly([0.0, 4.0], [Poly([0.5, -1.0, 0.25])], 2), 1.0, True, False),  # half parabola
        (q_restriction_pieces(), 1.0, True, True),
        (PiecewisePoly([F(0), F(2), F(3)], [Poly([F(-1), F(2), F(-1, 2)]), Poly([F(1)])], 2), 1.0, True, True),
        (PiecewisePoly([F(0), F(1)], [Poly([F(0)])], 2), 1.0, True, False),
        (PiecewisePoly([0.0, 1.0], [Poly([1.0, 0.0, -0.6])], 2), 1.0, False, False),  # |f''| = 1.2
        (PiecewisePoly([0.0, 4.0], [Poly([0.0, 0.3])], 2), 1.0, False, False),  # |f(4)| = 1.2
        (_float_copy(euler3), abs(float(euler3.pieces[0].nth_derivative(3)(0))), True, True),
    ]


UNIT_CLASS = _unit_class_splines()


def _verdict(f, n, a, b):
    member = membership(f, n, a, b).ok
    return member, member and is_extreme_point(f, n, a, b).is_extreme


@settings(max_examples=300, deadline=None)
@given(
    index=st.integers(0, len(UNIT_CLASS) - 1),
    log_mu=st.floats(-100, 100),
    log_lam=st.floats(-50, 50),
    signs=st.tuples(st.sampled_from([-1, 1]), st.sampled_from([-1, 1])),
)
def test_verdicts_do_not_change_when_f_is_rescaled(index, log_mu, log_lam, signs):
    # g(t) = mu f(lam t) is in the class (|mu|, |mu| |lam|^n b) exactly when f
    # is in (1, b), and extreme there exactly when f is extreme
    f, b, member, extreme = UNIT_CLASS[index]
    n = f.n_smooth
    mu, lam = signs[0] * 10.0**log_mu, signs[1] * 10.0**log_lam
    try:
        g = transform(f, mu=mu, lam=lam)
    except StructuralError:  # knots closer than MIN_KNOT_GAP, an absolute floor
        assume(False)
    assert _verdict(g, n, abs(mu), abs(mu) * abs(lam) ** n * b) == _verdict(f, n, 1.0, b) == (member, extreme)


@pytest.mark.parametrize("a, b, domain", [(1e200, 1e12, HalfLine), (1e200, 1e12, FullLine), (1.0, 1e-300, FullLine)])
def test_witnesses_far_from_the_unit_scale_are_certified(a, b, domain):
    # |f''| was compared with b by an absolute 1e-9, which a rounding of
    # 2 * 499999999999.99994 failed, and the float root finder dropped the
    # slope term -1e-300 t of p' on [0, 2.8e150], so no contact was seen
    w = compute_bound(BoundQuery(2, 1, a, b, domain)).witness
    assert membership(w, 2, a, b).ok
    assert is_extreme_point(w, 2, a, b).is_extreme


def test_rounding_allowance_does_not_admit_non_members_or_far_peaks():
    # on [7.5, 7.75] the global coefficients of this piece reach 3e11 while
    # |f| <= 1, so an allowance that grows as 1e-12 * sum |c_m| |t|^m (0.33)
    # swallows both a doubled copy (sup 1.41) and the end value 0.71 < 1
    f = euler_spline_piecewise(12, F(15, 2), F(31, 4))
    top = _top_derivative(f, 12)
    for verdict in (is_extreme_point(f, 12, F(1), top), is_extreme_point(_float_copy(f), 12, 1.0, float(top))):
        assert verdict.contact_points == () and verdict.contact_intervals == ()
    b = 2 * max(abs(float(p.nth_derivative(12)(0))) for p in f.pieces)
    doubled = PiecewisePoly([float(k) for k in f.knots], [(p * 2).to_float() for p in f.pieces], 12)
    report = membership(doubled, 12, 1.0, b)
    assert [v.kind for v in report.violations] == ["sup"]


def test_subnormal_coefficients_keep_a_member():
    # the image of the float EE_7 copy has coefficients down to 6.4e-315, each
    # off by up to 2^-1074, which at |t| ~ 1e45 opens an order-0 join by 2.6e-9;
    # a relative allowance alone rejected this member
    f = _float_copy(euler_spline_piecewise(7, F(0), F(6)))
    b = abs(float(f.pieces[0].nth_derivative(7)(0)))
    mu, lam = -1.75e-4, -5e-45
    g = transform(f, mu=mu, lam=lam)
    assert 0 < min(abs(c) for p in g.pieces for c in p.coeffs if c) < 1e-314
    assert membership(g, 7, abs(mu), abs(mu * lam**7) * b).ok
    assert is_extreme_point(g, 7, abs(mu), abs(mu * lam**7) * b).is_extreme
    # the allowance stays far below a 1% excess of the sup at this scale
    larger = transform(PiecewisePoly(f.knots, [p * 1.01 for p in f.pieces], 7), mu=mu, lam=lam)
    report = membership(larger, 7, abs(mu), abs(mu * lam**7) * b * 1.01)
    assert {v.kind for v in report.violations} == {"sup"}


def test_subnormal_top_derivative_keeps_a_member():
    # |f^(7)| = 2.3963763e-314 against b = 2.3963756e-314: a subnormal is off
    # by up to 2^-1074 absolutely, and a relative comparison alone rejected
    # this member on every piece
    f = _float_copy(euler_spline_piecewise(7, F(0), F(6)))
    mu, lam = -1.29e-15, -6.95e-44
    g = transform(f, mu=mu, lam=lam)
    b = abs(mu * lam**7) * abs(float(f.pieces[0].nth_derivative(7)(0)))
    assert b < 1e-300
    assert membership(g, 7, abs(mu), b).ok
    assert is_extreme_point(g, 7, abs(mu), b).is_extreme
    report = membership(g, 7, abs(mu), b / 1.001)
    assert {v.kind for v in report.violations} == {"nth-derivative"}


def test_is_extreme_accepts_known_extremes():
    assert is_extreme_point(two_contact_extreme(1, 2), 2, F(1), F(1)).is_extreme
    cap = PiecewisePoly([F(0), F(1)], [Poly([F(1), F(0), F(-1, 2)])], 2)
    verdict = is_extreme_point(cap, 2, F(1), F(1))
    assert verdict.is_extreme
    assert verdict.multiplicity_sum == 2
    assert verdict.contact_points[0].multiplicity == 2


def test_is_extreme_rejects():
    zero = PiecewisePoly([F(0), F(1)], [Poly([F(0)])], 2)
    v = is_extreme_point(zero, 2, F(1), F(1))
    assert not v.is_extreme and v.multiplicity_sum == 0

    # midpoint of two distinct extreme points is a member but not extreme
    f = two_contact_extreme(1, 2)
    g = steep_ramp(2)
    mid = PiecewisePoly(
        f.knots,
        [
            (f.pieces[0] + g.pieces[0]) * F(1, 2),
            (f.pieces[1] + g.pieces[0]) * F(1, 2),
        ],
        2,
    )
    assert membership(mid, 2, 1, 1).ok
    v = is_extreme_point(mid, 2, F(1), F(1))
    assert not v.is_extreme and v.condition_ii_violations


def test_is_extreme_interval_contact():
    # rise to the wall and park there: contact interval gives infinite
    # multiplicity and the constant piece is exempt from the bang-bang test
    f = PiecewisePoly(
        [F(0), F(2), F(3)],
        [Poly([F(1), F(0), F(-1, 2)]).compose_affine(-2, F(1)), Poly([F(1)])],
        2,
    )
    v = is_extreme_point(f, 2, F(1), F(1))
    assert v.multiplicity_sum == math.inf
    assert v.is_extreme and not v.condition_ii_violations

    # a flat stretch away from the walls is not bang-bang, hence not extreme
    g = PiecewisePoly(
        [F(0), F(1), F(2)],
        [Poly([F(0)]), Poly([F(0), F(0), F(1, 2)]).compose_affine(-1, F(1))],
        2,
    )
    w = is_extreme_point(g, 2, F(1), F(1))
    assert not w.is_extreme
    assert w.multiplicity_sum == 0
    assert 0 in w.condition_ii_violations


def test_is_extreme_propagates_membership_failure():
    bad = PiecewisePoly([F(0), F(1)], [Poly([F(0), F(0), F(1)])], 2)
    with pytest.raises(MembershipError):
        is_extreme_point(bad, 2, F(1), F(1))


def test_scaling_equivariance():
    rng = random.Random(3)
    f = two_contact_extreme(1, 2)
    for _ in range(25):
        mu = rng.choice([-1, 1]) * F(rng.randint(1, 8), rng.randint(1, 8))
        lam = rng.choice([-1, 1]) * F(rng.randint(1, 8), rng.randint(1, 8))
        t0 = F(rng.randint(-4, 4), rng.randint(1, 4))
        g = transform(f, mu=mu, lam=lam, t0=t0)
        a1, b1 = abs(mu) * 1, abs(mu * lam**2) * 1
        assert membership(g, 2, a1, b1).ok
        # shrinking the allowed bounds must break membership again
        assert not membership(g, 2, a1 / 2, b1).ok


def test_restriction_closure():
    # member on [0, 3]: rise along the wall-touching parabola, then park at 1
    f = PiecewisePoly(
        [F(0), F(2), F(3)],
        [Poly([F(1), F(0), F(-1, 2)]).compose_affine(-2, F(1)), Poly([F(1)])],
        2,
    )
    assert membership(f, 2, 1, 1).ok
    rng = random.Random(5)
    for _ in range(20):
        lo = F(rng.randint(0, 20), 10)
        hi = lo + F(rng.randint(1, 10), 10)
        if float(hi) > 3:
            continue
        g = f.restrict(lo, hi)
        assert membership(g, 2, 1, 1).ok
        for t in [float(lo), float(hi), (float(lo) + float(hi)) / 2]:
            assert float(g(t)) == pytest.approx(float(f(t)), abs=1e-12)


_KNOT_STEPS = [0.3 * MIN_KNOT_GAP, MIN_KNOT_GAP, 1.5 * MIN_KNOT_GAP, 3 * MIN_KNOT_GAP, 1e-9, 0.25, 1.0]
_NUDGES = [0.0, 1e-13, -1e-13, 5e-13, -5e-13, 2e-12, -2e-12, 0.1, -0.1]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), start=st.sampled_from([0.0, -3.0, 1.5]),
       steps=st.lists(st.sampled_from(_KNOT_STEPS), min_size=1, max_size=8), exact=st.booleans())
def test_cut_keeps_the_window_with_gaps_above_the_floor(data, start, steps, exact):
    # windows at knots and near them; pieces are told apart by identity
    num = Fraction if exact else float
    knots = [num(start)]
    for step in steps:
        knots.append(knots[-1] + num(step))
    pieces = [Poly([num(i)]) for i in range(len(steps))]
    ends = [data.draw(st.one_of(
        st.tuples(st.integers(0, len(steps)), st.sampled_from(_NUDGES)).map(
            lambda kn: knots[kn[0]] + num(kn[1])),
        st.floats(float(knots[0]), float(knots[-1])).map(num),
    )) for _ in range(2)]
    lo, hi = (max(knots[0], min(x, knots[-1])) for x in sorted(ends))
    assume(lo < hi)
    out_knots, out_pieces = cut(knots, pieces, lo, hi)
    if not float(hi) - float(lo) > MIN_KNOT_GAP:
        assert out_pieces == []
        return
    assert out_knots[0] is lo and out_knots[-1] is hi and len(out_knots) == len(out_pieces) + 1
    assert all(float(v) - float(u) > MIN_KNOT_GAP for u, v in zip(out_knots, out_knots[1:]))
    for p, u, v in zip(out_pieces, out_knots, out_knots[1:]):
        i = next(i for i, q in enumerate(pieces) if q is p)
        assert float(knots[i]) - MIN_KNOT_GAP <= float(u) and float(v) <= float(knots[i + 1]) + MIN_KNOT_GAP


def test_cut_ends_a_piece_at_hi_only_within_the_gap_of_its_knot():
    # hi - 2.5000000000000003e-12 > MIN_KNOT_GAP, so piece 1 keeps its own end;
    # a rule that rounded hi - MIN_KNOT_GAP instead stretched it to hi, one ulp
    # past its knot plus the gap
    knots = [0.0, 1e-12, 2.5000000000000003e-12, 5.5e-12]
    pieces = [Poly([float(i)]) for i in range(3)]
    out_knots, out_pieces = cut(knots, pieces, 0.0, 3.5000000000000004e-12)
    assert out_knots == [0.0, 2.5000000000000003e-12, 3.5000000000000004e-12]
    assert out_pieces == pieces[1:]


def _bits(p):
    """The coefficients of p with their types, floats by their bits (the sign of a zero included)."""
    return [(type(c), c.hex() if isinstance(c, float) else c) for c in p.coeffs]


def test_from_arcs_stores_each_arc_as_the_builders_did():
    rng = random.Random(34)
    for _ in range(200):
        c, d = rng.uniform(-40, 40), [rng.uniform(-3, 3) for _ in range(rng.randrange(1, 5))]
        assert _bits(from_arcs([c - 1, c + 1], [(c, d)], 2).pieces[0]) == _bits(Poly(d).compose_affine(-c, 1.0))
        # about 0 a float arc is taken as given, the sign of a zero coefficient included
        assert _bits(from_arcs([-1.0, 1.0], [(0.0, d)], 2).pieces[0]) == _bits(Poly(d))
        c = F(rng.randrange(-50, 50), rng.randrange(1, 9))
        d = [F(rng.randrange(-9, 9), rng.randrange(1, 5)) for _ in range(rng.randrange(1, 6))]
        (p,) = from_arcs([c - 1, c + 1], [(c, d)], 4).pieces
        assert _bits(p) == _bits(Poly(taylor_coefficients(Poly(d), -c)))
        assert p == Poly(d).compose_affine(-c, F(1))
    assert _bits(from_arcs([0.0, 1.0], [(0.0, (-1.0, -0.0, 0.5))], 2).pieces[0])[1] == (float, "-0x0.0p+0")
    # an exact arc about 0 goes through the shift too: int coefficients become Fractions, a zero the int 0
    (p,) = from_arcs([F(0), F(1)], [(F(0), (1, F(0), F(1, 2)))], 2).pieces
    assert _bits(p) == [(F, F(1)), (int, 0), (F, F(1, 2))]


@pytest.mark.parametrize("make", [
    lambda: q_train(-2 * SQRT2, -5.0, 9.0),  # an arc about 0 with a -0.0 coefficient
    lambda: euler_spline_piecewise(5, F(-1, 3), F(7, 2)),
], ids=["float", "exact"])
def test_from_arcs_rebuilds_a_spline_from_its_arcs(make):
    f = make()
    g = from_arcs(f.knots, f.arcs, f.n_smooth)
    assert (g.knots, g.n_smooth) == (f.knots, f.n_smooth)
    assert [_bits(p) for p in g.pieces] == [_bits(p) for p in f.pieces]


def test_transform_round_trip_values():
    f = two_contact_extreme(1, 2)
    g = transform(f, mu=F(3), lam=F(-2), t0=F(1))
    # domain maps to [0, 1]
    assert (float(g.t_start), float(g.t_end)) == (0.0, 1.0)
    for t in [0.0, 0.3, 0.49, 0.7, 0.9, 1.0]:
        assert float(g(t)) == pytest.approx(3 * float(f(-2 * (t - 1))), abs=1e-12)


def test_total_variation():
    f = PiecewisePoly([F(0), F(4)], [Poly([F(1), F(0), F(-1, 2)]).compose_affine(-2, F(1))], 2)
    assert total_variation(f) == pytest.approx(4.0, abs=1e-12)
    ramp = PiecewisePoly([F(0), F(2)], [Poly([F(0), F(1, 2)])], 2)
    assert total_variation(ramp) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("t0", [0, 10**3, 10**4, 10**6, F(10**9, 3)])
def test_total_variation_of_an_exact_spline_far_from_the_origin(t0):
    # a float copy of the global antiderivative gave 163840.0 at t0 = 1e4 and
    # 3.4e15 at 1e6; the exact antiderivative at the exact cuts gives 2 per piece
    assert total_variation(transform(euler_spline_piecewise(5, F(0), F(6)), t0=t0)) == 12.0
    assert total_variation(transform(euler_spline_piecewise(4, F(1, 4), F(25, 4)), t0=t0)) == \
        total_variation(euler_spline_piecewise(4, F(1, 4), F(25, 4)))


def test_json_round_trip():
    f = two_contact_extreme(1, 2)
    d = f.to_json_dict()
    assert d["knots"][0] == "0/1"
    g = PiecewisePoly.from_json_dict(d)
    assert g.knots == f.knots and g.pieces == f.pieces and g.n_smooth == 2

    h = q_restriction_pieces()
    j = json.loads(h.to_json())
    k = PiecewisePoly.from_json_dict(j)
    for t in [0.0, 1.0, 2.5, 5.0]:
        assert float(k(t)) == pytest.approx(float(h(t)), abs=1e-12)
    with pytest.raises(StructuralError):
        PiecewisePoly.from_json("{not json")
    with pytest.raises(StructuralError):
        PiecewisePoly.from_json('{"knots": [0.0], "pieces": [], "n": 2}')


def test_non_finite_splines_are_rejected():
    nan = math.nan
    # built in code: a NaN sup or a NaN n-th derivative is a violation
    rep = membership(PiecewisePoly([0.0, 1.0], [Poly([nan])], 2), 2, 1, 1)
    assert not rep.ok and any(v.kind == "sup" for v in rep.violations)
    rep = membership(PiecewisePoly([0.0, 1.0], [Poly([0.0, 0.0, nan])], 2), 2, 1, 1)
    assert not rep.ok and any(v.kind == "nth-derivative" for v in rep.violations)
    # read from JSON: non-finite knots or coefficients are structural errors
    for text in ('{"knots": [0, 1], "pieces": [[NaN]], "n": 2}',
                 '{"knots": [0, Infinity], "pieces": [[0.5]], "n": 2}',
                 '{"knots": [0, 1], "pieces": [[0.5, -Infinity]], "n": 2}'):
        with pytest.raises(StructuralError):
            PiecewisePoly.from_json(text)


def test_membership_sees_a_bump_hidden_by_a_split_midpoint_root():
    # f' has the roots 1/10, 3/4 and 7/8; |f(1/10)| = 0.05302 > a, and the
    # sup check finds it only if the root isolator keeps 1/10
    f = PiecewisePoly.from_json(
        '{"knots": ["0/1", "1/1"], "pieces": [["-1/20", "-21/320", "131/320", "-23/40", "1/4"]], "n": 4}'
    )
    assert abs(float(f(Fraction(1, 10)))) > 0.053
    report = membership(f, 4, Fraction(51, 1000), Fraction(6))
    assert not report.ok and not report.numeric
    assert [v.kind for v in report.violations] == ["sup"]


def test_exact_sup_just_above_a_is_no_member():
    # sup 1 + 2^-60 at the rational vertex t = 1/2: equal to 1 once rounded to float
    p = Poly([1 + F(1, 2**60) - F(1, 8), F(1, 2), F(-1, 2)])
    report = membership(PiecewisePoly([F(0), F(1)], [p], 2), 2, F(1), F(1))
    assert not report.ok and not report.numeric
    assert [v.kind for v in report.violations] == ["sup"]


@pytest.mark.parametrize("L", [F(1), F(1, 10**9), F(1, 10**11)])
def test_exact_sup_at_an_irrational_point_of_a_short_piece(L):
    # c (t/L - t^3/L^3) peaks at t = L / sqrt(3) with value 1 + 1e-7 (just
    # below 1 for the second c); a critical-point bracket of fixed width 1e-12
    # would read the sup about 2.6e-6 low once L is 1e-9
    for rel, member in ((1e-7, False), (-1e-7, True)):
        c = F(3 * math.sqrt(3) / 2 * (1 + rel))
        f = PiecewisePoly([F(0), L], [Poly([0, c / L, 0, -c / L**3])], 3)
        report = membership(f, 3, F(1), F(10**40))
        assert report.ok is member and not report.numeric


def _found_piece():
    # 1 + 10^-30 - (t^2 - 2)^2 peaks at the irrational t = sqrt(2) with 1 + 10^-30,
    # far less above 1 than p falls across a 1e-12 bracket of sqrt(2)
    return PiecewisePoly([F(13, 10), F(3, 2)], [Poly([F(1, 10**30) - 3, 0, 4, 0, -1])], 4)


def test_a_sup_just_above_a_at_an_irrational_point_is_no_member():
    report = membership(_found_piece(), 4, F(1), F(100))
    assert not report.ok and not report.numeric
    assert report.violations == (Violation("sup", 1.3, "sup |f| = 1.0 > 1.0 on piece 0"),)
    with pytest.raises(MembershipError):
        is_extreme_point(_found_piece(), 4, F(1), F(100))


@pytest.mark.parametrize("a, b", [(1.0, 100.0), (F(1), 100.0)])
def test_exact_pieces_are_checked_exactly_against_float_bounds(a, b):
    # float bounds mean their exact binary values, so an exact spline takes the
    # exact lane whatever the type of a and b, and its verdict does not change
    report = membership(_found_piece(), 4, a, b)
    assert report == membership(_found_piece(), 4, F(1), F(100))
    assert not report.ok and not report.numeric
    parabola = PiecewisePoly([F(0), F(4)], [Poly([F(-1), F(2), F(-1, 2)])], 2)
    verdict = is_extreme_point(parabola, 2, F(1), b / 100)
    assert verdict.is_extreme and verdict.numeric is False
    assert verdict == is_extreme_point(parabola, 2, F(1), F(1))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 7),
    x0=st.fractions(min_value=-2, max_value=2, max_denominator=4),
    perturb=st.one_of(st.none(), st.tuples(st.integers(0, 99), st.integers(0, 7),
                                           st.sampled_from([F(1, 10**3), F(-1, 10**9), F(1, 10**30)]))),
    a=st.one_of(st.sampled_from([1.0, 1 - 2.0**-52, 1 + 2.0**-52, 0.3]), st.floats(0.5, 2.0)),
    rel_b=st.one_of(st.just(1.0), st.floats(0.5, 2.0)),
)
def test_float_bounds_give_the_report_of_their_exact_values(n, x0, perturb, a, rel_b):
    # exact Euler splines and copies with one coefficient of one piece moved
    f = _moved_euler(n, x0, perturb)[0]
    b = float(abs(f.pieces[0].coeffs[n]) * math.factorial(n)) * rel_b
    report = membership(f, n, a, b)
    assert not report.numeric
    assert report == membership(f, n, F(a), F(b))


_rational = st.fractions(min_value=-3, max_value=3, max_denominator=40)


@settings(max_examples=300, deadline=None)
@given(
    quartic=st.booleans(),
    c=_rational,
    k=_rational,
    r=_rational,
    m=st.sampled_from([2, 3, 5, 6, 7]),
    w=st.fractions(min_value=F(1, 10), max_value=F(6, 5), max_denominator=20),
    lo=_rational,
    width=st.fractions(min_value=F(1, 40), max_value=4, max_denominator=40),
    offset=st.sampled_from([-1, 0, 1, None]),
    eps=st.sampled_from([F(1, 10**30), F(1, 10**6)]),
)
def test_exact_verdict_is_the_known_sup_against_a(quartic, c, k, r, m, w, lo, width, offset, eps):
    # |p| peaks only at the ends and at critical points: r for c - k (t - r)^2, and
    # 0 and +-sqrt(s) for A - (t^2 - s)^2 (A = 10 c), which takes A exactly at the
    # irrational +-sqrt(s) (s = m w^2 is not the square of a rational)
    hi = lo + width
    inside = lambda x: lo <= x <= hi
    if quartic:
        s, A = m * w * w, 10 * c
        p = Poly([A - s * s, 0, 2 * s, 0, -1])
        n, b = 4, F(24)
        # +-sqrt(s) in [lo, hi], decided on squares (never equal: s is no square)
        at_root = ((lo < 0 or lo * lo < s) and hi > 0 and s < hi * hi) or (
            lo < 0 and s < lo * lo and (hi > 0 or hi * hi < s))
        peaks = [abs(A)] * at_root + [abs(p(0))] * inside(0)
    else:
        p = Poly([c - k * r * r, 2 * k * r, -k])
        n, b = 2, 2 * abs(k) + 1
        peaks = [abs(c)] * inside(r)
    sup = max([abs(p(lo)), abs(p(hi))] + peaks)
    # a just below, at or just above the sup, or anywhere
    a = sup + offset * eps if offset is not None else abs(c) + eps
    assume(a > 0)
    report = membership(PiecewisePoly([lo, hi], [p], n), n, a, b)
    assert report.ok is (sup <= a) and not report.numeric
    assert [v.kind for v in report.violations] == ([] if report.ok else ["sup"])


def test_join_violations_are_worded_order_by_order():
    # every order 0..3 jumps at 1/3; orders 1, 2 and 3 at 2, the order-2 gap
    # 1e-400 below the float range; order n = 4 may jump
    t1, t2 = F(1, 3), F(2)
    p0 = Poly([F(1, 5), F(-1, 2), F(3, 7), F(1, 9), F(-1, 24)])
    p1 = p0 + Poly([F(1, 7), F(-2), F(5, 3), F(1, 1000), F(1, 2)]).compose_affine(-t1, 1)
    p2 = p1 + Poly([0, F(1, 10**6), F(1, 10**400), F(123456, 7)]).compose_affine(-t2, 1)
    f = PiecewisePoly([F(0), t1, t2, F(7, 2)], [p0, p1, p2], 4)
    third = 0.3333333333333333
    assert membership(f, 4, F(10**9), F(10**9)).violations == (
        Violation("join", third, "order-0 mismatch at knot 1: gap 1.429e-01"),
        Violation("join", third, "order-1 mismatch at knot 1: gap 2.000e+00"),
        Violation("join", third, "order-2 mismatch at knot 1: gap 3.333e+00"),
        Violation("join", third, "order-3 mismatch at knot 1: gap 6.000e-03"),
        Violation("join", 2.0, "order-1 mismatch at knot 2: gap 1.000e-06"),
        Violation("join", 2.0, "order-2 mismatch at knot 2: gap 0.000e+00"),
        Violation("join", 2.0, "order-3 mismatch at knot 2: gap 1.058e+05"),
    )


def _bracket_reading(f, n, a, b):
    """The exact membership report as read before the sign test: joins compared
    order by order, sups read at the ends of the critical-point brackets."""
    violations = [Violation("degree", float(f.knots[i]), f"piece {i} has degree {p.degree} > {n}")
                  for i, p in enumerate(f.pieces) if p.degree > n]
    for i in range(1, len(f.pieces)):
        t, dl, dr = f.knots[i], f.pieces[i - 1], f.pieces[i]
        for order in range(min(n, max(dl.degree, dr.degree) + 1)):
            if order:
                dl, dr = dl.derivative(), dr.derivative()
            if dl(t) != dr(t):
                gap = abs(float(dl(t) - dr(t)))
                violations.append(Violation("join", float(t), f"order-{order} mismatch at knot {i}: gap {gap:.3e}"))
    for i, p in enumerate(f.pieces):
        dn = abs(p.coeffs[n] * math.factorial(n)) if p.degree >= n else 0
        if dn > b:
            violations.append(Violation("nth-derivative", float(f.knots[i]),
                                        f"|f^({n})| = {float(dn)} > {float(b)} on piece {i}"))
    for i, (p, lo, hi) in enumerate(zip(f.pieces, f.knots, f.knots[1:])):
        if (sup := piece_sup(p, lo, hi)) > a:
            violations.append(Violation("sup", float(lo), f"sup |f| = {float(sup)} > {float(a)} on piece {i}"))
    return MembershipReport(not violations, False, tuple(violations))


def _rises_above(p, lo, hi, a):
    """A rational t in [lo, hi] with |p(t)| > a, searched in the brackets of
    the sign changes of p' narrowed to 1e-40."""
    dp = p.derivative()
    for root in real_roots_exact(dp, lo, hi):
        x, y = root.bracket
        while y - x > F(1, 10**40) and dp(x) * dp(y) < 0:
            mid = (x + y) / 2
            x, y = (x, mid) if dp(x) * dp(mid) <= 0 else (mid, y)
        if max(abs(p(x)), abs(p(y))) > a:
            return True
    return False


def _euler_sweep():
    """Euler splines n = 2..12 on [x0, x0 + 3], each followed by three copies
    with one coefficient of one piece moved by 1e-3, -1e-9 or 1e-30 of itself."""
    rng = random.Random(17)
    for n in range(2, 13):
        for x0 in (F(0), F(1, 3), F(-5, 4)):
            f = euler_spline_piecewise(n, x0, x0 + 3)
            b = abs(f.pieces[0].coeffs[n]) * math.factorial(n)
            yield n, f, b
            for rel in (F(1, 10**3), F(-1, 10**9), F(1, 10**30)):
                i, j = rng.randrange(len(f.pieces)), rng.randrange(n + 1)
                coeffs = list(f.pieces[i].coeffs)
                coeffs[j] += rel * (coeffs[j] or 1)
                pieces = list(f.pieces)
                pieces[i] = Poly(coeffs)
                yield n, PiecewisePoly(f.knots, pieces, n), b


def test_sign_verdicts_agree_with_the_bracket_reading_on_euler_splines():
    # the reports agree wherever the reading is right; where they differ, the
    # reading missed a sup above a that a narrower bracket shows. The
    # certificate refuses every non-member with the report of membership
    counts = {"splines": 0, "members": 0, "extreme": 0, "reading_wrong": 0}
    for n, f, b in _euler_sweep():
        counts["splines"] += 1
        report, reading = membership(f, n, F(1), b), _bracket_reading(f, n, F(1), b)
        if report.ok:
            counts["members"] += 1
            counts["extreme"] += is_extreme_point(f, n, F(1), b).is_extreme
        else:
            with pytest.raises(MembershipError) as exc:
                is_extreme_point(f, n, F(1), b)
            assert exc.value.report == report
        if report != reading:
            counts["reading_wrong"] += 1
            missed = [v for v in report.violations if v not in reading.violations]
            assert [v for v in report.violations if v not in missed] == list(reading.violations)
            for v in missed:
                i = int(v.detail.rsplit(" ", 1)[1])
                assert v.kind == "sup" and _rises_above(f.pieces[i], f.knots[i], f.knots[i + 1], 1)
    assert counts == {"splines": 132, "members": 33, "extreme": 17, "reading_wrong": 2}


def _moved_euler(n, x0, perturb):
    """The Euler spline of order n on [x0, x0 + 3] (sup 1, |f^(n)| = b), with
    one coefficient of one piece moved by rel of itself when perturb = (i, j, rel)."""
    f = euler_spline_piecewise(n, x0, x0 + 3)
    b = abs(f.pieces[0].coeffs[n]) * math.factorial(n)
    if perturb is not None:
        i, j, rel = perturb[0] % len(f.pieces), perturb[1] % (n + 1), perturb[2]
        coeffs = list(f.pieces[i].coeffs)
        coeffs[j] += rel * (coeffs[j] or 1)
        pieces = list(f.pieces)
        pieces[i] = Poly(coeffs)
        f = PiecewisePoly(f.knots, pieces, n)
    return f, n, b, F(1)


def _peak_piece(quartic, c, u, lo):
    """One piece on [lo, lo + 2] whose |p| peaks at a known place: c - (t - r)^2
    at the rational r = lo + u, or c - (t^2 - 2)^2 at the irrational +-sqrt(2),
    with the sup of |p| on the piece, found exactly."""
    hi, r = lo + 2, lo + u
    if quartic:
        p, n = Poly([c - 4, 0, 4, 0, -1]), 4
        at_peak = [c] * ((lo < 0 or lo * lo < 2) and hi > 0 and 2 < hi * hi or lo < 0 and 2 < lo * lo)
        at_peak += [abs(p(0))] * (lo <= 0 <= hi)
    else:
        p, n = Poly([c - r * r, 2 * r, -1]), 2
        at_peak = [abs(c)] * (lo <= r <= hi)
    return PiecewisePoly([lo, hi], [p], n), n, F(24), max([abs(p(lo)), abs(p(hi))] + at_peak)


@settings(max_examples=200, deadline=None)
@given(
    spline=st.one_of(
        st.builds(_moved_euler, st.integers(2, 7), st.fractions(-2, 2, max_denominator=4),
                  st.one_of(st.none(), st.tuples(st.integers(0, 99), st.integers(0, 7),
                                                 st.sampled_from([F(1, 10**3), F(-1, 10**9), F(1, 10**30)])))),
        st.builds(_peak_piece, st.booleans(), st.fractions(F(1, 2), 3, max_denominator=8),
                  st.fractions(-1, 3, max_denominator=8), st.fractions(-3, 1, max_denominator=8)),
        st.just((_found_piece(), 4, F(100), 1 + F(1, 10**30))),
    ),
    scale=st.sampled_from([1, F(1, 4)]),
    offset=st.sampled_from([-1, 0, 1]),
    eps=st.sampled_from([F(1, 10**30), F(1, 10**6)]),
    as_float=st.booleans(),
)
def test_extreme_point_certificate_finds_the_non_members_of_membership(spline, scale, offset, eps, as_float):
    # the certificate decides |f| <= a from the roots of p -/+ a that give the
    # contacts; membership from Sturm counts (exact) or its own peaks (float).
    # a is the sup of |f| (a touch) or eps below (a crossing) or above it, or
    # a quarter of it, which whole pieces lie beyond; a piece whose |p| peaks
    # at +-sqrt(2) touches a there at an irrational point
    f, n, b, sup = spline
    a = sup * scale + offset * eps
    assume(a > 0)
    if as_float:
        f = _float_copy(f)
    report = membership(f, n, a, b)
    try:
        is_extreme_point(f, n, a, b)
    except MembershipError as exc:
        assert not report.ok and exc.report == report
    else:
        assert report.ok


def test_the_certificate_searches_each_piece_once_per_sign(monkeypatch):
    f = euler_spline_piecewise(5, F(0), F(6))
    b = abs(f.pieces[0].coeffs[5]) * math.factorial(5)
    calls = {"real_roots_exact": 0, "_float_peaks": 0}

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(owner, name, wrapper)

    counted(pwpoly._roots, "real_roots_exact")
    counted(pwpoly, "_float_peaks")
    assert is_extreme_point(f, 5, F(1), b).is_extreme
    # the six exact pieces are one local piece P(u) = p(lo + u) on [0, 1] up to
    # sign: searched once per sign in a call
    assert len(f.pieces) == 6
    assert calls == {"real_roots_exact": 2, "_float_peaks": 0}
    calls.update(real_roots_exact=0)
    assert is_extreme_point(_float_copy(f), 5, 1.0, float(b)).is_extreme
    assert calls == {"real_roots_exact": 0, "_float_peaks": len(f.pieces)}


def test_joins_are_read_once_per_distinct_pair_of_local_forms(monkeypatch):
    # the six pieces of EE_5 on [0, 6] are one local form with alternating
    # signs, so the five joins are one (left key, relative sign, right key):
    # one Taylor shift per piece builds the forms, and one more reads the join
    f = euler_spline_piecewise(5, F(0), F(6))
    b = abs(f.pieces[0].coeffs[5]) * math.factorial(5)
    calls = []
    join_gaps, taylor_shift = pwpoly._join_gaps, pwpoly._roots._taylor_shift
    monkeypatch.setattr(pwpoly, "_join_gaps", lambda *args: calls.append("join") or join_gaps(*args))
    monkeypatch.setattr(pwpoly._roots, "_taylor_shift", lambda *args: calls.append("shift") or taylor_shift(*args))
    assert membership(f, 5, F(1), b).ok
    assert sorted(calls) == ["join"] + ["shift"] * (len(f.pieces) + 1)
    calls.clear()
    assert is_extreme_point(f, 5, F(1), b).is_extreme
    assert sorted(calls) == ["join"] + ["shift"] * (len(f.pieces) + 1)


def test_a_refused_periodic_train_reads_its_sup_once_per_local_form(monkeypatch):
    # EE_7 on [0, 40] is one local form up to sign on 40 pieces; just below its
    # sup every piece is refused, and the sup that words them is searched once
    calls = []
    real_roots_exact = pwpoly._roots.real_roots_exact
    monkeypatch.setattr(pwpoly._roots, "real_roots_exact", lambda *args: calls.append(1) or real_roots_exact(*args))
    for end in (6, 40):
        f = euler_spline_piecewise(7, F(0), F(end))
        b = abs(f.pieces[0].coeffs[7]) * math.factorial(7)
        calls.clear()
        report = membership(f, 7, 1 - F(1, 10**6), b)
        assert len(calls) == 2  # the sign search that fails, and one sup search
        assert report.violations == tuple(Violation("sup", float(lo), f"sup |f| = 1.0 > 0.999999 on piece {i}")
                                          for i, lo in enumerate(f.knots[:-1]))


def test_a_cut_piece_is_worded_with_the_sup_of_its_own_length():
    # the cut last piece of EE_4 has the local form of the full ones on a
    # shorter interval, so its sup (0.7125) is not theirs (1)
    f = euler_spline_piecewise(4, F(-1, 2), F(7, 4))
    b = abs(f.pieces[0].coeffs[4]) * math.factorial(4)
    sups = [piece_sup(p, lo, hi) for p, lo, hi in zip(f.pieces, f.knots, f.knots[1:])]
    assert [float(s) for s in sups] == [1.0, 1.0, 0.7125]
    assert membership(f, 4, F(1, 2), b).violations == tuple(
        Violation("sup", float(lo), f"sup |f| = {float(s)} > 0.5 on piece {i}")
        for i, (lo, s) in enumerate(zip(f.knots, sups)))


def test_the_certificate_checks_the_class_once_on_a_non_member(monkeypatch):
    calls = []
    check_pieces = pwpoly._check_pieces
    monkeypatch.setattr(pwpoly, "_check_pieces", lambda *args, **kw: calls.append(1) or check_pieces(*args, **kw))
    f = euler_spline_piecewise(5, F(0), F(6))
    b = abs(f.pieces[0].coeffs[5]) * math.factorial(5)
    for g, a in ((f, 1 - F(1, 10**6)), (_float_copy(f), 0.999)):
        calls.clear()
        with pytest.raises(MembershipError) as exc:
            is_extreme_point(g, 5, a, b)
        assert len(calls) == 1
        assert exc.value.report == membership(g, 5, a, b) and not exc.value.report.ok


def test_membership_builds_no_contact(monkeypatch):
    # a pointwise witness touches +-a; membership decides |f| <= a in the pass
    # that finds the contacts but builds none of them
    built = []
    for name in ("ContactPoint", "ContactInterval", "_touches"):
        step = getattr(pwpoly, name)
        monkeypatch.setattr(pwpoly, name, lambda *args, step=step: built.append(step) or step(*args))
    f = compute_bound(BoundQuery(2, 1, 1.0, 1.0, Segment(10.0), t0=1.0)).witness
    assert not f.is_exact() and membership(f, 2, 1.0, 1.0).ok
    assert built == []
    assert is_extreme_point(f, 2, 1.0, 1.0).contact_points and built


def test_a_negated_piece_breaks_its_two_joins_and_no_other():
    # negating piece 3 of EE_5 keeps every local form up to sign but turns the
    # relative sign of its two joins from -1 to +1
    f = euler_spline_piecewise(5, F(0), F(6))
    b = abs(f.pieces[0].coeffs[5]) * math.factorial(5)
    pieces = f.pieces[:3] + (-f.pieces[3],) + f.pieces[4:]
    want = tuple(Violation("join", float(f.knots[i]), f"order-{m} mismatch at knot {i}: gap {gap:.3e}")
                 for i in (3, 4) for m, gap in _reference_gaps(pieces[i - 1], pieces[i], f.knots[i], 5))
    assert want and membership(PiecewisePoly(f.knots, pieces, 5), 5, F(1), b).violations == want


def _reference_gaps(left, right, t, n):
    """The (order, gap) list of the join of left and right at t from the Taylor
    coefficients of left - right at t, as the joins were read before local forms."""
    return [(m, abs(float(c * math.factorial(m)))) for m, c in enumerate(taylor_coefficients(left - right, t)[:n]) if c]


_FRACTIONS = st.lists(st.fractions(-5, 5, max_denominator=12), max_size=6)


@settings(max_examples=300, deadline=None)
@given(left=_FRACTIONS, tail=_FRACTIONS, order=st.integers(0, 7), negate=st.booleans(),
       lo=st.fractions(-3, 3, max_denominator=30), left_length=st.fractions(F(1, 30), 4, max_denominator=30),
       right_length=st.fractions(F(1, 30), 4, max_denominator=30), n=st.integers(1, 13))
def test_join_gaps_are_those_of_the_difference_at_the_knot(left, tail, order, negate, lo, left_length,
                                                           right_length, n):
    # right = +-left + (t - knot)^order tail: gaps from `order` up when left is
    # kept, at low orders too when it is negated; zero pieces when the lists
    # are empty, and pieces cut to unequal lengths
    knot = lo + left_length
    p, bump = Poly(left), Poly(tail)
    for _ in range(order):
        bump = bump * Poly([-knot, F(1)])
    q = (-p if negate else p) + bump
    (left_key, left_sign), (right_key, right_sign) = (pwpoly._local_piece(p, lo, knot),
                                                      pwpoly._local_piece(q, knot, knot + right_length))
    assert pwpoly._join_gaps(left_key, left_sign * right_sign, right_key, n) == _reference_gaps(p, q, knot, n)


def _nonpositive(p, lo, hi):
    """Whether p <= 0 on [lo, hi], decided as membership decides |P| <= a:
    p + 1 <= 1 from the root search of its local form."""
    return pwpoly._local_contacts(*pwpoly._local_piece(p + Poly([1]), lo, hi), F(1))[0]


def test_local_contacts_read_signs_at_the_ends_and_inside():
    # -(t - 1)^2 touches 0 at 1; -(t - 1)^3 is negative only right of 1
    step = Poly([F(-1), F(1)])
    square, cube = -(step * step), -(step * step * step)
    assert _nonpositive(square, F(0), F(2)) and _nonpositive(square, F(1), F(3))
    assert _nonpositive(cube, F(1), F(2)) and _nonpositive(-cube, F(0), F(1))
    assert not _nonpositive(cube, F(0), F(2)) and not _nonpositive(cube, F(0), F(1))
    # (t^2 - 2)^2 - 1e-30 dips below 0 only near sqrt(2)
    dip = Poly([-2, 0, 1]) * Poly([-2, 0, 1]) - Poly([F(1, 10**30)])
    assert not _nonpositive(-dip, F(13, 10), F(3, 2)) and _nonpositive(-dip, F(3, 2), F(2))
    assert _nonpositive(Poly(), F(0), F(1)) and not _nonpositive(Poly([F(1, 10**40)]), F(0), F(1))


def _certificate_reading(g, n, a, b, reverse=False):
    """What `membership` and `is_extreme_point` say about g that a translate or
    a reflection (reverse) must repeat; every contact lies in the domain, where
    g = sign * a to within 1e-6."""
    report = membership(g, n, a, b)
    reading = [report.ok, sorted(v.kind for v in report.violations)]
    try:
        verdict = is_extreme_point(g, n, a, b)
    except MembershipError as exc:
        assert not report.ok and exc.report == report
        return reading
    assert report.ok and not verdict.contact_intervals
    for cp in verdict.contact_points:
        assert float(g.t_start) <= cp.t <= float(g.t_end) and abs(g(F(cp.t)) - cp.sign * a) <= F(1, 10**6), cp
    points = verdict.contact_points[::-1] if reverse else verdict.contact_points
    return reading + [verdict.is_extreme, verdict.multiplicity_sum, [(cp.sign, cp.multiplicity) for cp in points]]


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 9), j=st.integers(-8, 8), length=st.fractions(F(1, 4), 6, max_denominator=4),
    perturb=st.one_of(st.none(), st.tuples(st.integers(0, 99), st.integers(0, 9), st.sampled_from([-1, 1]),
                                           st.sampled_from([3, 9, 30]))),
    t0=st.fractions(-10**6, 10**6, max_denominator=7),
    below=st.sampled_from([0, F(1, 10**30), -F(1, 10**6)]),
)
def test_local_pieces_give_the_verdicts_of_translates_and_reflections(n, j, length, perturb, t0, below):
    # exact pieces are checked once per distinct local form P(u) = p(lo + u) on
    # [0, hi - lo] up to sign; a translate has the same local forms, a reflection
    # others, a moved coefficient a new one
    f = euler_spline_piecewise(n, F(j, 4), F(j, 4) + length)
    b = abs(f.pieces[0].coeffs[n]) * math.factorial(n)
    if perturb is not None:
        i, m, sign, k = perturb[0] % len(f.pieces), perturb[1] % (n + 1), perturb[2], perturb[3]
        coeffs = list(f.pieces[i].coeffs)
        coeffs[m] += sign * F(1, 10**k) * (coeffs[m] or 1)
        f = PiecewisePoly(f.knots, f.pieces[:i] + (Poly(coeffs),) + f.pieces[i + 1:], n)
    a = 1 - below
    reading = _certificate_reading(f, n, a, b)
    assert _certificate_reading(transform(f, t0=t0), n, a, b) == reading
    assert _certificate_reading(transform(f, lam=-1), n, a, b, reverse=True) == reading


def test_a_moved_middle_piece_of_a_periodic_train_is_refused_at_that_piece():
    f = euler_spline_piecewise(5, F(0), F(6))
    b = abs(f.pieces[0].coeffs[5]) * math.factorial(5)
    coeffs = list(f.pieces[3].coeffs)
    coeffs[0] += coeffs[0] / 10**30
    moved = PiecewisePoly(f.knots, f.pieces[:3] + (Poly(coeffs),) + f.pieces[4:], 5)
    report = membership(moved, 5, F(1), b)
    assert [(v.kind, v.where) for v in report.violations] == [("join", 3.0), ("join", 4.0), ("sup", 3.0)]
    with pytest.raises(MembershipError) as exc:
        is_extreme_point(moved, 5, F(1), b)
    assert exc.value.report == report
    assert membership(f, 5, F(1), b).ok and is_extreme_point(f, 5, F(1), b).is_extreme


def test_a_cut_last_piece_is_checked_on_its_own_length():
    # EE_4 peaks at the middle of its full pieces; the last piece, cut to
    # [3/2, 7/4], has the local form of the full ones but stops before its peak
    f = euler_spline_piecewise(4, F(-1, 2), F(7, 4))
    b = abs(f.pieces[0].coeffs[4]) * math.factorial(4)
    assert f.knots == (F(-1, 2), F(1, 2), F(3, 2), F(7, 4))
    report = membership(f, 4, 1 - F(1, 10**30), b)
    assert [(v.kind, v.where) for v in report.violations] == [("sup", -0.5), ("sup", 0.5)]
    verdict = is_extreme_point(f, 4, F(1), b)
    assert verdict.contact_points == (ContactPoint(0.0, 1, 2), ContactPoint(1.0, -1, 2))
    assert verdict.is_extreme and verdict.multiplicity_sum == 4


def reference_abs_integral(p, lo, hi, exact):
    """Integral of |p| over [lo, hi], a rule apart from `variation`: split at
    the roots of p inside, integrate in between; exact, the antiderivative of
    p in global coordinates at the exact cuts (an irrational root at the
    midpoint of its bracket), the sum rounded once; float, a float copy of the
    antiderivative at the float roots of p."""
    if not exact:
        flo, fhi = float(lo), float(hi)
        roots = [] if p.is_zero() else real_roots_float(p, flo, fhi)
        cuts = [flo] + [r for r in roots if flo < r < fhi] + [fhi]
        anti = p.antiderivative().to_float()
        return sum((abs(anti(v) - anti(u)) for u, v in zip(cuts, cuts[1:])), 0.0)
    lo, hi = F(lo), F(hi)
    cuts = [lo, *(sum(r.bracket) / 2 for r in real_roots_exact(p, lo, hi) if r.exact not in (lo, hi)), hi]
    f, scale = _cleared(p)
    top = math.lcm(*range(1, len(f) + 1))
    anti = [0] + [c * (top // (m + 1)) for m, c in enumerate(f)]
    ends = [(_values([anti], x.numerator, x.denominator)[0], x.denominator ** (len(anti) - 1)) for x in cuts]
    num, den = 0, 1
    for (v0, w0), (v1, w1) in zip(ends, ends[1:]):
        num, den = num * w0 * w1 + abs(v1 * w0 - v0 * w1) * den, den * w0 * w1
    return num / (den * scale * top)


def _reference_variation(f):
    exact = f.is_exact()
    return sum(reference_abs_integral(p.derivative(), lo, hi, exact) for p, lo, hi in zip(f.pieces, f.knots, f.knots[1:]))


def _random_exact_spline(rng):
    """1 to 6 pieces of degree 0 to 12 on rational knots: zero and constant
    pieces, critical points at an end or inside (some double), and random
    coefficients with irrational critical points."""
    def frac(big=20, den=12):
        return F(rng.randint(-big, big), rng.randint(1, den))

    knots = [frac(10, 6)]
    for _ in range(rng.randint(1, 6)):
        knots.append(knots[-1] + F(rng.randint(1, 30), rng.randint(1, 10)))
    pieces = []
    for lo, hi in zip(knots, knots[1:]):
        kind, d = rng.random(), rng.randint(0, 12)
        if kind < 0.08:
            pieces.append(Poly())
        elif kind < 0.16:
            pieces.append(Poly([frac()]))
        elif kind < 0.4:  # p' = (t - r) q, (t - r)^2 q
            r = rng.choice([lo, hi, lo + (hi - lo) * F(rng.randint(1, 9), 10)])
            dp = Poly([-r, F(1)]) * Poly([frac() for _ in range(rng.randint(1, max(1, d - 1)))])
            if rng.random() < 0.3:
                dp = dp * Poly([-r, F(1)])
            pieces.append(dp.antiderivative() + Poly([frac()]))
        else:
            pieces.append(Poly([frac() for _ in range(d + 1)]))
    return PiecewisePoly(knots, pieces, 2)


def _exact_variation_cases():
    for n in range(1, 13):
        for x0, x1 in [(F(0), F(2)), (F(-3, 2), F(7, 3)), (F(1, 7), F(1, 5)), (F(-5), F(6))]:
            yield euler_spline_piecewise(n, x0, x1)
    rng = random.Random(20261022)
    for _ in range(200):
        f = _random_exact_spline(rng)
        yield f
        mu, lam = F(rng.randint(1, 20), rng.randint(1, 12)), F(rng.randint(-5, 5) or 1, rng.randint(1, 7))
        yield transform(f, mu=mu, lam=lam, t0=F(rng.randint(-100, 100), rng.randint(1, 9)))


def test_exact_variation_is_the_reference_bit_for_bit():
    # Euler exports, random exact splines and their Fraction transforms: the
    # variation of p at the critical points of its local form is the integral
    # of |p'| at the global cuts, the same rational rounded once
    for f in _exact_variation_cases():
        assert f.is_exact()
        for p, lo, hi in zip(f.pieces, f.knots, f.knots[1:]):
            assert repr(variation(p, lo, hi)) == repr(reference_abs_integral(p.derivative(), lo, hi, True))
        assert repr(total_variation(f)) == repr(_reference_variation(f))


def test_float_variation_is_the_reference_within_rel_tol():
    rng = random.Random(3)
    splines = []
    for i in range(100):
        a, b = 4.0 ** rng.randint(-2, 2), 4.0 ** rng.randint(-2, 2)
        splines.append(random_member(a, b, 3.0 * (1 + i % 4) * math.sqrt(a / b), seed=101 + i))
    for _ in range(100):
        a, b, T = math.exp(rng.uniform(-3, 3)), math.exp(rng.uniform(-3, 3)), rng.uniform(0.1, 20.0)
        splines.append(sigma_pointwise(PointwiseQuery(rng.uniform(0, T), T, a, b)).witness)
    splines.append(compute_bound(BoundQuery(5, 1, 1.0, 1.0, FullLine)).witness)
    for f in splines:
        assert not f.is_exact()
        want = _reference_variation(f)
        assert abs(total_variation(f) - want) <= pwpoly.REL_TOL * want
        p, lo, hi = f.pieces[0], f.knots[0], f.knots[1]
        assert variation(p, lo, hi) == pytest.approx(reference_abs_integral(p.derivative(), lo, hi, False),
                                                     rel=pwpoly.REL_TOL)


def test_exact_total_variation_searches_once_per_local_form(monkeypatch):
    # the 40 pieces of EE_7 on [0, 40] are one local form up to sign
    f = euler_spline_piecewise(7, 0, 40)
    calls = []
    search = pwpoly._roots.real_roots_exact
    monkeypatch.setattr(pwpoly._roots, "real_roots_exact", lambda *args: calls.append(args) or search(*args))
    assert len(f.pieces) == 40
    assert total_variation(f) == 80.0
    assert len(calls) <= 2
