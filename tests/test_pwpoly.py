import json
import math
import random
from fractions import Fraction

import pytest

from landaukol.exactnum import Poly
from landaukol.pwpoly import (
    ContactInterval,
    MembershipError,
    PiecewisePoly,
    StructuralError,
    contact_set,
    is_extreme_point,
    membership,
    total_variation,
    transform,
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


def test_structural_errors():
    with pytest.raises(StructuralError):
        PiecewisePoly([F(1), F(0)], [Poly([F(0)])], 2)
    with pytest.raises(StructuralError):
        PiecewisePoly([0.0, 5e-13], [Poly([F(0)])], 2)
    with pytest.raises(StructuralError):
        PiecewisePoly([F(0), F(1)], [], 2)


def test_contact_set_two_endpoints():
    f = two_contact_extreme(1, 2)
    points, intervals = contact_set(f, 2, F(1))
    assert not intervals
    assert [(round(p.t, 12), p.sign, p.multiplicity) for p in points] == [
        (0.0, -1, 1),
        (2.0, 1, 1),
    ]


def test_contact_interval():
    f = PiecewisePoly([F(0), F(1)], [Poly([F(1)])], 2)
    points, intervals = contact_set(f, 2, F(1))
    assert points == []
    assert intervals == [ContactInterval(0.0, 1.0, 1)]


def test_contact_set_q_restriction():
    f = q_restriction_pieces()
    points, intervals = contact_set(f, 2, 1)
    assert not intervals
    ts = sorted(p.t for p in points)
    assert ts == pytest.approx([0.0, 2 * SQRT2, 4 * SQRT2], abs=1e-9)
    assert all(p.multiplicity == 2 for p in points)
    signs = [p.sign for p in sorted(points, key=lambda p: p.t)]
    assert signs == [1, -1, 1]


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
