import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from landaukol import landau2
from landaukol.bounds import BoundQuery, FullLine, HalfLine, Segment
from landaukol.exactnum import Poly
from landaukol.landau2 import (
    G,
    extend_to_line,
    extendable_to_line,
    insert_bump,
    lattice_witness_unit,
    phi,
    pointwise_speed_bound,
    prolong_affine,
    q_eval,
    q_train,
    sigma1,
    sigma_inf,
    sigma_pointwise,
)
from landaukol.pwpoly import PiecewisePoly, is_extreme_point, membership, total_variation

SQRT2 = math.sqrt(2.0)
F = Fraction


def check_witness(result, a, b, tol=1e-10):
    """Every attached witness is a member and attains the value claimed."""
    assert result.witness is not None
    assert membership(result.witness, 2, a, b).ok
    attained = abs(float(result.witness.deriv_value(result.witness_point, 1)))
    assert attained == pytest.approx(result.value, abs=tol)


def test_phi():
    assert phi(0) == pytest.approx(2.0, abs=1e-15)
    assert phi(SQRT2) == pytest.approx(SQRT2, abs=1e-15)
    assert phi(4) == pytest.approx(2.0, abs=1e-15)
    xs = [0.1 * i for i in range(60)]
    assert all(phi(x) >= SQRT2 - 1e-12 for x in xs)
    with pytest.raises(ValueError):
        phi(-0.1)


def test_G():
    assert G(0, 2) == pytest.approx(2.0, abs=1e-15)
    assert G(SQRT2, SQRT2) == pytest.approx(SQRT2, abs=1e-15)
    assert G(1, phi(1)) == pytest.approx(math.sqrt(6) - 1, abs=1e-14)
    assert G(0.3, 1.1) == G(1.1, 0.3)
    # trichotomy against the fixed point
    for x in [0.0, 0.5, 1.0, 2.0]:
        p = phi(x)
        assert G(x, p - 0.3) > p - 0.3
        assert G(x, p + 0.3) < p + 0.3
    with pytest.raises(ValueError):
        G(0, 0)


def test_sigma_inf_segment_values():
    assert sigma_inf(1, 1, Segment(1)).value == pytest.approx(2.5, abs=1e-12)
    assert sigma_inf(1, 1, Segment(2)).value == pytest.approx(2.0, abs=1e-12)
    assert sigma_inf(1, 1, Segment(10)).value == pytest.approx(2.0, abs=1e-12)
    assert sigma_inf(1, 1, HalfLine).value == pytest.approx(2.0, abs=1e-12)
    assert sigma_inf(1, 1, FullLine).value == pytest.approx(SQRT2, abs=1e-12)
    assert sigma_inf(4, 1, FullLine).value == pytest.approx(2 * SQRT2, abs=1e-12)


def test_sigma_inf_witnesses():
    for dom in (Segment(1), Segment(2), Segment(10), HalfLine, FullLine):
        check_witness(sigma_inf(1, 1, dom), 1, 1)
    check_witness(sigma_inf(4, 1, FullLine), 4, 1)
    check_witness(sigma_inf(2, 3, Segment(0.7)), 2, 3)


def test_sigma_inf_branch_continuity_random():
    rng = random.Random(19)
    for _ in range(100):
        a = rng.uniform(0.2, 5)
        b = rng.uniform(0.2, 5)
        T = 2 * math.sqrt(a / b)
        short = 2 * a / T + b * T / 2
        assert short == pytest.approx(2 * math.sqrt(a * b), abs=1e-12 * max(1, short))
        assert sigma_inf(a, b, Segment(T)).value == pytest.approx(short, rel=1e-12)


def test_sigma_inf_monotone_in_T():
    rng = random.Random(23)
    for _ in range(50):
        t1 = rng.uniform(0.2, 6)
        t2 = t1 + rng.uniform(0.01, 6)
        assert sigma_inf(1, 1, Segment(t2)).value <= sigma_inf(1, 1, Segment(t1)).value + 1e-12


def test_sigma_pointwise_three_branches():
    assert sigma_pointwise(BoundQuery(2, 1, 1.0, 1.0, Segment(2), t0=0)).value == pytest.approx(2.0, abs=1e-12)
    assert sigma_pointwise(BoundQuery(2, 1, 1.0, 1.0, Segment(10), t0=1)).value == pytest.approx(
        math.sqrt(6) - 1, abs=1e-12
    )
    assert sigma_pointwise(BoundQuery(2, 1, 1.0, 1.0, Segment(6), t0=2)).value == pytest.approx(SQRT2, abs=1e-12)
    # t0 = 0 on a short segment reproduces the sup-norm value
    assert sigma_pointwise(BoundQuery(2, 1, 1.0, 1.0, Segment(1.4), t0=0)).value == pytest.approx(
        sigma_inf(1, 1, Segment(1.4)).value, abs=1e-12
    )


def test_sigma_pointwise_witnesses_attain():
    cases = [
        (0, 2, 1, 1),
        (1, 10, 1, 1),
        (2, 6, 1, 1),
        (0.5, 2.3, 1, 1),
        (9.3, 10, 1, 1),  # reflected query
        (1, 4, 3, 0.5),
        (0, 1, 2, 2),
    ]
    for t0, T, a, b in cases:
        res = sigma_pointwise(BoundQuery(2, 1, a, b, Segment(T), t0=t0))
        assert res.witness is not None
        assert membership(res.witness, 2, a, b).ok
        slope = float(res.witness.deriv_value(t0, 1))
        assert abs(slope) == pytest.approx(res.value, abs=1e-10)


def test_interior_witness_tangential_contacts_found():
    # np.roots returned the double roots of p -/+ a here as complex pairs
    # and no contact point was found, so the extreme point was rejected
    a, b, T, t0 = 0.25575248004414, 0.3822180109466301, 5.299742231409002, 2.4507858849881297
    res = sigma_pointwise(BoundQuery(2, 1, a, b, Segment(T), t0=t0))
    assert res.provenance == "pointwise-interior-comparison"
    verdict = is_extreme_point(res.witness, 2, a, b)
    assert verdict.is_extreme and verdict.numeric
    assert [cp.multiplicity for cp in verdict.contact_points] == [2, 2]
    # float half parabola: its critical point sits at |f| = 1/2, not at the wall
    half = PiecewisePoly([0.0, 4.0], [Poly([0.5, -1.0, 0.25])], 2)
    verdict = is_extreme_point(half, 2, 1.0, 1.0)
    assert not verdict.is_extreme and verdict.multiplicity_sum == 0


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(0.05, 20),
    b=st.floats(0.05, 20),
    T_unit=st.floats(2 * SQRT2 + 0.01, 40),
    share=st.floats(0.0, 1.0),
)
def test_interior_witnesses_are_certified_extreme(a, b, T_unit, share):
    t0_unit = SQRT2 + 0.005 + share * (T_unit - 2 * SQRT2 - 0.01)
    scale = math.sqrt(a / b)
    res = sigma_pointwise(BoundQuery(2, 1, a, b, Segment(T_unit * scale), t0=t0_unit * scale))
    assert res.provenance == "pointwise-interior-comparison"
    verdict = is_extreme_point(res.witness, 2, a, b)
    assert verdict.is_extreme, verdict
    # each contact is counted once
    ts = [cp.t for cp in verdict.contact_points]
    assert all(v - u > 1e-3 * scale for u, v in zip(ts, ts[1:]))


def test_sigma_pointwise_branch_continuity():
    rng = random.Random(29)
    for _ in range(100):
        a = rng.uniform(0.3, 3)
        b = rng.uniform(0.3, 3)
        t0 = rng.uniform(0, math.sqrt(2 * a / b))
        T_boundary = math.sqrt(2 * t0 * t0 + 4 * a / b)
        if t0 > T_boundary / 2:
            continue
        v1 = 2 * a / T_boundary + b * T_boundary / 2 - b * t0 * (T_boundary - t0) / T_boundary
        v2 = math.sqrt(2 * t0 * t0 * b * b + 4 * a * b) - b * t0
        assert v1 == pytest.approx(v2, rel=1e-12)
        # third-branch boundary: t0 = sqrt(2 a / b)
        t0s = math.sqrt(2 * a / b)
        v2s = math.sqrt(2 * t0s * t0s * b * b + 4 * a * b) - b * t0s
        assert v2s == pytest.approx(math.sqrt(2 * a * b), rel=1e-12)


def test_sigma_pointwise_monotone_in_T():
    rng = random.Random(31)
    for _ in range(50):
        t0 = rng.uniform(0, 2)
        T1 = max(t0, rng.uniform(t0, t0 + 5))
        T2 = T1 + rng.uniform(0.01, 4)
        if T1 <= 0:
            continue
        v1 = sigma_pointwise(BoundQuery(2, 1, 1.0, 1.0, Segment(T1), t0=t0)).value
        v2 = sigma_pointwise(BoundQuery(2, 1, 1.0, 1.0, Segment(T2), t0=t0)).value
        assert v2 <= v1 + 1e-12


def test_q_eval():
    v, d = q_eval(0)
    assert (v, d) == (1.0, 0.0)
    v, d = q_eval(SQRT2)
    assert v == pytest.approx(0.0, abs=1e-15) and d == pytest.approx(-SQRT2, abs=1e-15)
    v, d = q_eval(2 * SQRT2)
    assert v == pytest.approx(-1.0, abs=1e-15) and d == pytest.approx(0.0, abs=1e-12)
    for t in [-7.3, -1.0, 0.4, 3.9, 11.2]:
        v, d = q_eval(t)
        assert abs(v) == pytest.approx(1 - d * d / 2, abs=1e-12)
        va, _ = q_eval(t + 2 * SQRT2)
        assert va == pytest.approx(-v, abs=1e-12)
        vp, dp = q_eval(t + 4 * SQRT2)
        assert vp == pytest.approx(v, abs=1e-12) and dp == pytest.approx(d, abs=1e-12)


def test_q_train_matches_q_eval():
    f = q_train(0.7, -3.0, 9.0)
    assert membership(f, 2, 1, 1).ok
    for i in range(200):
        t = -3.0 + 12.0 * i / 199
        assert float(f(t)) == pytest.approx(q_eval(t - 0.7)[0], abs=1e-10)


def test_pointwise_speed_bound():
    assert pointwise_speed_bound(1) == 0.0
    assert pointwise_speed_bound(0) == pytest.approx(SQRT2, abs=1e-15)
    assert pointwise_speed_bound(-0.5) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        pointwise_speed_bound(1.2)


def test_extendable_to_line():
    q_restr = q_train(SQRT2, 0.0, 2 * SQRT2)
    assert extendable_to_line(q_restr)
    g = extend_to_line(q_restr)
    assert membership(g, 2, 1, 1).ok
    # extension obeys the comparison inequality everywhere
    lo, hi = float(g.t_start), float(g.t_end)
    for i in range(300):
        t = lo + (hi - lo) * i / 299
        assert abs(float(g.deriv_value(t, 1))) <= pointwise_speed_bound(
            max(-1.0, min(1.0, float(g(t))))
        ) + 1e-6

    ramp = PiecewisePoly([F(0), F(2)], [Poly([F(-1), F(2), F(-1, 2)])], 2)
    assert not extendable_to_line(ramp)  # slope 2 at the wall
    with pytest.raises(ValueError):
        extend_to_line(ramp)

    zero = PiecewisePoly([F(0), F(1)], [Poly([F(0)])], 2)
    assert extendable_to_line(zero)
    g0 = extend_to_line(zero)
    assert membership(g0, 2, 1, 1).ok
    for t in [float(g0.t_start), 0.5, float(g0.t_end)]:
        assert float(g0(t)) == 0.0


def test_extension_has_compact_derivative():
    f = q_train(SQRT2, 0.0, 2 * SQRT2)
    g = extend_to_line(f, pad=1.5)
    assert float(g.deriv_value(g.t_start, 1)) == 0.0
    assert float(g.deriv_value(g.t_end, 1)) == 0.0


def test_prolong_affine():
    f = PiecewisePoly([F(0), F(2)], [Poly([F(-1), F(2), F(-1, 2)])], 2)
    s = sigma_inf(1, 1, Segment(2.0)).value
    g = prolong_affine(f, h=0.25 / s, epsilon=0.25, theta=0.0)
    assert membership(g, 2, 1, 1).ok
    assert g.length == pytest.approx(2 + 0.25 / s, abs=1e-12)
    h2 = prolong_affine(f, h=0.2 / (1 + s), epsilon=0.2, theta=1.0)
    assert membership(h2, 2, 1, 1).ok
    with pytest.raises(ValueError):
        prolong_affine(f, h=1.0, epsilon=0.25, theta=0.0)
    with pytest.raises(ValueError):
        prolong_affine(f, h=0.1, epsilon=1.5, theta=0.0)
    with pytest.raises(ValueError):
        prolong_affine(f, h=0.01, epsilon=0.5, theta=2.0)


def test_insert_bump():
    f = PiecewisePoly(
        [0.0, 4.0], [Poly([-1.0, 0.0, 0.5]).compose_affine(-2.0, 1.0)], 2
    )
    before = total_variation(f)
    g = insert_bump(f, t0=2.0, h=4.0)
    assert membership(g, 2, 1, 1).ok
    assert total_variation(g) == pytest.approx(before + 2.0, abs=1e-9)
    assert g.length == pytest.approx(8.0, abs=1e-12)
    with pytest.raises(ValueError):
        insert_bump(f, t0=2.0, h=4 * SQRT2 + 0.01)  # exceeds 4 sqrt(1 - f(t0))
    with pytest.raises(ValueError):
        insert_bump(f, t0=1.0, h=0.5)  # f'(1) != 0

    # bump at the left edge of the domain
    flat = PiecewisePoly([0.0, 2.0], [Poly([-0.5])], 2)
    g2 = insert_bump(flat, t0=0.0, h=2.0)
    assert membership(g2, 2, 1, 1).ok
    assert total_variation(g2) == pytest.approx(0.5, abs=1e-12)
    assert float(g2(float(g2.t_end))) == pytest.approx(-0.5, abs=1e-12)


def test_bump_within_the_knot_gap_of_the_end():
    # no piece of f is left after t0, where restrict(t0, end) refused the sliver
    flat = PiecewisePoly([0.0, 3.0], [Poly([0.0])], 2)
    t0, h = 3 - 1e-13, 1.0
    g = insert_bump(flat, t0=t0, h=h)
    assert membership(g, 2, 1, 1).ok
    assert (g.t_start, g.t_end) == (0.0, t0 + h)
    assert total_variation(g) == pytest.approx(total_variation(flat) + h * h / 8, abs=1e-12)


def test_tiny_domains_do_not_crash():
    res = sigma_inf(1, 1, Segment(1e-300))
    assert res.value > 1e299 and res.witness is None
    r1 = sigma1(1, 1, 1e-300)
    assert r1.exact == 2.0 and r1.witness is None


@pytest.mark.parametrize("a, b", [(5e-324, 5e-324), (1e-310, 1.0), (1.0, 1e-310), (1e-300, 1e300), (1e300, 1e-300)])
def test_unreachable_class_builds_no_unit_witness(a, b):
    built = []
    assert landau2._witness(lambda: built.append(a), a, b) is None
    assert built == []


def test_unreachable_long_train_is_refused_before_it_is_built(monkeypatch):
    # the unit witness is a 70,711-arc comparison train on [0, 2e5]
    monkeypatch.setattr(landau2, "q_train", lambda *args: pytest.fail("the train was built"))
    res = sigma_pointwise(BoundQuery(2, 1, 5e-324, 5e-324, Segment(2e5), t0=5.0))
    assert res.provenance == "pointwise-interior-comparison" and res.witness is None


def test_sigma1_exact_values():
    assert sigma1(1, 1, 2).exact == pytest.approx(2.0, abs=1e-12)
    assert sigma1(1, 1, 3).exact == pytest.approx(2.5, abs=1e-12)
    assert sigma1(1, 1, 2 * SQRT2 + 4).exact == pytest.approx(6.0, abs=1e-9)
    assert sigma1(1, 1, 0.5).exact == pytest.approx(2.0, abs=1e-12)
    assert sigma1(1, 1, 4).exact == pytest.approx(4.0, abs=1e-12)
    assert sigma1(1, 1, 0).exact == 0.0


def test_sigma1_witnesses():
    for T in [0.5, 1.0, 2.0, 2.7, 3.9, 4.0, 2 * SQRT2 + 4, 4 * SQRT2 + 4]:
        res = sigma1(1, 1, T)
        assert res.exact is not None
        assert res.witness is not None
        assert membership(res.witness, 2, 1, 1).ok
        assert total_variation(res.witness) == pytest.approx(res.exact, abs=1e-9)
    scaled = sigma1(4, 1, 6)
    assert scaled.exact == pytest.approx(4 * (4.5 - 6 + 4), abs=1e-12)
    assert membership(scaled.witness, 2, 4, 1).ok


def test_sigma1_interval_regime():
    res = sigma1(1, 1, 100)
    assert res.exact is None
    assert res.lower >= 70.71 - 1e-9
    assert res.upper <= 75.71
    assert res.lower <= res.upper
    assert res.upper - res.lower <= 5 + 1e-9
    assert res.provenance == "subadditive"
    # T / sqrt(2) <= sigma_1 <= T / sqrt(2) + 5 in every regime
    for T in [5, 9.7, 31.4, 250]:
        r = sigma1(1, 1, T)
        assert r.lower >= T / SQRT2 - 1e-9
        assert r.upper <= T / SQRT2 + 5 + 1e-9


def _full_scan_upper_unit(T, depth=2):
    """Reference upper bound from every candidate: T + 2, the eight exact
    blocks of length 0.5 .. 4 and every lattice block up to T = 1000 (the
    longest lattice block alone beyond)."""
    exact = landau2._sigma1_regime(T)
    if exact is not None:
        return exact[0]
    cands = [T + 2, T / SQRT2 + 5]
    if depth > 0:
        if T >= 1:
            cands.append(2 * _full_scan_upper_unit(T / 2, depth - 1))
        for s in [0.5 * i for i in range(1, 9)]:
            if s < T:
                cands.append(landau2._sigma1_regime(s)[0] + _full_scan_upper_unit(T - s, depth - 1))
        step = 2 * SQRT2
        first = 1 if T <= 1000 else math.floor((T - 4) / step)
        for N in range(first, 10**9 if T <= 1000 else first + 1):
            if N * step + 4 > T:
                break
            cands.append(2 * N + 4 + _full_scan_upper_unit(T - (N * step + 4), depth - 1))
    return min(cands)


def test_sigma1_reads_its_regime_at_the_edges():
    """At T' = 4 and at the lattice points, within 1e-10 either side, sigma1
    takes its tag and exact value from the one regime rule."""
    step = 2 * SQRT2
    for edge in (4.0, step + 4, 2 * step + 4, 7 * step + 4):
        for T in (edge - 1e-10, edge, edge + 1e-10):
            value, tag, _ = landau2._sigma1_regime(T)
            res = sigma1(1, 1, T)
            assert (res.provenance, res.exact) == (tag, value), T
    assert landau2._sigma1_regime(4.0)[1] == "lattice"


def _off_lattice(rng, lo, hi, count):
    Ts = (rng.uniform(lo, hi) for _ in range(count))
    return [T for T in Ts if landau2._lattice_index(T) is None]


def test_sigma1_upper_matches_the_full_scan():
    rng = random.Random(16)
    for T in _off_lattice(rng, 4, 60, 600) + _off_lattice(rng, 60, 400, 40) + [4 + 1e-6, 2 * SQRT2 + 4.001]:
        assert sigma1(1, 1, T).upper == _full_scan_upper_unit(T), T
    # beyond 1000 the two longest blocks bound at least as tightly as the longest alone
    for T in _off_lattice(rng, 1000, 5000, 20) + [1000.7]:
        assert sigma1(1, 1, T).upper <= _full_scan_upper_unit(T), T


@settings(max_examples=300, deadline=None)
@given(st.floats(math.log10(4), 12, exclude_min=True).map(lambda e: 10**e))
def test_sigma1_interval_stays_inside_the_paper_bounds(T):
    r = sigma1(1, 1, T)
    assert r.lower <= r.upper <= T / SQRT2 + 5


def test_sigma1_scaling():
    rng = random.Random(37)
    for _ in range(30):
        a = rng.uniform(0.3, 4)
        b = rng.uniform(0.3, 4)
        T = rng.uniform(0.2, 12)
        res = sigma1(a, b, T)
        unit = sigma1(1, 1, T * math.sqrt(b / a))
        assert res.upper == pytest.approx(a * unit.upper, rel=1e-10)
        assert res.lower == pytest.approx(a * unit.lower, rel=1e-10)


def test_sigma1_subadditive_on_grid():
    blocks = [0.5 * i for i in range(1, 9)]
    others = [0.7, 1.9, 4.6, 5.3, 8.8, 12.1, 47.0]
    for t1 in blocks:
        for t2 in blocks + others:
            lhs = sigma1(1, 1, t1 + t2).upper
            rhs = sigma1(1, 1, t1).upper + sigma1(1, 1, t2).upper
            assert lhs <= rhs + 1e-9


def test_sigma1_lattice_strictly_increasing():
    values = [sigma1(1, 1, 2 * N * SQRT2 + 4).exact for N in range(8)]
    for u, v in zip(values, values[1:]):
        assert v > u


def test_lattice_witness_sliding_window():
    # inside [sqrt(2), T - sqrt(2)] the witness coincides with a whole-line
    # member with compactly supported derivative, so every length-2*sqrt(2)
    # window there carries variation at most 2 (windows covering the end
    # rises genuinely exceed it)
    f = lattice_witness_unit(4)
    T = float(f.t_end)
    width = 2 * SQRT2
    lo, hi = SQRT2, T - SQRT2 - width
    for i in range(160):
        u = lo + (hi - lo) * i / 159
        window = f.restrict(u, u + width)
        assert total_variation(window) <= 2 + 1e-9
    head = f.restrict(0.0, width)
    assert total_variation(head) > 2.3


@settings(max_examples=80, deadline=None)
@given(
    a=st.floats(-1, 1).map(lambda e: 10**e),
    b=st.floats(-1, 1).map(lambda e: 10**e),
    T=st.floats(0.05, 30),
    share=st.floats(0.0, 1.0),
)
# a comparison train whose contacts, taken as roots of p -/+ a, came out with multiplicity 1
@example(a=0.6725112978292626, b=4.417588964588893, T=3.983892936531503, share=0.4511100746705944)
def test_interior_contacts_of_witnesses_are_tangential(a, b, T, share):
    """A C^1 member touches the wall inside its domain only tangentially, so
    every interior contact of a sigma_pointwise or sigma1 witness has
    multiplicity 2."""
    for res in (sigma_pointwise(BoundQuery(2, 1, a, b, Segment(T), t0=share * T)), sigma1(a, b, T)):
        if res.witness is None:
            continue
        w = res.witness
        lo, hi = float(w.t_start), float(w.t_end)
        edge = 1e-9 * max(1.0, hi - lo)
        verdict = is_extreme_point(w, 2, a, b)
        assert all(cp.multiplicity == 2 for cp in verdict.contact_points if lo + edge < cp.t < hi - edge)
