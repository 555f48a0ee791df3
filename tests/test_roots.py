from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from landaukol._roots import real_roots_exact, real_roots_float
from landaukol.exactnum import Poly

F = Fraction


def _product(roots):
    p = Poly([F(1)])
    for r in roots:
        p = p * Poly([-r, F(1)])
    return p


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


def test_float_roots_have_multiplicity_one():
    # (t - 1/2)^2 (t - 1/4): a double root comes back once or twice, never
    # as a cluster with a summed multiplicity
    p = _product([F(1, 2), F(1, 2), F(1, 4)]).to_float()
    roots = real_roots_float(p, 0.0, 1.0)
    assert all(r.multiplicity == 1 for r in roots)
    assert {round(r.approx, 6) for r in roots} == {0.25, 0.5}
