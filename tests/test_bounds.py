import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landaukol import sigma1, sigma_inf
from landaukol.bounds import (
    EXACT,
    INTERVAL,
    UPPER_BOUND,
    BoundQuery,
    BoundResult,
    FullLine,
    HalfLine,
    Segment,
    compute_bound,
)
from landaukol.pwpoly import membership, total_variation

SQRT2 = math.sqrt(2.0)


def test_full_line_routing():
    res = compute_bound(BoundQuery(2, 1, 1, 1, FullLine))
    assert res.status == EXACT
    assert res.value == pytest.approx(SQRT2, abs=1e-12)
    assert res.witness is not None
    res3 = compute_bound(BoundQuery(3, 1, 1, 1, FullLine))
    assert res3.value == pytest.approx((9 / 8) ** (1 / 3), abs=1e-12)


def test_half_line_routing():
    assert compute_bound(BoundQuery(2, 1, 1, 1, HalfLine)).value == pytest.approx(2.0, abs=1e-12)
    res = compute_bound(BoundQuery(3, 2, 1, 1, HalfLine))
    assert res.status == EXACT
    assert res.value == pytest.approx(2 * 3 ** (1 / 3), abs=1e-12)
    res5 = compute_bound(BoundQuery(5, 2, 1, 1, HalfLine))
    assert res5.status == UPPER_BOUND
    assert res5.value >= compute_bound(BoundQuery(5, 2, 1, 1, FullLine)).value - 1e-9


def test_segment_routing():
    res = compute_bound(BoundQuery(2, 1, 1, 1, Segment(1.0)))
    assert res.value == pytest.approx(2.5, abs=1e-12)
    res3 = compute_bound(BoundQuery(3, 1, 1, 1, Segment(100.0)))
    assert res3.value == pytest.approx(3 ** (5 / 3) / 2, abs=1e-12)
    res4 = compute_bound(BoundQuery(4, 2, 1, 1, Segment(3.0)))
    assert res4.status == UPPER_BOUND
    # the certificate dominates the sharp whole-line value
    assert res4.value >= compute_bound(BoundQuery(4, 2, 1, 1, FullLine)).value


@pytest.mark.parametrize("domain", [Segment(3.0), HalfLine, FullLine], ids=repr)
@pytest.mark.parametrize("n", [2, 3, 5])
def test_k_zero_and_n_give_the_class_bounds(domain, n):
    for k, value in ((0, 0.7), (n, 1.9)):
        res = compute_bound(BoundQuery(n, k, 0.7, 1.9, domain))
        assert (res.value, res.status, res.provenance) == (value, EXACT, "class-bound")


def test_query_validation():
    with pytest.raises(ValueError):
        BoundQuery(1, 1, 1, 1, FullLine)
    with pytest.raises(ValueError):
        BoundQuery(2, 3, 1, 1, FullLine)
    with pytest.raises(ValueError):
        BoundQuery(2, 1, -1, 1, FullLine)
    with pytest.raises(ValueError):
        Segment(0.0)
    with pytest.raises(ValueError):
        Segment(math.inf)
    for bad in (dict(a=math.inf), dict(b=math.inf), dict(t0=math.nan)):
        with pytest.raises(ValueError, match="finite"):
            BoundQuery(**{"n": 2, "k": 1, "a": 1, "b": 1, "domain": Segment(10.0), **bad})
    with pytest.raises(ValueError):
        BoundQuery(3, 1, 1, 1, Segment(1.0), "var")
    with pytest.raises(ValueError):
        BoundQuery(2, 1, 1, 1, HalfLine, "var")
    with pytest.raises(ValueError):
        BoundQuery(2, 1, 1, 1, FullLine, t0=0.5)
    with pytest.raises(ValueError):
        BoundQuery(3, 1, 1, 1, Segment(1.0), t0=0.5)
    with pytest.raises(ValueError):
        BoundQuery(2, 1, 1, 1, Segment(1.0), "l2")


def test_var_and_pointwise_routing():
    res = compute_bound(BoundQuery(2, 1, 1, 1, Segment(3.0), "var"))
    assert isinstance(sigma1(1, 1, 3.0), BoundResult)
    assert res.status == EXACT and res.exact == res.lower == res.upper == pytest.approx(2.5)
    assert res.provenance == "2<=T<=4" and res.witness is not None
    res = compute_bound(BoundQuery(2, 1, 1, 1, Segment(100.0), "var"))
    assert res.status == INTERVAL and res.exact is None
    assert res.lower <= res.upper == res.value
    res = compute_bound(BoundQuery(2, 1, 1, 1, Segment(10.0), t0=1.0))
    assert res.value == pytest.approx(math.sqrt(6) - 1, abs=1e-12)
    assert res.provenance == "pointwise-free-end" and res.witness_point == 1.0


def test_half_line_bracket_is_carried():
    res = compute_bound(BoundQuery(5, 2, 2.0, 3.0, HalfLine))
    assert res.bracket is not None and res.bracket.upper_source in res.provenance
    assert res.bracket.as_dict(2.0, 3.0)["upper"] == res.value


def test_whole_line_n2_has_one_tag():
    res = compute_bound(BoundQuery(2, 1, 2.0, 3.0, FullLine))
    assert res.provenance == sigma_inf(2.0, 3.0, FullLine).provenance == "kolmogorov-whole-line"
    assert res.value == pytest.approx(math.sqrt(12), rel=1e-15)
    assert res.witness is not None and res.witness_point == 0.0


@settings(max_examples=150, deadline=None)
@given(
    nk=st.sampled_from([(2, 1), (3, 1), (3, 2)]),
    a=st.floats(0.1, 10),
    b=st.floats(0.1, 10),
    T1=st.floats(1e-2, 1e3),
    T2=st.floats(1e-2, 1e3),
)
def test_segment_bound_non_increasing_in_T(nk, a, b, T1, T2):
    n, k = nk
    short, long = sorted((T1, T2))
    v_short = compute_bound(BoundQuery(n, k, a, b, Segment(short))).value
    v_long = compute_bound(BoundQuery(n, k, a, b, Segment(long))).value
    assert v_long <= v_short * (1 + 1e-9)


@pytest.mark.parametrize("T", [3.0, 10.0, 100.0])
def test_certificate_bound_non_increasing_in_T(T):
    # certificates are not memoized, so n >= 4 stays out of the property test
    value = compute_bound(BoundQuery(4, 2, 1, 1, Segment(T))).value
    assert value <= compute_bound(BoundQuery(4, 2, 1, 1, Segment(T / 2))).value * (1 + 1e-12)
    assert value >= compute_bound(BoundQuery(4, 2, 1, 1, FullLine)).value


@settings(max_examples=200, deadline=None)
@given(
    route=st.sampled_from(["segment", "halfline", "line", "t0", "var"]),
    log_a=st.floats(-3, 3),
    log_b=st.floats(-3, 3),
    T_unit=st.floats(1e-3, 60),
    where=st.floats(0, 1),
)
def test_exact_witness_is_a_member_attaining_its_value(route, log_a, log_b, T_unit, where):
    # every n = 2 Exact result that carries a witness is a member of the
    # class, and attains its value at witness_point (the total variation
    # for the var functional)
    a, b = 10.0**log_a, 10.0**log_b
    T = T_unit * math.sqrt(a / b)
    domain = {"halfline": HalfLine, "line": FullLine}.get(route, Segment(T))
    query = BoundQuery(2, 1, a, b, domain, "var" if route == "var" else "sup",
                       where * T if route == "t0" else None)
    res = compute_bound(query)
    if res.status != EXACT or res.witness is None:
        return
    assert membership(res.witness, 2, a, b).ok
    if route == "var":
        attained = total_variation(res.witness)
    else:
        attained = abs(float(res.witness.deriv_value(res.witness_point, 1)))
    assert attained == pytest.approx(res.value, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    nk=st.integers(2, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
    log_a=st.floats(-3, 3),
    log_b=st.floats(-3, 3),
    log_T=st.floats(-2, 3),
)
def test_segment_at_least_half_line_at_least_full_line(nk, log_a, log_b, log_T):
    # the restriction of a member of a larger domain is a member of a smaller
    # one; the half line's n >= 4 bracket is an upper bound, compared as such
    n, k = nk
    a, b = 10.0**log_a, 10.0**log_b
    T = (a / b) ** (1 / n) * 10.0**log_T
    line, half, seg = (compute_bound(BoundQuery(n, k, a, b, d)).value for d in (FullLine, HalfLine, Segment(T)))
    assert half >= line * (1 - 1e-9)
    assert seg >= line * (1 - 1e-9)
    if n <= 3:
        assert seg >= half * (1 - 1e-12)
