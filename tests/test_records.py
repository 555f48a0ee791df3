"""The record types keep their contract: positional and keyword construction
with defaults, read-only fields, validation with its messages, and the repr
text that error lines print."""
import math
import sys
import threading
import time
from fractions import Fraction as F

import numpy as np
import pytest

from landaukol import landaun
from landaukol._roots import Root, real_roots_exact
from landaukol.bounds import EXACT, BoundQuery, BoundResult, FullLine, Segment
from landaukol.exactnum import Poly, Record
from landaukol.oracle import BangBangControl, LpProblem
from landaukol.peano import KernelCertificate, LinearFunctional
from landaukol.pwpoly import (ContactInterval, ContactPoint, ExtremeVerdict, MembershipReport, PiecewisePoly,
                              StructuralError, Violation, membership)

RECORDS = [
    Segment(2.0),
    BoundQuery(2, 1, 1.0, 1.0, Segment(2.0)),
    BoundResult(1.0, EXACT, "x"),
    landaun.sato_segment(1, 1.0, 1.0, 1.0),
    landaun.cnk_bracket(4, 2),
    Violation("sup", 0.0, "detail"),
    MembershipReport(True, False),
    ContactPoint(0.0, 1, 2),
    ContactInterval(0.0, 1.0, -1),
    ExtremeVerdict(True, (), (), 0, (), False),
    Root(0.5, 1),
    LinearFunctional(((0, 0, 1),), 1, 1),
    KernelCertificate(1.0, 2.0, 4, 2),
    LpProblem(0.5, 1.0, np.zeros(3), np.zeros((1, 3)), np.ones(1)),
    BangBangControl(0.0, 1.0, (0.5,), 1),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_fields_are_read_only(record):
    name = repr(record).split("(", 1)[1].split("=", 1)[0]  # the first field
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, name, 0)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert repr(record) == before


def test_keyword_construction_and_defaults():
    q = BoundQuery(**{"n": 2, "k": 1, "a": 1.0, "b": 1.0, "domain": Segment(2.0)})
    assert (q.functional, q.t0) == ("sup", None)
    same = BoundQuery(2, 1, 1.0, 1.0, Segment(2.0), "sup", None)
    assert q == same and hash(q) == hash(same)
    r = BoundResult(value=1.0, status=EXACT, provenance="x")
    assert (r.lower, r.upper, r.witness_point, r.bracket, r.witness) == (None,) * 5
    assert MembershipReport(ok=True, numeric=False).violations == ()
    assert not MembershipReport(False, True)  # its truth is `ok`
    assert BangBangControl(0.0, 1.0, (), -1).scale == 1.0
    assert (Root(0.5, 1).exact, Root(0.5, 1).bracket) == (None, None)
    assert KernelCertificate(A=1.0, B=2.0, n=4, k=2) == KernelCertificate(1.0, 2.0, 4, 2)


def test_bound_result_ignores_build_and_builds_the_witness_once():
    calls = []

    def build():
        calls.append(1)
        return PiecewisePoly([0.0, 1.0], [Poly([0.5])], 2)

    r = BoundResult(1.0, EXACT, "x", witness_point=0.0, _build=build)
    plain = BoundResult(1.0, EXACT, "x", witness_point=0.0)
    assert r == plain and hash(r) == hash(plain)
    assert repr(r) == repr(plain) == (
        "BoundResult(value=1.0, status='Exact', provenance='x', lower=None, upper=None, "
        "witness_point=0.0, bracket=None)")
    assert calls == []  # built on first read, not at construction
    first = r.witness
    assert r.witness is first and calls == [1]
    assert r == plain  # a built witness does not enter == either


def test_threads_sharing_a_result_build_its_witness_once():
    calls = []

    def build():
        calls.append(1)
        time.sleep(0.01)  # long enough for every other thread to ask
        return PiecewisePoly([0.0, 1.0], [Poly([0.5])], 2)

    r = BoundResult(1.0, EXACT, "x", _build=build)
    barrier = threading.Barrier(8)
    got = []

    def read():
        barrier.wait(timeout=60)
        got.append(r.witness)

    threads = [threading.Thread(target=read) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert calls == [1] and len(got) == 8 and all(w is got[0] for w in got)


def test_a_witness_whose_knots_collapse_is_none_and_built_once():
    calls = []

    def build():
        calls.append(1)
        raise StructuralError("knots collapse")

    r = BoundResult(1.0, EXACT, "x", _build=build)
    assert r.witness is None and r.witness is None
    assert calls == [1]


def test_reprs_are_pinned():
    # cmd_extremal's internal-error line prints Violation reprs
    report = membership(PiecewisePoly([0.0, 1.0], [Poly([1.5])], 2), 2, 1.0, 1.0)
    assert repr(report.violations) == (
        "(Violation(kind='sup', where=0.0, detail='sup |f| = 1.5 > 1.0 on piece 0'),)")
    [root] = real_roots_exact(Poly([F(1, 4), -1, 1]), F(0), F(1))
    assert repr(root) == (
        "Root(approx=0.5, multiplicity=2, exact=Fraction(1, 2), bracket=(Fraction(1, 2), Fraction(1, 2)))")
    assert repr(Segment(2.0)) == "Segment(T=2.0)"
    assert repr(BoundQuery(2, 1, 1.0, 1.0, FullLine)) == (
        "BoundQuery(n=2, k=1, a=1.0, b=1.0, domain=FullLine, functional='sup', t0=None)")
    assert repr(LinearFunctional(((0, 0, 1),), 1, 1)) == (
        "LinearFunctional(terms=((Fraction(0, 1), 0, Fraction(1, 1)),), T=Fraction(1, 1), n=1)")
    assert repr(KernelCertificate(1.0, 2.0, 4, 2)) == "KernelCertificate(A=1.0, B=2.0, n=4, k=2)"
    assert repr(RECORDS[-2]) == "LpProblem(h=0.5, a=1.0)"  # without the arrays


@pytest.mark.parametrize("kwargs, message", [
    (dict(n=1), "order n must be >= 2"),
    (dict(k=3), "need 0 <= k <= n, got k=3"),
    (dict(a=-1.0), "bounds a and b must be positive"),
    (dict(b=math.inf), "bounds a and b must be finite"),
    (dict(functional="l2"), "functional must be 'sup' or 'var', got 'l2'"),
    (dict(domain=FullLine, functional="var"), "--functional var needs --n 2 and --domain segment"),
    (dict(k=2, functional="var"), "--functional var needs --k 1"),
    (dict(domain=FullLine, t0=0.5), "--t0 only applies to --domain segment"),
    (dict(n=3, t0=0.5), "pointwise bounds are only available for --n 2"),
    (dict(k=0, t0=0.5), "--t0 needs --k 1 and --functional sup"),
    (dict(t0=math.nan), "t0 must be finite, got nan"),
    (dict(t0=3.0), r"t0=3.0 outside \[0, 2.0\]"),
], ids=str)
def test_bound_query_refuses_with_its_message(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        BoundQuery(**{"n": 2, "k": 1, "a": 1.0, "b": 1.0, "domain": Segment(2.0), **kwargs})


def test_linear_functional_converts_and_refuses():
    L = LinearFunctional([(0.5, 1, 2)], 1, 2)
    assert L.T == 1 and type(L.T) is F
    assert L.terms == ((F(1, 2), 1, F(2)),) and all(type(v) is F for v in L.terms[0][::2])
    for args, message in [(((), 1, 0), "kernel order n must be >= 1"),
                          ((((2, 0, 1),), 1, 1), "alpha 2 outside [0, 1]"),
                          ((((0, 1, 1),), 1, 1), "derivative order 1 outside 0..0"),
                          ((((0, 0, 1),), math.inf, 1), "non-finite number inf")]:
        with pytest.raises(ValueError) as err:
            LinearFunctional(*args)
        assert str(err.value) == message
    with pytest.raises(ValueError, match="^certificate constants must be positive$"):
        KernelCertificate(0.0, 1.0, 4, 2)


def test_record_fields_are_the_public_slots():
    # a slot added without a field would drop out of repr, == and hash unseen
    records = Record.__subclasses__()
    assert {cls.__name__ for cls in records} == {
        "Segment", "BoundQuery", "BoundResult", "LinearFunctional", "KernelCertificate"}
    for cls in records:
        assert cls._fields == tuple(name for name in cls.__slots__ if not name.startswith("_")), cls


def test_a_record_equals_only_its_own_type():
    class Twin(KernelCertificate):
        __slots__ = ()

    cert = KernelCertificate(1.0, 2.0, 4, 2)
    assert cert == KernelCertificate(1.0, 2.0, 4, 2)
    assert cert != Twin(1.0, 2.0, 4, 2) and Twin(1.0, 2.0, 4, 2) != cert
    assert cert != (1.0, 2.0, 4, 2) and (1.0, 2.0, 4, 2) != cert
    assert Segment(2.0) != (2.0,) and Segment(2.0) != 2.0
    q = BoundQuery(2, 1, 1.0, 1.0, FullLine)
    assert q != (2, 1, 1.0, 1.0, FullLine, "sup", None)
    assert BoundResult(1.0, EXACT, "x") != (1.0, EXACT, "x", None, None, None, None)
