import sys
import threading
from fractions import Fraction

import pytest

from landaukol import exactnum
from landaukol.exactnum import (
    IndexTooLargeError,
    Poly,
    bernoulli,
    euler_number,
    euler_poly,
    euler_poly_at_zero,
)


def F(a, b=1):
    return Fraction(a, b)


def test_bernoulli_small_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == F(-1, 2)
    assert bernoulli(2) == F(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == F(-1, 30)
    assert bernoulli(6) == F(1, 42)


def test_bernoulli_odd_vanish():
    for m in range(3, 31, 2):
        assert bernoulli(m) == 0


def test_euler_numbers_table():
    expected = [1, 0, -1, 0, 5, 0, -61, 0, 1385]
    assert [euler_number(m) for m in range(9)] == expected
    # even-index signs alternate
    evens = [euler_number(m) for m in range(0, 13, 2)]
    for a, b in zip(evens, evens[1:]):
        assert a * b < 0


def test_euler_polys_table():
    x = Poly([F(0), F(1)])
    assert euler_poly(0) == Poly([F(1)])
    assert euler_poly(1) == Poly([F(-1, 2), F(1)])
    assert euler_poly(2) == x * x - x
    assert euler_poly(3) == Poly([F(1, 4), F(0), F(-3, 2), F(1)])
    assert euler_poly(4) == Poly([F(0), F(1), F(0), F(-2), F(1)])


def test_appell_and_boundary_identities():
    for m in range(13):
        p = euler_poly(m)
        assert p(F(0)) + p(F(1)) == (2 if m == 0 else 0)
        if m >= 1:
            assert p.derivative() == euler_poly(m - 1) * m


def test_euler_number_is_scaled_midpoint_value():
    for m in range(13):
        assert euler_number(m) == 2**m * euler_poly(m)(F(1, 2))


def test_euler_poly_at_zero():
    assert euler_poly_at_zero(1) == F(-1, 2)
    assert euler_poly_at_zero(2) == 0
    assert euler_poly_at_zero(3) == F(1, 4)
    for m in range(16):
        assert euler_poly_at_zero(m) == euler_poly(m)(F(0))


def test_index_cap():
    bernoulli(64)
    for fn in (bernoulli, euler_number, euler_poly, euler_poly_at_zero):
        with pytest.raises(IndexTooLargeError):
            fn(65)
        with pytest.raises(ValueError):
            fn(-1)


def test_sequences_are_thread_safe():
    want = (bernoulli(64), euler_number(64), euler_poly(64))
    for cached in (exactnum._bernoulli_unchecked, euler_number, euler_poly):
        cached.cache_clear()
    got, start = [], threading.Barrier(8, timeout=60)

    def compute():
        start.wait()  # all eight start on empty caches together
        got.append((bernoulli(64), euler_number(64), euler_poly(64)))

    threads = [threading.Thread(target=compute) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often inside the recurrences
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [want] * 8


def test_poly_arithmetic():
    p = Poly([F(1), F(2), F(3)])  # 1 + 2x + 3x^2
    q = Poly([F(0), F(1)])
    assert (p * q)(F(2)) == p(F(2)) * 2
    assert (p + q)(F(3)) == p(F(3)) + 3
    assert p.derivative() == Poly([F(2), F(6)])
    assert p.antiderivative().derivative() == p
    assert p.compose_affine(F(1), F(2))(F(3)) == p(F(7))
    assert Poly([F(0)]).is_zero() and Poly().degree == -1
