"""Exact rational arithmetic and the classical integer sequences.

Conventions:

* Bernoulli numbers follow the generating function z/(e^z - 1), so B_1 = -1/2.
* Euler numbers are the Taylor coefficients of 1/cosh z (odd ones vanish).
* Euler polynomials E_m(x) form the Appell sequence E_m' = m E_{m-1} with the
  constants fixed by E_m(0) + E_m(1) = 2*[m == 0], equivalently the expansion
  of 2 e^{zx}/(e^z + 1).

All sequence values are exact ``Fraction``s, memoized by ``functools.cache``
on their recurrences; its cache is thread-safe, so threads can at worst
compute one exact value twice.  Indices above ``MAX_INDEX`` are rejected
rather than silently ground through big-integer arithmetic.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Union

Real = Union[Fraction, float, int]

MAX_INDEX = 64


set_field = object.__setattr__  # one global name: a lookup cheaper than object.__setattr__


class Record:
    """Base of a frozen `__slots__` record.  A subclass names its fields in
    `_fields`, which repr, == and hash read, and sets every slot once in its
    own __init__ with `set_field`; assignment and deletion refuse."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({fields})"

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


def is_exact_number(x: Real) -> bool:
    """True for a Fraction or an int (bool included), which arithmetic keeps exact."""
    return isinstance(x, (Fraction, int))


class IndexTooLargeError(ValueError):
    """Raised when a sequence index exceeds MAX_INDEX."""


def _check_index(m: int) -> None:
    if m < 0:
        raise ValueError(f"index must be nonnegative, got {m}")
    if m > MAX_INDEX:
        raise IndexTooLargeError(f"index too large: {m} > {MAX_INDEX}")


class Poly:
    """Dense univariate polynomial, coefficients in ascending degree.

    Coefficients may be exact (``Fraction``/``int``) or ``float``; trailing
    zeros are trimmed so the leading coefficient of a nonzero polynomial is
    nonzero.  The zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Real] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_exact(self) -> bool:
        return all(is_exact_number(c) for c in self.coeffs)

    def __call__(self, x: Real) -> Real:
        acc: Real = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: Union["Poly", Real]) -> "Poly":
        if not isinstance(other, Poly):
            return Poly(c * other for c in self.coeffs)
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            for j, cj in enumerate(other.coeffs):
                out[i + j] = out[i + j] + ci * cj
        return Poly(out)

    __rmul__ = __mul__

    def derivative(self) -> "Poly":
        return Poly(i * c for i, c in enumerate(self.coeffs) if i >= 1)

    def nth_derivative(self, k: int) -> "Poly":
        p = self
        for _ in range(k):
            p = p.derivative()
        return p

    def antiderivative(self) -> "Poly":
        """Antiderivative with zero constant term; exact inputs stay exact."""
        out: list[Real] = [0]
        for i, c in enumerate(self.coeffs):
            if is_exact_number(c):
                out.append(Fraction(c, i + 1))
            else:
                out.append(c / (i + 1))
        return Poly(out)

    def compose_affine(self, c0: Real, c1: Real) -> "Poly":
        """Return p(c0 + c1*x) by Horner over the polynomial ring."""
        acc = Poly()
        lin = Poly([c0, c1])
        for c in reversed(self.coeffs):
            acc = acc * lin + Poly([c])
        return acc

    def to_float(self) -> "Poly":
        return Poly(float(c) for c in self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"


def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m, with B_1 = -1/2.

    Computed by the recurrence sum_{j<=m} C(m+1, j) B_j = 0.
    """
    _check_index(m)
    return _bernoulli_unchecked(m)


@functools.cache
def _bernoulli_unchecked(m: int) -> Fraction:
    if m == 0:
        return Fraction(1)
    return -sum(Fraction(math.comb(m + 1, j)) * _bernoulli_unchecked(j) for j in range(m)) / (m + 1)


@functools.cache
def euler_number(m: int) -> Fraction:
    """Euler number E_m (integer-valued); zero for odd m."""
    _check_index(m)
    if m % 2 == 1:
        return Fraction(0)
    if m == 0:
        return Fraction(1)
    # sum_{j even, j<=m} C(m, j) E_{m-j} = 0 from 1/cosh(z) * cosh(z) = 1
    return -sum(Fraction(math.comb(m, j)) * euler_number(m - j) for j in range(2, m + 1, 2))


@functools.cache
def euler_poly(m: int) -> Poly:
    """Euler polynomial E_m(x), exact coefficients."""
    _check_index(m)
    if m == 0:
        return Poly([Fraction(1)])
    q = (euler_poly(m - 1) * m).antiderivative()
    # constant fixed by E_m(0) + E_m(1) = 0 for m >= 1
    return q + Poly([-(q(Fraction(0)) + q(Fraction(1))) / 2])


def euler_poly_at_zero(m: int) -> Fraction:
    """E_m(0) via the closed form B_{m+1} (2 - 2^{m+2}) / (m+1)."""
    _check_index(m)
    return _bernoulli_unchecked(m + 1) * (2 - 2 ** (m + 2)) / (m + 1)
