"""Real-root location for low-degree polynomials.

Two lanes, matching the two coefficient regimes of the splines handled here:

* exact ``Fraction`` coefficients: square-free decomposition, Sturm chains and
  rational bisection give certified isolating intervals (width 1e-12) with
  exact multiplicities;
* ``float`` coefficients: the real roots of ``numpy.roots`` inside the
  interval, each with multiplicity 1 (callers that need the order of a
  contact take it from derivatives).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .exactnum import Poly

WIDTH = Fraction(1, 10**12)


@dataclass(frozen=True)
class Root:
    """A located real root; `exact` is set when the root is rational."""

    approx: float
    multiplicity: int
    exact: Optional[Fraction] = None
    bracket: Optional[Tuple[Fraction, Fraction]] = None


def _divmod(a: Poly, b: Poly) -> Tuple[Poly, Poly]:
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, a.degree - b.degree + 1)
    r = list(a.coeffs)
    bc = b.coeffs
    while len(r) >= len(bc) and any(c != 0 for c in r):
        if r[-1] == 0:
            r.pop()
            continue
        shift = len(r) - len(bc)
        factor = Fraction(r[-1]) / bc[-1]
        q[shift] = factor
        for i, c in enumerate(bc):
            r[shift + i] -= factor * c
        r.pop()
    return Poly(q), Poly(r)


def _gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        _, r = _divmod(a, b)
        a, b = b, r
    if a.is_zero():
        return a
    lead = a.coeffs[-1]
    return Poly(Fraction(c) / lead for c in a.coeffs)


def square_free_decomposition(p: Poly) -> List[Tuple[Poly, int]]:
    """Decompose p into pairwise-coprime square-free factors with their
    multiplicities (constant factors dropped)."""
    if p.degree < 1:
        return []
    out: List[Tuple[Poly, int]] = []
    g = _gcd(p, p.derivative())
    w, _ = _divmod(p, g)
    i = 1
    while w.degree > 0:
        y = _gcd(w, g)
        fac, _ = _divmod(w, y)
        if fac.degree > 0:
            out.append((fac, i))
        w = y
        g, _ = _divmod(g, y)
        i += 1
    return out


def _sturm_chain(p: Poly) -> List[Poly]:
    chain = [p, p.derivative()]
    while chain[-1].degree > 0:
        _, r = _divmod(chain[-2], chain[-1])
        if r.is_zero():
            break
        chain.append(-r)
    return chain


def _variations(chain: Sequence[Poly], x: Fraction) -> int:
    signs = []
    for q in chain:
        v = q(x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _count(chain: Sequence[Poly], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct roots in the half-open interval (lo, hi]."""
    return _variations(chain, lo) - _variations(chain, hi)


def _isolate_square_free(
    p: Poly, lo: Fraction, hi: Fraction
) -> List[Tuple[Optional[Fraction], Fraction, Fraction]]:
    """Roots of square-free p in (lo, hi] as (exact_or_None, lo, hi) triples."""
    chain = _sturm_chain(p)
    found: List[Tuple[Optional[Fraction], Fraction, Fraction]] = []
    stack = [(lo, hi)]
    while stack:
        a, b = stack.pop()
        n = _count(chain, a, b)
        if n == 0:
            continue
        if n == 1:
            while b - a > WIDTH:
                mid = (a + b) / 2
                if p(mid) == 0:
                    found.append((mid, mid, mid))
                    break
                if _count(chain, a, mid) == 1:
                    b = mid
                else:
                    a = mid
            else:
                found.append((None, a, b))
            continue
        mid = (a + b) / 2
        if p(mid) == 0:
            found.append((mid, mid, mid))
            # deflate so the two halves only see the remaining roots
            q, _ = _divmod(p, Poly([-mid, Fraction(1)]))
            found.extend(_isolate_square_free(q, a, mid))
            found.extend(_isolate_square_free(q, mid, b))
            continue
        stack.append((a, mid))
        stack.append((mid, b))
    return found


def real_roots_exact(p: Poly, lo: Fraction, hi: Fraction) -> List[Root]:
    """All real roots of p (Fraction coefficients) in the closed [lo, hi],
    with multiplicities, sorted."""
    lo, hi = Fraction(lo), Fraction(hi)
    roots: List[Root] = []
    for factor, mult in square_free_decomposition(p):
        if factor(lo) == 0:
            roots.append(Root(float(lo), mult, exact=lo, bracket=(lo, lo)))
        for exact, a, b in _isolate_square_free(factor, lo, hi):
            if exact is not None:
                roots.append(Root(float(exact), mult, exact=exact, bracket=(exact, exact)))
            else:
                roots.append(Root(float((a + b) / 2), mult, bracket=(a, b)))
    roots.sort(key=lambda r: r.approx)
    return roots


def real_roots_float(p: Poly, lo: float, hi: float) -> List[Root]:
    """The real roots numpy.roots finds in [lo, hi], sorted and clamped to
    the interval, each with multiplicity 1 (a double root may come twice)."""
    import numpy as np  # deferred: the exact lane and the closed forms never need it

    coeffs = [float(c) for c in p.coeffs]
    if not coeffs:
        raise ValueError("zero polynomial has every point as a root")
    # drop c_d only if |c_d| <= 1e-14 max_m |c_m| R^(m - d) (R >= |t| on [lo, hi]; no
    # overflow), which needs |c_d| <= 1e-14 max_m |c_m|: that cheap test goes first
    R, top = max(1.0, abs(lo), abs(hi)), max(map(abs, coeffs))
    while len(coeffs) > 1 and abs(coeffs[-1]) <= 1e-14 * top and abs(coeffs[-1]) <= 1e-14 * max(
            abs(c) * R ** (m - len(coeffs) + 1) for m, c in enumerate(coeffs)):
        coeffs.pop()
    if len(coeffs) <= 1:
        return []
    raw = np.roots(coeffs[::-1])
    span = max(1.0, abs(hi - lo))
    real = sorted(float(r.real) for r in raw if abs(r.imag) <= 1e-7 * span)
    return [Root(min(max(r, lo), hi), 1) for r in real if lo - 1e-9 <= r <= hi + 1e-9]


def polish_float_root(p: Poly, r: float, lo: float, hi: float) -> float:
    """A few guarded Newton steps to sharpen a simple float root."""
    dp = p.derivative()
    x = r
    for _ in range(3):
        d = float(dp(x))
        if d == 0 or not math.isfinite(d):
            break
        x2 = x - float(p(x)) / d
        if not (lo - 1e-9 <= x2 <= hi + 1e-9) or not math.isfinite(x2):
            break
        x = x2
    return min(max(x, lo), hi)
