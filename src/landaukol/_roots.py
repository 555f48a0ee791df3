"""Real-root location for low-degree polynomials.

Two lanes, matching the two coefficient regimes of the splines handled here:

* exact ``Fraction`` coefficients: the polynomial is scaled to a primitive
  integer one, and Yun's square-free decomposition, Sturm chains and
  bisection run on Python integers (primitive pseudo-remainder sequences,
  Collins 1967), giving certified isolating intervals (width at most 1e-12
  times min(1, hi - lo)) with exact multiplicities; a ``Fraction`` is built
  only for the returned brackets; the same integer parts decide the sign of
  p on an interval with no root located (``nonpositive``) and give p's Taylor
  coefficients at a point from one Taylor shift (``taylor_coefficients``);
* ``float`` coefficients: -c0/c1 at degree 1, and the real roots of
  ``numpy.roots`` at degree >= 2 (numpy loads only then; in t / 2^e, with
  2^e about the interval's reach, when a companion entry would overflow),
  returned as plain floats inside the interval, with no multiplicity
  (callers that need the order of a contact take it from derivatives);
  ``Root`` is the type of the exact lane only.

Integer polynomials are lists of ``int`` coefficients in ascending degree,
without trailing zeros (the zero polynomial is ``[]``).
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, List, NamedTuple, Optional, Tuple

from .exactnum import Poly

WIDTH = Fraction(1, 10**12)


class Root(NamedTuple):
    """A located real root; `exact` is set when the root is rational."""

    approx: float
    multiplicity: int
    exact: Optional[Fraction] = None
    bracket: Optional[Tuple[Fraction, Fraction]] = None


def _trim(a: List[int]) -> List[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _primitive(a: List[int]) -> List[int]:
    """a divided by its positive content (signs unchanged)."""
    g = math.gcd(*a)
    return a if g <= 1 else [c // g for c in a]


def _derivative(a: List[int]) -> List[int]:
    return [i * a[i] for i in range(1, len(a))]


def _remainder(a: List[int], b: List[int]) -> List[int]:
    """A positive multiple of the remainder of a by b: pseudo-division that
    scales by a positive factor of |lc(b)| at each step, so the signs are
    those of the rational remainder."""
    r, lc, db = list(a), b[-1], len(b) - 1
    while len(r) > db:
        lead = r.pop()
        if lead == 0:
            continue
        g = math.gcd(lead, lc)
        u, v = abs(lc) // g, lead // g if lc > 0 else -lead // g
        shift = len(r) - db
        if u != 1:
            r = [u * c for c in r]
        for i in range(db):
            r[shift + i] -= v * b[i]
    return _trim(r)


def _exact_quotient(a: List[int], b: List[int]) -> List[int]:
    """a / b for a divisible by b over the rationals and b primitive: the
    quotient then has integer coefficients (Gauss's lemma)."""
    r, lc, db = list(a), b[-1], len(b) - 1
    q = [0] * max(0, len(a) - db)
    for shift in range(len(q) - 1, -1, -1):
        c = q[shift] = r[shift + db] // lc
        if c:
            for i in range(db):
                r[shift + i] -= c * b[i]
    return q


def _gcd(a: List[int], b: List[int]) -> List[int]:
    """Primitive gcd with a positive leading coefficient (primitive PRS)."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_remainder(a, b))
    return a if a[-1] > 0 else [-c for c in a]


def _square_free(f: List[int]) -> List[Tuple[List[int], int]]:
    """Yun's decomposition of f (degree >= 1) into pairwise-coprime
    square-free primitive factors with their multiplicities."""
    df = _derivative(f)
    g = _gcd(f, df)
    b, c = _exact_quotient(f, g), _exact_quotient(df, g)
    out: List[Tuple[List[int], int]] = []
    i = 1
    while len(b) > 1:
        d = _trim([x - y for x, y in zip_longest(c, _derivative(b), fillvalue=0)])
        g = _gcd(b, d)
        if len(g) > 1:
            out.append((g, i))
        b, c = _exact_quotient(b, g), _exact_quotient(d, g)
        i += 1
    return out


def _sturm_chain(f: List[int]) -> List[List[int]]:
    """The Sturm chain of f, each element a positive multiple of the element
    of the rational chain f, f', -rem(f, f'), ... (so every sign agrees)."""
    chain = [f, _primitive(_derivative(f))]
    while len(chain[-1]) > 1:
        r = _remainder(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_primitive([-c for c in r]))
    return chain


def _values(chain: List[List[int]], num: int, den: int) -> List[int]:
    """den^deg(q) q(num / den) for each q of the chain: the homogeneous Horner
    sum of c_i num^i den^(deg - i), which has the sign of q(num / den) as den > 0."""
    powers = [den]  # den^1 .. den^deg
    for _ in range(len(chain[0]) - 2):
        powers.append(powers[-1] * den)
    out = []
    for q in chain:
        acc = q[-1] if q else 0
        for c, w in zip(q[-2::-1], powers):
            acc = acc * num + c * w
        out.append(acc)
    return out


def _variations(values: List[int]) -> int:
    signs = [v > 0 for v in values if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _isolate(
    f: List[int], a: int, b: int, den: int, width: Fraction
) -> List[Tuple[Optional[Fraction], Fraction, Fraction]]:
    """Roots of square-free f in the half-open (a / den, b / den] as
    (exact_or_None, lo, hi) triples at most `width` wide, bisecting on numerators
    over a common denominator and carrying the variation counts of both ends; the
    half of a one-root interval without the root is popped with no evaluation."""
    chain = _sturm_chain(f)
    found: List[Tuple[Optional[Fraction], Fraction, Fraction]] = []
    stack = [(a, b, den, _variations(_values(chain, a, den)), _variations(_values(chain, b, den)))]
    while stack:
        a, b, den, va, vb = stack.pop()
        n = va - vb
        if n == 0:
            continue
        if n == 1 and (b - a) * width.denominator <= width.numerator * den:
            found.append((None, Fraction(a, den), Fraction(b, den)))
            continue
        # the midpoint (a + b) / (2 den); the halves are (2a, a + b] and (a + b, 2b] over 2 den
        mid, den = a + b, 2 * den
        values = _values(chain, mid, den)
        if values[0] == 0:
            x = Fraction(mid, den)
            found.append((x, x, x))
            if n > 1:  # deflate so the two halves only see the remaining roots
                q = _primitive(_exact_quotient(f, [-x.numerator, x.denominator]))
                found.extend(_isolate(q, 2 * a, mid, den, width))
                found.extend(_isolate(q, mid, 2 * b, den, width))
            continue
        vm = _variations(values)
        stack.append((2 * a, mid, den, va, vm))
        stack.append((mid, 2 * b, den, vm, vb))
    return found


def _cleared(p: Poly) -> Tuple[List[int], int]:
    """(L p, L): p (Fraction or int coefficients, read as they are) over the least
    common denominator L, an integer polynomial with the signs of p."""
    den = math.lcm(*(c.denominator for c in p.coeffs))
    return [c.numerator * (den // c.denominator) for c in p.coeffs], den


def _taylor_shift(f: List[int], num: int, den: int) -> List[int]:
    """h with den^deg f(num / den + u / den) = sum h_m u^m: h_m is den^(deg - m)
    times the m-th Taylor coefficient f^(m)(num / den) / m!, so it has its sign
    (Horner's shift of sum f_i den^(deg - i) x^i by x = num + u)."""
    h = [c * den ** (len(f) - 1 - i) for i, c in enumerate(f)]
    for i in range(len(h) - 1):
        for j in range(len(h) - 2, i - 1, -1):
            h[j] += num * h[j + 1]
    return h


def taylor_coefficients(p: Poly, x: Fraction) -> List[Fraction]:
    """p^(m)(x) / m! for m = 0 .. deg p (p and x rational), from one integer
    Taylor shift; a zero coefficient comes back as the int 0."""
    f, scale = _cleared(p)
    x = Fraction(x)
    d = len(f) - 1
    return [Fraction(h, scale * x.denominator ** (d - m)) if h else 0
            for m, h in enumerate(_taylor_shift(f, x.numerator, x.denominator))]


def nonpositive(p: Poly, lo: Fraction, hi: Fraction) -> bool:
    """Whether p (rational coefficients) is <= 0 on the closed [lo, hi], lo < hi,
    decided from signs alone: the first nonzero Taylor coefficient of p at lo is
    negative (p < 0 just right of lo), and no square-free factor of odd
    multiplicity (the roots where p changes sign) has a root in the open
    (lo, hi), by one Sturm variation count at each end."""
    if p.is_zero():
        return True
    f = _primitive(_cleared(p)[0])
    lo, hi = Fraction(lo), Fraction(hi)
    if next(h for h in _taylor_shift(f, lo.numerator, lo.denominator) if h) > 0:
        return False
    if len(f) == 1:
        return True
    den = math.lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)
    for factor, mult in _square_free(f):
        if mult % 2:
            chain = _sturm_chain(factor)
            at_hi = _values(chain, b, den)
            # the count covers (lo, hi]; a root at hi itself changes no sign inside
            if _variations(_values(chain, a, den)) - _variations(at_hi) > (at_hi[0] == 0):
                return False
    return True


def real_roots_exact(p: Poly, lo: Fraction, hi: Fraction) -> List[Root]:
    """All real roots of p (Fraction coefficients) in the closed [lo, hi],
    with multiplicities, sorted; irrational roots in brackets at most
    WIDTH * min(1, hi - lo) wide, roots at lo and hi exact."""
    lo, hi = Fraction(lo), Fraction(hi)
    if p.degree < 1:
        return []
    den, width = math.lcm(lo.denominator, hi.denominator), WIDTH * min(1, hi - lo)
    a, b = lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)
    roots: List[Root] = []
    for factor, mult in _square_free(_primitive(_cleared(p)[0])):
        if _values([factor], lo.numerator, lo.denominator)[0] == 0:
            roots.append(Root(float(lo), mult, exact=lo, bracket=(lo, lo)))
        if hi != lo and _values([factor], hi.numerator, hi.denominator)[0] == 0:
            # deflated, so (lo, hi] below holds only the other roots
            roots.append(Root(float(hi), mult, exact=hi, bracket=(hi, hi)))
            factor = _primitive(_exact_quotient(factor, [-hi.numerator, hi.denominator]))
            if len(factor) == 1:
                continue
        for exact, x, y in _isolate(factor, a, b, den, width):
            if exact is not None:
                roots.append(Root(float(exact), mult, exact=exact, bracket=(exact, exact)))
            else:
                roots.append(Root(float((x + y) / 2), mult, bracket=(x, y)))
    roots.sort(key=lambda r: r.approx)
    return roots


def _within(roots: Iterable[float], lo: float, hi: float) -> List[float]:
    """The roots r with lo - 1e-9 <= r <= hi + 1e-9, clamped to [lo, hi]: the rule by
    which real_roots_float keeps the roots it found."""
    return [min(max(r, lo), hi) for r in roots if lo - 1e-9 <= r <= hi + 1e-9]


def real_roots_float(p: Poly, lo: float, hi: float) -> List[float]:
    """The real roots in [lo, hi], sorted and clamped to the interval (a double
    root may come twice): -c0/c1 at degree 1, numpy.roots above."""
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
    if len(coeffs) == 2:
        return _within((-coeffs[0] / coeffs[1],), lo, hi)
    import numpy as np  # deferred: degree 1, the exact lane and the closed forms never need it

    scale = 1.0
    if not math.isfinite(max(map(abs, coeffs)) / coeffs[-1]):
        # a companion entry -c_m/c_d overflows: solve in s = t / 2^e, 2^e <= R < 2^(e+1),
        # with coefficients c_m 2^(e m) over a common power of two; the rule above keeps
        # c_d 2^(e d) above 1e-14 2^-d times each of them, so its entries are finite
        e = math.frexp(R)[1] - 1
        parts = [math.frexp(c) for c in coeffs]
        E = max(x + e * m for m, (f, x) in enumerate(parts) if f)
        coeffs, scale = [math.ldexp(f, x + e * m - E) for m, (f, x) in enumerate(parts)], math.ldexp(1.0, e)
    raw = np.roots(coeffs[::-1])
    span = max(1.0, abs(hi - lo))
    return _within(sorted(float(r.real) * scale for r in raw if abs(float(r.imag) * scale) <= 1e-7 * span), lo, hi)


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
