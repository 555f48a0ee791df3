"""Euler splines, their normalizations, and the attached sharp constants.

The 2-periodic spline e_n restricts to the Euler polynomial E_n on (0, 1) and
satisfies e_n(x+1) = -e_n(x).  Derived objects:

* r_n = sup |e_n|, s_n = r_n / n!  (exact rationals),
* the Favard constants K_n = pi^n s_n,
* the normalized spline EE_n(x) = e_n(x + eps_n)/e_n(eps_n) with EE_n(0) = 1,
  where eps_n is 0 for odd n and 1/2 for even n,
* the unit-class comparison spline q_n(x) = EE_n(x * s_n^(1/n)), also as an
  explicit spline over enough periods to be an extreme point of the class.

The exact spline EE_n on a window has one piece per period half, each
(-1)^k E_n(x + eps_n - k) / e_n(eps_n): the arc +-E_n(u) / e_n(eps_n) about its
left knot k - eps_n, which `pwpoly.from_arcs` stores by one integer Taylor shift.

Raising exact rationals to fractional powers is done once, in double
precision, via exp/log of the integer numerator and denominator; it is the
only inexact step in this module.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .exactnum import Poly, Real, _bernoulli_unchecked, _check_index, euler_number, euler_poly, is_exact_number


def r_n(n: int) -> Fraction:
    """sup over the reals of |e_n|, by the closed form; always positive."""
    _check_index(n)
    sign = (-1) ** (n // 2)
    if n % 2 == 0:
        return sign * euler_number(n) / 2**n
    return sign * (2 ** (n + 2) - 2) * _bernoulli_unchecked(n + 1) / (n + 1)


def s_n(n: int) -> Fraction:
    """r_n / n!, the sup of |e_n| / n! = sup |e_n^(0)| in the unit class."""
    return r_n(n) / math.factorial(n)


def _epsilon(n: int) -> Fraction:
    """The shift eps_n of EE_n: 0 for odd n, 1/2 for even n."""
    return Fraction(0) if n % 2 else Fraction(1, 2)


def _on_piece(n: int, x: Real, num: type) -> Real:
    """e_n(x) = (-1)^k E_n(u) on the piece x = k + u, 0 <= u < 1, evaluated in
    the number type num (Fraction or float)."""
    _check_index(n)
    k = math.floor(x)
    u = x - k
    sign = num(-1 if k % 2 else 1)
    if n == 0:
        return sign if u else num(0)  # normalized square wave vanishes at integers
    return sign * Poly(map(num, euler_poly(n).coeffs))(u)


def e_n_exact(n: int, x: Fraction) -> Fraction:
    """Exact value of the 2-periodic spline e_n at rational x."""
    return _on_piece(n, Fraction(x), Fraction)


def e_n(n: int, x: Real) -> float:
    """e_n(x): piece selection by floor parity, then polynomial evaluation."""
    if is_exact_number(x):
        return float(e_n_exact(n, x))
    return _on_piece(n, x, float)


def _frac_pow(fr: Fraction, expo: float) -> float:
    """fr ** expo for positive fr, via exp/log on the exact integers."""
    if fr <= 0:
        raise ValueError("base must be positive")
    return math.exp((math.log(fr.numerator) - math.log(fr.denominator)) * expo)


def favard(n: int) -> float:
    """Favard constant K_n = pi^n * s_n."""
    return math.pi**n * float(s_n(n))


def favard_best_approx(n: int, m: int, omega: float) -> float:
    """Sharp distance (omega/2)^n r_n / (m^n n!) to trigonometric polynomials
    of degree < m, for the unit-Lipschitz periodic class of order n."""
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    return (omega / 2) ** n * float(r_n(n)) / (m**n * math.factorial(n))


def euler_spline(n: int, x: Real) -> float:
    """Normalized spline EE_n(x) = e_n(x + eps_n) / e_n(eps_n); EE_n(0) = 1."""
    if n < 1:
        raise ValueError("euler_spline needs n >= 1")
    eps = _epsilon(n)
    denom = e_n_exact(n, eps)
    if is_exact_number(x):
        return float(e_n_exact(n, Fraction(x) + eps) / denom)
    return e_n(n, x + float(eps)) / float(denom)


def q_n_scale(n: int) -> float:
    """Time rescaling s_n^(1/n) that makes |q_n^(n)| = 1; n >= 2, as for q_n."""
    if n < 2:
        raise ValueError("q_n needs n >= 2")
    return _frac_pow(s_n(n), 1.0 / n)


def q_n(n: int, x: Real) -> float:
    """Unit-class extremal q_n(x) = EE_n(x * s_n^(1/n))."""
    return euler_spline(n, float(x) * q_n_scale(n))


def q_n_deriv_sup(n: int, k: int) -> float:
    """sup |q_n^(k)| = s_{n-k} / s_n^(1 - k/n)."""
    if n < 2 or not 0 <= k <= n:
        raise ValueError(f"need n >= 2 and 0 <= k <= n, got n={n}, k={k}")
    return float(s_n(n - k)) / _frac_pow(s_n(n), 1.0 - k / n)


def euler_spline_piecewise(n: int, x0: Fraction, x1: Fraction):
    """EE_n on [x0, x1] as an exact spline (knots where x + eps_n is an
    integer, one scaled Euler-polynomial piece in between)."""
    from .pwpoly import cut, from_arcs  # deferred: pwpoly does not import us

    if n < 1:
        raise ValueError("need n >= 1")
    x0, x1 = Fraction(x0), Fraction(x1)
    if not x0 < x1:
        raise ValueError("need x0 < x1")
    eps = _epsilon(n)
    even = euler_poly(n) * (1 / e_n_exact(n, eps))  # piece k is (-1)^k this about its left knot k - eps
    ks = range(math.floor(x0 + eps), math.ceil(x1 + eps))  # piece k on [k - eps, k + 1 - eps]
    knots = [k - eps for k in ks] + [ks[-1] + 1 - eps]
    arcs = [(k - eps, (-even if k % 2 else even).coeffs) for k in ks]
    return from_arcs(*cut(knots, arcs, x0, x1), n)


def q_n_piecewise(n: int):
    """q_n on p = max(2, ceil((n - 2) / 4)) periods, [0, 2p / s_n^(1/n)], as a
    spline (float knots): the fewest periods, at least two, whose 2p + 1
    double contacts with +-1 sum to at least n."""
    from .pwpoly import transform

    lam = q_n_scale(n)  # refuses n < 2
    periods = max(2, math.ceil((n - 2) / 4))
    return transform(euler_spline_piecewise(n, Fraction(0), Fraction(2 * periods)), mu=1.0, lam=lam)
