"""Sharp and bracketed constants for general derivative orders: the
whole-line bound built from the Euler-spline constants, the order-3 segment
formulas, Chebyshev-derivative lower constants, the Cartan/Kallioniemi
admissible pairs, and the half-line brackets.

The half-line lower bound has an unspecified absolute constant; it is exposed
as a kappa-free shape only and never compared numerically against the upper
bounds.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import NamedTuple, Optional

from .eulerspline import q_n_deriv_sup
from .exactnum import Poly

C31 = 3.0 ** (5.0 / 3.0) / 2  # sharp half-line constant for (n, k) = (3, 1)
C32 = 2.0 * 3.0 ** (1.0 / 3.0)  # and for (3, 2)


def kolmogorov_bound(n: int, k: int, a: float, b: float) -> float:
    """Sharp whole-line bound (s_{n-k} / s_n^(1-k/n)) a^(1-k/n) b^(k/n)."""
    if not 2 <= n <= 12:
        raise ValueError(f"unsupported order n={n}: need 2 <= n <= 12")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}")
    if not (a > 0 and b > 0):
        raise ValueError("a and b must be positive")
    return q_n_deriv_sup(n, k) * a ** (1 - k / n) * b ** (k / n)


# -- the order-3 segment formulas -------------------------------------------


class SatoResult(NamedTuple):
    """Segment suprema for |f'| and |f''| in the order-3 class."""

    alpha: float  # root in [1/3, 1/2) of 12 - 24 alpha = (T^3 b / a) alpha^2 (1-alpha)^2
    value_k1: float
    value_k2: float
    regime: str  # 'short' (T <= T0) or 'long'

    def value_for(self, k: int) -> float:
        if k == 1:
            return self.value_k1
        if k == 2:
            return self.value_k2
        raise ValueError(f"k must be 1 or 2, got {k}")


def sato_t0(a: float, b: float) -> float:
    """Length (81 a / b)^(1/3) past which the segment suprema are constant."""
    return (81 * a / b) ** (1.0 / 3.0)


def _sato_alpha(c: float) -> float:
    """Root of 12 - 24 alpha = c alpha^2 (1 - alpha)^2 in [1/3, 1/2);
    the left side falls 4 -> 0, the right side rises, so bisection is safe."""

    def g(al: float) -> float:
        return 12 - 24 * al - c * al * al * (1 - al) ** 2

    lo, hi = 1.0 / 3.0, 0.5
    for _ in range(200):
        mid = (lo + hi) / 2
        if hi - lo <= 1e-14 * 0.5:
            break
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def sato_segment(k: int, a: float, b: float, T: float) -> SatoResult:
    """Exact segment suprema for the order-3 class: bang-bang short regime
    for T <= T0 = (81 a/b)^(1/3), the flat sharp constants beyond."""
    if k not in (1, 2):
        raise ValueError(f"k must be 1 or 2, got {k}")
    if not (a > 0 and b > 0 and T > 0):
        raise ValueError("a, b, T must be positive")
    t0 = sato_t0(a, b)
    if T >= t0:
        return SatoResult(
            alpha=1.0 / 3.0,
            value_k1=C31 * a ** (2 / 3) * b ** (1 / 3),
            value_k2=C32 * a ** (1 / 3) * b ** (2 / 3),
            regime="long",
        )
    alpha = _sato_alpha(T**3 * b / a)
    u = alpha * T
    return SatoResult(
        alpha=alpha,
        value_k1=4 * a / u + b * u * u / 6,
        # u * u underflows to 0 only where the k = 2 value is past the float range
        value_k2=4 * a / (u * u) + 2 * b * u / 3 if u * u > 0 else math.inf,
        regime="short",
    )


# -- Chebyshev-derivative constants ------------------------------------------


@cache
def chebyshev_poly(m: int) -> Poly:
    """T_m(x) with exact integer coefficients, by the three-term recurrence."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return Poly([Fraction(1)])
    if m == 1:
        return Poly([Fraction(0), Fraction(1)])
    two_x = Poly([Fraction(0), Fraction(2)])
    return two_x * chebyshev_poly(m - 1) - chebyshev_poly(m - 2)


def chebyshev_deriv_at_one(n: int, k: int) -> int:
    """T_{n-1}^(k)(1) = (n-1) 2^k k!/(2k)! (n+k-2)!/(n-k-1)!, an integer."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got n={n}, k={k}")
    value = Fraction(n - 1) * Fraction(2**k * math.factorial(k), math.factorial(2 * k))
    value *= Fraction(math.factorial(n + k - 2), math.factorial(n - k - 1))
    assert value.denominator == 1
    return value.numerator


def A_nk_markov(n: int, k: int) -> int:
    """The sharp constant 2^k T_{n-1}^(k)(1) in front of a T^-k."""
    return 2**k * chebyshev_deriv_at_one(n, k)


def B_nk_cartan(n: int, k: int) -> Fraction:
    """Cartan's admissible companion constant A_{n,k} / n!."""
    return Fraction(A_nk_markov(n, k), math.factorial(n))


def B_nk_kallioniemi(n: int, k: int) -> Fraction:
    """Kallioniemi's sharper admissible constant."""
    A = A_nk_markov(n, k)
    num = k * (2 * (n - 1) ** 2 + k - 1)
    den = (n - k) * (n - 1) * (n + k - 2) * math.factorial(n) * 2 ** (2 * n - 2)
    return Fraction(A * num, den)


def B_nk_lower(n: int, k: int) -> Fraction:
    """No admissible constant can be smaller: A_{n,k} k (2n-1) over
    (n-k)(n-1) n! 2^(2n-1)."""
    A = A_nk_markov(n, k)
    return Fraction(A * k * (2 * n - 1), (n - k) * (n - 1) * math.factorial(n) * 2 ** (2 * n - 1))


# -- half-line brackets -------------------------------------------------------


class CnkBracket(NamedTuple):
    """Bracket for the half-line constant C_{n,k}: exact where known,
    otherwise min(Matorin, Malliavin) above and a kappa-free shape below."""

    n: int
    k: int
    lower: float  # Stechkin shape p^(-1/2) (n/p)^p WITHOUT the absolute constant
    upper: float
    exact: Optional[float]
    matorin: float
    malliavin: float

    @property
    def upper_source(self) -> str:
        return "matorin" if self.matorin <= self.malliavin else "malliavin"

    def scale(self, a: float, b: float) -> float:
        """a^(1-k/n) b^(k/n): maps the unit-class constants to the (a, b) class."""
        return a ** (1 - self.k / self.n) * b ** (self.k / self.n)

    def as_dict(self, a: float, b: float) -> dict:
        """The bracket for the (a, b) class."""
        scale = self.scale(a, b)
        return {
            "upper": self.upper * scale,
            "upper_source": self.upper_source,
            "matorin": self.matorin * scale,
            "malliavin": self.malliavin * scale,
            "lower_shape": self.lower * scale,
            "lower_kappa_free": True,
        }


def _adaptive_simpson(f, lo: float, hi: float, tol: float) -> float:
    def simpson(a, b, fa, fm, fb):
        return (b - a) / 6 * (fa + 4 * fm + fb)

    def recurse(a, b, fa, fm, fb, whole, tol, depth):
        m = (a + b) / 2
        lm, rm = (a + m) / 2, (m + b) / 2
        flm, frm = f(lm), f(rm)
        left = simpson(a, m, fa, flm, fm)
        right = simpson(m, b, fm, frm, fb)
        if depth <= 0 or abs(left + right - whole) <= 15 * tol:
            return left + right + (left + right - whole) / 15
        return recurse(a, m, fa, flm, fm, left, tol / 2, depth - 1) + recurse(
            m, b, fm, frm, fb, right, tol / 2, depth - 1
        )

    m = (lo + hi) / 2
    fa, fm, fb = f(lo), f(m), f(hi)
    return recurse(lo, hi, fa, fm, fb, simpson(lo, hi, fa, fm, fb), tol, 50)


@cache
def mu_malliavin(lam: float) -> float:
    """mu(lam) = -integral over [0, lam] of ln tan(pi t / 2): the logarithmic
    singularity at 0 is integrated analytically, the smooth remainder by
    adaptive Simpson to 1e-10 in all."""
    tol = 1e-10
    if not 0 < lam <= 1:
        raise ValueError(f"need 0 < lam <= 1, got {lam}")
    delta = min(lam / 2, 0.01)

    # ln tan(pi t/2) = ln(pi t/2) + ln(tan(pi t/2) / (pi t/2)); the second
    # term is smooth and vanishes at 0
    def smooth(t: float) -> float:
        if t == 0.0:
            return 0.0
        x = math.pi * t / 2
        return math.log(math.tan(x) / x)

    head = delta * (math.log(math.pi * delta / 2) - 1)
    head += _adaptive_simpson(smooth, 0.0, delta, tol / 2)
    if lam > delta:
        head += _adaptive_simpson(lambda t: math.log(math.tan(math.pi * t / 2)), delta, lam, tol / 2)
    return -head


def cnk_bracket(n: int, k: int) -> CnkBracket:
    """Bracket the half-line constant: upper = min of the comparison-method
    and complex-analytic bounds, exact values filled where known."""
    if not 2 <= n <= 30:
        raise ValueError(f"need 2 <= n <= 30, got n={n}")
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}")
    tnk = chebyshev_deriv_at_one(n + 1, k)  # T_n^(k)(1)
    tnn = 2 ** (n - 1) * math.factorial(n)  # T_n^(n)(1)
    matorin = tnk / tnn ** (k / n)
    malliavin = 2**10 * (math.e * math.log(n) / math.pi) * math.exp(n * mu_malliavin(k / n))
    exact = None
    if (n, k) == (2, 1):
        exact = 2.0
    elif (n, k) == (3, 1):
        exact = C31
    elif (n, k) == (3, 2):
        exact = C32
    p = min(k, n - k)
    shape = p**-0.5 * (n / p) ** p
    return CnkBracket(
        n=n,
        k=k,
        lower=shape,
        upper=min(matorin, malliavin),
        exact=exact,
        matorin=matorin,
        malliavin=malliavin,
    )
