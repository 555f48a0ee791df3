"""Peano kernels for point-evaluation functionals, and the Vandermonde
certificate bounding intermediate derivatives on a segment.

A functional L(f) = sum_i lambda_i f^(m_i)(alpha_i) that annihilates the
polynomials of degree < n satisfies L(f) = integral of K * f^(n), where

    K(t) = sum_i lambda_i (alpha_i - t)^(n-1-m_i) / (n-1-m_i)!  [t <= alpha_i]

is piecewise polynomial in t with breakpoints at the alpha_i.  Functionals
are exact: alpha, lambda and T are stored as Fractions (a float converts
exactly), so the annihilation test is an identity, kernel pieces have
rational coefficients and the L1 norm splits at exactly isolated sign
changes.  The certificate's kernel sup is taken per piece at the float
critical points of the polynomial, never from raw grids in t.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from . import _roots
from .exactnum import Poly, Real
from .pwpoly import PiecewisePoly, abs_integral


def _exact(v: Real) -> Fraction:
    """v as a Fraction; a float converts exactly, an inf or NaN is refused."""
    if isinstance(v, float) and not math.isfinite(v):
        raise ValueError(f"non-finite number {v}")
    return Fraction(v)


@dataclass(frozen=True)
class LinearFunctional:
    """Finite sum of derivative evaluations on [0, T], kernel order n.
    alpha, lambda and T are stored as Fractions."""

    terms: Tuple[Tuple[Fraction, int, Fraction], ...]  # (alpha, m, lambda)
    T: Fraction
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("kernel order n must be >= 1")
        T = _exact(self.T)
        terms = tuple((_exact(alpha), m, _exact(lam)) for alpha, m, lam in self.terms)
        for alpha, m, _lam in terms:
            if not 0 <= alpha <= T:
                raise ValueError(f"alpha {alpha} outside [0, {T}]")
            if not 0 <= m <= self.n - 1:
                raise ValueError(f"derivative order {m} outside 0..{self.n - 1}")
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "terms", terms)

    def __call__(self, f) -> float:
        """Apply to a callable-with-derivatives (PiecewisePoly or Poly)."""
        total = 0.0
        for alpha, m, lam in self.terms:
            if isinstance(f, PiecewisePoly):
                total += float(lam) * float(f.deriv_value(alpha, m))
            else:
                total += float(lam) * float(f.nth_derivative(m)(alpha))
        return total


def derivative_functional(x: Real, T: Real) -> LinearFunctional:
    """L(f) = f'(x) - (f(T) - f(0))/T, the order-2 functional whose kernel
    is t/T for t < x and (t - T)/T for t > x."""
    if not 0 < T < math.inf:
        raise ValueError(f"T must be positive and finite, got {T}")
    if not 0 <= x <= T:
        raise ValueError(f"need 0 <= x <= T, got x={x}, T={T}")
    one_over_T = 1 / Fraction(T)
    return LinearFunctional(((x, 1, 1), (T, 0, -one_over_T), (0, 0, one_over_T)), T, 2)


def annihilates_polys(L: LinearFunctional) -> bool:
    """True iff L kills every monomial x^j, j < n, exactly."""
    return all(
        sum(lam * math.perm(j, m) * alpha ** (j - m) for alpha, m, lam in L.terms if m <= j) == 0
        for j in range(L.n)
    )


def kernel_discontinuities(L: LinearFunctional) -> List[float]:
    """Jump locations: alphas carrying a derivative of maximal order n-1."""
    return sorted({float(a) for a, m, _ in L.terms if m == L.n - 1})


def peano_kernel_at(L: LinearFunctional, t: Real) -> Tuple[float, bool]:
    """(K(t), at_jump): the kernel value, one-sided (left limit) at jumps."""
    total = 0.0
    for alpha, m, lam in L.terms:
        p = L.n - 1 - m
        if float(t) <= float(alpha):
            total += float(lam) * float(alpha - t) ** p / math.factorial(p)
    at_jump = any(float(t) == float(a) for a in kernel_discontinuities(L))
    return total, at_jump


def peano_kernel(L: LinearFunctional, t: Real) -> float:
    return peano_kernel_at(L, t)[0]


def kernel_pieces(L: LinearFunctional) -> List[Tuple[Fraction, Fraction, Poly]]:
    """The kernel as (lo, hi, polynomial-in-t) pieces between breakpoints."""
    breaks = sorted({Fraction(0), L.T, *(alpha for alpha, _m, _lam in L.terms)})
    out: List[Tuple[Fraction, Fraction, Poly]] = []
    for lo, hi in zip(breaks, breaks[1:]):
        poly = Poly()
        for alpha, m, lam in L.terms:
            if alpha >= hi:
                p = L.n - 1 - m
                # (alpha - t)^p expanded in t
                base = Poly([alpha, -1])
                powp = Poly([1])
                for _ in range(p):
                    powp = powp * base
                poly = poly + powp * (lam * Fraction(1, math.factorial(p)))
            elif alpha > lo:
                raise AssertionError("alpha strictly inside a kernel piece")
        out.append((lo, hi, poly))
    return out


def kernel_l1_norm(L: LinearFunctional) -> float:
    """Integral of |K| over [0, T]: each piece split at the kernel's sign
    changes and integrated in between."""
    if not annihilates_polys(L):
        raise ValueError("functional does not annihilate polynomials of degree < n")
    return sum((abs_integral(poly, lo, hi, True) for lo, hi, poly in kernel_pieces(L)), 0.0)


def deriv_kernel_l1_exact(x: Real, T: Real) -> Fraction:
    """Closed form (x^2 + (T-x)^2) / (2T) for the derivative functional."""
    x, T = Fraction(x), Fraction(T)
    if not 0 <= x <= T:
        raise ValueError("need 0 <= x <= T")
    return (x**2 + (T - x) ** 2) / (2 * T)


def landau_bound_n2(f_bounds: Tuple[Real, Real], T: Real, x: Real) -> float:
    """Pointwise derivative bound 2a/T + b (x^2 + (T-x)^2) / (2T)."""
    a, b = float(f_bounds[0]), float(f_bounds[1])
    T, x = float(T), float(x)
    if not (a > 0 and b > 0 and T > 0):
        raise ValueError("a, b, T must be positive")
    if not 0 <= x <= T:
        raise ValueError("need 0 <= x <= T")
    return 2 * a / T + b * (x**2 + (T - x) ** 2) / (2 * T)


# -- the Vandermonde certificate -------------------------------------------


@dataclass(frozen=True)
class KernelCertificate:
    """Uniform constants (A, B) with |f^(k)| <= A a T^-k + B b T^(n-k) for all
    members; built from interpolation functionals at alpha_i = i/n."""

    A: float
    B: float
    n: int
    k: int

    def __post_init__(self):
        if not (self.A > 0 and self.B > 0):
            raise ValueError("certificate constants must be positive")

    def segment_bound(self, a: Real, b: Real, T: Real) -> float:
        a, b, T = float(a), float(b), float(T)
        return self.A * a * T**-self.k + self.B * b * T ** (self.n - self.k)

    def optimized_bound(self, a: Real, b: Real) -> float:
        """min over T of segment_bound; scale-invariant in (a, b, T)."""
        a, b = float(a), float(b)
        a_star = self.A / (self.n - self.k)
        b_star = self.B / self.k
        c_star = self.n * a_star ** (1 - self.k / self.n) * b_star ** (self.k / self.n)
        return c_star * a ** (1 - self.k / self.n) * b ** (self.k / self.n)

    def optimal_T(self, a: Real, b: Real) -> float:
        a_star = self.A / (self.n - self.k)
        b_star = self.B / self.k
        return (a_star * float(a) / (b_star * float(b))) ** (1.0 / self.n)


def _solve_exact(matrix: List[List[Fraction]], rhs: List[Fraction]) -> List[Fraction]:
    """Gaussian elimination with exact rationals (partial pivoting by size)."""
    n = len(rhs)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular system")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def certificate_nodes(n: int) -> List[Fraction]:
    """The interpolation nodes alpha_i = i/n, i = 1..n, of the certificate."""
    return [Fraction(i, n) for i in range(1, n + 1)]


def lagrange_derivatives(alphas: Sequence[Fraction], k: int) -> List[Poly]:
    """ell_i^(k) for the Lagrange basis ell_i on the nodes: lambda_i(x) =
    ell_i^(k)(x) are the weights with sum_i lambda_i(x) p(alpha_i) = p^(k)(x)
    for every p of degree < len(alphas).  Coefficients of ell_i solve the
    transposed Vandermonde system with right-hand side e_i."""
    n = len(alphas)
    matrix = [[alpha**m for m in range(n)] for alpha in alphas]
    return [
        Poly(_solve_exact(matrix, [Fraction(int(i == j)) for j in range(n)])).nth_derivative(k)
        for i in range(n)
    ]


def certificate_functional(n: int, k: int, x: Fraction) -> LinearFunctional:
    """L_x(f) = f^(k)(x) - sum_i lambda_i(x) f(alpha_i), the functional whose
    kernel the certificate bounds at x."""
    alphas = certificate_nodes(n)
    lambdas = [ell(x) for ell in lagrange_derivatives(alphas, k)]
    terms = [(x, k, Fraction(1))] + [(alpha, 0, -lam) for alpha, lam in zip(alphas, lambdas)]
    return LinearFunctional(tuple(terms), Fraction(1), n)


def _power_over_factorial(c: Fraction, p: int) -> List[Fraction]:
    """Coefficients in t of (c - t)^p / p!."""
    fact = math.factorial(p)
    return [Fraction(math.comb(p, m) * (-1) ** m, fact) * c ** (p - m) for m in range(p + 1)]


def _kernel_sup(pieces: Sequence[Tuple[Real, Real, Poly]]) -> float:
    """sup_t |K(t)| via per-interval polynomial maxima."""
    best = 0.0
    for lo, hi, poly in pieces:
        if poly.is_zero():
            continue
        fp = poly.to_float()
        cand = [abs(fp(float(lo))), abs(fp(float(hi)))]
        fpd = fp.derivative()
        if not fpd.is_zero():
            for r in _roots.real_roots_float(fpd, float(lo), float(hi)):
                cand.append(abs(fp(r.approx)))
        best = max(best, max(cand))
    return best


def _certificate_pieces(
    x: Fraction,
    k: int,
    alphas: Sequence[Fraction],
    lambdas: Sequence[Fraction],
    expansions: Sequence[List[Fraction]],
) -> List[Tuple[Fraction, Fraction, Poly]]:
    """kernel_pieces of L_x, built right to left: a piece's polynomial is the
    running sum of -lambda_i (alpha_i - t)^(n-1)/(n-1)! over alpha_i >= hi,
    plus the (x - t)^(n-1-k)/(n-1-k)! term when x >= hi."""
    x_term = _power_over_factorial(x, len(alphas) - 1 - k)
    breaks = sorted({Fraction(0), Fraction(1), x, *alphas})
    suffix = [Fraction(0)] * len(alphas)
    i = len(alphas)
    out = []
    for lo, hi in reversed(list(zip(breaks, breaks[1:]))):
        while i and alphas[i - 1] >= hi:
            i -= 1
            lam = lambdas[i]
            suffix = [s - lam * e for s, e in zip(suffix, expansions[i])]
        coeffs = suffix if hi > x else [s + c for s, c in zip(suffix, x_term)] + suffix[len(x_term):]
        out.append((lo, hi, Poly(coeffs)))
    out.reverse()
    return out


CERTIFICATE_GRID = 201  # x = j/200, j = 0..200


def vandermonde_certificate(n: int, k: int) -> KernelCertificate:
    """Make L_x(f) = f^(k)(x) - sum_i lambda_i(x) f(i/n) annihilate degree < n
    for x on a uniform grid of [0, 1], with lambda_i = ell_i^(k) from the
    Lagrange basis; A = max_x sum |lambda_i(x)| and B = max_x sup_t |K_x(t)|.
    The basis and the expansions of (alpha_i - t)^(n-1)/(n-1)! are exact and
    built once; each x costs a Horner evaluation and suffix sums."""
    if not 2 <= n <= 12:
        raise ValueError(f"unsupported order n={n}: Vandermonde certificate needs 2 <= n <= 12")
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}")
    alphas = certificate_nodes(n)
    basis = lagrange_derivatives(alphas, k)
    expansions = [_power_over_factorial(alpha, n - 1) for alpha in alphas]
    A = Fraction(0)
    B = 0.0
    for j in range(CERTIFICATE_GRID):
        x = Fraction(j, CERTIFICATE_GRID - 1)
        lambdas = [ell(x) for ell in basis]
        A = max(A, sum(abs(l) for l in lambdas))
        B = max(B, _kernel_sup(_certificate_pieces(x, k, alphas, lambdas, expansions)))
    return KernelCertificate(A=float(A), B=B, n=n, k=k)
