"""Peano kernels for point-evaluation functionals, and the Vandermonde
certificate bounding intermediate derivatives on a segment.

A functional L(f) = sum_i lambda_i f^(m_i)(alpha_i) that annihilates the
polynomials of degree < n satisfies L(f) = integral of K * f^(n), where

    K(t) = sum_i lambda_i (alpha_i - t)^(n-1-m_i) / (n-1-m_i)!  [t <= alpha_i]

is piecewise polynomial in t with breakpoints at the alpha_i.  Functionals
are exact: alpha, lambda and T are stored as Fractions (a float converts
exactly), so the annihilation test is an identity, kernel pieces have
rational coefficients and the L1 norm splits at exactly isolated sign
changes.  The certificate runs on integers over one denominator, with one
form of the kernel: in each slot of t between nodes the kernel-piece
numerators are integer polynomials in the grid index j and in t.  Evaluated
in j they give the pieces at one grid point (the seeds x = 0 and x = 1, and
each point left by the search); one integer Taylor shift in (j, t) bounds a
whole run of grid points.  The constants are maxima over the grid, found by
branch and bound: only the runs, and then the pieces, whose bound could
raise the maximum attained so far are evaluated, which leaves A and B the
same floats as a visit of every piece.  A piece is bounded by its Bernstein
coefficients on its own interval, and evaluated at its ends and float
critical points; these are searched once per distinct polynomial in a call,
on [0, 1], and each piece keeps those in its interval.
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import _roots
from .exactnum import Poly, Real, Record, set_field


def _exact(v: Real) -> Fraction:
    """v as a Fraction; a float converts exactly, an inf or NaN is refused."""
    if isinstance(v, float) and not math.isfinite(v):
        raise ValueError(f"non-finite number {v}")
    return Fraction(v)


class LinearFunctional(Record):
    """Finite sum of derivative evaluations on [0, T], kernel order n.
    alpha, lambda and T are stored as Fractions."""

    __slots__ = _fields = ("terms", "T", "n")

    def __init__(self, terms: Sequence[Tuple[Real, int, Real]], T: Real, n: int):
        if n < 1:
            raise ValueError("kernel order n must be >= 1")
        T = _exact(T)
        terms = tuple((_exact(alpha), m, _exact(lam)) for alpha, m, lam in terms)  # (alpha, m, lambda)
        for alpha, m, _lam in terms:
            if not 0 <= alpha <= T:
                raise ValueError(f"alpha {alpha} outside [0, {T}]")
            if not 0 <= m <= n - 1:
                raise ValueError(f"derivative order {m} outside 0..{n - 1}")
        set_field(self, "terms", terms)
        set_field(self, "T", T)
        set_field(self, "n", n)

    def __call__(self, f) -> float:
        """Apply to a spline, or anything with f.deriv_value(t, m) = f^(m)(t)."""
        total = 0.0
        for alpha, m, lam in self.terms:
            total += float(lam) * float(f.deriv_value(alpha, m))
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


def peano_kernel(L: LinearFunctional, t: Real) -> float:
    """The kernel value K(t), one-sided (left limit) at jumps."""
    total = 0.0
    for alpha, m, lam in L.terms:
        p = L.n - 1 - m
        if float(t) <= float(alpha):
            total += float(lam) * float(alpha - t) ** p / math.factorial(p)
    return total


def kernel_pieces(L: LinearFunctional) -> List[Tuple[Fraction, Fraction, Poly]]:
    """The kernel as (lo, hi, polynomial-in-t) pieces between breakpoints."""
    breaks = sorted({Fraction(0), L.T, *(alpha for alpha, _m, _lam in L.terms)})
    out: List[Tuple[Fraction, Fraction, Poly]] = []
    for lo, hi in zip(breaks, breaks[1:]):
        poly = Poly()
        for alpha, m, lam in L.terms:
            if alpha >= hi:  # every alpha is a break, so the others end at or before lo
                p = L.n - 1 - m
                # lam (alpha - t)^p / p! = sum_j lam C(p, j) alpha^(p - j) (-t)^j / p!
                poly = poly + Poly([lam * math.comb(p, j) * alpha ** (p - j) * (-1) ** j / math.factorial(p)
                                    for j in range(p + 1)])
        out.append((lo, hi, poly))
    return out


def kernel_l1_norm(L: LinearFunctional) -> float:
    """Integral of |K| over [0, T]: the exact variation (`pwpoly.variation`) of
    an antiderivative of each kernel piece, cut at the kernel's sign changes
    and rounded once per piece."""
    if not annihilates_polys(L):
        raise ValueError("functional does not annihilate polynomials of degree < n")
    from .pwpoly import variation  # deferred: only the L1 norm needs pwpoly

    return sum((variation(poly.antiderivative(), lo, hi) for lo, hi, poly in kernel_pieces(L)), 0.0)


def deriv_kernel_l1_exact(x: Real, T: Real) -> Fraction:
    """Closed form (x^2 + (T-x)^2) / (2T) for the derivative functional."""
    x, T = Fraction(x), Fraction(T)
    if not 0 <= x <= T:
        raise ValueError("need 0 <= x <= T")
    return (x**2 + (T - x) ** 2) / (2 * T)


# -- the Vandermonde certificate -------------------------------------------


class KernelCertificate(Record):
    """Uniform constants (A, B) with |f^(k)| <= A a T^-k + B b T^(n-k) for all
    members; built from interpolation functionals at alpha_i = i/n."""

    __slots__ = _fields = ("A", "B", "n", "k")

    def __init__(self, A: float, B: float, n: int, k: int):
        if not (A > 0 and B > 0):
            raise ValueError("certificate constants must be positive")
        set_field(self, "A", A)
        set_field(self, "B", B)
        set_field(self, "n", n)
        set_field(self, "k", k)

    def _terms(self, a: Real, b: Real, T: Real) -> Tuple[float, float]:
        a, b, T = float(a), float(b), float(T)
        return self.A * a * T**-self.k, self.B * b * T ** (self.n - self.k)

    def segment_bound(self, a: Real, b: Real, T: Real) -> float:
        return sum(self._terms(a, b, T))

    def optimal_T(self, a: Real, b: Real) -> float:
        """The T minimizing segment_bound, where the weights A / (n - k) and B / k
        balance. It needs a / b within about 1e+-300 of 1, where their quotient
        is a normal float; `bound` reads T* through homogeneity beyond that."""
        a_star, b_star = self.A / (self.n - self.k), self.B / self.k
        return (a_star * float(a) / (b_star * float(b))) ** (1.0 / self.n)

    def bound(self, a: Real, b: Real, T: Real) -> float:
        """segment_bound at min(T, T*), a bound on [0, T]: restricting a member
        of the class on [0, T] to [0, T*] gives a member there. Where T* or a
        term leaves the normal float range, the bound is read through
        homogeneity, in logarithms: at (a, b, T) it is a^(1 - k/n) b^(k/n)
        times the (1, 1) bound at tau = T (b/a)^(1/n), and T* scales alike.
        OverflowError when the bound itself is past the float range."""
        n, k, a, b, T = self.n, self.k, float(a), float(b), float(T)
        try:
            terms = self._terms(a, b, min(T, self.optimal_T(a, b)))
        except ArithmeticError:  # T* = 0 to a negative power, or B b / k = 0 under it
            terms = (0.0,)
        if min(terms) >= sys.float_info.min and max(terms) < math.inf:
            return sum(terms)
        log_tau = min(math.log(T) + (math.log(b) - math.log(a)) / n, math.log(self.optimal_T(1, 1)))
        x, y = math.log(self.A) - k * log_tau, math.log(self.B) + (n - k) * log_tau
        value = math.exp(((n - k) * math.log(a) + k * math.log(b)) / n + max(x, y) + math.log1p(math.exp(-abs(x - y))))
        if not value > 0:
            raise OverflowError("the bound underflows")
        return value


def _solve_exact(matrix: List[List[Fraction]], rhss: List[List[Fraction]]) -> List[List[Fraction]]:
    """The solutions x of matrix x = rhs, one per right-hand side, by one
    Gauss-Jordan pass over exact rationals (the first nonzero pivot)."""
    n = len(matrix)
    aug = [row[:] + [rhs[i] for rhs in rhss] for i, row in enumerate(matrix)]
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
    return [[aug[r][n + j] for r in range(n)] for j in range(len(rhss))]


def certificate_nodes(n: int) -> List[Fraction]:
    """The interpolation nodes alpha_i = i/n, i = 1..n, of the certificate."""
    return [Fraction(i, n) for i in range(1, n + 1)]


def lagrange_derivatives(alphas: Sequence[Fraction], k: int) -> List[Poly]:
    """ell_i^(k) for the Lagrange basis ell_i on the nodes: lambda_i(x) =
    ell_i^(k)(x) are the weights with sum_i lambda_i(x) p(alpha_i) = p^(k)(x)
    for every p of degree < len(alphas).  ell_i is the product of
    (x - alpha_m) / (alpha_i - alpha_m) over m != i; over the common denominator
    L of the nodes, alpha_m = a_m / L, that is prod (L x - a_m) / prod (a_i - a_m),
    an integer product."""
    alphas = [Fraction(alpha) for alpha in alphas]
    L = math.lcm(*(alpha.denominator for alpha in alphas))
    nums = [int(alpha * L) for alpha in alphas]
    out = []
    for i, a_i in enumerate(nums):
        prod, den = [1], 1
        for m, a_m in enumerate(nums):
            if m != i:
                prod = [L * below - a_m * c for c, below in zip(prod + [0], [0] + prod)]
                den *= a_i - a_m
        if den == 0:
            raise ValueError("repeated interpolation node")
        out.append(Poly(Fraction(c * math.perm(e, k), den) for e, c in enumerate(prod) if e >= k))
    return out


def certificate_functional(n: int, k: int, x: Fraction) -> LinearFunctional:
    """L_x(f) = f^(k)(x) - sum_i lambda_i(x) f(alpha_i), the functional whose
    kernel the certificate bounds at x."""
    alphas = certificate_nodes(n)
    lambdas = [ell(x) for ell in lagrange_derivatives(alphas, k)]
    terms = [(x, k, Fraction(1))] + [(alpha, 0, -lam) for alpha, lam in zip(alphas, lambdas)]
    return LinearFunctional(tuple(terms), Fraction(1), n)


class _GridTables(NamedTuple):
    """The certificate at x = j/grid in integers: lambda_i(x) = L_i(j) / lam_den,
    kernel-piece t-coefficients N_m / D, breaks lo, hi over n * grid."""

    n: int
    grid: int
    lam: List[List[int]]  # L_i(j) = sum_a lam[a][i] j^a
    lam_den: int
    expansions: List[List[int]]  # (alpha_i - t)^(n-1)/(n-1)! times D / lam_den
    x_term: List[int]  # (x - t)^d/d! times D is sum_m x_term[m] j^(d-m) t^m
    D: int
    u: int  # 2 n grid, so that t = (lo + hi + w)/u about a slot's midpoint


def _grid_tables(n: int, k: int, grid: int) -> _GridTables:
    d = n - 1 - k
    basis = lagrange_derivatives(certificate_nodes(n), k)  # each of degree d exactly
    den = math.lcm(*(c.denominator for ell in basis for c in ell.coeffs))
    lam = [[int(ell.coeffs[a] * den) * grid ** (d - a) for ell in basis] for a in range(d + 1)]
    # (i/n - t)^(n-1)/(n-1)! has integer coefficients over n^(n-1) (n-1)!, (j/grid - t)^d/d! over grid^d d!
    e_den, x_den = den * grid**d * n ** (n - 1) * math.factorial(n - 1), grid**d * math.factorial(d)
    D = math.lcm(e_den, x_den)
    expansions = [[D // e_den * math.comb(n - 1, m) * (-1) ** m * i ** (n - 1 - m) * n**m for m in range(n)]
                  for i in range(1, n + 1)]
    x_term = [D // x_den * math.comb(d, m) * (-1) ** m * grid**m for m in range(d + 1)]
    return _GridTables(n, grid, lam, den * grid**d, expansions, x_term, D, 2 * n * grid)


def _at(cols: Sequence[Sequence[int]], j: int) -> List[int]:
    """sum_a cols[a] j^a entrywise, by Horner in j: the values at j of integer
    polynomials in j stored as columns of coefficients."""
    out = cols[-1]
    for col in reversed(cols[:-1]):
        out = [v * j + c for v, c in zip(out, col)]
    return list(out)


def _piece_bound(tab: _GridTables, lo: int, hi: int, nums: Sequence[int]) -> float:
    """Upper bound on every candidate _kernel_sup takes on p(t) = sum_m N_m t^m / D,
    lo <= U t <= hi with U = n grid: the Bernstein bound (Farouki & Rajan 1988).  The
    exact integer Taylor shift U^d N((lo + w)/U) = sum_m h_m w^m, d = n - 1, gives
    c_m = h_m (hi - lo)^m, the coefficients in s = w/(hi - lo) in [0, 1].  p lies in
    the hull of its Bernstein coefficients on the piece, sum_{m<=i} C(i, m)/C(d, m)
    c_m / (D U^d), so sup |p| <= max_i |beta_i| / (d! D U^d) with beta_i = sum_{m<=i}
    C(i, m) m! (d-m)! c_m, the binomial transform taken by d passes of adjacent sums.
    That is at most C = sum_m |N_m| / D: the coefficients on [lo, hi] are convex
    combinations of those on [0, 1] (de Casteljau), sum_{m<=i} C(i, m)/C(d, m) N_m / D
    with weights in [0, 1].  The float candidates (rounded coefficients, Horner steps,
    points within 2^-53 of the piece in [0, 1], |p'| <= (n - 1) C) exceed the exact
    |p| by at most 3n 2^-53 C, the quotients below lose a few 2^-53 C: 1e-12 C covers
    it all."""
    d, w, unit = tab.n - 1, hi - lo, tab.n * tab.grid
    beta = [math.factorial(m) * math.factorial(d - m) * h * w**m
            for m, h in enumerate(_roots._taylor_shift(nums, lo, unit))]
    for low in range(d):
        for i in range(d, low, -1):
            beta[i] += beta[i - 1]
    return max(map(abs, beta)) / (math.factorial(d) * tab.D * unit**d) + 1e-12 * (sum(map(abs, nums)) / tab.D)


def _critical_points(crit: Dict[Tuple[int, ...], List[float]], fp: Poly, nums: Sequence[int],
                     lo_f: float, hi_f: float) -> List[float]:
    """real_roots_float(fp', lo_f, hi_f) for 0 <= lo_f <= hi_f <= 1, where fp has the
    numerators nums, from one search of fp' on [0, 1] per distinct nums kept in crit:
    R and span in real_roots_float are 1 on both intervals, so the same roots are
    found and _roots._within keeps them by the same rule.  The one difference: an
    end within 1e-9 of 0 or 1 but not equal to it (no break over n grid is) may gain
    a root clamped to that end, which repeats the end's own candidate."""
    key = tuple(nums)
    if key not in crit:
        crit[key] = _roots.real_roots_float(fp.derivative(), 0.0, 1.0) if fp.degree > 0 else []
    return _roots._within(crit[key], lo_f, hi_f)


def _kernel_sup(pieces: Sequence[Tuple[int, int, List[int]]], tab: _GridTables, best: float = 0.0,
                crit: Optional[Dict[Tuple[int, ...], List[float]]] = None) -> float:
    """max(best, sup_t |K(t)|) from per-piece float maxima at the ends and critical
    points, skipping a piece whose _piece_bound is below the running best.  crit holds
    the critical points found so far (_critical_points); a caller that passes one
    dict to several calls searches each distinct polynomial once."""
    crit = {} if crit is None else crit
    unit = tab.n * tab.grid
    for lo, hi, nums in pieces:
        if not any(nums) or _piece_bound(tab, lo, hi, nums) < best:
            continue
        fp = Poly(c / tab.D for c in nums)
        lo_f, hi_f = lo / unit, hi / unit
        cand = [abs(fp(lo_f)), abs(fp(hi_f))]
        cand.extend(abs(fp(r)) for r in _critical_points(crit, fp, nums, lo_f, hi_f))
        best = max(best, *cand)
    return best


class _SlotForm(NamedTuple):
    """The numerators of the kernel pieces in one slot s/n <= t <= (s+1)/n as
    integer polynomials in j, N_m(j) = sum_a nums[a][m] j^a (the piece is
    sum_m N_m(j) t^m / D), and what _slot_bound needs of them."""

    nums: List[List[int]]
    shifted: List[List[int]]  # the Taylor shift of each nums[a] in t about the slot's midpoint
    slack: float  # 1e-12 C(j) for every 0 <= j <= grid, C(j) = sum_m |N_m(j)| / D


def _slot_form(tab: _GridTables, s: int, nums: List[List[int]]) -> _SlotForm:
    """nums with its shift about the slot's midpoint and its slack, C(j) bounded by
    one Taylor shift in j about grid/2."""
    d = len(nums) - 1
    shifted = [_roots._taylor_shift(col, (2 * s + 1) * tab.grid, tab.u) for col in nums]
    return _SlotForm(nums, shifted, 1e-12 * (_shifted_abs(nums, tab.grid, tab.grid, 1) / (tab.D * 2**d)))


def _slot_forms(tab: _GridTables) -> List[Tuple[_SlotForm, _SlotForm]]:
    """Per slot s, the forms without and with the (x - t)^d/d! term: the sum of
    -L_i(j) (alpha_i - t)^(n-1)/(n-1)! over the nodes alpha_i >= (s+1)/n, in integers
    over D with L_i(j) left as polynomials in j (suffix sums from the right end)."""
    n, d = tab.n, len(tab.x_term) - 1
    suffix, out = [[0] * n for _ in range(d + 1)], []
    for s in range(n - 1, -1, -1):
        for a, col in enumerate(tab.lam):
            suffix[a] = [c - col[s] * e for c, e in zip(suffix[a], tab.expansions[s])]
        with_x = [col[:] for col in suffix]
        for m, c in enumerate(tab.x_term):
            with_x[d - m][m] += c
        out.append((_slot_form(tab, s, list(suffix)), _slot_form(tab, s, with_x)))
    return out[::-1]


def _shifted_abs(cols: Sequence[Sequence[int]], c: int, h: int, width: int) -> int:
    """sum_a h^a sum_b width^b |g_ab| for the polynomials q_b(j) = sum_a cols[a][b] j^a,
    where 2^d q_b((c + w)/2) = sum_a g_ab w^a, d = len(cols) - 1 (Horner's shift by c
    of the entries scaled by 2^(d-a)): at least 2^d sum_b width^b |q_b(j)| wherever
    |2j - c| <= h."""
    d = len(cols) - 1
    g = [[v << (d - a) for v in col] for a, col in enumerate(cols)]
    for low in range(d):
        for a in range(d - 1, low - 1, -1):
            g[a] = [v + c * above for v, above in zip(g[a], g[a + 1])]
    S = 0
    for col in reversed(g):
        T = 0
        for v in reversed(col):
            T = T * width + abs(v)
        S = S * h + T
    return S


def _slot_bound(tab: _GridTables, s: int, forms: Tuple[_SlotForm, _SlotForm], j0: int, j1: int) -> float:
    """An upper bound on every candidate _kernel_sup takes on the pieces of slot s
    at x = j/grid for every j0 <= j <= j1, from one integer Taylor shift in (j, t)
    about the centre (j0 + j1)/2 and the slot's midpoint, plus the slot's float slack.  The form with the x term holds left of x and the form
    without it right of x; a run may have x on either side of the slot or inside
    it, and each form needed is bounded over the whole slot."""
    needed = []
    if j0 * tab.n < (s + 1) * tab.grid:
        needed.append(forms[0])
    if j1 * tab.n > s * tab.grid:
        needed.append(forms[1])
    scale = tab.D * tab.u ** (tab.n - 1) * 2 ** (len(forms[0].nums) - 1)
    return max(_shifted_abs(form.shifted, j0 + j1, j1 - j0, tab.grid) / scale + form.slack for form in needed)


def _slot_pieces(tab: _GridTables, s: int, forms: Tuple[_SlotForm, _SlotForm], j: int) -> List[Tuple[int, int, List[int]]]:
    """The kernel pieces of L_x at x = j/grid that lie in slot s, as (lo, hi,
    numerators) with breaks over n grid: the slot split at x, the forms at j."""
    lo, hi, x = s * tab.grid, (s + 1) * tab.grid, j * tab.n
    if x >= hi:
        return [(lo, hi, _at(forms[1].nums, j))]
    if x <= lo:
        return [(lo, hi, _at(forms[0].nums, j))]
    return [(lo, x, _at(forms[1].nums, j)), (x, hi, _at(forms[0].nums, j))]


def _unpruned_points(j0: int, j1: int, dominated):
    """The grid points of [j0, j1] left when the range is bisected into runs and
    every run of two or more points for which dominated(j0, j1) holds is dropped."""
    stack = [(j0, j1)] if j0 <= j1 else []
    while stack:
        j0, j1 = stack.pop()
        if j0 == j1:
            yield j0
        elif not dominated(j0, j1):
            mid = (j0 + j1) // 2
            stack += [(mid + 1, j1), (j0, mid)]


def _certificate_constants(n: int, k: int, grid: int) -> Tuple[float, float]:
    """(A, B) = (max_j sum_i |lambda_i(j/grid)|, max_j sup_t |K_j(t)|) over j = 0..grid.
    Both are maxima of values attained, so they do not depend on the order of the
    search: j = 0 and j = grid seed them, then runs of the points between are
    bisected until a bound over the run shows it cannot raise the maximum (for B,
    one slot of t at a time) or a single point is left, whose values are taken."""
    tab, d = _grid_tables(n, k, grid), n - 1 - k
    slots, crit = _slot_forms(tab), {}
    A, B = 0, 0.0
    for j in {0, grid}:
        A = max(A, sum(map(abs, _at(tab.lam, j))))
        B = _kernel_sup([p for s, forms in enumerate(slots) for p in _slot_pieces(tab, s, forms, j)], tab, B, crit)
    for j in _unpruned_points(1, grid - 1, lambda j0, j1: _shifted_abs(tab.lam, j0 + j1, j1 - j0, 1) <= A << d):
        A = max(A, sum(map(abs, _at(tab.lam, j))))
    for s, forms in enumerate(slots):
        for j in _unpruned_points(1, grid - 1, lambda j0, j1: _slot_bound(tab, s, forms, j0, j1) < B):
            B = _kernel_sup(_slot_pieces(tab, s, forms, j), tab, B, crit)
    return A / tab.lam_den, B


CERTIFICATE_GRID = 201  # x = j/200, j = 0..200


def vandermonde_certificate(n: int, k: int) -> KernelCertificate:
    """Make L_x(f) = f^(k)(x) - sum_i lambda_i(x) f(i/n) annihilate degree < n
    for x on a uniform grid of [0, 1], with lambda_i = ell_i^(k) from the
    Lagrange basis; A = max_x sum |lambda_i(x)| and B = max_x sup_t |K_x(t)|,
    found by branch and bound over runs of grid points (_certificate_constants)."""
    if not 2 <= n <= 12:
        raise ValueError(f"unsupported order n={n}: Vandermonde certificate needs 2 <= n <= 12")
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}")
    A, B = _certificate_constants(n, k, CERTIFICATE_GRID - 1)
    return KernelCertificate(A=A, B=B, n=n, k=k)
