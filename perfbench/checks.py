"""Reference values computed apart from landaukol, used to check its outputs.

Nothing here imports landaukol: the whole-line constants come from the Favard
series, the order-2 and order-3 closed forms are coded from their formulas,
Chebyshev derivatives come from an integer recurrence, and spline witnesses
are evaluated straight from their JSON.
"""
from __future__ import annotations

import math
from fractions import Fraction

SQRT2 = math.sqrt(2.0)


class CheckFailed(AssertionError):
    """An output of the program disagrees with its reference."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def close(x: float, y: float, rel: float, what: str, abs_tol: float = 0.0) -> None:
    expect(
        math.isfinite(x) and abs(x - y) <= max(rel * abs(y), abs_tol),
        f"{what}: got {x!r}, reference {y!r}",
    )


# -- whole-line constants from the Favard series ------------------------------


def _odd_power_sum(p: int, alternating: bool) -> float:
    """sum over j >= 0 of s_j / (2j+1)^p, with s_j = (-1)^j if alternating
    else 1.  The plain sum takes an Euler-Maclaurin tail; the alternating one
    is accelerated by repeated averaging of its partial sums."""
    if alternating:
        sums, acc = [], 0.0
        for j in range(40):
            acc += (-1) ** j / (2 * j + 1) ** p
            sums.append(acc)
        while len(sums) > 1:
            sums = [(u + v) / 2 for u, v in zip(sums, sums[1:])]
        return sums[0]
    N = 64
    head = math.fsum(1.0 / (2 * j + 1) ** p for j in range(N))
    x = 2 * N + 1
    # f(j) = (2j+1)^-p: integral, f/2, -f'/12, +f'''/720 at j = N
    tail = x ** (1 - p) / (2 * (p - 1)) + x ** -p / 2
    tail += 2 * p * x ** (-p - 1) / 12
    tail -= 8 * p * (p + 1) * (p + 2) * x ** (-p - 3) / 720
    return head + tail


def favard(m: int) -> float:
    """K_m = (4/pi) sum_j (-1)^(j(m+1)) / (2j+1)^(m+1), for m >= 1."""
    if m < 1:
        raise ValueError("need m >= 1")
    return 4 / math.pi * _odd_power_sum(m + 1, alternating=(m + 1) % 2 == 1)


def s_const(m: int) -> float:
    """s_m = K_m / pi^m."""
    return favard(m) / math.pi**m


def whole_line(n: int, k: int, a: float, b: float) -> float:
    """Sharp whole-line bound s_{n-k} / s_n^(1-k/n) a^(1-k/n) b^(k/n)."""
    ratio = s_const(n - k) / s_const(n) ** (1 - k / n)
    return ratio * a ** (1 - k / n) * b ** (k / n)


# -- Chebyshev polynomials --------------------------------------------------------


def chebyshev_deriv_at_one(m: int, k: int) -> int:
    """T_m^(k)(1) from integer coefficients of T_m."""
    prev, cur = [1], [0, 1]
    if m == 0:
        cur = prev
    for _ in range(m - 1):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    coeffs = cur
    for _ in range(k):
        coeffs = [i * c for i, c in enumerate(coeffs)][1:]
    return sum(coeffs)


def chebyshev_member(n: int, k: int, a: float, T: float) -> float:
    """|f^(k)(T)| for f = a T_{n-1}(2t/T - 1), a member of every (a, b) class."""
    return a * (2 / T) ** k * chebyshev_deriv_at_one(n - 1, k)


# -- order-2 closed forms ------------------------------------------------------------


def seg2(a: float, b: float, T: float) -> float:
    if T <= 2 * math.sqrt(a / b):
        return 2 * a / T + b * T / 2
    return 2 * math.sqrt(a * b)


def halfline2(a: float, b: float) -> float:
    return 2 * math.sqrt(a * b)


def line2(a: float, b: float) -> float:
    return math.sqrt(2 * a * b)


def pointwise_unit_branch(t0: float, T: float) -> str:
    """Branch of sup f'(t0) on [0, T] for the unit class."""
    if t0 > T / 2:
        t0 = T - t0
    if t0 > SQRT2:
        return "interior"
    if T <= t0 + math.sqrt(2 * t0 * t0 + 4) - t0:
        return "short"
    return "free-end"


def pointwise(a: float, b: float, T: float, t0: float) -> float:
    """sup f'(t0): sqrt 2, G(t0, T - t0) or phi(t0) in unit coordinates."""
    s = math.sqrt(b / a)
    t, L = t0 * s, T * s
    if t > L / 2:
        t = L - t
    phi = math.sqrt(2 * t * t + 4) - t
    branch = pointwise_unit_branch(t, L)
    if branch == "interior":
        v = SQRT2
    elif branch == "short":
        x, y = t, L - t
        v = 2 / (x + y) + (x * x + y * y) / (2 * (x + y))
    else:
        v = phi
    return v * math.sqrt(a * b)


LATTICE = 2 * SQRT2


def sigma1_exact_unit(T: float):
    """Total-variation supremum where it is known exactly, else None."""
    if T <= 2:
        return 2.0
    if T <= 4:
        return T * T / 2 - 2 * T + 4
    N = round((T - 4) / LATTICE)
    if abs(T - (4 + N * LATTICE)) <= 1e-9:
        return 2.0 * N + 4
    return None


def sigma1_bracket_unit(T: float):
    """Known values at the lattice points on either side of T > 4; sigma_1 is
    nondecreasing in T because stretching time keeps a member a member."""
    N = math.floor((T - 4) / LATTICE)
    return 2.0 * N + 4, 2.0 * (N + 1) + 4


# -- order-3 closed forms (segment) ------------------------------------------------


def sato_t0(a: float, b: float) -> float:
    return (81 * a / b) ** (1 / 3)


def sato(k: int, a: float, b: float, T: float) -> float:
    if T >= sato_t0(a, b):
        if k == 1:
            return 3 ** (5 / 3) / 2 * a ** (2 / 3) * b ** (1 / 3)
        return 2 * 3 ** (1 / 3) * a ** (1 / 3) * b ** (2 / 3)
    c = T**3 * b / a
    lo, hi = 1 / 3, 0.5
    for _ in range(100):  # 12 - 24 al - c al^2 (1-al)^2 falls across [1/3, 1/2)
        mid = (lo + hi) / 2
        if 12 - 24 * mid - c * mid * mid * (1 - mid) ** 2 > 0:
            lo = mid
        else:
            hi = mid
    u = (lo + hi) / 2 * T
    if k == 1:
        return 4 * a / u + b * u * u / 6
    return 4 * a / (u * u) + 2 * b * u / 3


# -- splines read from their JSON ---------------------------------------------------


def _num(v) -> float:
    return float(Fraction(v)) if isinstance(v, str) else float(v)


class JsonSpline:
    """Float evaluation of a spline document {knots, pieces, n}."""

    def __init__(self, doc: dict):
        self.knots = [_num(k) for k in doc["knots"]]
        self.pieces = [[_num(c) for c in cs] for cs in doc["pieces"]]
        expect(len(self.pieces) == len(self.knots) - 1, "spline JSON piece count")

    def _piece(self, t: float) -> list:
        for i in range(len(self.pieces) - 1):
            if t < self.knots[i + 1]:
                return self.pieces[i]
        return self.pieces[-1]

    def value(self, t: float, order: int = 0) -> float:
        cs = self._piece(t)
        for _ in range(order):
            cs = [i * c for i, c in enumerate(cs)][1:]
        acc = 0.0
        for c in reversed(cs):
            acc = acc * t + c
        return acc

    def sup_on_grid(self, points: int = 2001) -> float:
        lo, hi = self.knots[0], self.knots[-1]
        grid = [lo + (hi - lo) * i / (points - 1) for i in range(points)]
        return max(abs(self.value(t)) for t in grid + self.knots)

    def variation(self) -> float:
        """Total variation for pieces of degree <= 2 (vertex split)."""
        total = 0.0
        for (lo, hi), cs in zip(zip(self.knots, self.knots[1:]), self.pieces):
            cs = cs + [0.0] * (3 - len(cs))
            expect(len(cs) == 3, "variation needs quadratic pieces")
            f = lambda t: cs[0] + cs[1] * t + cs[2] * t * t
            cuts = [lo, hi]
            if cs[2] != 0 and lo < -cs[1] / (2 * cs[2]) < hi:
                cuts.insert(1, -cs[1] / (2 * cs[2]))
            total += sum(abs(f(v) - f(u)) for u, v in zip(cuts, cuts[1:]))
        return total


def check_witness(doc: dict, a: float, value: float, point: float, what: str) -> None:
    """The witness stays inside |f| <= a on a dense grid and |f'| reaches the
    reported value at the reported point."""
    w = JsonSpline(doc)
    sup = w.sup_on_grid()
    expect(sup <= a * (1 + 1e-9) + 1e-12, f"{what}: witness leaves |f| <= a ({sup} > {a})")
    close(abs(w.value(point, 1)), value, 1e-7, f"{what}: witness slope at {point}")
