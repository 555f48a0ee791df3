"""Piecewise polynomials on a segment: membership in the class of functions
with |f| <= a and |f^(n)| <= b, contact sets with multiplicities, and the
exact extreme-point certificate.

Pieces hold coefficients in the *global* coordinate (the same t as the knots).
Coefficients and knots may be exact ``Fraction``s or ``float``s: exact splines
are checked exactly, float splines against the absolute tolerance
``JOIN_TOL`` = 1e-9 and the verdicts carry a ``numeric`` flag (extremal
constructions involving sqrt(2) cannot be represented exactly).

The almost-everywhere bang-bang condition of the extreme-point certificate is
decided piecewise-exactly, which is complete for splines; measurable members
that are not piecewise polynomial are outside the certifier's scope.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from . import _roots
from .exactnum import Poly, Real

JOIN_TOL = 1e-9
SUP_TOL = 1e-10  # resolution of the exact-mode sup check at irrational critical points
MIN_KNOT_GAP = 1e-12


class StructuralError(ValueError):
    """Malformed spline: bad knot sequence or piece count."""


class MembershipError(ValueError):
    """Raised when an operation requires a member and the check fails."""

    def __init__(self, report: "MembershipReport"):
        super().__init__(f"not a member: {report.violations}")
        self.report = report


def _is_exact_number(x: Real) -> bool:
    return isinstance(x, (Fraction, int))


class PiecewisePoly:
    """Spline on [knots[0], knots[-1]] with one polynomial per knot interval."""

    __slots__ = ("knots", "pieces", "n_smooth", "_fknots")

    def __init__(self, knots: Sequence[Real], pieces: Sequence[Poly], n_smooth: int = 2):
        knots = tuple(knots)
        pieces = tuple(p if isinstance(p, Poly) else Poly(p) for p in pieces)
        if len(knots) < 2 or len(pieces) != len(knots) - 1:
            raise StructuralError(
                f"need len(pieces) == len(knots) - 1 >= 1, got {len(pieces)} pieces, {len(knots)} knots"
            )
        fknots = tuple(float(k) for k in knots)
        for u, v in zip(fknots, fknots[1:]):
            if not v - u > MIN_KNOT_GAP:
                raise StructuralError(f"knots not increasing by more than {MIN_KNOT_GAP}: {u}, {v}")
        self.knots = knots
        self.pieces = pieces
        self.n_smooth = int(n_smooth)
        self._fknots = fknots

    # -- basic geometry ----------------------------------------------------
    @property
    def t_start(self) -> Real:
        return self.knots[0]

    @property
    def t_end(self) -> Real:
        return self.knots[-1]

    @property
    def length(self) -> float:
        return self._fknots[-1] - self._fknots[0]

    def is_exact(self) -> bool:
        return all(_is_exact_number(k) for k in self.knots) and all(
            p.is_exact() for p in self.pieces
        )

    def piece_index(self, t: Real) -> int:
        ft = float(t)
        if not self._fknots[0] - 1e-12 <= ft <= self._fknots[-1] + 1e-12:
            raise ValueError(f"t={t} outside domain [{self.t_start}, {self.t_end}]")
        i = bisect_right(self._fknots, ft) - 1
        return min(max(i, 0), len(self.pieces) - 1)

    def __call__(self, t: Real) -> Real:
        return self.pieces[self.piece_index(t)](t)

    def deriv_value(self, t: Real, order: int = 1) -> Real:
        return self.pieces[self.piece_index(t)].nth_derivative(order)(t)

    def derivative(self) -> "PiecewisePoly":
        return PiecewisePoly(
            self.knots, [p.derivative() for p in self.pieces], max(self.n_smooth - 1, 0)
        )

    def restrict(self, lo: Real, hi: Real) -> "PiecewisePoly":
        flo, fhi = float(lo), float(hi)
        if not flo < fhi:
            raise ValueError("need lo < hi")
        if flo < self._fknots[0] - 1e-12 or fhi > self._fknots[-1] + 1e-12:
            raise ValueError(f"[{lo}, {hi}] outside domain [{self.t_start}, {self.t_end}]")
        knots: List[Real] = [lo]
        pieces: List[Poly] = []
        for idx, p in enumerate(self.pieces):
            seg_lo, seg_hi = self._fknots[idx], self._fknots[idx + 1]
            # skip pieces outside the cut and sliver overlaps below the
            # minimal knot gap (their neighbours cover them to within 1e-12)
            if seg_hi <= flo + MIN_KNOT_GAP or seg_lo >= fhi - MIN_KNOT_GAP:
                continue
            end: Real = self.knots[idx + 1] if seg_hi < fhi - MIN_KNOT_GAP else hi
            if float(end) - float(knots[-1]) <= MIN_KNOT_GAP:
                continue
            pieces.append(p)
            knots.append(end)
        knots[-1] = hi
        return PiecewisePoly(knots, pieces, self.n_smooth)

    def __repr__(self) -> str:
        return f"PiecewisePoly(knots={list(self.knots)!r}, degree<={max(p.degree for p in self.pieces)}, n={self.n_smooth})"

    # -- serialization -----------------------------------------------------
    def to_json_dict(self) -> dict:
        def enc(v: Real):
            if isinstance(v, (Fraction, int)):
                fr = Fraction(v)
                return f"{fr.numerator}/{fr.denominator}"
            return float(v)

        return {
            "knots": [enc(k) for k in self.knots],
            "pieces": [[enc(c) for c in p.coeffs] for p in self.pieces],
            "n": self.n_smooth,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_json_dict(), **kwargs)

    @staticmethod
    def from_json_dict(d: dict) -> "PiecewisePoly":
        def dec(v) -> Real:
            if isinstance(v, str):
                return Fraction(v)
            if not math.isfinite(v):
                raise ValueError(f"non-finite number {v}")
            return float(v)

        try:
            knots = [dec(k) for k in d["knots"]]
            pieces = [Poly([dec(c) for c in cs]) for cs in d["pieces"]]
            n = int(d.get("n", 2))
        except (KeyError, TypeError, ValueError) as exc:
            raise StructuralError(f"bad spline JSON: {exc}") from exc
        return PiecewisePoly(knots, pieces, n)

    @staticmethod
    def from_json(text: str) -> "PiecewisePoly":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StructuralError(f"bad spline JSON: {exc}") from exc
        return PiecewisePoly.from_json_dict(d)


def transform(f: PiecewisePoly, mu: Real = 1, lam: Real = 1, t0: Real = 0) -> PiecewisePoly:
    """g(t) = mu * f(lam * (t - t0)); maps membership with bounds (a, b) to
    (|mu| a, |mu lam^n| b) on the rescaled interval."""
    if lam == 0 or mu == 0:
        raise ValueError("mu and lam must be nonzero")
    new_knots = [t0 + k / lam for k in f.knots]
    new_pieces = [p.compose_affine(-lam * t0, lam) * mu for p in f.pieces]
    if float(lam) < 0:
        new_knots.reverse()
        new_pieces.reverse()
    return PiecewisePoly(new_knots, new_pieces, f.n_smooth)


def _piece_roots(p: Poly, lo: Real, hi: Real, exact: bool) -> List[_roots.Root]:
    if p.is_zero():
        return []
    if exact:
        return _roots.real_roots_exact(p, Fraction(lo), Fraction(hi))
    return _roots.real_roots_float(p.to_float(), float(lo), float(hi))


def piece_sup(p: Poly, lo: Real, hi: Real, exact: bool) -> float:
    """sup of |p| on [lo, hi] by critical-point enumeration (root isolation
    of p'); exact mode resolves irrational critical points to 1e-12 brackets."""
    candidates = [abs(float(p(lo))), abs(float(p(hi)))]
    for r in _piece_roots(p.derivative(), lo, hi, exact):
        if r.exact is not None:
            candidates.append(abs(float(p(r.exact))))
        elif r.bracket is not None:
            a, b = r.bracket
            candidates.append(max(abs(float(p(a))), abs(float(p(b)))))
        else:
            x = _roots.polish_float_root(p.derivative().to_float(), r.approx, float(lo), float(hi))
            candidates.append(abs(float(p.to_float()(x))))
    return max(candidates)


def abs_integral(p: Poly, lo: Real, hi: Real, exact: bool) -> float:
    """Integral of |p| over [lo, hi]: split at the roots of p inside the
    interval and integrate the polynomial in between."""
    flo, fhi = float(lo), float(hi)
    cuts = [flo] + [r.approx for r in _piece_roots(p, lo, hi, exact) if flo < r.approx < fhi] + [fhi]
    anti = p.antiderivative().to_float()
    return sum((abs(anti(v) - anti(u)) for u, v in zip(cuts, cuts[1:])), 0.0)


def total_variation(f: PiecewisePoly) -> float:
    """Integral of |f'| over the domain, piece by piece."""
    exact = f.is_exact()
    return sum(
        abs_integral(p.derivative(), lo, hi, exact)
        for p, lo, hi in zip(f.pieces, f.knots, f.knots[1:])
    )


# -- membership -----------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    kind: str  # 'degree' | 'join' | 'sup' | 'nth-derivative'
    where: float
    detail: str


@dataclass(frozen=True)
class MembershipReport:
    ok: bool
    numeric: bool
    violations: Tuple[Violation, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def membership(f: PiecewisePoly, n: int, a: Real, b: Real, tol: float = JOIN_TOL) -> MembershipReport:
    """Check the class conditions: C^(n-1) joins at the knots, degree <= n per
    piece, sup |f| <= a, and |f^(n)| <= b (a constant on each piece)."""
    if n < 1:
        raise ValueError("order n must be >= 1")
    if not (a > 0 and b > 0):
        raise ValueError("bounds a and b must be positive")
    exact = f.is_exact() and _is_exact_number(a) and _is_exact_number(b)
    violations: List[Violation] = []

    for i, p in enumerate(f.pieces):
        if p.degree > n:
            violations.append(
                Violation("degree", float(f.knots[i]), f"piece {i} has degree {p.degree} > {n}")
            )

    for i in range(1, len(f.pieces)):
        t = f.knots[i]
        left, right = f.pieces[i - 1], f.pieces[i]
        for order in range(n):
            vl = left.nth_derivative(order)(t)
            vr = right.nth_derivative(order)(t)
            gap = abs(float(vl - vr))
            if (exact and vl != vr) or (not exact and gap > tol):
                violations.append(
                    Violation("join", float(t), f"order-{order} mismatch at knot {i}: gap {gap:.3e}")
                )

    for i, p in enumerate(f.pieces):
        cn = p.coeffs[n] if p.degree >= n else 0
        dn = abs(cn * math.factorial(n))
        # written as "not <=" so that a NaN counts as a violation
        if not (dn <= b if exact else float(dn) <= float(b) + tol):
            violations.append(
                Violation(
                    "nth-derivative",
                    float(f.knots[i]),
                    f"|f^({n})| = {float(dn)} > {float(b)} on piece {i}",
                )
            )

    for i, p in enumerate(f.pieces):
        lo, hi = f.knots[i], f.knots[i + 1]
        sup = piece_sup(p, lo, hi, exact)
        limit = float(a) + (SUP_TOL if exact else tol)
        if not sup <= limit:
            violations.append(
                Violation("sup", float(lo), f"sup |f| = {sup} > {float(a)} on piece {i}")
            )

    return MembershipReport(ok=not violations, numeric=not exact, violations=tuple(violations))


def require_member(f: PiecewisePoly, n: int, a: Real, b: Real) -> MembershipReport:
    report = membership(f, n, a, b)
    if not report.ok:
        raise MembershipError(report)
    return report


# -- contact sets and the extreme-point certificate ------------------------


@dataclass(frozen=True)
class ContactPoint:
    t: float
    sign: int  # +1 where f = +a, -1 where f = -a
    multiplicity: int


@dataclass(frozen=True)
class ContactInterval:
    lo: float
    hi: float
    sign: int


@dataclass(frozen=True)
class ExtremeVerdict:
    is_extreme: bool
    contact_points: Tuple[ContactPoint, ...]
    contact_intervals: Tuple[ContactInterval, ...]
    multiplicity_sum: float  # int, or math.inf when a contact interval exists
    condition_ii_violations: Tuple[int, ...]  # piece indices
    numeric: bool


def _contact_multiplicity_float(f: PiecewisePoly, t: float, n: int, tol: float) -> int:
    piece = f.pieces[f.piece_index(t)].to_float()
    for j in range(1, n):
        if abs(float(piece.nth_derivative(j)(t))) > tol:
            return j
    return n


def contact_set(
    f: PiecewisePoly, n: int, a: Real, tol: float = JOIN_TOL
) -> Tuple[List[ContactPoint], List[ContactInterval]]:
    """Points and whole pieces where |f| = a, with multiplicities
    (order of the first nonvanishing derivative, capped at n)."""
    exact = f.is_exact() and _is_exact_number(a)
    points: List[ContactPoint] = []
    intervals: List[ContactInterval] = []

    for i, p in enumerate(f.pieces):
        lo, hi = f.knots[i], f.knots[i + 1]
        critical: List[float] = []
        if not exact:
            # a tangential contact is a double root of p -/+ a: np.roots may
            # return it as a complex pair and Newton may polish it away, so
            # the critical points of p are candidates too
            pf, flo, fhi = p.to_float(), float(lo), float(hi)
            dp = pf.derivative()
            critical = [_roots.polish_float_root(dp, r.approx, flo, fhi)
                        for r in _piece_roots(dp, flo, fhi, False)]
        for sign in (1, -1):
            q = p - Poly([sign * (Fraction(a) if exact else float(a))])
            near_zero = q.is_zero() or (
                not exact and all(abs(float(c)) <= tol for c in q.coeffs)
            )
            if near_zero:
                intervals.append(ContactInterval(float(lo), float(hi), sign))
                continue
            if exact:
                for r in _piece_roots(q, lo, hi, True):
                    points.append(ContactPoint(r.approx, sign, min(r.multiplicity, n)))
                continue
            qf = q.to_float()

            def touches(x: float) -> bool:
                return abs(float(pf(x)) - sign * float(a)) <= 10 * tol

            found = [x for x in (_roots.polish_float_root(qf, r.approx, flo, fhi)
                                 for r in _piece_roots(qf, flo, fhi, False)) if touches(x)]
            # a critical point is the same contact as a root if p stays at
            # the wall between them
            found += [x for x in critical
                      if touches(x) and not any(touches((x + y) / 2) for y in found)]
            for x in found:
                points.append(ContactPoint(x, sign, _contact_multiplicity_float(f, x, n, 1e-6)))

    # merge adjacent contact intervals of equal sign
    intervals.sort(key=lambda iv: iv.lo)
    merged: List[ContactInterval] = []
    for iv in intervals:
        if merged and iv.sign == merged[-1].sign and iv.lo <= merged[-1].hi + 1e-12:
            merged[-1] = ContactInterval(merged[-1].lo, max(merged[-1].hi, iv.hi), iv.sign)
        else:
            merged.append(iv)

    # dedupe points (shared knots are seen from both sides, and a float
    # tangential contact next to a knot may be found in both pieces) and drop
    # points swallowed by a contact interval
    span = max(1.0, f.length)
    points.sort(key=lambda cp: cp.t)
    deduped: List[ContactPoint] = []
    for cp in points:
        if any(iv.lo - 1e-9 * span <= cp.t <= iv.hi + 1e-9 * span for iv in merged):
            continue
        if deduped and (abs(cp.t - deduped[-1].t) <= 1e-9 * span or (
            not exact and cp.sign == deduped[-1].sign
            and abs(float(f((cp.t + deduped[-1].t) / 2)) - cp.sign * float(a)) <= 10 * tol
        )):
            if cp.multiplicity > deduped[-1].multiplicity:
                deduped[-1] = cp
            continue
        deduped.append(cp)
    return deduped, merged


def is_extreme_point(f: PiecewisePoly, n: int, a: Real, b: Real, tol: float = JOIN_TOL) -> ExtremeVerdict:
    """Certify whether f is an extreme point of the convex class: the contact
    multiplicities must sum to at least n, and every piece away from the
    contact set must have |f^(n)| equal to b (bang-bang)."""
    require_member(f, n, a, b)
    exact = f.is_exact() and _is_exact_number(a) and _is_exact_number(b)
    points, intervals = contact_set(f, n, a, tol)
    msum: float = sum(cp.multiplicity for cp in points)
    if intervals:
        msum = math.inf

    violations: List[int] = []
    for i, p in enumerate(f.pieces):
        lo, hi = float(f.knots[i]), float(f.knots[i + 1])
        inside_contact = any(iv.lo <= lo + 1e-12 and hi - 1e-12 <= iv.hi for iv in intervals)
        if inside_contact:
            continue
        cn = p.coeffs[n] if p.degree >= n else 0
        dn = abs(cn * math.factorial(n))
        if (exact and dn != b) or (not exact and abs(float(dn) - float(b)) > tol):
            violations.append(i)

    return ExtremeVerdict(
        is_extreme=msum >= n and not violations,
        contact_points=tuple(points),
        contact_intervals=tuple(intervals),
        multiplicity_sum=msum,
        condition_ii_violations=tuple(violations),
        numeric=not exact,
    )
