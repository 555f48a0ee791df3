"""Piecewise polynomials on a segment: membership in the class of functions
with |f| <= a and |f^(n)| <= b, contact sets with multiplicities, and the
exact extreme-point certificate.

Pieces hold coefficients in the *global* coordinate (the same t as the knots).
Coefficients and knots may be exact ``Fraction``s or ``float``s: exact splines
are checked exactly whatever the type of a and b, a float bound meaning its
exact binary value (a float 0.3 lies below 3/10; pass ``Fraction("0.3")`` for
the decimal). An exact piece p on [lo, hi] is read through its local Taylor
form P(u) = p(lo + u) on [0, hi - lo] (pp-form; de Boor, A Practical Guide to
Splines, 1978), built once per piece in a call. |p| <= a and the contacts
come from one root search of P -/+ a per distinct (P up to sign, hi - lo),
and a join from the left form shifted by its own length against the right
form at 0, once per distinct pair and relative sign, so the pieces and joins
of a periodic train such as an Euler spline cost one or two.
Float splines are checked against ``REL_TOL`` times the class scale
a^(1 - m/n) b^(m/n) of the compared f^(m) (a for values and contacts, b for
|f^(n)|) plus a rounding allowance ``EVAL_ULPS`` * (degree + 1) * sum (|c_m| +
``UNDERFLOW``) |t|^m at the piece ends, so no verdict changes when f maps to
mu f(lam t) and (a, b) to (|mu| a, |mu lam^n| b). Float verdicts carry a
``numeric`` flag (extremal constructions involving sqrt(2) cannot be
represented exactly).
Float sups and contact sets share one candidate rule: |p| peaks on a piece
only at its ends and at the real roots of p'; contacts within ``REL_TOL`` *
length are one. One pass over the pieces checks each piece's degree, its
join with the piece before, |f^(n)| <= b and |f| <= a for `membership` and
`is_extreme_point` alike, and for a member finds the certificate's contacts in
the same searches. A refused piece is worded with its largest float peak, or
the `piece_sup` of its exact local form, read once per distinct form; an
exact gap, |f^(n)| or sup past the float range is worded inf.

Spline builders clip their pieces with `cut`, which drops a piece no longer
than ``MIN_KNOT_GAP``, and map unit-class splines to the (a, b) class with
`to_class`, which builds none for a class out of range or whose checks would
leave the float range.

The almost-everywhere bang-bang condition of the extreme-point certificate is
decided piecewise-exactly, which is complete for splines; measurable members
that are not piecewise polynomial are outside the certifier's scope.
"""
from __future__ import annotations

import functools
import json
import math
import sys
from bisect import bisect_right
from fractions import Fraction
from itertools import zip_longest
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from . import _roots
from .exactnum import Poly, Real, is_exact_number

REL_TOL = 1e-9  # of the class scale a^(1 - m/n) b^(m/n) of f^(m)
EVAL_ULPS = 2.0**-51  # allowance of a float value per degree, in units of sum |c_m| |t|^m
UNDERFLOW = 2.0**-1074 / EVAL_ULPS  # absolute error of a coefficient, in the same units
MIN_KNOT_GAP = 1e-12


class StructuralError(ValueError):
    """Malformed spline: bad knot sequence or piece count."""


class MembershipError(ValueError):
    """Raised when an operation requires a member and the check fails."""

    def __init__(self, report: "MembershipReport"):
        super().__init__(f"not a member: {report.violations}")
        self.report = report


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
        return all(is_exact_number(k) for k in self.knots) and all(
            p.is_exact() for p in self.pieces
        )

    def piece_index(self, t: Real) -> int:
        ft = float(t)
        if not self._fknots[0] - MIN_KNOT_GAP <= ft <= self._fknots[-1] + MIN_KNOT_GAP:
            raise ValueError(f"t={t} outside domain [{self.t_start}, {self.t_end}]")
        i = bisect_right(self._fknots, ft) - 1
        return min(max(i, 0), len(self.pieces) - 1)

    def __call__(self, t: Real) -> Real:
        return self.pieces[self.piece_index(t)](t)

    def deriv_value(self, t: Real, order: int = 1) -> Real:
        return self.pieces[self.piece_index(t)].nth_derivative(order)(t)

    def restrict(self, lo: Real, hi: Real) -> "PiecewisePoly":
        flo, fhi = float(lo), float(hi)
        if not flo < fhi:
            raise ValueError("need lo < hi")
        if flo < self._fknots[0] - MIN_KNOT_GAP or fhi > self._fknots[-1] + MIN_KNOT_GAP:
            raise ValueError(f"[{lo}, {hi}] outside domain [{self.t_start}, {self.t_end}]")
        return PiecewisePoly(*cut(self.knots, self.pieces, lo, hi), self.n_smooth)

    def __repr__(self) -> str:
        return f"PiecewisePoly(knots={list(self.knots)!r}, degree<={max(p.degree for p in self.pieces)}, n={self.n_smooth})"

    # -- serialization -----------------------------------------------------
    def to_json_dict(self) -> dict:
        def enc(v: Real):
            if is_exact_number(v):
                fr = Fraction(v)
                return f"{fr.numerator}/{fr.denominator}"
            return float(v)

        return {
            "knots": [enc(k) for k in self.knots],
            "pieces": [[enc(c) for c in p.coeffs] for p in self.pieces],
            "n": self.n_smooth,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(d: dict) -> "PiecewisePoly":
        def dec(v) -> Real:
            if v.__class__ is bool:  # an int to Python, not a number to JSON
                raise ValueError(f"{json.dumps(v)} is not a number")
            x = Fraction(v) if isinstance(v, str) else v
            if not math.isfinite(x):
                raise ValueError(f"non-finite number {v}")
            return x if isinstance(v, str) else float(v)

        try:
            knots = [dec(k) for k in d["knots"]]
            pieces = [Poly([dec(c) for c in cs]) for cs in d["pieces"]]
            if type(n := d.get("n", 2)) is not int or n < 1:  # bool and 2.5 are refused
                raise ValueError(f"n must be an integer >= 1, got {n!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise StructuralError(f"bad spline JSON: {exc}") from exc
        except ArithmeticError as exc:  # "1/0", or a number beyond the float range
            raise StructuralError(f"bad spline JSON: number outside the float range ({exc})") from exc
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


def cut(knots: Sequence[Real], pieces: Sequence[Poly], lo: Real, hi: Real) -> Tuple[List[Real], List[Poly]]:
    """The pieces, piece i on [knots[i], knots[i + 1]], clipped to [lo, hi]. A
    piece that ends no more than MIN_KNOT_GAP after lo, or would span no more
    than the gap, is dropped, and the next one kept starts in its place; the
    first to end within the gap of hi ends at hi. No piece is left when
    [lo, hi] is no longer than the gap."""
    flo, fhi = float(lo), float(hi)
    out_knots: List[Real] = [lo]
    out_pieces: List[Poly] = []
    for i, p in enumerate(pieces):
        seg_hi = float(knots[i + 1])
        end = knots[i + 1] if fhi - seg_hi > MIN_KNOT_GAP else hi  # compared as the drop rule compares
        if seg_hi - flo > MIN_KNOT_GAP and float(end) - float(out_knots[-1]) > MIN_KNOT_GAP:
            out_pieces.append(p)
            out_knots.append(end)
    out_knots[-1] = hi
    return out_knots, out_pieces


def to_class(unit: Callable[[], PiecewisePoly], n: int, a: float, b: float) -> Optional[PiecewisePoly]:
    """The unit-class spline f = unit() mapped to the (a, b) class of order n:
    a f(lam t) with lam^n = b/a, and f itself at (1, 1). None, with unit never
    called, unless a, b and b/a are in the normal float range, where the image
    keeps the bits of its values (of size a), of its n-th derivative (of size b)
    and of its scaled lam^m t^m terms. None also where a c_m lam^m falls below
    that range, or a `_reach` of the image at an order m <= n reaches a quarter
    of it: a check adds two, or takes one value from another."""
    if not (min(a, b, b / a) >= sys.float_info.min and b / a < math.inf):
        return None
    f = unit()
    if (a, b) != (1, 1):
        lam = math.sqrt(b / a) if n == 2 else (b / a) ** (1 / n)
        # transform forms c_m lam^m before it multiplies by a
        if any(0 < abs(c) * lam**m < sys.float_info.min for p in f.pieces for m, c in enumerate(p.coeffs)):
            return None
        f = transform(f, mu=a, lam=lam)
    ends = zip(f.pieces, f._fknots, f._fknots[1:])
    fits = all(_reach(max(-lo, hi), m, p) < sys.float_info.max / 4 for p, lo, hi in ends for m in range(n + 1))
    return f if fits else None


def _local_piece(p: Poly, lo: Real, hi: Real) -> Tuple[tuple, int]:
    """The piece p on [lo, hi] (exact) in its local Taylor form P(u) = p(lo + u)
    on [0, L], L = hi - lo, up to sign, as (key, sign): sign * P = sum g_m u^m / den
    with integers g_m and den > 0 without a common factor and the top g_m
    positive, and key = (g, den, numerator and denominator of L), integers all,
    cheap to hash. Pieces with one key are translates of one polynomial or of
    its negative on intervals of one length."""
    f, scale = _roots._cleared(p)
    length = hi - lo
    if not f:
        return ((), 1, length.numerator, length.denominator), 1
    num, lo_den = lo.numerator, lo.denominator
    # lo_den^deg f(lo + u / lo_den) = sum h_m u^m, so scale lo_den^deg p(lo + u) = sum h_m lo_den^m u^m
    g = [h * lo_den**m for m, h in enumerate(_roots._taylor_shift(f, num, lo_den))]
    den = scale * lo_den ** (len(f) - 1)
    common = math.gcd(den, *g)
    sign = 1 if g[-1] > 0 else -1
    return (tuple(sign * c // common for c in g), den // common, length.numerator, length.denominator), sign


def _join_gaps(left: tuple, rel: int, right: tuple, n: int) -> List[Tuple[int, float]]:
    """(m, m! |D_m|) for each order m < n with D_m != 0, D_m the m-th Taylor
    coefficient of left - right at the knot between two exact pieces given by
    the keys of their local forms (`_local_piece`) and rel, the product of
    their signs. Up to the sign of the left form, D_m is the coefficient of
    the left form at its own length L (one Taylor shift) less rel times that
    of the right form at 0."""
    g, den, length_num, length_den = left
    h, r, r_den = _roots._taylor_shift(g, length_num, length_den), right[0], right[1]
    # the left form at L + v is sum h_m length_den^m v^m / w (deg 0 for the zero form); D_m = +-d_m / (w r_den)
    w = length_den ** max(len(g) - 1, 0) * den
    d = [hm * length_den**m * r_den - rel * rm * w for m, (hm, rm) in enumerate(zip_longest(h, r, fillvalue=0))]
    # rounded once, inf past the float range
    return [(m, _float(Fraction(abs(dm) * math.factorial(m), w * r_den))) for m, dm in enumerate(d[:n]) if dm]


def _piece_roots(p: Poly, lo: float, hi: float) -> List[float]:
    """The float roots of p in [lo, hi]; none when p is zero."""
    return [] if p.is_zero() else _roots.real_roots_float(p, lo, hi)


def _float_peaks(p: Poly, lo: float, hi: float) -> List[float]:
    """Where |p| (float coefficients) can peak on [lo, hi]: the ends and the
    real roots of p' inside, polished by Newton."""
    dp = p.derivative()
    return [lo, hi] + [_roots.polish_float_root(dp, r, lo, hi) for r in _piece_roots(dp, lo, hi)]


def _within_allowance(x: float, limit: float, lo: Real, hi: Real, *polys: Poly, order: int = 0) -> bool:
    """x <= limit, or x <= limit + EVAL_ULPS times the finite `_reach` of the
    polys at the end t of [lo, hi] of largest |t|. This bounds the rounding of
    float p^(order)(t) in global coordinates (Higham, Accuracy and Stability of
    Numerical Algorithms, 5.1), with its underflow term: a coefficient or
    Horner product below the normal range is off by up to 2^-1074 absolutely,
    and the error of c_m reaches p^(order)(t) times the order-th derivative of t^m."""
    if x <= limit:
        return True
    extra = _reach(max(abs(float(lo)), abs(float(hi))), order, *polys)
    return math.isfinite(extra) and x <= limit + EVAL_ULPS * extra


def _reach(t: float, order: int, *polys: Poly) -> float:
    """The sum over the polys p of (deg p - order + 1) * P^(order)(t), P = sum
    (|c_m| + UNDERFLOW) t^m, by Horner: inf past the float range, no OverflowError."""
    extra = 0.0
    for p in polys:
        acc = 0.0
        for m in range(p.degree, order - 1, -1):
            acc = acc * t + (abs(float(p.coeffs[m])) + UNDERFLOW) * math.perm(m, order)
        extra += (p.degree - order + 1) * acc
    return extra


def _touches(p: Poly, x: float, sign: int, a: float, lo: Real, hi: Real) -> bool:
    """Float p(x) = sign * a within 10 * REL_TOL * a plus the evaluation allowance of p."""
    return _within_allowance(abs(p(x) - sign * a), 10 * REL_TOL * a, lo, hi, p)


def piece_sup(p: Poly, lo: Real, hi: Real, exact: bool) -> Real:
    """sup of |p| on [lo, hi] by critical-point enumeration (root isolation
    of p'): a float, or in exact mode a Fraction read at the ends of the
    brackets of irrational critical points (`_roots.real_roots_exact`), which
    can fall short of the sup. So no verdict reads this value: the exact
    verdict comes from the root search of P -/+ a (`_local_contacts`), and
    the pass over the pieces reads it from the local form only to word a
    refused piece (`_local_sup`)."""
    if not exact:
        pf = p.to_float()
        return max(abs(pf(x)) for x in _float_peaks(pf, float(lo), float(hi)))
    candidates = [abs(p(lo)), abs(p(hi))]
    for r in _roots.real_roots_exact(p.derivative(), Fraction(lo), Fraction(hi)):
        candidates.extend(abs(p(x)) for x in r.bracket)  # (x, x) at a rational root
    return max(candidates)


def abs_integral(p: Poly, lo: Real, hi: Real, exact: bool) -> float:
    """Integral of |p| over [lo, hi]: split at the roots of p inside the
    interval and integrate the polynomial in between. In exact mode the
    exact antiderivative is read at the exact cuts (an irrational root at the
    midpoint of its bracket) and the sum rounded once."""
    if not exact:
        flo, fhi = float(lo), float(hi)
        cuts = [flo] + [r for r in _piece_roots(p, flo, fhi) if flo < r < fhi] + [fhi]
        anti = p.antiderivative().to_float()
        return sum((abs(anti(v) - anti(u)) for u, v in zip(cuts, cuts[1:])), 0.0)
    lo, hi = Fraction(lo), Fraction(hi)
    cuts = [lo, *(sum(r.bracket) / 2 for r in _roots.real_roots_exact(p, lo, hi) if r.exact not in (lo, hi)), hi]
    f, scale = _roots._cleared(p)
    # scale * top times the antiderivative of p has integer coefficients, top = lcm(1 .. deg + 1)
    top = math.lcm(*range(1, len(f) + 1))
    anti = [0] + [c * (top // (m + 1)) for m, c in enumerate(f)]
    # anti(x) = v / w at x = . / d: v = d^deg anti(x), w = d^deg
    ends = [(_roots._values([anti], x.numerator, x.denominator)[0], x.denominator ** (len(anti) - 1)) for x in cuts]
    num, den = 0, 1  # the sum of |anti(y) - anti(x)| over the cuts x < y, as num / den
    for (v0, w0), (v1, w1) in zip(ends, ends[1:]):
        num, den = num * w0 * w1 + abs(v1 * w0 - v0 * w1) * den, den * w0 * w1
    return num / (den * scale * top)  # one int division, rounded as Fraction.__float__ rounds


def total_variation(f: PiecewisePoly) -> float:
    """Integral of |f'| over the domain, piece by piece."""
    exact = f.is_exact()
    return sum(
        abs_integral(p.derivative(), lo, hi, exact)
        for p, lo, hi in zip(f.pieces, f.knots, f.knots[1:])
    )


# -- membership and the extreme-point certificate ---------------------------


_KINDS = ("degree", "join", "nth-derivative", "sup")  # of a violation, in the order of a report


class Violation(NamedTuple):
    kind: str  # one of _KINDS
    where: float
    detail: str


class MembershipReport(NamedTuple):
    ok: bool
    numeric: bool
    violations: Tuple[Violation, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


class ContactPoint(NamedTuple):
    t: float
    sign: int  # +1 where f = +a, -1 where f = -a
    multiplicity: int


class ContactInterval(NamedTuple):
    lo: float
    hi: float
    sign: int


class ExtremeVerdict(NamedTuple):
    is_extreme: bool
    contact_points: Tuple[ContactPoint, ...]
    contact_intervals: Tuple[ContactInterval, ...]
    multiplicity_sum: float  # int, or math.inf when a contact interval exists
    condition_ii_violations: Tuple[int, ...]  # piece indices
    numeric: bool


def membership(f: PiecewisePoly, n: int, a: Real, b: Real) -> MembershipReport:
    """Check the class conditions: C^(n-1) joins at the knots, degree <= n per
    piece, sup |f| <= a, and |f^(n)| <= b (a constant on each piece)."""
    return _check_pieces(f, n, a, b, certificate=False)[0]


def require_member(f: PiecewisePoly, n: int, a: Real, b: Real) -> MembershipReport:
    report = membership(f, n, a, b)
    if not report.ok:
        raise MembershipError(report)
    return report


def is_extreme_point(f: PiecewisePoly, n: int, a: Real, b: Real) -> ExtremeVerdict:
    """Certify whether f is an extreme point of the convex class: the contact
    multiplicities (order of the first nonvanishing derivative, capped at n)
    must sum to at least n, and every piece that is not itself a contact
    interval must have |f^(n)| equal to b (bang-bang). The class is checked in
    the same pass that finds the contacts; a non-member raises
    MembershipError with the report `membership` gives."""
    report, points, intervals, off = _check_pieces(f, n, a, b, certificate=True)
    if not report.ok:
        raise MembershipError(report)
    msum: float = math.inf if intervals else sum(cp.multiplicity for cp in points)
    return ExtremeVerdict(msum >= n and not off, tuple(points), tuple(intervals), msum, tuple(off), report.numeric)


def _nth_derivative_abs(p: Poly, n: int) -> Real:
    """|p^(n)| = n! |c_n|, a constant; 0 below degree n (with no n! computed)."""
    return abs(p.coeffs[n] * math.factorial(n)) if p.degree >= n else 0


def _float(x: Real) -> float:
    """float(x), or +-inf for an exact x past the float range, as float arithmetic words it."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _float_join_gaps(left: Poly, right: Poly, t: Real, n: int, fa: float, fb: float) -> List[Tuple[int, float]]:
    """(m, |left^(m)(t) - right^(m)(t)|) for each order m < n at which two float
    pieces part at the knot t by more than REL_TOL * the scale of f^(m) and their allowance."""
    gaps = []
    dl, dr = left, right
    for order in range(min(n, max(left.degree, right.degree) + 1)):  # higher orders vanish on both sides
        if order:
            dl, dr = dl.derivative(), dr.derivative()
        gap = abs(_float(dl(t) - dr(t)))
        scale = fa ** (1 - order / n) * fb ** (order / n)
        if not _within_allowance(gap, REL_TOL * scale, t, t, left, right, order=order):
            gaps.append((order, gap))
    return gaps


def _check_pieces(f: PiecewisePoly, n: int, a: Real, b: Real, certificate: bool
                  ) -> Tuple[MembershipReport, List[ContactPoint], List[ContactInterval], List[int]]:
    """One pass over the pieces of f, each checked for its degree, its join with
    the piece before, |f^(n)| <= b and |f| <= a: the membership report (by kind
    in that order, each kind in piece order) and, while no violation is found
    and certificate is set, the contact points and intervals and the pieces that
    break condition (ii) of `is_extreme_point`. Exact searches run once per
    local form and sign, join key or form in a call."""
    if n < 1:
        raise ValueError("order n must be >= 1")
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise ValueError("bounds a and b must be positive and finite")
    fa, fb = float(a), float(b)
    if exact := f.is_exact():  # each memo keyed by integers: no Fraction hashed
        a, b = Fraction(a), Fraction(b)
        join_gaps, local_sup = functools.cache(_join_gaps), functools.cache(_local_sup)
        search = functools.cache(functools.partial(_local_contacts, a=a))
    violations: List[Violation] = []
    points, intervals, off = [], [], []  # the certificate's

    form = None
    for i, (p, lo, hi) in enumerate(zip(f.pieces, f.knots, f.knots[1:])):
        if p.degree > n:
            violations.append(Violation("degree", float(lo), f"piece {i} has degree {p.degree} > {n}"))
        prev, form = form, _local_piece(p, lo, hi) if exact else None
        if i:
            gaps = join_gaps(prev[0], prev[1] * form[1], form[0], n) if exact else \
                _float_join_gaps(f.pieces[i - 1], p, lo, n, fa, fb)
            violations += (Violation("join", float(lo), f"order-{m} mismatch at knot {i}: gap {gap:.3e}")
                           for m, gap in gaps)
        dn = _nth_derivative_abs(p, n)
        # written as "not <=" so that a NaN counts as a violation
        if not (dn <= b if exact else _within_allowance(_float(dn), fb * (1 + REL_TOL), lo, hi, p, order=n)):
            violations.append(Violation("nth-derivative", float(lo), f"|f^({n})| = {_float(dn)} > {fb} on piece {i}"))
        if exact:  # |P| <= a iff P <= a and -P <= a, the same for -P
            key, flip = form
            member = search(key, 1)[0] and search(key, -1)[0]
        else:
            pf = p.to_float()
            peaks = _float_peaks(pf, float(lo), float(hi))
            member = _within_allowance(sup := max(abs(pf(x)) for x in peaks), fa * (1 + REL_TOL), lo, hi, p)
        if not member:
            sup = local_sup(key) if exact else sup
            violations.append(Violation("sup", float(lo), f"sup |f| = {_float(sup)} > {fa} on piece {i}"))
        if not certificate or violations:
            continue

        before = len(intervals)
        for sign in (1, -1):
            if exact:  # p = sign a where flip * sign P = a, P the local form of the key
                roots = search(key, flip * sign)[1]
                if roots is not None:
                    lo_num, lo_den = lo.numerator, lo.denominator
                    # float(lo + u) for u = u_num / u_den, one int division rounded as Fraction.__float__ rounds
                    points.extend(ContactPoint((lo_num * u_den + u_num * lo_den) / (lo_den * u_den), sign,
                                               min(m, n)) for u_num, u_den, m in roots)
                    continue
            elif not all(_within_allowance(abs(pf(x) - sign * fa), REL_TOL * fa, lo, hi, pf) for x in peaks):
                for x in peaks:
                    if _touches(pf, x, sign, fa, lo, hi):
                        # p^(j)(x) = 0 within its own evaluation allowance
                        m, d = n, pf
                        for j in range(1, min(n, pf.degree + 1)):
                            d = d.derivative()
                            if not _within_allowance(abs(d(x)), 0.0, lo, hi, pf, order=j):
                                m = j
                                break
                        points.append(ContactPoint(x, sign, m))
                continue
            # p = sign a on the whole piece: as a polynomial (exact), or at every place where it can peak
            intervals.append(ContactInterval(float(lo), float(hi), sign))
        # condition (ii) exempts exactly a piece that is a contact interval itself
        if len(intervals) == before and ((dn != b) if exact else not _within_allowance(
                abs(_float(dn) - fb), REL_TOL * fb, lo, hi, p, order=n)):
            off.append(i)

    if violations or not certificate:
        violations.sort(key=lambda v: _KINDS.index(v.kind))  # stable: each kind stays in piece order
        return MembershipReport(not violations, not exact, tuple(violations)), [], [], []

    # merge adjacent contact intervals of equal sign, found in piece order
    merged: List[ContactInterval] = []
    for iv in intervals:
        if merged and iv.sign == merged[-1].sign and iv.lo <= merged[-1].hi:
            merged[-1] = ContactInterval(merged[-1].lo, max(merged[-1].hi, iv.hi), iv.sign)
        else:
            merged.append(iv)

    # dedupe points (shared knots are seen from both sides, and a float
    # tangential contact next to a knot may be found in both pieces) and drop
    # points swallowed by a contact interval
    window = REL_TOL * f.length
    points.sort(key=lambda cp: cp.t)
    deduped: List[ContactPoint] = []
    for cp in points:
        if any(iv.lo - window <= cp.t <= iv.hi + window for iv in merged):
            continue
        mid = (cp.t + deduped[-1].t) / 2 if deduped else cp.t
        j = f.piece_index(mid)
        if deduped and (abs(cp.t - deduped[-1].t) <= window or (
            not exact and cp.sign == deduped[-1].sign
            and _touches(f.pieces[j], mid, cp.sign, fa, f.knots[j], f.knots[j + 1])
        )):
            if cp.multiplicity > deduped[-1].multiplicity:
                deduped[-1] = cp
            continue
        deduped.append(cp)
    return MembershipReport(True, not exact, ()), deduped, merged, off


def _local_contacts(key: tuple, sign: int, a: Fraction) -> Tuple[bool, Optional[List[Tuple[int, int, int]]]]:
    """Whether sign P <= a on [0, L], for the local piece P and length L of key
    (`_local_piece`), and the roots of sign P - a there, each (numerator,
    denominator, multiplicity) of the root or of the midpoint of its bracket;
    None for the roots when sign P = a. The search on [0, L] bisects at the
    points of the search on [lo, lo + L] less lo, so lo + u gives the same
    brackets."""
    g, den, length_num, length_den = key
    # q = a.denominator * den * (sign P - a), a positive multiple of sign P - a
    q = [sign * a.denominator * c for c in g] or [0]
    q[0] -= a.numerator * den
    q, length = Poly(q), Fraction(length_num, length_den)
    if q.is_zero():
        return True, None
    roots = _roots.real_roots_exact(q, 0, length)
    # q <= 0: its first nonzero Taylor coefficient at 0 is negative (q < 0 just
    # right of 0), and no root of odd multiplicity (a sign change) lies inside
    ok = next(c for c in q.coeffs if c) < 0 and all(r.multiplicity % 2 == 0 or r.exact in (0, length) for r in roots)
    mids = [sum(r.bracket) / 2 for r in roots]  # the root itself when rational
    return ok, [(u.numerator, u.denominator, r.multiplicity) for u, r in zip(mids, roots)]


def _local_sup(key: tuple) -> Fraction:
    """`piece_sup` of the local piece P on [0, L] of key (`_local_piece`), the
    sum of g_m u^m over den. Its search of P' bisects at the points of the
    search of p' on [lo, lo + L] less lo, so it is the rational that
    `piece_sup` reads from p on [lo, lo + L]."""
    g, den, length_num, length_den = key
    return Fraction(piece_sup(Poly(g), 0, Fraction(length_num, length_den), True), den)
