"""Closed-form solutions of the order-2 extremal problems: the sup-norm of f'
over a segment, half-line and the whole line, the pointwise supremum of
f'(t0), the comparison parabola train q, prolongation constructors, line
extendability, and the total-variation supremum sigma_1.

Every exact value comes with an extremal witness spline that passes the
membership check and attains the value at the reported point, unless the
witness would have knots closer than MIN_KNOT_GAP (a segment of length about
1e-12, or a, b so far apart that the scaling collapses); the value is then
returned without one.  General (a, b) queries are reduced to the unit class
by f(t) = a * f_unit(t * sqrt(b/a)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from .bounds import EXACT, INTERVAL, BoundResult, Domain, _FullLineType, _HalfLineType
from .exactnum import Poly, Real
from .landaun import kolmogorov_bound
from .pwpoly import (
    MIN_KNOT_GAP,
    PiecewisePoly,
    StructuralError,
    require_member,
    transform,
)

SQRT2 = math.sqrt(2.0)
_EDGE = 1e-9


# -- the two elementary functions behind the pointwise problem -------------


def phi(x: float) -> float:
    """sqrt(2 x^2 + 4) - x; decreasing to sqrt(2) at x = sqrt(2), then rising."""
    if x < 0:
        raise ValueError(f"phi needs x >= 0, got {x}")
    return math.sqrt(2 * x * x + 4) - x


def G(x: float, y: float) -> float:
    """2/(x+y) + (x^2+y^2)/(2(x+y)); symmetric, with G(x, phi(x)) = phi(x)."""
    if x < 0 or y < 0 or x + y <= 0:
        raise ValueError(f"G needs x, y >= 0 with x + y > 0, got ({x}, {y})")
    return 2 / (x + y) + (x * x + y * y) / (2 * (x + y))


# -- the comparison function q ----------------------------------------------


def q_eval(t: float) -> Tuple[float, float]:
    """(q(t), q'(t)) for the 4*sqrt(2)-periodic parabola train with
    q = 1 - t^2/2 near 0 and q(t + 2 sqrt(2)) = -q(t)."""
    u = math.remainder(t, 4 * SQRT2)
    if abs(u) <= SQRT2:
        return 1 - u * u / 2, -u
    if u > 0:
        s = u - 2 * SQRT2
    else:
        s = u + 2 * SQRT2
    return -(1 - s * s / 2), s


def pointwise_speed_bound(f_val: float) -> float:
    """sqrt(2 (1 - |f|)): the largest speed a unit-class member can have
    while its position is f_val."""
    if abs(f_val) > 1:
        raise ValueError(f"need |f_val| <= 1, got {f_val}")
    return math.sqrt(2 * (1 - abs(f_val)))


def q_train(shift: float, lo: float, hi: float) -> PiecewisePoly:
    """q(t - shift) on [lo, hi] as an explicit spline (float knots)."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    period = 2 * SQRT2
    k_lo = math.floor((lo - shift) / period) - 1
    k_hi = math.ceil((hi - shift) / period) + 1
    knots: List[float] = [lo]
    pieces: List[Poly] = []
    base = Poly([1.0, 0.0, -0.5])
    for k in range(k_lo, k_hi + 1):
        arc_lo = shift + period * k - SQRT2
        arc_hi = shift + period * k + SQRT2
        if arc_hi <= lo + MIN_KNOT_GAP or arc_lo >= hi - MIN_KNOT_GAP:
            continue
        end = min(arc_hi, hi)
        if end <= knots[-1] + MIN_KNOT_GAP:
            continue
        sign = 1.0 if k % 2 == 0 else -1.0
        pieces.append(base.compose_affine(-(shift + period * k), 1.0) * sign)
        knots.append(end)
    knots[-1] = hi
    return PiecewisePoly(knots, pieces, 2)


# -- witnesses for the sup-norm problem -------------------------------------


def _number_type(T: Real) -> type:
    """Fraction for an exact length, float otherwise."""
    return Fraction if isinstance(T, (Fraction, int)) else float


def _ramp_witness_unit(T: Real) -> PiecewisePoly:
    """f = -t^2/2 + (2/T + T/2) t - 1 on [0, T]; member for T <= 2 with the
    maximal initial slope."""
    F = _number_type(T)
    T = F(T)
    return PiecewisePoly([F(0), T], [Poly([F(-1), 2 / T + T / 2, F(-1) / 2])], 2)


def _long_witness_unit(T: Real) -> PiecewisePoly:
    """Rise along -t^2/2 + 2t - 1 for t <= 2, then park at the wall."""
    F = _number_type(T)
    return PiecewisePoly([F(0), F(2), T], [Poly([F(-1), F(2), F(-1) / 2]), Poly([F(1)])], 2)


def _witness(
    unit: Callable[[], PiecewisePoly], a: float, b: float, reflect_at: Optional[float] = None
) -> Optional[PiecewisePoly]:
    """The unit-class witness unit() mapped to the (a, b) class by
    W(t) = a w(t sqrt(b/a)), then reflected onto [0, reflect_at] if given;
    None when a spline on the way has knots closer than MIN_KNOT_GAP, so
    that the bound is still returned."""
    try:
        w = unit()
        if (a, b) != (1, 1):
            w = transform(w, mu=a, lam=math.sqrt(b / a))
        return w if reflect_at is None else transform(w, mu=-1.0, lam=-1.0, t0=reflect_at)
    except StructuralError:
        return None


def sigma_inf_value(a: float, b: float, T: float) -> float:
    """Closed form for the segment sup of |f'|."""
    if not (a > 0 and b > 0 and T > 0):
        raise ValueError("a, b, T must be positive")
    if T <= 2 * math.sqrt(a / b):
        return 2 * a / T + b * T / 2
    return 2 * math.sqrt(a * b)


def sigma_inf(a: float, b: float, domain: Domain) -> BoundResult:
    """sup of |f'| over the class with |f| <= a, |f''| <= b on the domain."""
    if not (a > 0 and b > 0):
        raise ValueError("a and b must be positive")

    if isinstance(domain, _FullLineType):
        value, tag = kolmogorov_bound(2, 1, a, b), "kolmogorov-whole-line"
        unit = _whole_line_witness_unit
    elif isinstance(domain, _HalfLineType):
        value, tag = 2 * math.sqrt(a * b), "half-line-monotone-limit"
        unit = lambda: _long_witness_unit(Fraction(3))  # any length > 2 carries the extremal rise
    else:
        T = domain.T
        t_unit = T * math.sqrt(b / a)
        # the witness for t_unit just above 2 would carry a degenerate flat
        # piece; both branches agree to O((t_unit - 2)^2) there
        if t_unit <= 2 + _EDGE:
            value, tag = 2 * a / T + b * T / 2, "segment-short-closed-form"
            unit = (lambda: _ramp_witness_unit(t_unit)) if T > _EDGE else None
        else:
            value, tag = 2 * math.sqrt(a * b), "segment-long-closed-form"
            unit = lambda: _long_witness_unit(t_unit)
    witness = _witness(unit, a, b) if unit else None
    return BoundResult(value, EXACT, tag, witness=witness, witness_point=None if witness is None else 0.0)


def _whole_line_witness_unit() -> PiecewisePoly:
    """One arc of the comparison train on [0, 2 sqrt(2)]."""
    return PiecewisePoly([0.0, 2 * SQRT2], [Poly([1.0, 0.0, -0.5]).compose_affine(-SQRT2, 1.0)], 2)


# -- the pointwise problem ---------------------------------------------------


@dataclass(frozen=True)
class PointwiseQuery:
    t0: float
    T: float
    a: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0 and self.T > 0):
            raise ValueError("a, b, T must be positive")
        if not 0 <= self.t0 <= self.T:
            raise ValueError(f"t0={self.t0} outside [0, {self.T}]")


def _two_contact_witness_unit(t0: float, T: float) -> PiecewisePoly:
    """Bang-bang rise from (0, -1) to (T, +1) with maximal slope at t0;
    requires the slope C = G(t0, T - t0) to dominate max(t0, T - t0)."""
    C = G(t0, T - t0)
    left = Poly([-1.0, C - t0, 0.5])
    right = Poly([1.0, C - (T - t0), -0.5]).compose_affine(-T, 1.0)
    if t0 <= MIN_KNOT_GAP:
        return PiecewisePoly([0.0, T], [right], 2)
    if t0 >= T - MIN_KNOT_GAP:
        return PiecewisePoly([0.0, T], [left], 2)
    return PiecewisePoly([0.0, t0, T], [left, right], 2)


def _free_end_witness_unit(t0: float, T: float) -> PiecewisePoly:
    """Rise from (0, -1), peak at t0 + phi(t0), then park at the wall."""
    p = phi(t0)
    knots: List[float] = [0.0]
    pieces: List[Poly] = []
    if t0 > MIN_KNOT_GAP:
        pieces.append(Poly([-1.0, p - t0, 0.5]))
        knots.append(t0)
    pieces.append(Poly([1.0, 0.0, -0.5]).compose_affine(-(t0 + p), 1.0))
    knots.append(t0 + p)
    if T > t0 + p + MIN_KNOT_GAP:
        pieces.append(Poly([1.0]))
        knots.append(T)
    else:
        knots[-1] = T
    return PiecewisePoly(knots, pieces, 2)


def _sigma_pointwise_unit(
    t0: float, T: float
) -> Tuple[float, str, Callable[[], PiecewisePoly]]:
    """Value, branch tag and witness builder for the unit class, assuming
    t0 <= T/2."""
    if t0 > SQRT2:
        return SQRT2, "pointwise-interior-comparison", lambda: q_train(t0 + SQRT2, 0.0, T)
    if T <= t0 + phi(t0) + _EDGE:
        value = G(t0, T - t0)
        return value, "pointwise-short-segment", lambda: _two_contact_witness_unit(t0, T)
    return phi(t0), "pointwise-free-end", lambda: _free_end_witness_unit(t0, T)


def sigma_pointwise(query: PointwiseQuery) -> BoundResult:
    """sup of f'(t0) (equivalently |f'(t0)|) over the segment class."""
    a, b, T, t0 = query.a, query.b, query.T, query.t0
    scale = math.sqrt(b / a)
    t0_unit, t_unit = t0 * scale, T * scale
    reflected = t0_unit > t_unit / 2
    if reflected:
        t0_unit = t_unit - t0_unit
    value_unit, tag, unit = _sigma_pointwise_unit(t0_unit, t_unit)
    witness = _witness(unit, a, b, reflect_at=T if reflected else None)
    return BoundResult(
        value_unit * math.sqrt(a * b),
        EXACT,
        tag,
        witness=witness,
        witness_point=None if witness is None else t0,
    )


# -- prolongations and extendability ----------------------------------------


def _endpoint_state(f: PiecewisePoly, at_start: bool) -> Tuple[float, float]:
    t = f.t_start if at_start else f.t_end
    return float(f(t)), float(f.deriv_value(t, 1))


def extendable_to_line(f: PiecewisePoly, tol: float = _EDGE) -> bool:
    """Criterion at the two endpoints only: |f'| <= sqrt(2 (1 - |f|))."""
    for at_start in (True, False):
        v, d = _endpoint_state(f, at_start)
        if d * d > 2 * (1 - abs(v)) + tol:
            return False
    return True


def extend_to_line(f: PiecewisePoly, pad: float = 1.0) -> PiecewisePoly:
    """Extend a member of the unit class to a compact-derivative member on an
    enlarged segment: decelerating parabolas at both ends, then constants."""
    require_member(f, 2, 1, 1)
    if not extendable_to_line(f):
        raise ValueError(
            "not extendable: an endpoint violates |f'| <= sqrt(2 (1 - |f|))"
        )
    v0, d0 = _endpoint_state(f, True)
    v1, d1 = _endpoint_state(f, False)
    t0, t1 = float(f.t_start), float(f.t_end)

    knots: List[float] = []
    pieces: List[Poly] = []

    s0 = 1.0 if d0 > 0 else -1.0
    left_flat = v0 - s0 * d0 * d0 / 2
    knots.append(t0 - abs(d0) - pad)
    pieces.append(Poly([left_flat]))
    if abs(d0) > MIN_KNOT_GAP:
        knots.append(t0 - abs(d0))
        pieces.append(Poly([v0, d0, s0 / 2]).compose_affine(-t0, 1.0))
    knots.append(t0)

    pieces.extend(p.to_float() for p in f.pieces)
    knots.extend(float(k) for k in f.knots[1:])

    s1 = 1.0 if d1 > 0 else -1.0
    if abs(d1) > MIN_KNOT_GAP:
        pieces.append(Poly([v1, d1, -s1 / 2]).compose_affine(-t1, 1.0))
        knots.append(t1 + abs(d1))
    pieces.append(Poly([v1 + s1 * d1 * d1 / 2]))
    knots.append(t1 + abs(d1) + pad)

    return PiecewisePoly(knots, pieces, 2)


def prolong_affine(f: PiecewisePoly, h: float, epsilon: float, theta: float) -> PiecewisePoly:
    """Append an affine-plus-parabola tail to (1 - epsilon) f; the step bound
    h <= epsilon / (|theta| + sigma_inf(T)) keeps the tail inside the walls."""
    if not 0 < epsilon <= 1:
        raise ValueError(f"need 0 < epsilon <= 1, got epsilon={epsilon}")
    if abs(theta) > 1:
        raise ValueError(f"need |theta| <= 1, got theta={theta}")
    T = f.length
    cap = epsilon / (abs(theta) + sigma_inf_value(1, 1, T))
    if not 0 < h <= cap:
        raise ValueError(f"need 0 < h <= epsilon/(|theta| + sigma_inf(T)) = {cap}, got h={h}")
    require_member(f, 2, 1, 1)
    v, d = _endpoint_state(f, False)
    t1 = float(f.t_end)
    tail = Poly([(1 - epsilon) * v, (1 - epsilon) * d, theta / 2]).compose_affine(-t1, 1.0)
    knots = [float(k) for k in f.knots] + [t1 + h]
    pieces = [p.to_float() * (1 - epsilon) for p in f.pieces] + [tail]
    return PiecewisePoly(knots, pieces, 2)


def insert_bump(f: PiecewisePoly, t0: float, h: float, tol: float = _EDGE) -> PiecewisePoly:
    """Splice a double-parabola bump of height h^2/16 at a stationary point
    t0; the output lives on [start, end + h] and its total variation exceeds
    the input's by exactly h^2/8."""
    require_member(f, 2, 1, 1)
    start, end = float(f.t_start), float(f.t_end)
    if not start <= t0 < end:
        raise ValueError(f"need t0 in [{start}, {end}), got {t0}")
    v = float(f(t0))
    d = float(f.deriv_value(t0, 1))
    if abs(d) > tol:
        raise ValueError(f"need f'(t0) = 0, got f'({t0}) = {d}")
    if not v < 1:
        raise ValueError(f"need f(t0) < 1, got f(t0) = {v}")
    cap = 4 * math.sqrt(1 - v)
    if not 0 < h <= cap:
        raise ValueError(f"need 0 < h <= 4 sqrt(1 - f(t0)) = {cap}, got h={h}")

    knots: List[float] = []
    pieces: List[Poly] = []
    if t0 > start + MIN_KNOT_GAP:
        head = f.restrict(f.t_start, t0)
        knots.extend(float(k) for k in head.knots[:-1])
        pieces.extend(p.to_float() for p in head.pieces)
    knots.append(t0)

    pieces.append(Poly([v, 0.0, 0.5]).compose_affine(-t0, 1.0))
    knots.append(t0 + h / 4)
    pieces.append(Poly([v + h * h / 16, 0.0, -0.5]).compose_affine(-(t0 + h / 2), 1.0))
    knots.append(t0 + 3 * h / 4)
    pieces.append(Poly([v, 0.0, 0.5]).compose_affine(-(t0 + h), 1.0))
    knots.append(t0 + h)

    tail = f.restrict(t0, f.t_end) if t0 > start + MIN_KNOT_GAP else f
    for k, p in zip(tail.knots[1:], tail.pieces):
        pieces.append(p.to_float().compose_affine(-h, 1.0))
        knots.append(float(k) + h)
    return PiecewisePoly(knots, pieces, 2)


# -- the total-variation problem sigma_1 ------------------------------------


Sigma1Result = BoundResult  # provenance 'T<=2' | '2<=T<=4' | 'lattice' | 'encadrement' | 'subadditive'


_LATTICE_STEP = 2 * SQRT2


def _lattice_index(T: float, tol: float = _EDGE) -> Optional[int]:
    """N >= 0 with T = 2 N sqrt(2) + 4, if T sits on the lattice."""
    if T < 4 - tol:
        return None
    N = round((T - 4) / _LATTICE_STEP)
    if N >= 0 and abs(T - (N * _LATTICE_STEP + 4)) <= tol:
        return N
    return None


def _sigma1_exact_unit(T: float) -> Optional[float]:
    if T <= 0:
        return 0.0
    if T <= 2:
        return 2.0
    if T <= 4:
        return T * T / 2 - 2 * T + 4
    N = _lattice_index(T)
    if N is not None:
        return 2.0 * N + 4
    return None


_SPLITS = [0.5 * i for i in range(1, 9)]  # exact blocks of length 0.5 .. 4


def _sigma1_upper_unit(T: float, depth: int = 2) -> float:
    ex = _sigma1_exact_unit(T)
    if ex is not None:
        return ex
    cands = [T + 2, T / SQRT2 + 5]
    if depth > 0:
        if T >= 1:
            cands.append(2 * _sigma1_upper_unit(T / 2, depth - 1))
        for s in _SPLITS:
            if s < T:
                cands.append(_sigma1_exact_unit(s) + _sigma1_upper_unit(T - s, depth - 1))
        N = 1
        while N * _LATTICE_STEP + 4 <= T:
            block = N * _LATTICE_STEP + 4
            cands.append(2 * N + 4 + _sigma1_upper_unit(T - block, depth - 1))
            N += 1
    return min(cands)


def _sigma1_lower_unit(T: float) -> float:
    lo = T / SQRT2
    if T >= 4:
        lo = max(lo, 4.0)
        N = math.floor((T - 4) / _LATTICE_STEP)
        if N >= 0:
            lo = max(lo, 2.0 * N + 4)
    elif T >= 2:
        lo = max(lo, _sigma1_exact_unit(T))
    return lo


def _tau_witness_unit(T: float) -> PiecewisePoly:
    """tau = -1 + (2/T - T/2) t + t^2/2: monotone crossing for T <= 2."""
    return PiecewisePoly([0.0, T], [Poly([-1.0, 2 / T - T / 2, 0.5])], 2)


def _parabola_witness_unit(T: float) -> PiecewisePoly:
    """-1 + (t-2)^2/2 on [0, T]: one full descent-and-rise for 2 <= T <= 4."""
    return PiecewisePoly([0.0, T], [Poly([-1.0, 0.0, 0.5]).compose_affine(-2.0, 1.0)], 2)


def lattice_witness_unit(N: int) -> PiecewisePoly:
    """Wall-to-wall rise, N antiperiods of the comparison train, then a final
    wall-to-wall arc; total variation 2N + 4 on [0, 2 N sqrt(2) + 4]."""
    if N < 0:
        raise ValueError("N must be >= 0")
    T = N * _LATTICE_STEP + 4
    knots: List[float] = [0.0]
    pieces: List[Poly] = [Poly([1.0, 0.0, -0.5]).compose_affine(-2.0, 1.0)]
    if N == 0:
        knots.append(4.0)
        return PiecewisePoly(knots, pieces, 2)
    train = q_train(2.0, 2.0, N * _LATTICE_STEP + 2.0)
    knots.extend(float(k) for k in train.knots)  # train knots start at 2.0
    pieces.extend(train.pieces)
    sign = 1.0 if N % 2 == 0 else -1.0
    pieces.append(Poly([sign, 0.0, -sign * 0.5]).compose_affine(-(N * _LATTICE_STEP + 2.0), 1.0))
    knots.append(T)
    return PiecewisePoly(knots, pieces, 2)


def _sigma1_exact(v: float, provenance: str, witness: Optional[PiecewisePoly] = None) -> BoundResult:
    return BoundResult(v, EXACT, provenance, lower=v, upper=v, witness=witness)


def sigma1(a: float, b: float, T: float) -> BoundResult:
    """sup of the total variation of f over [0, T] for the (a, b) class;
    exact in three regimes, a certified interval [lower, upper] elsewhere."""
    if not (a > 0 and b > 0):
        raise ValueError("a and b must be positive")
    if not 0 <= T < math.inf:
        raise ValueError(f"T must be nonnegative and finite, got {T}")
    if T == 0:
        return _sigma1_exact(0.0, "T<=2")
    t_unit = T * math.sqrt(b / a)

    if t_unit <= 2:
        witness = _witness(lambda: _tau_witness_unit(t_unit), a, b) if T > _EDGE else None
        return _sigma1_exact(2 * a, "T<=2", witness)
    N = _lattice_index(t_unit)
    if t_unit <= 4 and N is None:
        v = a * _sigma1_exact_unit(t_unit)
        return _sigma1_exact(v, "2<=T<=4", _witness(lambda: _parabola_witness_unit(t_unit), a, b))
    if N is not None:
        v = a * (2 * N + 4)
        return _sigma1_exact(v, "lattice", _witness(lambda: lattice_witness_unit(N), a, b))

    lower = a * _sigma1_lower_unit(t_unit)
    upper = a * _sigma1_upper_unit(t_unit)
    plain = a * (t_unit / SQRT2 + 5)
    provenance = "subadditive" if upper < plain - 1e-12 else "encadrement"
    return BoundResult(upper, INTERVAL, provenance, lower=lower, upper=upper)
