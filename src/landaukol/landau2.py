"""Closed-form solutions of the order-2 extremal problems: the sup-norm of f'
over a segment, half-line and the whole line, the pointwise supremum of
f'(t0), the comparison parabola train q, prolongation constructors, line
extendability, and the total-variation supremum sigma_1.

Every exact value comes with a builder of an extremal witness spline, which
`BoundResult.witness` runs on first access (only then does `pwpoly` load);
the spline passes the membership check and attains the value at the reported
point.  Witnesses clip their pieces with `pwpoly.cut`, and the witness is
None when no piece is left (a segment of length about 1e-12, or a, b so far
apart that the scaling collapses), it would need more than MAX_ARCS
comparison arcs, or the scaling of `pwpoly.to_class` leaves the float range,
which is decided before the unit-class witness is built.  General (a, b)
queries are reduced to the unit class by f(t) = a * f_unit(t * sqrt(b/a)),
with sqrt(b/a) and sqrt(a b) kept in range.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from .bounds import EXACT, INTERVAL, BoundResult, Domain, FullLine, HalfLine, Segment
from .exactnum import Poly, Real
from .landaun import kolmogorov_bound

if TYPE_CHECKING:
    from .pwpoly import PiecewisePoly

SQRT2 = math.sqrt(2.0)
MAX_ARCS = 10**5
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
    from .pwpoly import PiecewisePoly, StructuralError, cut

    if not lo < hi:
        raise ValueError("need lo < hi")
    period = 2 * SQRT2
    # the length first: an infinite train has no integer arc index
    if not (hi - lo) / period <= MAX_ARCS or (
        (k_hi := math.ceil((hi - shift) / period) + 1) - (k_lo := math.floor((lo - shift) / period) - 1) > MAX_ARCS
    ):
        raise StructuralError(f"comparison train on [{lo}, {hi}] has more than {MAX_ARCS} arcs")
    arcs = range(k_lo, k_hi + 1)  # arc k is centred at shift + period k
    knots = [shift + period * k_lo - SQRT2] + [shift + period * k + SQRT2 for k in arcs]
    base = Poly([1.0, 0.0, -0.5])
    pieces = [base.compose_affine(-(shift + period * k), 1.0) * (1.0 if k % 2 == 0 else -1.0) for k in arcs]
    return PiecewisePoly(*cut(knots, pieces, lo, hi), 2)


# -- witnesses for the sup-norm problem -------------------------------------


def _number_type(T: Real) -> type:
    """Fraction for an exact length, float otherwise."""
    return Fraction if isinstance(T, (Fraction, int)) else float


def _ramp_witness_unit(T: float) -> PiecewisePoly:
    """f = -t^2/2 + (2/T + T/2) t - 1 on [0, T]; member for T <= 2 with the
    maximal initial slope."""
    from .pwpoly import PiecewisePoly

    return PiecewisePoly([0.0, T], [Poly([-1.0, 2 / T + T / 2, -0.5])], 2)


def _long_witness_unit(T: Real) -> PiecewisePoly:
    """Rise along -t^2/2 + 2t - 1 for t <= 2, then park at the wall."""
    from .pwpoly import PiecewisePoly

    F = _number_type(T)
    return PiecewisePoly([F(0), F(2), T], [Poly([F(-1), F(2), F(-1) / 2]), Poly([F(1)])], 2)


def _scales(a: float, b: float) -> Tuple[float, float]:
    """(sqrt(b/a), sqrt(a b)) from a, b scaled by even powers of two: the ratio and
    product stay in the float range, and the exact scaling keeps in-range bits."""
    ea, eb = math.frexp(a)[1] // 2 * 2, math.frexp(b)[1] // 2 * 2
    ma, mb = math.ldexp(a, -ea), math.ldexp(b, -eb)
    return math.ldexp(math.sqrt(mb / ma), (eb - ea) // 2), math.ldexp(math.sqrt(ma * mb), (ea + eb) // 2)


def _witness(
    unit: Callable[[], PiecewisePoly], a: float, b: float, reflect_at: Optional[float] = None
) -> Optional[PiecewisePoly]:
    """The unit-class witness unit() mapped to the (a, b) class by
    W(t) = a w(t sqrt(b/a)), then reflected onto [0, reflect_at] if given."""
    from .pwpoly import to_class, transform

    w = to_class(unit, 2, a, b)
    return w if w is None or reflect_at is None else transform(w, mu=-1.0, lam=-1.0, t0=reflect_at)


def sigma_inf_value(a: float, b: float, T: float) -> float:
    """Closed form for the segment sup of |f'|."""
    return sigma_inf(a, b, Segment(T)).value


def sigma_inf(a: float, b: float, domain: Domain) -> BoundResult:
    """sup of |f'| over the class with |f| <= a, |f''| <= b on the domain."""
    if not (a > 0 and b > 0):
        raise ValueError("a and b must be positive")

    if domain is FullLine:
        value, tag = kolmogorov_bound(2, 1, a, b), "kolmogorov-whole-line"
        unit = _whole_line_witness_unit
    elif domain is HalfLine:
        value, tag = 2 * _scales(a, b)[1], "half-line-monotone-limit"
        unit = lambda: _long_witness_unit(Fraction(3))  # any length > 2 carries the extremal rise
    else:
        T = domain.T
        scale, root_ab = _scales(a, b)
        t_unit = T * scale
        # the witness for t_unit just above 2 would carry a degenerate flat
        # piece; both branches agree to O((t_unit - 2)^2) there
        if t_unit <= 2 + _EDGE:
            value, tag = 2 * a / T + b * T / 2, "segment-short-closed-form"
            unit = (lambda: _ramp_witness_unit(t_unit)) if T > _EDGE else None
        else:
            value, tag = 2 * root_ab, "segment-long-closed-form"
            unit = lambda: _long_witness_unit(t_unit)
    build = None if unit is None else lambda: _witness(unit, a, b)
    return BoundResult(value, EXACT, tag, witness_point=0.0, _build=build)


def _whole_line_witness_unit() -> PiecewisePoly:
    """One arc of the comparison train on [0, 2 sqrt(2)]."""
    from .pwpoly import PiecewisePoly

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
    from .pwpoly import PiecewisePoly, cut

    C = G(t0, T - t0)
    left = Poly([-1.0, C - t0, 0.5])
    right = Poly([1.0, C - (T - t0), -0.5]).compose_affine(-T, 1.0)
    return PiecewisePoly(*cut([0.0, t0, T], [left, right], 0.0, T), 2)


def _free_end_witness_unit(t0: float, T: float) -> PiecewisePoly:
    """Rise from (0, -1), peak at t0 + phi(t0), then park at the wall."""
    from .pwpoly import PiecewisePoly, cut

    p = phi(t0)
    pieces = [Poly([-1.0, p - t0, 0.5]), Poly([1.0, 0.0, -0.5]).compose_affine(-(t0 + p), 1.0), Poly([1.0])]
    return PiecewisePoly(*cut([0.0, t0, t0 + p, T], pieces, 0.0, T), 2)


def _sigma_pointwise_unit(t0: float, T: float) -> Tuple[float, str, Callable[[], PiecewisePoly], bool]:
    """Value, branch tag, witness builder for the unit class, and whether the
    witness is to be reflected onto [0, T] (it is built for min(t0, T - t0))."""
    s, reflected = min(t0, T - t0), t0 > T / 2
    if s > SQRT2:
        # q is even with antiperiod 2 sqrt(2), so q(t - t0 - sqrt(2)) has slope
        # sqrt(2) at t0 unreflected; a reflection would cancel terms of size T^2
        return SQRT2, "pointwise-interior-comparison", lambda: q_train(t0 + SQRT2, 0.0, T), False
    if T <= s + phi(s) + _EDGE:
        return G(s, T - s), "pointwise-short-segment", lambda: _two_contact_witness_unit(s, T), reflected
    return phi(s), "pointwise-free-end", lambda: _free_end_witness_unit(s, T), reflected


def sigma_pointwise(query: PointwiseQuery) -> BoundResult:
    """sup of f'(t0) (equivalently |f'(t0)|) over the segment class."""
    a, b, T, t0 = query.a, query.b, query.T, query.t0
    scale, root_ab = _scales(a, b)
    value_unit, tag, unit, reflected = _sigma_pointwise_unit(t0 * scale, T * scale)
    return BoundResult(value_unit * root_ab, EXACT, tag, witness_point=t0,
                       _build=lambda: _witness(unit, a, b, T if reflected else None))


# -- prolongations and extendability ----------------------------------------


def _endpoint_state(f: PiecewisePoly, at_start: bool) -> Tuple[float, float]:
    t = f.t_start if at_start else f.t_end
    return float(f(t)), float(f.deriv_value(t, 1))


def extendable_to_line(f: PiecewisePoly) -> bool:
    """Criterion at the two endpoints only: |f'| <= sqrt(2 (1 - |f|))."""
    for at_start in (True, False):
        v, d = _endpoint_state(f, at_start)
        if d * d > 2 * (1 - abs(v)) + _EDGE:
            return False
    return True


def extend_to_line(f: PiecewisePoly, pad: float = 1.0) -> PiecewisePoly:
    """Extend a member of the unit class to a compact-derivative member on an
    enlarged segment: decelerating parabolas at both ends, then constants."""
    from .pwpoly import PiecewisePoly, cut, require_member

    require_member(f, 2, 1, 1)
    if not extendable_to_line(f):
        raise ValueError(
            "not extendable: an endpoint violates |f'| <= sqrt(2 (1 - |f|))"
        )
    v0, d0 = _endpoint_state(f, True)
    v1, d1 = _endpoint_state(f, False)
    t0, t1 = float(f.t_start), float(f.t_end)

    s0 = 1.0 if d0 > 0 else -1.0
    s1 = 1.0 if d1 > 0 else -1.0
    knots = [t0 - abs(d0) - pad, t0 - abs(d0), *(float(k) for k in f.knots), t1 + abs(d1), t1 + abs(d1) + pad]
    pieces = [Poly([v0 - s0 * d0 * d0 / 2]), Poly([v0, d0, s0 / 2]).compose_affine(-t0, 1.0),
              *(p.to_float() for p in f.pieces),
              Poly([v1, d1, -s1 / 2]).compose_affine(-t1, 1.0), Poly([v1 + s1 * d1 * d1 / 2])]
    return PiecewisePoly(*cut(knots, pieces, knots[0], knots[-1]), 2)


def prolong_affine(f: PiecewisePoly, h: float, epsilon: float, theta: float) -> PiecewisePoly:
    """Append an affine-plus-parabola tail to (1 - epsilon) f; the step bound
    h <= epsilon / (|theta| + sigma_inf(T)) keeps the tail inside the walls."""
    from .pwpoly import PiecewisePoly, require_member

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


def insert_bump(f: PiecewisePoly, t0: float, h: float) -> PiecewisePoly:
    """Splice a double-parabola bump of height h^2/16 at a stationary point
    t0; the output lives on [start, end + h] and its total variation exceeds
    the input's by exactly h^2/8."""
    from .pwpoly import PiecewisePoly, cut, require_member

    require_member(f, 2, 1, 1)
    start, end = float(f.t_start), float(f.t_end)
    if not start <= t0 < end:
        raise ValueError(f"need t0 in [{start}, {end}), got {t0}")
    v = float(f(t0))
    d = float(f.deriv_value(t0, 1))
    if abs(d) > _EDGE:
        raise ValueError(f"need f'(t0) = 0, got f'({t0}) = {d}")
    if not v < 1:
        raise ValueError(f"need f(t0) < 1, got f(t0) = {v}")
    cap = 4 * math.sqrt(1 - v)
    if not 0 < h <= cap:
        raise ValueError(f"need 0 < h <= 4 sqrt(1 - f(t0)) = {cap}, got h={h}")

    head_knots, head = cut(f.knots, f.pieces, f.t_start, t0)
    tail_knots, tail = cut(f.knots, f.pieces, t0, f.t_end)
    knots = [*(float(k) for k in head_knots[:-1]), t0, t0 + h / 4, t0 + 3 * h / 4, t0 + h,
             *(float(k) + h for k in tail_knots[1:])]
    pieces = [*(p.to_float() for p in head), Poly([v, 0.0, 0.5]).compose_affine(-t0, 1.0),
              Poly([v + h * h / 16, 0.0, -0.5]).compose_affine(-(t0 + h / 2), 1.0),
              Poly([v, 0.0, 0.5]).compose_affine(-(t0 + h), 1.0),
              *(p.to_float().compose_affine(-h, 1.0) for p in tail)]
    return PiecewisePoly(knots, pieces, 2)


# -- the total-variation problem sigma_1 ------------------------------------


_LATTICE_STEP = 2 * SQRT2


def _lattice_index(T: float) -> Optional[int]:
    """N >= 0 with T = 2 N sqrt(2) + 4 within _EDGE, if T sits on the lattice."""
    if T < 4 - _EDGE:
        return None
    N = round((T - 4) / _LATTICE_STEP)
    if N >= 0 and abs(T - (N * _LATTICE_STEP + 4)) <= _EDGE:
        return N
    return None


def _sigma1_exact_unit(T: float) -> Optional[float]:
    if T <= 2:
        return 2.0
    if T <= 4:
        return T * T / 2 - 2 * T + 4
    N = _lattice_index(T)
    if N is not None:
        return 2.0 * N + 4
    return None


def _sigma1_upper_unit(T: float, depth: int = 2) -> float:
    """Upper bound for T > 0: exact, else the best split into exact blocks and shorter searches."""
    ex = _sigma1_exact_unit(T)
    if ex is not None:
        return ex
    if depth == 0:
        return T / SQRT2 + 5
    cands = [2 * _sigma1_upper_unit(T / 2, depth - 1)]
    cands.extend(_sigma1_exact_unit(s) + _sigma1_upper_unit(T - s, depth - 1) for s in (2.5, 3.0))
    # every lattice block exceeds its length / sqrt(2) by the same 4 - 2 sqrt(2), so blocks
    # differ only in the remainder they leave, and only the two longest leave short ones
    last = math.floor((T - 4) / _LATTICE_STEP)
    for N in (last - 1, last):
        if N >= 1 and N * _LATTICE_STEP + 4 <= T:
            cands.append(2 * N + 4 + _sigma1_upper_unit(T - (N * _LATTICE_STEP + 4), depth - 1))
    return min(cands)


def _sigma1_lower_unit(T: float) -> float:
    """For T > 4 off the lattice: T / sqrt(2), or the longest lattice witness that fits."""
    return max(T / SQRT2, 2.0 * math.floor((T - 4) / _LATTICE_STEP) + 4)


def _tau_witness_unit(T: float) -> PiecewisePoly:
    """tau = -1 + (2/T - T/2) t + t^2/2: monotone crossing for T <= 2."""
    from .pwpoly import PiecewisePoly

    return PiecewisePoly([0.0, T], [Poly([-1.0, 2 / T - T / 2, 0.5])], 2)


def _parabola_witness_unit(T: float) -> PiecewisePoly:
    """-1 + (t-2)^2/2 on [0, T]: one full descent-and-rise for 2 <= T <= 4."""
    from .pwpoly import PiecewisePoly

    return PiecewisePoly([0.0, T], [Poly([-1.0, 0.0, 0.5]).compose_affine(-2.0, 1.0)], 2)


def lattice_witness_unit(N: int) -> PiecewisePoly:
    """Wall-to-wall rise, N antiperiods of the comparison train, then a final
    wall-to-wall arc; total variation 2N + 4 on [0, 2 N sqrt(2) + 4]."""
    from .pwpoly import PiecewisePoly

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


def sigma1(a: float, b: float, T: float) -> BoundResult:
    """sup of the total variation of f over [0, T] for the (a, b) class;
    exact in three regimes, a certified interval [lower, upper] elsewhere."""
    if not (a > 0 and b > 0):
        raise ValueError("a and b must be positive")
    if not 0 <= T < math.inf:
        raise ValueError(f"T must be nonnegative and finite, got {T}")
    if T == 0:
        return BoundResult(0.0, EXACT, "T<=2", lower=0.0, upper=0.0)
    t_unit = T * _scales(a, b)[0]
    N = _lattice_index(t_unit)
    if t_unit <= 2:
        v, tag, unit = 2 * a, "T<=2", (lambda: _tau_witness_unit(t_unit)) if T > _EDGE else None
    elif t_unit <= 4 and N is None:
        v, tag, unit = a * _sigma1_exact_unit(t_unit), "2<=T<=4", lambda: _parabola_witness_unit(t_unit)
    elif N is not None:
        v, tag, unit = a * (2 * N + 4), "lattice", lambda: lattice_witness_unit(N)
    else:
        lower = a * _sigma1_lower_unit(t_unit)
        upper = a * _sigma1_upper_unit(t_unit)
        return BoundResult(upper, INTERVAL, "subadditive", lower=lower, upper=upper)
    build = None if unit is None else lambda: _witness(unit, a, b)
    return BoundResult(v, EXACT, tag, lower=v, upper=v, _build=build)
