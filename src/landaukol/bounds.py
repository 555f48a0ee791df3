"""Shared result types and the uniform bound-query front door.

Every computed bound carries a status (Exact / UpperBound / Interval), a
provenance tag naming the formula or method that produced it and, where the
value is attained, a builder of the extremal witness spline, which
`BoundResult.witness` runs on first access: a caller of the value alone builds no spline.
"""
from __future__ import annotations

import math
from threading import Lock
from typing import TYPE_CHECKING, Callable, Optional, Union

from . import landaun
from .exactnum import Record, set_field

if TYPE_CHECKING:
    from .pwpoly import PiecewisePoly

EXACT = "Exact"
UPPER_BOUND = "UpperBound"
INTERVAL = "Interval"

_WITNESS_LOCK = Lock()


class Segment(Record):
    __slots__ = _fields = ("T",)

    def __init__(self, T: float):
        if not T > 0:
            raise ValueError(f"segment length must be positive, got {T}")
        if T == math.inf:
            raise ValueError("segment length must be finite")
        set_field(self, "T", T)


class _Unbounded:
    """The half line or the whole line; compare with `is`."""

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name


HalfLine = _Unbounded("HalfLine")
FullLine = _Unbounded("FullLine")

Domain = Union[Segment, _Unbounded]


class BoundQuery(Record):
    """sup |f^(k)|, or |f'(t0)| given t0, or the total variation of f if functional = "var"."""

    __slots__ = _fields = ("n", "k", "a", "b", "domain", "functional", "t0")

    def __init__(self, n: int, k: int, a: float, b: float, domain: Domain,
                 functional: str = "sup", t0: Optional[float] = None):
        if n < 2:
            raise ValueError("order n must be >= 2")
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n, got k={k}")
        if not (a > 0 and b > 0):
            raise ValueError("bounds a and b must be positive")
        if math.inf in (a, b):
            raise ValueError("bounds a and b must be finite")
        segment = isinstance(domain, Segment)
        if functional not in ("sup", "var"):
            raise ValueError(f"functional must be 'sup' or 'var', got {functional!r}")
        if functional == "var" and not (n == 2 and segment):
            raise ValueError("--functional var needs --n 2 and --domain segment")
        if functional == "var" and k != 1:
            raise ValueError("--functional var needs --k 1")
        if t0 is not None:
            if not segment:
                raise ValueError("--t0 only applies to --domain segment")
            if n != 2:
                raise ValueError("pointwise bounds are only available for --n 2")
            if (k, functional) != (1, "sup"):
                raise ValueError("--t0 needs --k 1 and --functional sup")
            if not math.isfinite(t0):
                raise ValueError(f"t0 must be finite, got {t0}")
            if not 0 <= t0 <= domain.T:
                raise ValueError(f"t0={t0} outside [0, {domain.T}]")
        set_field(self, "n", n)
        set_field(self, "k", k)
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "domain", domain)
        set_field(self, "functional", functional)
        set_field(self, "t0", t0)


class BoundResult(Record):
    """An Interval has value = upper; the half-line bracket route keeps its
    bracket.  `_build` makes the witness and is left out of repr and ==."""

    _fields = ("value", "status", "provenance", "lower", "upper", "witness_point", "bracket")
    __slots__ = (*_fields, "_build", "_witness")

    def __init__(self, value: float, status: str, provenance: str, lower: Optional[float] = None,
                 upper: Optional[float] = None, witness_point: Optional[float] = None,
                 bracket: Optional[landaun.CnkBracket] = None,
                 _build: Optional[Callable[[], Optional[PiecewisePoly]]] = None):
        set_field(self, "value", value)
        set_field(self, "status", status)  # EXACT | UPPER_BOUND | INTERVAL
        set_field(self, "provenance", provenance)
        set_field(self, "lower", lower)
        set_field(self, "upper", upper)
        set_field(self, "witness_point", witness_point)  # where the witness attains the value
        set_field(self, "bracket", bracket)
        set_field(self, "_build", _build)

    @property
    def exact(self) -> Optional[float]:
        return self.value if self.status == EXACT else None

    @property
    def witness(self) -> Optional[PiecewisePoly]:
        """The extremal spline, built on first access; None if there is none or its knots collapse."""
        from .pwpoly import StructuralError  # deferred: a caller of the value alone loads no spline code

        with _WITNESS_LOCK:  # one build per result, also when threads share it
            if not hasattr(self, "_witness"):
                try:
                    witness = None if self._build is None else self._build()
                except StructuralError:
                    witness = None
                set_field(self, "_witness", witness)
        return self._witness


def compute_bound(query: BoundQuery) -> BoundResult:
    """Route a query to the sharpest applicable result: the total-variation,
    pointwise and n = 2 closed forms, the whole-line constants, the n = 3
    formulas, half-line brackets, and certificate upper bounds otherwise.
    Raises ValueError when the bound is not a finite float."""
    try:
        result = _route(query)
        finite = all(math.isfinite(v) for v in (result.value, result.lower, result.upper) if v is not None)
    except OverflowError:  # float ** raises where * and / give inf
        finite = False
    if not finite:
        raise ValueError("the bound is outside the float range; rescale a, b or T")
    return result


def _line_witness(n: int, a: float, b: float) -> Optional[PiecewisePoly]:
    """q_n, which attains every whole-line bound of order n, in the (a, b) class."""
    from . import eulerspline
    from .pwpoly import to_class

    return to_class(lambda: eulerspline.q_n_piecewise(n), n, a, b)


def _route(query: BoundQuery) -> BoundResult:
    n, k, a, b, dom = query.n, query.k, query.a, query.b, query.domain

    if (n, k) == (2, 1):  # every var and t0 query, as BoundQuery checks
        from . import landau2  # deferred: only the n = 2 routes need it

        if query.functional == "var":
            return landau2.sigma1(a, b, dom.T)
        if query.t0 is not None:
            return landau2.sigma_pointwise(query)
        return landau2.sigma_inf(a, b, dom)
    if k in (0, n):
        # a constant, or a short-period Euler spline, attains each given bound
        return BoundResult(a if k == 0 else b, EXACT, "class-bound")
    if dom is FullLine:
        return BoundResult(landaun.kolmogorov_bound(n, k, a, b), EXACT, "kolmogorov-whole-line",
                           _build=lambda: _line_witness(n, a, b))
    if n == 3 and k in (1, 2):
        segment = isinstance(dom, Segment)
        sato = landaun.sato_segment(k, a, b, dom.T if segment else landaun.sato_t0(a, b))
        tag = f"sato-segment-{sato.regime}" if segment else "sato-half-line"
        return BoundResult(sato.value_for(k), EXACT, tag)
    if dom is HalfLine:
        bracket = landaun.cnk_bracket(n, k)
        tag = f"half-line-bracket({bracket.upper_source})"
        return BoundResult(bracket.upper * bracket.scale(a, b), UPPER_BOUND, tag, bracket=bracket)
    from . import peano  # deferred: only this route needs it

    return BoundResult(peano.vandermonde_certificate(n, k).bound(a, b, dom.T), UPPER_BOUND, "vandermonde-certificate")

