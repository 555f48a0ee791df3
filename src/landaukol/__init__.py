"""Sharp bounds for intermediate derivatives of functions with |f| <= a and
|f^(n)| <= b: closed forms, extremal spline witnesses, exact certificates,
and independent brute-force oracles."""

from .bounds import (
    EXACT,
    INTERVAL,
    UPPER_BOUND,
    BoundQuery,
    BoundResult,
    FullLine,
    HalfLine,
    Segment,
    compute_bound,
)
from .exactnum import Poly, Rational, bernoulli, euler_number, euler_poly
from .eulerspline import e_n, euler_spline, favard, q_n, q_n_deriv_sup, r_n, s_n
from .landau2 import PointwiseQuery, sigma1, sigma_inf, sigma_pointwise
from .landaun import cnk_bracket, kolmogorov_bound, sato_segment
from .pwpoly import (
    ContactPoint,
    ExtremeVerdict,
    MembershipReport,
    PiecewisePoly,
    contact_set,
    is_extreme_point,
    membership,
    total_variation,
    transform,
)

__all__ = [
    "EXACT",
    "INTERVAL",
    "UPPER_BOUND",
    "BoundQuery",
    "BoundResult",
    "ContactPoint",
    "ExtremeVerdict",
    "FullLine",
    "HalfLine",
    "LinearFunctional",
    "MembershipReport",
    "PiecewisePoly",
    "PointwiseQuery",
    "Poly",
    "Rational",
    "Segment",
    "bernoulli",
    "cnk_bracket",
    "compute_bound",
    "contact_set",
    "e_n",
    "euler_number",
    "euler_poly",
    "euler_spline",
    "favard",
    "is_extreme_point",
    "kernel_l1_norm",
    "kolmogorov_bound",
    "membership",
    "peano_kernel",
    "q_n",
    "q_n_deriv_sup",
    "r_n",
    "s_n",
    "sato_segment",
    "sigma1",
    "sigma_inf",
    "sigma_pointwise",
    "total_variation",
    "transform",
    "vandermonde_certificate",
]

__version__ = "0.1.0"

# peano (Peano kernels and the Vandermonde certificate) loads on first use, so
# importing the package, as every `landau` process does, does not compile it
_PEANO_NAMES = ("LinearFunctional", "kernel_l1_norm", "peano_kernel", "vandermonde_certificate")


def __getattr__(name):
    if name in _PEANO_NAMES:
        from . import peano

        return getattr(peano, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
