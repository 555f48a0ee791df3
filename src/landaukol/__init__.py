"""Sharp bounds for intermediate derivatives of functions with |f| <= a and
|f^(n)| <= b: closed forms, extremal spline witnesses, exact certificates,
and independent brute-force oracles.

Each exported name loads its module on first use, so a `landau` process
compiles only the modules its command runs."""

from importlib import import_module

_EXPORTS = {
    "bounds": ("EXACT", "INTERVAL", "UPPER_BOUND", "BoundQuery", "BoundResult", "FullLine", "HalfLine",
               "Segment", "compute_bound"),
    "exactnum": ("Poly", "bernoulli", "euler_number", "euler_poly"),
    "eulerspline": ("e_n", "euler_spline", "favard", "q_n", "q_n_deriv_sup", "r_n", "s_n"),
    "landau2": ("PointwiseQuery", "sigma1", "sigma_inf", "sigma_pointwise"),
    "landaun": ("cnk_bracket", "kolmogorov_bound", "sato_segment"),
    "peano": ("LinearFunctional", "kernel_l1_norm", "peano_kernel", "vandermonde_certificate"),
    "pwpoly": ("ContactPoint", "ExtremeVerdict", "MembershipReport", "PiecewisePoly", "contact_set",
               "is_extreme_point", "membership", "total_variation", "transform"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
