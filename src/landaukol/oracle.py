"""Independent brute-force verification of the closed forms.

Three tools, deliberately sharing no code with the formulas they check:

* a dense-tableau simplex solver (written here, no external LP dependency)
  maximizing discretized derivative objectives over the discretized class
  |v_i| <= a, |v_{i+1} - 2 v_i + v_{i-1}| <= b h^2;
* a randomized switching-point search over genuine bang-bang trajectories,
  whose every reported value is attained by an exactly-verified member, hence
  a certified lower bound on the total-variation supremum;
* a random member generator that inserts decelerating parabolic landings
  whenever a trajectory threatens the walls.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg.blas import dger
from scipy.optimize import minimize

from .exactnum import Poly
from .pwpoly import PiecewisePoly

SQRT2 = math.sqrt(2.0)


class SimplexError(RuntimeError):
    pass


def simplex_maximize(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    tol: float = 1e-9,
) -> Tuple[np.ndarray, float, int]:
    """Maximize c.x subject to A x <= b, x >= 0, for b >= 0 (the all-slack
    basis is then feasible and no phase-1 is needed).  Bland's entering and
    leaving rules guarantee termination; returns (x, value, pivots)."""
    m, n = A.shape
    if np.any(b < 0):
        raise SimplexError("negative right-hand side: slack basis infeasible")
    # Fortran order so the pivot can run as one in-place BLAS rank-1 update
    T = np.zeros((m + 1, n + m + 1), order="F")
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = -c
    basis = list(range(n, n + m))

    iterations = 0
    while True:
        neg = np.nonzero(T[m, :-1] < -tol)[0]
        if neg.size == 0:
            break
        j = int(neg[0])
        col = T[:m, j]
        pos = col > tol
        if not pos.any():
            raise SimplexError("unbounded direction in a box-bounded problem")
        ratios = np.full(m, np.inf)
        ratios[pos] = T[:m, -1][pos] / col[pos]
        rmin = ratios.min()
        ties = np.nonzero(ratios <= rmin + 1e-12 * (1 + abs(rmin)))[0]
        r = int(min(ties, key=lambda i: basis[i]))
        piv = T[r, j]
        T[r] /= piv
        reducer = T[:, j].copy()
        reducer[r] = 0.0
        row = np.ascontiguousarray(T[r])
        res = dger(-1.0, reducer, row, a=T, overwrite_a=1)
        assert res is T
        T[:, j] = 0.0
        T[r, j] = 1.0
        basis[r] = j
        iterations += 1

    x = np.zeros(n + m)
    rhs = T[:m, -1]
    for i, bi in enumerate(basis):
        x[bi] = rhs[i]
    return x[:n], float(T[m, -1]), iterations


@dataclass(frozen=True)
class LpProblem:
    """Discretized derivative maximization: M+1 samples v_i on a step-h grid,
    box |v_i| <= a, second differences within b h^2, linear objective."""

    M: int
    h: float
    a: float
    b: float
    T: float
    t0_index: int
    c: np.ndarray = field(repr=False)
    A: np.ndarray = field(repr=False)
    rhs: np.ndarray = field(repr=False)

    def solve(self) -> Tuple[float, np.ndarray, int]:
        u, value, iters = simplex_maximize(self.c, self.A, self.rhs)
        return value, u - self.a, iters  # shift back to v = u - a


def build_pointwise_lp(a: float, b: float, T: float, t0: float, M: int) -> LpProblem:
    """Objective: centered 3-point derivative stencil at the grid point
    nearest t0 (second-order one-sided stencil at the endpoints).  Variables
    are shifted to u = v + a >= 0; the stencils have zero coefficient sum, so
    the shift leaves the objective untouched."""
    if M < 50:
        raise ValueError("need M >= 50")
    if not (a > 0 and b > 0 and T > 0):
        raise ValueError("a, b, T must be positive")
    if not 0 <= t0 <= T:
        raise ValueError(f"t0={t0} outside [0, {T}]")
    h = T / M
    j = int(round(t0 / h))
    nvar = M + 1
    c = np.zeros(nvar)
    if j == 0:
        c[[0, 1, 2]] = np.array([-3.0, 4.0, -1.0]) / (2 * h)
    elif j == M:
        c[[M, M - 1, M - 2]] = np.array([3.0, -4.0, 1.0]) / (2 * h)
    else:
        c[j + 1] = 1.0 / (2 * h)
        c[j - 1] = -1.0 / (2 * h)

    nrow = nvar + 2 * (M - 1)
    A = np.zeros((nrow, nvar))
    rhs = np.empty(nrow)
    A[:nvar] = np.eye(nvar)
    rhs[:nvar] = 2 * a
    row = nvar
    bh2 = b * h * h
    for i in range(1, M):
        A[row, i - 1 : i + 2] = (1.0, -2.0, 1.0)
        rhs[row] = bh2
        A[row + 1, i - 1 : i + 2] = (-1.0, 2.0, -1.0)
        rhs[row + 1] = bh2
        row += 2
    return LpProblem(M=M, h=h, a=a, b=b, T=T, t0_index=j, c=c, A=A, rhs=rhs)


def lp_max_pointwise_derivative(a: float, b: float, T: float, t0: float, M: int) -> float:
    """Discretized supremum of the derivative at t0; approximates the closed
    form to O(h) (the discrete constraints relax the continuum ones)."""
    return build_pointwise_lp(a, b, T, t0, M).solve()[0]


# -- bang-bang switching-point search ----------------------------------------


@dataclass(frozen=True)
class BangBangControl:
    """|f''| = b trajectory: initial state, switch times, leading sign of f''.
    `scale` < 1 records the uniform shrink applied when the raw trajectory
    grazes past |f| = a; the certified member is the scaled trajectory."""

    f0: float
    fp0: float
    switches: Tuple[float, ...]
    sign: int
    scale: float = 1.0

    def to_piecewise(self, b: float, T: float) -> PiecewisePoly:
        knots: List[float] = [0.0]
        pieces: List[Poly] = []
        f, fp = self.f0 * self.scale, self.fp0 * self.scale
        sgn = float(self.sign)
        bounds = sorted(min(max(s, 0.0), T) for s in self.switches)
        for end in bounds + [T]:
            t = knots[-1]
            if end <= t + 1e-12:
                sgn = -sgn
                continue
            curv = sgn * self.scale * b
            pieces.append(Poly([f, fp, curv / 2]).compose_affine(-t, 1.0))
            d = end - t
            f, fp = f + fp * d + curv * d * d / 2, fp + curv * d
            knots.append(end)
            sgn = -sgn
        return PiecewisePoly(knots, pieces, 2)


def _evaluate_bangbang(
    f0: float, fp0: float, switches: Sequence[float], sign: int, a: float, b: float, T: float
) -> Tuple[float, float]:
    """(variation, max_abs): exact per-piece extrema and variation of the raw
    trajectory."""
    f, fp = f0, fp0
    t = 0.0
    sgn = float(sign)
    variation = 0.0
    max_abs = abs(f0)
    for end in list(switches) + [T]:
        if end <= t + 1e-15:
            sgn = -sgn
            continue
        d = end - t
        curv = sgn * b
        # extrema of the quadratic piece
        f_end = f + fp * d + curv * d * d / 2
        max_abs = max(max_abs, abs(f_end))
        tv = -fp / curv  # vertex
        if 0.0 < tv < d:
            f_v = f + fp * tv + curv * tv * tv / 2
            max_abs = max(max_abs, abs(f_v))
            variation += abs(f_v - f) + abs(f_end - f_v)
        else:
            variation += abs(f_end - f)
        f, fp = f_end, fp + curv * d
        t = end
        sgn = -sgn
    return variation, max_abs


def _decode(theta: np.ndarray, T: float) -> Tuple[float, float, List[float]]:
    return float(theta[0]), float(theta[1]), np.sort(np.clip(theta[2:], 0.0, T)).tolist()


def bangbang_sigma1_search(
    a: float,
    b: float,
    T: float,
    max_switches: Optional[int] = None,
    restarts: int = 50,
    seed: int = 0,
) -> Tuple[float, BangBangControl]:
    """Best total variation over bang-bang members found by seeded
    Nelder-Mead restarts on (f0, f'0, switch times); every candidate value is
    attained by a genuine member (raw trajectories grazing past |f| = a are
    shrunk onto it), so the result certifies a lower bound."""
    if not (a > 0 and b > 0 and T > 0):
        raise ValueError("a, b, T must be positive")
    needed = math.ceil(T * math.sqrt(b / a) / SQRT2) + 2
    if max_switches is None:
        max_switches = needed
    if max_switches < needed:
        raise ValueError(f"need max_switches >= ceil(T sqrt(b/a) / sqrt 2) + 2 = {needed}")
    if restarts < 20:
        raise ValueError("need restarts >= 20")

    rng = np.random.default_rng(seed)
    best_value = -math.inf
    best: Optional[BangBangControl] = None

    def feasible_value(theta: np.ndarray, sign: int) -> Tuple[float, float]:
        f0, fp0, switches = _decode(theta, T)
        variation, max_abs = _evaluate_bangbang(f0, fp0, switches, sign, a, b, T)
        scale = 1.0 if max_abs <= a else a / max_abs
        return variation * scale, scale

    def optimize(theta0: np.ndarray, sign: int, rounds: int) -> np.ndarray:
        # Nelder-Mead stalls when its simplex collapses; restarting it from
        # the incumbent point with a fresh simplex recovers the last digits
        x = theta0
        for _ in range(rounds):
            res = minimize(
                lambda th: -feasible_value(th, sign)[0],
                x,
                method="Nelder-Mead",
                options={"maxiter": 400 * (len(x) + 1), "xatol": 1e-12, "fatol": 1e-14},
            )
            x = res.x
        return x

    for r in range(restarts):
        m = int(rng.integers(0, max_switches + 1)) if r % 3 else min(r // 3, max_switches)
        sign = -1 if r % 2 else 1
        f0 = float(rng.uniform(-a, a)) if r % 3 else -a * float(sign)
        fp0 = float(rng.uniform(-1, 1)) * 2 * math.sqrt(a * b)
        theta0 = np.array([f0, fp0] + sorted(rng.uniform(0, T, size=m).tolist()))

        x = optimize(theta0, sign, rounds=2)
        value, scale = feasible_value(x, sign)
        if value > best_value:
            f0b, fp0b, swb = _decode(x, T)
            best_value = value
            best = BangBangControl(f0b, fp0b, tuple(swb), sign, scale)

    if best is None:
        raise SimplexError("no feasible bang-bang candidate found")

    # final polish of the incumbent
    x = optimize(np.array([best.f0, best.fp0, *best.switches]), best.sign, rounds=3)
    value, scale = feasible_value(x, best.sign)
    if value > best_value:
        f0b, fp0b, swb = _decode(x, T)
        best_value = value
        best = BangBangControl(f0b, fp0b, tuple(swb), best.sign, scale)
    return best_value, best


# -- random member generator ---------------------------------------------------


def random_member(a: float, b: float, T: float, seed: int = 0) -> PiecewisePoly:
    """Random bang-bang member of the (a, b) class on [0, T].  Maintains the
    landing margins f'^2 <= 2b(a -/+ f), cutting each segment where its margin
    would expire (the trajectory is then exactly on the decelerating parabola
    that lands with f' = 0 at |f| = a)."""
    if not (a > 0 and b > 0 and T > 0):
        raise ValueError("a, b, T must be positive")
    rng = np.random.default_rng(seed)
    f = float(rng.uniform(-0.9 * a, 0.9 * a))
    cap = math.sqrt(2 * b * (a - abs(f)))
    fp = float(rng.uniform(-0.9, 0.9)) * cap
    t = 0.0
    knots: List[float] = [0.0]
    pieces: List[Poly] = []
    step_scale = math.sqrt(a / b)

    def margin_time(sgn: float) -> float:
        # largest forward time keeping the landing margins nonnegative
        if sgn > 0:
            g0 = 2 * b * (a - f) - fp * fp
            return (-fp + math.sqrt(max(fp * fp + g0 / 2, 0.0))) / b
        h0 = 2 * b * (a + f) - fp * fp
        return (fp + math.sqrt(max(fp * fp + h0 / 2, 0.0))) / b

    while t < T - 1e-11:
        sgn = 1.0 if rng.random() < 0.5 else -1.0
        if margin_time(sgn) < 0.01 * step_scale:
            sgn = -sgn  # at most one direction can be margin-blocked
        limit = margin_time(sgn)
        d = min(float(rng.uniform(0.15, 1.2)) * step_scale, limit, T - t)
        if d < 1e-11:
            break
        curv = sgn * b
        pieces.append(Poly([f, fp, curv / 2]).compose_affine(-t, 1.0))
        f, fp = f + fp * d + curv * d * d / 2, fp + curv * d
        t += d
        knots.append(t)
    knots[-1] = T
    return PiecewisePoly(knots, pieces, 2)
