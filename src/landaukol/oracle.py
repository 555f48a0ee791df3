"""Independent brute-force verification of the closed forms.

Three tools, deliberately sharing no code with the formulas they check:

* a bounded-variable tableau simplex (written here, no external LP
  dependency) whose Bland pivots update only the columns where the pivot row
  is nonzero, maximizing discretized derivative objectives over the
  discretized class |v_i| <= a, |v_{i+1} - 2 v_i + v_{i-1}| <= b h^2: the box
  is a bound on each variable and each curvature pair is one range row (an
  `LpProblem` holds the step h, the shift a and the LP data c, A, rhs; its
  `solve()` returns (value, v, pivots));
* a randomized switching-point search over genuine bang-bang trajectories,
  driven by a Nelder-Mead minimizer (also written here, on plain floats),
  whose value is the float variation of a member passing float membership:
  a lower bound on the total-variation supremum up to rounding (ROADMAP item 5);
* a random member generator that inserts decelerating parabolic landings
  whenever a trajectory threatens the walls.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .exactnum import Poly
from .pwpoly import MIN_KNOT_GAP, PiecewisePoly

SQRT2 = math.sqrt(2.0)
PIVOT_TOL = 1e-9  # reduced costs and pivot-column entries this close to 0 count as 0
PIVOT_RUN_GAP = 64  # nonzero pivot-row columns closer than this share one update


class SimplexError(RuntimeError):
    pass


def simplex_maximize(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    x_max: float | np.ndarray = math.inf,
    s_max: float | np.ndarray = math.inf,
) -> Tuple[np.ndarray, float, int]:
    """Maximize c.x subject to A x + s = b, 0 <= x <= x_max, 0 <= s <= s_max
    (scalars or arrays), so that row i reads b_i - s_max_i <= A_i x <= b_i.
    Needs 0 <= b <= s_max and x_max >= 0: the all-slack start x = 0, s = b
    is then feasible and no phase 1 is needed.  Bounded-variable simplex
    (Chvatal, Linear Programming, ch. 8): a nonbasic variable at its upper
    bound is replaced by its complement, so every nonbasic variable sits at
    0.  Bland's entering and leaving rules, with entries beyond PIVOT_TOL and
    a bound flip counted under the entering variable's index, guarantee
    termination; returns (x, value, pivots), where pivots counts basis
    changes (not flips).  With every bound infinite this is the textbook
    simplex on A x <= b, x >= 0."""
    m, n = A.shape
    # upper bounds of the n structural and the m slack variables
    ub = np.concatenate([np.broadcast_to(np.asarray(x_max, float), n), np.broadcast_to(np.asarray(s_max, float), m)])
    if np.any(b < 0) or np.any(b > ub[n:]) or np.any(ub[:n] < 0):
        raise SimplexError("slack basis infeasible: need 0 <= b <= s_max and x_max >= 0")
    # Fortran order, so that the update walks each column in memory order
    T = np.zeros((m + 1, n + m + 1), order="F")
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = -c
    basis = np.arange(n, n + m)
    complemented = np.zeros(n + m, dtype=bool)

    def complement(k: int) -> None:
        # nonbasic x_k = ub_k - x'_k: shift the right-hand side, negate the column
        T[:, -1] -= ub[k] * T[:, k]
        T[:, k] *= -1.0
        complemented[k] = not complemented[k]

    pivots = 0
    while True:
        neg = np.nonzero(T[m, :-1] < -PIVOT_TOL)[0]
        if neg.size == 0:
            break
        j = int(neg[0])
        col, rhs = T[:m, j], T[:m, -1]
        # the step at which each basic variable falls to 0 or rises to its bound
        ratios = np.full(m, np.inf)
        pos, rises = col > PIVOT_TOL, col < -PIVOT_TOL
        ratios[pos] = rhs[pos] / col[pos]
        ratios[rises] = (ub[basis[rises]] - rhs[rises]) / -col[rises]
        rmin = min(ratios.min(), ub[j])
        if rmin == math.inf:
            raise SimplexError("unbounded direction")
        cutoff = rmin + 1e-12 * (1 + abs(rmin))
        ties = np.nonzero(ratios <= cutoff)[0]
        if ub[j] <= cutoff and (ties.size == 0 or j < basis[ties].min()):
            complement(j)  # the entering variable reaches its own bound first
            continue
        r = int(ties[np.argmin(basis[ties])])
        leaving, piv = int(basis[r]), T[r, j]
        T[r] /= piv
        reducer = T[:, j].copy()
        reducer[r] = 0.0
        row = np.ascontiguousarray(T[r])
        # the rank-1 update subtracts row[c] * reducer[i] from T[i, c], a
        # multiply and a subtract each rounded once, so the bits are the same
        # on every CPU.  Where row[c] == 0 or reducer[i] == 0 it subtracts a
        # zero: update only the runs of nonzero columns (merging runs less
        # than PIVOT_RUN_GAP apart) and, in them, the span of constraint rows
        # where reducer is nonzero, and the objective row on its own
        span = np.flatnonzero(reducer[:m])
        r0, r1 = (int(span[0]), int(span[-1]) + 1) if span.size else (0, 0)
        nz = np.flatnonzero(row)
        gaps = np.flatnonzero(np.diff(nz) >= PIVOT_RUN_GAP)
        for lo, hi in zip(np.r_[nz[0], nz[gaps + 1]].tolist(), (np.r_[nz[gaps], nz[-1]] + 1).tolist()):
            block = T[r0:r1, lo:hi]
            np.subtract(block, np.multiply.outer(row[lo:hi], reducer[r0:r1]).T, out=block)
            T[m, lo:hi] -= reducer[m] * row[lo:hi]
        T[:, j] = 0.0
        T[r, j] = 1.0
        basis[r] = j
        pivots += 1
        if piv < 0:
            complement(leaving)  # it left at its upper bound

    x = np.zeros(n + m)
    x[basis] = T[:m, -1]
    x[complemented] = ub[complemented] - x[complemented]
    return x[:n], float(T[m, -1]), pivots


class LpProblem(NamedTuple):
    """Discretized derivative maximization: M+1 samples v_i on a step-h grid,
    box |v_i| <= a, second differences within b h^2, linear objective c.  In
    the shifted variables u = v + a the box is the variable bound
    0 <= u <= 2a, and each of the M-1 rows of the second-difference matrix A
    is the range row -rhs <= A u <= rhs with rhs = b h^2."""

    h: float
    a: float
    c: np.ndarray
    A: np.ndarray
    rhs: np.ndarray

    def __repr__(self) -> str:  # without the arrays
        return f"LpProblem(h={self.h!r}, a={self.a!r})"

    def solve(self) -> Tuple[float, np.ndarray, int]:
        u, value, pivots = simplex_maximize(self.c, self.A, self.rhs, x_max=2 * self.a, s_max=2 * self.rhs)
        return value, u - self.a, pivots  # shift back to v = u - a


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
    c = np.zeros(M + 1)
    if j == 0:
        c[[0, 1, 2]] = np.array([-3.0, 4.0, -1.0]) / (2 * h)
    elif j == M:
        c[[M, M - 1, M - 2]] = np.array([3.0, -4.0, 1.0]) / (2 * h)
    else:
        c[j + 1] = 1.0 / (2 * h)
        c[j - 1] = -1.0 / (2 * h)

    # row i is u_i - 2 u_{i+1} + u_{i+2}
    A = np.zeros((M - 1, M + 1))
    rows = np.arange(M - 1)
    for k, w in enumerate((1.0, -2.0, 1.0)):
        A[rows, rows + k] = w
    return LpProblem(h=h, a=a, c=c, A=A, rhs=np.full(M - 1, b * h * h))


def lp_max_pointwise_derivative(a: float, b: float, T: float, t0: float, M: int) -> float:
    """Discretized supremum of the derivative at t0; approximates the closed
    form to O(h) (the discrete constraints relax the continuum ones)."""
    return build_pointwise_lp(a, b, T, t0, M).solve()[0]


# -- Nelder-Mead ---------------------------------------------------------------


class NelderMeadResult(NamedTuple):
    x: List[float]
    nfev: int


def minimize(
    fun: Callable[[List[float]], float], x0: Sequence[float], maxiter: int, xatol: float, fatol: float
) -> NelderMeadResult:
    """Nelder-Mead on plain floats, step for step scipy's
    `minimize(method="Nelder-Mead")` with the same maxiter, xatol and fatol:
    reflection 1, expansion 2, contraction and shrink 1/2, the 5 % / 0.00025
    initial simplex, the centroid summed row by row from row 0.  Vertices with
    tied f keep their simplex order (a stable sort), so the path does not
    depend on how a machine's numpy sorts ties."""
    n = len(x0)
    sim = [list(x0)]
    for k in range(n):
        y = list(x0)
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [fun(x) for x in sim]
    nfev = n + 1
    order = sorted(range(n + 1), key=fsim.__getitem__)
    sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]

    for _ in range(maxiter - 1):
        best = sim[0]
        # fsim is sorted, so its spread is max |fsim[0] - fsim[i]| exactly
        if fsim[-1] - fsim[0] <= fatol and all(
            abs(v - c) <= xatol for x in sim[1:] for v, c in zip(x, best)
        ):
            break
        xbar = best
        for x in sim[1:-1]:
            xbar = [p + q for p, q in zip(xbar, x)]
        xbar = [p / n for p in xbar]
        worst = sim[-1]
        xr = [2 * p - q for p, q in zip(xbar, worst)]
        fxr = fun(xr)
        nfev += 1
        new = None
        if fxr < fsim[0]:
            xe = [3 * p - 2 * q for p, q in zip(xbar, worst)]
            fxe = fun(xe)
            nfev += 1
            new = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            new = (xr, fxr)
        elif fxr < fsim[-1]:
            xc = [1.5 * p - 0.5 * q for p, q in zip(xbar, worst)]
            fxc = fun(xc)
            nfev += 1
            if fxc <= fxr:
                new = (xc, fxc)
        else:
            xcc = [0.5 * p + 0.5 * q for p, q in zip(xbar, worst)]
            fxcc = fun(xcc)
            nfev += 1
            if fxcc < fsim[-1]:
                new = (xcc, fxcc)

        if new is None:  # shrink towards the best vertex
            sim = [best] + [[c + 0.5 * (v - c) for v, c in zip(x, best)] for x in sim[1:]]
            fsim = [fsim[0]] + [fun(x) for x in sim[1:]]
            nfev += n
            order = sorted(range(n + 1), key=fsim.__getitem__)
            sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]
        else:
            # only the last vertex changed: a stable sort puts it after its ties
            del sim[-1], fsim[-1]
            i = bisect_right(fsim, new[1])
            sim.insert(i, new[0])
            fsim.insert(i, new[1])
    return NelderMeadResult(sim[0], nfev)


# -- bang-bang switching-point search ----------------------------------------


class BangBangControl(NamedTuple):
    """|f''| = b trajectory: initial state, switch times, leading sign of f''.
    `scale` < 1 records the uniform shrink applied when the raw trajectory
    grazes past |f| = a; the member is the scaled trajectory."""

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
            if end <= t + MIN_KNOT_GAP:
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
    theta: List[float], sign: int, a: float, b: float, T: float
) -> Tuple[float, float, List[float]]:
    """(value, scale, switches) of the member that theta = (f0, f'0, switch
    times...) describes: the switch times clamped to [0, T] and sorted, the
    exact per-piece extrema and variation of the raw trajectory, and the
    shrink `scale` onto |f| <= a with the variation it scales to.  Arcs are
    skipped exactly where `BangBangControl.to_piecewise` skips them."""
    ends = sorted([0.0 if s < 0.0 else T if s > T else s for s in theta[2:]])
    ends.append(T)
    f, fp = theta[0], theta[1]
    t = 0.0
    sgn = float(sign)
    variation = 0.0
    max_abs = abs(f)
    for end in ends:
        if end <= t + MIN_KNOT_GAP:
            sgn = -sgn
            continue
        d = end - t
        curv = sgn * b
        # extrema of the quadratic piece
        f_end = f + fp * d + curv * d * d / 2
        if abs(f_end) > max_abs:
            max_abs = abs(f_end)
        tv = -fp / curv  # vertex
        if 0.0 < tv < d:
            f_v = f + fp * tv + curv * tv * tv / 2
            if abs(f_v) > max_abs:
                max_abs = abs(f_v)
            variation += abs(f_v - f) + abs(f_end - f_v)
        else:
            variation += abs(f_end - f)
        f, fp = f_end, fp + curv * d
        t = end
        sgn = -sgn
    ends.pop()
    scale = 1.0 if max_abs <= a else a / max_abs
    return variation * scale, scale, ends


def _decode(theta: List[float], sign: int, a: float, b: float, T: float) -> Tuple[float, BangBangControl]:
    """(value, member) at theta: the member and its float variation."""
    value, scale, switches = _evaluate_bangbang(theta, sign, a, b, T)
    return value, BangBangControl(theta[0], theta[1], tuple(switches), sign, scale)


def _scales(a: float, b: float) -> Tuple[float, float]:
    """(sqrt(b/a), sqrt(a b)) from a and b scaled by even powers of two: the
    floats that math.sqrt gives of b / a and a * b wherever those are normal
    floats, and finite past them."""
    ea, eb = math.frexp(a)[1] // 2 * 2, math.frexp(b)[1] // 2 * 2
    ma, mb = math.ldexp(a, -ea), math.ldexp(b, -eb)
    return math.ldexp(math.sqrt(mb / ma), (eb - ea) // 2), math.ldexp(math.sqrt(ma * mb), (ea + eb) // 2)


def bangbang_sigma1_search(
    a: float,
    b: float,
    T: float,
    max_switches: Optional[int] = None,
    restarts: int = 50,
    seed: int = 0,
) -> Tuple[float, BangBangControl]:
    """Best total variation over bang-bang members found by seeded
    Nelder-Mead restarts on (f0, f'0, switch times): the float variation of a
    member that passes float membership (raw trajectories grazing past |f| = a
    are shrunk onto it), a lower bound only up to rounding (ROADMAP item 5)."""
    if not (a > 0 and b > 0 and T > 0):
        raise ValueError("a, b, T must be positive")
    scale, root_ab = _scales(a, b)
    needed = math.ceil(T * scale / SQRT2) + 2
    if max_switches is None:
        max_switches = needed
    if max_switches < needed:
        raise ValueError(f"need max_switches >= ceil(T sqrt(b/a) / sqrt 2) + 2 = {needed}")
    if restarts < 20:
        raise ValueError("need restarts >= 20")

    rng = np.random.default_rng(seed)
    best: Tuple[float, Optional[BangBangControl]] = (-math.inf, None)

    def optimize(theta0: List[float], sign: int, rounds: int) -> List[float]:
        # Nelder-Mead stalls when its simplex collapses; restarting it from
        # the incumbent point with a fresh simplex recovers the last digits
        x = theta0
        for _ in range(rounds):
            x = minimize(
                lambda th: -_evaluate_bangbang(th, sign, a, b, T)[0],
                x, maxiter=400 * (len(x) + 1), xatol=1e-12, fatol=1e-14,
            ).x
        return x

    def incumbent(x: List[float], sign: int) -> Tuple[float, Optional[BangBangControl]]:
        # the member at x if it beats the incumbent, else the incumbent
        value, control = _decode(x, sign, a, b, T)
        return (value, control) if value > best[0] else best

    for r in range(restarts):
        m = int(rng.integers(0, max_switches + 1)) if r % 3 else min(r // 3, max_switches)
        sign = -1 if r % 2 else 1
        # the float of uniform(-a, a), drawn where 2a may pass the float range
        f0 = 2 * float(rng.uniform(-a / 2, a / 2)) if r % 3 else -a * float(sign)
        fp0 = float(rng.uniform(-1, 1)) * 2 * root_ab
        theta0 = [f0, fp0] + sorted(rng.uniform(0, T, size=m).tolist())

        best = incumbent(optimize(theta0, sign, rounds=2), sign)

    control = best[1]
    if control is None:
        raise SimplexError("no feasible bang-bang candidate found")
    # final polish of the incumbent
    x = optimize([control.f0, control.fp0, *control.switches], control.sign, rounds=3)
    return incumbent(x, control.sign)


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
