import math
import random
from fractions import Fraction

import pytest

from landaukol import peano
from landaukol.exactnum import Poly
from landaukol.peano import (
    LinearFunctional,
    annihilates_polys,
    certificate_functional,
    certificate_nodes,
    deriv_kernel_l1_exact,
    derivative_functional,
    kernel_l1_norm,
    kernel_pieces,
    lagrange_derivatives,
    landau_bound_n2,
    peano_kernel,
    peano_kernel_at,
    vandermonde_certificate,
)
from landaukol.pwpoly import PiecewisePoly

F = Fraction


def test_annihilates_polys():
    L = derivative_functional(F(1, 2), F(2))
    assert annihilates_polys(L)
    point_eval = LinearFunctional(((F(0), 0, F(1)),), F(1), 1)
    assert not annihilates_polys(point_eval)
    second_diff = LinearFunctional(
        ((F(1), 0, F(1)), (F(1, 2), 0, F(-2)), (F(0), 0, F(1))), F(1), 2
    )
    assert annihilates_polys(second_diff)


def test_peano_kernel_two_branches():
    L = derivative_functional(F(1, 2), F(1))
    assert peano_kernel(L, F(1, 4)) == pytest.approx(0.25, abs=1e-15)
    assert peano_kernel(L, F(3, 4)) == pytest.approx(-0.25, abs=1e-15)
    # beyond every alpha the kernel vanishes
    L2 = LinearFunctional(
        ((F(1, 2), 0, F(1)), (F(1, 4), 0, F(-2)), (F(0), 0, F(1))), F(1), 2
    )
    assert peano_kernel(L2, F(3, 4)) == 0.0
    value, at_jump = peano_kernel_at(L, F(1, 2))
    assert at_jump and value == pytest.approx(0.5, abs=1e-15)
    assert not peano_kernel_at(L, F(1, 4))[1]


def test_kernel_l1_norm_closed_form():
    assert kernel_l1_norm(derivative_functional(F(0), F(2))) == pytest.approx(1.0, abs=1e-12)
    assert kernel_l1_norm(derivative_functional(F(1), F(2))) == pytest.approx(0.5, abs=1e-12)
    assert deriv_kernel_l1_exact(F(0), F(2)) == 1
    assert deriv_kernel_l1_exact(F(1), F(2)) == F(1, 2)


def test_float_functional_converts_exactly():
    L = derivative_functional(0.3, 1.7)
    assert L.T == F(1.7) and all(isinstance(v, F) for alpha, _m, lam in L.terms for v in (alpha, lam))
    assert annihilates_polys(L)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            LinearFunctional(((bad, 0, F(1)),), F(1), 1)
        with pytest.raises(ValueError):
            LinearFunctional(((F(0), 0, bad),), F(1), 1)
        with pytest.raises(ValueError):
            LinearFunctional(((F(0), 0, F(1)),), bad, 1)


def test_kernel_l1_norm_of_float_functionals():
    rng = random.Random(5)
    for _ in range(20):
        T = rng.uniform(0.01, 50.0)
        x = rng.uniform(0.0, T)
        got = kernel_l1_norm(derivative_functional(x, T))
        assert got == pytest.approx(float(deriv_kernel_l1_exact(x, T)), rel=1e-12)


def test_kernel_l1_matches_riemann_sum():
    rng = random.Random(17)
    for _ in range(5):
        x = F(rng.randint(0, 10), 10)
        T = F(1)
        L = derivative_functional(x, T)
        npts = 100000
        h = 1.0 / npts
        riemann = sum(abs(peano_kernel(L, (i + 0.5) * h)) for i in range(npts)) * h
        assert kernel_l1_norm(L) == pytest.approx(riemann, abs=1e-6)


def test_landau_bound_n2():
    assert landau_bound_n2((1, 1), 2, 0) == pytest.approx(2.0, abs=1e-15)
    assert landau_bound_n2((1, 1), 2, 1) == pytest.approx(1.5, abs=1e-15)
    assert landau_bound_n2((4, 1), 2, 0) == pytest.approx(5.0, abs=1e-15)
    with pytest.raises(ValueError):
        landau_bound_n2((1, 1), 2, 3)


def _random_member_spline(rng, n, T):
    """Random C^(n-1) spline on [0, T] with rational coefficients, built by
    integrating a random piecewise-constant n-th derivative n times."""
    pieces = rng.randint(1, 4)
    knots = [F(0)]
    for _ in range(pieces):
        knots.append(knots[-1] + F(rng.randint(1, 8), 8))
    scale = F(knots[-1])
    knots = [k * T / scale for k in knots]
    polys = []
    state = [F(rng.randint(-4, 4), 8) for _ in range(n)]  # f(t0), f'(t0), ...
    for i in range(pieces):
        cn = F(rng.choice([-1, 1]), rng.randint(1, 3))  # f^(n)/n! on this piece
        taylor = Poly(
            [state[j] / math.factorial(j) for j in range(n)]
        ).compose_affine(-knots[i], F(1))
        base = Poly([F(0), F(1)]).compose_affine(-knots[i], F(1))
        powp = Poly([F(1)])
        for _ in range(n):
            powp = powp * base
        full = taylor + powp * cn
        polys.append(full)
        state = [full.nth_derivative(j)(knots[i + 1]) for j in range(n)]
    return PiecewisePoly(knots, polys, n)


def _random_annihilating_functional(rng, n, T):
    """n+1 point evaluations, the first n coefficients solved (given the last
    one is 1) so that all monomials of degree < n are killed."""
    while True:
        alphas = sorted(F(rng.randint(0, 16), 16) * T for _ in range(n + 1))
        if len(set(alphas)) == n + 1:
            break
    lams = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
    matrix = [[alphas[i] ** j for i in range(n)] for j in range(n)]
    rhs = [-(alphas[n] ** j) for j in range(n)]
    # solve for the first n lambdas given lambda_n = 1
    from landaukol.peano import _solve_exact

    sol = _solve_exact(matrix, rhs)
    terms = tuple((alphas[i], 0, sol[i]) for i in range(n)) + ((alphas[n], 0, F(1)),)
    return LinearFunctional(terms, T, n)


def test_representation_identity_random():
    rng = random.Random(23)
    checked = 0
    while checked < 50:
        n = rng.choice([2, 2, 3, 4])
        T = F(rng.randint(1, 3))
        L = _random_annihilating_functional(rng, n, T)
        assert annihilates_polys(L)
        f = _random_member_spline(rng, n, T)
        lhs = L(f)
        rhs = 0.0
        pieces = kernel_pieces(L)
        fknots = [float(k) for k in f.knots]
        for lo, hi, poly in pieces:
            cuts = sorted({float(lo), float(hi)} | {k for k in fknots if float(lo) < k < float(hi)})
            for u, v in zip(cuts, cuts[1:]):
                mid = (u + v) / 2
                piece = f.pieces[f.piece_index(mid)]
                fn = float(piece.nth_derivative(n)(mid))  # constant on the piece
                anti = poly.antiderivative().to_float()
                rhs += fn * (anti(v) - anti(u))
        scale = max(1.0, abs(lhs))
        assert abs(lhs - rhs) <= 1e-8 * scale
        checked += 1


def test_kernel_bound_from_coefficients():
    rng = random.Random(29)
    for _ in range(10):
        n = rng.choice([2, 3])
        T = F(2)
        L = _random_annihilating_functional(rng, n, T)
        limit = sum(
            abs(float(lam)) * float(T) ** (n - 1 - m) / math.factorial(n - 1 - m)
            for _a, m, lam in L.terms
        )
        for i in range(201):
            t = 2.0 * i / 200
            assert abs(peano_kernel(L, t)) <= limit + 1e-12


def test_vandermonde_certificate_n2():
    cert = vandermonde_certificate(2, 1)
    assert cert.A >= 2.0  # Markov floor 2 |T_1'(1)|
    assert cert.A == pytest.approx(4.0, abs=1e-12)
    assert cert.B == pytest.approx(1.0, abs=1e-12)
    assert cert.segment_bound(1, 1, 2) >= 2.0  # sharp sup at T = 2 is 2
    # at the optimizing T the segment bound reproduces the scale-free form
    t_opt = cert.optimal_T(1, 1)
    assert cert.segment_bound(1, 1, t_opt) == pytest.approx(cert.optimized_bound(1, 1), rel=1e-12)


def test_vandermonde_certificate_n3():
    cert = vandermonde_certificate(3, 1)
    sharp = (9 / 8) ** (1 / 3)
    assert cert.segment_bound(1, 1, 50.0) > sharp
    assert cert.optimized_bound(1, 1) >= sharp


def test_certificate_scaling_invariance():
    cert = vandermonde_certificate(3, 2)
    rng = random.Random(31)
    for _ in range(20):
        a, b = rng.uniform(0.1, 5), rng.uniform(0.1, 5)
        mu, lam = rng.uniform(0.1, 3), rng.uniform(0.1, 3)
        lhs = cert.optimized_bound(mu * a, mu * lam**cert.n * b)
        rhs = mu * lam**cert.k * cert.optimized_bound(a, b)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_vandermonde_rejects_out_of_range():
    with pytest.raises(ValueError):
        vandermonde_certificate(13, 1)
    with pytest.raises(ValueError):
        vandermonde_certificate(4, 0)


# (A, B) as computed by one exact Vandermonde solve per grid point, as repr literals
PINNED_CERTIFICATES = {
    (4, 1): (90.66666666666667, 0.08012746456355713),
    (4, 2): (320.0, 0.38608276348795434),
    (4, 3): (512.0, 1.0),
    (5, 2): (1666.6666666666667, 0.07821404450888009),
    (6, 3): (39744.0, 0.07758842358092016),
    (8, 3): (823022.9333333333, 0.0010653421562810128),
}


@pytest.mark.parametrize("nk", list(PINNED_CERTIFICATES), ids=str)
def test_certificate_constants_are_pinned(nk):
    cert = vandermonde_certificate(*nk)
    assert (cert.A, cert.B) == PINNED_CERTIFICATES[nk]


def test_lagrange_derivatives_reproduce_polynomial_derivatives():
    # sum_i ell_i^(k)(x) p(alpha_i) = p^(k)(x) for every monomial of degree < n
    n, k = 5, 2
    alphas = certificate_nodes(n)
    basis = lagrange_derivatives(alphas, k)
    for x in (F(0), F(3, 7), F(1)):
        for j in range(n):
            lhs = sum(ell(x) * alpha**j for ell, alpha in zip(basis, alphas))
            assert lhs == (math.perm(j, k) * x ** (j - k) if j >= k else 0)


@pytest.mark.parametrize("n, k", [(4, 2), (6, 3)])
def test_suffix_sum_pieces_match_kernel_pieces(n, k):
    alphas = certificate_nodes(n)
    basis = lagrange_derivatives(alphas, k)
    expansions = [peano._power_over_factorial(alpha, n - 1) for alpha in alphas]
    # grid points off the nodes, on a node, and at both ends
    for x in (F(0), F(7, 200), F(1, 2), F(1, 3), F(133, 200), F(1)):
        lambdas = [ell(x) for ell in basis]
        pieces = peano._certificate_pieces(x, k, alphas, lambdas, expansions)
        assert pieces == kernel_pieces(certificate_functional(n, k, x))
