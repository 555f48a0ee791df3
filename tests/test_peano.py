import collections
import functools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landaukol import _roots, peano
from landaukol.bounds import BoundQuery, Segment, compute_bound
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
    peano_kernel,
    vandermonde_certificate,
)
from landaukol.pwpoly import PiecewisePoly
from test_pwpoly import reference_abs_integral

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
    assert peano_kernel(L, F(1, 2)) == pytest.approx(0.5, abs=1e-15)  # the left limit at the jump


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


def test_kernel_l1_norm_is_the_reference_bit_for_bit():
    # the variation of an antiderivative of each kernel piece is the integral
    # of |K| split at its sign changes, the same rational rounded once
    def reference(L):
        return sum((reference_abs_integral(poly, lo, hi, True) for lo, hi, poly in kernel_pieces(L)), 0.0)

    rng = random.Random(7)
    functionals = [certificate_functional(n, rng.randint(1, n - 1), F(rng.randint(0, 1000), 1000))
                   for n in range(2, 10) for _ in range(6)]
    for _ in range(30):
        T = F(rng.randint(1, 40), 4)
        functionals.append(derivative_functional(F(rng.randint(0, 20), 20) * T, T))
        T = rng.uniform(0.01, 50.0)
        functionals.append(derivative_functional(rng.uniform(0.0, T), T))
    for L in functionals:
        assert repr(kernel_l1_norm(L)) == repr(reference(L))


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

    (sol,) = _solve_exact(matrix, [rhs])
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


def test_vandermonde_certificate_n3():
    cert = vandermonde_certificate(3, 1)
    sharp = (9 / 8) ** (1 / 3)
    assert cert.segment_bound(1, 1, 50.0) > sharp
    assert cert.segment_bound(1, 1, cert.optimal_T(1, 1)) >= sharp


def test_certificate_scaling_invariance():
    cert = vandermonde_certificate(3, 2)
    rng = random.Random(31)
    for _ in range(20):
        a, b = rng.uniform(0.1, 5), rng.uniform(0.1, 5)
        mu, lam = rng.uniform(0.1, 3), rng.uniform(0.1, 3)
        lhs = cert.segment_bound(mu * a, mu * lam**cert.n * b, cert.optimal_T(mu * a, mu * lam**cert.n * b))
        rhs = mu * lam**cert.k * cert.segment_bound(a, b, cert.optimal_T(a, b))
        assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize("n, k, a, b, T", [
    (12, 6, 1e-300, 1e300, 1.0),
    (10, 3, 2.143606754004768e-267, 3.619802352911548e290, 3.3135122483901055e145),
])
def test_certificate_bound_of_far_apart_a_and_b_follows_homogeneity(n, k, a, b, T):
    # T* = (A a / (n - k) / (B b / k))^(1/n) underflows to 0 here; the bound at
    # (a, b, T) is a^(1 - k/n) b^(k/n) times the (1, 1) bound at tau = T (b/a)^(1/n)
    value = compute_bound(BoundQuery(n, k, a, b, Segment(T))).value
    tau = T * b ** (1 / n) / a ** (1 / n)
    unit = compute_bound(BoundQuery(n, k, 1.0, 1.0, Segment(tau))).value
    assert value == pytest.approx(a ** (1 - k / n) * b ** (k / n) * unit, rel=1e-12)


def test_certificate_bound_past_the_float_range_is_refused():
    # at T = 1e-308 the term A a T^-6 alone is past the float range (by the
    # same identity, in logarithms); T* divided by B b / k = 0 here
    n, k, a, b, T = 12, 6, 1.7416429364733115e-184, 5e-324, 1e-308
    log_tau = math.log(T) + (math.log(b) - math.log(a)) / n
    log_term = (math.log(a) + math.log(b)) / 2 + math.log(vandermonde_certificate(n, k).A) - k * log_tau
    assert log_term > math.log(sys.float_info.max)
    with pytest.raises(ValueError, match="the bound is outside the float range"):
        compute_bound(BoundQuery(n, k, a, b, Segment(T)))


def test_vandermonde_rejects_out_of_range():
    with pytest.raises(ValueError):
        vandermonde_certificate(13, 1)
    with pytest.raises(ValueError):
        vandermonde_certificate(4, 0)


def test_lagrange_derivatives_reproduce_polynomial_derivatives():
    # sum_i ell_i^(k)(x) p(alpha_i) = p^(k)(x) for every monomial of degree < n
    n, k = 5, 2
    alphas = certificate_nodes(n)
    basis = lagrange_derivatives(alphas, k)
    for x in (F(0), F(3, 7), F(1)):
        for j in range(n):
            lhs = sum(ell(x) * alpha**j for ell, alpha in zip(basis, alphas))
            assert lhs == (math.perm(j, k) * x ** (j - k) if j >= k else 0)


def test_product_formula_basis_is_the_vandermonde_solution():
    # ell_i from the product formula against the coefficients that solve the
    # transposed Vandermonde system with right-hand side e_i
    for n in range(2, 13):
        alphas = certificate_nodes(n)
        matrix = [[alpha**m for m in range(n)] for alpha in alphas]
        units = [[F(int(i == j)) for j in range(n)] for i in range(n)]
        solved = [Poly(coeffs) for coeffs in peano._solve_exact(matrix, units)]
        for k in range(1, n):
            assert lagrange_derivatives(alphas, k) == [ell.nth_derivative(k) for ell in solved]


def _pieces_at(tab, slots, j):
    """Every kernel piece at x = j/grid, slot by slot from the slot forms."""
    return [piece for s, forms in enumerate(slots) for piece in peano._slot_pieces(tab, s, forms, j)]


@pytest.mark.parametrize("n, k", [(2, 1), (4, 2), (6, 3), (12, 11)])
def test_suffix_sum_pieces_match_kernel_pieces(n, k):
    # grid points off the nodes, on a node, and at both ends
    for x in (F(0), F(7, 200), F(1, 2), F(1, 3), F(133, 200), F(1)):
        tab = peano._grid_tables(n, k, x.denominator)
        j, unit = x.numerator, n * tab.grid
        pieces = _pieces_at(tab, peano._slot_forms(tab), j)
        pieces = [(F(lo, unit), F(hi, unit), Poly(F(c, tab.D) for c in nums)) for lo, hi, nums in pieces]
        assert pieces == kernel_pieces(certificate_functional(n, k, x))


# (A, B) for every supported (n, k), as repr literals
CERTIFICATE_TABLE = {
    (2, 1): (4.0, 1.0),
    (3, 1): (24.0, 0.39999999999999997),
    (3, 2): (36.0, 1.0),
    (4, 1): (90.66666666666667, 0.08012746456355713),
    (4, 2): (320.0, 0.38608276348795434),
    (4, 3): (512.0, 1.0),
    (5, 1): (280.0, 0.010397176427241583),
    (5, 2): (1666.6666666666667, 0.07821404450888009),
    (5, 3): (6000.0, 0.37969718408188124),
    (5, 4): (10000.0, 1.0000000000000036),
    (6, 1): (774.4, 0.0010032659047768027),
    (6, 2): (6720.0, 0.01045945515701404),
    (6, 3): (39744.0, 0.07758842358092016),
    (6, 4): (145152.0, 0.37713545270445714),
    (6, 5): (248832.0, 1.0000000000000142),
    (7, 1): (2001.0666666666666, 7.67876607775048e-05),
    (7, 2): (23293.51111111111, 0.0010369417085102361),
    (7, 3): (197568.0, 0.010544731926228956),
    (7, 4): (1165285.3333333333, 0.07748232982468428),
    (7, 5): (4302592.0, 0.3765976277442018),
    (7, 6): (7529536.0, 1.0),
    (8, 1): (4942.019047619047, 4.870437898407042e-06),
    (8, 2): (73113.6, 8.148155476740996e-05),
    (8, 3): (823022.9333333333, 0.0010653421562810128),
    (8, 4): (6881280.0, 0.010646539074360306),
    (8, 5): (40544938.666666664, 0.0776551771561873),
    (8, 6): (150994944.0, 0.37703598877533917),
    (8, 7): (268435456.0, 1.0),
    (9, 1): (11821.714285714286, 2.636330481029051e-07),
    (9, 2): (214033.37142857144, 5.295130829902246e-06),
    (9, 3): (3040416.0, 8.53362769426512e-05),
    (9, 4): (33466348.8, 0.001090377361145034),
    (9, 5): (277136640.0, 0.010756057865468627),
    (9, 6): (1632586752.0, 0.0779839398442359),
    (9, 7): (6122200320.0, 0.3780128913467711),
    (9, 8): (11019960576.0, 1.0000000000106866),
    (10, 1): (27619.555555555555, 1.2444250769686434e-08),
    (10, 2): (595159.3650793651, 2.9313548569517823e-07),
    (10, 3): (10297058.201058201, 5.651041954645667e-06),
    (10, 4): (142208000.0, 8.863406949341512e-05),
    (10, 5): (1540622222.2222223, 0.0011130721570278002),
    (10, 6): (12672000000.0, 0.010868554116831186),
    (10, 7): (74666666666.66667, 0.07839856473738571),
    (10, 8): (281600000000.0, 0.37928301830275757),
    (10, 9): (512000000000.0, 1.0000000000327418),
    (11, 1): (63373.409523809525, 5.207147483085077e-10),
    (11, 2): (1591074.8647619048, 1.4127252067678534e-08),
    (11, 3): (32656570.92063492, 3.185489666748722e-07),
    (11, 4): (547015771.5640211, 5.957851059324587e-06),
    (11, 5): (7400615552.0, 9.153406426112842e-05),
    (11, 6): (79237435575.46666, 0.0011339787118525013),
    (11, 7): (648533050880.0, 0.010981265017104391),
    (11, 8): (3823019189674.6665, 0.0788599989362524),
    (11, 9): (14487230613504.0, 0.38070770551845357),
    (11, 10): (26559922791424.0, 1.0),
    (12, 1): (143351.1341991342, 1.956599680654365e-11),
    (12, 2): (4123525.12, 6.026274809717167e-10),
    (12, 3): (98388939.33714285, 1.5618951241794167e-08),
    (12, 4): (1949168903.3142858, 3.4085533956462483e-07),
    (12, 5): (31870634276.57143, 6.228041652640154e-06),
    (12, 6): (424490670489.6, 9.413486390813519e-05),
    (12, 7): (4504220703129.6, 0.0011534390042040599),
    (12, 8): (36728463163392.0, 0.01109254285853467),
    (12, 9): (216628218298368.0, 0.07934476267592316),
    (12, 10): (824243952549888.0, 0.3822063086016101),
    (12, 11): (1521681143169024.0, 1.0000000012441888),
}


@pytest.mark.parametrize("nk", list(CERTIFICATE_TABLE), ids=str)
def test_certificate_constants_are_pinned(nk):
    cert = vandermonde_certificate(*nk)
    assert (cert.A, cert.B) == CERTIFICATE_TABLE[nk]


@functools.lru_cache(maxsize=None)
def _tables(n, k):
    return peano._grid_tables(n, k, peano.CERTIFICATE_GRID - 1)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_piece_bound_dominates_every_candidate(data):
    # the pruning bound of a piece is at least the largest value _kernel_sup
    # takes on it, for kernel pieces and for arbitrary integer numerators
    n = data.draw(st.integers(2, 12), label="n")
    k = data.draw(st.integers(1, n - 1), label="k")
    j = data.draw(st.integers(0, 200), label="j")
    tab = _tables(n, k)
    pieces = _pieces_at(tab, _forms(n, k), j)
    lo, hi, nums = data.draw(st.sampled_from(pieces), label="piece")
    if data.draw(st.booleans(), label="random numerators"):
        nums = data.draw(st.lists(st.integers(-tab.D, tab.D), min_size=n, max_size=n), label="nums")
    assert peano._kernel_sup([(lo, hi, nums)], tab) <= peano._piece_bound(tab, lo, hi, nums)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_critical_points_from_the_unit_search_match_a_search_of_the_piece(data):
    # the critical points _kernel_sup reuses from one search on [0, 1] are those a
    # search of any [lo, hi] in [0, 1] finds, for ends on a grid of up to 10^6 points;
    # the numerators are a slot piece's, random, or (q t - p)^2 (t + 2) with the
    # critical point p/q within 2e-9 of an end, where roots are kept with a tolerance
    n = data.draw(st.integers(2, 12), label="n")
    k = data.draw(st.integers(1, n - 1), label="k")
    j = data.draw(st.integers(0, 200), label="j")
    tab = _tables(n, k)
    unit = data.draw(st.integers(1, 10**6), label="unit")
    lo, hi = sorted(data.draw(st.lists(st.integers(0, unit), min_size=2, max_size=2), label="ends"))
    source = data.draw(st.sampled_from(["piece", "random", "near an end"]), label="numerators")
    if source == "piece":
        nums = data.draw(st.sampled_from(_pieces_at(tab, _forms(n, k), j)), label="piece")[2]
    elif source == "random":
        nums = data.draw(st.lists(st.integers(-tab.D, tab.D), min_size=n, max_size=n), label="nums")
    else:
        q = unit * 10**10
        p = data.draw(st.sampled_from([lo, hi]), label="end") * 10**10 + data.draw(st.integers(-20, 20), label="offset")
        nums = [2 * p * p, p * p - 4 * p * q, 2 * q * q - 2 * p * q, q * q]
    fp = Poly(c / tab.D for c in nums)
    lo_f, hi_f = lo / unit, hi / unit
    crit = {}
    peano._critical_points(crit, fp, nums, 0.0, 1.0)  # the search, as a first piece makes it
    want = _roots.real_roots_float(fp.derivative(), lo_f, hi_f) if fp.degree > 0 else []
    assert peano._critical_points(crit, fp, nums, lo_f, hi_f) == want


def test_certificate_mix_searches_each_distinct_polynomial_once(monkeypatch):
    # the five pairs of the certificate benchmark: one float root search per distinct
    # kernel polynomial of a call (210 with one per piece), and the runs left by the
    # branch and bound unchanged
    calls = collections.Counter()
    for owner, name in ((_roots, "real_roots_float"), (peano, "_kernel_sup")):
        def counted(*args, _f=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    for nk in ((4, 1), (4, 2), (4, 3), (5, 2), (6, 3)):
        vandermonde_certificate(*nk)
    assert calls["real_roots_float"] <= 23 and calls["_kernel_sup"] == 300


@functools.lru_cache(maxsize=None)
def _forms(n, k):
    return peano._slot_forms(_tables(n, k))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_run_bound_dominates_every_candidate(data):
    # the pruning bound of a run of grid points in one slot of t is at least the
    # largest value _kernel_sup takes on any piece of the slot at any point of the
    # run; half the runs are drawn near the points where x = j/200 is in the slot
    n = data.draw(st.integers(2, 12), label="n")
    k = data.draw(st.integers(1, n - 1), label="k")
    s = data.draw(st.integers(0, n - 1), label="slot")
    lo, hi = s * 200, (s + 1) * 200
    if data.draw(st.booleans(), label="x near the slot"):
        j0 = data.draw(st.integers(max(0, lo // n - 12), min(200, -(-hi // n))), label="j0")
    else:
        j0 = data.draw(st.integers(0, 200), label="j0")
    j1 = data.draw(st.integers(j0, min(200, j0 + 16)), label="j1")
    tab, forms = _tables(n, k), _forms(n, k)[s]
    bound = peano._slot_bound(tab, s, forms, j0, j1)
    d = n - 1 - k
    lam_bound = peano._shifted_abs(tab.lam, j0 + j1, j1 - j0, 1)
    for j in range(j0, j1 + 1):
        assert sum(map(abs, peano._at(tab.lam, j))) << d <= lam_bound
        for piece in peano._slot_pieces(tab, s, forms, j):
            assert peano._kernel_sup([piece], tab) <= bound


def _reference_constants(n, k, grid):
    """(A, B) from every grid point and every kernel piece at it, with the
    weights lambda_i(j/grid) lam_den from the Fraction basis and no pruning."""
    tab = peano._grid_tables(n, k, grid)
    basis = lagrange_derivatives(certificate_nodes(n), k)
    slots = peano._slot_forms(tab)
    A, B = 0, 0.0
    for j in range(grid + 1):
        lambdas = [ell(F(j, grid)) * tab.lam_den for ell in basis]
        assert all(lam.denominator == 1 for lam in lambdas)
        A = max(A, int(sum(map(abs, lambdas))))
        B = max([B] + [peano._kernel_sup([piece], tab) for piece in _pieces_at(tab, slots, j)])
    return A / tab.lam_den, B


@pytest.mark.parametrize("grid", [1, 7, 37, 64])
@pytest.mark.parametrize("nk", [(2, 1), (3, 2), (4, 1), (4, 3), (5, 2), (6, 3), (7, 6), (9, 4), (12, 1), (12, 11)], ids=str)
def test_branch_and_bound_matches_every_grid_point(nk, grid):
    assert peano._certificate_constants(*nk, grid) == _reference_constants(*nk, grid)
