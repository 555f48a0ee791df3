"""The four workloads: how each round of operations is generated from the
seed, what each operation calls, and how its output is checked.

A round is a fixed mix of operations; the seed only draws the inputs.  Each
operation is one call into landaukol (or one `landau` process) and is timed
by itself; its check runs afterwards, untimed.  An operation's key names the
per-module metric its latency feeds.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Dict, List

import checks
import warmup
from checks import SQRT2, close, expect

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_THREADS = "1"


@dataclass
class Op:
    key: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    # False for the memory-bound LP solves, whose time the pure-Python
    # reference loop does not track: they are reported as measured
    ref_scaled: bool = True


def _ab(rng):
    return 10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-1, 1)


def _ab_pow4(rng):
    """(a, b) from powers of four: every length, value and slope of the
    problem then scales by a power of two, so the floating-point work, and
    its cost, is the same for every draw."""
    return 4.0 ** rng.randint(-2, 2), 4.0 ** rng.randint(-2, 2)


def _pointwise_case(rng, branch: str):
    """(T', t0') in unit coordinates, well inside the requested branch."""
    if branch == "interior":
        T = rng.uniform(6, 20)
        return T, rng.uniform(SQRT2 + 0.1, T - SQRT2 - 0.1)
    t0 = rng.uniform(0.05, 0.6)
    reach = t0 + math.sqrt(2 * t0 * t0 + 4) - t0
    if branch == "short":
        return rng.uniform(max(2 * t0, 0.2), reach - 0.05), t0
    return rng.uniform(reach + 0.05, reach + 5), t0


def _sigma1_unit_T(rng, regime: str) -> float:
    if regime == "T<=2":
        return rng.uniform(0.2, 1.95)
    if regime == "2<=T<=4":
        return rng.uniform(2.05, 3.95)
    if regime == "lattice":
        return 4 + rng.randint(0, 33) * checks.LATTICE
    while True:
        T = rng.uniform(4.5, 100)
        if abs((T - 4) / checks.LATTICE - round((T - 4) / checks.LATTICE)) > 0.01:
            return T


def check_sigma1(lower, upper, exact, a, T_unit, what):
    ref = checks.sigma1_exact_unit(T_unit)
    if ref is not None:
        expect(exact is not None, f"{what}: expected an exact value at T'={T_unit}")
        close(exact, a * ref, 1e-9, what)
        close(lower, exact, 1e-12, what)
        close(upper, exact, 1e-12, what)
        return
    expect(exact is None, f"{what}: unexpected exact value at T'={T_unit}")
    below, above = checks.sigma1_bracket_unit(T_unit)
    expect(lower <= upper, f"{what}: interval [{lower}, {upper}] is empty")
    expect(upper >= a * below * (1 - 1e-12), f"{what}: upper {upper} below sigma_1 at the lattice point below")
    expect(lower <= a * above * (1 + 1e-12), f"{what}: lower {lower} above sigma_1 at the lattice point above")


# -- in-process sessions ------------------------------------------------------------


class Session:
    """A library session: one process importing landaukol and calling it."""

    def setup(self) -> None:
        """Imports and warm-up, as warmup.py times them."""
        warmup.SETUP[self.name]()
        import landaukol

        self.lk = landaukol

    def reset(self) -> None:
        """Forget per-run state so a replay of the same seed repeats the stream."""
        self.stats: Dict[str, list] = {}

    def note(self, key: str, value) -> None:
        self.stats.setdefault(key, []).append(value)


class ClosedForm(Session):
    name = "closed-form-session"
    # Most calls are cheap closed-form queries, so the median operation sits
    # in a dense cluster of them rather than between unlike costs.  One Euler
    # order per round, cycling 3..7, keeps the exact checks to a fifth of the
    # operations; every five rounds cover each order once.
    EULER_ORDERS = (3, 4, 5, 6, 7)

    def reset(self) -> None:
        super().reset()
        self.rounds = 0

    def round(self, rng) -> List[Op]:
        lk = self.lk
        from landaukol import eulerspline, landau2, landaun, peano
        from landaukol.pwpoly import PiecewisePoly

        ops: List[Op] = []

        def bound(key, n, k, a, b, dom, check):
            q = lk.BoundQuery(n, k, a, b, dom)
            ops.append(Op(key, lambda: lk.compute_bound(q), check))

        def check_line(n, k, a, b):
            def check(r):
                expect(r.status == lk.EXACT, "line status")
                close(r.value, checks.whole_line(n, k, a, b), 1e-9, f"line ({n},{k})")
                if (n, k) == (2, 1):
                    close(r.value, checks.line2(a, b), 1e-12, "line (2,1)")
                    checks.check_witness(r.witness.to_json_dict(), a, r.value, r.witness_point, "line witness")
            return check

        for _ in range(6):
            a, b = _ab(rng)
            n = rng.randint(2, 12)
            k = rng.randint(1, n - 1)
            bound("bounds.line", n, k, a, b, lk.FullLine, check_line(n, k, a, b))

        def check_half(n, k, a, b):
            def check(r):
                expect(r.value >= checks.whole_line(n, k, a, b) * (1 - 1e-9), f"half line ({n},{k}) below whole line")
                if n == 2:
                    close(r.value, checks.halfline2(a, b), 1e-12, "half line (2,1)")
                    checks.check_witness(r.witness.to_json_dict(), a, r.value, r.witness_point, "half-line witness")
                if n == 3:
                    close(r.value, checks.sato(k, a, b, math.inf), 1e-9, f"half line (3,{k})")
            return check

        # closed forms (n = 2, 3) and brackets (n >= 4) in fixed numbers
        for lo, hi in ((2, 3), (2, 3), (4, 30), (4, 30)):
            a, b = _ab(rng)
            n = rng.randint(lo, hi)
            k = rng.randint(1, n - 1)
            bound("bounds.halfline", n, k, a, b, lk.HalfLine, check_half(n, k, a, b))

        def check_seg2(a, b, T):
            def check(r):
                close(r.value, checks.seg2(a, b, T), 1e-12, f"segment n=2 T={T}")
                checks.check_witness(r.witness.to_json_dict(), a, r.value, r.witness_point, "segment witness")
            return check

        for _ in range(3):
            a, b = _ab(rng)
            switch = 2 * math.sqrt(a / b)
            for T in (switch * rng.uniform(0.3, 0.95), switch * rng.uniform(1.05, 5)):
                bound("bounds.segment2", 2, 1, a, b, lk.Segment(T), check_seg2(a, b, T))

        def check_seg3(k, a, b, T):
            return lambda r: close(r.value, checks.sato(k, a, b, T), 1e-9, f"segment n=3 k={k} T={T}")

        for _ in range(3):
            a, b = _ab(rng)
            switch = checks.sato_t0(a, b)
            for T in (switch * rng.uniform(0.3, 0.95), switch * rng.uniform(1.05, 3)):
                k = rng.randint(1, 2)
                bound("bounds.segment3", 3, k, a, b, lk.Segment(T), check_seg3(k, a, b, T))

        for _ in range(2):
            a, b = _ab(rng)
            n = rng.randint(2, 12)
            k = rng.randint(1, n - 1)
            ops.append(Op(
                "landaun.kolmogorov_bound",
                lambda n=n, k=k, a=a, b=b: landaun.kolmogorov_bound(n, k, a, b),
                lambda v, n=n, k=k, a=a, b=b: close(v, checks.whole_line(n, k, a, b), 1e-9, f"kolmogorov ({n},{k})"),
            ))

        cn = rng.randint(2, 30)
        ck = rng.randint(1, cn - 1)

        def check_cnk(br):
            expect(br.upper == min(br.matorin, br.malliavin), "bracket upper is not min(Matorin, Malliavin)")
            expect(br.upper >= checks.whole_line(cn, ck, 1, 1) * (1 - 1e-9), f"C({cn},{ck}) below whole line")
            known = {(2, 1): 2.0, (3, 1): checks.sato(1, 1, 1, math.inf), (3, 2): checks.sato(2, 1, 1, math.inf)}
            if (cn, ck) in known:
                close(br.exact, known[(cn, ck)], 1e-12, f"C({cn},{ck})")

        ops.append(Op("landaun.cnk_bracket", lambda: landaun.cnk_bracket(cn, ck), check_cnk))

        for branch in ("short", "free-end", "interior"):
            a, b = _ab(rng)
            Tu, tu = _pointwise_case(rng, branch)
            s = math.sqrt(b / a)
            T, t0 = Tu / s, tu / s
            if rng.random() < 0.5:
                t0 = T - t0
            box: Dict[str, Any] = {}

            def check_pw(r, a=a, b=b, T=T, t0=t0, branch=branch, box=box):
                expect(checks.pointwise_unit_branch(t0 * math.sqrt(b / a), T * math.sqrt(b / a)) == branch, "branch")
                expect(r.status == lk.EXACT, "pointwise status")
                close(r.value, checks.pointwise(a, b, T, t0), 1e-9, f"pointwise {branch}")
                box["witness"] = r.witness
                box["value"], box["point"] = r.value, r.witness_point

            def check_json(w, box=box, a=a):
                orig = box["witness"]
                expect([float(k) for k in w.knots] == [float(k) for k in orig.knots], "JSON round trip knots")
                box["witness"] = w
                checks.check_witness(w.to_json_dict(), a, box["value"], box["point"], "pointwise witness")

            def check_member(rep):
                expect(rep.ok and rep.numeric, f"pointwise witness not a member: {rep.violations}")

            def check_extreme(v):
                expect(v.is_extreme, "pointwise witness not certified extreme")

            q = landau2.PointwiseQuery(t0, T, a, b)
            ops.append(Op("landau2.sigma_pointwise", lambda q=q: landau2.sigma_pointwise(q), check_pw))
            ops.append(Op(
                "pwpoly.json_roundtrip",
                lambda box=box: PiecewisePoly.from_json(box["witness"].to_json()),
                check_json,
            ))
            ops.append(Op(
                "pwpoly.membership_float",
                lambda box=box, a=a, b=b: lk.membership(box["witness"], 2, a, b),
                check_member,
            ))
            if branch == "interior":
                # is_extreme_point misses the float comparison train's
                # tangential contacts for about one (a, b) in 1500; left out
                continue
            ops.append(Op(
                "pwpoly.extreme_float",
                lambda box=box, a=a, b=b: lk.is_extreme_point(box["witness"], 2, a, b),
                check_extreme,
            ))

        for regime in ("T<=2", "2<=T<=4", "lattice", "interval"):
            a, b = _ab(rng)
            Tu = _sigma1_unit_T(rng, regime)
            T = Tu * math.sqrt(a / b)

            def check_s1(r, a=a, Tu=Tu):
                check_sigma1(r.lower, r.upper, r.exact, a, Tu, f"sigma1 T'={Tu}")
                if r.witness is not None:
                    w = checks.JsonSpline(r.witness.to_json_dict())
                    expect(w.sup_on_grid() <= a * (1 + 1e-9), "sigma1 witness leaves |f| <= a")
                    close(w.variation(), r.exact, 1e-9, "sigma1 witness variation")

            key = "landau2.sigma1_interval" if regime == "interval" else "landau2.sigma1"
            ops.append(Op(key, lambda a=a, b=b, T=T: landau2.sigma1(a, b, T), check_s1))

        for n in (self.EULER_ORDERS[self.rounds % len(self.EULER_ORDERS)],):
            x0 = Fraction(rng.randint(0, 8), 4)
            box = {}

            def check_export(sp, n=n, box=box):
                expect(sp.is_exact(), "Euler spline export is not exact")
                lead = sp.pieces[0].coeffs[n]
                box["b"] = abs(lead) * math.factorial(n)
                close(float(box["b"]), 1 / checks.s_const(n), 1e-12, f"Euler spline n={n} top derivative")
                w = checks.JsonSpline(sp.to_json_dict())
                sup = w.sup_on_grid()
                expect(1 - 1e-3 <= sup <= 1 + 1e-6, f"Euler spline n={n} sup {sup}")  # float evaluation
                box["spline"] = sp

            def check_exact_member(rep, n=n):
                expect(rep.ok and not rep.numeric, f"Euler spline n={n} failed exact membership")

            def check_exact_extreme(v, n=n):
                expect(v.is_extreme and v.multiplicity_sum >= n and not v.numeric, f"Euler spline n={n} not extreme")

            ops.append(Op(
                "eulerspline.export",
                lambda n=n, x0=x0: eulerspline.euler_spline_piecewise(n, x0, x0 + 6),
                check_export,
            ))
            ops.append(Op(
                "pwpoly.membership_exact",
                lambda n=n, box=box: lk.membership(box["spline"], n, Fraction(1), box["b"]),
                check_exact_member,
            ))
            ops.append(Op(
                "pwpoly.extreme_exact",
                lambda n=n, box=box: lk.is_extreme_point(box["spline"], n, Fraction(1), box["b"]),
                check_exact_extreme,
            ))

        T = Fraction(rng.randint(1, 40), 4)
        x = Fraction(rng.randint(0, 20), 20) * T
        ops.append(Op(
            "peano.kernel_l1",
            lambda x=x, T=T: peano.kernel_l1_norm(peano.derivative_functional(x, T)),
            lambda v, x=x, T=T: close(v, float((x * x + (T - x) ** 2) / (2 * T)), 1e-12, f"kernel L1 x={x} T={T}"),
        ))

        # known answers: the full parabola is extreme, half of it is not
        parabola = PiecewisePoly([Fraction(0), Fraction(4)], [lk.Poly([Fraction(1), Fraction(-2), Fraction(1, 2)])], 2)
        half = PiecewisePoly([Fraction(0), Fraction(4)], [lk.Poly([Fraction(1, 2), Fraction(-1), Fraction(1, 4)])], 2)
        ops.append(Op(
            "pwpoly.extreme_known",
            lambda: lk.is_extreme_point(parabola, 2, Fraction(1), Fraction(1)),
            lambda v: expect(v.is_extreme, "parabola -1 + (t-2)^2/2 on [0, 4] not certified extreme"),
        ))
        ops.append(Op(
            "pwpoly.extreme_known",
            lambda: lk.is_extreme_point(half, 2, Fraction(1), Fraction(1)),
            lambda v: expect(not v.is_extreme, "half parabola certified extreme"),
        ))
        self.rounds += 1
        return ops


class Certificate(Session):
    name = "certificate-session"
    # (n, k) sizes whose certificate costs at most about 1.5 s each
    MIX = ((4, 1), (4, 2), (4, 3), (5, 2), (6, 3))

    def reset(self) -> None:
        super().reset()
        self.seen = set()

    def round(self, rng) -> List[Op]:
        lk = self.lk
        mix = list(self.MIX)
        rng.shuffle(mix)
        ops = []
        for n, k in mix:
            a, b = _ab(rng)
            T = rng.uniform(0.5, 8) * (a / b) ** (1 / n)
            key = "peano.certificate_repeat" if (n, k) in self.seen else "peano.certificate_first"
            self.seen.add((n, k))
            q = lk.BoundQuery(n, k, a, b, lk.Segment(T))

            def check(r, n=n, k=k, a=a, b=b, T=T):
                expect(r.status == lk.UPPER_BOUND and r.provenance == "vandermonde-certificate", "certificate route")
                cheb = checks.chebyshev_member(n, k, a, T)
                expect(r.value >= cheb * (1 - 1e-12), f"certificate ({n},{k}) {r.value} below the Chebyshev member {cheb}")
                line = checks.whole_line(n, k, a, b)
                expect(r.value >= line * (1 - 1e-9), f"certificate ({n},{k}) {r.value} below the whole line {line}")

            ops.append(Op(key, lambda q=q: lk.compute_bound(q), check))
        return ops


class OracleSession(Session):
    name = "oracle-session"
    LP_CASES = (("short", 1.0, 0.0), ("free-end", 4.0, 0.5), ("interior", 10.0, 5.0))

    def _lp(self, key, M, a, b, Tu, tu):
        from landaukol import oracle

        s = math.sqrt(b / a)
        T, t0 = Tu / s, tu / s

        def check(out):
            value, _v, pivots = out
            tol = 5 * b * T / M
            ref = checks.pointwise(a, b, T, t0)
            expect(abs(value - ref) <= tol, f"LP M={M} T'={Tu} t0'={tu}: {value} vs {ref} (tol {tol})")
            if M == 800:
                self.note("pivots", pivots)
                # (M+1) box rows and 2(M-1) curvature rows over M+1 variables,
                # plus slacks, the objective row and the right-hand side
                rows, cols = (M + 1) + 2 * (M - 1), M + 1
                self.note("tableau_mb", (rows + 1) * (cols + rows + 1) * 8 / 1e6)

        return Op(key, lambda: oracle.build_pointwise_lp(a, b, T, t0, M).solve(), check, ref_scaled=False)

    def round(self, rng) -> List[Op]:
        from landaukol import oracle

        lk = self.lk
        ops = []
        # Twelve random members, each with membership and total variation,
        # put the median inside the cluster of total-variation calls, with
        # enough of them in a run for a steady median.  Lengths and member
        # seeds are fixed per slot and the classes come from _ab_pow4, so
        # only the class varies with the seed: with log-uniform classes and
        # seeded members one round's cost moved by a quarter from seed to
        # seed.
        for i in range(12):
            m_Tu, m_seed = 3.0 * (1 + i % 4), 101 + i
            a, b = _ab_pow4(rng)
            m_T = m_Tu * math.sqrt(a / b)
            box: Dict[str, Any] = {}

            def check_rm(f, a=a, box=box):
                box["f"] = f
                w = checks.JsonSpline(f.to_json_dict())
                expect(w.sup_on_grid() <= a * (1 + 1e-9), "random member leaves |f| <= a")

            ops.append(Op(
                "oracle.random_member",
                lambda a=a, b=b, m_T=m_T, m_seed=m_seed: oracle.random_member(a, b, m_T, seed=m_seed),
                check_rm,
            ))
            ops.append(Op(
                "pwpoly.membership_float",
                lambda a=a, b=b, box=box: lk.membership(box["f"], 2, a, b),
                lambda rep: expect(rep.ok, f"random member failed membership: {rep.violations}"),
            ))
            ops.append(Op(
                "pwpoly.total_variation",
                lambda box=box: lk.total_variation(box["f"]),
                lambda v, box=box: close(v, checks.JsonSpline(box["f"].to_json_dict()).variation(), 1e-9, "random member variation"),
            ))
        for _branch, Tu, tu in self.LP_CASES:
            a, b = _ab_pow4(rng)
            ops.append(self._lp("oracle.lp200", 200, a, b, Tu, tu))
        a, b = _ab_pow4(rng)
        ops.append(self._lp("oracle.lp800", 800, a, b, 10.0, 5.0))
        # The searches run on the unit class with a fixed seed per slot:
        # Nelder-Mead's cost moved threefold with its seed, and its absolute
        # tolerances make the cost depend on (a, b) even for powers of four.
        # Four of them keep the memory-bound M = 800 solve, which the
        # reference loop does not track, to about a third of a round.
        for Tu, seed in ((1.5, 7), (2.5, 11), (1.5, 13), (2.5, 17)):
            a, b, T = 1.0, 1.0, Tu

            def check_bb(out, a=a, b=b, T=T, Tu=Tu):
                value, control = out
                target = a * checks.sigma1_exact_unit(Tu)
                expect(target - 1e-3 * a <= value <= target + 1e-9 * a, f"bang-bang T'={Tu}: {value} vs {target}")
                w = checks.JsonSpline(control.to_piecewise(b, T).to_json_dict())
                expect(w.sup_on_grid() <= a * (1 + 1e-9), "bang-bang member leaves |f| <= a")
                close(w.variation(), value, 1e-8, "bang-bang member variation")

            ops.append(Op(
                "oracle.bangbang",
                lambda a=a, b=b, T=T, seed=seed: oracle.bangbang_sigma1_search(a, b, T, restarts=20, seed=seed),
                check_bb,
            ))
        return ops


# -- the CLI ------------------------------------------------------------------------


def load_package() -> None:
    """Import landaukol from this checkout's src/, refusing any other copy."""
    import importlib

    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("landaukol")
    if Path(pkg.__file__).resolve().parent != (SRC / "landaukol").resolve():
        raise ImportError(f"landaukol imported from {pkg.__file__}, not from {SRC}")


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "LANDAU_SEED"}
    env["PYTHONPATH"] = str(SRC)
    env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    return env


class Cli:
    name = "cli-roundtrip"

    def reset(self) -> None:
        self.stats = {}

    def landau(self, *args: str) -> subprocess.CompletedProcess:
        cmd = [sys.executable, "-m", "landaukol.cli", *args]
        return subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=150)

    def _run(self, key, args, check) -> Op:
        def call():
            return self.landau(*args)

        def full_check(res: subprocess.CompletedProcess):
            expect(res.returncode == 0, f"landau {' '.join(args)} exited {res.returncode}: {res.stderr.strip()[-300:]}")
            check(res)

        return Op(key, call, full_check)

    def round(self, rng) -> List[Op]:
        ops = []
        r = repr

        def result(res: subprocess.CompletedProcess) -> dict:
            return json.loads(res.stdout)["result"]

        a, b = _ab(rng)
        switch = 2 * math.sqrt(a / b)
        T = switch * (rng.uniform(0.3, 0.95) if rng.random() < 0.5 else rng.uniform(1.05, 5))
        ops.append(self._run(
            "cli.bound", ["bound", "--n", "2", "--a", r(a), "--b", r(b), "--T", r(T)],
            lambda res, a=a, b=b, T=T: close(result(res)["value"], checks.seg2(a, b, T), 1e-12, "cli segment n=2"),
        ))

        a, b = _ab(rng)
        Tu, tu = _pointwise_case(rng, rng.choice(("short", "free-end", "interior")))
        s = math.sqrt(b / a)
        T, t0 = Tu / s, tu / s
        ops.append(self._run(
            "cli.bound", ["bound", "--n", "2", "--a", r(a), "--b", r(b), "--T", r(T), "--t0", r(t0)],
            lambda res, a=a, b=b, T=T, t0=t0: close(result(res)["value"], checks.pointwise(a, b, T, t0), 1e-9, "cli pointwise"),
        ))

        a, b = _ab(rng)
        k = rng.randint(1, 2)
        T = checks.sato_t0(a, b) * rng.uniform(0.3, 2)
        ops.append(self._run(
            "cli.bound", ["bound", "--n", "3", "--k", str(k), "--a", r(a), "--b", r(b), "--T", r(T)],
            lambda res, k=k, a=a, b=b, T=T: close(result(res)["value"], checks.sato(k, a, b, T), 1e-9, "cli segment n=3"),
        ))

        a, b = _ab(rng)
        n = rng.randint(3, 12)
        k = rng.randint(1, n - 1)
        ops.append(self._run(
            "cli.bound", ["bound", "--n", str(n), "--k", str(k), "--a", r(a), "--b", r(b), "--domain", "line"],
            lambda res, n=n, k=k, a=a, b=b: close(result(res)["value"], checks.whole_line(n, k, a, b), 1e-9, "cli line"),
        ))

        a, b = _ab(rng)
        n = rng.randint(4, 30)
        k = rng.randint(1, n - 1)

        def check_half(res, n=n, k=k, a=a, b=b):
            out = result(res)
            line = checks.whole_line(n, k, a, b)
            expect(out["value"] >= line * (1 - 1e-9), f"cli half line ({n},{k}) below whole line")
            expect(out["bracket"]["upper"] == out["value"], "cli half-line bracket upper")

        ops.append(self._run(
            "cli.bound", ["bound", "--n", str(n), "--k", str(k), "--a", r(a), "--b", r(b), "--domain", "halfline"],
            check_half,
        ))

        a, b = _ab(rng)
        Tu = _sigma1_unit_T(rng, rng.choice(("T<=2", "2<=T<=4", "lattice", "interval")))
        T = Tu * math.sqrt(a / b)

        def check_var(res, a=a, Tu=Tu):
            out = result(res)
            check_sigma1(out["lower"], out["upper"], out["exact"], a, Tu, "cli sigma1")

        ops.append(self._run(
            "cli.bound", ["bound", "--n", "2", "--a", r(a), "--b", r(b), "--T", r(T), "--functional", "var"],
            check_var,
        ))

        a, b = _ab(rng)
        # not the interior branch: its witness fails `verify --extreme` for
        # about one (a, b) in 1500 (see closed-form-session)
        Tu, tu = _pointwise_case(rng, rng.choice(("short", "free-end")))
        s = math.sqrt(b / a)
        T, t0 = Tu / s, tu / s
        witness = OUT / "witness.json"

        def check_extremal(res, a=a, b=b, T=T, t0=t0):
            expect(result(res)["membership"] == "ok", "cli extremal membership")
            doc = json.loads(witness.read_text())
            checks.check_witness(doc, a, checks.pointwise(a, b, T, t0), t0, "cli extremal witness")

        ops.append(self._run(
            "cli.extremal",
            ["extremal", "--n", "2", "--a", r(a), "--b", r(b), "--T", r(T), "--t0", r(t0), "--out", str(witness)],
            check_extremal,
        ))

        def check_verify(res):
            out = result(res)
            expect(out["membership"] is True and out["is_extreme"] is True, f"cli verify: {out}")

        ops.append(self._run(
            "cli.verify", ["verify", "--file", str(witness), "--a", r(a), "--b", r(b), "--extreme"], check_verify,
        ))

        max_n = rng.randint(6, 12)

        def check_table(res, max_n=max_n):
            rows = list(csv.DictReader(io.StringIO(res.stdout)))
            expect(len(rows) == sum(n - 1 for n in range(2, max_n + 1)), "cli cnk table row count")
            known = {(2, 1): 2.0, (3, 1): checks.sato(1, 1, 1, math.inf), (3, 2): checks.sato(2, 1, 1, math.inf)}
            for row in rows:
                n, k = int(row["n"]), int(row["k"])
                expect(float(row["upper"]) >= checks.whole_line(n, k, 1, 1) * (1 - 1e-9), f"cli C({n},{k}) below whole line")
                if (n, k) in known:
                    close(float(row["exact"]), known[(n, k)], 1e-12, f"cli C({n},{k})")

        ops.append(self._run("cli.table", ["table", "--what", "cnk", "--max-n", str(max_n)], check_table))
        return ops


WORKLOADS = {w.name: w for w in (Cli, ClosedForm, Certificate, OracleSession)}
