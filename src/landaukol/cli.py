"""Command-line front end: bound queries, extremal witness emission, oracle
runs, constant tables, and kernel/spline sampling.

Results go to stdout as a JSON envelope (CSV for table/kernel/spline),
diagnostics to stderr.  Exit codes: 0 success or verified, 1 verification
negative, 2 usage or parse error or a closed stdout.  LANDAU_SEED overrides
--seed.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from typing import List, Optional

from . import eulerspline, landaun
from .bounds import BoundQuery, BoundResult, FullLine, HalfLine, Segment, compute_bound
from .exactnum import euler_number

SCHEMA_VERSION = "1"


def _emit(command: str, result, provenance: List[str]) -> None:
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "result": result,
        "provenance": provenance,
    }
    json.dump(envelope, sys.stdout)
    sys.stdout.write("\n")


def _fail(message: str, code: int = 2) -> int:
    print(message, file=sys.stderr)
    return code


def _query(args) -> BoundQuery:
    if args.domain != "segment":
        if args.T is not None:
            raise ValueError("--T only applies to --domain segment")
        domain = FullLine if args.domain == "line" else HalfLine
    elif args.T is None:
        raise ValueError("--domain segment requires --T")
    else:
        domain = Segment(args.T)
    return BoundQuery(args.n, args.k, args.a, args.b, domain, args.functional, args.t0)


def _provenance(query: BoundQuery, result: BoundResult) -> str:
    return f"sigma1-{result.provenance}" if query.functional == "var" else result.provenance


def cmd_bound(args) -> int:
    query = _query(args)
    result = compute_bound(query)
    if query.functional == "var":
        out = {"lower": result.lower, "upper": result.upper, "exact": result.exact}
    else:
        out = {"value": result.value}
    out.update(status=result.status, provenance=result.provenance)
    if result.bracket is not None:
        out["bracket"] = result.bracket.as_dict(query.a, query.b)
    _emit("bound", out, [_provenance(query, result)])
    return 0


def cmd_extremal(args) -> int:
    from .pwpoly import membership  # deferred: only extremal and verify check splines

    query = _query(args)
    result = compute_bound(query)
    witness = result.witness
    provenance = _provenance(query, result)
    if witness is None:
        raise ValueError(f"no extremal witness available for this query ({provenance})")
    report = membership(witness, query.n, query.a, query.b)
    if not report.ok:
        return _fail(f"internal error: witness failed membership: {report.violations}", 1)
    doc = witness.to_json_dict()
    out = {"spline": doc}
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(json.dumps(doc) + "\n")
        except OSError as exc:
            return _fail(f"error: cannot write spline: {exc}")
        out = {"written": args.out}
    _emit("extremal", {**out, "membership": "ok"}, [provenance])
    return 0


# the options that only one oracle problem reads, by that problem
ORACLE_OPTIONS = {"pointwise": ("t0", "M"), "sigma1": ("restarts", "max_switches", "seed")}


def cmd_oracle(args) -> int:
    pointwise = args.problem == "pointwise"
    if pointwise and (args.t0 is None or args.T is None):
        return _fail("error: oracle pointwise needs --T and --t0")
    if args.T is None:
        return _fail("error: oracle sigma1 needs --T")
    other = "sigma1" if pointwise else "pointwise"
    for name in ORACLE_OPTIONS[other]:
        if getattr(args, name) is not None:
            return _fail(f"error: --{name.replace('_', '-')} only applies to --problem {other}")
    # validates before the LP or the search; a sigma1 query has no t0
    query = BoundQuery(2, 1, args.a, args.b, Segment(args.T), "sup" if pointwise else "var", args.t0)

    from . import oracle  # deferred: only the oracles need numpy

    config = {"problem": args.problem, "a": args.a, "b": args.b, "T": args.T}
    if pointwise:
        M = 400 if args.M is None else args.M
        value = oracle.lp_max_pointwise_derivative(args.a, args.b, args.T, args.t0, M)
        config.update(t0=args.t0, M=M)
        extra, method = {}, "lp-discretized-class"
    else:
        restarts = 50 if args.restarts is None else args.restarts
        seed = int(os.environ.get("LANDAU_SEED", 0 if args.seed is None else args.seed))
        value, control = oracle.bangbang_sigma1_search(
            args.a, args.b, args.T, max_switches=args.max_switches, restarts=restarts, seed=seed,
        )
        config.update(restarts=restarts, seed=seed)
        extra = {"control": control._asdict()}  # json writes the switches tuple as a list
        method = "bangbang-switching-search"
    closed = compute_bound(query).exact
    result = {"value": value, "status": "OracleApprox", "config": config, **extra,
              "discrepancy_vs_closed_form": None if closed is None else (value - closed) / closed}
    _emit("oracle", result, [method])
    return 0


def _cnk_values(n: int, k: int) -> list:
    br = landaun.cnk_bracket(n, k)
    exact = "" if br.exact is None else repr(br.exact)
    return [exact, repr(br.upper), repr(br.matorin), repr(br.malliavin), repr(br.lower)]


# name: (CSV header, the values after n or (n, k)); the order is that of --help
TABLES = {
    "favard": (["n", "K_n"], lambda n: [repr(eulerspline.favard(n))]),
    "euler-numbers": (["n", "E_n"], lambda n: [euler_number(n)]),
    "rn": (["n", "r_n"], lambda n: [eulerspline.r_n(n)]),
    "cnk": (["n", "k", "exact", "upper", "matorin", "malliavin", "lower_shape_kappa_free"], _cnk_values),
    "Ank": (["n", "k", "A_nk"], lambda n, k: [landaun.A_nk_markov(n, k)]),
    "Bnk": (["n", "k", "kallioniemi", "cartan", "lower_bound"],
            lambda n, k: [landaun.B_nk_kallioniemi(n, k), landaun.B_nk_cartan(n, k), landaun.B_nk_lower(n, k)]),
}


def cmd_table(args) -> int:
    header, values = TABLES[args.what]
    if header[1] == "k":  # 2 <= n <= max_n and 0 < k < n
        keys = [(n, k) for n in range(2, args.max_n + 1) for k in range(1, n)]
    else:
        keys = [(n,) for n in range(args.max_n + 1)]
    return _write_csv(header, ([*key, *values(*key)] for key in keys))


def _write_csv(header: List[str], rows) -> int:
    import csv  # deferred: the JSON commands do not write CSV

    rows = list(rows)  # before the header: a failing row prints nothing
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return 0


def _sample_csv(header: List[str], x0: float, x1: float, samples: int, fn) -> int:
    lo, width = Fraction(x0), Fraction(x1) - Fraction(x0)
    # each point rounded once from the exact one, so it lies in [x0, x1] and
    # the last one is x1, where x0 + (x1 - x0) * i could overflow
    xs = (float(lo + width * i / (samples - 1)) for i in range(samples))
    return _write_csv(header, ([repr(x), repr(fn(x))] for x in xs))


def cmd_kernel(args) -> int:
    from . import peano  # deferred: only this command needs it

    if args.n == 2:
        if args.k != 1:
            return _fail("error: the kernel of order n = 2 is that of f'; use --k 1")
        L = peano.derivative_functional(args.x, args.T)
    else:
        if args.T != 1.0:
            return _fail("error: kernels of order n > 2 are built on [0, 1]; use --T 1")
        if not 0 <= args.x <= 1:
            return _fail("error: need 0 <= x <= 1")
        if not 0 < args.k < args.n:
            return _fail("error: need 0 < k < n")
        L = peano.certificate_functional(args.n, args.k, Fraction(args.x).limit_denominator(10**9))
    return _sample_csv(["t", "K"], 0.0, float(L.T), args.samples, lambda t: peano.peano_kernel(L, t))


def cmd_spline(args) -> int:
    if args.what == "en":
        fn = lambda x: eulerspline.e_n(args.n, x)
    elif args.what == "euler-spline":
        fn = lambda x: eulerspline.euler_spline(args.n, x)
    else:  # qn
        fn = lambda x: eulerspline.q_n(args.n, x)
    x0 = 0.0 if args.x0 is None else args.x0
    if args.x1 is not None:
        x1 = args.x1
    else:  # two full periods of q_n, [0, 2] for the others
        x1 = 4.0 / eulerspline.q_n_scale(args.n) if args.what == "qn" else 2.0
    if not (math.isfinite(x0) and math.isfinite(x1)):
        return _fail("error: --x0 and --x1 must be finite")
    return _sample_csv(["x", "value"], x0, x1, args.samples, fn)


def cmd_verify(args) -> int:
    from .pwpoly import MembershipError, MembershipReport, PiecewisePoly, StructuralError, is_extreme_point, membership

    try:
        with open(args.file) as fh:
            spline = PiecewisePoly.from_json(fh.read())
    except (OSError, StructuralError) as exc:
        return _fail(f"error: cannot read spline: {exc}")
    n = args.n if args.n is not None else spline.n_smooth
    try:  # the certificate checks membership in its own pass
        verdict = is_extreme_point(spline, n, args.a, args.b) if args.extreme else None
        report = membership(spline, n, args.a, args.b) if verdict is None else MembershipReport(True, verdict.numeric)
    except MembershipError as exc:
        verdict, report = None, exc.report
    result = {
        "membership": report.ok,
        "numeric": report.numeric,
        "violations": [v._asdict() for v in report.violations],
    }
    if verdict is not None:
        result["is_extreme"] = verdict.is_extreme
        result["multiplicity_sum"] = (
            "inf" if math.isinf(verdict.multiplicity_sum) else verdict.multiplicity_sum
        )
        result["contact_points"] = [cp._asdict() for cp in verdict.contact_points]
        result["contact_intervals"] = [iv._asdict() for iv in verdict.contact_intervals]
        result["condition_ii_violations"] = list(verdict.condition_ii_violations)
    _emit("verify", result, ["membership-check" if not args.extreme else "extreme-point-certificate"])
    return 0 if report.ok and (verdict is None or verdict.is_extreme) else 1


def _samples(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 samples, got {value}")
    return value


def number(text: str):
    """A bound of `verify` as typed: a finite nonzero decimal is read exactly,
    so an exact spline gets an exact verdict; 0, nan and inf stay floats,
    which the check refuses."""
    x = float(text)
    return Fraction(text) if 0 < abs(x) < math.inf else x


def _add_bound_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=2, help="derivative class order")
    p.add_argument("--k", type=int, default=1, help="derivative order to bound")
    p.add_argument("--a", type=float, default=1.0, help="bound on |f|")
    p.add_argument("--b", type=float, default=1.0, help="bound on |f^(n)|")
    p.add_argument("--domain", choices=["segment", "halfline", "line"], default="segment")
    p.add_argument("--T", type=float, help="segment length")
    p.add_argument("--t0", type=float, help="point for the pointwise problem (n = 2)")
    p.add_argument(
        "--functional",
        choices=["sup", "var"],
        default="sup",
        help="sup-norm of f^(k), or total variation of f (n = 2 segments)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="landau",
        description="Sharp bounds for intermediate derivatives of functions with "
        "|f| <= a and |f^(n)| <= b, with extremal witnesses and oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="compute a bound (JSON)")
    _add_bound_flags(p)
    p.set_defaults(fn=cmd_bound)

    p = sub.add_parser("extremal", help="emit a membership-checked extremal witness spline")
    _add_bound_flags(p)
    p.add_argument("--out", help="write the spline JSON to this file")
    p.set_defaults(fn=cmd_extremal)

    p = sub.add_parser("oracle", help="brute-force verification (JSON)")
    p.add_argument("--problem", choices=["pointwise", "sigma1"], default="pointwise")
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--T", type=float)
    p.add_argument("--t0", type=float)
    p.add_argument("--M", type=int, help="grid intervals for the LP (default 400)")
    p.add_argument("--restarts", type=int, help="sigma1 search restarts (default 50)")
    p.add_argument("--max-switches", type=int)
    p.add_argument("--seed", type=int, help="sigma1 search seed (default 0); LANDAU_SEED overrides it")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("table", help="emit constant tables (CSV)")
    p.add_argument("--what", choices=list(TABLES), required=True)
    p.add_argument("--max-n", type=int, default=10)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("kernel", help="sample a Peano kernel (CSV)")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--samples", type=_samples, default=201)
    p.set_defaults(fn=cmd_kernel)

    p = sub.add_parser("spline", help="sample Euler splines (CSV)")
    p.add_argument("--what", choices=["en", "euler-spline", "qn"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=_samples, default=201)
    p.add_argument("--x0", type=float, help="left end (default 0)")
    p.add_argument("--x1", type=float, help="right end (default 2; two periods for qn)")
    p.set_defaults(fn=cmd_spline)

    p = sub.add_parser("verify", help="check a spline JSON for membership/extremality")
    p.add_argument("--file", required=True)
    p.add_argument("--n", type=int, default=None, help="class order (default: the file's)")
    p.add_argument("--a", type=number, default="1")
    p.add_argument("--b", type=number, default="1")
    p.add_argument("--extreme", action="store_true")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except ValueError as exc:
        return _fail(f"error: {exc}")
    except MemoryError as exc:  # e.g. an oracle --M whose LP does not fit
        return _fail(f"error: out of memory: {str(exc) or 'the problem is too large'}")
    except BrokenPipeError:  # the reader left; as in the signal docs' "Note on SIGPIPE",
        # stdout goes to devnull so that the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
