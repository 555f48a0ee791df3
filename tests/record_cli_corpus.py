"""The CLI corpus: `landau` invocations with their exit code, stdout and
stderr, replayed in-process by `test_cli_corpus.py`.

Re-record after a change that means to move bytes, and list the changed
lines with the change:

    PYTHONPATH=src python tests/record_cli_corpus.py

Each line of `cli_corpus.jsonl` holds `argv`, the `files` written into a
fresh directory before the call, `code`, `stderr` and either `stdout` or,
for an output longer than `LONG` bytes, its `stdout_sha256` and `verdict`
(the membership or extremality it reports). `{tmp}` in argv and in the
recorded streams stands for that directory. Calls run in order in one
directory, so `verify` reads what an earlier `extremal --out` wrote.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

CORPUS = Path(__file__).with_name("cli_corpus.jsonl")
LONG = 4096  # bytes of stdout kept in full


def run_case(case: dict, tmp: str) -> dict:
    """Run one corpus call through `cli.main` and return its record."""
    from landaukol.cli import main

    for name, text in case.get("files", {}).items():
        Path(tmp, name).write_text(text)
    argv = [arg.replace("{tmp}", tmp) for arg in case["argv"]]
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps its usage lines at the terminal width
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse errors
            code = exc.code
    record = {k: case[k] for k in ("argv", "files") if k in case}
    stdout = out.getvalue().replace(tmp, "{tmp}")
    record.update(code=code, stderr=err.getvalue().replace(tmp, "{tmp}"))
    if len(stdout) <= LONG:
        record["stdout"] = stdout
    else:
        record["stdout_sha256"] = hashlib.sha256(stdout.encode()).hexdigest()
        record["verdict"] = _verdict(stdout)
    return record


def _verdict(stdout: str):
    if not stdout.startswith("{"):
        return None  # CSV
    result = json.loads(stdout)["result"]
    return result.get("is_extreme", result.get("membership"))


# -- the calls ----------------------------------------------------------------

AB = [("1", "1"), ("2", "0.5"), ("0.3", "7"), ("1e6", "1e-4")]
FAR = [("1e300", "1e-300"), ("1e-300", "1e300"), ("1e300", "1e300"), ("5e-324", "5e-324"), ("1e-150", "1e150")]
CERT_PAIRS = [(4, 1), (4, 2), (4, 3), (5, 2), (6, 3), (7, 4), (8, 3), (10, 5), (12, 6), (12, 11)]


def _ab(a: str, b: str) -> list:
    return ["--a", a, "--b", b]


def _bounds() -> list:
    cases = []
    for (a, b), far in [(ab, False) for ab in AB] + [(ab, True) for ab in FAR]:
        for T in ("1e-13", "1", "3", "1e6") if far else ("1e-13", "0.5", "1", "2", "2.0000000001", "3", "10", "1e6"):
            cases.append(["bound", "--n", "2", "--T", T, *_ab(a, b)])
        cases.append(["bound", "--n", "2", "--domain", "halfline", *_ab(a, b)])
        cases.append(["bound", "--n", "2", "--domain", "line", *_ab(a, b)])
        for T in ("1", "10") if far else ("1", "2.5", "10", "100"):
            for frac in (0, 0.5, 1) if far else (0, 0.1, 0.25, 0.5, 0.75, 0.9, 1):
                cases.append(["bound", "--n", "2", "--T", T, "--t0", repr(frac * float(T)), *_ab(a, b)])
        lattice = (repr(2 * math.sqrt(2) + 4), repr(6 * math.sqrt(2) + 4))
        for T in ("0.5", "3", lattice[0], "100") if far else ("0.5", "2", "3", "4", *lattice, "10", "100", "1e4"):
            cases.append(["bound", "--n", "2", "--T", T, "--functional", "var", *_ab(a, b)])
    for a, b in AB:
        for k in (1, 2):
            for T in ("0.5", "3", "100"):
                cases.append(["bound", "--n", "3", "--k", str(k), "--T", T, *_ab(a, b)])
            cases.append(["bound", "--n", "3", "--k", str(k), "--domain", "halfline", *_ab(a, b)])
        for n in range(3, 13):
            cases.append(["bound", "--n", str(n), "--k", str(n // 2), "--domain", "line", *_ab(a, b)])
    for n, k in CERT_PAIRS:
        for T in ("1", "3", "100"):
            cases.append(["bound", "--n", str(n), "--k", str(k), "--T", T])
        cases.append(["bound", "--n", str(n), "--k", str(k), "--T", "3", *_ab("2", "0.5")])
        cases.append(["bound", "--n", str(n), "--k", str(k), "--domain", "halfline"])
    for n in (5, 9, 17, 30):
        for k in (1, n // 2, n - 1):
            cases.append(["bound", "--n", str(n), "--k", str(k), "--domain", "halfline", *_ab("2", "0.5")])
    for n in (2, 5):
        for k in (0, n):
            cases.append(["bound", "--n", str(n), "--k", str(k), "--T", "1"])
            cases.append(["bound", "--n", str(n), "--k", str(k), "--domain", "halfline"])
    for n, k in ((3, 1), (5, 2), (8, 5), (12, 11)):
        cases.append(["bound", "--n", str(n), "--k", str(k), "--domain", "line", *_ab("1e300", "1e-300")])
    return [{"argv": argv} for argv in cases]


def _witness_cases(argv: list, n: str) -> list:
    """extremal to stdout, then to a file, then verify and verify --extreme on it."""
    out = "{tmp}/w.json"
    return [
        {"argv": ["extremal", *argv]},
        {"argv": ["extremal", *argv, "--out", out]},
        {"argv": ["verify", "--file", out, "--n", n, *argv[argv.index("--a"):argv.index("--a") + 4]]},
        {"argv": ["verify", "--file", out, "--n", n, *argv[argv.index("--a"):argv.index("--a") + 4], "--extreme"]},
    ]


def _extremals() -> list:
    routes = []
    for T in ("0.5", "1", "2", "2.0000000001", "2.5", "7"):
        routes.append(["--T", T])
    routes += [["--domain", "halfline"], ["--domain", "line"]]
    for T in ("2.5", "10", "30"):
        for frac in (0, 0.2, 0.5, 0.8, 1):  # above T/2 the witness is reflected
            routes.append(["--T", T, "--t0", repr(frac * float(T))])
    for T in ("0.5", "1.5", "2", "3", "4", repr(2 * math.sqrt(2) + 4), repr(4 * math.sqrt(2) + 4)):
        routes.append(["--T", T, "--functional", "var"])
    cases = []
    for a, b in (("1", "1"), ("2", "0.5"), ("0.3", "7")):
        for route in routes:
            cases += _witness_cases(["--n", "2", *route, *_ab(a, b)], "2")
    for n in range(3, 13):
        for a, b in (("1", "1"), ("2", "0.5")):
            cases += _witness_cases(["--n", str(n), "--domain", "line", *_ab(a, b)], str(n))
    long = [["--T", "200", "--t0", "5"], ["--T", "200", "--t0", "150"],
            ["--T", repr(40 * math.sqrt(2) + 4), "--functional", "var"]]
    for route in long:
        cases += _witness_cases(["--n", "2", *route, *_ab("1", "1")], "2")
    for a, b in FAR:
        for route in (["--T", "1"], ["--T", "10"], ["--domain", "halfline"], ["--domain", "line"],
                      ["--T", "1", "--t0", "0.3"], ["--T", "3", "--functional", "var"]):
            cases.append({"argv": ["extremal", "--n", "2", *route, *_ab(a, b)]})
        for n in ("3", "6"):
            cases.append({"argv": ["extremal", "--n", n, "--domain", "line", *_ab(a, b)]})
    for argv in (["--T", "1e-13", "--t0", "0"], ["--T", "30", "--functional", "var"], ["--T", "1", "--t0", "1e-13"],
                 ["--T", "1", "--t0", "0.9999999999999"], ["--n", "4", "--k", "2", "--T", "3"]):
        cases.append({"argv": ["extremal", *(["--n", "2"] if "--n" not in argv else []), *argv]})
    return cases


SPLINES = {
    "parabola.json": '{"knots": [0.0, 4.0], "pieces": [[1.0, -2.0, 0.5]], "n": 2}',
    "exact.json": '{"knots": ["0/1", "4/1"], "pieces": [["1/1", "-2/1", "1/2"]], "n": 2}',
    "cubic.json": '{"knots": [0, 1], "pieces": [[0, 0, 0, 0.125]], "n": 2}',
    "bad.json": '{"knots": [0.0, 1.0], "pieces": [[0.0, 0.0, 1.0]], "n": 2}',
    "gap.json": '{"knots": ["999/1", "1000/1", "1001/1"], "pieces": [["1000000/1", "-2000/1", "1/1"],'
                ' ["10000000000001/10000000", "-2000/1", "1/1"]], "n": 2}',
    "nan.json": '{"knots": [0, 1], "pieces": [[NaN]], "n": 2}',
    "close.json": '{"knots": [0.0, 1e-13, 1.0], "pieces": [[0.0], [0.0]], "n": 2}',
    "count.json": '{"knots": [0.0, 1.0], "pieces": [], "n": 2}',
    "badn.json": '{"knots": [0.0, 1.0], "pieces": [[0.0]], "n": 2.5}',
    "text.json": "not json",
    "small.json": '{"knots": [0.0, 1.0], "pieces": [[5e-10]], "n": 2}',
    "flat.json": '{"knots": [0.0, 1.0, 3.0], "pieces": [[-1.0], [-1.0]], "n": 2}',
    "huge.json": '{"knots": [1e300, 1.5e300], "pieces": [[0, 1e10, 1e-300, 1e-300]], "n": 3}',
    # exact gaps, |f^(n)| and sups past the float range
    "farjoin.json": '{"knots": ["0", "1", "2"], "pieces": [["0", "1.5e308"], ["0", "-1.5e308"]], "n": 2}',
    "farderiv.json": '{"knots": ["0", "1"], "pieces": [["0", "0", "0", "1.7e308"]], "n": 3}',
    "farsup.json": '{"knots": ["0", "4"], "pieces": [["0", "1e308"]], "n": 2}',
}


def _verifies() -> list:
    cases = []
    for name in SPLINES:
        for extra in ([], ["--extreme"], ["--a", "2", "--b", "2"], ["--n", "3"], ["--a", "0.3", "--b", "0.1"]):
            cases.append({"argv": ["verify", "--file", "{tmp}/" + name, *extra], "files": {name: SPLINES[name]}})
    cases.append({"argv": ["verify", "--file", "{tmp}/missing.json"]})
    for a, b in (("0", "1"), ("nan", "1"), ("1", "inf"), ("-1", "1")):
        cases.append({"argv": ["verify", "--file", "{tmp}/parabola.json", "--a", a, "--b", b]})
    return cases


def _tables() -> list:
    cases = []
    for what, tops in (("favard", ("0", "4", "20")), ("euler-numbers", ("8", "64", "65")),
                       ("rn", ("4", "20", "65")), ("cnk", ("4", "10", "30", "31")),
                       ("Ank", ("4", "12")), ("Bnk", ("4", "12"))):
        for top in tops:
            cases.append(["table", "--what", what, "--max-n", top])
    return [{"argv": argv} for argv in cases]


def _samplers() -> list:
    cases = []
    for T, x in (("1", "0"), ("1", "0.3"), ("2", "1"), ("10", "7.5")):
        cases.append(["kernel", "--n", "2", "--T", T, "--x", x, "--samples", "11"])
    for n, k, x in (("3", "1", "0.5"), ("4", "2", "0.3"), ("5", "2", "0.7"), ("6", "3", "1")):
        cases.append(["kernel", "--n", n, "--k", k, "--x", x, "--samples", "9"])
    for argv in (["--n", "4", "--x", "1.5"], ["--n", "4", "--k", "0", "--x", "0.5"], ["--n", "4", "--T", "2", "--x", "0.5"],
                 ["--T", "0", "--x", "0"], ["--T", "inf", "--x", "0.5"], ["--x", "0.5", "--samples", "1"],
                 ["--n", "2", "--x", "0", "--T", "1e308", "--samples", "3"]):
        cases.append(["kernel", *argv])
    for what in ("en", "euler-spline", "qn"):
        for n in ("1", "2", "3", "7", "12"):
            cases.append(["spline", "--what", what, "--n", n, "--samples", "7"])
        cases.append(["spline", "--what", what, "--n", "4", "--samples", "5", "--x0", "-1.5", "--x1", "3.25"])
    for argv in (["--what", "en", "--n", "3", "--samples", "1"], ["--what", "qn", "--n", "1"],
                 ["--what", "en", "--n", "-1"], ["--what", "euler-spline", "--n", "0"]):
        cases.append(["spline", *argv])
    return [{"argv": argv} for argv in cases]


def _errors() -> list:
    cases = [
        ["bound", "--n", "2", "--domain", "segment"],
        ["bound", "--n", "2", "--domain", "line", "--t0", "1"],
        ["bound", "--n", "3", "--T", "1", "--t0", "0.5"],
        ["bound", "--n", "1", "--T", "1"],
        ["bound", "--n", "3", "--k", "4", "--T", "1"],
        ["bound", "--n", "2", "--T", "0"],
        ["bound", "--n", "2", "--T", "-1"],
        ["bound", "--n", "2", "--T", "inf"],
        ["bound", "--n", "2", "--T", "nan"],
        ["bound", "--a", "inf", "--T", "1"],
        ["bound", "--a", "0", "--T", "1"],
        ["bound", "--b", "-1", "--T", "1"],
        ["bound", "--T", "1", "--t0", "2"],
        ["bound", "--T", "1", "--t0", "nan"],
        ["bound", "--functional", "var", "--T", "inf"],
        ["bound", "--functional", "var", "--domain", "line"],
        ["bound", "--n", "3", "--functional", "var", "--T", "1"],
        ["bound", "--n", "4", "--k", "2", "--T", "1e-200"],
        ["bound", "--n", "4", "--k", "2", "--T", "1e-30", "--a", "1e300"],
        ["bound", "--n", "3", "--k", "2", "--T", "1e-200"],
        ["bound", "--n", "2", "--T", "1e-320"],
        ["bound", "--n", "31", "--k", "2", "--domain", "halfline"],
        ["bound", "--n", "x"],
        ["bound", "--domain", "plane"],
        ["bound", "--functional", "mean", "--T", "1"],
        ["extremal", "--n", "2"],
        ["oracle", "--problem", "pointwise", "--T", "1"],
        ["oracle", "--problem", "sigma1", "--t0", "0"],
        ["oracle", "--problem", "sigma1", "--T", "inf"],
        ["oracle", "--problem", "pointwise", "--T", "inf", "--t0", "1"],
        ["table"],
        ["table", "--what", "primes"],
        ["verify"],
        ["frobnicate"],
        [],
        ["bound", "--n", "2", "--k", "0", "--T", "1", "--t0", "0.5"],
        ["bound", "--n", "2", "--k", "2", "--T", "1", "--t0", "0.5"],
        ["bound", "--functional", "var", "--T", "1", "--t0", "5"],
        ["bound", "--functional", "var", "--k", "2", "--T", "1"],
        ["oracle", "--problem", "pointwise", "--T", "1", "--t0", "2"],
        ["extremal", "--n", "2", "--T", "1", "--out", "{tmp}/missing/w.json"],
        ["spline", "--what", "en", "--n", "3", "--x1", "inf"],
        ["spline", "--what", "en", "--n", "3", "--x0", "nan"],
        ["kernel", "--n", "2", "--k", "7", "--x", "0.5", "--samples", "3"],
        ["kernel", "--n", "2", "--k", "0", "--x", "0.5", "--samples", "3"],
        ["bound", "--domain", "line", "--n", "3", "--k", "1", "--T", "1"],
        ["bound", "--domain", "halfline", "--T", "1"],
        ["extremal", "--domain", "line", "--T", "1"],
        ["spline", "--what", "qn", "--n", "3", "--x1", "inf"],
        ["oracle", "--problem", "sigma1", "--T", "3", "--t0", "1", "--restarts", "20"],
        ["oracle", "--problem", "sigma1", "--T", "3", "--M", "50"],
        ["oracle", "--problem", "pointwise", "--T", "1", "--t0", "0.5", "--M", "50", "--restarts", "3"],
        ["oracle", "--problem", "pointwise", "--T", "1", "--t0", "0.5", "--max-switches", "2"],
        ["oracle", "--problem", "pointwise", "--T", "1", "--t0", "0.5", "--seed", "1"],
        # (a, b) so far apart that T* leaves the float range, and q_n's default window at n = 0
        ["bound", "--n", "12", "--k", "6", "--T", "1", "--a", "1e-300", "--b", "1e300"],
        ["bound", "--n", "10", "--k", "3", "--a", "2.143606754004768e-267", "--b", "3.619802352911548e+290",
         "--T", "3.3135122483901055e+145"],
        ["bound", "--n", "12", "--k", "6", "--a", "1.7416429364733115e-184", "--b", "5e-324", "--T", "1e-308"],
        ["spline", "--what", "qn", "--n", "0"],
        # witnesses whose membership check would leave the float range, and
        # the sigma1 search where a b or b/a does
        ["extremal", "--n", "7", "--domain", "line", "--a", "1e308", "--b", "1860.359431261814"],
        ["extremal", "--n", "2", "--domain", "halfline", "--a", "1e308", "--b", "5.54392861966967"],
        ["extremal", "--n", "11", "--k", "2", "--domain", "line", "--a", "3.8737383051219476e+299",
         "--b", "66178.26140546787"],
        ["oracle", "--problem", "sigma1", "--a", "1e155", "--b", "1e155", "--T", "1.5", "--restarts", "20"],
        ["oracle", "--problem", "sigma1", "--a", "1e-300", "--b", "1e300", "--T", "1e-300", "--restarts", "20"],
    ]
    unreadable = {"zero.json": '{"knots": ["0", "1/0"], "pieces": [["1/2"]], "n": 2}',
                  "farknot.json": '{"knots": ["0", "1e400"], "pieces": [["1/2"]], "n": 2}',
                  "farcoef.json": '{"knots": [0, 1], "pieces": [["1e400"]], "n": 2}'}
    # oracles away from the unit scale: answers once wrong or past the float
    # range, a slow search, the switch cap and unit lengths out of range
    far = [
        ["oracle", "--problem", "pointwise", "--a", "1e-20", "--b", "1e-20", "--T", "4", "--t0", "0.5", "--M", "200"],
        ["oracle", "--problem", "sigma1", "--a", "8e307", "--b", "1.79e308", "--T", "1", "--restarts", "20"],
        ["oracle", "--problem", "sigma1", "--a", "6.006578e307", "--b", "6.953913e145", "--T", "5.409827e80",
         "--restarts", "20"],
        ["oracle", "--problem", "sigma1", "--a", "1e10", "--b", "1e10", "--T", "1.5", "--restarts", "20"],
        ["oracle", "--problem", "sigma1", "--T", "1e5"],
        ["oracle", "--problem", "sigma1", "--a", "5e-324", "--b", "1.7e308", "--T", "1e300", "--restarts", "20"],
        ["oracle", "--problem", "pointwise", "--a", "1.7e308", "--b", "5e-324", "--T", "1e-300", "--t0", "0", "--M", "50"],
        ["oracle", "--problem", "pointwise", "--a", "5e-324", "--b", "1.7e308", "--T", "1e300", "--t0", "1", "--M", "50"],
    ]
    return [{"argv": argv} for argv in cases] + [
        {"argv": ["verify", "--file", "{tmp}/" + name], "files": {name: text}} for name, text in unreadable.items()
    ] + [{"argv": argv} for argv in far]


def cases() -> list:
    return _bounds() + _extremals() + _verifies() + _tables() + _samplers() + _errors()


def record() -> int:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases():
            lines.append(json.dumps(run_case(case, tmp)))
    CORPUS.write_text("\n".join(lines) + "\n")
    return len(lines)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    print(f"{record()} calls written to {CORPUS}")
