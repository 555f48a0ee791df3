import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from landaukol.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, (json.loads(out) if out.strip().startswith("{") else out), err


GOLDEN_LINE = (
    '{"schema_version": "1", "command": "bound", "result": {"value": 1.414213562373095, '
    '"status": "Exact", "provenance": "kolmogorov-whole-line"}, '
    '"provenance": ["kolmogorov-whole-line"]}'
)

GOLDEN_SEGMENT = (
    '{"schema_version": "1", "command": "bound", "result": {"value": 2.5, '
    '"status": "Exact", "provenance": "segment-short-closed-form"}, '
    '"provenance": ["segment-short-closed-form"]}'
)

GOLDEN_EULER_CSV = "n,E_n\n0,1\n1,0\n2,-1\n3,0\n4,5\n5,0\n6,-61\n7,0\n8,1385\n"

# one full stdout line per route, pinned byte for byte
GOLDEN_ROUTES = {
    ("bound", "--n", "5", "--k", "2", "--domain", "halfline"): (
        '{"schema_version": "1", "command": "bound", "result": {"value": 9.720967791467691, '
        '"status": "UpperBound", "provenance": "half-line-bracket(matorin)", "bracket": '
        '{"upper": 9.720967791467691, "upper_source": "matorin", "matorin": 9.720967791467691, '
        '"malliavin": 24319.634688777707, "lower_shape": 4.419417382415922, "lower_kappa_free": true}}, '
        '"provenance": ["half-line-bracket(matorin)"]}'
    ),
    ("bound", "--n", "3", "--k", "1", "--domain", "halfline"): (
        '{"schema_version": "1", "command": "bound", "result": {"value": 3.1201257345778566, '
        '"status": "Exact", "provenance": "sato-half-line"}, "provenance": ["sato-half-line"]}'
    ),
    ("bound", "--n", "2", "--T", "1", "--t0", "0"): (
        '{"schema_version": "1", "command": "bound", "result": {"value": 2.5, '
        '"status": "Exact", "provenance": "pointwise-short-segment"}, '
        '"provenance": ["pointwise-short-segment"]}'
    ),
    ("bound", "--n", "2", "--T", "10", "--t0", "1"): (
        '{"schema_version": "1", "command": "bound", "result": {"value": 1.4494897427831779, '
        '"status": "Exact", "provenance": "pointwise-free-end"}, "provenance": ["pointwise-free-end"]}'
    ),
    ("bound", "--n", "2", "--T", "10", "--t0", "5"): (
        '{"schema_version": "1", "command": "bound", "result": {"value": 1.4142135623730951, '
        '"status": "Exact", "provenance": "pointwise-interior-comparison"}, '
        '"provenance": ["pointwise-interior-comparison"]}'
    ),
    ("bound", "--n", "3", "--k", "2", "--a", "2", "--b", "0.5", "--T", "3"): (
        '{"schema_version": "1", "command": "bound", "result": {"value": 4.301166435746724, '
        '"status": "Exact", "provenance": "sato-segment-short"}, "provenance": ["sato-segment-short"]}'
    ),
    ("bound", "--n", "4", "--k", "2", "--T", "3"): (
        '{"schema_version": "1", "command": "bound", "result": {"value": 39.03030042694714, '
        '"status": "UpperBound", "provenance": "vandermonde-certificate"}, '
        '"provenance": ["vandermonde-certificate"]}'
    ),
    ("bound", "--functional", "var", "--T", "3"): (
        '{"schema_version": "1", "command": "bound", "result": {"lower": 2.5, "upper": 2.5, '
        '"exact": 2.5, "status": "Exact", "provenance": "2<=T<=4"}, "provenance": ["sigma1-2<=T<=4"]}'
    ),
    ("bound", "--functional", "var", "--T", "100"): (
        '{"schema_version": "1", "command": "bound", "result": {"lower": 70.71067811865474, '
        '"upper": 72.21905903731832, "exact": null, "status": "Interval", "provenance": "subadditive"}, '
        '"provenance": ["sigma1-subadditive"]}'
    ),
    ("extremal", "--n", "3", "--domain", "line"): (
        '{"schema_version": "1", "command": "extremal", "result": {"spline": {"knots": [0.0, '
        '2.8844991406148166, 5.768998281229633, 8.653497421844449, 11.537996562459266], "pieces": '
        '[[1.0, 0.0, -0.7211247851537043, 0.1666666666666667], '
        '[9.0, -8.320335292207616, 2.163374355461113, -0.1666666666666667], '
        '[-55.0, 24.961005876622853, -3.605623925768522, 0.1666666666666667], '
        '[161.0, -49.922011753245705, 5.047873496075931, -0.1666666666666667]], "n": 3}, '
        '"membership": "ok"}, "provenance": ["kolmogorov-whole-line"]}'
    ),
}


def test_golden_bound_line(capsys):
    code, out, _ = run_cli(capsys, "bound", "--n", "2", "--k", "1", "--a", "1", "--b", "1",
                           "--domain", "line")
    assert code == 0
    assert out.strip() == GOLDEN_LINE


def test_golden_bound_segment(capsys):
    code, out, _ = run_cli(capsys, "bound", "--n", "2", "--domain", "segment", "--T", "1")
    assert code == 0
    assert out.strip() == GOLDEN_SEGMENT


def test_golden_table_euler_numbers(capsys):
    code, out, _ = run_cli(capsys, "table", "--what", "euler-numbers", "--max-n", "8")
    assert code == 0
    assert out == GOLDEN_EULER_CSV


@pytest.mark.parametrize("argv", list(GOLDEN_ROUTES), ids=" ".join)
def test_golden_routes(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.strip() == GOLDEN_ROUTES[argv]


def test_bound_halfline_bracket(capsys):
    code, payload, _ = run_json(capsys, "bound", "--n", "5", "--k", "2", "--domain", "halfline")
    assert code == 0
    result = payload["result"]
    assert result["status"] == "UpperBound"
    assert result["value"] > 0
    assert "half-line-bracket" in result["provenance"]
    bracket = result["bracket"]
    assert bracket["upper"] == pytest.approx(min(bracket["matorin"], bracket["malliavin"]))
    assert bracket["lower_kappa_free"] is True


def test_bound_pointwise_route(capsys):
    code, payload, _ = run_json(capsys, "bound", "--n", "2", "--domain", "segment",
                                "--T", "10", "--t0", "1")
    assert code == 0
    assert payload["result"]["value"] == pytest.approx(math.sqrt(6) - 1, abs=1e-12)


def test_bound_sato_route(capsys):
    code, payload, _ = run_json(capsys, "bound", "--n", "3", "--k", "2", "--domain", "segment",
                                "--T", "100")
    assert code == 0
    assert payload["result"]["value"] == pytest.approx(2 * 3 ** (1 / 3), abs=1e-12)
    assert "sato" in payload["result"]["provenance"]


def test_bound_sigma1_route(capsys):
    code, payload, _ = run_json(capsys, "bound", "--n", "2", "--domain", "segment",
                                "--T", "100", "--functional", "var")
    assert code == 0
    res = payload["result"]
    assert res["status"] == "Interval"
    assert 70.71 - 1e-9 <= res["lower"] <= res["upper"] <= 75.71


def test_bound_invalid_combination_exits_2(capsys):
    code, _, err = run_cli(capsys, "bound", "--n", "2", "--domain", "line", "--t0", "1")
    assert code == 2 and "t0" in err
    code, _, err = run_cli(capsys, "bound", "--n", "2", "--domain", "segment")
    assert code == 2 and "--T" in err
    code, _, err = run_cli(capsys, "bound", "--a", "inf", "--T", "1")
    assert code == 2 and err.startswith("error:") and "finite" in err
    code, _, err = run_cli(capsys, "bound", "--functional", "var", "--T", "inf")
    assert code == 2 and err.startswith("error:") and "finite" in err


def test_bound_outside_float_range_exits_2(capsys):
    for argv in (["--n", "4", "--k", "2", "--T", "1e-200"],  # T**-k overflows
                 ["--n", "4", "--k", "2", "--T", "1e-30", "--a", "1e300"],  # a T**-k is inf
                 ["--n", "3", "--k", "2", "--T", "1e-200"],
                 ["--n", "2", "--T", "1e-320"]):
        code, out, err = run_cli(capsys, "bound", *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and len(err.splitlines()) == 1, argv
    # the k = 1 value on the same segment is in range
    code, payload, _ = run_json(capsys, "bound", "--n", "3", "--k", "1", "--T", "1e-200")
    assert code == 0 and math.isfinite(payload["result"]["value"])


# finite bounds whose scaled witness would have knots closer than 1e-12
COLLAPSED_WITNESS = {
    ("--T", "1e-13", "--t0", "0"): 2e13,
    ("--a", "1e-300", "--b", "1e300", "--T", "1"): 2.0,
    ("--a", "1e-300", "--b", "1e300", "--domain", "halfline"): 2.0,
    ("--a", "1e-300", "--b", "1e300", "--domain", "line"): math.sqrt(2.0),
}


@pytest.mark.parametrize("argv", list(COLLAPSED_WITNESS), ids=" ".join)
def test_bound_without_witness_still_prints_the_value(capsys, argv):
    code, payload, err = run_json(capsys, "bound", "--n", "2", *argv)
    assert code == 0, err
    assert payload["result"]["status"] == "Exact"
    assert payload["result"]["value"] == pytest.approx(COLLAPSED_WITNESS[argv], rel=1e-15)


@pytest.mark.parametrize("argv", list(COLLAPSED_WITNESS), ids=" ".join)
def test_extremal_without_scaled_witness_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, "extremal", "--n", "2", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: no extremal witness available") and len(err.splitlines()) == 1


def test_extremal_verify_round_trip(tmp_path, capsys):
    for argv in (
        ["extremal", "--n", "2", "--domain", "segment", "--T", "2", "--t0", "0"],
        ["extremal", "--n", "2", "--domain", "segment", "--T", "7"],
        ["extremal", "--n", "2", "--domain", "line"],
        ["extremal", "--n", "3", "--domain", "line"],
        ["extremal", "--n", "2", "--domain", "segment", "--T", "3", "--functional", "var"],
        ["extremal", "--n", "2", "--domain", "halfline"],
    ):
        path = tmp_path / "w.json"
        n = argv[argv.index("--n") + 1]
        code, out, err = run_cli(capsys, *argv, "--out", str(path))
        assert code == 0, err
        code2, payload, _ = run_json(capsys, "verify", "--file", str(path), "--n", n)
        assert code2 == 0
        assert payload["result"]["membership"] is True


def test_extremal_without_witness_exits_2(capsys):
    code, _, err = run_cli(capsys, "extremal", "--n", "2", "--domain", "segment",
                           "--T", "30", "--functional", "var")
    assert code == 2 and "witness" in err


def test_verify_rejects_non_member(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"knots": [0.0, 1.0], "pieces": [[0.0, 0.0, 1.0]], "n": 2}')
    code, payload, _ = run_json(capsys, "verify", "--file", str(path))
    assert code == 1
    assert payload["result"]["membership"] is False


def test_verify_extreme_flag(tmp_path, capsys):
    path = tmp_path / "w.json"
    run_cli(capsys, "extremal", "--n", "2", "--domain", "segment", "--T", "2", "--t0", "1",
            "--out", str(path))
    code, payload, _ = run_json(capsys, "verify", "--file", str(path), "--extreme")
    assert code == 0
    assert payload["result"]["is_extreme"] is True

    flat = tmp_path / "flat.json"
    flat.write_text('{"knots": ["0/1", "1/1"], "pieces": [["0/1"]], "n": 2}')
    code, payload, _ = run_json(capsys, "verify", "--file", str(flat), "--extreme")
    assert code == 1
    assert payload["result"]["membership"] is True
    assert payload["result"]["is_extreme"] is False


def test_verify_rejects_non_finite_spline(tmp_path, capsys):
    for text in ('{"knots": [0, 1], "pieces": [[NaN]], "n": 2}',
                 '{"knots": [0, Infinity], "pieces": [[0.5]], "n": 2}'):
        path = tmp_path / "nan.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "verify", "--file", str(path))
        assert code == 2 and out == "" and "cannot read spline" in err


def test_samples_below_two_exit_2(capsys):
    for argv in (["kernel", "--x", "0.5", "--samples", "1"],
                 ["spline", "--what", "qn", "--n", "3", "--samples", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "samples" in capsys.readouterr().err


def test_verify_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, _, err = run_cli(capsys, "verify", "--file", str(path))
    assert code == 2 and "cannot read" in err
    code, _, err = run_cli(capsys, "verify", "--file", str(tmp_path / "missing.json"))
    assert code == 2


def test_oracle_pointwise_json(capsys):
    code, payload, _ = run_json(capsys, "oracle", "--problem", "pointwise",
                                "--T", "1", "--t0", "0", "--M", "100")
    assert code == 0
    res = payload["result"]
    assert res["value"] == pytest.approx(2.5, rel=0.02)
    assert abs(res["discrepancy_vs_closed_form"]) <= 0.02
    assert res["config"]["M"] == 100


def test_oracle_sigma1_json_and_seed_env(capsys, monkeypatch):
    code, payload, _ = run_json(capsys, "oracle", "--problem", "sigma1", "--T", "2",
                                "--restarts", "20", "--seed", "3")
    assert code == 0
    assert payload["result"]["value"] == pytest.approx(2.0, abs=1e-3)
    assert payload["result"]["config"]["seed"] == 3
    monkeypatch.setenv("LANDAU_SEED", "99")
    code, payload, _ = run_json(capsys, "oracle", "--problem", "sigma1", "--T", "2",
                                "--restarts", "20", "--seed", "3")
    assert code == 0
    assert payload["result"]["config"]["seed"] == 99


def test_kernel_csv(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--n", "2", "--T", "1", "--x", "0.5",
                           "--samples", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,K"
    assert len(lines) == 6
    t, K = lines[1].split(",")
    assert float(t) == 0.0 and float(K) == 0.0
    code, out, _ = run_cli(capsys, "kernel", "--n", "3", "--k", "1", "--T", "1",
                           "--x", "0.5", "--samples", "9")
    assert code == 0
    assert len(out.strip().splitlines()) == 10
    code, _, err = run_cli(capsys, "kernel", "--n", "3", "--T", "2", "--x", "0.5")
    assert code == 2


# stdout of `landau kernel --n 4 --k 2 --x 0.3 --samples 5`, byte for byte
GOLDEN_KERNEL_CSV = (
    "t,K\n0.0,4.440892098500626e-16\n0.25,1.1102230246251565e-16\n0.5,0.125\n"
    "0.75,0.03333333333333333\n1.0,0.0\n"
)


def test_golden_kernel_certificate_csv(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--n", "4", "--k", "2", "--x", "0.3", "--samples", "5")
    assert code == 0
    assert out == GOLDEN_KERNEL_CSV


# stdout of `landau kernel --n 2 --T 1.7 --x 0.3 --samples 9`, byte for byte:
# float x and T go through the exact functional
GOLDEN_KERNEL_N2_CSV = (
    "t,K\n0.0,0.0\n0.2125,0.125\n0.425,-0.75\n0.6375,-0.625\n0.85,-0.5\n1.0625,-0.375\n"
    "1.275,-0.25000000000000006\n1.4875,-0.12499999999999996\n1.7,0.0\n"
)


def test_golden_kernel_n2_csv(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--n", "2", "--T", "1.7", "--x", "0.3", "--samples", "9")
    assert code == 0
    assert out == GOLDEN_KERNEL_N2_CSV


def test_kernel_samples_stay_finite_on_huge_segment(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--n", "2", "--x", "0", "--T", "1e308",
                           "--samples", "3")
    assert code == 0
    rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]
    assert len(rows) == 3 and all(math.isfinite(v) for row in rows for v in row)
    assert rows[-1][0] == 1e308


def test_kernel_rejects_bad_segment(capsys):
    for argv in (["--T", "0", "--x", "0"], ["--T", "inf", "--x", "0.5"],
                 ["--T", "nan", "--x", "0.5"], ["--T", "1", "--x", "1.5"],
                 ["--T", "1", "--x", "-0.1"]):
        code, out, err = run_cli(capsys, "kernel", "--samples", "3", *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and len(err.splitlines()) == 1, argv


def test_oracle_rejects_bad_T_before_searching(capsys, monkeypatch):
    from landaukol import oracle

    def never(*args, **kwargs):
        raise AssertionError("oracle ran on an invalid query")

    monkeypatch.setattr(oracle, "bangbang_sigma1_search", never)
    monkeypatch.setattr(oracle, "lp_max_pointwise_derivative", never)
    for argv in (["--problem", "sigma1", "--T", "inf"], ["--problem", "sigma1", "--T", "0"],
                 ["--problem", "pointwise", "--T", "inf", "--t0", "1"]):
        code, _, err = run_cli(capsys, "oracle", *argv)
        assert code == 2 and err.startswith("error:"), argv


def test_spline_csv(capsys):
    code, out, _ = run_cli(capsys, "spline", "--what", "euler-spline", "--n", "4",
                           "--samples", "3", "--x0", "0", "--x1", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,value"
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(1.0, abs=1e-12)


def test_table_variants(capsys):
    for what in ("favard", "rn", "Ank", "Bnk"):
        code, out, _ = run_cli(capsys, "table", "--what", what, "--max-n", "5")
        assert code == 0
        assert len(out.strip().splitlines()) >= 2
    code, out, _ = run_cli(capsys, "table", "--what", "cnk", "--max-n", "4")
    assert code == 0
    header = out.splitlines()[0]
    assert "lower_shape_kappa_free" in header


# Runs `landau ARGV` in a fresh interpreter and reports which of numpy and
# scipy it loaded; with no ARGV it only imports the CLI.
_IMPORT_PROBE = """
import contextlib, io, json, sys
out = io.StringIO()
with contextlib.redirect_stdout(out):
    from landaukol.cli import main
    code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
heavy = sorted(m for m in ("numpy", "scipy") if m in sys.modules)
print(json.dumps({"code": code, "out": out.getvalue(), "heavy": heavy}))
"""


def _probe(*argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("argv", [
    (),
    ("bound", "--n", "2", "--T", "10"),
    ("bound", "--n", "2", "--T", "10", "--t0", "1"),
    ("bound", "--n", "2", "--T", "3", "--functional", "var"),
    ("bound", "--n", "3", "--k", "1", "--domain", "line"),
    ("bound", "--n", "5", "--k", "2", "--domain", "halfline"),
    ("table", "--what", "cnk", "--max-n", "6"),
], ids=lambda argv: " ".join(argv) or "import")
def test_closed_forms_load_neither_numpy_nor_scipy(argv):
    # numpy and scipy cost most of a closed-form call's start-up; a later
    # top-level import would bring that back without failing anything else
    probe = _probe(*argv)
    assert probe["code"] == 0
    assert probe["heavy"] == []


def test_oracle_still_loads_scipy():
    probe = _probe("oracle", "--problem", "pointwise", "--T", "2", "--t0", "1", "--M", "50")
    assert probe["code"] == 0 and "scipy" in probe["heavy"]
    assert json.loads(probe["out"])["result"]["status"] == "OracleApprox"
