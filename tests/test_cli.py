import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landaukol.cli import main
from landaukol.landaun import kolmogorov_bound
from landaukol.pwpoly import PiecewisePoly


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


# finite bounds whose scaled witness would have knots closer than 1e-12, or
# subnormal bounds, whose witness would lose the bits of its values, or a
# comparison train on [0, T sqrt(b/a)] = [0, inf]
COLLAPSED_WITNESS = {
    ("--T", "1e-13", "--t0", "0"): 2e13,
    ("--b", "7", "--T", "1.7e308", "--t0", "8.5e307"): math.sqrt(14.0),
    ("--a", "1e-300", "--b", "1e300", "--T", "1"): 2.0,
    ("--a", "1e-300", "--b", "1e300", "--domain", "halfline"): 2.0,
    ("--a", "1e-300", "--b", "1e300", "--domain", "line"): math.sqrt(2.0),
    ("--T", "2.5", "--a", "5e-324", "--b", "5e-324"): 1e-323,
    # refused before its 70,711-arc comparison train is built
    ("--T", "2e5", "--t0", "5", "--a", "5e-324", "--b", "5e-324"): 5e-324,
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


# a and b about 600 orders of magnitude apart, or both near the top of the
# float range: sqrt(b/a) or sqrt(a b) alone would leave the float range
FAR_APART = {
    ("--a", "1e300", "--b", "1e-300", "--T", "1"): 2e300,
    ("--a", "1e300", "--b", "1e-300", "--T", "1", "--functional", "var"): 2e300,
    ("--a", "1e300", "--b", "1e-300", "--domain", "halfline"): 2.0,
    ("--a", "1e300", "--b", "1e-300", "--T", "1", "--t0", "0.5"): 2e300,
    ("--a", "1e300", "--b", "1e300", "--T", "10"): 2e300,
    ("--a", "1e300", "--b", "1e300", "--domain", "halfline"): 2e300,
    ("--a", "1e-300", "--b", "1e300", "--T", "1", "--t0", "0.3"): math.sqrt(2.0),
    ("--a", "1e-300", "--b", "1e300", "--T", "1", "--functional", "var"): 1 / math.sqrt(2.0),
}


@pytest.mark.parametrize("argv", list(FAR_APART), ids=" ".join)
def test_bound_with_far_apart_a_b_prints_the_value(capsys, argv):
    code, payload, err = run_json(capsys, "bound", "--n", "2", *argv)
    assert code == 0, err
    result = payload["result"]
    assert result.get("value", result.get("upper")) == pytest.approx(FAR_APART[argv], rel=1e-12)


@pytest.mark.parametrize("argv", list(FAR_APART), ids=" ".join)
def test_extremal_with_far_apart_a_b_is_a_member_or_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, "extremal", "--n", "2", *argv)
    if code == 0:
        assert json.loads(out)["result"]["membership"] == "ok"
    else:
        assert code == 2 and out == ""
        assert err.startswith("error: no extremal witness available") and len(err.splitlines()) == 1


# whole-line witnesses of order n >= 3 whose scaling lam^n = b/a, or whose
# bounds a and b, leave the normal float range
LINE_COLLAPSED_WITNESS = {
    ("--n", "5", "--a", "1e300", "--b", "1e-300"): kolmogorov_bound(5, 1, 1e300, 1e-300),
    ("--n", "3", "--a", "1e-300", "--b", "1e300"): kolmogorov_bound(3, 1, 1e-300, 1e300),
    ("--n", "6", "--k", "5", "--a", "5e-324", "--b", "5e-324"): kolmogorov_bound(6, 5, 5e-324, 5e-324),
}


@pytest.mark.parametrize("argv", list(LINE_COLLAPSED_WITNESS), ids=" ".join)
def test_line_witness_outside_the_float_range_exits_2(capsys, argv):
    code, payload, err = run_json(capsys, "bound", "--domain", "line", *argv)
    assert code == 0, err
    assert payload["result"]["value"] == pytest.approx(LINE_COLLAPSED_WITNESS[argv], rel=1e-15)
    code, out, err = run_cli(capsys, "extremal", "--domain", "line", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: no extremal witness available") and len(err.splitlines()) == 1


def test_bound_builds_no_spline(capsys, monkeypatch):
    # a witness is built on first access, and `bound` never reads one
    def refuse(self, *args, **kwargs):
        raise AssertionError("`bound` built a spline")

    monkeypatch.setattr(PiecewisePoly, "__init__", refuse)
    for argv, golden in GOLDEN_ROUTES.items():
        if argv[0] == "bound":
            code, out, err = run_cli(capsys, *argv)
            assert code == 0 and out.strip() == golden, (argv, err)
    expected = {("--n", "2", *argv): v for argv, v in {**COLLAPSED_WITNESS, **FAR_APART}.items()}
    expected.update({("--domain", "line", *argv): v for argv, v in LINE_COLLAPSED_WITNESS.items()})
    for argv, value in expected.items():
        code, payload, err = run_json(capsys, "bound", *argv)
        assert code == 0, (argv, err)
        result = payload["result"]
        assert result.get("value", result.get("upper")) == pytest.approx(value, rel=1e-12), argv


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


@pytest.mark.parametrize("n", ["11", "12"])
def test_whole_line_witness_of_high_order_is_extreme(tmp_path, capsys, n):
    # two periods give five double contacts, a sum of 10 < n; the witness
    # spans three periods here, seven contacts summing to 14
    path = tmp_path / "w.json"
    code, _, err = run_cli(capsys, "extremal", "--n", n, "--k", "1", "--domain", "line", "--out", str(path))
    assert code == 0, err
    code, payload, _ = run_json(capsys, "verify", "--file", str(path), "--extreme")
    assert code == 0
    assert payload["result"]["is_extreme"] is True
    assert payload["result"]["multiplicity_sum"] == 14


def test_extremal_with_large_values_or_coefficients_is_a_member(tmp_path, capsys):
    # joins and sups are checked within the rounding allowance of the pieces:
    # values near 1e300, and global coefficients of about 1e6 at t = 2.5
    code, payload, err = run_json(capsys, "extremal", "--n", "2", "--a", "1e300", "--b", "1e-2",
                                  "--domain", "halfline")
    assert code == 0 and payload["result"]["membership"] == "ok", err
    path = tmp_path / "w.json"
    code, payload, err = run_json(capsys, "extremal", "--n", "2", "--b", "1e6", "--T", "5",
                                  "--t0", "2.5", "--out", str(path))
    assert code == 0 and payload["result"]["membership"] == "ok", err
    code, payload, err = run_json(capsys, "verify", "--file", str(path), "--b", "1e6", "--extreme")
    assert code == 0 and payload["result"]["is_extreme"] is True, err


def test_extremal_without_witness_exits_2(capsys):
    code, _, err = run_cli(capsys, "extremal", "--n", "2", "--domain", "segment",
                           "--T", "30", "--functional", "var")
    assert code == 2 and "witness" in err


def test_verify_rejects_a_piece_above_degree_n(tmp_path, capsys):
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps({"knots": [0, 1], "pieces": [[0, 0, 0, 0.125]], "n": 2}))
    code, payload, _ = run_json(capsys, "verify", "--file", str(path))
    assert code == 1 and payload["result"]["membership"] is False
    assert payload["result"]["violations"] == [
        {"kind": "degree", "where": 0.0, "detail": "piece 0 has degree 3 > 2"}
    ]


def test_verify_rejects_non_member(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"knots": [0.0, 1.0], "pieces": [[0.0, 0.0, 1.0]], "n": 2}')
    code, payload, _ = run_json(capsys, "verify", "--file", str(path))
    assert code == 1
    assert payload["result"]["membership"] is False


def test_verify_compares_the_sup_with_a_small_a(tmp_path, capsys):
    # |f| = 5e-10 is 500 times a; an absolute floor of 1e-9 let it through
    path = tmp_path / "c.json"
    path.write_text('{"knots": [0.0, 1.0], "pieces": [[5e-10]], "n": 2}')
    code, payload, _ = run_json(capsys, "verify", "--file", str(path), "--a", "1e-12", "--b", "1")
    assert code == 1
    assert [v["kind"] for v in payload["result"]["violations"]] == ["sup"]


def test_interior_witness_near_the_far_end_of_a_long_segment_round_trips(tmp_path, capsys):
    # a witness reflected onto [0, T] cancelled coefficients of size T^2, and
    # its joins came out about 1e-7 off
    path = tmp_path / "w.json"
    code, payload, err = run_json(capsys, "extremal", "--n", "2", "--T", "20000", "--t0", "15000",
                                  "--out", str(path))
    assert code == 0 and payload["result"]["membership"] == "ok", err
    code, payload, err = run_json(capsys, "verify", "--file", str(path), "--extreme")
    assert code == 0 and payload["result"]["is_extreme"] is True, err


def test_verify_checks_exact_joins_exactly(tmp_path, capsys):
    # (t - 1000)^2 with a jump of 1e-7 at t = 1000: float a and b do not make
    # the exact pieces a float spline, so the join gets no rounding allowance
    path = tmp_path / "gap.json"
    path.write_text('{"knots": ["999/1", "1000/1", "1001/1"], "pieces": [["1000000/1", "-2000/1", "1/1"],'
                    ' ["10000000000001/10000000", "-2000/1", "1/1"]], "n": 2}')
    code, payload, _ = run_json(capsys, "verify", "--file", str(path), "--a", "2", "--b", "2")
    assert code == 1
    assert [v["kind"] for v in payload["result"]["violations"]] == ["join"]


def test_verify_refuses_an_exact_sup_just_above_a(tmp_path, capsys):
    # 1 + 10^-30 - (t^2 - 2)^2 peaks at sqrt(2): the bounds are read as typed, so
    # the exact spline gets the exact verdict, not a float one with an allowance
    path = tmp_path / "bump.json"
    path.write_text('{"knots": ["13/10", "3/2"], "pieces": [["-2999999999999999999999999999999/'
                    '1000000000000000000000000000000", "0/1", "4/1", "0/1", "-1/1"]], "n": 4}')
    code, payload, err = run_json(capsys, "verify", "--file", str(path), "--b", "100")
    assert (code, err) == (1, "")
    assert payload["result"] == {"membership": False, "numeric": False, "violations": [
        {"kind": "sup", "where": 1.3, "detail": "sup |f| = 1.0 > 1.0 on piece 0"}]}


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
                 '{"knots": [0, Infinity], "pieces": [[0.5]], "n": 2}',
                 '{"knots": ["0", "1/0"], "pieces": [["1/2"]], "n": 2}',
                 '{"knots": ["0", "1e400"], "pieces": [["1/2"]], "n": 2}',
                 '{"knots": [0, 1], "pieces": [["1e400"]], "n": 2}',
                 '{"knots": [0, 1], "pieces": [[1%s]], "n": 2}' % ("0" * 400)):
        path = tmp_path / "nan.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "verify", "--file", str(path))
        assert code == 2 and out == "" and "cannot read spline" in err


@pytest.mark.parametrize("extreme", [(), ("--extreme",)], ids=["membership", "extreme"])
@pytest.mark.parametrize("bounds", ["--b=inf", "--a=inf", "--a=nan", "--b=-inf"])
def test_verify_rejects_non_finite_bounds(tmp_path, capsys, bounds, extreme):
    path = tmp_path / "w.json"
    path.write_text('{"knots": [0, 1], "pieces": [[0.5]], "n": 2}')
    code, out, err = run_cli(capsys, "verify", "--file", str(path), bounds, *extreme)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("n", ["2.5", "0", "-1", "true", '"2"', "null"])
def test_verify_rejects_a_non_integer_order(tmp_path, capsys, n):
    path = tmp_path / "w.json"
    path.write_text('{"knots": [0, 1], "pieces": [[0.5]], "n": %s}' % n)
    code, out, err = run_cli(capsys, "verify", "--file", str(path))
    assert code == 2 and out == "" and "cannot read spline" in err


_any_float = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=150, deadline=None)
@given(
    t_end=st.one_of(st.floats(0.5, 4), _any_float),
    coeffs=st.lists(st.one_of(st.floats(-1, 1), _any_float), min_size=1, max_size=3),
    a=st.one_of(st.floats(1, 4), _any_float),
    b=st.one_of(st.floats(0.5, 4), _any_float),
    extreme=st.booleans(),
)
def test_verify_never_passes_non_finite_input(t_end, coeffs, a, b, extreme):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.json"
        path.write_text(json.dumps({"knots": [0.0, t_end], "pieces": [coeffs], "n": 2}))
        argv = ["verify", "--file", str(path), f"--a={a!r}", f"--b={b!r}"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--extreme"] * extreme)
    if not all(math.isfinite(v) for v in (t_end, *coeffs, a, b)):
        assert code != 0 and "Traceback" not in err.getvalue()


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


# stdout of `landau table --what W --max-n 4`, byte for byte
GOLDEN_TABLES = {
    "favard": "n,K_n\n0,1.0\n1,1.5707963267948966\n2,1.2337005501361697\n3,1.2919281950124923\n4,1.26834753950524\n",
    "euler-numbers": "n,E_n\n0,1\n1,0\n2,-1\n3,0\n4,5\n",
    "rn": "n,r_n\n0,1\n1,1/2\n2,1/4\n3,1/4\n4,5/16\n",
    "cnk": (
        "n,k,exact,upper,matorin,malliavin,lower_shape_kappa_free\n"
        "2,1,2.0,2.0,2.0,1971.3475339775134,2.0\n"
        "3,1,3.1201257345778566,3.120125734577856,3.120125734577856,4895.733955023645,3.0\n"
        "3,2,2.8844991406148166,2.8844991406148166,2.8844991406148166,4895.733955023567,3.0\n"
        "4,1,,4.298279727294168,4.298279727294168,8354.630983004105,4.0\n"
        "4,2,,5.773502691896258,5.773502691896258,12655.70539664922,2.8284271247461903\n"
        "4,3,,3.7224194364083982,3.7224194364083982,8354.630983003895,4.0\n"
    ),
    "Ank": "n,k,A_nk\n2,1,2\n3,1,8\n3,2,16\n4,1,18\n4,2,96\n4,3,192\n",
    "Bnk": (
        "n,k,kallioniemi,cartan,lower_bound\n2,1,1/2,1,3/8\n3,1,1/12,4/3,5/96\n3,2,1/2,8/3,5/12\n"
        "4,1,1/128,3/4,7/1536\n4,2,19/192,4,7/96\n4,3,1/2,8,7/16\n"
    ),
}


@pytest.mark.parametrize("what", list(GOLDEN_TABLES))
def test_golden_tables(capsys, what):
    code, out, _ = run_cli(capsys, "table", "--what", what, "--max-n", "4")
    assert code == 0
    assert out == GOLDEN_TABLES[what]


@pytest.mark.parametrize("what, max_n", [("cnk", "31"), ("euler-numbers", "65")])
def test_table_with_a_failing_row_prints_no_partial_csv(capsys, what, max_n):
    code, out, err = run_cli(capsys, "table", "--what", what, "--max-n", max_n)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    (("oracle", "--problem", "pointwise", "--T", "1"), "error: oracle pointwise needs --T and --t0"),
    (("oracle", "--problem", "sigma1", "--t0", "0"), "error: oracle sigma1 needs --T"),
    (("kernel", "--n", "4", "--x", "1.5"), "error: need 0 <= x <= 1"),
    (("kernel", "--n", "4", "--k", "0", "--x", "0.5"), "error: need 0 < k < n"),
], ids=" ".join)
def test_missing_or_bad_arguments_exit_2_with_one_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", message + "\n")


# stdout of `landau spline --what en --n 3 --samples 5 --x0 0 --x1 2` and
# `landau spline --what qn --n 3 --samples 5` (two periods), byte for byte
GOLDEN_SPLINE_EN_CSV = "x,value\n0.0,0.25\n0.5,0.0\n1.0,-0.25\n1.5,-0.0\n2.0,0.25\n"
GOLDEN_SPLINE_QN_CSV = (
    "x,value\n0.0,1.0\n2.8844991406148166,-1.0\n5.768998281229633,1.0\n"
    "8.653497421844449,-1.0\n11.537996562459266,1.0\n"
)


def test_golden_spline_en_and_qn_csv(capsys):
    code, out, _ = run_cli(capsys, "spline", "--what", "en", "--n", "3", "--samples", "5", "--x0", "0", "--x1", "2")
    assert code == 0 and out == GOLDEN_SPLINE_EN_CSV
    code, out, _ = run_cli(capsys, "spline", "--what", "qn", "--n", "3", "--samples", "5")
    assert code == 0 and out == GOLDEN_SPLINE_QN_CSV


def test_table_variants(capsys):
    for what in ("favard", "rn", "Ank", "Bnk"):
        code, out, _ = run_cli(capsys, "table", "--what", what, "--max-n", "5")
        assert code == 0
        assert len(out.strip().splitlines()) >= 2
    code, out, _ = run_cli(capsys, "table", "--what", "cnk", "--max-n", "4")
    assert code == 0
    header = out.splitlines()[0]
    assert "lower_shape_kappa_free" in header


# Runs `landau ARGV` in a fresh interpreter and reports its exit code, stdout,
# stderr, which of numpy, scipy and scipy.optimize it loaded, whether it
# loaded landaukol.peano and which landaukol modules it loaded (without the
# prefix); with no ARGV it only imports the CLI.
_IMPORT_PROBE = """
import contextlib, io, json, sys
out = io.StringIO()
with contextlib.redirect_stdout(out):
    from landaukol.cli import main
    code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
heavy = sorted(m for m in ("numpy", "scipy", "scipy.optimize") if m in sys.modules)
modules = sorted(m[len("landaukol."):] for m in sys.modules if m.startswith("landaukol."))
print(json.dumps({"code": code, "out": out.getvalue(), "heavy": heavy, "peano": "landaukol.peano" in sys.modules,
                  "modules": modules}))
"""


def _env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _probe(*argv, timeout=120):
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv], env=_env(),
                          capture_output=True, text=True, timeout=timeout, check=True)
    return dict(json.loads(proc.stdout), err=proc.stderr)


@pytest.mark.parametrize("argv", [
    ("extremal", "--n", "2", "--T", "5000", "--t0", "5"),  # 118 kB, more than a pipe holds
    ("table", "--what", "euler-numbers", "--max-n", "64"),
], ids=" ".join)
def test_closed_stdout_exits_2_without_a_traceback(argv):
    # the reader closes its end before reading anything; exit 1 would say
    # "verification negative"
    proc = subprocess.Popen([sys.executable, "-m", "landaukol.cli", *argv], env=_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=120), err) == (2, b"")


@pytest.mark.parametrize("argv", [
    (),
    ("bound", "--n", "2", "--T", "10"),
    ("bound", "--n", "2", "--T", "10", "--t0", "1"),
    ("bound", "--n", "2", "--T", "3", "--functional", "var"),
    ("bound", "--n", "3", "--k", "1", "--domain", "line"),
    ("bound", "--n", "5", "--k", "2", "--domain", "halfline"),
    ("table", "--what", "cnk", "--max-n", "6"),
    ("extremal", "--n", "2", "--T", "2", "--t0", "0"),
    ("extremal", "--n", "2", "--T", "3", "--functional", "var"),
    ("verify", "--file", "{witness}", "--extreme"),
    ("kernel", "--n", "4", "--k", "2", "--x", "0.3", "--samples", "5"),
    ("spline", "--what", "euler-spline", "--n", "5", "--samples", "5"),
], ids=lambda argv: " ".join(argv) or "import")
def test_closed_forms_load_neither_numpy_nor_scipy(argv, tmp_path):
    # numpy and scipy cost most of a closed-form call's start-up; a later
    # top-level import would bring that back without failing anything else.
    # {witness} is the n = 2 witness of `extremal --n 2 --T 2 --t0 0`, whose
    # float roots are all of degree 1
    witness = tmp_path / "w.json"
    witness.write_text('{"knots": [0.0, 2.0], "pieces": [[-1.0, 2.0, -0.5]], "n": 2}')
    probe = _probe(*(arg.format(witness=witness) for arg in argv))
    assert probe["code"] == 0
    assert probe["heavy"] == []


@pytest.mark.parametrize("argv", [
    (),
    ("bound", "--n", "2", "--T", "10", "--t0", "1"),
    ("bound", "--n", "5", "--k", "2", "--domain", "halfline"),
    ("table", "--what", "cnk", "--max-n", "6"),
], ids=lambda argv: " ".join(argv) or "import")
def test_closed_forms_do_not_load_peano(argv):
    # peano, with the certificate search, loads on first use: a process
    # without a kernel or an n >= 4 segment does not compile it
    probe = _probe(*argv)
    assert probe["code"] == 0 and not probe["peano"]


# every closed-form `bound` route, and `table`: whether it loads landau2, which
# only the n = 2 routes with 0 < k < 2 need
LOADS_LANDAU2 = {
    ("bound", "--n", "2", "--T", "10"): True,
    ("bound", "--n", "2", "--T", "10", "--t0", "1"): True,
    ("bound", "--n", "2", "--T", "3", "--functional", "var"): True,
    ("bound", "--n", "2", "--domain", "halfline"): True,
    ("bound", "--n", "2", "--domain", "line"): True,
    ("bound", "--n", "2", "--k", "0", "--T", "1"): False,
    ("bound", "--n", "3", "--k", "1", "--T", "2"): False,
    ("bound", "--n", "3", "--k", "2", "--domain", "halfline"): False,
    ("bound", "--n", "5", "--k", "2", "--domain", "line"): False,
    ("bound", "--n", "5", "--k", "2", "--domain", "halfline"): False,
    ("table", "--what", "cnk", "--max-n", "6"): False,
    ("table", "--what", "favard", "--max-n", "6"): False,
}


@pytest.mark.parametrize("argv", list(LOADS_LANDAU2), ids=" ".join)
def test_closed_forms_load_no_spline_code(argv):
    # pwpoly and _roots load with the first spline; a later top-level import
    # would compile them in every process without failing anything else
    probe = _probe(*argv)
    assert probe["code"] == 0
    assert not {"pwpoly", "_roots"} & set(probe["modules"])
    assert ("landau2" in probe["modules"]) == LOADS_LANDAU2[argv]


def test_certificate_route_and_package_attribute_load_peano():
    probe = _probe("bound", "--n", "4", "--k", "2", "--T", "3")
    assert probe["code"] == 0 and probe["peano"]
    import landaukol
    from landaukol import peano

    assert landaukol.vandermonde_certificate is peano.vandermonde_certificate
    with pytest.raises(AttributeError):
        landaukol.no_such_name


# Imports the package alone, lists it, then reads one name
_PACKAGE_PROBE = """
import json, sys
import landaukol
loaded = lambda: sorted(m for m in sys.modules if m.startswith("landaukol."))
before, listed = loaded(), dir(landaukol)
landaukol.Poly
print(json.dumps([before, listed, loaded()]))
"""


def test_package_names_resolve_to_their_modules():
    # the package imports no submodule until a name is read, and then only its module
    proc = subprocess.run([sys.executable, "-c", _PACKAGE_PROBE], env=_env(), capture_output=True, text=True,
                          check=True)
    before, listed, after = json.loads(proc.stdout)
    import landaukol

    assert set(landaukol.__all__) <= set(listed) and len(landaukol.__all__) == len(set(landaukol.__all__))
    assert (before, after) == ([], ["landaukol.exactnum"])
    namespace = {}
    exec("from landaukol import *", namespace)
    for name in landaukol.__all__:
        home = importlib.import_module(f"landaukol.{landaukol._MODULE_OF[name]}")
        assert getattr(landaukol, name) is getattr(home, name) is namespace[name], name
        assert name in vars(home), name
    with pytest.raises(AttributeError):
        landaukol.no_such_name


def test_oracle_still_loads_scipy():
    probe = _probe("oracle", "--problem", "pointwise", "--T", "2", "--t0", "1", "--M", "50")
    assert probe["code"] == 0 and "scipy" in probe["heavy"]
    assert json.loads(probe["out"])["result"]["status"] == "OracleApprox"


def test_bangbang_oracle_does_not_load_scipy_optimize():
    # the search runs its own Nelder-Mead; scipy.optimize alone costs a
    # fresh process more start-up time and memory than the search needs
    probe = _probe("oracle", "--problem", "sigma1", "--T", "2", "--restarts", "20", "--seed", "3")
    assert probe["code"] == 0 and "scipy.optimize" not in probe["heavy"]
    assert json.loads(probe["out"])["result"]["value"] == pytest.approx(2.0, abs=1e-3)


def test_verify_reports_an_overflowing_sup_as_a_non_member(tmp_path):
    # p' = 1e10 + 2e-300 t has its root far outside the piece, and |f| overflows
    # on it: a verdict, with no numpy warning or companion-matrix error
    path = tmp_path / "huge.json"
    path.write_text('{"knots": [1e300, 1.5e300], "pieces": [[0, 1e10, 1e-300]], "n": 2}')
    probe = _probe("verify", "--file", str(path))
    assert (probe["code"], probe["err"]) == (1, "")
    result = json.loads(probe["out"])["result"]
    assert result["membership"] is False and {v["kind"] for v in result["violations"]} == {"sup"}


def test_verify_reports_an_overflowing_cubic_sup_as_a_non_member(tmp_path):
    # the same at degree 3: p' = 1e10 + 2e-300 t + 3e-300 t^2 overflows the companion
    # matrix (-c0/c2), so its roots are searched in a scaled variable
    path = tmp_path / "huge3.json"
    path.write_text('{"knots": [1e300, 1.5e300], "pieces": [[0, 1e10, 1e-300, 1e-300]], "n": 3}')
    probe = _probe("verify", "--file", str(path), "--a", "1", "--b", "1")
    assert (probe["code"], probe["err"]) == (1, "")
    result = json.loads(probe["out"])["result"]
    assert result["membership"] is False and {v["kind"] for v in result["violations"]} == {"sup"}


def test_verify_cost_does_not_grow_with_the_order(tmp_path):
    # joins are checked up to the larger degree of the two pieces, and no
    # piece below degree n computes n! (factorial(10**6) alone takes seconds)
    path = tmp_path / "lin.json"
    path.write_text('{"knots": [0.0, 1.0, 2.0], "pieces": [[0.0, 0.5], [0.0, 0.5]], "n": 2}')
    small, huge = (_probe("verify", "--file", str(path), "--n", n, "--extreme", timeout=30)
                   for n in ("3", "1000000"))
    assert huge == small
    assert json.loads(small["out"])["result"]["membership"] is True
