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
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from landaukol.bounds import BoundQuery, Segment, compute_bound
from landaukol.cli import main
from landaukol.landau2 import sigma1
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
    code, payload, _ = run_json(capsys, "oracle", "--problem", "pointwise", "--T", "1", "--t0", "0")
    assert code == 0 and payload["result"]["config"] == {"problem": "pointwise", "a": 1.0, "b": 1.0, "T": 1.0,
                                                         "t0": 0.0, "M": 400}


def test_oracle_sigma1_json_and_seed_env(capsys, monkeypatch):
    # --seed decides; the environment does not
    code, payload, _ = run_json(capsys, "oracle", "--problem", "sigma1", "--T", "2",
                                "--restarts", "20", "--seed", "3")
    assert code == 0
    assert payload["result"]["value"] == pytest.approx(2.0, abs=1e-3)
    assert payload["result"]["config"]["seed"] == 3
    monkeypatch.setenv("LANDAU_SEED", "99")
    code, payload, _ = run_json(capsys, "oracle", "--problem", "sigma1", "--T", "2",
                                "--restarts", "20", "--seed", "3")
    assert code == 0
    assert payload["result"]["config"]["seed"] == 3


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
    (("kernel", "--n", "2", "--k", "7", "--x", "0.5", "--samples", "3"),
     "error: the kernel of order n = 2 is that of f'; use --k 1"),
    (("bound", "--domain", "line", "--n", "3", "--k", "1", "--T", "1"), "error: --T only applies to --domain segment"),
    (("extremal", "--domain", "halfline", "--T", "1"), "error: --T only applies to --domain segment"),
    (("oracle", "--problem", "sigma1", "--T", "3", "--t0", "1"), "error: --t0 only applies to --problem pointwise"),
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


def test_spline_qn_samples_the_given_window(capsys):
    code, out, _ = run_cli(capsys, "spline", "--what", "qn", "--n", "3", "--x0", "5", "--x1", "6", "--samples", "2")
    assert code == 0 and [line.split(",")[0] for line in out.splitlines()] == ["x", "5.0", "6.0"]


def test_table_variants(capsys):
    for what in ("favard", "rn", "Ank", "Bnk"):
        code, out, _ = run_cli(capsys, "table", "--what", what, "--max-n", "5")
        assert code == 0
        assert len(out.strip().splitlines()) >= 2
    code, out, _ = run_cli(capsys, "table", "--what", "cnk", "--max-n", "4")
    assert code == 0
    header = out.splitlines()[0]
    assert "lower_shape_kappa_free" in header


_INTS = st.integers(-2, 14)
# magnitudes log-uniform in [1e-320, 1e308] with either sign, and the non-finite ends
_REALS = st.one_of(st.builds(lambda e, sign: repr(sign * 10.0**e), st.floats(-320, 308), st.sampled_from([1, -1])),
                   st.sampled_from(["0", "nan", "inf", "-inf"]))


def _argv(command, required, **optional):
    """`landau COMMAND` with the required flags and any of the optional ones, as --flag=value."""
    flags = st.fixed_dictionaries(required, optional=optional)
    return flags.map(lambda d: [*command, *(f"--{name.replace('_', '-')}={value}" for name, value in d.items())])


@settings(max_examples=150, deadline=None)
@given(argv=st.one_of(
    _argv(["bound"], {}, n=_INTS, k=_INTS, a=_REALS, b=_REALS, T=_REALS, t0=_REALS,
          domain=st.sampled_from(["segment", "halfline", "line"]), functional=st.sampled_from(["sup", "var"])),
    _argv(["kernel", "--samples=3"], {"x": _REALS}, n=_INTS, k=_INTS, T=_REALS),
    _argv(["spline", "--samples=3"], {"what": st.sampled_from(["en", "euler-spline", "qn"]), "n": _INTS},
          x0=_REALS, x1=_REALS),
    _argv(["table"], {"what": st.sampled_from(["favard", "euler-numbers", "rn", "cnk", "Ank", "Bnk"])}, max_n=_INTS),
))
@example(argv=["bound", "--n=12", "--k=6", "--T=1", "--a=1e-300", "--b=1e300"])
@example(argv=["bound", "--n=10", "--k=3", "--a=2.143606754004768e-267", "--b=3.619802352911548e+290",
               "--T=3.3135122483901055e+145"])
@example(argv=["bound", "--n=12", "--k=6", "--a=1.7416429364733115e-184", "--b=5e-324", "--T=1e-308"])
@example(argv=["spline", "--what=qn", "--n=0"])
def test_no_landau_call_ends_in_a_traceback(argv):
    _exit_code(argv)


def _exit_code(argv, stdout=None):
    """The code of `landau ARGV` run in-process, None where argparse refused
    the argv: 0, 1 or 2, with one line on stderr and none on stdout for 2. Any
    other exception fails. Its stdout goes to `stdout` if given."""
    out, err = stdout or io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused the argv
            code = None
            assert exc.code == 2
    assert code in (None, 0, 1, 2)
    assert code != 2 or (out.getvalue() == "" and len(err.getvalue().splitlines()) == 1)
    return code


_LOG10 = st.floats(-320, 308)


def _ten_to(e):
    """10^e as a decimal string, which reads as 0 or inf past the float range."""
    return f"{10 ** (e % 1):.6f}e{math.floor(e)}"


@st.composite
def _extremal_argv(draw):
    """`extremal` with a and b log-uniform in [1e-320, 1e308], and T (b/a)^(1/n) at most 100."""
    n, la, lb = draw(st.integers(2, 12)), draw(_LOG10), draw(_LOG10)
    domain = draw(st.sampled_from(["segment", "halfline", "line"] if n == 2 else ["halfline", "line"]))
    argv = ["extremal", f"--n={n}", f"--k={draw(st.integers(1, n - 1))}", f"--a={_ten_to(la)}",
            f"--b={_ten_to(lb)}", f"--domain={domain}"]
    if domain == "segment":
        T = float(_ten_to(draw(st.floats(-2, 2)) + (la - lb) / 2))
        argv += [f"--T={T!r}", *draw(st.sampled_from([[], [f"--t0={T * draw(st.floats(0, 1))!r}"],
                                                        ["--functional=var"]]))]
    return argv


_MAGNITUDE = st.one_of(st.just(0.0), st.builds(lambda e, sign: sign * 10.0**e, _LOG10, st.sampled_from([1, -1])))


@st.composite
def _spline_file(draw):
    """Spline JSON of 1 to 4 pieces of degree up to 4, exact (decimal strings)
    or float, with knots and coefficients of magnitude up to 1e308."""
    count = draw(st.integers(1, 4))
    knots = [draw(_MAGNITUDE)]
    for _ in range(count):
        knots.append(knots[-1] + max(abs(knots[-1]), 1.0) * 10.0 ** draw(st.floats(-13, 3)))
    pieces = [draw(st.lists(_MAGNITUDE, min_size=1, max_size=5)) for _ in range(count)]
    number = repr if draw(st.booleans()) else float
    return json.dumps({"knots": [number(k) for k in knots], "pieces": [[number(c) for c in p] for p in pieces],
                       "n": draw(st.integers(1, 5))})


@st.composite
def _oracle_argv(draw):
    """`oracle` with a and b log-uniform in [1e-320, 1e308], T sqrt(b/a)
    log-uniform in [1e-3, 3] or across the float range and past it, --M at
    most 60 and 20 restarts."""
    la, lb = draw(_LOG10), draw(_LOG10)
    lt = draw(st.floats(-3, math.log10(3)) | st.floats(-330, 330))
    T = float(_ten_to(lt + (la - lb) / 2))
    argv = ["oracle", f"--a={_ten_to(la)}", f"--b={_ten_to(lb)}", f"--T={T!r}"]
    if draw(st.booleans()):
        return argv + ["--problem=pointwise", f"--t0={T * draw(st.floats(0, 1))!r}", f"--M={draw(st.integers(50, 60))}"]
    # a search on T sqrt(b/a) in (3, 100) takes seconds; above it the switch cap refuses
    assume(not math.log10(3) < lt < 2)
    return argv + ["--problem=sigma1", "--restarts=20"]


_FAR_SPLINES = [
    '{"knots": ["0", "1", "2"], "pieces": [["0", "1.5e308"], ["0", "-1.5e308"]], "n": 2}',
    '{"knots": ["0", "1"], "pieces": [["0", "0", "0", "1.7e308"]], "n": 3}',
    '{"knots": ["0", "4"], "pieces": [["0", "1e308"]], "n": 2}',
]


@settings(max_examples=100, deadline=None)
@given(call=st.one_of(
    _extremal_argv(),
    st.tuples(_spline_file(), st.lists(st.sampled_from(["--extreme", "--a=0.5", "--b=3e300"]), unique=True)),
))
@example(call=["extremal", "--n", "7", "--domain", "line", "--a", "1e308", "--b", "1860.359431261814"])
@example(call=["extremal", "--n", "2", "--domain", "halfline", "--a", "1e308", "--b", "5.54392861966967"])
@example(call=["extremal", "--n", "11", "--k", "2", "--domain", "line", "--a", "3.8737383051219476e+299",
               "--b", "66178.26140546787"])
@example(call=(_FAR_SPLINES[0], []))
@example(call=(_FAR_SPLINES[1], ["--extreme"]))
@example(call=(_FAR_SPLINES[2], []))
def test_no_extremal_or_verify_call_ends_in_a_traceback(call):
    # an extremal witness is built only where its membership check stays in
    # the float range, so extremal never exits 1; verify words an exact value
    # past the range as inf
    if isinstance(call, tuple):  # verify on a spline file, with some flags
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "spline.json")
            path.write_text(call[0])
            _exit_code(["verify", f"--file={path}", *call[1]])
    else:
        assert _exit_code(call) != 1


@settings(max_examples=25, deadline=None)
@given(argv=_oracle_argv())
@example(argv=["oracle", "--problem", "sigma1", "--a", "1e155", "--b", "1e155", "--T", "1.5", "--restarts", "20"])
@example(argv=["oracle", "--problem", "sigma1", "--a", "1e-300", "--b", "1e300", "--T", "1e-300", "--restarts", "20"])
@example(argv=["oracle", "--problem", "sigma1", "--a", "8e307", "--b", "1.79e308", "--T", "1", "--restarts", "20"])
@example(argv=["oracle", "--problem", "sigma1", "--a", "6.006578e307", "--b", "6.953913e145", "--T", "5.409827e80",
               "--restarts", "20"])
@example(argv=["oracle", "--problem", "sigma1", "--a", "1e10", "--b", "1e10", "--T", "1.5", "--restarts", "20"])
@example(argv=["oracle", "--problem", "sigma1", "--T", "1e5"])
@example(argv=["oracle", "--problem", "sigma1", "--a", "1e300", "--b", "1.7e308", "--T", "7.7e-9", "--restarts", "20"])
@example(argv=["oracle", "--problem", "sigma1", "--a", "5e-324", "--b", "1.7e308", "--T", "1e300", "--restarts", "20"])
@example(argv=["oracle", "--problem", "pointwise", "--a", "1.7e308", "--b", "5e-324", "--T", "1e-300", "--t0", "0",
               "--M", "50"])
@example(argv=["oracle", "--problem", "pointwise", "--a", "5e-324", "--b", "1.7e308", "--T", "1e300", "--t0", "1",
               "--M", "50"])
@example(argv=["oracle", "--problem", "pointwise", "--a", "1e-20", "--b", "1e-20", "--T", "4", "--t0", "0.5",
               "--M", "50"])
@example(argv=["oracle", "--problem", "pointwise", "--a", "1e308", "--b", "1e308", "--T", "1e-3", "--t0", "0",
               "--M", "50"])
def test_no_oracle_call_ends_in_a_traceback(argv):
    # both oracles solve the unit class on [0, T sqrt(b/a)] and map the
    # result once, so an answer is right at every scale: an LP value within
    # the benchmark's O(h) tolerance of the closed form, and a sigma1 value a
    # positive lower bound
    out = io.StringIO()
    code = _exit_code(argv, out)
    assert code in (0, 2)
    if code == 2:
        return
    assert "Infinity" not in out.getvalue() and "NaN" not in out.getvalue()
    result = json.loads(out.getvalue())["result"]
    config, value = result["config"], result["value"]
    a, b, T = config["a"], config["b"], config["T"]
    if config["problem"] == "sigma1":
        assert 0 < value <= sigma1(a, b, T).upper * (1 + 1e-12)
        return
    ref = compute_bound(BoundQuery(2, 1, a, b, Segment(T), t0=config["t0"])).value
    # plus the rounding of a unit value near 2 / T sqrt(b/a) and of the map
    # by sqrt(a) sqrt(b), which is coarse where that is subnormal
    rounding = 1e-12 * ref + ref / (math.sqrt(a) * math.sqrt(b)) * 2.0**-1073
    assert abs(value - ref) <= 5 * b * T / config["M"] + rounding


# Runs `landau ARGV` in a fresh interpreter and reports its exit code, stdout,
# stderr, which of numpy, scipy and scipy.optimize it loaded, whether it
# loaded landaukol.peano and which landaukol modules it loaded (without the
# prefix); with no ARGV it only imports the CLI.
_IMPORT_PROBE = """
import sys
bare = set(sys.modules)  # what a bare interpreter has loaded, site included
import contextlib, io, json
out = io.StringIO()
with contextlib.redirect_stdout(out):
    from landaukol.cli import main
    code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
heavy = sorted(m for m in ("numpy", "scipy", "scipy.optimize") if m in sys.modules)
codegen = sorted(m for m in ("dataclasses", "inspect") if m in sys.modules and m not in bare)
modules = sorted(m[len("landaukol."):] for m in sys.modules if m.startswith("landaukol."))
print(json.dumps({"code": code, "out": out.getvalue(), "heavy": heavy, "codegen": codegen,
                  "peano": "landaukol.peano" in sys.modules, "modules": modules}))
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
    # Nor does any command load dataclasses, or inspect behind it, beyond
    # what the interpreter had loaded before the call.
    # {witness} is the n = 2 witness of `extremal --n 2 --T 2 --t0 0`, whose
    # float roots are all of degree 1
    witness = tmp_path / "w.json"
    witness.write_text('{"knots": [0.0, 2.0], "pieces": [[-1.0, 2.0, -0.5]], "n": 2}')
    probe = _probe(*(arg.format(witness=witness) for arg in argv))
    assert probe["code"] == 0
    assert probe["heavy"] == []
    assert probe["codegen"] == []


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
    # neither the certificate nor a kernel sample reads a spline, so neither loads pwpoly
    for argv in [("bound", "--n", "4", "--k", "2", "--T", "3"), ("kernel", "--n", "4", "--k", "2", "--x", "0.5")]:
        probe = _probe(*argv)
        assert probe["code"] == 0 and probe["peano"]
        assert {"_roots", "peano"} <= set(probe["modules"]) and "pwpoly" not in probe["modules"]
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


@pytest.mark.parametrize("argv, check", [
    (("--problem", "pointwise", "--T", "2", "--t0", "1", "--M", "50"),
     lambda result: result["status"] == "OracleApprox"),
    (("--problem", "sigma1", "--T", "2", "--restarts", "20", "--seed", "3"),
     lambda result: result["value"] == pytest.approx(2.0, abs=1e-3)),
], ids=["pointwise", "sigma1"])
def test_oracle_does_not_load_scipy(argv, check):
    # the simplex and Nelder-Mead are written on numpy and plain floats;
    # scipy alone costs a fresh process more start-up time and memory than
    # either oracle needs
    probe = _probe("oracle", *argv)
    assert probe["code"] == 0 and "scipy" not in probe["heavy"]
    assert check(json.loads(probe["out"])["result"])


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


@pytest.mark.parametrize("text", ['{"knots": [0, true], "pieces": [[false, true]], "n": 2}',
                                  '{"knots": [0, 1], "pieces": [[0.5, false]], "n": 2}'])
def test_verify_refuses_json_booleans_as_numbers(tmp_path, capsys, text):
    path = tmp_path / "w.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "verify", "--file", str(path))
    assert (code, out) == (2, "") and len(err.splitlines()) == 1
    assert err.startswith("error: cannot read spline: bad spline JSON: ") and "is not a number" in err


@pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 2.98 GiB")], ids=repr)
def test_oracle_out_of_memory_exits_2_with_one_line(capsys, monkeypatch, exc):
    from landaukol import oracle

    def too_large(*args, **kwargs):
        raise exc

    monkeypatch.setattr(oracle, "lp_max_pointwise_derivative", too_large)
    code, out, err = run_cli(capsys, "oracle", "--problem", "pointwise", "--T", "1", "--t0", "0.5", "--M", "20000")
    assert (code, out) == (2, "") and len(err.splitlines()) == 1
    assert err.startswith("error: out of memory: ")
