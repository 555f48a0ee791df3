"""The benchmark's tracer wraps landaukol functions by name, and its
workloads read result attributes by name; every such name must exist, or a
refactor breaks the benchmark without failing a test."""
import importlib
import importlib.util
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from landaukol import landau2, landaun, oracle
from landaukol.bounds import BoundQuery, FullLine, HalfLine, Segment, compute_bound
from landaukol.exactnum import Poly
from landaukol.pwpoly import PiecewisePoly, is_extreme_point

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


@pytest.mark.parametrize("module, attr, layer", _boundaries(), ids=lambda v: str(v))
def test_traced_boundary_resolves(module, attr, layer):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{module}.{attr} ({layer})"


@pytest.mark.parametrize("make, point", [
    (lambda: compute_bound(BoundQuery(2, 1, 2.0, 3.0, FullLine)), 0.0),
    (lambda: compute_bound(BoundQuery(2, 1, 2.0, 3.0, HalfLine)), 0.0),
    (lambda: compute_bound(BoundQuery(2, 1, 2.0, 3.0, Segment(1.0))), 0.0),
    (lambda: landau2.sigma_pointwise(landau2.PointwiseQuery(1.0, 10.0, 2.0, 3.0)), 1.0),  # (t0, T, a, b)
    (lambda: landau2.sigma1(2.0, 3.0, 2.0), None),
], ids=["line", "halfline", "segment", "pointwise", "sigma1"])
def test_result_attributes_read_by_the_workloads(make, point):
    r = make()
    assert r.witness.to_json_dict()["n"] == 2 and r.witness_point == point


def test_lp_solve_returns_value_samples_and_pivots():
    value, v, pivots = oracle.build_pointwise_lp(1.0, 1.0, 1.0, 0.0, 50).solve()
    assert isinstance(value, float) and v.shape == (51,) and isinstance(pivots, int) and pivots > 0


def test_result_fields_read_by_the_workloads():
    r = landau2.sigma1(1.0, 1.0, 3.0)
    assert (r.lower, r.upper, r.exact) == (2.5, 2.5, 2.5)
    br = landaun.cnk_bracket(3, 1)
    assert br.upper == min(br.matorin, br.malliavin) and br.exact == landaun.C31
    parabola = PiecewisePoly([Fraction(0), Fraction(4)], [Poly([Fraction(1), Fraction(-2), Fraction(1, 2)])], 2)
    v = is_extreme_point(parabola, 2, Fraction(1), Fraction(1))
    assert v.multiplicity_sum == 4 and v.numeric is False  # contacts at 0, 2 (tangential) and 4


def test_one_checked_round_of_every_benchmark_workload_passes():
    # `perfbench/run.py --quick` checks every output of one round of each
    # workload against values computed apart from the library
    run = subprocess.run([sys.executable, "perfbench/run.py", "--quick"], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 4 and all(line.startswith("ok ") for line in lines), run.stdout
