"""The benchmark's tracer wraps landaukol functions by name, and its
workloads read result attributes by name; every such name must exist, or a
refactor breaks the benchmark without failing a test."""
import importlib
import importlib.util
from pathlib import Path

import pytest

from landaukol import landau2
from landaukol.bounds import BoundQuery, FullLine, HalfLine, Segment, compute_bound

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
