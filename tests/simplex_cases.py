"""The five simplex solves whose outputs tests/test_oracle.py pins bit for bit.

Imports neither pytest nor scipy, so that a child process runs them quickly:

    PYTHONPATH=src python tests/simplex_cases.py

prints one JSON object, case name -> [repr(value), pivots, sha256 of x].
"""
import hashlib
import json

import numpy as np

from landaukol.oracle import build_pointwise_lp, simplex_maximize


def random_box_lp(seed, m=30, n=600, density=0.02):
    """Sparse random rows over many variables, each variable boxed by 1: the
    pivot rows have nonzeros in several runs of columns far apart."""
    rng = np.random.default_rng(seed)
    A = np.vstack([rng.uniform(-1.0, 1.0, size=(m, n)) * (rng.random((m, n)) < density), np.eye(n)])
    b = np.concatenate([rng.uniform(0.0, 2.0, size=m), np.ones(n)])
    return rng.uniform(-1.0, 1.0, size=n), A, b


def _pointwise(T, t0, M):
    return build_pointwise_lp(1, 1, T, t0, M).solve()


def _random(seed):
    x, value, pivots = simplex_maximize(*random_box_lp(seed))
    return value, x, pivots


# random-2024 is a general LP with no finite bound; the others are pointwise
# LPs of the unit class, (T, t0, M)
CASES = {
    "interior-800": (_pointwise, (10, 5, 800)),
    "short-200": (_pointwise, (1, 0, 200)),
    "free-end-200": (_pointwise, (4, 0.5, 200)),
    "interior-200": (_pointwise, (10, 5, 200)),
    "random-2024": (_random, (2024,)),
}


def output(case):
    solve, args = CASES[case]
    value, x, pivots = solve(*args)
    return repr(value), pivots, hashlib.sha256(x.tobytes()).hexdigest()


if __name__ == "__main__":
    print(json.dumps({case: output(case) for case in CASES}))
