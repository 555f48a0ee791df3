"""Each workload's set-up: the imports and warm-up calls that come before its
first timed operation.

Run as a script, it times one workload's set-up in a fresh process:

    PYTHONPATH=src python3 perfbench/warmup.py WORKLOAD

and prints, as JSON, the seconds the set-up took and reference-loop times
taken right after it.  Nothing but the interpreter's own start-up modules is
imported before the timed part, so the set-up pays for every import the
workload makes, and interpreter start-up is left out.
"""
import sys
from time import perf_counter

PROBE_LOOPS = 5


def cli() -> None:
    """What every `landau` process pays before it runs a command."""
    import landaukol.cli  # noqa: F401


def closed_form() -> None:
    import landaukol as lk

    lk.compute_bound(lk.BoundQuery(2, 1, 1.0, 1.0, lk.Segment(1.0)))
    lk.sigma_pointwise(lk.PointwiseQuery(0.5, 1.0))


def certificate() -> None:
    from landaukol import peano

    # an (n, k) the stream never asks for, so no certificate is pre-computed
    peano.vandermonde_certificate(2, 1)


def oracle() -> None:
    from landaukol import oracle

    oracle.build_pointwise_lp(1.0, 1.0, 1.0, 0.0, 50).solve()
    oracle.random_member(1.0, 1.0, 2.0, seed=0)


SETUP = {
    "cli-roundtrip": cli,
    "closed-form-session": closed_form,
    "certificate-session": certificate,
    "oracle-session": oracle,
}


if __name__ == "__main__":
    t0 = perf_counter()
    SETUP[sys.argv[1]]()
    seconds = perf_counter() - t0
    import json

    from refspeed import ref_loop

    print(json.dumps({"seconds": seconds, "ref": [ref_loop() for _ in range(PROBE_LOOPS)]}))
