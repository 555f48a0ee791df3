"""landaukol benchmark: one workload per run, timed at reference speed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick          # one checked round of every workload

Run it from anywhere inside a checkout of the repository; it imports the
package from the checkout's src/ and nothing else.  The last line of stdout
is one JSON object {correct, attempted, failed, metrics}: the end-to-end
metrics with --trace 0, the per-module metrics with --trace 1.  See
perfbench/README.md for the workloads and the metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import workloads

# must be set before numpy is first imported, here and in every child
os.environ["OPENBLAS_NUM_THREADS"] = workloads.BLAS_THREADS
# one CPU for the run and every child, so that the reference loop is timed
# on the CPU the operations run on
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import spans  # noqa: E402
from refspeed import REF_MS, RefClock  # noqa: E402
from checks import CheckFailed  # noqa: E402

SETUP_PROBES = 11

# op key -> (per-module metric, unit); the metric is the median latency
LATENCY = {
    "cli.bound": ("cli.bound_ms", "ms"),
    "cli.extremal": ("cli.extremal_ms", "ms"),
    "cli.verify": ("cli.verify_ms", "ms"),
    "cli.table": ("cli.table_ms", "ms"),
    "bounds.line": ("bounds.line_us", "us"),
    "bounds.halfline": ("bounds.halfline_us", "us"),
    "bounds.segment2": ("bounds.segment2_us", "us"),
    "bounds.segment3": ("bounds.segment3_us", "us"),
    "landaun.cnk_bracket": ("landaun.cnk_bracket_us", "us"),
    "landaun.kolmogorov_bound": ("landaun.kolmogorov_bound_us", "us"),
    "landau2.sigma_pointwise": ("landau2.sigma_pointwise_us", "us"),
    "landau2.sigma1": ("landau2.sigma1_us", "us"),
    "landau2.sigma1_interval": ("landau2.sigma1_interval_us", "us"),
    "eulerspline.export": ("eulerspline.export_ms", "ms"),
    "pwpoly.membership_float": ("pwpoly.membership_float_us", "us"),
    "pwpoly.membership_exact": ("pwpoly.membership_exact_ms", "ms"),
    "pwpoly.extreme_float": ("pwpoly.extreme_float_us", "us"),
    "pwpoly.extreme_exact": ("pwpoly.extreme_exact_ms", "ms"),
    "pwpoly.json_roundtrip": ("pwpoly.json_roundtrip_us", "us"),
    "peano.certificate_first": ("peano.certificate_first_ms", "ms"),
    "peano.certificate_repeat": ("peano.certificate_repeat_ms", "ms"),
    "oracle.lp800": ("oracle.lp_ms", "ms"),
    "oracle.bangbang": ("oracle.bangbang_ms", "ms"),
    "oracle.random_member": ("oracle.random_member_us", "us"),
}
# traced layer -> (calls metric or None, busy-time metric), both per round
LAYERS = {
    "roots.exact": ("roots.exact_calls", "roots.exact_busy_ms"),
    "roots.float": ("roots.float_calls", "roots.float_busy_ms"),
    "exactnum.poly_mul": ("exactnum.poly_mul_calls", "exactnum.poly_busy_ms"),
    "peano.solve": (None, "peano.solve_busy_ms"),
    "peano.kernel_pieces": (None, "peano.kernel_pieces_busy_ms"),
    "peano.kernel_sup": (None, "peano.kernel_sup_busy_ms"),
    "oracle.decode": (None, "oracle.decode_busy_ms"),
    "oracle.evaluate": (None, "oracle.evaluate_busy_ms"),
    "oracle.minimize": (None, "oracle.minimize_busy_ms"),
}
SCALE = {"ms": 1e3, "us": 1e6}


class Stream:
    """Outcome of running whole rounds of one workload."""

    def __init__(self):
        # (op key, start time, seconds, op.ref_scaled) of operations that returned
        self.records: list = []
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.wrong: list = []

    def scaled(self, clock: RefClock) -> list:
        """(op key, seconds at reference speed) for every operation."""
        return [(key, clock.scaled(t0, t) if ref_scaled else t) for key, t0, t, ref_scaled in self.records]


def run_rounds(w, seed: int, clock: RefClock, seconds=None, rounds=None, tracer=None) -> Stream:
    """Run whole rounds until `rounds` are done, or while the next round is
    expected to end no more than half a round past `seconds`.  The reference
    loop is sampled between operations."""
    rng = random.Random(seed)
    w.reset()
    s = Stream()
    clock.sample()
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if rounds is not None:
            if s.rounds >= rounds:
                break
        elif s.rounds and elapsed + 0.5 * elapsed / s.rounds >= seconds:
            break
        for op in w.round(rng):
            clock.between()
            if tracer is not None:
                tracer.current_op = s.attempted
            s.attempted += 1
            t0 = perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # counted, not timed, and not fatal
                s.failed += 1
                print(f"failed: {op.key}: {exc!r}", file=sys.stderr)
                continue
            s.records.append((op.key, t0, perf_counter() - t0, op.ref_scaled))
            try:
                op.check(result)
            except (CheckFailed, KeyError, TypeError, ValueError) as exc:
                s.wrong.append(f"{op.key}: {exc}")
                print(f"wrong: {op.key}: {exc}", file=sys.stderr)
        s.rounds += 1
    clock.sample()
    return s


def setup_probes(w, probes: int) -> list:
    """(raw, at reference speed) set-up seconds of fresh processes that
    import and warm up as the workload does (warmup.py), each scaled by the
    reference loop timed in that process right after its set-up."""
    samples = []
    for _ in range(probes):
        p = subprocess.run(
            [sys.executable, str(workloads.HERE / "warmup.py"), w.name],
            env=workloads.child_env(), capture_output=True, text=True, check=True, timeout=150,
        )
        doc = json.loads(p.stdout)
        samples.append((doc["seconds"], doc["seconds"] * REF_MS / (statistics.mean(doc["ref"]) * 1e3)))
    return samples


def peak_rss_mb(w) -> float:
    who = resource.RUSAGE_CHILDREN if isinstance(w, workloads.Cli) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def import_times_ms(clock: RefClock) -> tuple:
    """(landaukol.cli ms, scipy ms) at reference speed: cumulative import
    times from -X importtime in a fresh process; scipy counts every scipy
    subtree not inside another."""
    clock.sample()
    t0 = perf_counter()
    p = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import landaukol.cli"],
        env=workloads.child_env(), capture_output=True, text=True, check=True, timeout=150,
    )
    entries = []
    for line in p.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        entries.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))
    clock.sample()
    factor = clock.factor(t0, perf_counter())
    cli_us = next(us for _, name, us in entries if name == "landaukol.cli")
    scipy_us = 0
    for i, (level, name, us) in enumerate(entries):
        if name.split(".")[0] != "scipy":
            continue
        # importtime prints a module after its children: the parent is the
        # next entry at a lower level
        parent = next((e for e in entries[i + 1:] if e[0] < level), None)
        if parent is None or parent[1].split(".")[0] != "scipy":
            scipy_us += us
    return cli_us / 1e3 * factor, scipy_us / 1e3 * factor


def end_to_end(w, s: Stream, setup: list, clock: RefClock) -> dict:
    times = [t for _, t in s.scaled(clock)]
    return {
        "setup_s": {"value": statistics.median(t for _, t in setup), "unit": "s"},
        "op_p50_ms": {"value": statistics.median(times) * 1e3, "unit": "ms"},
        "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb(w), "unit": "MB"},
    }


def per_module(w, plain: Stream, traced, trace, clock: RefClock, imports) -> dict:
    """Per-module metrics; `traced` and `trace` are None for the CLI, whose
    layers run in its child processes and are not traced."""
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    plain_times = plain.scaled(clock)
    put("bench.ref_loop_ms", clock.ms(), "ms")
    if traced is not None:
        traced_total = sum(t for _, t in traced.scaled(clock))
        put("bench.trace_cost", traced_total / sum(t for _, t in plain_times) - 1, "ratio")
        # busy times inside the traced half take that half's mean speed factor
        traced_scale = traced_total / sum(r[2] for r in traced.records)
        traced_rounds = traced.rounds
    else:
        put("bench.trace_cost", 0.0, "ratio")
        trace, traced_scale, traced_rounds = {"calls": {}, "busy": {}, "nm_evals": 0}, 1.0, 1
    by_key: dict = {}
    for key, t in plain_times:
        by_key.setdefault(key, []).append(t)
    for key, (name, unit) in LATENCY.items():
        ts = by_key.get(key)
        put(name, statistics.median(ts) * SCALE[unit] if ts else 0.0, unit)
    # compute_bound calls per round, certificate queries included
    routed = sum(len(ts) for k, ts in by_key.items() if k.startswith(("bounds.", "peano.certificate_")))
    put("bounds.calls", routed / plain.rounds, "count")
    first = len(by_key.get("peano.certificate_first", ()))
    repeat = len(by_key.get("peano.certificate_repeat", ()))
    put("peano.repeat_nk_share", repeat / (first + repeat) if first + repeat else 0.0, "ratio")
    stats = w.stats
    put("oracle.lp_pivots", statistics.median(stats["pivots"]) if "pivots" in stats else 0.0, "count")
    put("oracle.lp_tableau_mb", stats["tableau_mb"][0] if "tableau_mb" in stats else 0.0, "MB")
    put("cli.import_ms", imports[0] if imports else 0.0, "ms")
    put("cli.import_scipy_ms", imports[1] if imports else 0.0, "ms")
    for layer, (calls, busy) in LAYERS.items():
        if calls:
            put(calls, trace["calls"].get(layer, 0) / traced_rounds, "count")
        put(busy, trace["busy"].get(layer, 0.0) * traced_scale * 1e3 / traced_rounds, "ms")
    put("oracle.nm_evals", trace["nm_evals"] / traced_rounds, "count")
    return m


def traced_stream(w, seed: int, clock: RefClock, rounds: int):
    """Replay the same rounds of a session with every layer boundary wrapped."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        s = run_rounds(w, seed, clock, rounds=rounds, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.write_spans(workloads.OUT / f"spans-{w.name}.csv")
    return s, tracer.summary()


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    w = workloads.WORKLOADS[name]()
    session = isinstance(w, workloads.Session)
    workloads.OUT.mkdir(exist_ok=True)
    clock = RefClock()
    if not trace:
        setup = setup_probes(w, SETUP_PROBES)
    if session:
        workloads.load_package()
        w.setup()
    if trace:
        # untraced first half, then the same rounds of a session again with
        # tracing on
        plain = run_rounds(w, seed, clock, seconds=seconds / 2)
        traced = summary = imports = None
        if session:
            traced, summary = traced_stream(w, seed, clock, plain.rounds)
        else:
            imports = import_times_ms(clock)
        streams = (plain, traced) if traced else (plain,)
    else:
        s = run_rounds(w, seed, clock, seconds=seconds)
        streams = (s,)
    if trace:
        metrics = per_module(w, plain, traced, summary, clock, imports)
    else:
        metrics = end_to_end(w, s, setup, clock)
        raw = [r[2] for r in s.records]
        print(f"raw, not scaled: setup_s {statistics.median(t for t, _ in setup):.4f}, op_p50_ms "
              f"{statistics.median(raw) * 1e3:.4g}, ops_per_s {len(raw) / sum(raw):.4g}", file=sys.stderr)
    print(f"reference loop: median {clock.ms():.4f} ms over {len(clock.samples)} samples", file=sys.stderr)
    wrong = [msg for s in streams for msg in s.wrong]
    out = {
        "correct": not wrong,
        "attempted": sum(s.attempted for s in streams),
        "failed": sum(s.failed for s in streams),
        "metrics": metrics,
    }
    print(json.dumps(out))
    return 0 if not wrong else 1


def quick() -> int:
    """One round of every workload, the sessions traced, with every check on."""
    bad = 0
    workloads.OUT.mkdir(exist_ok=True)
    for name, cls in workloads.WORKLOADS.items():
        w = cls()
        t0 = perf_counter()
        if isinstance(w, workloads.Session):
            workloads.load_package()
            w.setup()
            s, summary = traced_stream(w, 1, RefClock(), rounds=1)
        else:
            s, summary = run_rounds(w, 1, RefClock(), rounds=1), {"calls": {}}
        calls = {k: v for k, v in summary["calls"].items() if v}
        status = "ok" if not s.wrong and not s.failed else "FAIL"
        bad += status != "ok"
        print(f"{status} {name}: {s.attempted} ops, {s.failed} failed, {len(s.wrong)} wrong, "
              f"{perf_counter() - t0:.1f} s; traced calls {calls}")
    return 1 if bad else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="one checked round of every workload")
    args = p.parse_args(argv)
    if not (workloads.SRC / "landaukol" / "__init__.py").is_file():
        print(f"error: no landaukol sources under {workloads.SRC}", file=sys.stderr)
        return 2
    if args.quick:
        return quick()
    if not args.workload:
        p.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
