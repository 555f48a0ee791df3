"""Run sets of seeded runs of each workload and report, for every end-to-end
metric, each set's median and spread against the bound in BENCHMARK.json.

    python3 perfbench/compare.py [--sets 2] [--runs 10] [--workload NAME ...]

The spread is the distance between the first and third quartile of a set's
values (statistics.quantiles, n=4) as a share of its median; the shift is how
much worse the last set's median is than the first's, as a share of the
first.  A metric passes when every spread and the shift stay within its
bound, and the share of failed operations is the same in every set.  Raw results go to perfbench/out/compare.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr[-2000:]}")
    out = json.loads(p.stdout.strip().splitlines()[-1])
    # the raw figures and the reference loop's median, for the README
    out["notes"] = [line for line in p.stderr.splitlines() if line.startswith(("raw", "reference"))]
    return out


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workload", action="append", choices=names)
    args = p.parse_args(argv)

    results: dict = {}
    seed = 1
    for w in args.workload or names:
        for s in range(args.sets):
            for _ in range(args.runs):
                out = one_run(w, seed, bench["run_seconds"])
                results.setdefault(w, [[] for _ in range(args.sets)])[s].append({"seed": seed, **out})
                print(f"{w} set {s + 1} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in out["metrics"].items()), file=sys.stderr)
                seed += 1
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "compare.json").write_text(json.dumps(results, indent=1))

    ok = True
    print(f"{'workload':20} {'metric':12} {'median':>10} {'spreads':>16} {'shift':>7} {'bound':>6}")
    for w, sets in results.items():
        shares = {(sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)) for runs in sets}
        fail_shares = {f / a for f, a in shares}
        if len(fail_shares) > 1 or any(not r["correct"] for runs in sets for r in runs):
            ok = False
            print(f"{w}: failed shares {sorted(fail_shares)} or wrong outputs")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vals = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            meds = [statistics.median(v) for v in vals]
            spreads = [spread(v) for v in vals]
            worse = (meds[-1] - meds[0]) / meds[0] * (1 if m["better"] == "lower" else -1)
            good = worse <= bound and all(s <= bound for s in spreads)
            ok &= good
            print(f"{w:20} {name:12} {meds[0]:10.4g} {' '.join(f'{s:.3f}' for s in spreads):>16} "
                  f"{worse:+7.3f} {bound:6.2f} {'' if good else 'OUT OF BOUND'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
