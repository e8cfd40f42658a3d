"""Repeat the benchmark over seeds and report each metric's median and spread.

    python3 perfbench/spread.py --runs 10 [--trace 1]

It runs every workload of BENCHMARK.json for its run_seconds, alternating
between workloads (seed 1 on every workload, then seed 2, ...).  For each
metric it prints the median of the runs and the spread: the distance between
the first and third quartile as a share of the median.  These are the figures the bounds in BENCHMARK.json are set from.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    results = {w: [] for w in names}
    for seed in range(1, args.runs + 1):
        for w in names:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            results[w].append(res)
            print(w, seed, json.dumps(res), flush=True)
    for w in names:
        runs = results[w]
        print(f"{w}: {len(runs)} runs, attempted {[r['attempted'] for r in runs]}, "
              f"failed {[r['failed'] for r in runs]}")
        for m in runs[0]["metrics"]:
            v = [r["metrics"][m]["value"] for r in runs]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {m:32s} median {med:12.6g} {runs[0]['metrics'][m]['unit']:6s}"
                  f" spread {spread:.3f}  range {min(v):.6g} .. {max(v):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
