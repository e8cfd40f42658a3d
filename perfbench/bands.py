"""Check that every input the seed may draw gives a query of the same cost.

    python3 perfbench/bands.py [--workload dense-grid]

For each query class of a workload it builds the query for every input in
``CHOICES[class]``, runs it once and checks its answer.  It counts the
frequency points at which the program evaluated the model's exponent (the
``levy_core.psi_points`` counter of a traced run), which doubles whenever the
DFT wrap length doubles.  It prints, per class, the fewest and most points
and exits 1 when they differ by more than 5 % or when an answer fails its
check.  The CLI classes build their own models, so they are not counted; they
draw from the lists of the grid1d classes of the same model.
"""

import argparse
import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import numpy as np

import workloads

SAME_COST = 1.05        # most / fewest exponent evaluations within a class


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args()
    os.makedirs(OUT, exist_ok=True)
    bad = 0
    for name, wl in workloads.WORKLOADS.items():
        if args.workload and name != args.workload:
            continue
        if hasattr(wl, "prepare"):
            wl.prepare(wl.draw(np.random.default_rng(0)), OUT)
        ctx = workloads.Context(OUT, count_psi=True)
        for cls, pool in wl.CHOICES.items():
            if cls.startswith("cli."):
                continue
            counts = []
            for prm in pool:
                query = wl.build(ctx, cls, prm)
                before = ctx.psi_points
                try:
                    query.check(query.call())
                except Exception as exc:       # a failed answer, reported
                    print(f"FAILED {cls} {prm}: {type(exc).__name__}: {exc}")
                    bad += 1
                counts.append(ctx.psi_points - before)
            lo, hi = min(counts), max(counts)
            same = lo > 0 and hi <= SAME_COST * lo
            bad += not same
            print(f"{name:14s} {cls:22s} {len(pool):3d} inputs  psi points "
                  f"{lo:>11,d} .. {hi:>11,d}  {'ok' if same else 'COST DIFFERS'}",
                  flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
