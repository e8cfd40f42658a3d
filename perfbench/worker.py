"""One benchmark worker process: set up, run rounds of queries, report.

Started by run.py; not meant to be run by hand.  It prints one JSON object
on its last stdout line.  With --setup-only it stops when it is ready for its
first timed query and prints only the moment it got there.
"""

import os

# pin the BLAS/OpenMP pools before numpy loads: one client, one thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [HERE, SRC]

import numpy as np

import levydens
from levydens import cli, inversion, levy_core, modelio, rearrangement

if os.path.dirname(os.path.abspath(levydens.__file__)) != os.path.join(SRC, "levydens"):
    sys.exit(f"levydens was imported from {levydens.__file__}, not from {SRC}")

import workloads

# per-layer metrics reported by a traced run, in output order
LAYERS = (
    "inversion.invert_grid", "inversion.invert_radial", "inversion.pt_zero",
    "levy_core.re_psi_profile", "levy_core.eval", "rearrangement.pt0_laplace",
    "diagnostics.classify", "asymptotics.predict_pt0", "ratio_limit.ratio_px_p0",
    "modelio.load_model", "cli.run",
)


def warm_up() -> None:
    """Fill module-level lazy state (scipy special functions, FFT plans,
    the CLI parser) on throwaway models, not on any model a query uses."""
    g = levy_core.builtin_model("gaussian")
    inversion.invert_grid(g, 1.0, (np.arange(201) - 100) * 0.05)
    inversion.invert_radial(levy_core.builtin_model("gaussian", dim=3), 1.0, [0.0, 1.0])
    inversion.pt_zero(g, 1.0)
    rearrangement.pt0_laplace(g, 1.0)
    modelio.load_model("builtin:cauchy")
    cli.run(["density", "--model", "builtin:gaussian", "--t", "1", "--grid",
             "-1:1:0.1", "--output", os.path.join(OUT, "warm-up.csv")])


def quantile(values, q: float) -> float:
    """Nearest-rank q-quantile."""
    v = np.sort(np.asarray(values, float))
    return float(v[max(0, int(np.ceil(q * v.size)) - 1)])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload]
    params = wl.draw(np.random.default_rng(args.seed))
    if hasattr(wl, "prepare"):
        wl.prepare(params, OUT)
    warm_up()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    ctx = workloads.Context(OUT, count_psi=bool(args.trace))
    spans = []                  # (layer, label, round, start, end) of each answered query
    attempted = failed = rounds = 0
    problems = []
    loop_start = time.perf_counter()
    last_round = 0.0
    # whole rounds only: after the minimum, a round starts if at least half
    # of it fits before --seconds, so runs end near --seconds on average
    while (rounds < wl.min_rounds
           or time.perf_counter() - loop_start + 0.5 * last_round < args.seconds):
        round_start = time.perf_counter()
        for query in wl.make_round(params, ctx):
            attempted += 1
            t0 = time.perf_counter()
            try:
                result = query.call()
            except Exception as exc:        # a failed query, counted and reported
                failed += 1
                problems.append(f"{query.label}: {type(exc).__name__}: {exc}")
                continue
            t1 = time.perf_counter()
            spans.append((query.layer, query.label, rounds, t0, t1))
            try:
                query.check(result)
            except workloads.Mismatch as exc:
                failed += 1
                problems.append(f"{query.label}: {exc}")
        rounds += 1
        last_round = time.perf_counter() - round_start
    latencies = [e - b for _, _, _, b, e in spans]
    queries_per_s = len(latencies) / float(np.sum(latencies))
    for p in problems[:20]:
        print("FAILED", p, file=sys.stderr)
    path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "rounds": rounds,
                   "spans": [{"layer": l, "query": q, "round": r, "start": b, "end": e}
                             for l, q, r, b, e in spans]}, fh)

    if args.trace:
        metrics = {}
        for layer in LAYERS:
            mine = [s for s in spans if s[0] == layer]
            metrics[f"{layer}_s"] = (sum(e - b for _, _, _, b, e in mine) / rounds, "s")
            metrics[f"{layer}.calls"] = (len(mine) / rounds, "count")
        metrics["levy_core.psi_points"] = (ctx.psi_points / rounds, "count")
        metrics["trace.queries_per_s"] = (queries_per_s, "1/s")
    else:
        metrics = {
            "queries_per_s": (queries_per_s, "1/s"),
            "query_p50_s": (quantile(latencies, 0.5), "s"),
            "query_tail_s": (quantile(latencies, wl.tail_q), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    print(json.dumps({
        "ready": ready, "rounds": rounds, "attempted": attempted, "failed": failed,
        "tail_percentile": wl.tail_q,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
