"""Benchmark command for levydens.

    python3 perfbench/run.py --workload dense-grid --seed 1 --seconds 20 --trace 0

Runs from the root of a source tree that holds src/levydens.  Each workload
runs in a fresh worker process (one client, one thread, closed loop).  The
last stdout line is one JSON object: correct, attempted, failed and the
metrics, the end-to-end ones with --trace 0 and the per-layer ones with
--trace 1.  Exits non-zero, printing no result, when levydens is missing or
a worker fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("dense-grid", "sparse-points")

SETUP_PROBES = 2        # extra set-ups per run; setup_s is the median of 3
DEADLINE_S = 170.0      # the whole run, set-up probes included


def spawn(args, extra, deadline):
    """Run one worker to completion; return (start time, parsed last line)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit(f"worker for {args.workload} did not finish in time")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"worker for {args.workload} exited with code {proc.returncode}")
    return start, json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "levydens", "__init__.py")):
        sys.exit(f"no levydens sources under {os.path.join(ROOT, 'src')}")
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            start, res = spawn(args, ["--setup-only"], deadline)
            setups.append(res["ready"] - start)
    start, res = spawn(args, [], deadline)
    setups.append(res["ready"] - start)

    metrics = res["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    print(f"{args.workload} seed={args.seed} rounds={res['rounds']} "
          f"tail=p{round(100 * res['tail_percentile'])}", file=sys.stderr)
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
