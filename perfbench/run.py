"""Benchmark entry point; run it from the root of a lie2alg checkout.

    python3 perfbench/run.py --workload tetra --seed 1 --seconds 20 --trace 0

Times 2 * SETUPS fresh set-ups of the workload (interpreter start,
import, fixture reading, input generation and writing), half before and
half after the workload runs in one more fresh single-threaded
interpreter; one untimed set-up first compiles the bytecode.  The last
line of standard output is one JSON object: correct, attempted, failed
and metrics.  With --trace 0 the metrics are the end-to-end ones
(wall_s, setup_s, peak_rss_mb), with --trace 1 the per-layer ones.
Generated inputs, result files and span files go under .perfbench/ in
the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

SETUPS = 5
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150
HERE = os.path.dirname(os.path.abspath(__file__))


def setup_seconds(cmd: list, env: dict) -> float:
    """Seconds from spawning a fresh interpreter until its set-up is done."""
    t0 = perf_counter()
    with subprocess.Popen(cmd + ["--setup-only"], env=env, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        t1 = perf_counter()
        proc.stdout.read()
        proc.wait(timeout=SETUP_TIMEOUT_S)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up failed with exit code {proc.returncode}")
    return t1 - t0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("tetra", "cohom", "checks"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "lie2alg", "__init__.py")):
        print("perfbench: no src/lie2alg here; run from the root of a lie2alg checkout",
              file=sys.stderr)
        return 2
    out = os.path.join(root, ".perfbench")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(out, "inputs", f"{args.workload}-seed{args.seed}")
    os.makedirs(os.path.join(out, "results"), exist_ok=True)
    os.makedirs(os.path.join(out, "traces"), exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONHASHSEED="0", PYTHONPATH=src)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--work", work]

    try:
        setup_seconds(cmd, env)
        setups = [setup_seconds(cmd, env) for _ in range(SETUPS)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    result_path = os.path.join(out, "results", f"{tag}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    run = cmd + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--out", result_path]
    if args.trace:
        run += ["--spans", os.path.join(out, "traces", f"{tag}.jsonl")]
    try:
        subprocess.run(run, env=env, check=True, timeout=RUN_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: workload process: {exc}", file=sys.stderr)
        return 1
    try:
        setups += [setup_seconds(cmd, env) for _ in range(SETUPS)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)
    res["setups"] = setups
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(res, fh)

    if args.trace:
        metrics = res["per_layer"]
    else:
        # interference from other processes only ever slows an operation
        # down, so each operation's faster pass in a pair of consecutive
        # rounds is its less disturbed time, and their sum is the pair's
        # round time.  A minimum over all rounds would fall the more
        # rounds faster code fits in; the median over whole pairs does not.
        rounds = res["rounds"]
        wall = statistics.median(sum(map(min, zip(a, b)))
                                 for a, b in zip(rounds[::2], rounds[1::2]))
        metrics = {"wall_s": {"value": wall, "unit": "s"},
                   "setup_s": {"value": statistics.median(setups), "unit": "s"},
                   "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"}}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
