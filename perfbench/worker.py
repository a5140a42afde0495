"""One workload process: set up, run whole rounds, check every output.

Run by run.py with PYTHONPATH pointing at the checkout's src and a fixed
PYTHONHASHSEED.  With --setup-only it prints "ready" once the inputs are
written and the operations are built, and exits; that is what setup_s
times.  Otherwise it runs rounds of the workload's operations back to
back on one thread until --seconds have passed (at least two rounds, or
one with --trace 1) and writes its result as JSON to --out.  With --trace 1 the first half of
the time runs untraced rounds and the second half traced ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import lie2alg  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_round(name: str, ops: list) -> tuple:
    """One pass over the operations; returns (seconds of each operation,
    failed count)."""
    ctx, after = workloads.round_context(name)
    times = []
    failed = set()
    gc.collect()
    with ctx:
        for i, op in enumerate(ops):
            t0 = perf_counter()
            try:
                out = op.run()
            except Exception:
                times.append(perf_counter() - t0)
                failed.add(i)
                print(f"perfbench: {op.name} raised\n{traceback.format_exc()}", file=sys.stderr)
                continue
            times.append(perf_counter() - t0)
            try:
                op.check(out)
            except Exception as exc:
                failed.add(i)
                print(f"perfbench: {op.name}: {exc!r}", file=sys.stderr)
    if after is not None:
        try:
            after()
        except Exception as exc:
            failed.add(len(ops) - 1)   # the checks read the last operation's outputs too
            print(f"perfbench: after the round: {exc!r}", file=sys.stderr)
    return times, len(failed)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True, help="directory for the generated inputs")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="result file")
    ap.add_argument("--spans", help="span file, with --trace 1")
    args = ap.parse_args()
    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(lie2alg.__file__).startswith(src + os.sep):
        print(f"perfbench: lie2alg was imported from {lie2alg.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    ops = workloads.WORKLOADS[args.workload](args.work, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    start = perf_counter()
    rounds, traced = [], []
    attempted = failed = 0
    budget = args.seconds / 2 if args.trace else args.seconds
    # run.py takes wall_s from whole pairs of untraced rounds
    min_rounds = 1 if args.trace else 2
    while len(rounds) < min_rounds or perf_counter() - start < budget:
        times, bad = run_round(args.workload, ops)
        rounds.append(times)
        attempted += len(ops)
        failed += bad
    result = {"rounds": rounds}
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            while not traced or perf_counter() - start < args.seconds:
                times, bad = run_round(args.workload, ops)
                traced.append(times)
                attempted += len(ops)
                failed += bad
        finally:
            tracer.remove()
        overhead = (statistics.mean(map(sum, traced))
                    - statistics.mean(map(sum, rounds)))
        result["per_layer"] = tracer.metrics(len(traced), overhead)
        result["traced_rounds"] = traced
        if args.spans:
            tracer.dump(args.spans)
    result.update(attempted=attempted, failed=failed,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
