"""Steadiness check: two sets of runs of the same code, compared.

    python3 perfbench/steady.py

Run from the root of a lie2alg checkout.  Each set runs run.py ten
times on every workload of BENCHMARK.json, round-robin over the
workloads, with seeds 1..10 and the run length of BENCHMARK.json; both
sets take the same seeds, so that they differ by the machine alone.
For each workload and end-to-end metric it prints both sets' medians
and quartiles, each set's spread (quartile distance over median) and
the shift of the second median from the first, and says whether the
sets agree within the metric's bound: both spreads within the bound,
the shift within the bound, and the same share of failed operations.
The raw runs go to .perfbench/steady.json.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    runs = {w: [[], []] for w in workloads}
    for s in range(2):
        for seed in range(1, RUNS + 1):
            for w in workloads:
                res = run_once(w, seed, bench["run_seconds"])
                runs[w][s].append(res)
                print(f"set {s + 1} {w} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4f}" for k, v in res["metrics"].items()), flush=True)
    os.makedirs(".perfbench", exist_ok=True)
    with open(os.path.join(".perfbench", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump(runs, fh)

    ok = True
    print(f"\n{'workload':8} {'metric':12} {'median 1':>10} {'q1..q3 set 1':>21} "
          f"{'median 2':>10} {'q1..q3 set 2':>21} {'spread':>13} {'shift':>7} {'bound':>6} agree")
    for w in workloads:
        fail_share = [Fraction(sum(r["failed"] for r in runs[w][s]),
                               sum(r["attempted"] for r in runs[w][s])) for s in range(2)]
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [summary([r["metrics"][name]["value"] for r in runs[w][s]]) for s in range(2)]
            shift = (sets[1][0] - sets[0][0]) / sets[0][0]
            if m["better"] == "higher":
                shift = -shift
            agree = (all(st[3] <= bound for st in sets) and shift <= bound
                     and fail_share[0] == fail_share[1])
            ok &= agree
            print(f"{w:8} {name:12} {sets[0][0]:10.4f} {sets[0][1]:10.4f}..{sets[0][2]:<10.4f}"
                  f"{sets[1][0]:10.4f} {sets[1][1]:10.4f}..{sets[1][2]:<10.4f}"
                  f"{sets[0][3]:6.3f} {sets[1][3]:6.3f} {shift:+7.3f} {bound:6.2f} "
                  f"{'yes' if agree else 'NO'}")
        print(f"{w:8} failed share {fail_share[0]} / {fail_share[1]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
