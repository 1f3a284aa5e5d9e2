#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload cdn_chaos --seeds 10 [--trace 0]
                                [--first-seed 1] [--runner CMD ...]

Runs from the repository root, the way BENCHMARK.json's command runs,
and prints per metric the median of the per-seed values and the
distance between the first and third quartile as a share of that
median (statistics.quantiles(values, n=4)), next to the metric's bound.
`--runner` replaces the command, e.g. with an already built binary.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--runner", nargs="+")
    a = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = a.runner or bench["command"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in range(a.first_seed, a.first_seed + a.seeds):
        args = cmd + ["--workload", a.workload, "--seed", str(seed),
                      "--seconds", str(bench["run_seconds"]), "--trace", a.trace]
        t = time.time()
        p = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
        last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
        if p.returncode != 0 or not last:
            sys.exit(f"seed {seed}: exit {p.returncode}\n{p.stderr[-3000:]}")
        out = json.loads(last)
        if not out["correct"]:
            sys.exit(f"seed {seed}: incorrect\n{p.stderr[-3000:]}")
        for k, v in out["metrics"].items():
            values.setdefault(k, []).append(v["value"])
        print(f"seed {seed}: {time.time() - t:.1f} s  " +
              "  ".join(f"{k}={v['value']:.6g}" for k, v in out["metrics"].items()
                        if k in bounds or a.trace != "0"), flush=True)
    for k, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med if med else 0.0
        else:
            spread = 0.0
        bound = bounds.get(k)
        note = "" if bound is None else f"  bound {bound}  {'OK' if spread < bound / 3 else 'WIDE'}"
        print(f"{k:32s} median {med:14.6g}  spread {spread:7.4f}{note}")


if __name__ == "__main__":
    main()
