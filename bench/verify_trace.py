"""Compare traced and untraced runs of the benchmark.

    python3 bench/verify_trace.py [--seed N] [--workload W ...]

For each workload: one untraced round and two traced rounds, each in its own
process.  Checks that the two traced runs report identical call counts and
that all three produce the same outputs (the digest run.py prints), and
prints the tracing overhead as traced wall time over untraced wall time.
Exits 1 when a comparison fails.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("paste-hybrid", "eval-avgg", "train-hybrid")
SUMMARY = re.compile(r"(\d+) operations in ([0-9.]+) s; outputs (\w+)")


def one_round(workload: str, seed: int, trace: int):
    """(wall seconds, outputs digest, metrics) of a one-round run."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    match = SUMMARY.search(proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} trace={trace}: checks failed\n"
                         f"{proc.stderr}")
    return float(match.group(2)), match.group(3), result["metrics"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args()
    ok = True
    for workload in args.workload or WORKLOADS:
        wall0, out0, _ = one_round(workload, args.seed, 0)
        wall1, out1, m1 = one_round(workload, args.seed, 1)
        wall2, out2, m2 = one_round(workload, args.seed, 1)
        counts1 = {k: v["value"] for k, v in m1.items()
                   if not k.endswith(".self_s")}
        counts2 = {k: v["value"] for k, v in m2.items()
                   if not k.endswith(".self_s")}
        same_counts = counts1 == counts2
        same_outputs = out0 == out1 == out2
        ok &= same_counts and same_outputs
        print(f"{workload} seed {args.seed}: counts "
              f"{'identical' if same_counts else 'DIFFER'}, outputs "
              f"{'identical' if same_outputs else 'DIFFER'}; untraced "
              f"{wall0:.2f} s, traced {wall1:.2f} s and {wall2:.2f} s "
              f"(overhead x{(wall1 + wall2) / 2 / wall0:.3f})", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
