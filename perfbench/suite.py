"""Run the benchmark over workloads and seeds, then summarize the spreads.

    python3 perfbench/suite.py --seeds 10 --out results.jsonl
    python3 perfbench/suite.py --seeds 1 --trace 1 --out traced.jsonl

Every workload of BENCHMARK.json runs for every seed, interleaved seed by
seed.  Each run is one ``run.py`` process (its output goes to the terminal,
so every metric is printed by name with its unit and every check is run).
Results are appended to ``--out`` for ``compare.py``; untraced runs end with
the spread summary.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import compare

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None):
    spec = compare.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    failures = 0
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for workload in names:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace), "--record", args.out]
            proc = subprocess.run(cmd, cwd=compare.ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines() or ["{}"]
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not json.loads(lines[-1]).get("correct"):
                failures += 1
                print(f"run failed: {workload} seed {seed} (exit {proc.returncode})", flush=True)
    if not args.trace:
        compare.summarize(args.out)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
