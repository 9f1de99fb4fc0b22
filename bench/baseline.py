"""Write bench/BENCH_<label>.json: one untraced and one traced run per workload.

Usage (from the repository root):

    python3 bench/baseline.py [--label baseline] [--seed 1] [--seconds 25]

Each run's metadata line and result line are stored as printed by run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="baseline")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args()

    runs = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=True,
            )
            meta, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
            runs.append({"workload": workload, "trace": trace, **meta, "result": result})
            print(f"{workload} trace={trace}: correct={result['correct']}", file=sys.stderr)
    path = os.path.join(BENCH_DIR, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"label": args.label, "runs": runs}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
