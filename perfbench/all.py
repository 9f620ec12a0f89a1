#!/usr/bin/env python3
"""Run every workload of ``BENCHMARK.json`` for one seed.

    python3 perfbench/all.py --seed 0 [--seconds 10] [--trace 0|1]

Each workload runs as its own ``perfbench/run.py`` process.  For each,
the result line (metrics by name and unit, operations attempted and
failed) is printed after the workload's name.  The exit code is 1 if any
workload failed an operation or exited with an error.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    status = 0
    for workload in bench["workloads"]:
        name = workload["name"]
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        if result["failed"] or not result["correct"]:
            status = 1
        print(f"{name}: {lines[-1]}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
