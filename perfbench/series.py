"""Run the benchmark command over several seeds and save the results.

Usage:
    python3 perfbench/series.py --out perfbench/out/base.json [--runs 10]
        [--first-seed 1] [--trace 0|1]

Runs the command of BENCHMARK.json once per workload and seed, one run
at a time, with seeds first-seed .. first-seed + runs - 1 and
run_seconds from BENCHMARK.json, so two series always compare runs of
the same length. Each run's
last stdout line and wall time are stored in the output file, and a
summary (median, quartiles, spread) is printed; compare two output
files with compare.py.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from compare import ROOT, load_benchmark, summarise


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = load_benchmark()
    seconds = bench["run_seconds"]
    series = {"trace": args.trace, "seconds": seconds, "runs": {}}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    for name in (w["name"] for w in bench["workloads"]):
        series["runs"][name] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(args.trace),
            ]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            series["runs"][name].append({"seed": seed, "wall_s": wall, "result": result})
            print(f"{name} seed {seed}: {wall:.1f} s wall, correct={result['correct']}", file=sys.stderr)
            out.write_text(json.dumps(series, indent=1))
    summarise(series, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
