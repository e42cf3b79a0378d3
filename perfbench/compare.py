"""Summarise and compare result files written by ``series.py``.

Usage:
    python3 perfbench/compare.py RESULTS.json            # one series
    python3 perfbench/compare.py BASE.json NEW.json      # two series

For each workload and metric it prints the median and the quartiles
(``statistics.quantiles(values, n=4)``) with the spread (q3 - q1) /
median. With two files it also prints the change of the median and
flags every end-to-end metric that got worse by more than its bound in
BENCHMARK.json, and any change in the share of failed operations. When
both files hold traced series, it also flags every count or ratio
metric that differs between runs of the same seed, since those repeat
exactly. Exit code 1 when something is flagged.
"""

from __future__ import annotations

import json
import statistics
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values):
    """(q1, median, q3); a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def metric_values(runs: list, name: str) -> list:
    return [run["result"]["metrics"][name]["value"] for run in runs]


def changed_seeds(a: list, b: list, name: str) -> list:
    """Seeds run in both series whose values of ``name`` differ."""
    before = {run["seed"]: run["result"]["metrics"][name]["value"] for run in a}
    return sorted(
        run["seed"]
        for run in b
        if run["seed"] in before and run["result"]["metrics"][name]["value"] != before[run["seed"]]
    )


def failed_shares(runs: list) -> set:
    return {Fraction(run["result"]["failed"], run["result"]["attempted"]) for run in runs}


def summarise(series: dict, bench: dict) -> bool:
    """Print one series; return True if a spread exceeds a third of its bound."""
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    noisy = False
    for workload, runs in series["runs"].items():
        correct = all(run["result"]["correct"] for run in runs)
        print(f"{workload}: {len(runs)} runs, correct={correct}, failed shares={sorted(str(s) for s in failed_shares(runs))}")
        names = list(runs[0]["result"]["metrics"])
        for name in names:
            q1, med, q3 = quartiles(metric_values(runs, name))
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            note = ""
            if bound is not None and name != "setup_s" and spread > bound:
                note, noisy = "  SPREAD ABOVE BOUND", True
            elif bound is not None and spread > bound / 3:
                note, noisy = "  spread above bound/3", True
            print(f"  {name:34s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.2%}{note}")
    return noisy


def compare(base: dict, new: dict, bench: dict) -> bool:
    """Print medians side by side; return True if a regression is flagged."""
    flagged = False
    better = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    traced = base["trace"] == 1 and new["trace"] == 1
    for workload in base["runs"]:
        if workload not in new["runs"]:
            print(f"{workload}: missing from the new series")
            flagged = True
            continue
        a, b = base["runs"][workload], new["runs"][workload]
        print(f"{workload}: base {len(a)} runs, new {len(b)} runs")
        if traced and not {run["seed"] for run in a} & {run["seed"] for run in b}:
            print("  counts not compared: no seed is in both series")
        if failed_shares(a) != failed_shares(b):
            print(f"  FAILED SHARE CHANGED: {sorted(map(str, failed_shares(a)))} -> {sorted(map(str, failed_shares(b)))}")
            flagged = True
        for name in a[0]["result"]["metrics"]:
            qa, qb = quartiles(metric_values(a, name)), quartiles(metric_values(b, name))
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            note = ""
            if name in better:
                direction, bound = better[name]
                worse = change if direction == "lower" else -change
                if worse > bound:
                    note, flagged = f"  WORSE THAN BOUND {bound:.0%}", True
            elif traced and a[0]["result"]["metrics"][name]["unit"] in ("count", "ratio"):
                seeds = changed_seeds(a, b, name)
                if seeds:
                    note, flagged = f"  CHANGED FOR SEEDS {seeds}", True
            print(
                f"  {name:34s} {qa[1]:12.6g} [{qa[0]:.6g}, {qa[2]:.6g}] -> "
                f"{qb[1]:12.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  {change:+8.2%}{note}"
            )
    return flagged


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    bench = load_benchmark()
    files = [json.loads(Path(p).read_text()) for p in args]
    if len(files) == 1:
        return 1 if summarise(files[0], bench) else 0
    return 1 if compare(files[0], files[1], bench) else 0


if __name__ == "__main__":
    sys.exit(main())
