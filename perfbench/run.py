"""fuzzfix benchmark: run one workload and print its metrics as JSON.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Jobs go through the CLI's own path,
``cli.parse_config`` -> ``cli.run`` -> ``cli.render_report``, in this
process, on one thread, one job after another (a closed loop with one
client). A run repeats whole rounds of the workload's job list until the
timed pass has lasted ``--seconds``, so every run attempts the same mix.
Each job's output is checked by ``oracle.py`` after its round, outside
the timed region.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
setup_s, jobs_per_s, job_p50_ms, job_p90_ms and peak_rss_mb. With
``--trace 1`` the layers are wrapped at run time (see ``tracing.py``):
one leaf round counts the hot leaves, then the timed pass lasts
``--seconds``. The per-layer metrics are printed instead, and the spans
and per-layer self times are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

from oracle import CheckFailed, Oracle  # noqa: E402
from workloads import WORKLOADS, Workload, build  # noqa: E402

SETUP_REPEATS = 9
# A 90th percentile is a tail only with at least ten jobs beyond it.
MIN_JOBS = 100
PROBE_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here (no sources, or a probe failed)."""


class SetupProbe:
    """Times import fuzzfix + parse of every config in fresh interpreters.

    The probes run between rounds, spread evenly over the timed pass, so
    set-up is sampled across the same stretch of time as the jobs rather
    than in one burst. Each probe is a child process that ends before
    the next round starts.
    """

    def __init__(self, workload: Workload, seconds: float):
        self.stdin = "\n".join(workload.texts) + "\n"
        self.cmd = [sys.executable, str(HERE / "probe.py"), str(SRC)]
        self.seconds = seconds
        self.samples = []

    def _probe(self) -> float:
        proc = subprocess.run(self.cmd, input=self.stdin, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        return float(proc.stdout.strip().splitlines()[-1])

    def warm(self) -> None:
        """One unmeasured probe, so the bytecode cache is written first."""
        self._probe()

    def due(self, timed: float) -> None:
        while len(self.samples) < SETUP_REPEATS and timed >= len(self.samples) * self.seconds / SETUP_REPEATS:
            self.samples.append(self._probe())

    def median(self) -> float:
        while len(self.samples) < SETUP_REPEATS:
            self.samples.append(self._probe())
        return statistics.median(self.samples)


def import_cli():
    if not (SRC / "fuzzfix" / "__init__.py").is_file():
        raise BenchError(f"no fuzzfix sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from fuzzfix import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"fuzzfix imported from {cli.__file__}, not from {SRC}")
    return cli


def run_rounds(
    workload: Workload, cli, oracle: Oracle, seconds: float, tracer=None, max_rounds=None, between_rounds=None
) -> dict:
    """Run whole rounds until the timed pass reaches ``seconds`` and holds
    at least MIN_JOBS jobs, or exactly ``max_rounds`` rounds when given.

    ``between_rounds(timed)`` runs after each round, outside the timed
    region. Returns job wall times, counts, and the reasons of failed
    checks.
    Known faults named in a job's ``expect`` count as failed but keep the
    run correct; any other failure makes it incorrect.
    """
    configs = [cli.parse_config(text) for text in workload.texts]
    # A check is a pure function of (job, output, exit code); outputs that
    # already passed their check in this run are not checked again.
    passed = set()
    times = []
    attempted = failed = rounds = 0
    timed = 0.0
    problems = []
    clock = time.perf_counter
    while True:
        outcomes = []
        round_start = clock()
        for index, job in enumerate(workload.jobs):
            if tracer is not None:
                tracer.job = index
            start = clock()
            try:
                report, code = cli.run(job.command, configs[job.config], **job.overrides)
                text = cli.render_report(report)
                error = None
            except Exception as exc:  # an escaped exception is a failed operation
                text, code, error = None, None, exc
            times.append(clock() - start)
            outcomes.append((job, text, code, error))
        timed += clock() - round_start
        rounds += 1
        for job, text, code, error in outcomes:
            attempted += 1
            if error is not None:
                failed += 1
                if type(error).__name__ != job.expect.get("known_fault"):
                    problems.append(f"{job.kind}: raised {type(error).__name__}: {error}")
                continue
            if (id(job), code, text) in passed:
                continue
            try:
                oracle.check(job, text, code)
                passed.add((id(job), code, text))
            except (CheckFailed, KeyError, TypeError, ValueError) as exc:
                failed += 1
                problems.append(f"{job.kind} (config {job.config}): {type(exc).__name__}: {exc}")
        if between_rounds is not None:
            between_rounds(timed)
        # Traced runs report no percentiles, so they need no minimum job count.
        enough = tracer is not None or len(times) >= MIN_JOBS
        if rounds == max_rounds or (max_rounds is None and timed >= seconds and enough):
            break
    return {
        "times": times,
        "attempted": attempted,
        "failed": failed,
        "completed": attempted - failed,
        "rounds": rounds,
        "timed_s": timed,
        "problems": problems,
    }


def traced_rounds(workload: Workload, cli, oracle: Oracle, seconds: float):
    """The leaf round, then the timed pass (see ``tracing.py``).

    Returns the tracer and the timed pass's outcome, with the leaf
    round's operations added to its attempted and failed counts and its
    problems (``completed`` stays the timed pass's).
    """
    from tracing import Tracer

    tracer = Tracer()
    outcomes = []
    for leaf_round in (True, False):
        tracer.install(leaf_round)
        try:
            outcomes.append(
                run_rounds(workload, cli, oracle, seconds, tracer, max_rounds=1 if leaf_round else None)
            )
        finally:
            tracer.uninstall()
    leaf, outcome = outcomes
    for key in ("attempted", "failed", "problems"):
        outcome[key] = leaf[key] + outcome[key]
    return outcome, tracer


def end_to_end(outcome: dict, setup_s: float) -> dict:
    times = outcome["times"]
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "jobs_per_s": {"value": outcome["completed"] / outcome["timed_s"], "unit": "jobs/s"},
        "job_p50_ms": {"value": statistics.median(times) * 1e3, "unit": "ms"},
        "job_p90_ms": {"value": deciles[8] * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = build(args.workload, args.seed)
    setup = None if args.trace else SetupProbe(workload, args.seconds)
    try:
        cli = import_cli()
        if setup is not None:
            setup.warm()
    except (BenchError, subprocess.TimeoutExpired, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    oracle = Oracle(workload)

    if args.trace:
        outcome, tracer = traced_rounds(workload, cli, oracle, args.seconds)
    else:
        outcome, tracer = run_rounds(workload, cli, oracle, args.seconds, between_rounds=setup.due), None

    for problem in outcome["problems"][:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    jobs_per_s = outcome["completed"] / outcome["timed_s"]
    print(
        f"perfbench: {args.workload} seed={args.seed} rounds={outcome['rounds']} "
        f"jobs={outcome['attempted']} failed={outcome['failed']} jobs_per_s={jobs_per_s:.4f}",
        file=sys.stderr,
    )
    if tracer is not None:
        metrics = tracer.per_layer_metrics(outcome["rounds"])
        OUT.mkdir(exist_ok=True)
        dump = tracer.dump(outcome["rounds"])
        dump.update(workload=args.workload, seed=args.seed, traced_jobs_per_s=jobs_per_s)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(dump))
        layers = ", ".join(f"{k}={v:.3f}s" for k, v in dump["layer_self_s"].items())
        print(f"perfbench: layer self time: {layers}; spans in {path.relative_to(ROOT)}", file=sys.stderr)
    else:
        metrics = end_to_end(outcome, setup.median())
    print(
        json.dumps(
            {
                "correct": not outcome["problems"],
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
