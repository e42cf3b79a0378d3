"""Byte-identity check of the CLI on the benchmark's job corpus.

Usage, from the repository root:
    python3 tests/digest.py --write    # record tests/digests.json
    python3 tests/digest.py --check    # compare against it; exit 1 on a difference

Every job of every workload in ``perfbench/workloads.py``, seeds 1-4, runs
through the CLI's own path, ``cli.parse_config`` -> ``cli.run`` ->
``cli.render_report``, as ``perfbench/run.py`` runs it, on the sources under
``src/``. Each job is keyed ``workload/seed/job`` (the job's index in its
list) and recorded as the sha256 of its exit code and stdout; a job that
raises is recorded by its exception's type and message instead. A change
that alters any report's bytes rewrites the file and names every changed key.

pytest does not collect this file (it has no ``test_`` prefix); it imports
``workloads.build`` from perfbench and nothing else there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "digests.json"
SEEDS = (1, 2, 3, 4)

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from fuzzfix import cli  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402


def digests() -> dict:
    """{key: (sha256 of exit code and stdout, the job's command)} over the corpus."""
    out = {}
    for name in WORKLOADS:
        for seed in SEEDS:
            workload = build(name, seed)
            configs = [cli.parse_config(text) for text in workload.texts]
            for index, job in enumerate(workload.jobs):
                try:
                    report, code = cli.run(job.command, configs[job.config], **job.overrides)
                    outcome = f"{code}\n{cli.render_report(report)}"
                except Exception as exc:  # recorded, as the benchmark counts it a failed job
                    outcome = f"raised {type(exc).__name__}: {exc}"
                flags = [f"--{k} {v}" for k, v in job.overrides.items()]
                command = " ".join([job.command, f"config {job.config}", *flags])
                out[f"{name}/{seed}/{index}"] = hashlib.sha256(outcome.encode()).hexdigest(), command
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true")
    mode.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    current = digests()
    if args.write:
        DIGESTS.write_text(json.dumps({key: sha for key, (sha, _) in current.items()}, indent=0) + "\n")
        print(f"wrote {len(current)} digests to {DIGESTS.relative_to(ROOT)}")
        return 0
    recorded = json.loads(DIGESTS.read_text())
    keys = list(recorded) + [key for key in current if key not in recorded]
    differing = [key for key in keys if recorded.get(key) != current.get(key, (None,))[0]]
    for key in differing:
        print(f"{key}: {current[key][1] if key in current else 'no longer built'}")
    print(f"{len(differing)} of {len(recorded)} digests differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
