"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

Run from the repository root:
    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from oracle import CheckFailed, Oracle  # noqa: E402
import compare  # noqa: E402
from tracing import LEAVES, Tracer  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

cli = run.import_cli()


def _outputs():
    """(oracle, job, report text, exit code) for each job of the tiny workloads."""
    out = []
    for name in WORKLOADS:
        workload = build(name, 3, tiny=True)
        oracle = Oracle(workload)
        configs = [cli.parse_config(text) for text in workload.texts]
        for job in workload.jobs:
            if job.expect.get("known_fault"):
                continue
            report, code = cli.run(job.command, configs[job.config], **job.overrides)
            out.append((oracle, job, cli.render_report(report), code))
    return out


OUTPUTS = _outputs()


def _first(pred):
    for item in OUTPUTS:
        if pred(item[1], json.loads(item[2])):
            return item
    raise AssertionError("no job matches")


def _corrupt_tau(r):
    r["result"]["tau"] += 1e-6


def _corrupt_law(r):
    r["verdicts"]["fm_axioms"]["laws"][4]["checks"] -= 1


def _corrupt_phi_verdict(r):
    r["verdicts"]["phi_class"]["passed"] = not r["verdicts"]["phi_class"]["passed"]


def _corrupt_curve(r):
    r["result"]["curve"][2][1] *= 1.001


def _corrupt_pass_verdict(r):
    r["verdicts"]["contraction"]["passed"] = False


def _corrupt_counterexample(r):
    r["counterexamples"][0]["consequent"] *= 1.5


def _corrupt_horizon(r):
    r["result"]["horizon_used"] += 5


def _corrupt_point(r):
    r["result"]["point"] += 1e-3


def _corrupt_finite_point(r):
    r["result"]["point"] = "p0" if r["result"]["point"] != "p0" else "p1"


def _corrupt_residual(r):
    r["result"]["residuals"][1][1] *= 0.999


def _corrupt_set_point(r):
    r["result"]["point"] = "p0" if r["result"]["point"] != "p0" else "p1"


def _corrupt_digest(r):
    r["config_digest"] = "0" * 64


CASES = {
    "threshold": (lambda j, r: j.command == "threshold", _corrupt_tau),
    "check-axioms": (lambda j, r: j.command == "check-axioms", _corrupt_law),
    "check-phi": (lambda j, r: j.command == "check-phi", _corrupt_phi_verdict),
    "induce-phi": (lambda j, r: j.command == "induce-phi", _corrupt_curve),
    "contraction-pass": (lambda j, r: j.command == "check-contraction" and r["verdicts"]["contraction"]["passed"], _corrupt_pass_verdict),
    "contraction-continuum-ce": (
        lambda j, r: j.command == "check-contraction" and r["counterexamples"] and not isinstance(r["counterexamples"][0]["x"], str),
        _corrupt_counterexample,
    ),
    "contraction-finite-ce": (
        lambda j, r: j.command == "check-contraction" and r["counterexamples"] and isinstance(r["counterexamples"][0]["x"], str),
        _corrupt_counterexample,
    ),
    "solve-horizon": (lambda j, r: j.command == "solve", _corrupt_horizon),
    "solve-point": (lambda j, r: j.command == "solve" and r["result"]["converged"] and isinstance(r["result"]["point"], float), _corrupt_point),
    "solve-finite-point": (lambda j, r: j.command == "solve" and r["result"]["converged"] and isinstance(r["result"]["point"], str), _corrupt_finite_point),
    "solve-residual": (lambda j, r: j.command == "solve", _corrupt_residual),
    "solve-set": (lambda j, r: j.command == "solve-set", _corrupt_set_point),
    "digest": (lambda j, r: True, _corrupt_digest),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_check_rejects_corrupted_report(case):
    pred, corrupt = CASES[case]
    oracle, job, text, code = _first(pred)
    oracle.check(job, text, code)
    report = json.loads(text)
    corrupt(report)
    with pytest.raises(CheckFailed):
        oracle.check(job, json.dumps(report, indent=2) + "\n", code)


def test_check_rejects_nan_and_wrong_exit_code():
    oracle, job, text, code = _first(lambda j, r: j.command == "solve")
    with pytest.raises(CheckFailed):
        oracle.check(job, text.replace('"horizon_used": ', '"horizon_used": NaN, "x": ', 1), code)
    with pytest.raises(CheckFailed):
        oracle.check(job, text, 1 - code)


def test_every_tiny_output_passes_its_check():
    for oracle, job, text, code in OUTPUTS:
        oracle.check(job, text, code)


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_workload_runs_to_its_end(name):
    workload = build(name, 5, tiny=True)
    outcome = run.run_rounds(workload, cli, Oracle(workload), seconds=0, max_rounds=1)
    known = sum(1 for job in workload.jobs if job.expect.get("known_fault"))
    assert outcome["problems"] == []
    assert outcome["attempted"] == len(workload.jobs)
    assert outcome["failed"] == known
    metrics = run.end_to_end(outcome, setup_s=0.1)
    assert all(m["value"] > 0 for m in metrics.values())


def test_workloads_repeat_for_a_seed_and_vary_across_seeds():
    for name in WORKLOADS:
        assert build(name, 7).texts == build(name, 7).texts
        assert build(name, 7).texts != build(name, 8).texts


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_call_counts_repeat(name):
    counts = []
    for _ in range(2):
        workload = build(name, 11, tiny=True)
        # With no seconds to fill, the timed pass is one round.
        outcome, tracer = run.traced_rounds(workload, cli, Oracle(workload), seconds=0)
        assert outcome["problems"] == []
        metrics = tracer.per_layer_metrics(outcome["rounds"])
        counts.append(
            (
                dict(tracer.calls),
                dict(tracer.edges),
                dict(tracer.leaf_edges),
                dict(tracer.work),
                {k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "ratio")},
            )
        )
    assert counts[0] == counts[1]
    calls, _, leaf_edges, _, _ = counts[0]
    assert outcome["rounds"] == 1
    assert outcome["attempted"] == 2 * len(workload.jobs)
    assert calls["cli.run"] == len(workload.jobs)
    assert calls["cli.parse_config"] == len(workload.texts)
    # Leaves are counted in the leaf round only, never timed per call.
    assert not LEAVES & set(calls)
    assert {leaf for _, leaf in leaf_edges} <= LEAVES
    assert sum(n for (_, leaf), n in leaf_edges.items() if leaf == "fmspace.membership") > 0


def test_tracer_restores_the_originals():
    from fuzzfix import contraction, fmspace

    before = (fmspace.threshold, contraction.threshold, fmspace.FuzzyMetric.membership)
    for leaf_round in (False, True):
        tracer = Tracer()
        tracer.install(leaf_round)
        assert contraction.threshold is not before[1]
        assert (fmspace.FuzzyMetric.membership is not before[2]) == leaf_round
        tracer.uninstall()
        assert (fmspace.threshold, contraction.threshold, fmspace.FuzzyMetric.membership) == before


def _series(trace, calls):
    runs = [
        {"seed": 1, "result": {"correct": True, "attempted": 60, "failed": 1, "metrics": {
            "phi.eval_calls": {"value": calls, "unit": "count"},
            "phi.horizon_ms": {"value": 0.3, "unit": "ms"},
        }}}
    ]
    return {"trace": trace, "seconds": 30, "runs": {"solve-ladder": runs}}


def test_compare_flags_a_changed_count_between_traced_series():
    bench = compare.load_benchmark()
    assert not compare.compare(_series(1, 100), _series(1, 100), bench)
    assert compare.compare(_series(1, 100), _series(1, 101), bench)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "finite-batch", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
