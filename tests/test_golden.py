"""Golden CLI corpus: each config's stdout and exit code, byte for byte.

The outputs in ``golden/`` were captured before the contraction check
computed one distance per pair, so they pin the reports of the
ladder-and-spot loop, the counterexample order and the threshold.
"""

from pathlib import Path

import pytest

from fuzzfix.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = (
    ("check-contraction", "interval_pass", 0),
    ("check-contraction", "interval_fail", 1),
    ("check-contraction", "box3_reflection_fail", 1),
    ("check-contraction", "finite_permutation", 1),
    ("threshold", "threshold", 0),
    ("solve-set", "solve_set", 0),
)


@pytest.mark.parametrize("command,name,code", CASES, ids=[name for _, name, _ in CASES])
def test_stdout_matches_golden(capsys, command, name, code):
    assert main([command, "--config", str(GOLDEN / f"{name}.json")]) == code
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()
