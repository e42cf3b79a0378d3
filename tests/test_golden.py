"""Golden CLI corpus: each config's stdout, exit code and trace, byte for byte.

The passing ``check-contraction`` report and the ``threshold`` and
``solve_set`` outputs in ``golden/`` were captured before the
contraction check computed one distance per pair, so they pin the
verdicts and the threshold. The three failing ``check-contraction``
reports were regenerated when the check came to decide each pair at the
onset of its antecedent: they pin one counterexample per failing pair,
at that onset, in point order. The other outputs and every ``.trace``
file were captured before the config parser and the command dispatch
became table-driven, so they pin every report section and the trace
format of both solvers.
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
    ("solve-set", "solve_set_permuted", 0),
    ("check-axioms", "axioms_box", 0),
    ("check-phi", "phi_rational", 0),
    ("check-phi", "phi_table_fail", 1),
    ("induce-phi", "induce", 0),
    ("solve", "solve_flagship", 0),
    ("solve", "solve_box", 0),
)


@pytest.mark.parametrize("command,name,code", CASES, ids=[name for _, name, _ in CASES])
def test_stdout_matches_golden(tmp_path, capsys, command, name, code):
    argv = [command, "--config", str(GOLDEN / f"{name}.json")]
    # Both solvers write a trace; it is pinned next to the report.
    trace = GOLDEN / f"{name}.trace"
    if trace.exists():
        argv += ["--trace", str(tmp_path / "trace.txt")]
    assert main(argv) == code
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()
    if trace.exists():
        assert (tmp_path / "trace.txt").read_bytes() == trace.read_bytes()
