"""Golden CLI corpus: each config's stdout, exit code and trace, byte for byte.

The passing ``check-contraction`` report and the ``solve_set`` output in
``golden/`` were captured before the contraction check computed one
distance per pair, so they pin the verdicts. The three failing
``check-contraction`` reports were regenerated when the check came to
decide each pair at the onset of its antecedent: they pin one
counterexample per failing pair, at that onset, in point order. The
``interval_delta_star`` report was captured when the check came to
decide every pair exactly: f = 0.2 x with linear(0.5) passes the pair
(0, y) iff y <= delta*, just below 1/6, and its extreme pair lies one
float above fl(1/6). It pins that pair's failure and the counterexample
of a violation below float resolution, whose float consequent holds. The
``threshold`` and ``induce`` outputs were regenerated when the crossing
time came to be computed one way, in the stable closed form: they pin
the threshold as the onset and the induced curve. The ``solve_foregone``
output and trace were captured before the solver stopped stepping an
orbit that repeats a float: the orbit sits on the fixed point 0.0 from
its start, and its horizon, 10^7, lies beyond max_iter, so they pin the
repeated orbit and its stop. The other outputs and the other ``.trace``
files were captured before the config parser and the command dispatch
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
    ("check-contraction", "interval_delta_star", 1),
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
    ("solve", "solve_foregone", 1),
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


TRACED = [case for case in CASES if (GOLDEN / f"{case[1]}.trace").exists()]


@pytest.mark.parametrize("command,name,code", TRACED, ids=[name for _, name, _ in TRACED])
def test_stdout_does_not_depend_on_trace(tmp_path, capsys, command, name, code):
    # The solvers grade their orbits only when a trace is written.
    argv = [command, "--config", str(GOLDEN / f"{name}.json")]
    outputs = []
    for extra in ([], ["--trace", str(tmp_path / "trace.txt")]):
        assert main(argv + extra) == code
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == (GOLDEN / f"{name}.out").read_text()
