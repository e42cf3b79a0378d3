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
``interval_linear_cut`` report was captured before a check whose exact
verdict is one over its whole reach came to be decided without its rows:
the same f and modulus on [0, 1] at 10,000 samples draw pairs on both
sides of delta*, so the check decides each row, and it pins the 64
failing pairs first in point order, all past delta*. The
``table_breakpoint`` report was captured before the float test came to
bracket every modulus by its monotonicity: its extreme pair crosses at
tau(2.25) = 0.75, on the table's step from 0 to 0.5, which the float
crossing rounds below, and it passes only by the exact rule. The
``finite_every_pair`` report was captured when a finite space came to be
checked over every ordered pair, not a draw of ``samples``: f sends 12
points on a line to p0, all but p10, which it sends to p1, and linear(0.9)
fails only the four pairs of p10 with its neighbours, where both distances
are 1. Its 20 samples used to draw none of them, so the check exited 0 over
20 pairs; it pins the failure over all 144 and the four counterexamples. The
``finite_induced_ties`` report was captured before a finite check came to
decide each distinct pair of table distances once: f sends p_i to p_(i//2)
on a 20-point line, and induced(0.5, 19) meets 180 pairs at the exact tie
d_f = d_g / 2, which only the exact rule decides. 90 of the 400 pairs fail,
and it pins the first 64 of them in label order. The
``interval_table_value_cut`` report was captured before the solver's orbit
came to screen its steps: f = 0.1 x on [0, 1] with the table ((0, 0),
(0.5, 0.25)) passes a pair iff tau(d) >= 0.5 and tau(0.1 d) < 0.25, that is
for 1/2 <= d < 5/6, where 5/6 is the value cut (0.25^2 / 0.75) / 0.1. Its
1,000 pairs lie on both sides of both cuts, so the check decides each row by
the piece table, and it pins the first 64 failing pairs in point order. The
``solve_screen_margin`` output and trace were captured before the orbit came
to skip, unmeasured, the steps longer than the bound of ``solver._screen``:
on [2^20 - 1/2, 2^20 + 1/2] with the reflection g, the horizon is 1, and the
start lies below 2^20 on an odd multiple of 2^-33, so its carried image
above 2^20 rounds. The first step is 85 * 2^-33 long, past the stopping
distance eps * lam / (1 - lam), while its carried length, 84 * 2^-33,
passes: it pins the stop there, which a bound without the transform's
rounding term would skip. The
``threshold`` and ``induce`` outputs were regenerated when the crossing
time came to be computed one way, in the stable closed form: they pin
the threshold as the onset and the induced curve. The ``solve_foregone``
output and trace were captured before the solver stopped stepping an
orbit that repeats a float: the orbit sits on the fixed point 0.0 from
its start, and its horizon, 10^7, lies beyond max_iter, so they pin the
repeated orbit and its stop. The ``solve_set_first_step`` output was
captured when the set-valued solver came to take its first step with no
bound: T sends both of two labels 3.3125 apart to p0, and the start p1 lies
in no image, so the chain's x_1 = p0 is free, while the old first step
demanded a grade at phi(t0) that no point of T(p1) has and exited 1 with
NoAdmissibleSuccessor; it pins the converged orbit at p0 (its 1,001-point
trace is not pinned). The ``setvalued_check_pass`` and
``setvalued_check_fail`` outputs were captured when ``check-contraction``
came to run the set-valued check on a config with a T section, over every
ordered pair of points whose g-images lie in dom T. They copy the configs
of ``solve_set_first_step`` and ``solve_set_permuted``, and each one's
``passed``, ``checked_pairs`` and counterexamples were checked against
``check_setvalued_contraction`` called on the same config before the CLI
could run it. The first passes over its 4 pairs. The second fails over 9
at x = 1, y = 0, u = 0.1, though ``solve-set`` converges on it: the
hypothesis is sufficient, not necessary. The ``axioms_interval`` output was captured
before the t-norm laws came to be read from one grade table: it pins
each law's check count at grid 21 and the fuzzy-metric laws on 3,000
interval samples. The ``axioms_finite`` output was captured before the
fuzzy-metric laws came to grade the standard metric by membership's own
expression on distances taken once per pair: it pins them on 2,000
samples of a normalized six-point table under the minimum t-norm. The
``axioms_grid61`` output was captured before the t-norm laws that a
proof shows cannot fail came to be decided without their scans: it pins
the Lukasiewicz laws' check counts at grid 61, where associativity counts
226,981 checks and monotonicity 3,575,881, and the fuzzy-metric laws on
500 samples of a four-point table. The
other outputs and the other ``.trace`` files were captured before the
config parser and the command dispatch became table-driven, so they pin
every report section and the trace format of both solvers.
"""

from pathlib import Path

import pytest

from fuzzfix.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = (
    ("check-contraction", "interval_pass", 0),
    ("check-contraction", "interval_fail", 1),
    ("check-contraction", "interval_delta_star", 1),
    ("check-contraction", "interval_linear_cut", 1),
    ("check-contraction", "box3_reflection_fail", 1),
    ("check-contraction", "finite_permutation", 1),
    ("check-contraction", "table_breakpoint", 0),
    ("check-contraction", "finite_every_pair", 1),
    ("check-contraction", "finite_induced_ties", 1),
    ("check-contraction", "interval_table_value_cut", 1),
    ("check-contraction", "setvalued_check_pass", 0),
    ("check-contraction", "setvalued_check_fail", 1),
    ("threshold", "threshold", 0),
    ("solve-set", "solve_set", 0),
    ("solve-set", "solve_set_permuted", 0),
    ("solve-set", "solve_set_first_step", 0),
    ("check-axioms", "axioms_box", 0),
    ("check-axioms", "axioms_interval", 0),
    ("check-axioms", "axioms_finite", 0),
    ("check-axioms", "axioms_grid61", 0),
    ("check-phi", "phi_rational", 0),
    ("check-phi", "phi_table_fail", 1),
    ("induce-phi", "induce", 0),
    ("solve", "solve_flagship", 0),
    ("solve", "solve_box", 0),
    ("solve", "solve_foregone", 1),
    ("solve", "solve_screen_margin", 0),
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
