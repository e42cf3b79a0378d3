"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (visible under ``pytest -s`` or in the captured output)."""

import functools
import json
import random
import time

import fuzzfix as fx
from fuzzfix.cli import main
from conftest import line_space
from corpus import CORPUS
from oracles import dense_grid, exhaustive_g_phi, exhaustive_setvalued, inclusion_points, tau

LINE5 = (0.0, 0.25, 0.5, 0.75, 1.0)
NORM_NAMES = ("product", "minimum", "lukasiewicz")


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:02d} {name}: FAIL")
                raise
            print(f"criterion {number:02d} {name}: PASS")

        return wrapper

    return decorate


def flagship():
    fm = fx.FuzzyMetric(fx.IntervalSpace(0.0, 1.0), fx.TNorm("product"))
    f = fx.AffineMap(0.5, 0.0)
    g = fx.AffineBijection(-1.0, 1.0)
    phi = fx.InducedPhi(0.5, 1.0)
    cfg = fx.SolverConfig(start=0.0, epsilon=1e-3, lam=1e-3, t0=2.0)
    return fm, f, g, phi, cfg


class _ConstantMembership:
    def __init__(self, space, norm):
        self.space = space
        self.norm = norm

    def membership(self, x, y, t):
        return 0.5


@criterion(1, "flagship coincidence solve")
def test_criterion_1():
    fm, f, g, phi, cfg = flagship()
    started = time.perf_counter()
    res = fx.solve_coincidence(fm, f, g, phi, cfg)
    elapsed = time.perf_counter() - started
    assert res.converged
    assert abs(res.point - 2.0 / 3.0) <= 1e-6
    assert res.iterations <= 100
    assert elapsed < 1.0


@criterion(2, "uniqueness probe")
def test_criterion_2():
    fm, f, g, phi, cfg = flagship()
    report = fx.uniqueness_probe(fm, f, g, phi, cfg, [0.0, 1.0])
    assert report.consistent
    z0, z1 = report.points
    assert fx.in_uniformity(fm, z0, z1, 1e-3, 1e-3)


@criterion(3, "axiom suite on three spaces, three norms")
def test_criterion_3():
    spaces = (
        line_space(LINE5),
        fx.IntervalSpace(0.0, 1.0),
        fx.EuclideanSpace(2, bound=1.0),
    )
    started = time.perf_counter()
    for space in spaces:
        for norm_name in NORM_NAMES:
            fm = fx.FuzzyMetric(space, fx.TNorm(norm_name))
            report = fx.verify_fm_axioms(fm, samples=10000, seed=2024)
            assert report.passed, (type(space).__name__, norm_name, report.failures())
            for law in report.laws:
                assert not law.witnesses
    corrupted = fx.verify_fm_axioms(
        _ConstantMembership(fx.IntervalSpace(0.0, 1.0), fx.TNorm("product")),
        samples=500,
        seed=2024,
    )
    assert not corrupted.law("FM3").passed
    assert time.perf_counter() - started < 5.0


@criterion(4, "transformed metrics pass the identical suite")
def test_criterion_4():
    flip = fx.AffineBijection(-1.0, 1.0)
    space5 = line_space(LINE5)
    perm = fx.PermutationBijection(
        {"0.0": "0.25", "0.25": "0.5", "0.5": "0.75", "0.75": "1.0", "1.0": "0.0"}
    )
    for norm_name in NORM_NAMES:
        fm_interval = fx.FuzzyMetric(fx.IntervalSpace(0.0, 1.0), fx.TNorm(norm_name))
        report = fx.verify_fm_axioms(
            fm_interval.g_transform(flip), samples=10000, seed=2024
        )
        assert report.passed, report.failures()
        fm_finite = fx.FuzzyMetric(space5, fx.TNorm(norm_name))
        report = fx.verify_fm_axioms(
            fm_finite.g_transform(perm), samples=10000, seed=2024
        )
        assert report.passed, report.failures()


@criterion(5, "threshold bisection matches the closed form")
def test_criterion_5():
    fm = fx.FuzzyMetric(fx.IntervalSpace(0.0, 10.0), fx.TNorm("product"))
    rng = random.Random(99)
    for _ in range(100):
        d = rng.uniform(0.0, 10.0)
        assert abs(fx.threshold(fm, 0.0, d) - tau(d)) <= 1e-9


@criterion(6, "contraction checker soundness")
def test_criterion_6():
    fm, f, g, phi, _ = flagship()
    # (a) the halving map under identity and a linear halving modulus is
    # flagged, with a replayable counterexample near t = 0.7 at gap 1
    bad = fx.check_g_phi(
        fm, f, fx.identity_for(fm.space), fx.LinearPhi(0.5), samples=10000, seed=0
    )
    assert not bad.passed
    witnesses = [
        ce
        for ce in bad.counterexamples
        if ce.x == 0.0 and ce.y == 1.0 and abs(ce.t - 0.7) <= 0.1
    ]
    assert witnesses
    ce = witnesses[0]
    replay_antecedent = fm.membership(ce.x, ce.y, ce.t)
    scaled = fx.LinearPhi(0.5).eval(ce.t)
    replay_consequent = fm.membership(0.5 * ce.x, 0.5 * ce.y, scaled)
    assert replay_antecedent == ce.antecedent > 1.0 - ce.t
    assert replay_consequent == ce.consequent <= 1.0 - scaled

    # (b) the flagship configuration is certified with zero violations
    good = fx.check_g_phi(fm, f, g, phi, samples=10000, seed=0)
    assert good.passed
    assert good.checked_pairs == 10000
    assert not good.counterexamples

    # (c) on the finite corpus the verdicts equal the exhaustive oracle
    grid = dense_grid(10000)
    for name, space, f_c, g_c, phi_c in CORPUS:
        fm_c = fx.FuzzyMetric(space, fx.TNorm("product"))
        verdict = fx.check_g_phi(fm_c, f_c, g_c, phi_c, samples=10000, seed=0).passed
        oracle, _ = exhaustive_g_phi(space, f_c, g_c, phi_c, grid)
        assert verdict == oracle, name


@criterion(7, "horizon certificate and minimality")
def test_criterion_7():
    builtins = (fx.LinearPhi(0.5), fx.RationalPhi(), fx.InducedPhi(0.5, 1.0))
    for phi in builtins:
        for t0 in (0.5, 1.0, 2.0, 5.0):
            for epsilon in (0.01, 0.1, 0.5):
                for lam in (0.05, 0.3, 0.9):
                    n = fx.horizon(phi, t0, epsilon, lam)
                    target = min(epsilon, lam)
                    assert fx.iterate(phi, t0, n) <= target
                    if n > 0:
                        assert fx.iterate(phi, t0, n - 1) > target
    assert fx.horizon(fx.LinearPhi(0.5), 2.0, 0.1, 0.1) == 5


@criterion(8, "multivalued flagship")
def test_criterion_8():
    space = fx.FiniteSpace(
        ("0", "0.1", "1"),
        ((0.0, 0.1, 1.0), (0.1, 0.0, 0.9), (1.0, 0.9, 0.0)),
    )
    fm = fx.FuzzyMetric(space, fx.TNorm("product"))
    T = fx.SetValuedMap({"0": ("0",), "0.1": ("0",), "1": ("0", "0.1")})
    g = fx.identity_for(space)
    phi = fx.InducedPhi(0.5, 1.0)

    report = fx.check_setvalued_contraction(fm, T, g, phi)
    assert report.passed
    oracle, _ = exhaustive_setvalued(space, T, g, phi, dense_grid(10000))
    assert report.passed == oracle

    cfg = fx.SolverConfig(start="1", epsilon=1e-3, lam=1e-3, t0=2.0)
    res = fx.solve_inclusion(fm, T, g, phi, cfg)
    assert res.converged
    assert res.point == "0"
    assert res.in_image is True
    assert "0" in T.image("0")
    assert inclusion_points(space, T, g) == ["0"]
    assert res.point in inclusion_points(space, T, g)


@criterion(9, "delta-chain triple fold")
def test_criterion_9():
    for norm_name in NORM_NAMES:
        norm = fx.TNorm(norm_name)
        for lam in (0.05, 0.1, 0.2):
            delta2 = fx.delta_for_lambda(norm, lam, depth=3)
            v = 1.0 - delta2
            assert fx.fold(norm, v, 3) >= 1.0 - lam
            assert norm.combine(v, norm.combine(v, v)) >= 1.0 - lam


FLAGSHIP_DOC = {
    "space": {"kind": "interval", "lo": 0.0, "hi": 1.0},
    "tnorm": "product",
    "phi": {"kind": "induced", "k": 0.5, "cap": 1.0},
    "f": {"kind": "affine", "a": 0.5, "b": 0.0},
    "g": {"kind": "affine", "a": -1.0, "b": 1.0},
    "solver": {"start": 0.0, "epsilon": 1e-3, "lambda": 1e-3, "t0": 2.0},
    "verification": {"samples": 500, "seed": 0, "grid": 11},
    "query": {"x": 0.0, "y": 1.0},
}

MULTI_DOC = {
    "space": {
        "kind": "finite",
        "points": ["0", "0.1", "1"],
        "dist": [[0.0, 0.1, 1.0], [0.1, 0.0, 0.9], [1.0, 0.9, 0.0]],
    },
    "tnorm": "product",
    "phi": {"kind": "induced", "k": 0.5, "cap": 1.0},
    "T": {"kind": "setvalued", "map": {"0": ["0"], "0.1": ["0"], "1": ["0", "0.1"]}},
    "solver": {"start": "1", "epsilon": 1e-3, "lambda": 1e-3, "t0": 2.0},
    "verification": {"samples": 500, "seed": 0, "grid": 11},
}


@criterion(10, "byte-identical reports and traces")
def test_criterion_10(tmp_path, capsys):
    flag_path = tmp_path / "flagship.json"
    flag_path.write_text(json.dumps(FLAGSHIP_DOC))
    multi_path = tmp_path / "multi.json"
    multi_path.write_text(json.dumps(MULTI_DOC))

    plans = [
        ("check-axioms", flag_path, False),
        ("check-phi", flag_path, False),
        ("check-contraction", flag_path, False),
        ("solve", flag_path, True),
        ("solve-set", multi_path, True),
        ("threshold", flag_path, False),
        ("induce-phi", flag_path, False),
    ]
    for command, config, wants_trace in plans:
        outputs = []
        traces = []
        for run_id in ("first", "second"):
            argv = [command, "--config", str(config), "--seed", "0"]
            if wants_trace:
                trace = tmp_path / f"{command}-{run_id}.trace"
                argv += ["--trace", str(trace)]
                traces.append(trace)
            main(argv)
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1], command
        if traces:
            assert traces[0].read_bytes() == traces[1].read_bytes(), command
