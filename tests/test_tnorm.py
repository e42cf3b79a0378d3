import math

import pytest

import fuzzfix as fx
from conftest import raises_exactly
from oracles import WITNESS_CAP, largest_margin, reference_tnorm_laws

NORMS = [fx.TNorm(v) for v in ("product", "minimum", "lukasiewicz")]
LEVELS = [i / 10 for i in range(11)]


def test_combine_examples():
    assert fx.TNorm("product").combine(0.5, 0.4) == pytest.approx(0.2)
    assert fx.TNorm("minimum").combine(0.3, 0.7) == 0.3
    assert fx.TNorm("lukasiewicz").combine(0.6, 0.3) == 0.0


@pytest.mark.parametrize("norm", NORMS, ids=lambda n: n.variant)
def test_unit_law_exact(norm):
    for a in LEVELS:
        assert norm.combine(a, 1.0) == a
        assert norm.combine(1.0, a) == a


@pytest.mark.parametrize("norm", NORMS, ids=lambda n: n.variant)
def test_commutative_and_bounded_by_min(norm):
    for a in LEVELS:
        for b in LEVELS:
            v = norm.combine(a, b)
            assert v == norm.combine(b, a)
            assert v <= min(a, b)


@pytest.mark.parametrize("norm", NORMS, ids=lambda n: n.variant)
def test_monotone_on_grid(norm):
    for i, a in enumerate(LEVELS):
        for c in LEVELS[i:]:
            for j, b in enumerate(LEVELS):
                for d in LEVELS[j:]:
                    assert norm.combine(a, b) <= norm.combine(c, d)


def test_combine_rejects_bad_grades():
    with pytest.raises(ValueError):
        fx.TNorm("product").combine(1.5, 0.5)
    with pytest.raises(ValueError):
        fx.TNorm("minimum").combine(0.5, -0.1)


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        fx.TNorm("hamacher")


def test_delta_for_lambda_examples():
    # product, depth 2: solve (1 - delta)^2 = 0.81
    d = fx.delta_for_lambda(fx.TNorm("product"), 0.19, 2)
    assert d == pytest.approx(0.1, abs=1e-8)
    # minimum: fold is 1 - delta for any depth
    d = fx.delta_for_lambda(fx.TNorm("minimum"), 0.2, 3)
    assert d == pytest.approx(0.2, abs=1e-8)
    # lukasiewicz, depth 2: solve 1 - 2*delta = 1 - lambda
    d = fx.delta_for_lambda(fx.TNorm("lukasiewicz"), 0.2, 2)
    assert d == pytest.approx(0.1, abs=1e-8)


@pytest.mark.parametrize("norm", NORMS, ids=lambda n: n.variant)
@pytest.mark.parametrize("lam", [0.05, 0.1, 0.2, 0.7, 0.9, 0.99])
@pytest.mark.parametrize("depth", [2, 3, 5])
def test_delta_for_lambda_is_maximal_witness(norm, lam, depth):
    delta = fx.delta_for_lambda(norm, lam, depth)
    assert 0.0 < delta < 1.0
    level = 1.0 - delta
    assert 1.0 - level == delta  # the margin is exactly 1 - level
    assert fx.fold(norm, level, depth) > 1.0 - lam
    # The next level a float margin reaches: floats in [1/2, 1] lie 2**-53
    # apart, and below 1/2 so do the levels 1 - delta, as delta > 1/2 does.
    below = level - 2.0 ** -53
    if level > 0.5:
        assert below == math.nextafter(level, 0.0)
    assert fx.fold(norm, below, depth) <= 1.0 - lam


@pytest.mark.parametrize("variant,lam,depth", [("product", 0.9867133823858587, 3), ("lukasiewicz", 0.65, 10)])
def test_delta_for_lambda_steps_down_to_the_least_level(variant, lam, depth):
    # Here the closed-form level lies above the least one that passes (the
    # float below it still folds above 1 - lam), so the search walks down.
    norm = fx.TNorm(variant)
    closed = (1.0 - lam) ** (1.0 / depth) if variant == "product" else 1.0 - lam / depth
    assert fx.fold(norm, math.nextafter(closed, 0.0), depth) > 1.0 - lam
    delta = fx.delta_for_lambda(norm, lam, depth)
    widest = largest_margin(variant, lam, depth)
    assert 1.0 - delta == 1.0 - widest < closed
    assert delta <= widest


def test_delta_for_lambda_rejects_bad_arguments():
    norm = fx.TNorm("product")
    for lam in (0.0, 1.0, 2.0 ** -60):  # the last one rounds 1 - lam to 1
        with pytest.raises(ValueError):
            fx.delta_for_lambda(norm, lam, 2)
    with pytest.raises(ValueError):
        fx.delta_for_lambda(norm, 0.5, 1)


def test_fold_counts_factors():
    norm = fx.TNorm("product")
    assert fx.fold(norm, 0.5, 1) == 0.5
    assert fx.fold(norm, 0.5, 3) == pytest.approx(0.125)


@pytest.mark.parametrize("norm", NORMS, ids=lambda n: n.variant)
def test_axiom_report_passes_for_builtins(norm):
    report = fx.verify_tnorm_axioms(norm, grid=11)
    assert report.passed, report.failures()
    names = [law.name for law in report.laws]
    assert names == [
        "commutativity",
        "associativity",
        "unit",
        "monotonicity",
        "sup_diagonal",
    ]


def test_diagonal_sup_approaches_one():
    # sup_{a<1} a*a == 1 for every builtin: the diagonal climbs to 1.
    for norm in NORMS:
        a = 1.0 - 2.0 ** -40
        assert norm.combine(a, a) >= 1.0 - 1e-6


class LeftProjection:
    """a * b = a: associative, monotone, with 1 a right unit, and not
    commutative at any a != b."""

    def combine(self, a, b):
        return a


class RightSquaredProduct:
    """a b**2: 1 is a right unit, and the order of operands matters inside
    associativity, whose sides a b**2 c**2 and a b**2 c**4 differ."""

    def combine(self, a, b):
        return a * b * b


class SquaredProduct:
    """(a b)**2 off the unit: commutative and monotone, and not
    associative, as a**4 b**4 c**2 != a**2 b**4 c**4 for a != c."""

    def combine(self, a, b):
        return a if b == 1.0 else b if a == 1.0 else (a * b) ** 2


class ShrunkProduct:
    """(1 - 2**-30) (a b): 1 is no unit, yet the diagonal still climbs
    within 1e-6 of 1 and the constant factor reassociates within rounding."""

    def combine(self, a, b):
        return (1.0 - 2.0 ** -30) * (a * b)


class ReversedMinimum:
    """The minimum in an order that keeps 1 on top and reverses [0, 1):
    associative and commutative with unit 1, and not monotone, as
    combine(0.8, 0.9) = 0.9 > combine(0.8, 1) = 0.8."""

    def combine(self, a, b):
        return a if b == 1.0 else b if a == 1.0 else max(a, b)


BROKEN = {
    "commutativity": LeftProjection(),
    "associativity": SquaredProduct(),
    "unit": ShrunkProduct(),
    "monotonicity": ReversedMinimum(),
}


COMPARED = NORMS + list(BROKEN.values()) + [RightSquaredProduct()]


@pytest.mark.parametrize("norm", COMPARED, ids=lambda n: getattr(n, "variant", type(n).__name__))
@pytest.mark.parametrize("grid", [2, 3, 11, 17])
def test_axiom_report_matches_the_per_law_loops(norm, grid):
    # Whole reports: verdicts, check counts, witnesses and their order.
    assert fx.verify_tnorm_axioms(norm, grid) == reference_tnorm_laws(norm.combine, grid)


@pytest.mark.parametrize("law", sorted(BROKEN))
def test_broken_norms_fail_their_law_past_the_witness_cap(law):
    # More failures than witnesses, so the cap and the scan order are pinned.
    norm = BROKEN[law]
    assert fx.verify_tnorm_axioms(norm, grid=11).failures() == (law,)
    assert len(reference_tnorm_laws(norm.combine, 11, cap=None).law(law).witnesses) > WITNESS_CAP


def test_axiom_report_reads_one_grade_table():
    # grid**2 table entries, 2 grid**3 associativity sides, grid unit
    # checks and 40 diagonal probes: 2,834 calls at grid 11.
    calls = []

    class Counted:
        def combine(self, a, b):
            calls.append((a, b))
            return a * b

    fx.verify_tnorm_axioms(Counted(), grid=11)
    assert len(calls) == 11 ** 2 + 2 * 11 ** 3 + 11 + 40 == 2834


# ---------------------------------------------------------- raise paths

PRODUCT = fx.TNorm("product")
RAISES = (
    ("fold-depth-0", lambda: fx.fold(PRODUCT, 0.5, 0), ValueError, "depth must be >= 1"),
    ("laws-grid-1", lambda: fx.verify_tnorm_axioms(PRODUCT, grid=1), ValueError, "grid must be >= 2"),
    ("report-unknown-law", lambda: fx.verify_tnorm_axioms(PRODUCT, grid=2).law("FM1"), KeyError, "'FM1'"),
)


@pytest.mark.parametrize("call, error, message", [row[1:] for row in RAISES], ids=[row[0] for row in RAISES])
def test_invalid_arguments_raise(call, error, message):
    raises_exactly(call, error, message)
