import math

import pytest

import fuzzfix as fx

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
