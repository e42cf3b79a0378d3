import math
import random

import pytest

import fuzzfix as fx


def tau(d):
    return 0.5 * (math.sqrt(d * d + 4.0 * d) - d)


# ---------------------------------------------------------------- spaces


NAN = float("nan")
# (labels, table, message): each fault, with the message the validation names it by.
INVALID_FINITE = (
    (("a", "a"), ((0.0, 1.0), (1.0, 0.0)), "labels must be unique"),
    (("a b",), ((0.0,),), "labels must be nonempty strings without whitespace"),
    (("a", "b"), ((0.0, 1.0),), "distance table must be square and match the labels"),
    (("a", "b"), ((0.5, 1.0), (1.0, 0.0)), "d(a, a) must be 0"),
    (("a", "b"), ((0.0, 1.0), (1.0, 1e-300)), "d(b, b) must be 0"),
    (("a", "b"), ((0.0, -1.0), (-1.0, 0.0)), "distances must be nonnegative"),
    (("a", "b"), ((0.0, 1.0), (2.0, 0.0)), "distance table must be symmetric"),
    (("a", "b"), ((0.0, float("nan")), (float("nan"), 0.0)), "distance table must be symmetric"),
    # One NaN object at (a, b) and (b, a): a comparison that short-circuits
    # on identity, as tuple == does, would pass it.
    (("a", "b"), ((0.0, NAN), (NAN, 0.0)), "distance table must be symmetric"),
    (("a", "b"), ((NAN, 1.0), (1.0, 0.0)), "d(a, a) must be 0"),
    (("a", "b", "c"), ((0.0, 1.0, 5.0), (1.0, 0.0, 1.0), (5.0, 1.0, 0.0)), "triangle inequality fails at (a, b, c)"),
    (
        ("a", "b", "c"),
        ((0.0, 1.0, math.nextafter(2.0, 3.0)), (1.0, 0.0, 1.0), (math.nextafter(2.0, 3.0), 1.0, 0.0)),
        "triangle inequality fails at (a, b, c)",
    ),
    # The pair (a, c) fails first in pair order (through d), but the first
    # failing triple in (i, j, k) order is (a, b, d).
    (
        ("a", "b", "c", "d"),
        ((0.0, 1.0, 5.0, 3.0), (1.0, 0.0, 4.0, 1.0), (5.0, 4.0, 0.0, 1.0), (3.0, 1.0, 1.0, 0.0)),
        "triangle inequality fails at (a, b, d)",
    ),
    # Row a holds; the first failing row is b.
    (
        ("a", "b", "c", "d"),
        ((0.0, 2.0, 2.0, 2.0), (2.0, 0.0, 1.0, 3.0), (2.0, 1.0, 0.0, 1.0), (2.0, 3.0, 1.0, 0.0)),
        "triangle inequality fails at (b, c, d)",
    ),
)


def test_finite_space_validation():
    for labels, table, message in INVALID_FINITE:
        with pytest.raises(ValueError) as raised:
            fx.FiniteSpace(labels, table)
        assert str(raised.value) == message, labels
    # The triangle inequality holds with equality everywhere on a line.
    fx.FiniteSpace(("a", "b", "c"), ((0.0, 1.0, 2.0), (1.0, 0.0, 1.0), (2.0, 1.0, 0.0)))


def test_distance_examples():
    euclid = fx.EuclideanSpace(1)
    assert euclid.distance(0.0, 0.0) == 0.0
    normed = fx.IntervalSpace(0.0, 10.0, normalize=True)
    assert normed.distance(0.0, math.log(2.0)) == pytest.approx(0.5)
    finite = fx.FiniteSpace(("a", "b"), ((0.0, 2.0), (2.0, 0.0)))
    assert finite.distance("a", "b") == 2.0


def test_unknown_label_raises():
    finite = fx.FiniteSpace(("a", "b"), ((0.0, 2.0), (2.0, 0.0)))
    with pytest.raises(fx.UnknownPoint):
        finite.distance("a", "zz")


def test_euclidean_point_coercion():
    space = fx.EuclideanSpace(2, bound=1.0)
    assert space.distance((0.0, 0.0), (0.3, 0.4)) == pytest.approx(0.5)
    with pytest.raises(fx.UnknownPoint):
        space.distance((0.0,), (0.3, 0.4))
    assert space.contains((0.5, -0.5))
    assert not space.contains((2.0, 0.0))


def test_interval_requires_order():
    with pytest.raises(ValueError):
        fx.IntervalSpace(1.0, 1.0)


def test_bounded_spaces_require_a_finite_diameter():
    # hi - lo and 2 * bound * sqrt(dim) overflow to inf here.
    with pytest.raises(ValueError, match="hi - lo"):
        fx.IntervalSpace(-1e308, 1e308)
    for dim, bound in ((1, 1e308), (2, 1e308), (3, 6e307)):
        with pytest.raises(ValueError, match="diameter"):
            fx.EuclideanSpace(dim, bound)
    assert fx.IntervalSpace(-8e307, 8e307).diameter() == 1.6e308
    assert math.isfinite(fx.EuclideanSpace(3, 5e307).diameter())


# ---------------------------------------------------------- membership


def test_membership_examples(flagship_fm):
    assert flagship_fm.membership(0.0, 1.0, 1.0) == 0.5  # d = 1, t = 1
    assert flagship_fm.membership(0.25, 0.25, 3.0) == 1.0
    assert flagship_fm.membership(0.0, 1.0, 0.0) == 0.0


def test_membership_with_transform():
    # scaling both points by 2 doubles the gap: M(2, 4, 2) = 0.5
    fm = fx.FuzzyMetric(fx.EuclideanSpace(1), fx.TNorm("product"))
    fm2 = fm.g_transform(fx.AffineBijection(2.0, 0.0))
    assert fm2.membership(1.0, 2.0, 2.0) == pytest.approx(0.5)


def test_g_transform_examples(flagship_fm):
    ident = flagship_fm.g_transform(fx.AffineBijection(1.0, 0.0))
    flip = flagship_fm.g_transform(fx.AffineBijection(-1.0, 1.0))
    rng = random.Random(5)
    for _ in range(50):
        x, y, t = rng.random(), rng.random(), rng.uniform(0.01, 2.0)
        base = flagship_fm.membership(x, y, t)
        assert ident.membership(x, y, t) == base
        # the flip is an isometry of [0, 1]
        assert flip.membership(x, y, t) == pytest.approx(base, abs=1e-12)
    assert flip.membership(0.0, 1.0, 1.0) == pytest.approx(0.5)


def test_g_transform_permutation_keeps_identity_of_points(finite5):
    fm = fx.FuzzyMetric(finite5, fx.TNorm("product"))
    perm = fx.PermutationBijection(
        {"0.0": "0.25", "0.25": "0.5", "0.5": "0.75", "0.75": "1.0", "1.0": "0.0"}
    )
    fm_g = fm.g_transform(perm)
    for label in finite5.labels:
        assert fm_g.membership(label, label, 1.0) == 1.0


def test_g_transform_rejects_non_bijection(flagship_fm):
    with pytest.raises(fx.NotBijective):
        flagship_fm.g_transform(fx.AffineBijection(0.5, 0.0))
    with pytest.raises(fx.NotBijective):
        flagship_fm.g_transform(fx.AffineBijection(0.0, 0.3))


def test_g_transform_composes():
    fm = fx.FuzzyMetric(fx.IntervalSpace(0.0, 1.0), fx.TNorm("product"))
    flip = fx.AffineBijection(-1.0, 1.0)
    double_flip = fm.g_transform(flip).g_transform(flip)
    rng = random.Random(1)
    for _ in range(20):
        x, y, t = rng.random(), rng.random(), rng.uniform(0.01, 2.0)
        assert double_flip.membership(x, y, t) == fm.membership(x, y, t)


# ---------------------------------------------------------- uniformity


def test_in_uniformity_examples(flagship_fm):
    assert fx.in_uniformity(flagship_fm, 0.3, 0.3, 0.01, 0.01)
    # d = 0.3: 1 / 1.3 > 0.5
    assert fx.in_uniformity(flagship_fm, 0.0, 0.3, 1.0, 0.5)
    # d = 1: 0.1 / 1.1 < 0.95
    assert not fx.in_uniformity(flagship_fm, 0.0, 1.0, 0.1, 0.05)


def test_in_uniformity_validates_levels(flagship_fm):
    with pytest.raises(ValueError):
        fx.in_uniformity(flagship_fm, 0.0, 1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        fx.in_uniformity(flagship_fm, 0.0, 1.0, 0.5, 1.0)


# ----------------------------------------------------------- threshold


def test_threshold_examples(flagship_fm):
    assert fx.threshold(flagship_fm, 0.25, 0.25) == 0.0
    assert fx.threshold(flagship_fm, 0.0, 1.0) == pytest.approx(0.618034, abs=1e-6)
    assert fx.threshold(flagship_fm, 0.0, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_threshold_matches_closed_form_oracle():
    fm = fx.FuzzyMetric(fx.IntervalSpace(0.0, 10.0), fx.TNorm("product"))
    rng = random.Random(42)
    for _ in range(100):
        d = rng.uniform(0.0, 10.0)
        assert abs(fx.threshold(fm, 0.0, d) - tau(d)) <= 1e-9


def test_threshold_separates_the_antecedent(flagship_fm):
    for d in (0.05, 0.4, 0.9):
        t_star = fx.threshold(flagship_fm, 0.0, d)
        for t in (t_star, t_star + 1e-9, t_star + 0.1, 1.0):
            assert flagship_fm.membership(0.0, d, t) > 1.0 - t
        below = math.nextafter(t_star, 0.0)
        assert not flagship_fm.membership(0.0, d, below) > 1.0 - below


def test_threshold_respects_transform(flagship_fm, flagship_g):
    fm_g = flagship_fm.g_transform(flagship_g)
    # the flip is an isometry, so thresholds agree
    assert fx.threshold(fm_g, 0.0, 1.0) == fx.threshold(flagship_fm, 0.0, 1.0)


# ------------------------------------------------------- cauchy window


def test_is_cauchy_window_examples(flagship_fm):
    assert fx.is_cauchy_window(flagship_fm, [0.4, 0.4, 0.4], 0.01, 0.01)
    assert not fx.is_cauchy_window(flagship_fm, [0.0, 1.0], 0.1, 0.5)
    assert fx.is_cauchy_window(flagship_fm, [0.5, 0.500001], 0.01, 0.01)
    with pytest.raises(ValueError):
        fx.is_cauchy_window(flagship_fm, [], 0.1, 0.1)


# ----------------------------------------------------------- axiom suite


NORM_NAMES = ("product", "minimum", "lukasiewicz")


@pytest.mark.parametrize("norm_name", NORM_NAMES)
def test_axioms_pass_on_interval(norm_name):
    fm = fx.FuzzyMetric(fx.IntervalSpace(0.0, 1.0), fx.TNorm(norm_name))
    report = fx.verify_fm_axioms(fm, samples=2000, seed=11)
    assert report.passed, report.failures()


@pytest.mark.parametrize("norm_name", NORM_NAMES)
def test_axioms_pass_on_finite(finite5, norm_name):
    fm = fx.FuzzyMetric(finite5, fx.TNorm(norm_name))
    report = fx.verify_fm_axioms(fm, samples=2000, seed=11)
    assert report.passed, report.failures()


def test_axioms_pass_on_normalized_unbounded_space():
    fm = fx.FuzzyMetric(fx.EuclideanSpace(2, normalize=True), fx.TNorm("product"))
    report = fx.verify_fm_axioms(fm, samples=2000, seed=11)
    assert report.passed, report.failures()


class ConstantMembership:
    """Deliberately broken metric: every grade is 0.5."""

    def __init__(self, space, norm):
        self.space = space
        self.norm = norm

    def membership(self, x, y, t):
        return 0.5


def test_corrupted_metric_fails_fm3(unit_interval, product_norm):
    report = fx.verify_fm_axioms(
        ConstantMembership(unit_interval, product_norm), samples=200, seed=0
    )
    assert not report.law("FM3").passed
    assert report.law("FM3").witnesses


def test_axiom_report_is_deterministic(flagship_fm):
    a = fx.verify_fm_axioms(flagship_fm, samples=500, seed=9)
    b = fx.verify_fm_axioms(flagship_fm, samples=500, seed=9)
    assert a == b


def test_membership_monotone_in_t(flagship_fm):
    rng = random.Random(3)
    for _ in range(200):
        x, y = rng.random(), rng.random()
        grades = [flagship_fm.membership(x, y, t) for t in (0.0, 0.1, 0.5, 1.0, 2.0)]
        assert grades == sorted(grades)
