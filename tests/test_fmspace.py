import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fuzzfix as fx
from conftest import line_space, raises_exactly
from oracles import reference_draws


def tau(d):
    return 0.5 * (math.sqrt(d * d + 4.0 * d) - d)


# ---------------------------------------------------------------- spaces


@pytest.mark.parametrize(
    "space",
    [
        fx.FiniteSpace(("a", "b", "c"), ((0.0, 1.0, 2.0), (1.0, 0.0, 1.0), (2.0, 1.0, 0.0))),
        fx.IntervalSpace(-0.75, 2.5),
        fx.EuclideanSpace(1, 2.0),
        fx.EuclideanSpace(3, 0.5),
        fx.EuclideanSpace(2),
    ],
    ids=["finite", "interval", "box1", "box3", "plane"],
)
def test_sample_draws_what_one_point_draws_would(space):
    # n points are the draws of n one-point draws, in order, and a second
    # call goes on with the same generator.
    rng, reference = random.Random(5), random.Random(5)
    assert space.sample(rng, 0) == []
    drawn = space.sample(rng, 4) + space.sample(rng, 3)
    assert drawn == reference_draws(space, reference, 7)
    assert all(space.contains(p) for p in drawn)


@pytest.mark.parametrize("size", range(1, 8))
def test_finite_sample_draws_as_randrange_over_the_labels(size):
    # One choice over the labels draws what one randrange over their count
    # picks, and leaves the generator in the same state.
    space = line_space(range(size))
    for seed in (0, 1, 5, 2 ** 40 + 3):
        rng, reference = random.Random(seed), random.Random(seed)
        assert space.sample(rng, 60) == [space.labels[reference.randrange(size)] for _ in range(60)]
        assert rng.random() == reference.random()


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
    assert euclid.distance((0.0,), (0.0,)) == 0.0
    normed = fx.IntervalSpace(0.0, 10.0, normalize=True)
    assert normed.distance(0.0, math.log(2.0)) == pytest.approx(0.5)
    finite = fx.FiniteSpace(("a", "b"), ((0.0, 2.0), (2.0, 0.0)))
    assert finite.distance("a", "b") == 2.0


def test_unknown_label_raises():
    finite = fx.FiniteSpace(("a", "b"), ((0.0, 2.0), (2.0, 0.0)))
    with pytest.raises(fx.UnknownPoint):
        finite.distance("a", "zz")


def test_euclidean_point_coercion():
    # A point is a dim-tuple of numbers: contains rejects every other form.
    space = fx.EuclideanSpace(2, bound=1.0)
    assert space.distance((0.0, 0.0), (0.3, 0.4)) == pytest.approx(0.5)
    assert space.contains((0.5, -0.5))
    assert not space.contains((2.0, 0.0))
    for malformed in ((0.0,), (0.0, 0.0, 0.0), [0.5, 0.5], 0.5, ("0.5", 0.5), (None, 0.5)):
        assert not space.contains(malformed)
    assert not fx.EuclideanSpace(1).contains(0.5)
    assert fx.EuclideanSpace(1).contains((0.5,))


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
    assert fm2.membership((1.0,), (2.0,), 2.0) == pytest.approx(0.5)


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


LAWS = ("FM1", "FM2", "FM3", "FM4", "FM5", "FM6", "monotone_in_t")
SAMPLES, SEED = 40, 5


def standard(x, y, t):
    return t / (t + abs(x - y))


def draws(samples, seed):
    """The verifier's draws on the unit interval: x, y, z, then t and s."""
    rng = random.Random(seed)
    return [tuple(rng.uniform(lo, hi) for lo, hi in [(0.0, 1.0)] * 3 + [(1e-3, 2.0)] * 2) for _ in range(samples)]


class Corrupted:
    """The standard metric on the unit interval at t > 0, except where
    ``grade(x, y, t)`` says otherwise, under ``norm``."""

    def __init__(self, grade, norm=fx.TNorm("product")):
        self.space, self.norm, self.grade = fx.IntervalSpace(0.0, 1.0), norm, grade

    def membership(self, x, y, t):
        return 0.0 if t == 0.0 else self.grade(x, y, t)


class MaxNorm:
    """Not a t-norm: max(a, b) exceeds the product."""

    combine = staticmethod(max)


SAMPLED_TIMES = {t for _, _, _, t, _ in draws(SAMPLES, SEED)}
# Each metric breaks one law; its witnesses, from the draws, in sample order.
CORRUPTED = {
    "FM2": (Corrupted(lambda x, y, t: float(x == y)), lambda x, y, z, t, s: (x, y, t, 0.0)),
    "FM3": (Corrupted(lambda x, y, t: 1.0), lambda x, y, z, t, s: (x, y, t, 1.0)),
    "FM4": (
        Corrupted(lambda x, y, t: math.nextafter(standard(x, y, t), 0.0) if x > y else standard(x, y, t)),
        lambda x, y, z, t, s: (x, y, t),
    ),
    "FM5": (
        Corrupted(standard, MaxNorm()),
        lambda x, y, z, t, s: (x, y, z, t, s, standard(x, z, t + s), max(standard(x, y, t), standard(y, z, s)))
        if standard(x, z, t + s) < max(standard(x, y, t), standard(y, z, s))
        else None,
    ),
    # A dip at exactly the sampled times: nothing right of t comes near it.
    "FM6": (
        Corrupted(lambda x, y, t: 0.9 * standard(x, y, t) if t in SAMPLED_TIMES and x != y else standard(x, y, t)),
        lambda x, y, z, t, s: (x, y, t),
    ),
    "monotone_in_t": (
        Corrupted(lambda x, y, t: 0.0 if t == 1.0 else standard(x, y, t)),
        lambda x, y, z, t, s: (x, y, 1.0, standard(x, y, 0.5), 0.0),
    ),
}


@pytest.mark.parametrize("law", list(CORRUPTED))
def test_corrupted_metric_fails_only_its_law(law):
    metric, witness = CORRUPTED[law]
    report = fx.verify_fm_axioms(metric, samples=SAMPLES, seed=SEED)
    assert [(l.name, l.checks) for l in report.laws] == [(name, SAMPLES) for name in LAWS]
    assert report.failures() == (law,)
    expected = [w for w in (witness(*d) for d in draws(SAMPLES, SEED)) if w is not None]
    assert len(expected) > 16
    assert report.law(law).witnesses == tuple(expected[:16])


class Delegate:
    """A metric seen only through ``space``, ``norm`` and ``membership``:
    the verifier grades it by calling its membership."""

    def __init__(self, fm):
        self.space, self.norm, self.membership = fm.space, fm.norm, fm.membership


@st.composite
def metrics(draw):
    """A standard metric on an interval, a box of dim 1-3 (bounded or not)
    or a finite line, normalized or not, under each t-norm or MaxNorm,
    which fails FM5 with witnesses that carry the grades, and relabeled by
    a reflection or a permutation or not at all."""
    kind, normalize = draw(st.sampled_from(("interval", "box", "finite"))), draw(st.booleans())
    if kind == "interval":
        lo = draw(st.integers(-8, 8)) / 4
        space = fx.IntervalSpace(lo, lo + draw(st.integers(1, 16)) / 4, normalize)
        relabel = fx.AffineBijection(-1.0, space.lo + space.hi)
    elif kind == "box":
        space = fx.EuclideanSpace(draw(st.integers(1, 3)), draw(st.sampled_from((None, 0.5, 2.0))), normalize)
        relabel = fx.AffineBijection(-1.0, 0.0)
    else:
        coords = draw(st.lists(st.integers(0, 40), min_size=1, max_size=6, unique=True))
        space = line_space([c / 8 for c in coords], normalize)
        relabel = fx.PermutationBijection(dict(zip(space.labels, draw(st.permutations(space.labels)))))
    norm = draw(st.sampled_from([fx.TNorm(name) for name in NORM_NAMES] + [MaxNorm()]))
    fm = fx.FuzzyMetric(space, norm)
    return fm.g_transform(relabel) if draw(st.booleans()) else fm


@settings(max_examples=150, deadline=None, database=None)
@given(fm=metrics(), samples=st.integers(1, 40), seed=st.integers(0, 2 ** 32))
def test_standard_metric_grades_as_its_membership(fm, samples, seed):
    # The standard metric is graded inline; the reference is the path
    # that calls membership. Every verdict, witness and count agrees.
    assert fx.verify_fm_axioms(fm, samples, seed) == fx.verify_fm_axioms(Delegate(fm), samples, seed)


def test_axiom_work_per_sample(monkeypatch):
    # The standard metric calls membership once a sample, for FM1. The
    # general path grades t = 0 once a sample, for FM1 and the grid's
    # start alike, and each later grid time once.
    times = []
    membership = fx.FuzzyMetric.membership
    monkeypatch.setattr(fx.FuzzyMetric, "membership", lambda fm, x, y, t: times.append(t) or membership(fm, x, y, t))
    fm = fx.FuzzyMetric(fx.IntervalSpace(0.0, 1.0), fx.TNorm("product"))
    fx.verify_fm_axioms(fm, samples=SAMPLES, seed=SEED)
    assert times == [0.0] * SAMPLES
    times.clear()
    fx.verify_fm_axioms(Delegate(fm), samples=SAMPLES, seed=SEED)
    assert [times.count(t) for t in (0.0, 1e-3, 0.1, 0.5, 1.0, 2.0)] == [SAMPLES] * 6


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


# ---------------------------------------------------------- raise paths

UNIT = fx.FuzzyMetric(fx.IntervalSpace(0.0, 1.0), fx.TNorm("product"))
EPSILON, LAM = "epsilon must be positive", "lam must lie strictly between 0 and 1"
# (id, call, error, message). A NaN argument fails its bound with the bound's own message.
RAISES = (
    ("empty-finite", lambda: fx.FiniteSpace((), ()), ValueError, "finite space needs at least one point"),
    (
        "finite-point-not-a-string",
        lambda: fx.FiniteSpace(("a",), ((0.0,),)).parse_point(1.0),
        ValueError,
        "finite-space points are label strings",
    ),
    ("dim-0", lambda: fx.EuclideanSpace(0), ValueError, "dim must be >= 1"),
    ("bound-0", lambda: fx.EuclideanSpace(2, 0.0), ValueError, "bound must be positive when given"),
    ("membership-negative-t", lambda: UNIT.membership(0.0, 1.0, -1.0), ValueError, "t must be nonnegative"),
    ("axioms-samples-0", lambda: fx.verify_fm_axioms(UNIT, samples=0), ValueError, "samples must be >= 1"),
    (
        "in-uniformity-nan-epsilon",
        lambda: fx.in_uniformity(UNIT, 0.0, 0.5, NAN, 0.1),
        ValueError,
        "epsilon must be positive",
    ),
    ("membership-nan-t", lambda: UNIT.membership(0.0, 0.5, NAN), ValueError, "t must be nonnegative"),
    # A one-point window has no pair to grade, and its levels are checked all the same.
    ("window-one-point-nan-epsilon", lambda: fx.is_cauchy_window(UNIT, [0.5], NAN, 0.1), ValueError, EPSILON),
    ("window-one-point-negative-epsilon", lambda: fx.is_cauchy_window(UNIT, [0.5], -1.0, 7.0), ValueError, EPSILON),
    ("window-one-point-nan-lam", lambda: fx.is_cauchy_window(UNIT, [0.5], 0.1, NAN), ValueError, LAM),
    ("window-one-point-lam-7", lambda: fx.is_cauchy_window(UNIT, [0.5], 0.1, 7.0), ValueError, LAM),
    ("window-one-point-lam-0", lambda: fx.is_cauchy_window(UNIT, [0.5], 0.1, 0.0), ValueError, LAM),
    ("window-empty", lambda: fx.is_cauchy_window(UNIT, [], NAN, NAN), ValueError, "window must be nonempty"),
    ("in-uniformity-lam-1", lambda: fx.in_uniformity(UNIT, 0.0, 0.5, 0.1, 1.0), ValueError, LAM),
)


@pytest.mark.parametrize("call, error, message", [row[1:] for row in RAISES], ids=[row[0] for row in RAISES])
def test_invalid_arguments_raise(call, error, message):
    raises_exactly(call, error, message)
