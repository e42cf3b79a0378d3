"""Property tests of the exact layers against independent oracles.

The horizon is compared with plain float iteration of each modulus's
definition, the fold margin with a bit-pattern bisection over the
t-norms' formulas, table admissibility with a dense time check, the threshold
with the float switch of the crossing predicate, checked in floats and
rationals, and the contraction checks with an oracle that
decides each pair exactly for the real maps and moduli, without the
library's slack, whose size a separate property bounds.
Every test runs on a fixed seed, so the suite stays deterministic.
"""

import math
import random
from decimal import localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

import fuzzfix as fx
from oracles import (
    DIGITS,
    ONSET_ERROR,
    checked_onset,
    dec,
    exact_phi,
    finite_space_fault,
    induced_step,
    largest_margin,
    linear_step,
    orbit_count,
    rational_step,
    reaches_crossing,
    reference_check_g_phi,
    reference_check_setvalued,
    slack_bound,
    table_laws_dense,
)

SEED = 20070
LIMIT = 10 ** 4
LAM = 0.999

deterministic = settings(max_examples=150, deadline=None, database=None)

t0s = st.floats(0.01, 50.0)
targets = st.floats(1e-6, 0.99)


def assert_horizon(phi, step, t0, target):
    expected = orbit_count(step, t0, target, LIMIT)
    assert expected is not None, "inputs must keep the horizon under 10^4"
    assert fx.horizon(phi, t0, target, LAM) == expected


@seed(SEED)
@deterministic
@given(k=st.floats(0.05, 0.98), t0=t0s, target=targets)
def test_linear_horizon_matches_iteration(k, t0, target):
    assert_horizon(fx.LinearPhi(k), linear_step(k), t0, target)


@seed(SEED)
@deterministic
@given(k=st.sampled_from([0.5, 0.25, 0.125]), i=st.integers(-3, 5), m=st.integers(1, 30))
def test_linear_horizon_on_exact_powers(k, i, m):
    # target = t0 * k**m exactly: the m-th float iterate lands on it.
    t0 = 2.0 ** i
    target = t0 * k ** m
    if target < 1.0:
        assert_horizon(fx.LinearPhi(k), linear_step(k), t0, target)


@seed(SEED)
@deterministic
@given(t0=t0s, target=st.floats(1.2e-4, 0.99))
def test_rational_horizon_matches_iteration(t0, target):
    assert_horizon(fx.RationalPhi(), rational_step, t0, target)


@seed(SEED)
@deterministic
@given(a=st.integers(1, 60), gap=st.integers(1, 9000), invert=st.booleans())
@example(a=2, gap=98, invert=True)  # t0 = 0.5, target = 0.01: the float iterate needs 99
def test_rational_horizon_on_integer_ties(a, gap, invert):
    # 1/target - 1/t0 is the integer gap (up to rounding of the inputs).
    t0 = 1.0 / a if invert else float(a)
    target = 1.0 / (gap + 1.0 / t0)
    if target < t0:
        assert_horizon(fx.RationalPhi(), rational_step, t0, target)


@seed(SEED)
@deterministic
@given(k=st.floats(0.05, 0.95), cap=st.floats(0.05, 20.0), t0=t0s, target=targets)
def test_induced_horizon_matches_iteration(k, cap, t0, target):
    assert_horizon(fx.InducedPhi(k, cap), induced_step(k, cap), t0, target)


def test_rational_horizon_is_exact_beyond_a_million_steps():
    # The exact count: ceil(1/target - 1/t0) = ceil(10^7 - 0.5).
    assert fx.horizon(fx.RationalPhi(), 2.0, 1e-7, 1e-7) == 10 ** 7


def test_table_horizon_on_a_cycle_raises():
    # phi(0.8) = 0.6 and phi(0.6) = 0.8: the orbit cycles above any target.
    phi = fx.TablePhi(((0.0, 0.0), (0.5, 0.8), (0.7, 0.6)))
    with pytest.raises(fx.HorizonExceeded):
        fx.horizon(phi, 0.8, 0.1, 0.1)


@seed(SEED)
@settings(max_examples=500, deadline=None, database=None)
@given(
    variant=st.sampled_from(["product", "minimum", "lukasiewicz"]),
    lam=st.floats(1e-15, 1.0, exclude_max=True),
    depth=st.integers(2, 8),
)
@example(variant="minimum", lam=0.7, depth=3)  # the level lies below 1/2
@example(variant="product", lam=0.99, depth=2)
def test_fold_margin_matches_bit_pattern_search(variant, lam, depth):
    delta = fx.delta_for_lambda(fx.TNorm(variant), lam, depth)
    widest = largest_margin(variant, lam, depth)
    # The same level, which delta gives exactly; the search's margin may
    # exceed delta by what 1 - delta rounds away.
    assert 1.0 - delta == 1.0 - widest
    assert 1.0 - (1.0 - delta) == delta <= widest


def _lattice(n):
    return st.integers(0, n).map(lambda i: i / 32.0)


@st.composite
def tables(draw):
    times = draw(st.lists(_lattice(64), min_size=1, max_size=6, unique=True))
    times.sort()
    values = draw(st.lists(_lattice(80), min_size=len(times), max_size=len(times)))
    return tuple(zip(times, values))


ROADMAP_TABLES = (
    ((0.0, 0.0), (0.2, 0.1), (0.21, 0.01), (0.24, 0.1)),
    ((0.0, 0.0), (0.3, 0.3), (0.32, 0.2)),
)


@seed(SEED)
@deterministic
@given(points=tables())
@example(points=ROADMAP_TABLES[0])
@example(points=ROADMAP_TABLES[1])
def test_table_admissibility_matches_dense_check(points):
    report = fx.verify_phi_class(fx.TablePhi(points), grid=8, t_max=2.0)
    laws = tuple(report.law(name).passed for name in ("nondecreasing", "below_identity", "iterates_vanish"))
    assert laws == table_laws_dense(points, 2.0)
    assert report.passed == all(laws)


def test_roadmap_tables_are_inadmissible():
    # Each fault lies between the points of the default 16-point grid.
    for points in ROADMAP_TABLES:
        assert not fx.verify_phi_class(fx.TablePhi(points)).passed


# ------------------------------------------------ threshold and contraction

DMAX = 1.7976931348623157e308

# Distances log-uniform over the positive floats, subnormals included.
distances = st.floats(math.log(5e-324), math.log(DMAX)).map(math.exp).filter(lambda d: d > 0.0)


@seed(SEED)
@settings(max_examples=1000, deadline=None, database=None)
@given(d=distances, normalize=st.booleans())
@example(d=5e-324, normalize=False)
@example(d=DMAX, normalize=False)
@example(d=DMAX, normalize=True)
@example(d=1.0, normalize=False)
def test_threshold_is_the_onset_of_the_distance(d, normalize):
    # The normalised space grades 1 - exp(-d) instead of d.
    space = fx.IntervalSpace(0.0, DMAX, normalize=normalize)
    fm = fx.FuzzyMetric(space, fx.TNorm("product"))
    assert fx.threshold(fm, 0.0, d) == checked_onset(space.distance(0.0, d))


@seed(SEED)
@settings(max_examples=1000, deadline=None, database=None)
@given(d=distances)
@example(d=5e-324)
@example(d=DMAX)
@example(d=1e-40)
def test_onset_switches_on_within_four_units_of_the_crossing(d):
    checked_onset(d)


def test_onset_of_coincident_points():
    # 1 - t rounds to 1 up to 2**-54, so the antecedent first holds just above it.
    assert checked_onset(0.0) == math.nextafter(2.0 ** -54, 1.0)


@seed(SEED)
@settings(max_examples=500, deadline=None, database=None)
@given(k=st.floats(0.05, 0.95), log_cap=st.floats(math.log(0.05), math.log(1e15)), share=st.floats(1e-12, 1.0))
def test_induced_conjugacy_holds_within_its_slack(k, log_cap, share):
    # eval(tau(d)) == tau(k * d) for d <= cap: at the float onset of d
    # the exact tau(k * d) lies within slack of eval.
    phi = fx.InducedPhi(k, math.exp(log_cap))
    d = phi.cap * share
    t = fx.onset(d)
    value = phi.eval(t)
    slack = Fraction(phi.slack(t, value, ONSET_ERROR))
    kd = Fraction(k) * Fraction(d)
    above, below = Fraction(value) + slack, Fraction(value) - slack
    assert reaches_crossing(above, kd)
    assert below <= 0 or below * below + below * kd - kd <= 0


def _dyadic(lo, hi):
    return st.integers(lo, hi).map(lambda i: i / 8.0)


@st.composite
def moduli(draw, diameter):
    kind = draw(st.sampled_from(["linear", "rational", "induced", "table"]))
    if kind == "linear":
        return fx.LinearPhi(draw(st.floats(0.05, 0.95)))
    if kind == "rational":
        return fx.RationalPhi()
    if kind == "induced":
        return fx.InducedPhi(draw(st.floats(0.05, 0.95)), diameter * draw(st.floats(0.5, 2.0)))
    # (0, 0), (t1, v1), (t2, v2) with v1 < t1 and v1 <= v2 < t2 is admissible.
    t1, t2 = sorted(draw(st.lists(st.integers(1, 64), min_size=2, max_size=2, unique=True)))
    v1 = draw(st.integers(0, t1 - 1))
    v2 = draw(st.integers(v1, t2 - 1))
    return fx.TablePhi(((0.0, 0.0), (t1 / 32.0, v1 / 32.0), (t2 / 32.0, v2 / 32.0)))


def _metric(space, transform):
    fm = fx.FuzzyMetric(space, fx.TNorm("product"))
    return fm if transform is None else fm.g_transform(transform)


@seed(SEED)
@settings(max_examples=500, deadline=None, database=None)
@given(phi=moduli(4.0), t=st.floats(1e-6, 2.0), dt=st.sampled_from([ONSET_ERROR, 1e-12, 1e-9]))
def test_modulus_slack_is_derived_not_loose(phi, t, dt):
    # The slack covers the exact modulus at t + dt above the float value
    # at t, and stays within the bound written from the formulas.
    value = phi.eval(t)
    slack = phi.slack(t, value, dt)
    assert 0.0 <= slack <= slack_bound(phi, t, value, dt)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        assert exact_phi(phi, dec(t) + dec(dt)) <= dec(value) + dec(slack)


def _image(draw, space, f):
    """f, or a constant map onto a point of the space: constant maps scale
    every distance by 0."""
    if not draw(st.booleans()):
        return f
    return fx.ConstantMap(space.sample(random.Random(draw(st.integers(0, 99)))))


@st.composite
def interval_cases(draw):
    lo = draw(_dyadic(-16, 16))
    hi = lo + draw(_dyadic(1, 32))
    space = fx.IntervalSpace(lo, hi, normalize=draw(st.booleans()))
    reflection = fx.AffineBijection(-1.0, lo + hi)
    g, h = (draw(st.sampled_from([fx.AffineBijection(1.0, 0.0), reflection])) for _ in range(2))
    a = draw(st.floats(-0.95, 0.95))
    room = (hi - lo) * (1.0 - abs(a))
    b = lo - min(a * lo, a * hi) + draw(st.floats(0.0, 1.0)) * room
    f = fx.AffineMap(a, b)
    assume(maps_into(space, f))  # b may round the image past an end
    transform = h if draw(st.booleans()) else None
    return _metric(space, transform), _image(draw, space, f), g, draw(moduli(space.diameter()))


def maps_into(space, f):
    try:
        f.validate(space)
    except ValueError:
        return False
    return True


@st.composite
def box_cases(draw):
    dim = draw(st.sampled_from([1, 2, 3]))
    bound = draw(st.sampled_from([0.5, 1.0, 2.0]))
    space = fx.EuclideanSpace(dim, bound, normalize=draw(st.booleans()))
    g, h = (draw(st.sampled_from([fx.AffineBijection(1.0, 0.0), fx.AffineBijection(-1.0, 0.0)])) for _ in range(2))
    a = draw(st.floats(-0.9, 0.9))
    b = draw(st.floats(-1.0, 1.0)) * (1.0 - abs(a)) * bound * 0.999
    transform = h if draw(st.booleans()) else None
    f = _image(draw, space, fx.AffineMap(a, b))
    return _metric(space, transform), f, g, draw(moduli(space.diameter()))


def _slope(draw):
    return draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(0.1, 10.0))


@st.composite
def unbounded_cases(draw):
    """R^1 to R^3 without a bound, where any affine bijection is one: g and
    the metric's transform have slopes other than +-1, so the scale
    |a_g| |a_h| of a distance rounds."""
    space = fx.EuclideanSpace(draw(st.integers(1, 3)), normalize=draw(st.booleans()))
    g, h = (fx.AffineBijection(_slope(draw), draw(st.floats(-1.0, 1.0))) for _ in range(2))
    f = _image(draw, space, fx.AffineMap(_slope(draw) / 10.0, draw(st.floats(-1.0, 1.0))))
    transform = h if draw(st.booleans()) else None
    return _metric(space, transform), f, g, draw(moduli(space.diameter() or draw(st.floats(0.5, 8.0))))


@st.composite
def finite_spaces(draw, max_points=6):
    # Integer points of the plane under the L1 metric: the triangle
    # inequality holds exactly in floats.
    coords = draw(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=max_points, unique=True))
    labels = tuple(f"p{i}" for i in range(len(coords)))
    dist = tuple(tuple(float(abs(a - c) + abs(b - e)) for c, e in coords) for a, b in coords)
    return fx.FiniteSpace(labels, dist, normalize=draw(st.booleans()))


def _permutation(draw, labels):
    return fx.PermutationBijection(dict(zip(labels, draw(st.permutations(labels)))))


@st.composite
def finite_cases(draw):
    space = draw(finite_spaces())
    labels = space.labels
    f = fx.TableMap({l: draw(st.sampled_from(labels)) for l in labels})
    g, h = _permutation(draw, labels), _permutation(draw, labels)
    transform = h if draw(st.booleans()) else None
    return _metric(space, transform), f, g, draw(moduli(space.diameter() or 1.0))


def assert_matches_reference(case, samples, sample_seed):
    fm, f, g, phi = case
    report = fx.check_g_phi(fm, f, g, phi, samples=samples, seed=sample_seed)
    pairs = fx.sample_pairs(fm.space, samples, sample_seed)
    passed, expected = reference_check_g_phi(fm, f, g, phi, pairs)
    got = [(ce.x, ce.y, ce.t, ce.antecedent, ce.consequent) for ce in report.counterexamples]
    assert (report.passed, report.checked_pairs, got) == (passed, len(pairs), expected)
    return passed


contraction_settings = settings(max_examples=120, deadline=None, database=None)
FLAGSHIP_CASE = (
    fx.FuzzyMetric(fx.IntervalSpace(0.0, 1.0), fx.TNorm("product")),
    fx.AffineMap(0.5, 0.0),
    fx.AffineBijection(-1.0, 1.0),
    fx.InducedPhi(0.5, 1.0),
)
NAIVE_CASE = FLAGSHIP_CASE[:3] + (fx.LinearPhi(0.5),)
# Exactly tight for the real maps, while f and g round in floats.
ROUNDING_CASE = (
    FLAGSHIP_CASE[0],
    fx.AffineMap(0.123456789, 0.5),
    fx.AffineBijection(-1.0, 1.0),
    fx.InducedPhi(0.123456789, 1.0),
)


@seed(SEED)
@contraction_settings
@given(case=interval_cases(), samples=st.integers(1, 150), sample_seed=st.integers(0, 99))
@example(case=FLAGSHIP_CASE, samples=150, sample_seed=0)  # passes
@example(case=NAIVE_CASE, samples=150, sample_seed=0)  # fails on every pair of distinct points
@example(case=ROUNDING_CASE, samples=150, sample_seed=0)  # passes
def test_check_g_phi_matches_reference_on_intervals(case, samples, sample_seed):
    assert_matches_reference(case, samples, sample_seed)


@seed(SEED)
@contraction_settings
@given(case=box_cases(), samples=st.integers(1, 100), sample_seed=st.integers(0, 99))
def test_check_g_phi_matches_reference_on_boxes(case, samples, sample_seed):
    assert_matches_reference(case, samples, sample_seed)


@seed(SEED)
@contraction_settings
@given(case=unbounded_cases(), samples=st.integers(1, 100), sample_seed=st.integers(0, 99))
def test_check_g_phi_matches_reference_on_unbounded_spaces(case, samples, sample_seed):
    assert_matches_reference(case, samples, sample_seed)


@seed(SEED)
@contraction_settings
@given(case=finite_cases(), samples=st.integers(1, 40), sample_seed=st.integers(0, 99))
def test_check_g_phi_matches_reference_on_finite_spaces(case, samples, sample_seed):
    assert_matches_reference(case, samples, sample_seed)


def test_reference_cases_cover_both_verdicts():
    assert assert_matches_reference(FLAGSHIP_CASE, 150, 0)
    assert assert_matches_reference(ROUNDING_CASE, 150, 0)
    assert not assert_matches_reference(NAIVE_CASE, 150, 0)


@st.composite
def setvalued_cases(draw):
    space = draw(finite_spaces())
    labels = space.labels
    images = {l: tuple(draw(st.lists(st.sampled_from(labels), min_size=1, max_size=3))) for l in labels}
    g, h = _permutation(draw, labels), _permutation(draw, labels)
    transform = h if draw(st.booleans()) else None
    return _metric(space, transform), fx.SetValuedMap(images), g, draw(moduli(space.diameter() or 1.0))


@seed(SEED)
@contraction_settings
@given(case=setvalued_cases())
def test_setvalued_check_matches_reference(case):
    fm, T, g, phi = case
    report = fx.check_setvalued_contraction(fm, T, g, phi)
    pairs = [(x, y) for x in fm.space.labels for y in fm.space.labels]
    passed, expected = reference_check_setvalued(fm, T, g, phi, pairs)
    got = [(ce.x, ce.y, ce.t, ce.antecedent, ce.consequent, ce.u) for ce in report.counterexamples]
    assert (report.passed, got) == (passed, expected)


FAULTS = ("duplicate", "whitespace", "diagonal", "negative", "asymmetric", "nan", "shared_nan", "entry", "ulp")


@st.composite
def finite_tables(draw):
    """Labels and a distance table on up to 6 points, with 0 to 3 faults
    injected. The points lie on a line or are drawn at random, so the
    triangle inequality is often tight up to the rounding of a sum."""
    n = draw(st.integers(1, 6))
    labels = [f"p{i}" for i in range(n)]
    xs = draw(st.lists(st.floats(-8.0, 8.0), min_size=n, max_size=n))
    table = [[abs(x - y) for y in xs] for x in xs]
    if draw(st.booleans()):
        for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n * n)):
            if i != j:
                table[i][j] = table[j][i] = draw(st.floats(0.0, 16.0))
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=3)):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if fault == "duplicate":
            labels[i] = labels[j]
        elif fault == "whitespace":
            labels[i] = draw(st.sampled_from(["", "p q", "p\t"]))
        elif fault == "diagonal":
            table[i][i] = draw(st.sampled_from([5e-324, 1.0, -0.5, float("nan")]))
        elif fault == "negative":
            table[i][j] = table[j][i] = -draw(st.floats(5e-324, 4.0))
        elif fault == "asymmetric":
            table[i][j] = math.nextafter(table[j][i], math.inf)
        elif fault in ("nan", "shared_nan"):
            nan = float("nan")
            table[i][j], table[j][i] = nan, nan if fault == "shared_nan" else float("nan")
        elif fault == "entry":
            table[i][j] = table[j][i] = draw(st.floats(0.0, 16.0))
        else:  # one ulp beyond the entry on a tight triangle
            table[i][j] = table[j][i] = math.nextafter(table[i][j], math.inf)
    return labels, table


# The first failing pair (p0, p2) is found through p3, the first failing
# triple is (p0, p1, p3).
SCAN_ORDER_TABLE = (
    ["p0", "p1", "p2", "p3"],
    [[0.0, 1.0, 5.0, 3.0], [1.0, 0.0, 4.0, 1.0], [5.0, 4.0, 0.0, 1.0], [3.0, 1.0, 1.0, 0.0]],
)


@seed(SEED)
@settings(max_examples=1000, deadline=None, database=None)
@given(case=finite_tables())
@example(case=SCAN_ORDER_TABLE)
@example(case=(["a", "b"], [[0.0, float("nan")], [float("nan"), 0.0]]))
def test_finite_space_validation_matches_triple_scan(case):
    labels, table = case
    expected = finite_space_fault(labels, table)
    try:
        fx.FiniteSpace(tuple(labels), tuple(map(tuple, table)))
    except ValueError as exc:
        assert str(exc) == expected
    else:
        assert expected is None
