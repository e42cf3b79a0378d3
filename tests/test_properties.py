"""Property tests of the exact layers against independent oracles.

The horizon is compared with plain float iteration of each modulus's
definition, the fold margin with a bit-pattern bisection over the
t-norms' formulas, table admissibility with a dense time check, the threshold
with the float switch of the crossing predicate, checked in floats and
rationals, and the contraction checks with an oracle that
decides each pair exactly for the real maps and moduli in 60-digit
decimals, without the library's exact pair rules. The checks' float filter
must agree with those exact rules wherever it decides a pair, and so must
the piece table of an unnormalized continuum check, at and between its
cuts, and a check decided by its exact verdict over its whole reach must
report what deciding each row would. A check that passes an affine problem
on an interval must solve it within its horizon, near the exact
coincidence point by the Banach a-priori bound, and a set-valued check that
passes on a finite space must solve its inclusion within its horizon. A
one-dimensional box distance must be abs of the difference, to the bit.
Every test runs on a fixed seed, so the suite stays deterministic.
"""

import bisect
import itertools
import math
import random
import struct
import sys
from decimal import localcontext
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

import fuzzfix as fx
from conftest import per_row_piece_table
from fuzzfix.contraction import _float_test, piece_table
from fuzzfix.phi import pair_passes
from oracles import (
    DIGITS,
    ONSET_ERROR,
    U,
    banach_bound,
    checked_onset,
    dec,
    exact_pass,
    finite_space_fault,
    induced_step,
    largest_margin,
    linear_step,
    orbit_count,
    rational_step,
    reaches_crossing,
    reference_check_g_phi,
    reference_check_setvalued,
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


EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.0, DMAX, -DMAX, math.inf, -math.inf, math.nan)


def assert_one_dimensional_distance_is_abs_difference(a, b):
    # math.dist returns the single |a - b| of a one-coordinate point, to the
    # bit. A NaN result comes back as the canonical NaN, whatever the
    # payload of a NaN coordinate, so NaN results are compared as NaN.
    d, expected = fx.EuclideanSpace(1).distance((a,), (b,)), abs(a - b)
    if math.isnan(expected):
        assert math.isnan(d)
    else:
        assert struct.pack("<d", d) == struct.pack("<d", expected), (a, b)


def test_one_dimensional_distance_is_abs_difference_on_edge_floats():
    for a, b in itertools.product(EDGE_FLOATS, repeat=2):
        assert_one_dimensional_distance_is_abs_difference(a, b)


@seed(SEED)
@settings(max_examples=1000, deadline=None, database=None)
@given(a=st.floats(), b=st.floats())
def test_one_dimensional_distance_is_abs_difference(a, b):
    assert_one_dimensional_distance_is_abs_difference(a, b)


def test_onset_returns_the_flip_its_search_brackets():
    # Within ulps of the crossing the predicate flips three times here: it
    # holds at t0, fails at the closed form one float above, and holds again
    # from the float after. The search goes up from the closed form.
    d, t0 = 0.033970078490917474, 0.16810566837944405
    closed = fx.crossing_time(d)
    assert closed == math.nextafter(t0, 1.0)
    assert [t / (t + d) > 1.0 - t for t in (t0, closed)] == [True, False]
    assert checked_onset(d) == math.nextafter(closed, 1.0) == 0.1681056683794441


def test_onset_of_coincident_points():
    # 1 - t rounds to 1 up to 2**-54, so the antecedent first holds just above it.
    assert checked_onset(0.0) == math.nextafter(2.0 ** -54, 1.0)


@seed(SEED)
@settings(max_examples=500, deadline=None, database=None)
@given(k=st.floats(0.05, 0.95), log_cap=st.floats(math.log(0.05), math.log(1e15)), share=st.floats(1e-12, 1.0))
def test_induced_conjugacy_holds_within_its_slack(k, log_cap, share):
    # eval(tau(d)) == tau(k * d) for d <= cap: at the float onset t of d
    # the exact tau(k * d) lies within the rounding of eval, 8 units of
    # 2**-53 of the value, plus the rise of phi over the onset's error,
    # ONSET_ERROR times the slope, which is below 1 / k and, while room =
    # 1 - t - ONSET_ERROR > 0, below 1 / room**2.
    phi = fx.InducedPhi(k, math.exp(log_cap))
    d = phi.cap * share
    t = fx.onset(d)
    value = phi.eval(t)
    room = 1.0 - t - ONSET_ERROR
    slope = min(1.0 / k, 1.0 / (room * room)) if room > 0.0 else 1.0 / k
    slack = Fraction(8 * U) * Fraction(value) + Fraction(ONSET_ERROR) * Fraction(slope)
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


def _image(draw, space, f):
    """f, or a constant map onto a point of the space: constant maps scale
    every distance by 0."""
    if not draw(st.booleans()):
        return f
    return fx.ConstantMap(space.sample(random.Random(draw(st.integers(0, 99))), 1)[0])


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


def onto(space, g):
    try:
        g.validate_bijection(space)
    except fx.NotBijective:
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


def critical_distance(phi, a):
    """delta*: under the identity, f(x) = a x passes a pair iff its points
    lie at most delta* apart. For rho = |a| the crossing tau(delta*) is R =
    (k**2 - rho) / (k (k - rho)) for linear(k) and (1 - rho) / (1 + rho)
    for the rational modulus, and delta* = R**2 / (1 - R)."""
    rho = Fraction(abs(a))
    if isinstance(phi, fx.LinearPhi):
        k = Fraction(phi.k)
        r = (k * k - rho) / (k * (k - rho))
    else:
        r = (1 - rho) / (1 + rho)
    return r * r / (1 - r)


@seed(SEED)
@settings(max_examples=60, deadline=None, database=None)
@given(linear=st.booleans(), k=st.floats(0.05, 0.95), share=st.floats(0.01, 0.99), sign=st.sampled_from([1.0, -1.0]))
@example(linear=True, k=0.5, share=0.8, sign=1.0)  # f = 0.2 x with linear(0.5): delta* just below 1/6
def test_pairs_within_ulps_of_the_critical_distance_match_reference(linear, k, share, sign):
    # The verdict of the pair (0, y) switches at y = delta*: each of the
    # 8 floats on either side of it is checked as the extreme pair of
    # [0, y] and compared with the exact oracle.
    phi = fx.LinearPhi(k) if linear else fx.RationalPhi()
    a = sign * share * (k * k if linear else 1.0)
    y = float(critical_distance(phi, a))
    for _ in range(8):
        y = math.nextafter(y, 0.0)
    verdicts = set()
    for _ in range(17):
        fm = fx.FuzzyMetric(fx.IntervalSpace(0.0, y), fx.TNorm("product"))
        f = fx.AffineMap(a, 0.0 if a > 0 else -a * y)
        if maps_into(fm.space, f):
            verdicts.add(assert_matches_reference((fm, f, fx.identity_for(fm.space), phi), 2, 0))
        y = math.nextafter(y, math.inf)
    assert verdicts == {True, False}


def _nudge(x, ulps):
    """x moved ``ulps`` floats up, or down for ulps < 0."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.inf if ulps > 0 else 0.0)
    return x


def _distance_at(t):
    """About the distance whose crossing time is t, for 0 < t < 1."""
    return t * t / (1.0 - t)


@st.composite
def near_ties(draw):
    """(phi, d_g, d_f, normalize) with d_g crossing within 64 units of
    2**-53 of some time, a table's breakpoint or an induced modulus's
    crossing of its cap, and d_f within a few ulps of a tie with phi within
    64 units of that crossing, moved by 1 to 2**14 units. Induced ratios go
    down to 0.01 and caps up to 1e8, where the curve below the cap is
    steepest."""
    kind = draw(st.sampled_from(["linear", "rational", "induced", "table"]))
    times = [draw(st.floats(1e-6, 0.999))]
    if kind == "linear":
        phi = fx.LinearPhi(draw(st.floats(0.01, 0.99)))
    elif kind == "rational":
        phi = fx.RationalPhi()
    elif kind == "induced":
        phi = fx.InducedPhi(draw(st.floats(0.01, 0.95)), math.exp(draw(st.floats(math.log(0.05), math.log(1e8)))))
        times.append(phi.tau_cap)
    else:
        t1, t2 = sorted(draw(st.lists(st.integers(1, 31), min_size=2, max_size=2, unique=True)))
        v1 = draw(st.integers(0, t1 - 1))
        phi = fx.TablePhi(((0.0, 0.0), (t1 / 32.0, v1 / 32.0), (t2 / 32.0, draw(st.integers(v1, t2 - 1)) / 32.0)))
        times += [t1 / 32.0, t2 / 32.0]
    t = draw(st.sampled_from(times)) * (1.0 + draw(st.integers(-64, 64)) * U)
    d_g = _nudge(_distance_at(min(t, 0.999)), draw(st.integers(-4, 4)))
    c = phi.eval(fx.crossing_time(d_g) * (1.0 + draw(st.integers(-64, 64)) * U))
    c *= 1.0 + draw(st.sampled_from([-1, 1])) * 2 ** draw(st.integers(0, 14)) * U
    d_f = _nudge(_distance_at(c) if c > 0.0 else 0.0, draw(st.integers(0 if c == 0.0 else -4, 4)))
    return phi, d_g, d_f, draw(st.booleans()) and d_g < 1.0 and d_f < 1.0


# tau(2.25) = 0.75 on a breakpoint: the float test leaves it undecided.
BREAKPOINT_CROSSING = (fx.TablePhi(((0.0, 0.0), (0.5, 0.0), (0.75, 0.5))), 2.25, 0.225, False)
# The float crossing of d_g rounds up onto the breakpoint 1/16 while the
# exact one lies below it, where phi is 0: phi at t would pass this failing pair.
ROUNDED_ONTO_A_BREAKPOINT = (
    fx.TablePhi(((0.0, 0.0), (1 / 32, 0.0), (1 / 16, 1 / 32))),
    0.004166666666666666,
    0.000248015873015873,
    False,
)
# The bracket's lower end lies between tau(cap) and the float tau_cap,
# where eval runs on the steep curve while the modulus has turned to its
# tail: without the margin's e / k term the test passes this failing pair.
BETWEEN_CAP_CROSSINGS = (
    fx.InducedPhi(0.03185548209621867, 3381819.9306882466),
    3381819.9623955595,
    107729.50426796735,
    False,
)


@seed(SEED)
@settings(max_examples=500, deadline=None, database=None)
@given(case=near_ties())
@example(case=BREAKPOINT_CROSSING)
@example(case=ROUNDED_ONTO_A_BREAKPOINT)
@example(case=BETWEEN_CAP_CROSSINGS)
def test_float_filter_agrees_with_the_exact_rule_near_ties(case):
    # Under normalize the distances are those of raw distances r, 1 - exp(-r).
    phi, d_g, d_f, normalize = case
    raw = [-math.log1p(-d) for d in (d_g, d_f)] if normalize else [d_g, d_f]
    verdict = _float_test(phi)(*([-math.expm1(-r) for r in raw] if normalize else raw))
    assert verdict in (None, pair_passes(phi, *(Fraction(r) ** 2 for r in raw), normalize))


@st.composite
def piece_cases(draw):
    """(phi, rho) for a check on an unnormalized continuum, rho = |a_f / a_g|
    of float slopes: every modulus kind, tables of 1 to 4 breakpoints not
    necessarily admissible, rho = 0 (a constant f) and rho past k."""
    kind = draw(st.sampled_from(["linear", "rational", "induced", "table"]))
    k = draw(st.floats(0.05, 0.95))
    if kind == "table":
        # Breakpoints and values are 0 or at least 1e-6, where the oracle's tie width is far below the margins.
        levels = st.one_of(st.just(0.0), st.floats(1e-6, 1.2))
        times = sorted(draw(st.lists(levels, min_size=1, max_size=4, unique=True)))
        phi = fx.TablePhi(tuple((t, draw(levels)) for t in times))
    elif kind == "induced":
        phi = fx.InducedPhi(k, draw(st.floats(0.01, 100.0)))
    else:
        phi = fx.LinearPhi(k) if kind == "linear" else fx.RationalPhi()
    a_g = draw(st.floats(0.01, 10.0))
    ratio = draw(st.one_of(st.just(0.0), st.just(k), st.floats(0.0, 2.0)))
    return phi, abs(Fraction(a_g * ratio) / Fraction(a_g))


def _floats_around(x, steps=3):
    """x and its ``steps`` nearest floats either way, those >= 0."""
    up = down = x
    out = [x]
    for _ in range(steps):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, 0.0)
        out += [up, down]
    return [y for y in out if y >= 0.0 and math.isfinite(y)]


def _float_of(q):
    """The float nearest the rational q >= 0, or the largest float if q lies past it."""
    return float(min(q, Fraction(sys.float_info.max)))


# A tiny slope puts linear(0.5)'s cut past the largest float.
OVERFLOWING_CUT = (fx.LinearPhi(0.5), Fraction(2.225073858507e-311))


@seed(SEED)
@settings(max_examples=200, deadline=None, database=None)
@given(case=piece_cases())
@example(case=OVERFLOWING_CUT)
@example(case=(fx.LinearPhi(0.5), Fraction(0.5)))
@example(case=(fx.TablePhi(((0.0, 0.0), (0.5, 0.0), (0.75, 0.5))), Fraction(0.1)))
def test_piece_table_agrees_with_the_exact_rule(case):
    # A row of an unnormalized continuum check at float distance d_g = d
    # fails iff fails[bisect_right(bounds, d)] where that is not None; else
    # it escalates to the float test and the exact rule. At each cut's
    # neighbouring floats, which its enclosure must hold, and at points
    # inside each piece, a decided verdict is the exact rule's, and the
    # exact rule agrees with the decimal oracle where 1e-50 <= d <= 1e20:
    # outside, one float step moves tau(d) by less than the oracle's
    # absolute tie width of 1e-45, so it calls the margins near a cut ties.
    # A whole-reach verdict, for a reach on a cut or next to one, is the
    # exact rule's failing verdict at every probed d in (0, D].
    phi, rho = case
    bounds, fails, whole = piece_table(phi, rho, None)
    assert whole is None
    assert bounds == sorted(bounds) and len(fails) == len(bounds) + 1
    cuts = sorted({Fraction(0), *phi.cuts(rho)})
    nearest = [_float_of(c) for c in cuts]
    for c in nearest[1:]:
        assert all(fails[bisect.bisect_right(bounds, d)] is None for d in _floats_around(c, 1))
    inside = [_float_of((a + b) / 2) for a, b in zip(cuts, cuts[1:])] + [_float_of(cuts[-1] * 2 + 1)]
    with localcontext() as ctx:
        ctx.prec = DIGITS
        for d in [y for x in nearest for y in _floats_around(x)] + inside:
            exact = pair_passes(phi, Fraction(d) ** 2, (rho * Fraction(d)) ** 2, False)
            assert fails[bisect.bisect_right(bounds, d)] in (None, not exact)
            assert not 1e-50 <= d <= 1e20 or exact == exact_pass(phi, dec(d), dec(rho * Fraction(d)))
    probes = [Fraction(d) for x in nearest for d in _floats_around(x)] + [*map(Fraction, cuts + inside)]
    fails_at = {d: not pair_passes(phi, d * d, (rho * d) ** 2, False) for d in probes if d > 0}
    for reach in [*map(Fraction, cuts[1:])] + [Fraction(d) for x in nearest for d in _floats_around(x, 1) if d > 0]:
        _, _, whole = piece_table(phi, rho, reach * reach)
        assert whole is None or all(whole == fail for d, fail in fails_at.items() if d <= reach)


# Golden interval_linear_cut: delta*, just below 1/6, splits the reach [0, 1].
INTERVAL_LINEAR_CUT = (FLAGSHIP_CASE[0], fx.AffineMap(0.2, 0.0), fx.AffineBijection(1.0, 0.0), fx.LinearPhi(0.5))


def _nudged(x, steps):
    """The float ``steps`` floats above x (below where negative)."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


@st.composite
def reach_cases(draw):
    """An unnormalized interval or bounded box whose reach D, the largest
    g-image distance its plans can hold, lies on or next to a cut of the
    check's exact rule, an induced modulus's cap among them: all four
    moduli, f affine or constant, g the identity or a reflection, with or
    without a reflection transform. g's slope is +-1, so rho = |a_f|, and
    a linear cut lies past 0 where rho < k**2."""
    kind = draw(st.sampled_from(["linear", "rational", "induced", "table"]))
    k, a = draw(st.floats(0.05, 0.95)), draw(st.floats(-0.95, 0.95))
    a *= k * k if kind == "linear" and draw(st.booleans()) else 1.0
    constant, steps = draw(st.booleans()), draw(st.integers(-2, 2))
    rho = 0 if constant else abs(Fraction(a))
    if kind == "induced":
        reach = draw(st.floats(0.05, 8.0))
        phi = fx.InducedPhi(k, _nudged(reach, steps))
    else:
        phi = fx.LinearPhi(k) if kind == "linear" else fx.RationalPhi() if kind == "rational" else draw(moduli(1.0))
        cuts = [float(c) for c in phi.cuts(rho) if 1e-3 < c < 1e3]
        reach = _nudged(draw(st.sampled_from(cuts)), steps) if cuts else draw(st.floats(0.05, 8.0))
    if draw(st.booleans()):
        lo = draw(_dyadic(-16, 16))
        space = fx.IntervalSpace(lo, lo + reach)
        reflection = fx.AffineBijection(-1.0, lo + space.hi)  # lo + hi may round: then it is no bijection
        bijections = [fx.AffineBijection(1.0, 0.0)] + [reflection] * onto(space, reflection)
        g, h = (draw(st.sampled_from(bijections)) for _ in range(2))
        f = fx.AffineMap(a, lo - min(a * lo, a * space.hi) + draw(st.floats(0.0, 1.0)) * reach * (1.0 - abs(a)))
    else:
        dim = draw(st.integers(1, 3))
        space = fx.EuclideanSpace(dim, reach / (2.0 * math.sqrt(dim)))
        g, h = (draw(st.sampled_from([fx.AffineBijection(1.0, 0.0), fx.AffineBijection(-1.0, 0.0)])) for _ in range(2))
        f = fx.AffineMap(a, draw(st.floats(-1.0, 1.0)) * (1.0 - abs(a)) * space.bound * 0.999)
    if constant:
        f = fx.ConstantMap(space.sample(random.Random(draw(st.integers(0, 99))), 1)[0])
    assume(maps_into(space, f))  # b may round the image past an end
    return _metric(space, h if draw(st.booleans()) else None), f, g, phi


@seed(SEED)
@settings(max_examples=200, deadline=None, database=None)
@given(case=reach_cases(), samples=st.integers(1, 50), sample_seed=st.integers(0, 99))
@example(case=FLAGSHIP_CASE, samples=50, sample_seed=0)  # D = cap: passes everywhere
@example(case=NAIVE_CASE, samples=50, sample_seed=0)  # fails on every pair of distinct points
@example(case=INTERVAL_LINEAR_CUT, samples=50, sample_seed=0)  # pairs on both sides of its cut
def test_a_whole_reach_verdict_is_every_row_s(case, samples, sample_seed):
    # A check on an unnormalized bounded continuum whose exact verdict is one
    # over its whole reach reports what deciding each row would: the same
    # pairs, counterexamples and verdict, whether or not it draws them.
    fm, f, g, phi = case
    report = fx.check_g_phi(fm, f, g, phi, samples=samples, seed=sample_seed)
    with mock.patch.object(fx.contraction, "piece_table", per_row_piece_table):
        assert fx.check_g_phi(fm, f, g, phi, samples=samples, seed=sample_seed) == report


@st.composite
def setvalued_cases(draw):
    """A finite space under a permutation g, or an interval of dyadic
    points under the identity g, and a T whose domain is a proper subset
    of those points where there are two, so that some g-images miss it."""
    if draw(st.booleans()):
        space = draw(finite_spaces())
        points = space.labels
        g, h = _permutation(draw, points), _permutation(draw, points)
    else:
        lo = draw(_dyadic(-16, 16))
        space = fx.IntervalSpace(lo, lo + draw(_dyadic(1, 32)), normalize=draw(st.booleans()))
        points = [lo + i / 8.0 for i in range(round((space.hi - lo) * 8.0) + 1)]
        g, h = fx.identity_for(space), fx.AffineBijection(-1.0, lo + space.hi)
    domain = draw(st.lists(st.sampled_from(points), min_size=1, max_size=max(1, min(6, len(points) - 1)), unique=True))
    images = {p: tuple(draw(st.lists(st.sampled_from(points), min_size=1, max_size=3))) for p in domain}
    transform = h if draw(st.booleans()) else None
    return _metric(space, transform), fx.SetValuedMap(images), g, draw(moduli(space.diameter() or 1.0))


@seed(SEED)
@contraction_settings
@given(case=setvalued_cases())
def test_setvalued_check_matches_reference(case):
    # The check takes every ordered pair of points whose g-images lie in
    # dom T: on an interval, with the identity g, that is dom T x dom T.
    fm, T, g, phi = case
    report = fx.check_setvalued_contraction(fm, T, g, phi)
    points = fm.space.labels if isinstance(fm.space, fx.FiniteSpace) else list(T.images)
    eligible = [x for x in points if g.apply(x) in T.images]
    passed, expected = reference_check_setvalued(fm, T, g, phi, [(x, y) for x in eligible for y in eligible])
    got = [(ce.x, ce.y, ce.t, ce.antecedent, ce.consequent, ce.u) for ce in report.counterexamples]
    assert (report.passed, report.checked_pairs, got) == (passed, len(eligible) ** 2, expected)


TOP = 1.0 - 2.0 ** -53  # the largest value random() returns


@seed(SEED)
@deterministic
@given(
    ends=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2),
    bound=st.floats(0.0, 1e300, exclude_min=True),
    dim=st.integers(1, 3),
    r=st.sampled_from([0.0, TOP]),
)
@example(ends=[-3.462543023550395, 3.3897349477489307], bound=1.0, dim=1, r=TOP)  # fl(lo + fl(hi - lo)) > hi
@example(ends=[-5e-324, 1e-323], bound=5e-324, dim=2, r=TOP)  # subnormal widths
def test_every_draw_lies_in_the_space(ends, bound, dim, r):
    # random() lies in [0, 1 - 2**-53], so a draw at either end of that
    # range lies in the space: an interval's lo + w r never rounds past hi,
    # and a box coordinate -b + 2b r never past b.
    lo, hi = sorted(ends)
    assume(lo < hi and math.isfinite(hi - lo))
    rng = mock.Mock(random=lambda: r)
    space, box = fx.IntervalSpace(lo, hi), fx.EuclideanSpace(dim, bound)
    assert all(map(space.contains, space.sample(rng, 2)))
    assert all(map(box.contains, box.sample(rng, 2)))


@st.composite
def solvable_cases(draw):
    """An unnormalized interval, g the identity or its reflection, an affine
    f into it with |a_f / a_g| < 1, and a linear, rational or induced
    modulus whose cap covers the diameter. There a linear or rational
    verdict falls with the pair's distance and an induced one does not
    depend on it, so the extreme pair, which every plan holds, decides the
    check over the whole space."""
    lo = draw(_dyadic(-16, 16))
    hi = lo + draw(_dyadic(1, 32))
    space = fx.IntervalSpace(lo, hi)
    g = draw(st.sampled_from([fx.AffineBijection(1.0, 0.0), fx.AffineBijection(-1.0, lo + hi)]))
    a = draw(st.floats(-0.95, 0.95))
    b = lo - min(a * lo, a * hi) + draw(st.floats(0.0, 1.0)) * (hi - lo) * (1.0 - abs(a))
    f = fx.AffineMap(a, b)
    assume(maps_into(space, f))
    kind = draw(st.sampled_from(["linear", "rational", "induced"]))
    if kind == "rational":
        phi = fx.RationalPhi()
    else:
        k = draw(st.floats(0.05, 0.95))
        phi = fx.LinearPhi(k) if kind == "linear" else fx.InducedPhi(k, (hi - lo) * draw(st.floats(1.0, 2.0)))
    start = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)  # lo and hi are dyadic: it stays in [lo, hi]
    return fx.FuzzyMetric(space, fx.TNorm("product")), f, g, phi, start


@seed(SEED)
@settings(max_examples=300, deadline=None, database=None)
@given(
    case=solvable_cases(),
    samples=st.integers(1, 20),
    sample_seed=st.integers(0, 99),
    epsilon=st.sampled_from([1e-2, 1e-3, 1e-4]),
    lam=st.sampled_from([1e-2, 1e-3, 1e-4]),
    t0=st.floats(1.01, 4.0),
)
@example(case=FLAGSHIP_CASE + (0.0,), samples=2, sample_seed=0, epsilon=1e-3, lam=1e-3, t0=2.0)  # passes
def test_a_passing_check_solves_within_the_horizon(case, samples, sample_seed, epsilon, lam, t0):
    # The paper's theorem: from t0 > 1 the hypothesis gives M(gx_n, gx_n+1,
    # phi^n(t0)) > 1 - phi^n(t0) for every n, so the window (x_N, x_N+1)
    # lies in the entourage once phi^N(t0) <= min(epsilon, lam), and N + 1
    # steps converge. The check must agree with the exact rule on the
    # extreme pair, which decides the whole space. A failing hypothesis
    # asserts nothing: its orbit need not converge.
    fm, f, g, phi, start = case
    space = fm.space
    d2 = (Fraction(space.hi) - Fraction(space.lo)) ** 2
    holds = pair_passes(phi, Fraction(g.a) ** 2 * d2, Fraction(f.a) ** 2 * d2, False)
    assert fx.check_g_phi(fm, f, g, phi, samples=samples, seed=sample_seed).passed == holds
    n = fx.horizon(phi, t0, epsilon, lam)
    if not holds or n >= 3000:  # the exact bound below takes q**n in rationals
        return
    result = fx.solve_coincidence(fm, f, g, phi, fx.SolverConfig(start, epsilon, lam, t0, max_iter=n + 1))
    assert result.converged
    z, bound = banach_bound((f.a, f.b), (g.a, g.b), start, result.iterations, 1.0 + abs(space.lo) + abs(space.hi))
    assert abs(Fraction(result.point) - z) <= bound


@seed(SEED)
@settings(max_examples=200, deadline=None, database=None)
@given(
    space=finite_spaces(),
    data=st.data(),
    epsilon=st.sampled_from([1e-2, 1e-3]),
    t0=st.floats(1.01, 4.0),
)
def test_a_passing_setvalued_check_solves_within_the_horizon(space, data, epsilon, t0):
    # The set-valued theorem under the identity: x_1 in T(x_0) is free, as
    # t0 > 1 makes the antecedent vacuous, and the hypothesis then gives
    # x_n+1 in T(x_n) with M(x_n, x_n+1, phi^n(t0)) > 1 - phi^n(t0), so the
    # window (x_N, x_N+1) passes once phi^N(t0) <= epsilon. Images are
    # drawn near a sink label, so that a fair share of checks pass. Points
    # lie at least 1 - exp(-1) apart, so the window repeats a point, which
    # lies in its own image.
    labels = space.labels
    sink = data.draw(st.sampled_from(labels))
    images = st.lists(st.sampled_from(labels), min_size=0, max_size=2).map(lambda extra: (sink, *extra))
    T = fx.SetValuedMap({label: data.draw(images) for label in labels})
    phi = data.draw(moduli(space.diameter() or 1.0))
    fm, g = fx.FuzzyMetric(space, fx.TNorm("product")), fx.identity_for(space)
    if not fx.check_setvalued_contraction(fm, T, g, phi).passed:
        return
    n = fx.horizon(phi, t0, epsilon, epsilon)
    cfg = fx.SolverConfig(data.draw(st.sampled_from(labels)), epsilon, epsilon, t0, max_iter=n + 1)
    result = fx.solve_inclusion(fm, T, g, phi, cfg)
    assert result.converged and result.in_image


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
